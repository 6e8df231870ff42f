"""Randomized verification of the analytic estimates behind the solver.

Each named check measures a ratio LHS/RHS for one inequality on random
input and compares it against a declared bound. Exact identities are
declared with their sharp constant and must sit at the bound up to
roundoff; genuine inequalities carry a conservative bound and the
measured ratios document the observed margin.

Random fields draw i.i.d. complex Gaussian Fourier coefficients with a
power-law decay |k|^-gamma, truncated at the dealiasing cutoff n/3 and
Hermitian-symmetrized, so every sample is real, mean-zero, and
band-limited. Trajectory-backed checks share one simulation bundle per
seed: an SG run at eps = 0.05 (its datum normalized to unit gradient so
the run stays inside the bootstrap window), the corrector run from the
same datum, whose Euler background is the Euler run, particle flows
for both velocity fields, and both runs' inverse flows from their
back-to-labels maps. Every flow takes one RK4 step per sample interval,
about 1/14 of its CFL limit; on seeds 0-9, a quarter of that step moves
the flow checks' ratios by at most 1e-11 relative.

A checker returns its float ratio and raises on degenerate input. The
registry rows (FIELD_CHECKS, BUNDLE_CHECKS) hold each check's name and
bound. run_suite(seed, count) executes every checker count times
(cycling through sample times for trajectory checks), alone builds a
CheckResult from each ratio, and collects failures without aborting;
results are deterministic given the seed.
"""

import hashlib
import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .config import RunConfig
from .elliptic import (
    det_expansion_residual,
    hessian_det,
    hessian_linf,
    hessian_l2,
)
from .lagrangian import (
    flow_gap,
    inverse_flow_lipschitz,
    inverse_flows,
    paired_gap_series,
    sample_flows,
)
from .spectral import (
    NormKind,
    ScalarField,
    TorusGrid,
    derivative,
    inv_laplacian,
    norm,
    perp_gradient,
)
from .transport import (Trajectory, _advance, _diagnostics, _rk4, cumulative_trapezoid,
                        gronwall_integral, run_simulation)

__all__ = [
    "CheckResult",
    "SuiteReport",
    "random_field",
    "check_wente",
    "check_endpoint_cz",
    "check_h1_interp",
    "check_sobolev_interp",
    "check_det_lipschitz",
    "check_det_expansion",
    "check_forced_transport_constant",
    "run_suite",
    "FIELD_CHECKS",
    "BUNDLE_CHECKS",
]

BUNDLE_EPS = 0.05
BUNDLE_T = 0.5
BUNDLE_N = 64
BUNDLE_INTERVAL = 0.05
FLOW_LABELS = 32
SOBOLEV_LOW = 1.0  # the interpolation pair H^1, H^3 around H^2
SOBOLEV_HIGH = 3.0
EXPANSION_EPS = 0.02
FORCED_T, FORCED_STEPS = 0.4, 8  # zero-velocity forced transport: horizon, RK4 steps


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one inequality measurement."""

    name: str
    ratio: float
    bound: float | None
    seed: int
    inputs_digest: str

    def __post_init__(self):
        if math.isfinite(self.ratio) and self.ratio < 0:
            raise ValueError("ratio must be nonnegative")

    @property
    def passed(self) -> bool:
        """Unbounded checks always pass; bounded ones need a finite ratio within the bound."""
        return self.bound is None or (math.isfinite(self.ratio) and self.ratio <= self.bound)


@dataclass
class SuiteReport:
    seed: int
    count: int
    results: list
    errors: list = field(default_factory=list)

    def records(self) -> list:
        """One suite.ndjson record per result, as `check --out` and the
        inequalities experiment write it."""
        return [{"name": r.name, "ratio": r.ratio, "bound": r.bound, "pass": r.passed,
                 "seed": r.seed, "digest": r.inputs_digest} for r in self.results]

    def max_ratios(self) -> list:
        """Name, largest ratio and bound of each check, in name order; a NaN
        ratio makes its check's largest ratio NaN."""
        top = {}
        for r in self.results:
            m = top.get(r.name, (0.0,))[0]
            top[r.name] = (r.ratio if math.isnan(r.ratio) else max(m, r.ratio), r.bound)
        return [{"name": n, "max_ratio": m, "bound": b} for n, (m, b) in sorted(top.items())]


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, ScalarField):
            h.update(np.ascontiguousarray(p.values).tobytes())
        else:
            h.update(repr(p).encode())
    return h.hexdigest()[:16]


def random_field(grid: TorusGrid, rng, gamma: float = 3.0,
                 normalize: str = "linf") -> ScalarField:
    """Band-limited Gaussian field with spectral decay |k|^-gamma."""
    n = grid.n
    p, q = grid.freq_pair()
    kmag = np.hypot(p, q)
    amp = np.zeros((n, n))
    mask = grid.dealias_mask() & (kmag > 0)
    amp[mask] = kmag[mask] ** (-gamma)
    coef = amp * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    spec = coef + np.conj(coef[(-np.arange(n)) % n][:, (-np.arange(n)) % n])
    f = ScalarField(grid, np.fft.ifft2(spec).real)
    if normalize == "linf":
        scale = float(np.max(np.abs(f.values)))
    elif normalize == "gradlinf":
        scale = norm(f, NormKind.GradLinf)
    else:
        raise ValueError(f"unknown normalization {normalize!r}")
    if scale == 0.0:
        raise ValueError("degenerate zero sample")
    return ScalarField(grid, f.values / scale)


# ------------------------------------------------------------------
# field-backed checks
# ------------------------------------------------------------------

def check_wente(psi: ScalarField) -> float:
    """||det D^2 psi||_{H^-1} against ||D^2 psi||_{L2}^2.

    The Jacobian structure of the Hessian determinant gives this
    quotient a dimensionless bound; the product-cosine example achieves
    1/(8 pi), and the declared bound 1 leaves the compensation margin
    visible in the recorded ratios.
    """
    det = hessian_det(psi)
    h2 = hessian_l2(psi)
    if h2 == 0.0:
        raise ValueError("degenerate input: zero Hessian")
    num = norm(det, NormKind.Hminus1)
    return float(num / h2 ** 2)


def check_endpoint_cz(f: ScalarField) -> float:
    """Endpoint Calderon-Zygmund: Hessian of the potential in L-inf.

    ratio = ||D^2 (-lap)^-1 f||_inf / (||f||_inf (1 + log+ of
    ||f||_C-alpha / ||f||_inf)). Single high-frequency modes make the
    ratio fall, which run_suite's trend test exercises.
    """
    linf = norm(f, NormKind.Linf)
    if linf == 0.0:
        raise ValueError("degenerate input: zero field")
    u = inv_laplacian(f)
    num = hessian_linf(u)
    calpha = norm(f, NormKind.Calpha)
    denom = linf * (1.0 + max(0.0, np.log(calpha / linf)))
    return float(num / denom)


def _interp_ratio(g: ScalarField, s_low: float, s_high: float) -> float:
    mid = 0.5 * (s_low + s_high)
    low = norm(g, NormKind.Hminus1) if s_low == -1 else norm(g, NormKind.Hs(s_low))
    high = norm(g, NormKind.Hs(s_high))
    center = norm(g, NormKind.Hs(mid)) if mid != 0 else norm(g, NormKind.L2)
    if low == 0.0 or high == 0.0:
        raise ValueError("degenerate input: zero field")
    return float(center ** 2 / (low * high))


def check_h1_interp(g: ScalarField) -> float:
    """||g||_L2^2 <= ||g||_{H^-1} ||g||_{H^1}; single modes saturate."""
    return _interp_ratio(g, -1.0, 1.0)


def check_sobolev_interp(g: ScalarField) -> float:
    """Interpolation at the midpoint exponent between two Sobolev norms."""
    return _interp_ratio(g, SOBOLEV_LOW, SOBOLEV_HIGH)


def check_det_lipschitz(psi1: ScalarField, psi2: ScalarField) -> float:
    """Hessian determinants are Lipschitz in the H^-1 / L2-Hessian pairing.

    det A - det B = cof((A+B)/2) : (A-B) exactly in 2D, so the quotient
    ||det D^2 psi1 - det D^2 psi2||_{H^-1} over
    ||D^2 (psi1+psi2)/2||_L2 * ||D^2 (psi1-psi2)||_L2 inherits the
    compensated-compactness bound; 1 is declared with ample margin.
    """
    d1 = hessian_det(psi1)
    d2 = hessian_det(psi2)
    avg = ScalarField(psi1.grid, 0.5 * (psi1.values + psi2.values))
    diff = psi1 - psi2
    denom = hessian_l2(avg) * hessian_l2(diff)
    if denom == 0.0:
        raise ValueError("degenerate input: identical or flat fields")
    return float(norm(d1 - d2, NormKind.Hminus1) / denom)


def check_det_expansion(phi: ScalarField, eta: ScalarField) -> float:
    """Quadratic determinant expansion closes to roundoff."""
    scale = max(1.0, hessian_l2(phi) ** 2, hessian_l2(eta) ** 2)
    return float(det_expansion_residual(phi, eta, EXPANSION_EPS) / scale)


def check_forced_transport_constant(f: ScalarField) -> float:
    """Forced transport with zero velocity: defect equals the forcing.

    With u = 0 the transport term vanishes and RK4 integrates d sigma/dt = f
    from sigma(0) = 0. The solution is t*f, so ||sigma(T)||_{H^-1} equals
    T * ||f||_{H^-1} exactly and the ratio sits at 1 to roundoff.
    """
    sigma = ScalarField.zeros(f.grid)
    for _ in range(FORCED_STEPS):
        s0 = sigma.hat
        (s1,) = _rk4(lambda t, y: (f.hat,), 0.0, (s0,), FORCED_T / FORCED_STEPS)
        sigma = _advance(sigma, s0, s1)
    num = norm(sigma, NormKind.Hminus1)
    denom = FORCED_T * norm(f, NormKind.Hminus1)
    if denom == 0.0:
        raise ValueError("degenerate input: zero forcing")
    return float(num / denom)


# ------------------------------------------------------------------
# trajectory bundle
# ------------------------------------------------------------------

class _Bundle:
    """Per-seed simulation package shared by the trajectory checks.

    Per-sample norms (Hessian and gradient sup norms, Sobolev norms of
    rho) and m0 = ||rho0||_Linf come from the runs' records, not recomputed.
    """

    def __init__(self, seed: int, count: int):
        rng = np.random.default_rng([seed, 1])
        grid = TorusGrid(BUNDLE_N)
        rho0 = random_field(grid, rng, gamma=4.0, normalize="gradlinf")
        self.digest = _digest(rho0)  # every bundle check's inputs derive from this datum
        modes = _field_to_modes(rho0)
        base = dict(n=BUNDLE_N, t_final=BUNDLE_T, sample_interval=BUNDLE_INTERVAL,
                    initial_data=modes)
        self.sg = run_simulation(RunConfig(model="SGeps", eps=BUNDLE_EPS, **base))
        corr = self.corrector = run_simulation(RunConfig(model="Corrector", **base))
        # the Corrector's backgrounds are the Euler run bit for bit; their
        # records leave A_t unset, which no bundle check reads
        bgs = [s.background for s in corr.states]
        self.euler = Trajectory(model="Euler", eps=0.0, grid=corr.grid, m0=corr.m0,
                                states=bgs, times=corr.times,
                                diagnostics=[_diagnostics(bg, corr.m0) for bg in bgs])
        self.rho0 = self.euler.states[0].rho
        self.gaps = paired_gap_series(self.sg, self.euler, sample_flows(self.sg, FLOW_LABELS),
                                      sample_flows(self.euler, FLOW_LABELS))
        self.times = np.asarray(self.euler.times)
        # the sample index that each of run_suite's count rounds reads
        self.rounds = [1 + k % (len(self.times) - 1) for k in range(count)]

    @cached_property
    def backward(self) -> dict:
        """Sample index -> (SG, Euler) inverse flows, at the samples that rounds reads."""
        idxs = sorted(set(self.rounds))
        sg, euler = (inverse_flows(traj, self.times[idxs], FLOW_LABELS, BUNDLE_INTERVAL)
                     for traj in (self.sg, self.euler))
        return dict(zip(idxs, zip(sg, euler)))

    @cached_property
    def forcing(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-sample ||u1 . grad rhobar||_{H^-1} and ||D^2 phibar||_Linf, Corrector run."""
        force = []
        for s in self.corrector.states:
            u1x, u1y = perp_gradient(s.potential)
            bg = s.background
            gx, gy = derivative(bg.rho, (1, 0)), derivative(bg.rho, (0, 1))
            f = ScalarField(s.rho.grid, u1x.values * gx.values + u1y.values * gy.values)
            force.append(norm(f, NormKind.Hminus1))
        return np.array(force), np.array([d.hess_linf_psi for d in self.euler.diagnostics])

    @cached_property
    def det_hminus1(self) -> list:
        """||det D^2 psi||_{H^-1} of each SG state."""
        return [norm(hessian_det(s.potential), NormKind.Hminus1) for s in self.sg.states]

    @cached_property
    def wente_constant(self) -> float:
        """Largest Wente quotient over the SG run's potentials."""
        return max(h / d.hess_l2_psi ** 2 for h, d in zip(self.det_hminus1, self.sg.diagnostics))


def _field_to_modes(f: ScalarField):
    """Exact mode-list representation of a band-limited field."""
    n = f.grid.n
    coef = np.fft.fft2(f.values) / n**2
    p, q = f.grid.freq_pair()
    rows = []
    half = np.nonzero((np.abs(coef) > 1e-14) &
                      ((p > 0) | ((p == 0) & (q > 0))))
    for i, j in zip(*half):
        c = coef[i, j]
        rows.append([int(p[i, j]), int(q[i, j]),
                     float(2 * c.real), float(-2 * c.imag)])
    return rows


def _transport_rate(diags) -> np.ndarray:
    """||D^2 psi||_Linf + ||grad rho||_Linf per sample."""
    return np.array([d.hess_linf_psi + d.grad_linf_rho for d in diags])


def _hm_norm(rec, m: int) -> float:
    """The stored H^m norm of rho (m = 2 or 3)."""
    return {2: rec.h2_rho, 3: rec.h3_rho}[m]


# Each trajectory check reads the bundle at sample index idx >= 1.

def _check_grad_ode(bundle: _Bundle, idx: int) -> float:
    """||grad rho(t)||_inf under the Hessian-integral exponential."""
    traj = bundle.sg
    diags = traj.diagnostics
    hess = [d.hess_linf_psi for d in diags[: idx + 1]]
    grow = np.exp(cumulative_trapezoid(hess, bundle.times[: idx + 1])[-1])
    return float(diags[idx].grad_linf_rho / (diags[0].grad_linf_rho * grow))


def _check_hm_transport(bundle: _Bundle, idx: int, m: int) -> float:
    traj = bundle.sg
    if len(traj.states) < 10:
        raise ValueError("need at least 10 samples")
    diags = traj.diagnostics[: idx + 1]
    grow = np.exp(cumulative_trapezoid(_transport_rate(diags), bundle.times[: idx + 1])[-1])
    return float(_hm_norm(diags[idx], m) / (_hm_norm(diags[0], m) * grow))


def _check_h1_growth(bundle: _Bundle, idx: int) -> float:
    """||rho(t)||_H1 <= (1 + e^{Mt}) ||rho0||_H1 with M the peak Hessian."""
    traj = bundle.sg
    M = max(d.hess_linf_psi for d in traj.diagnostics)
    t = float(bundle.times[idx])
    return float(norm(traj.states[idx].rho, NormKind.Hs(1.0))
                 / ((1.0 + np.exp(M * t)) * norm(bundle.rho0, NormKind.Hs(1.0))))


def _check_l2_hessian(bundle: _Bundle, idx: int) -> float:
    """||D^2 psi||_L2 <= 2 ||rho||_L2 inside the bootstrap window."""
    traj = bundle.sg
    d = traj.diagnostics[idx]
    return float(d.hess_l2_psi / (2.0 * d.l2_rho))


def _check_vel_gap(bundle: _Bundle, idx: int) -> float:
    """Velocity gap against the Loeper flow term plus the direct MA term."""
    lhs = bundle.gaps.velocity_gap[idx]
    rhs = (np.sqrt(2.0) * bundle.euler.m0 * bundle.gaps.flow_gap[idx]
           + BUNDLE_EPS * bundle.det_hminus1[idx])
    return float(lhs / rhs)


def _check_flow_hminus1(bundle: _Bundle, idx: int) -> float:
    """Loeper: ||rho1 - rho2||_{H^-1} <= sqrt(2) ||rho0||_inf flow gap."""
    lhs = bundle.gaps.hminus1_gap[idx]
    rhs = np.sqrt(2.0) * bundle.euler.m0 * bundle.gaps.flow_gap[idx]
    if rhs == 0.0:
        raise ValueError("degenerate input: coincident flows")
    return float(lhs / rhs)


def _check_interpolation_bound(bundle: _Bundle, idx: int) -> float:
    """Constant-free H^-1 vs flow-gap quotient, recorded for study only."""
    gap = bundle.gaps.flow_gap[idx]
    return float(bundle.gaps.hminus1_gap[idx] / gap) if gap > 0 else 0.0


def _check_density_stability(bundle: _Bundle, idx: int) -> float:
    """||rho1 - rho2||_L2 <= ||grad rho0||_inf e^{Mt} ||X1 - X2||_L2."""
    diff = bundle.sg.states[idx].rho - bundle.euler.states[idx].rho
    M = max(max(d.hess_linf_psi for d in bundle.sg.diagnostics),
            max(d.hess_linf_psi for d in bundle.euler.diagnostics))
    t = float(bundle.times[idx])
    rhs = (bundle.euler.diagnostics[0].grad_linf_rho * np.exp(M * t)
           * bundle.gaps.flow_gap[idx])
    if rhs == 0.0:
        raise ValueError("degenerate input: coincident flows")
    return float(norm(diff, NormKind.L2) / rhs)


def _check_inv_gap(bundle: _Bundle, idx: int) -> float:
    """Inverse flows differ by at most the Lipschitz-amplified flow gap."""
    back_sg, back_euler = bundle.backward[idx]
    lhs = flow_gap(back_sg, back_euler)
    lip = inverse_flow_lipschitz(back_sg)
    rhs = lip * bundle.gaps.flow_gap[idx]
    if rhs == 0.0:
        raise ValueError("degenerate input: coincident flows")
    return float(lhs / rhs)


def _check_flow_gronwall(bundle: _Bundle, idx: int) -> float:
    """Flow gap under the integrated Wente-controlled source term.

    gap(t) <= int_0^t exp(int_s^t (||D^2 phi||_inf + sqrt(2)||rho0||_inf))
              * eps * C_W * ||D^2 psi(s)||_L2^2 ds,
    with C_W the Wente quotient measured on this bundle's own fields.
    """
    if bundle.gaps.flow_gap[idx] == 0.0:
        raise ValueError("degenerate input: coincident flows")
    times = bundle.times[: idx + 1]
    c_w = bundle.wente_constant
    rate = [d.hess_linf_psi + np.sqrt(2.0) * bundle.euler.m0
            for d in bundle.euler.diagnostics[: idx + 1]]
    cum = cumulative_trapezoid(rate, times)
    source = np.array([BUNDLE_EPS * c_w * d.hess_l2_psi ** 2
                       for d in bundle.sg.diagnostics[: idx + 1]])
    rhs = float(gronwall_integral(cum, source, times)[-1])
    return float(bundle.gaps.flow_gap[idx] / rhs)


def _check_l2_stab_hm(bundle: _Bundle, idx: int, m: int = 3) -> float:
    """L2 density stability through the H^-1 / H^m interpolation ladder."""
    diff = bundle.sg.states[idx].rho - bundle.euler.states[idx].rho
    lhs = norm(diff, NormKind.L2)
    hm1 = norm(diff, NormKind.Hminus1)
    if hm1 == 0.0:
        raise ValueError("degenerate input: identical densities")
    h0 = _hm_norm(bundle.euler.diagnostics[0], m)
    gammas = []
    for traj in (bundle.sg, bundle.euler):
        rate = _transport_rate(traj.diagnostics)
        integ = cumulative_trapezoid(rate, bundle.times)
        with np.errstate(divide="ignore", invalid="ignore"):
            growth = np.array([np.log(_hm_norm(d, m) / h0) for d in traj.diagnostics])
        usable = integ > 0.01
        c_m = max(1e-2, float(np.max(growth[usable] / integ[usable]))
                  if np.any(usable) else 1e-2)
        gammas.append(c_m * integ[idx])
    gamma = max(gammas)
    rhs = hm1 ** (m / (m + 1.0)) * (2.0 * h0 * np.exp(gamma)) ** (1.0 / (m + 1.0))
    return float(lhs / rhs)


def _check_forced_transport_flow(bundle: _Bundle, idx: int) -> float:
    """Corrector density against the integrated forcing budget.

    rho1 solves a transport equation driven by -u1.grad(rhobar) along
    the Euler flow, so ||rho1(t)||_{H^-1} is controlled by the time
    integral of the forcing's H^-1 norm times the Lipschitz exponential.
    """
    traj = bundle.corrector
    state = traj.states[idx]
    lhs = norm(state.rho, NormKind.Hminus1)
    if lhs == 0.0:
        raise ValueError("degenerate input: zero corrector density")
    force, hess = (a[: idx + 1] for a in bundle.forcing)
    times = bundle.times[: idx + 1]
    denom = (cumulative_trapezoid(force, times)[-1]
             * np.exp(cumulative_trapezoid(hess, times)[-1]))
    return float(lhs / denom)


# ------------------------------------------------------------------
# registry and suite driver
# ------------------------------------------------------------------

# name -> (ratio(*fields), bound, gamma offsets of its random input fields,
# in draw order)
FIELD_CHECKS = {
    "wente": (check_wente, 1.0, (0,)),
    "endpoint_cz": (check_endpoint_cz, 2.0, (0,)),
    "h1_interp": (check_h1_interp, 1.0 + 1e-12, (0,)),
    "sobolev_interp": (check_sobolev_interp, 1.0 + 1e-12, (0,)),
    "det_lip": (check_det_lipschitz, 1.0, (0, 1)),
    "det_expansion": (check_det_expansion, 1e-10, (0, 2)),
    "forced_transport": (check_forced_transport_constant, 1.0 + 1e-10, (0,)),
}

# name -> (ratio(bundle, idx), bound); a bound of None records the ratio for study only
BUNDLE_CHECKS = {
    "grad_ode": (_check_grad_ode, 1.0 + 1e-3),
    "hm_transport_2": (partial(_check_hm_transport, m=2), 1.0 + 1e-2),
    "hm_transport_3": (partial(_check_hm_transport, m=3), 1.0 + 1e-2),
    "h1_growth": (_check_h1_growth, 1.0),
    "l2_hessian": (_check_l2_hessian, 1.0),
    "vel_gap": (_check_vel_gap, 1.0),
    "flow_hminus1": (_check_flow_hminus1, 1.0),
    "interpolation_bound": (_check_interpolation_bound, None),
    "density_stability": (_check_density_stability, 1.0 + 5e-2),
    "inv_gap": (_check_inv_gap, 1.0 + 5e-2),
    "flow_gronwall": (_check_flow_gronwall, 1.0),
    "l2_stab_hm": (_check_l2_stab_hm, 1.0 + 1e-2),
    "forced_transport_flow": (_check_forced_transport_flow, 1.0 + 1e-2),
}


def run_suite(seed: int, count: int = 20) -> SuiteReport:
    """Run every registered checker count times with one seeded stream.

    Round k of a field check draws its inputs with gamma
    (2, 3, 4)[(k + offset) % 3]; round k of a trajectory check reads
    sample 1 + k mod (samples - 1). Each result takes its name and bound
    from the registry; its digest hashes the check's random inputs, or
    the bundle's datum and the sample index, with the name. Checker
    errors, input draws included, are recorded and do not abort the suite.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    report = SuiteReport(seed=seed, count=count, results=[])
    rng = np.random.default_rng([seed, 0])
    grid = TorusGrid(BUNDLE_N)
    for name, (ratio, bound, offsets) in FIELD_CHECKS.items():
        for k in range(count):
            try:
                inputs = [random_field(grid, rng, gamma=float((2, 3, 4)[(k + off) % 3]))
                          for off in offsets]
                report.results.append(
                    CheckResult(name, ratio(*inputs), bound, seed, _digest(*inputs, name)))
            except Exception as exc:  # collected, not fatal
                report.errors.append((name, str(exc)))
    bundle = _Bundle(seed, count)
    for name, (ratio, bound) in BUNDLE_CHECKS.items():
        for idx in bundle.rounds:
            try:
                report.results.append(CheckResult(name, ratio(bundle, idx), bound, seed,
                                                  _digest(bundle.digest, idx, name)))
            except Exception as exc:
                report.errors.append((name, str(exc)))
    return report
