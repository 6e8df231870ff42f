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
same datum, whose Euler background is the Euler run, and particle flows
for both velocity fields.

run_suite(seed, count) executes every checker of FIELD_CHECKS and
BUNDLE_CHECKS count times (cycling through sample times for trajectory
checks) and collects failures without aborting; results are
deterministic given the seed.
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
    TrajectoryVelocity,
    backward_flow,
    flow_gap,
    inverse_flow_lipschitz,
    paired_gap_series,
)
from .spectral import (
    HOLDER_ALPHA,
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
    "CHECKER_NAMES",
]

BUNDLE_EPS = 0.05
BUNDLE_T = 0.5
BUNDLE_N = 64
BUNDLE_INTERVAL = 0.05
FLOW_LABELS = 32
FLOW_DT = 0.0125
CZ_BOUND = 2.0
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

    def max_ratios(self):
        out = {}
        for r in self.results:
            if np.isfinite(r.ratio):
                out[r.name] = max(out.get(r.name, 0.0), r.ratio)
        return out


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(np.ascontiguousarray(p).tobytes())
        elif isinstance(p, ScalarField):
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

def check_wente(psi: ScalarField, seed: int = 0) -> CheckResult:
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
    ratio = float(num / h2 ** 2)
    return CheckResult("wente", ratio, 1.0, seed, _digest(psi, "wente"))


def check_endpoint_cz(f: ScalarField, seed: int = 0) -> CheckResult:
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
    ratio = float(num / denom)
    return CheckResult("endpoint_cz", ratio, CZ_BOUND, seed,
                       _digest(f, HOLDER_ALPHA, "endpoint_cz"))


def _interp_ratio(g: ScalarField, s_low: float, s_high: float) -> float:
    mid = 0.5 * (s_low + s_high)
    low = norm(g, NormKind.Hminus1) if s_low == -1 else norm(g, NormKind.Hs(s_low))
    high = norm(g, NormKind.Hs(s_high))
    center = norm(g, NormKind.Hs(mid)) if mid != 0 else norm(g, NormKind.L2)
    if low == 0.0 or high == 0.0:
        raise ValueError("degenerate input: zero field")
    return float(center ** 2 / (low * high))


def check_h1_interp(g: ScalarField, seed: int = 0) -> CheckResult:
    """||g||_L2^2 <= ||g||_{H^-1} ||g||_{H^1}; single modes saturate."""
    return CheckResult("h1_interp", _interp_ratio(g, -1.0, 1.0), 1.0 + 1e-12, seed,
                       _digest(g, "h1_interp"))


def check_sobolev_interp(g: ScalarField, seed: int = 0) -> CheckResult:
    """Interpolation at the midpoint exponent between two Sobolev norms."""
    return CheckResult("sobolev_interp", _interp_ratio(g, SOBOLEV_LOW, SOBOLEV_HIGH),
                       1.0 + 1e-12, seed,
                       _digest(g, SOBOLEV_LOW, SOBOLEV_HIGH, "sobolev_interp"))


def check_det_lipschitz(psi1: ScalarField, psi2: ScalarField,
                        seed: int = 0) -> CheckResult:
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
    ratio = float(norm(d1 - d2, NormKind.Hminus1) / denom)
    return CheckResult("det_lip", ratio, 1.0, seed, _digest(psi1, psi2, "det_lip"))


def check_det_expansion(phi: ScalarField, eta: ScalarField, seed: int = 0) -> CheckResult:
    """Quadratic determinant expansion closes to roundoff."""
    scale = max(1.0, hessian_l2(phi) ** 2, hessian_l2(eta) ** 2)
    ratio = float(det_expansion_residual(phi, eta, EXPANSION_EPS) / scale)
    return CheckResult("det_expansion", ratio, 1e-10, seed,
                       _digest(phi, eta, EXPANSION_EPS, "det_expansion"))


def check_forced_transport_constant(f: ScalarField, seed: int = 0) -> CheckResult:
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
    return CheckResult("forced_transport", float(num / denom), 1.0 + 1e-10, seed,
                       _digest(f, FORCED_T, "forced_transport"))


# ------------------------------------------------------------------
# trajectory bundle
# ------------------------------------------------------------------

class _Bundle:
    """Per-seed simulation package shared by the trajectory checks.

    Per-sample norms (Hessian and gradient sup norms, Sobolev norms of
    rho) and m0 = ||rho0||_Linf come from the runs' records, not recomputed.
    """

    def __init__(self, seed: int, count: int):
        self.seed = seed
        rng = np.random.default_rng([seed, 1])
        grid = TorusGrid(BUNDLE_N)
        rho0 = random_field(grid, rng, gamma=4.0, normalize="gradlinf")
        modes = _field_to_modes(rho0)
        base = dict(n=BUNDLE_N, t_final=BUNDLE_T, sample_interval=BUNDLE_INTERVAL,
                    initial_data=modes)
        self.sg = run_simulation(RunConfig(model="SGeps", eps=BUNDLE_EPS, **base))
        corr = self.corrector = run_simulation(
            RunConfig(model="Corrector", eps=BUNDLE_EPS, **base))
        # the Corrector's backgrounds are the Euler run bit for bit; their
        # records leave A_t unset, which no bundle check reads
        bgs = [s.background for s in corr.states]
        self.euler = Trajectory(model="Euler", eps=0.0, grid=corr.grid, m0=corr.m0,
                                states=bgs, times=corr.times,
                                diagnostics=[_diagnostics(bg, corr.m0) for bg in bgs])
        self.rho0 = self.euler.states[0].rho
        self._vel_sg = TrajectoryVelocity(self.sg)
        self._vel_euler = TrajectoryVelocity(self.euler)
        self.gaps = paired_gap_series(self.sg, self.euler, m=FLOW_LABELS,
                                      dt=FLOW_DT,
                                      providers=(self._vel_sg, self._vel_euler))
        self.times = np.asarray(self.euler.times)
        # the sample index that each of run_suite's count rounds reads
        self.rounds = [1 + k % (len(self.times) - 1) for k in range(count)]

    @cached_property
    def backward(self) -> dict:
        """Sample index -> (SG, Euler) inverse flows, at the samples that rounds reads."""
        idxs = sorted(set(self.rounds))
        sg, euler = (backward_flow(v, self.times[idxs], FLOW_LABELS, FLOW_DT)
                     for v in (self._vel_sg, self._vel_euler))
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

def _check_grad_ode(bundle: _Bundle, idx: int) -> CheckResult:
    """||grad rho(t)||_inf under the Hessian-integral exponential."""
    traj = bundle.sg
    diags = traj.diagnostics
    hess = [d.hess_linf_psi for d in diags[: idx + 1]]
    grow = np.exp(cumulative_trapezoid(hess, bundle.times[: idx + 1])[-1])
    ratio = float(diags[idx].grad_linf_rho / (diags[0].grad_linf_rho * grow))
    return CheckResult("grad_ode", ratio, 1.0 + 1e-3, bundle.seed,
                       _digest(traj.states[idx].rho, idx, "grad_ode"))


def _check_hm_transport(bundle: _Bundle, idx: int, m: int) -> CheckResult:
    traj = bundle.sg
    if len(traj.states) < 10:
        raise ValueError("need at least 10 samples")
    diags = traj.diagnostics[: idx + 1]
    grow = np.exp(cumulative_trapezoid(_transport_rate(diags), bundle.times[: idx + 1])[-1])
    ratio = float(_hm_norm(diags[idx], m) / (_hm_norm(diags[0], m) * grow))
    name = f"hm_transport_{m}"
    return CheckResult(name, ratio, 1.0 + 1e-2, bundle.seed,
                       _digest(traj.states[idx].rho, m, idx, name))


def _check_h1_growth(bundle: _Bundle, idx: int) -> CheckResult:
    """||rho(t)||_H1 <= (1 + e^{Mt}) ||rho0||_H1 with M the peak Hessian."""
    traj = bundle.sg
    M = max(d.hess_linf_psi for d in traj.diagnostics)
    t = float(bundle.times[idx])
    ratio = float(norm(traj.states[idx].rho, NormKind.Hs(1.0))
                  / ((1.0 + np.exp(M * t)) * norm(bundle.rho0, NormKind.Hs(1.0))))
    return CheckResult("h1_growth", ratio, 1.0, bundle.seed,
                       _digest(traj.states[idx].rho, idx, "h1_growth"))


def _check_l2_hessian(bundle: _Bundle, idx: int) -> CheckResult:
    """||D^2 psi||_L2 <= 2 ||rho||_L2 inside the bootstrap window."""
    traj = bundle.sg
    d = traj.diagnostics[idx]
    ratio = float(d.hess_l2_psi / (2.0 * d.l2_rho))
    return CheckResult("l2_hessian", ratio, 1.0, bundle.seed,
                       _digest(traj.states[idx].rho, idx, "l2_hessian"))


def _check_vel_gap(bundle: _Bundle, idx: int) -> CheckResult:
    """Velocity gap against the Loeper flow term plus the direct MA term."""
    lhs = bundle.gaps.velocity_gap[idx]
    rhs = (np.sqrt(2.0) * bundle.euler.m0 * bundle.gaps.flow_gap[idx]
           + BUNDLE_EPS * bundle.det_hminus1[idx])
    ratio = float(lhs / rhs)
    return CheckResult("vel_gap", ratio, 1.0, bundle.seed,
                       _digest(bundle.sg.states[idx].potential, idx, "vel_gap"))


def _check_flow_hminus1(bundle: _Bundle, idx: int) -> CheckResult:
    """Loeper: ||rho1 - rho2||_{H^-1} <= sqrt(2) ||rho0||_inf flow gap."""
    lhs = bundle.gaps.hminus1_gap[idx]
    rhs = np.sqrt(2.0) * bundle.euler.m0 * bundle.gaps.flow_gap[idx]
    if rhs == 0.0:
        raise ValueError("degenerate input: coincident flows")
    ratio = float(lhs / rhs)
    return CheckResult("flow_hminus1", ratio, 1.0, bundle.seed,
                       _digest(bundle.sg.states[idx].rho, idx, "flow_hminus1"))


def _check_interpolation_bound(bundle: _Bundle, idx: int) -> CheckResult:
    """Constant-free H^-1 vs flow-gap quotient, recorded for study only."""
    gap = bundle.gaps.flow_gap[idx]
    ratio = float(bundle.gaps.hminus1_gap[idx] / gap) if gap > 0 else 0.0
    return CheckResult("interpolation_bound", ratio, None, bundle.seed,
                       _digest(bundle.sg.states[idx].rho, idx, "interp_bound"))


def _check_density_stability(bundle: _Bundle, idx: int) -> CheckResult:
    """||rho1 - rho2||_L2 <= ||grad rho0||_inf e^{Mt} ||X1 - X2||_L2."""
    diff = bundle.sg.states[idx].rho - bundle.euler.states[idx].rho
    M = max(max(d.hess_linf_psi for d in bundle.sg.diagnostics),
            max(d.hess_linf_psi for d in bundle.euler.diagnostics))
    t = float(bundle.times[idx])
    rhs = (bundle.euler.diagnostics[0].grad_linf_rho * np.exp(M * t)
           * bundle.gaps.flow_gap[idx])
    if rhs == 0.0:
        raise ValueError("degenerate input: coincident flows")
    ratio = float(norm(diff, NormKind.L2) / rhs)
    return CheckResult("density_stability", ratio, 1.0 + 5e-2, bundle.seed,
                       _digest(diff, idx, "density_stability"))


def _check_inv_gap(bundle: _Bundle, idx: int) -> CheckResult:
    """Inverse flows differ by at most the Lipschitz-amplified flow gap."""
    back_sg, back_euler = bundle.backward[idx]
    lhs = flow_gap(back_sg, back_euler)
    lip = inverse_flow_lipschitz(back_sg)
    rhs = lip * bundle.gaps.flow_gap[idx]
    if rhs == 0.0:
        raise ValueError("degenerate input: coincident flows")
    ratio = float(lhs / rhs)
    return CheckResult("inv_gap", ratio, 1.0 + 5e-2, bundle.seed,
                       _digest(back_sg.positions_x, idx, "inv_gap"))


def _check_flow_gronwall(bundle: _Bundle, idx: int) -> CheckResult:
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
    ratio = float(bundle.gaps.flow_gap[idx] / rhs)
    return CheckResult("flow_gronwall", ratio, 1.0, bundle.seed,
                       _digest(bundle.gaps.flow_gap[idx], idx, "flow_gronwall"))


def _check_l2_stab_hm(bundle: _Bundle, idx: int, m: int = 3) -> CheckResult:
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
    ratio = float(lhs / rhs)
    return CheckResult("l2_stab_hm", ratio, 1.0 + 1e-2, bundle.seed,
                       _digest(diff, m, idx, "l2_stab_hm"))


def _check_forced_transport_flow(bundle: _Bundle, idx: int) -> CheckResult:
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
    ratio = float(lhs / denom)
    return CheckResult("forced_transport_flow", ratio, 1.0 + 1e-2, bundle.seed,
                       _digest(state.rho, idx, "forced_flow"))


# ------------------------------------------------------------------
# registry and suite driver
# ------------------------------------------------------------------

# name -> (checker, gamma offsets of its random input fields, in draw order)
FIELD_CHECKS = {
    "wente": (check_wente, (0,)),
    "endpoint_cz": (check_endpoint_cz, (0,)),
    "h1_interp": (check_h1_interp, (0,)),
    "sobolev_interp": (check_sobolev_interp, (0,)),
    "det_lip": (check_det_lipschitz, (0, 1)),
    "det_expansion": (check_det_expansion, (0, 2)),
    "forced_transport": (check_forced_transport_constant, (0,)),
}

# name -> checker(bundle, idx)
BUNDLE_CHECKS = {
    "grad_ode": _check_grad_ode,
    "hm_transport_2": partial(_check_hm_transport, m=2),
    "hm_transport_3": partial(_check_hm_transport, m=3),
    "h1_growth": _check_h1_growth,
    "l2_hessian": _check_l2_hessian,
    "vel_gap": _check_vel_gap,
    "flow_hminus1": _check_flow_hminus1,
    "interpolation_bound": _check_interpolation_bound,
    "density_stability": _check_density_stability,
    "inv_gap": _check_inv_gap,
    "flow_gronwall": _check_flow_gronwall,
    "l2_stab_hm": _check_l2_stab_hm,
    "forced_transport_flow": _check_forced_transport_flow,
}

CHECKER_NAMES = tuple(FIELD_CHECKS) + tuple(BUNDLE_CHECKS)


def run_suite(seed: int, count: int = 20) -> SuiteReport:
    """Run every registered checker count times with one seeded stream.

    Round k of a field check draws its inputs with gamma
    (2, 3, 4)[(k + offset) % 3]; round k of a trajectory check reads
    sample 1 + k mod (samples - 1). Checker errors, input draws
    included, are recorded and do not abort the suite.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    report = SuiteReport(seed=seed, count=count, results=[])
    rng = np.random.default_rng([seed, 0])
    grid = TorusGrid(BUNDLE_N)
    for name, (check, offsets) in FIELD_CHECKS.items():
        for k in range(count):
            try:
                inputs = [random_field(grid, rng, gamma=float((2, 3, 4)[(k + off) % 3]))
                          for off in offsets]
                report.results.append(check(*inputs, seed=seed))
            except Exception as exc:  # collected, not fatal
                report.errors.append((name, str(exc)))
    bundle = _Bundle(seed, count)
    for name, check in BUNDLE_CHECKS.items():
        for idx in bundle.rounds:
            try:
                report.results.append(check(bundle, idx))
            except Exception as exc:
                report.errors.append((name, str(exc)))
    return report
