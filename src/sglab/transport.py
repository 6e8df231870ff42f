"""RK4 pseudo-spectral integration of the active transport systems.

Three models share one stepper:

  Euler       d_t rho + u . grad rho = 0,   u = perp grad lap^-1 rho
  SGeps       same transport, but the potential solves the corrected
              problem  lap psi = rho - eps det D^2 psi
  Corrector   first-order correction (rho1, phi1) riding on an Euler
              background (rhobar, phibar), co-integrated as one system:
                d_t rho1 + ubar . grad rho1 + u1 . grad rhobar = 0
                lap phi1 = rho1 - det D^2 phibar
              with rho1(0) = 0.

Each RK4 stage re-solves its elliptic problem, so the velocity is
consistent with the stage density. Every model's stages, and those of
`advect_scalar`, run on rfft2 half-spectra (see `elliptic`) through one
advection kernel; values return to the grid once per step, as the
step's increment followed by a mean projection. Advection products are
2/3-dealiased; with band-limited states the dealiased quadratic terms
are alias-free and the semi-discrete scheme conserves the L2 norm
exactly, leaving only the O(dt^4) time-discretization drift.

Steps never cross sample times: run_simulation shortens the last step
of each segment to land on k * sample_interval exactly, which keeps
sample clocks of paired runs aligned bit for bit.
"""

from dataclasses import dataclass, field as dataclass_field, fields
from functools import cached_property

import numpy as np

from .config import MODELS
from .spectral import (
    ScalarField,
    TorusGrid,
    NormKind,
    dealias,
    inv_laplacian,
    kernel,
    norm,
    perp_gradient,
)
from .elliptic import (
    EllipticConvergenceError,
    EllipticDivergenceError,
    _det_half,
    _hessian_half,
    _picard,
    _potential_norms,
    solve_corrector_potential,
    solve_sg_potential,
)

__all__ = [
    "MODELS",
    "StepSizeError",
    "SimState",
    "DiagnosticsRecord",
    "Trajectory",
    "initial_data_field",
    "step_rk4",
    "run_simulation",
    "cumulative_trapezoid",
    "gronwall_integral",
    "advect_scalar",
]

MAX_STEPS = 200_000


class StepSizeError(ValueError):
    """Requested step violates the CFL restriction."""


# exit_reason of a run ended by an elliptic failure
ELLIPTIC_EXITS = {
    EllipticDivergenceError: "elliptic_divergence",
    EllipticConvergenceError: "elliptic_stall",
}


@dataclass(frozen=True)
class SimState:
    """One model state at one time.

    potential is the state's own stream-function potential (psi for SG,
    phibar for Euler, phi1 for the corrector). Corrector states carry
    their Euler background at the same time in `background`.
    """

    time: float
    model: str
    eps: float
    rho: ScalarField
    potential: ScalarField
    background: "SimState | None" = None

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        if self.model == "Corrector":
            if self.background is None:
                raise ValueError("Corrector state needs an Euler background")
            if abs(self.background.time - self.time) > 1e-12:
                raise ValueError("background time out of sync")

    @cached_property
    def max_speed(self) -> float:
        """max |u| of the velocity advecting this state's density."""
        ux, uy = advecting_velocity(self)
        return float(np.max(np.hypot(ux.values, uy.values)))


@dataclass
class DiagnosticsRecord:
    """Per-sample diagnostics; gap metrics stay None until a paired
    trajectory supplies them."""

    t: float
    l2_rho: float
    linf_rho: float
    grad_linf_rho: float
    h2_rho: float
    h3_rho: float
    hess_linf_psi: float
    hess_l2_psi: float
    grad_margin: float
    hessian_margin: float
    log_estimate_ratio: float
    inside: bool
    velocity_gap: float | None = None
    flow_gap: float | None = None
    hminus1_gap: float | None = None
    w2: float | None = None
    A_t: float | None = None
    gronwall_bound: float | None = None


DiagnosticsRecord.FIELD_ORDER = tuple(f.name for f in fields(DiagnosticsRecord))


@dataclass
class Trajectory:
    """Sampled history of one run.

    states/diagnostics carry one entry per sample time. exit_reason is
    None for a clean run to t_final; otherwise one of bootstrap_exit,
    elliptic_divergence, elliptic_stall, step_limit, and the trajectory
    holds whatever was sampled before the event.
    """

    model: str
    eps: float
    grid: TorusGrid
    m0: float
    states: list = dataclass_field(default_factory=list)
    times: list = dataclass_field(default_factory=list)
    diagnostics: list = dataclass_field(default_factory=list)
    dt_history: list = dataclass_field(default_factory=list)
    exit_reason: str | None = None
    exit_time: float | None = None


def _shared_times(traj_a: Trajectory, traj_b: Trajectory) -> np.ndarray:
    """The sample times two runs on one grid share; at least two."""
    if traj_a.grid.n != traj_b.grid.n:
        raise ValueError("trajectories live on different grids")
    ta = np.asarray(traj_a.times, dtype=float)
    tb = np.asarray(traj_b.times, dtype=float)
    k = min(len(ta), len(tb))
    if k < 2 or not np.allclose(ta[:k], tb[:k], atol=1e-12):
        raise ValueError("trajectories do not share sample times")
    return ta[:k]


# --- initial data ----------------------------------------------------------

def _default_datum(x, y):
    # two-mode datum with ||rho||_Linf = 1.5, used by the gap experiments
    return np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y) + 0.5 * np.cos(4 * np.pi * y)


def _mild_datum(x, y):
    # scaled-down copy of the default datum; its gradient is small enough
    # that eps up to 0.08 starts well inside the bootstrap margin, which
    # the second-order corrector sweeps need
    return 0.25 * (
        np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y) + 0.5 * np.cos(4 * np.pi * y)
    )


def _steep_datum(x, y):
    # oblique-mode datum for gradient-growth (lifespan) runs; amplitude is
    # small so eps up to 0.2 starts inside the gradient margin
    return 0.08 * (
        np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)
        + 0.7 * np.cos(2 * np.pi * (2 * x + y))
    )


def _shear_datum(x, y):
    # stationary state: rho depends on y alone, so u = (c(y), 0) and
    # u . grad rho = 0 identically
    return -4 * np.pi ** 2 * np.cos(2 * np.pi * y) + 0.0 * x


PRESET_BUILDERS = {"default": _default_datum, "mild": _mild_datum,
                   "steep": _steep_datum, "shear": _shear_datum}


def _mode_list_values(n: int, spec) -> np.ndarray:
    """Grid samples of a mode list through one inverse FFT.

    cos(2 pi(px+qy)) sampled on the n x n grid is (e + conj e)/2 with
    e the DFT basis vector at (p mod n, q mod n), and sin is
    (e - conj e)/2i, so each row adds n^2/2 * (c -/+ i s) to the
    coefficients at +/-(p, q) mod n. Reducing mod n puts aliased rows
    (|p| >= n/2) where grid sampling puts them, and a Nyquist row, whose
    two coefficients coincide, gets c and loses s as its samples do.
    """
    spec_hat = np.zeros((n, n), dtype=complex)
    for row in spec:
        if len(row) != 4:
            raise ValueError(f"mode row {row!r} is not [p, q, cos, sin]")
        p, q, c, s = row
        if int(p) != p or int(q) != q:
            raise ValueError(f"mode indices must be integers, got {row!r}")
        if p == 0 and q == 0:
            raise ValueError("(0, 0) mode is not allowed (zero-mean convention)")
        p, q = int(p), int(q)
        half = 0.5 * n * n * complex(float(c), -float(s))
        spec_hat[p % n, q % n] += half
        spec_hat[-p % n, -q % n] += half.conjugate()
    return np.fft.ifft2(spec_hat).real


def initial_data_field(grid: TorusGrid, spec) -> ScalarField:
    """Build initial data from a preset name or a Fourier mode list.

    A mode list is a sequence of [p, q, cos_coeff, sin_coeff] rows adding
    cos_coeff*cos(2 pi(px+qy)) + sin_coeff*sin(2 pi(px+qy)). The (0, 0)
    row is rejected: it would violate the zero-mean convention.
    """
    if isinstance(spec, str):
        try:
            fn = PRESET_BUILDERS[spec]
        except KeyError:
            raise ValueError(
                f"unknown preset {spec!r}; have {sorted(PRESET_BUILDERS)}"
            ) from None
        raw = ScalarField.from_function(grid, fn)
    else:
        raw = ScalarField(grid, _mode_list_values(grid.n, spec))
    out = dealias(raw)
    return out - out.mean()


# --- stage algebra ---------------------------------------------------------

def _advection_half(kern, pot_hat: np.ndarray, rho_hat: np.ndarray) -> np.ndarray:
    """Half-spectrum of the dealiased u . grad rho for u = perp grad potential:
    4 inverse transforms (two batched irfft2 calls) and 1 masked rfft2."""
    px, py = np.fft.irfft2(kern.grad * pot_hat)
    rx, ry = np.fft.irfft2(kern.grad * rho_hat)
    return kern.mask_half * np.fft.rfft2(px * ry - py * rx)


def _solve_potential(rho: ScalarField, model: str, eps: float) -> ScalarField:
    if model == "SGeps" and eps != 0.0:
        psi, _ = solve_sg_potential(rho, eps)
        return psi
    return inv_laplacian(rho)


def advecting_velocity(state: SimState) -> tuple[ScalarField, ScalarField]:
    """Velocity that transports the state's density (background's for
    the corrector, own otherwise)."""
    if state.model == "Corrector":
        return perp_gradient(state.background.potential)
    return perp_gradient(state.potential)


def cfl_limit(state: SimState, cfl: float = 0.5) -> float:
    """Largest admissible step at this state."""
    return cfl * state.rho.grid.h / max(state.max_speed, 1e-14)


def _advance(f: ScalarField, r0: np.ndarray, r1: np.ndarray) -> ScalarField:
    """f moved by the half-spectrum step r0 -> r1, then mean-projected.

    The increment, not r1, returns to grid values, so a state the flow
    leaves unchanged keeps its bits instead of taking a round trip."""
    out = f + np.fft.irfft2(r1 - r0)
    return out - out.mean()


def _rk4(deriv, t, y, h, k1=None):
    """One classical RK4 step of dy/dt = deriv(t, y) for a tuple state y.

    deriv returns a tuple shaped like y; k1 may carry deriv(t, y) when
    the caller already has it. Mean projection is left to the caller.
    """
    def shifted(a, k):
        return tuple(yi + a * ki for yi, ki in zip(y, k))

    if k1 is None:
        k1 = deriv(t, y)
    k2 = deriv(t + h / 2, shifted(h / 2, k1))
    k3 = deriv(t + h / 2, shifted(h / 2, k2))
    k4 = deriv(t + h, shifted(h, k3))
    return tuple(yi + (h / 6) * (a + 2.0 * b + 2.0 * c + d)
                 for yi, a, b, c, d in zip(y, k1, k2, k3, k4))


def step_rk4(state: SimState, dt: float, cfl: float = 0.5) -> SimState:
    """Advance one RK4 step with per-stage elliptic resolves.

    dt = 0 returns the state unchanged. Raises StepSizeError when dt
    exceeds the CFL limit cfl * h / max|u|.
    """
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    if dt == 0.0:
        return state
    limit = cfl_limit(state, cfl)
    if dt > limit * (1 + 1e-12):
        raise StepSizeError(f"dt = {dt:.3e} exceeds CFL limit {limit:.3e}")

    model, eps = state.model, state.eps
    kern = kernel(state.rho.grid.n)

    if model == "Corrector":
        def corrector_deriv(t, y):
            rb, rc = y
            kern.require_mean_zero(rb)
            phibar = kern.inv_lap_half * rb
            rhs = rc - _det_half(kern, _hessian_half(kern, phibar))
            kern.require_mean_zero(rhs)
            phi1 = kern.inv_lap_half * rhs
            kb = -_advection_half(kern, phibar, rb)
            return kb, -(_advection_half(kern, phibar, rc) + _advection_half(kern, phi1, rb))

        bg = state.background
        y0 = (bg.rho.hat, state.rho.hat)
        y1 = _rk4(corrector_deriv, state.time, y0, dt)
        rb, rc = map(_advance, (bg.rho, state.rho), y0, y1)
        t1 = state.time + dt
        phibar = inv_laplacian(rb)
        new_bg = SimState(t1, "Euler", 0.0, rb, phibar)
        phi1 = solve_corrector_potential(rc, phibar)
        return SimState(t1, "Corrector", eps, rc, phi1, background=new_bg)

    # SG/Euler: each SG stage solve starts from the previous stage's
    # potential and its Hessian
    pot_hat, hess = state.potential.hat, None
    sg = model == "SGeps" and eps != 0.0

    def potential(r):
        nonlocal pot_hat, hess
        if sg:
            pot_hat, hess, _ = _picard(r, eps, start=(pot_hat, hess))
        else:
            kern.require_mean_zero(r)
            pot_hat = kern.inv_lap_half * r
        return pot_hat

    def deriv(t, y):
        (r,) = y
        return (-_advection_half(kern, potential(r), r),)

    r0 = state.rho.hat
    k1 = (-_advection_half(kern, pot_hat, r0),)  # reuse the solved potential
    (r1,) = _rk4(deriv, state.time, (r0,), dt, k1)
    rho1 = _advance(state.rho, r0, r1)
    r1[0, 0] = 0.0  # the same mean projection on the half-spectrum
    pot1 = potential(r1)
    return SimState(state.time + dt, model, eps, rho1,
                    ScalarField(state.rho.grid, np.fft.irfft2(pot1)))


# --- trajectory driver -----------------------------------------------------

def _diagnostics(state: SimState, m0: float) -> DiagnosticsRecord:
    rho, pot = state.rho, state.potential
    hess_linf, hess_l2, grad_linf, status = _potential_norms(rho, pot, state.eps, m0)
    return DiagnosticsRecord(
        t=state.time,
        l2_rho=norm(rho, NormKind.L2),
        linf_rho=norm(rho, NormKind.Linf),
        grad_linf_rho=grad_linf,
        h2_rho=norm(rho, NormKind.Hs(2.0)),
        h3_rho=norm(rho, NormKind.Hs(3.0)),
        hess_linf_psi=hess_linf,
        hess_l2_psi=hess_l2,
        grad_margin=status.grad_margin,
        hessian_margin=status.hessian_margin,
        log_estimate_ratio=status.log_estimate_ratio,
        inside=status.inside,
    )


def _initial_state(config) -> SimState:
    grid = TorusGrid(config.n)
    rho0 = initial_data_field(grid, config.initial_data)
    if config.model == "Corrector":
        phibar = inv_laplacian(rho0)
        bg = SimState(0.0, "Euler", 0.0, rho0, phibar)
        rho1 = ScalarField.zeros(grid)
        phi1 = solve_corrector_potential(rho1, phibar)
        return SimState(0.0, "Corrector", config.eps, rho1, phi1, background=bg)
    pot = _solve_potential(rho0, config.model, config.eps)
    return SimState(0.0, config.model, config.eps, rho0, pot)


def _grad_margin(state: SimState) -> float:
    return 0.25 - state.eps * norm(state.rho, NormKind.GradLinf)


def cumulative_trapezoid(values, times) -> np.ndarray:
    """Trapezoid integrals of a sampled series from times[0] to each sample."""
    values = np.asarray(values, dtype=float)
    return np.concatenate([[0.0], np.cumsum(np.diff(times) * (values[1:] + values[:-1]) / 2.0)])


def gronwall_integral(a, source, times) -> np.ndarray:
    """B_i = int_0^{t_i} exp(a(t_i) - a(s)) source(s) ds per sample i, by
    the trapezoid rule on the samples up to t_i; a and source are arrays."""
    return np.array([np.trapezoid(np.exp(a[i] - a[: i + 1]) * source[: i + 1], times[: i + 1])
                     for i in range(len(a))])


def run_simulation(config) -> Trajectory:
    """Integrate config.model to t_final, sampling every sample_interval.

    Samples are taken at t = k * sample_interval and at t_final. With
    stop_on_exit, the gradient margin 1/4 - eps ||grad rho||_Linf is
    monitored every step; on a sign change the run stops, the crossing
    time is located by linear interpolation of the margin, and the
    trajectory reports exit_reason = "bootstrap_exit". Elliptic failures
    likewise end the run with a partial trajectory instead of raising.
    Each record's A_t is the Gronwall exponent int_0^t (1 + 2 ||D^2 pot||_Linf).
    """
    if config.n < 32:
        raise ValueError("simulation runs need n >= 32")
    if config.model not in MODELS:
        raise ValueError(f"unknown model {config.model!r}")

    state = _initial_state(config)
    m0 = norm(state.rho, NormKind.Linf)
    if config.model == "Corrector":
        m0 = norm(state.background.rho, NormKind.Linf)

    traj = Trajectory(model=config.model, eps=config.eps, grid=state.rho.grid, m0=m0)
    _integrate(config, state, traj)
    growth = [1 + 2 * d.hess_linf_psi for d in traj.diagnostics]
    for d, a_t in zip(traj.diagnostics, cumulative_trapezoid(growth, traj.times)):
        d.A_t = float(a_t)
    return traj


def _integrate(config, state: SimState, traj: Trajectory) -> None:
    """Step and sample into traj until t_final or an exit event."""
    si = config.sample_interval
    sample_times = [k * si for k in range(1, int(np.floor(config.t_final / si + 1e-9)) + 1)]
    if sample_times and abs(sample_times[-1] - config.t_final) <= 1e-9 * max(1.0, config.t_final):
        sample_times[-1] = config.t_final
    if not sample_times or sample_times[-1] < config.t_final - 1e-12:
        sample_times.append(config.t_final)

    def record(st):
        traj.states.append(st)
        traj.times.append(st.time)
        traj.diagnostics.append(_diagnostics(st, traj.m0))

    record(state)

    monitor_exit = bool(config.stop_on_exit and config.eps > 0)
    if monitor_exit and _grad_margin(state) <= 0:
        traj.exit_reason = "bootstrap_exit"
        traj.exit_time = 0.0
        return

    steps = 0
    margin_prev = _grad_margin(state) if monitor_exit else None
    try:
        for target in sample_times:
            while state.time < target - 1e-12:
                steps += 1
                if steps > MAX_STEPS:
                    traj.exit_reason = "step_limit"
                    traj.exit_time = state.time
                    record(state)
                    return
                dt = min(cfl_limit(state, config.cfl), target - state.time)
                state = step_rk4(state, dt, cfl=config.cfl)
                if state.time > target - 1e-12:
                    # land exactly; removes float drift from repeated adds
                    state = _retime(state, target)
                traj.dt_history.append(dt)
                if monitor_exit:
                    margin = _grad_margin(state)
                    if margin <= 0:
                        span = margin_prev - margin
                        frac = margin_prev / span if span > 0 else 1.0
                        traj.exit_time = state.time - dt * (1.0 - frac)
                        traj.exit_reason = "bootstrap_exit"
                        record(state)
                        return
                    margin_prev = margin
            record(state)
    except (EllipticDivergenceError, EllipticConvergenceError) as err:
        traj.exit_reason = ELLIPTIC_EXITS[type(err)]
        traj.exit_time = state.time


def _retime(state: SimState, t: float) -> SimState:
    bg = state.background
    if bg is not None:
        bg = SimState(t, bg.model, bg.eps, bg.rho, bg.potential)
    return SimState(t, state.model, state.eps, state.rho, state.potential, background=bg)


# --- passive scalars under a prescribed potential --------------------------

def advect_scalar(sigma0: ScalarField, potential_at, t0: float, t1: float,
                  dt: float, forcing_at=None) -> ScalarField:
    """Integrate d_t sigma + u . grad sigma = f with u = perp grad of a
    prescribed potential series; RK4 on half-spectra with the same
    dealiased advection as the active models. forcing_at may be None
    for pure transport."""
    steps = max(1, int(np.ceil((t1 - t0) / dt - 1e-12)))
    h = (t1 - t0) / steps
    kern = kernel(sigma0.grid.n)

    def deriv(tau, y):
        out = -_advection_half(kern, potential_at(tau).hat, y[0])
        if forcing_at is not None:
            out = out + forcing_at(tau).hat
        return (out,)

    sigma = sigma0
    t = t0
    for _ in range(steps):
        s0 = sigma.hat
        (s1,) = _rk4(deriv, t, (s0,), h)
        sigma = _advance(sigma, s0, s1)
        t += h
    return sigma
