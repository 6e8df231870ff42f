"""RK4 pseudo-spectral integration of the active transport systems.

Every initial datum is a list of Fourier mode rows [p, q, cos, sin], each
adding cos * cos(2 pi(px+qy)) + sin * sin(2 pi(px+qy)); a preset name
stands for its rows in `PRESETS`. The rows are sampled on the grid by one
inverse FFT, then dealiased and projected to mean zero.

Three models share one stepper:

  Euler       d_t rho + u . grad rho = 0,   u = perp grad lap^-1 rho
  SGeps       same transport, but the potential solves the corrected
              problem  lap psi = rho - eps det D^2 psi
  Corrector   first-order correction (rho1, phi1) riding on an Euler
              background (rhobar, phibar), co-integrated as one system:
                d_t rho1 + ubar . grad rho1 + u1 . grad rhobar = 0
                lap phi1 = rho1 - det D^2 phibar
              with rho1(0) = 0.

Each model is defined once, as a potentials/rates pair on rfft2
half-spectrum states (`_equations`), and one RK4 path steps all three,
re-solving the elliptic problems in every stage so that the velocity is
consistent with the stage density. Values return to the grid once per
step, as the step's increment followed by a mean projection. Advection
products are 2/3-dealiased; with band-limited states the dealiased
quadratic terms are alias-free and the semi-discrete scheme conserves
the L2 norm exactly, leaving only the O(dt^4) time-discretization drift.

Steps never cross sample times: run_simulation shortens the last step
of each segment to land on k * sample_interval exactly, which keeps
sample clocks of paired runs aligned bit for bit.
"""

from dataclasses import dataclass, field as dataclass_field, fields, replace
from functools import cached_property

import numpy as np

from .spectral import (
    ScalarField,
    TorusGrid,
    NormKind,
    dealias,
    irfft2,
    kernel,
    norm,
    perp_gradient,
    rfft2,
)
from .elliptic import (
    EllipticConvergenceError,
    EllipticDivergenceError,
    _det_half,
    _hessian_half,
    _picard,
    _potential_norms,
)

__all__ = [
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
        if self.model not in PARTS:
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

    @cached_property
    def grad_linf(self) -> float:
        """||grad rho||_Linf, read by the exit monitor and the diagnostics."""
        return norm(self.rho, NormKind.GradLinf)

    @cached_property
    def calpha(self) -> float:
        """||rho||_Calpha, read by the diagnostics and the lifespan series."""
        return norm(self.rho, NormKind.Calpha)


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

PRESETS = {
    # cos 2pi x cos 2pi y + 0.5 cos 4pi y: ||rho||_Linf = 1.5, for the gap experiments
    "default": [[1, 1, 0.5, 0], [1, -1, 0.5, 0], [0, 2, 0.5, 0]],
    # 0.25 * default: eps up to 0.08 starts well inside the bootstrap margin,
    # which the second-order corrector sweeps need
    "mild": [[1, 1, 0.125, 0], [1, -1, 0.125, 0], [0, 2, 0.125, 0]],
    # 0.08 (cos 2pi x cos 2pi y + 0.7 cos 2pi(2x + y)): oblique modes for lifespan
    # runs, small enough that eps up to 0.2 starts inside the gradient margin
    "steep": [[1, 1, 0.04, 0], [1, -1, 0.04, 0], [2, 1, 0.056, 0]],
    # -4 pi^2 cos 2pi y: stationary, as u = (c(y), 0) and u . grad rho = 0
    "shear": [[0, 1, -4 * np.pi ** 2, 0]],
}


def _mode_list_values(n: int, spec) -> np.ndarray:
    """Grid samples of a mode list through one inverse FFT.

    cos(2 pi(px+qy)) sampled on the n x n grid is (e + conj e)/2 with
    e the DFT basis vector at (p mod n, q mod n), and sin is
    (e - conj e)/2i, so each row adds n^2/2 * (c -/+ i s) to the
    coefficients at +/-(p, q) mod n. Reducing mod n puts aliased rows
    (|p| >= n/2) where grid sampling puts them: p = 60 at n = 64 acts as
    p = -4. A row whose reduced frequency lies above the 2/3 band
    (max(|p|, |q|) > n/3), which dealiasing would zero, raises ValueError.
    """
    spec_hat = np.zeros((n, n), dtype=complex)
    keep = kernel(n).mask
    for row in spec:
        p, q, c, s = row  # a row of another length raises ValueError here
        if int(p) != p or int(q) != q:
            raise ValueError(f"mode indices must be integers, got {row!r}")
        if p == 0 and q == 0:
            raise ValueError("(0, 0) mode is not allowed (zero-mean convention)")
        p, q = int(p), int(q)
        if not keep[p % n, q % n]:
            raise ValueError(f"mode row {row!r} lies above the 2/3 band of the "
                             f"n = {n} grid, where dealiasing would zero it")
        half = 0.5 * n * n * complex(float(c), -float(s))
        spec_hat[p % n, q % n] += half
        spec_hat[-p % n, -q % n] += half.conjugate()
    return np.fft.ifft2(spec_hat).real


def initial_data_field(grid: TorusGrid, spec) -> ScalarField:
    """Initial data from a preset name or a list of mode rows (see the
    module docstring); a (0, 0) row would break the zero-mean convention
    and a row above the 2/3 band would vanish, so both are rejected."""
    if isinstance(spec, str):
        if spec not in PRESETS:
            raise ValueError(f"unknown preset {spec!r}; have {sorted(PRESETS)}")
        spec = PRESETS[spec]
    out = dealias(ScalarField(grid, _mode_list_values(grid.n, spec)))
    return out - out.mean()


# --- stage algebra ---------------------------------------------------------

def _advection_half(kern, pot_hat: np.ndarray, rho_hat: np.ndarray) -> np.ndarray:
    """Half-spectrum of the dealiased u . grad rho for u = perp grad potential:
    4 inverse transforms (two batched irfft2 calls) and 1 masked rfft2."""
    px, py = irfft2(kern.grad * pot_hat)
    rx, ry = irfft2(kern.grad * rho_hat)
    return kern.mask_half * rfft2(px * ry - py * rx)


# each model's parts, background first; a half-spectrum state y holds one
# density per part: (rho,), or (rhobar, rho1) for the Corrector
PARTS = {"Euler": ("Euler",), "SGeps": ("SGeps",), "Corrector": ("Euler", "Corrector")}


def _equations(model: str, eps: float, n: int, start=None):
    """One model's (potentials, rates) pair on half-spectrum states y.

    potentials(y) solves one potential per part. Each SG solve starts from
    the Poisson predictor psi_prev + lap^-1 (r - r_prev) of the previous
    solve's density r_prev and potential psi_prev, at first those of the
    step's state start = (y0, pots0); with start None it is cold.
    rates(y, pots) is dy/dt: perp grad pots[0] advects every part, and the
    Corrector adds -u1 . grad rhobar, u1 = perp grad pots[1], to rho1's.
    """
    kern = kernel(n)

    def poisson(r):
        kern.require_mean_zero(r)
        return kern.inv_lap_half * r

    if model == "Corrector":
        def potentials(y):
            phibar = poisson(y[0])
            return phibar, poisson(y[1] - _det_half(kern, _hessian_half(kern, phibar)))
    elif model == "SGeps" and eps != 0.0:
        prev = None if start is None else (start[0][0], start[1][0])

        def potentials(y):
            nonlocal prev
            guess = None if prev is None else prev[1] + kern.inv_lap_half * (y[0] - prev[0])
            prev = (y[0], _picard(y[0], eps, start=guess)[0])
            return prev[1:]
    else:
        def potentials(y):
            return (poisson(y[0]),)

    def rates(y, pots):
        out = [-_advection_half(kern, pots[0], r) for r in y]
        if model == "Corrector":
            out[1] = out[1] - _advection_half(kern, pots[1], y[0])
        return tuple(out)

    return potentials, rates


def _state(t: float, model: str, eps: float, rhos, pot_hats) -> SimState:
    """A model's SimState from its parts' densities and potential half-spectra."""
    state = None
    for part, rho, pot in zip(PARTS[model], rhos, pot_hats):
        state = SimState(t, part, eps if part == model else 0.0, rho,
                         ScalarField(rho.grid, irfft2(pot)), background=state)
    return state


def advecting_velocity(state: SimState) -> tuple[ScalarField, ScalarField]:
    """Velocity that transports the state's density: its background's, if any."""
    return perp_gradient((state.background or state).potential)


def cfl_limit(state: SimState, cfl: float = 0.5) -> float:
    """Largest admissible step at this state."""
    return cfl * state.rho.grid.h / max(state.max_speed, 1e-14)


def _advance(f: ScalarField, r0: np.ndarray, r1: np.ndarray) -> ScalarField:
    """f moved by the half-spectrum step r0 -> r1, then mean-projected.

    The increment, not r1, returns to grid values, so a state the flow
    leaves unchanged keeps its bits instead of taking a round trip."""
    out = f + irfft2(r1 - r0)
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

    parts = (state.background, state) if state.background else (state,)  # PARTS order
    y0 = tuple(p.rho.hat for p in parts)
    pots0 = tuple(p.potential.hat for p in parts)
    potentials, rates = _equations(state.model, state.eps, state.rho.grid.n, (y0, pots0))
    y1 = _rk4(lambda t, y: rates(y, potentials(y)), state.time, y0, dt,
              k1=rates(y0, pots0))  # k1 reuses the state's solved potentials
    rhos = tuple(map(_advance, (p.rho for p in parts), y0, y1))
    for r in y1:
        r[0, 0] = 0.0  # the same mean projection on the half-spectrum
    return _state(state.time + dt, state.model, state.eps, rhos, potentials(y1))


# --- trajectory driver -----------------------------------------------------

def _diagnostics(state: SimState, m0: float) -> DiagnosticsRecord:
    rho, pot = state.rho, state.potential
    hess_linf, hess_l2, status = _potential_norms(rho, pot, state.eps, m0, state.grad_linf,
                                                   state.calpha)
    return DiagnosticsRecord(
        t=state.time,
        l2_rho=norm(rho, NormKind.L2),
        linf_rho=norm(rho, NormKind.Linf),
        grad_linf_rho=state.grad_linf,
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
    # the first part starts from the datum, the Corrector's rho1 from 0
    rhos = (rho0,) + (ScalarField.zeros(grid),) * (len(PARTS[config.model]) - 1)
    potentials, _ = _equations(config.model, config.eps, grid.n)
    return _state(0.0, config.model, config.eps, rhos, potentials(tuple(r.hat for r in rhos)))


def _grad_margin(state: SimState) -> float:
    return 0.25 - state.eps * state.grad_linf


def cumulative_trapezoid(values, times) -> np.ndarray:
    """Trapezoid integrals of a sampled series from times[0] to each sample."""
    values = np.asarray(values, dtype=float)
    return np.concatenate([[0.0], np.cumsum(np.diff(times) * (values[1:] + values[:-1]) / 2.0)])


def gronwall_integral(a, source, times) -> np.ndarray:
    """B_i = int_0^{t_i} exp(a(t_i) - a(s)) source(s) ds per sample i, by
    the trapezoid rule on the samples up to t_i; a and source are arrays."""
    return np.array([cumulative_trapezoid(np.exp(a[i] - a[: i + 1]) * source[: i + 1],
                                          times[: i + 1])[-1] for i in range(len(a))])


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
    if config.model not in PARTS:
        raise ValueError(f"unknown model {config.model!r}")

    state = _initial_state(config)
    m0 = norm((state.background or state).rho, NormKind.Linf)
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
    return replace(state, time=t, background=state.background and _retime(state.background, t))


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
