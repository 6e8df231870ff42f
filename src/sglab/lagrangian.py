"""Particle flow maps under computed velocity fields, each run's own flow
at its sample times, the gap series that compares two runs' flows (so a
reference's flow is made once), and Eulerian inverse flows.

Particles are integrated with RK4 in unwrapped (covering-plane)
coordinates: flow gaps appear inside Gronwall arguments as plain
differences, and a modular reduction would corrupt small gaps near the
periodic cut. Positions are wrapped mod 1 only when a velocity lookup
needs torus coordinates.

Velocity lookups off the grid use bicubic spline interpolation with
periodic boundary handling (scipy's grid-wrap mode) on prefiltered
spline coefficients, cached for the last two evaluation times of one
sweep. scipy.ndimage loads on the first lookup, so a process that traces
no particles never imports it.

Inverse flows X^{-1}(t, .) come from inverse_flows, which steps the
periodic back-to-labels displacement forward on half-spectra in one
pass for all times. backward_flow, a backward particle sweep that moves
a stack of label grids, is kept only as the reference that the tests
compare inverse_flows against. The tests' other particle references, a
measure-preservation score and a semi-Lagrangian pushforward, live in
tests/reference.py.

A velocity provider is any object with a `grid` attribute (TorusGrid of
the sampled fields), a `pair(t)` method returning the two velocity
component arrays at time t, and a `filtered_pair(t)` method returning
their cubic spline coefficients. TrajectoryVelocity, the one provider
here, adapts a transport Trajectory using cubic Lagrange interpolation
in time between samples; since the B-spline prefilter is linear, it
filters each sample once and combines the coefficients with the same
weights as the velocities.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectral import NormKind, irfft2, kernel, norm, perp_gradient
from .transport import StepSizeError, Trajectory, _rk4, _shared_times, advect_scalar

__all__ = [
    "FlowMap",
    "GapSeries",
    "TrajectoryVelocity",
    "label_flow",
    "advect_flow",
    "flow_gap",
    "backward_flow",
    "inverse_flows",
    "inverse_flow_lipschitz",
    "sample_flows",
    "paired_gap_series",
]


@dataclass(frozen=True)
class FlowMap:
    """m x m particles (or a (k, m, m) stack) labeled by cell centers (i+1/2)/m at time 0.

    positions_x/positions_y are unwrapped plane coordinates; wrapping
    mod 1 recovers torus positions.
    """

    m: int
    time: float
    positions_x: np.ndarray
    positions_y: np.ndarray

    def __post_init__(self):
        for arr in (self.positions_x, self.positions_y):
            if arr.shape[-2:] != (self.m, self.m) or arr.shape != self.positions_x.shape:
                raise ValueError(f"positions shape {arr.shape} != (..., {self.m}, {self.m})")
            if not np.all(np.isfinite(arr)):
                raise ValueError("positions must be finite")


@dataclass
class GapSeries:
    """Aligned gap metrics between a paired Euler/SG run."""

    times: np.ndarray
    flow_gap: np.ndarray
    velocity_gap: np.ndarray
    hminus1_gap: np.ndarray


def label_flow(m: int) -> FlowMap:
    """Identity flow map: every particle at its own label."""
    centers = (np.arange(m) + 0.5) / m
    X, Y = np.meshgrid(centers, centers, indexing="ij")
    return FlowMap(m=m, time=0.0, positions_x=X, positions_y=Y)


def _prefilter(u: np.ndarray) -> np.ndarray:
    """Periodic cubic spline coefficients of grid samples u."""
    from scipy import ndimage
    return ndimage.spline_filter(u, order=3, mode="grid-wrap")


def _spline_values(coefs, x: np.ndarray, y: np.ndarray) -> tuple:
    """Each periodic cubic spline of the n x n coefficient arrays coefs at
    the torus points (x, y), shaped like x; the coordinates are built once."""
    from scipy import ndimage
    n = coefs[0].shape[-1]
    # grid samples sit at j/n, so array coordinates are positions * n
    coords = np.vstack([np.mod(x, 1.0).ravel() * n, np.mod(y, 1.0).ravel() * n])
    return tuple(ndimage.map_coordinates(c, coords, order=3, mode="grid-wrap",
                                         prefilter=False).reshape(x.shape) for c in coefs)


def _lagrange(times: np.ndarray, t: float, *series) -> tuple:
    """Cubic Lagrange combination at time t of each series of per-sample
    arrays: the 4-point stencil of the samples around t, accurate to
    O(sample_interval^4). Times outside [times[0], times[-1]] raise."""
    if t < times[0] - 1e-9 or t > times[-1] + 1e-9:
        raise ValueError(
            f"t = {t} outside sample coverage [{times[0]}, {times[-1]}]"
        )
    j = int(np.searchsorted(times, t))
    lo = max(0, min(j - 2, len(times) - 4))
    hi = min(len(times), lo + 4)
    out = tuple(np.zeros_like(s[0]) for s in series)
    for i in range(lo, hi):
        w = 1.0
        for k in range(lo, hi):
            if k != i:
                w *= (t - times[k]) / (times[i] - times[k])
        for acc, s in zip(out, series):
            acc += w * s[i]
    return out


class TrajectoryVelocity:
    """Velocity provider backed by a Trajectory's potential samples.

    Velocities between samples come from cubic Lagrange interpolation
    of the sampled velocity fields in time (4-point stencil), accurate
    to O(sample_interval^4). Spline coefficients come from the same
    combination of each sample's coefficients, filtered once here.
    Times outside the sampled window raise.
    """

    def __init__(self, traj: Trajectory):
        if len(traj.states) < 2:
            raise ValueError("trajectory too short for a velocity provider")
        self.grid = traj.grid
        self._times = np.asarray(traj.times, dtype=float)
        pairs = [perp_gradient(s.potential) for s in traj.states]
        self._ux = [p[0].values for p in pairs]
        self._uy = [p[1].values for p in pairs]
        self._fx = [_prefilter(u) for u in self._ux]
        self._fy = [_prefilter(u) for u in self._uy]

    def pair(self, t: float):
        return _lagrange(self._times, t, self._ux, self._uy)

    def filtered_pair(self, t: float):
        return _lagrange(self._times, t, self._fx, self._fy)


class _FilteredLookup:
    """Caches a provider's spline coefficients for the last two evaluation
    times of a monotone sweep, all that one RK4 step reuses. Times are keyed
    rounded to 1e-12, since an RK4 step's last stage t + h and the next
    step's start t0 + (k+1) h may differ in the last bit."""

    def __init__(self, provider):
        self.provider = provider
        self._cache = {}

    def __call__(self, t: float, x: np.ndarray, y: np.ndarray):
        key = round(float(t), 12)
        entry = self._cache.get(key)
        if entry is None:
            if len(self._cache) == 2:
                del self._cache[next(iter(self._cache))]
            entry = self._cache[key] = self.provider.filtered_pair(t)
        return _spline_values(entry, x, y)


def _particle_limit(velocity_source, t: float) -> float:
    """Largest particle step h/max|u(t)| under the provider's velocity
    at time t, h the spacing of its grid."""
    speed = float(np.max(np.hypot(*velocity_source.pair(t))))
    return velocity_source.grid.h / max(speed, 1e-14)


def advect_flow(velocity_source, labels: FlowMap, t0: float, t1: float, dt: float) -> FlowMap:
    """RK4 particle integration of d/dt X = u(t, X) from t0 to t1.

    dt must respect the particle CFL limit h/max|u| (h of the velocity
    grid); the limit is checked at t0. Integration also runs backward
    when t1 < t0 (dt still positive).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    lookup = _FilteredLookup(velocity_source)
    limit = _particle_limit(velocity_source, t0)
    if dt > limit * (1 + 1e-12):
        raise StepSizeError(f"dt = {dt:.3e} exceeds particle CFL limit {limit:.3e}")

    span = t1 - t0
    steps = max(1, int(np.ceil(abs(span) / dt - 1e-12)))
    hstep = span / steps

    pos = (labels.positions_x, labels.positions_y)
    t = t0
    for k in range(steps):
        pos = _rk4(lambda tau, p: lookup(tau, *p), t, pos, hstep)
        t = t0 + (k + 1) * hstep
    x, y = pos
    return FlowMap(m=labels.m, time=t1, positions_x=x, positions_y=y)


def flow_gap(a: FlowMap, b: FlowMap) -> float:
    """Root-mean-square unwrapped position difference over labels."""
    if a.m != b.m:
        raise ValueError(f"label grids differ: {a.m} vs {b.m}")
    dx = a.positions_x - b.positions_x
    dy = a.positions_y - b.positions_y
    return float(np.sqrt(np.mean(dx ** 2 + dy ** 2)))


def backward_flow(velocity_source, times, m: int, dt: float) -> list[FlowMap]:
    """Inverse flows X^{-1}(t, .) at the m x m cell centers, one per t in times;
    the particle reference of inverse_flows.

    One backward sweep from the latest t to 0: at each t the label grid
    joins a particle stack, which advect_flow moves on to the next
    earlier t. Each returned map's positions are where its cell centers
    came from at time 0, in the order of times; t = 0 gives the labels.
    """
    levels = sorted({float(t) for t in times} | {0.0}, reverse=True)
    if levels[-1] < 0:
        raise ValueError("times must be >= 0")
    lab = label_flow(m)
    x, y = lab.positions_x[None], lab.positions_y[None]
    for prev, t in zip(levels, levels[1:]):
        back = advect_flow(velocity_source, FlowMap(m, prev, x, y), prev, t, dt)
        x = np.concatenate([back.positions_x, lab.positions_x[None]])
        y = np.concatenate([back.positions_y, lab.positions_y[None]])
    return [FlowMap(m, levels[i], x[i], y[i]) for i in (levels.index(float(t)) for t in times)]


def inverse_flows(traj: Trajectory, times, m: int, dt: float) -> list[FlowMap]:
    """Inverse flows X^{-1}(t, .) of a run at the m x m cell centers, one per
    t in times, from one forward pass of the back-to-labels map.

    The displacement d(t, x) = X^{-1}(t, x) - x is periodic and solves
    d_t + u . grad d = -u with d(0) = 0, u = perp grad psi. advect_scalar
    steps (d_x, d_y) on half-spectra at dt, under the run's potential
    half-spectra combined in time like TrajectoryVelocity's velocities;
    one batched irfft2 per requested time reads d at the grid points that
    are cell centers, so n/m must be an even integer. The maps keep
    backward_flow's contract: unwrapped positions, the labels at t = 0,
    and dt within the CFL limit h/max|u| (here over every sample).
    """
    n = traj.grid.n
    if n % m or (n // m) % 2:
        raise ValueError(f"n/m = {n}/{m} must be an even integer")
    limit = traj.grid.h / max(max(s.max_speed for s in traj.states), 1e-14)
    if dt > limit * (1 + 1e-12):
        raise StepSizeError(f"dt = {dt:.3e} exceeds CFL limit {limit:.3e}")
    levels = sorted({float(t) for t in times})
    if levels and levels[0] < 0:
        raise ValueError("times must be >= 0")
    kern = kernel(n)
    sample_times = np.asarray(traj.times, dtype=float)
    pots = [s.potential.hat for s in traj.states]

    @lru_cache(maxsize=1)  # each stage reads it twice, for u and for -u
    def potential_at(t):
        return _lagrange(sample_times, t, pots)[0]

    def forcing_at(t):  # -u = (d_y psi, -d_x psi)
        gx, gy = kern.grad * potential_at(t)
        return gy, -gx

    lab = label_flow(m)
    cells = (slice(n // m // 2, None, n // m),) * 2
    d = (np.zeros_like(pots[0]),) * 2
    t = 0.0
    maps = {}
    for level in levels:
        if level > t:
            d = advect_scalar(d, potential_at, t, level, dt, forcing_at)
            t = level
        dx, dy = irfft2(np.stack(d))
        maps[level] = FlowMap(m, level, lab.positions_x + dx[cells],
                              lab.positions_y + dy[cells])
    return [maps[float(t)] for t in times]


def inverse_flow_lipschitz(back: FlowMap) -> float:
    """Finite-difference Lipschitz estimate of an inverse flow map.

    Looks at differences between label-neighbors along both axes; the
    label spacing is 1/m. Unwrapped positions of neighboring labels stay
    close for smooth flows, so no minimal-image correction is applied.
    """
    m = back.m
    h = 1.0 / m
    best = 0.0
    for axis in (0, 1):
        dx = np.diff(back.positions_x, axis=axis)
        dy = np.diff(back.positions_y, axis=axis)
        best = max(best, float(np.max(np.hypot(dx, dy))) / h)
    return best


def sample_flows(traj: Trajectory, m: int, dt: float | None = None) -> list[FlowMap]:
    """The m x m labels' flow under one run's velocity at each of its sample
    times, the labels first. With dt None, each sample interval takes one
    RK4 step, or steps at the run's particle CFL limit at the interval's
    start where that is smaller."""
    prov = TrajectoryVelocity(traj)
    flows = [label_flow(m)]
    for t0, t1 in zip(traj.times, traj.times[1:]):
        t0, t1 = float(t0), float(t1)
        step = dt if dt is not None else min(t1 - t0, _particle_limit(prov, t0))
        flows.append(advect_flow(prov, flows[-1], t0, t1, step))
    return flows


def paired_gap_series(traj_a: Trajectory, traj_b: Trajectory,
                      flows_a: list[FlowMap], flows_b: list[FlowMap]) -> GapSeries:
    """Gap metrics between two runs sharing a grid, sample times and initial data.

    flow_gap compares the runs' sample_flows; velocity_gap is
    ||grad(pot_a - pot_b)||_L2; hminus1_gap is ||rho_a - rho_b||_{H^-1}.
    """
    times = _shared_times(traj_a, traj_b)
    k = len(times)
    flows = zip(times, flows_a[:k], flows_b[:k], strict=True)  # a short flow list raises
    h1 = NormKind.Hs(1.0)
    pairs = list(zip(traj_a.states[:k], traj_b.states[:k]))
    return GapSeries(
        times=times,
        flow_gap=np.array([flow_gap(fa, fb) for _, fa, fb in flows]),
        velocity_gap=np.array([norm(sa.potential - sb.potential, h1) for sa, sb in pairs]),
        hminus1_gap=np.array([norm(sa.rho - sb.rho, NormKind.Hminus1) for sa, sb in pairs]),
    )
