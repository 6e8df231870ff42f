"""Particle flow maps under computed velocity fields.

Particles are integrated with RK4 in unwrapped (covering-plane)
coordinates: flow gaps appear inside Gronwall arguments as plain
differences, and a modular reduction would corrupt small gaps near the
periodic cut. Positions are wrapped mod 1 only when a velocity lookup
or a binning needs torus coordinates.

Velocity lookups off the grid use bicubic spline interpolation with
periodic boundary handling (scipy's grid-wrap mode) on prefiltered
spline coefficients, cached for the last two evaluation times of one
sweep. A flow map may carry a stack of label grids, so backward_flow
moves the inverse flows of many times in one backward sweep. scipy.ndimage
loads on the first lookup, so a process that traces no particles never
imports it.

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

import numpy as np

from .spectral import ScalarField, NormKind, norm, perp_gradient
from .transport import StepSizeError, Trajectory, _rk4, _shared_times

__all__ = [
    "FlowMap",
    "GapSeries",
    "TrajectoryVelocity",
    "label_flow",
    "advect_flow",
    "flow_gap",
    "measure_preservation_defect",
    "backward_flow",
    "inverse_flow_lipschitz",
    "pushforward_density",
    "paired_gap_series",
]

DEPOSIT_WIDTH = 3  # half-width in cells of measure_preservation_defect's hat kernel


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
        return self._combine(t, self._ux, self._uy)

    def filtered_pair(self, t: float):
        return self._combine(t, self._fx, self._fy)

    def _combine(self, t, xs, ys):
        """Lagrange combination at time t of the per-sample arrays xs, ys."""
        times = self._times
        if t < times[0] - 1e-9 or t > times[-1] + 1e-9:
            raise ValueError(
                f"t = {t} outside velocity coverage [{times[0]}, {times[-1]}]"
            )
        j = int(np.searchsorted(times, t))
        lo = max(0, min(j - 2, len(times) - 4))
        hi = min(len(times), lo + 4)
        ux = np.zeros_like(xs[0])
        uy = np.zeros_like(ys[0])
        for i in range(lo, hi):
            w = 1.0
            for k in range(lo, hi):
                if k != i:
                    w *= (t - times[k]) / (times[i] - times[k])
            ux += w * xs[i]
            uy += w * ys[i]
        return ux, uy


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


def advect_flow(velocity_source, labels: FlowMap, t0: float, t1: float, dt: float) -> FlowMap:
    """RK4 particle integration of d/dt X = u(t, X) from t0 to t1.

    dt must respect the particle CFL limit h/max|u| (h of the velocity
    grid); the limit is checked at t0. Integration also runs backward
    when t1 < t0 (dt still positive).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    lookup = _FilteredLookup(velocity_source)
    h = 1.0 / velocity_source.grid.n
    limit = h / max(float(np.max(np.hypot(*velocity_source.pair(t0)))), 1e-14)
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


def measure_preservation_defect(flow: FlowMap) -> float:
    """Max relative deviation of binned cell mass from uniform.

    Mass is deposited onto the m x m cell centers with a tensor hat
    kernel of integer half-width DEPOSIT_WIDTH cells. An integer-width
    hat keeps the exact partition-of-unity property (identity and
    uniform translations score exactly 0) while suppressing the lattice
    aliasing that makes nearest-cell counting useless for rotated or
    sheared particle lattices; smooth area-preserving flows then score
    O(1/m + dt^4).
    """
    m = flow.m
    if m < 16:
        raise ValueError("need m >= 16")
    w = DEPOSIT_WIDTH
    counts = np.zeros((m, m))
    # node i holds cell center (i+1/2)/m; fractional node coordinate
    u = np.mod(flow.positions_x, 1.0).ravel() * m - 0.5
    v = np.mod(flow.positions_y, 1.0).ravel() * m - 0.5
    i0 = np.floor(u).astype(int)
    j0 = np.floor(v).astype(int)
    fu = u - i0
    fv = v - j0
    # nodes i0-w+1 .. i0+w get (w - distance)/w^2 each; the offsets pair
    # up so the weights sum to exactly 1 for every fractional offset
    wx = [(w - np.abs(d - fu)) / w ** 2 for d in range(1 - w, w + 1)]
    wy = [(w - np.abs(d - fv)) / w ** 2 for d in range(1 - w, w + 1)]
    for di in range(1 - w, w + 1):
        for dj in range(1 - w, w + 1):
            np.add.at(counts, ((i0 + di) % m, (j0 + dj) % m),
                      wx[di + w - 1] * wy[dj + w - 1])
    return float(np.max(np.abs(counts - 1.0)))


def backward_flow(velocity_source, times, m: int, dt: float) -> list[FlowMap]:
    """Inverse flows X^{-1}(t, .) at the m x m cell centers, one per t in times.

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


def pushforward_density(rho0: ScalarField, velocity_source, t: float,
                        dt: float | None = None) -> ScalarField:
    """Semi-Lagrangian transport: rho(t, x) = rho0(X^{-1}(t, x)).

    Characteristics are integrated backward from the rho0 grid points;
    rho0 is sampled at the foot points with a periodic bicubic spline.
    The mean is re-projected to rho0's mean.
    """
    grid = rho0.grid
    n = grid.n
    if t == 0.0:
        return rho0
    if dt is None:
        speed = max(float(np.max(np.hypot(*velocity_source.pair(t)))), 1e-14)
        dt = min(0.5 / (n * speed), abs(t))
    # grid points j/n (field sampling lattice, not cell centers);
    # advect_flow only needs positions, so grid points stand in as labels
    pts = np.arange(n) / n
    X, Y = np.meshgrid(pts, pts, indexing="ij")
    lab = FlowMap(m=n, time=0.0, positions_x=X, positions_y=Y)
    feet = advect_flow(velocity_source, lab, t, 0.0, dt)
    (vals,) = _spline_values((_prefilter(rho0.values),), feet.positions_x, feet.positions_y)
    out = ScalarField(grid, vals)
    return out - out.mean() + rho0.mean()


def paired_gap_series(traj_a: Trajectory, traj_b: Trajectory,
                      m: int | None = None, dt: float | None = None,
                      providers=None) -> GapSeries:
    """Gap metrics between two runs sharing a grid, sample times and initial data.

    flow_gap advects both flows sample-to-sample; velocity_gap is
    ||grad(pot_a - pot_b)||_L2; hminus1_gap is ||rho_a - rho_b||_{H^-1}.
    providers, when given, is the (TrajectoryVelocity(traj_a),
    TrajectoryVelocity(traj_b)) pair a caller already holds.
    """
    times = _shared_times(traj_a, traj_b)
    k = len(times)
    n = traj_a.grid.n
    if m is None:
        m = n // 2
    if dt is None:
        dt = float(times[1] - times[0]) / 2

    if providers is None:
        providers = TrajectoryVelocity(traj_a), TrajectoryVelocity(traj_b)
    prov_a, prov_b = providers
    fa = label_flow(m)
    fb = label_flow(m)
    fgap = [flow_gap(fa, fb)]
    vgap = []
    hgap = []
    h1 = NormKind.Hs(1.0)
    for i in range(k):
        sa, sb = traj_a.states[i], traj_b.states[i]
        vgap.append(norm(sa.potential - sb.potential, h1))
        hgap.append(norm(sa.rho - sb.rho, NormKind.Hminus1))
        if i + 1 < k:
            fa = advect_flow(prov_a, fa, float(times[i]), float(times[i + 1]), dt)
            fb = advect_flow(prov_b, fb, float(times[i]), float(times[i + 1]), dt)
            fgap.append(flow_gap(fa, fb))
    return GapSeries(
        times=times,
        flow_gap=np.asarray(fgap),
        velocity_gap=np.asarray(vgap),
        hminus1_gap=np.asarray(hgap),
    )
