"""Particle references that only the tests read: a measure-preservation
score of a flow map, and semi-Lagrangian transport of a density along
particle characteristics. They check that particle and spectral
transport agree; no verb, experiment driver or demo calls them."""

import numpy as np

from sglab.lagrangian import FlowMap, _prefilter, _spline_values, advect_flow
from sglab.spectral import ScalarField

DEPOSIT_WIDTH = 3  # half-width in cells of measure_preservation_defect's hat kernel


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
