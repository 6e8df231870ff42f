"""Flow-map advection, measure preservation, and semi-Lagrangian transport."""

import numpy as np
import pytest
from conftest import field_from

from sglab.config import RunConfig
from sglab.lagrangian import (
    FlowMap,
    TrajectoryVelocity,
    _prefilter,
    advect_flow,
    backward_flow,
    flow_gap,
    inverse_flow_lipschitz,
    label_flow,
    measure_preservation_defect,
    paired_gap_series,
    pushforward_density,
)
from sglab.spectral import NormKind, ScalarField, TorusGrid, norm
from sglab.transport import StepSizeError, run_simulation


@pytest.fixture(scope="module")
def grid64():
    return TorusGrid(64)


@pytest.fixture(scope="module")
def euler128():
    cfg = RunConfig(n=128, model="Euler", eps=0.0, t_final=1.0,
                    sample_interval=0.05)
    return run_simulation(cfg)


class FieldVelocity:
    """Velocity provider for an analytic or static velocity sampled on a
    grid; fn(t) returns a pair of ScalarFields (ux, uy)."""

    def __init__(self, grid, fn):
        self.grid = grid
        self._fn = fn

    def pair(self, t):
        ux, uy = self._fn(t)
        return ux.values, uy.values

    def filtered_pair(self, t):
        return tuple(_prefilter(u) for u in self.pair(t))


def constant_velocity(grid, cx, cy):
    ux = ScalarField(grid, np.full((grid.n, grid.n), float(cx)))
    uy = ScalarField(grid, np.full((grid.n, grid.n), float(cy)))
    return FieldVelocity(grid, lambda t: (ux, uy))


# ---------------------------------------------------------------- labels

def test_label_flow_is_identity_at_cell_centers():
    fm = label_flow(32)
    centers = (np.arange(32) + 0.5) / 32
    assert fm.time == 0.0
    assert np.array_equal(fm.positions_x[:, 0], centers)
    assert np.array_equal(fm.positions_y[0, :], centers)


def test_flowmap_shape_validation():
    with pytest.raises(ValueError):
        FlowMap(m=4, time=0.0, positions_x=np.zeros((4, 3)),
                positions_y=np.zeros((4, 4)))


# ---------------------------------------------------------------- advect

def test_uniform_translation(grid64):
    prov = constant_velocity(grid64, 1.0, 0.0)
    fm = advect_flow(prov, label_flow(32), 0.0, 0.25, dt=0.01)
    ref = label_flow(32)
    assert np.allclose(fm.positions_x, ref.positions_x + 0.25, atol=1e-13)
    assert np.allclose(fm.positions_y, ref.positions_y, atol=1e-13)


def test_zero_velocity_identity(grid64):
    prov = constant_velocity(grid64, 0.0, 0.0)
    fm = advect_flow(prov, label_flow(16), 0.0, 1.0, dt=0.05)
    ref = label_flow(16)
    assert np.array_equal(fm.positions_x, ref.positions_x)
    assert np.array_equal(fm.positions_y, ref.positions_y)


def test_shear_characteristic_exact(grid64):
    # u = (2 pi sin(2 pi y), 0): a particle on y = 1/4 sees speed 2 pi
    # forever, so its x displacement is exactly 2 pi t
    def shear(t):
        pts = grid64.points()
        ux = ScalarField(grid64, 2 * np.pi * np.sin(2 * np.pi * pts[1]))
        uy = ScalarField.zeros(grid64)
        return ux, uy

    prov = FieldVelocity(grid64, shear)
    start = FlowMap(m=1, time=0.0, positions_x=np.array([[0.5]]),
                    positions_y=np.array([[0.25]]))
    t1 = 0.25
    fm = advect_flow(prov, start, 0.0, t1, dt=0.002)
    assert fm.positions_y[0, 0] == 0.25
    assert abs(fm.positions_x[0, 0] - (0.5 + 2 * np.pi * t1)) < 1e-10


def test_cfl_guard(grid64):
    prov = constant_velocity(grid64, 1.0, 0.0)
    # limit is h/|u| = 1/64; dt = 0.1 is far beyond it
    with pytest.raises(StepSizeError):
        advect_flow(prov, label_flow(16), 0.0, 1.0, dt=0.1)


def test_velocity_coverage_error(euler128):
    prov = TrajectoryVelocity(euler128)
    with pytest.raises(ValueError, match="coverage"):
        prov.pair(2.0)
    with pytest.raises(ValueError, match="coverage"):
        prov.filtered_pair(2.0)


def test_filtered_pair_is_the_filtered_velocity(euler128, grid64):
    # the prefilter is linear, so combining per-sample coefficients with
    # the Lagrange weights equals filtering the combined velocity
    from scipy import ndimage

    def spline(u):
        return ndimage.spline_filter(u, order=3, mode="grid-wrap")

    prov = TrajectoryVelocity(euler128)
    for t in (0.0, 0.05, 0.1375, 0.61, 1.0):
        for got, u in zip(prov.filtered_pair(t), prov.pair(t), strict=True):
            want = spline(u)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    shear = field_from(grid64, lambda x, y: np.sin(2 * np.pi * y))
    field = FieldVelocity(grid64, lambda t: (shear, (1 + t) * shear))
    for got, u in zip(field.filtered_pair(0.5), field.pair(0.5), strict=True):
        assert np.array_equal(got, spline(u))


# ---------------------------------------------------------------- gaps

def test_flow_gap_translation():
    a = label_flow(32)
    shifted = FlowMap(m=32, time=0.0, positions_x=a.positions_x + 0.25,
                      positions_y=a.positions_y)
    assert abs(flow_gap(a, shifted) - 0.25) < 1e-14
    assert flow_gap(a, a) == 0.0


def test_flow_gap_shape_error():
    with pytest.raises(ValueError):
        flow_gap(label_flow(16), label_flow(32))


# ---------------------------------------------------------------- measure

def test_defect_identity_zero():
    assert measure_preservation_defect(label_flow(32)) == 0.0


def test_defect_translation_zero():
    a = label_flow(32)
    shifted = FlowMap(m=32, time=0.0, positions_x=a.positions_x + 0.13,
                      positions_y=a.positions_y + 0.07)
    assert measure_preservation_defect(shifted) < 1e-12


def test_defect_requires_m16():
    with pytest.raises(ValueError):
        measure_preservation_defect(label_flow(8))


def test_defect_euler_flow_small(euler128):
    prov = TrajectoryVelocity(euler128)
    fm = advect_flow(prov, label_flow(64), 0.0, 1.0, dt=0.0125)
    assert measure_preservation_defect(fm) <= 0.05


# ---------------------------------------------------------------- inverse

def test_backward_flow_translation(grid64):
    prov = constant_velocity(grid64, 1.0, 0.0)
    (back,) = backward_flow(prov, [0.25], m=32, dt=0.01)
    ref = label_flow(32)
    assert back.time == 0.25
    assert np.allclose(back.positions_x, ref.positions_x - 0.25, atol=1e-13)
    assert np.allclose(back.positions_y, ref.positions_y, atol=1e-13)


def test_backward_sweep_matches_per_time_flows(euler128):
    # unsorted, with a duplicate and t = 0; each map is the label grid
    # advected alone from its t to 0
    prov = TrajectoryVelocity(euler128)
    times = [0.3, 0.05, 0.3, 0.0, 0.15]
    backs = backward_flow(prov, times, m=16, dt=0.0125)
    lab = label_flow(16)
    assert [b.time for b in backs] == times
    for t, back in zip(times, backs):
        ref = advect_flow(prov, lab, t, 0.0, 0.0125) if t else lab
        assert back.positions_x.shape == (16, 16)
        assert np.max(np.abs(back.positions_x - ref.positions_x)) <= 1e-13
        assert np.max(np.abs(back.positions_y - ref.positions_y)) <= 1e-13
    assert np.array_equal(backs[3].positions_x, lab.positions_x)
    assert np.array_equal(backs[0].positions_x, backs[2].positions_x)
    with pytest.raises(ValueError, match=">= 0"):
        backward_flow(prov, [0.1, -0.05], m=16, dt=0.0125)


def test_backward_sweep_checks_cfl_at_every_start_time(grid64):
    # the speed reaches 10 only for t <= 0.3: a flow from 0.5 alone checks
    # the limit at 0.5, the sweep through 0.2 checks it there too
    slow = ScalarField(grid64, np.ones((64, 64)))
    fast = ScalarField(grid64, 10 * np.ones((64, 64)))
    zero = ScalarField.zeros(grid64)
    prov = FieldVelocity(grid64, lambda t: (slow if t > 0.3 else fast, zero))
    backward_flow(prov, [0.5], m=16, dt=0.01)
    with pytest.raises(StepSizeError):
        backward_flow(prov, [0.5, 0.2], m=16, dt=0.01)


def test_lookup_fills_each_level_once_and_keeps_two(euler128, monkeypatch):
    from collections import Counter

    from sglab import lagrangian

    sizes = []

    class Recording(lagrangian._FilteredLookup):
        def __call__(self, t, x, y):
            out = super().__call__(t, x, y)
            sizes.append(len(self._cache))
            return out

    class Counting(TrajectoryVelocity):
        def filtered_pair(self, t):
            fills[round(t, 12)] += 1
            return super().filtered_pair(t)

    monkeypatch.setattr(lagrangian, "_FilteredLookup", Recording)
    prov = Counting(euler128)
    fills = Counter()
    advect_flow(prov, label_flow(16), 0.0, 0.2, dt=0.0125)
    assert len(fills) == 2 * 16 + 1 and set(fills.values()) == {1}
    # the sweep's advect_flow calls fill their own levels once each; only
    # the sample time 0.1 that ends one interval and starts the next repeats
    fills = Counter()
    backward_flow(prov, [0.1, 0.2], m=16, dt=0.0125)
    assert sum(fills.values()) == 2 * (2 * 8 + 1) and len(fills) == 2 * 16 + 1
    assert max(sizes) == 2


def test_inverse_lipschitz_identity():
    assert abs(inverse_flow_lipschitz(label_flow(32)) - 1.0) < 1e-12


def test_forward_backward_roundtrip(euler128):
    prov = TrajectoryVelocity(euler128)
    fwd = advect_flow(prov, label_flow(32), 0.0, 0.5, dt=0.0125)
    back = advect_flow(prov, fwd, 0.5, 0.0, dt=0.0125)
    ref = label_flow(32)
    err = np.max(np.hypot(back.positions_x - ref.positions_x,
                          back.positions_y - ref.positions_y))
    assert err < 1e-6


# ------------------------------------------------------------ pushforward

def test_pushforward_t0_is_identity(grid64):
    rho0 = field_from(
        grid64, lambda x, y: np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y))
    prov = constant_velocity(grid64, 1.0, 0.0)
    out = pushforward_density(rho0, prov, 0.0)
    assert out is rho0


def test_pushforward_shear_invariant(grid64):
    # rho depending on y alone is invariant under any flow u = (c(y), 0)
    rho0 = field_from(
        grid64, lambda x, y: np.cos(2 * np.pi * y) + 0.0 * x)

    def shear(t):
        pts = grid64.points()
        ux = ScalarField(grid64, np.cos(4 * np.pi * pts[1]))
        uy = ScalarField.zeros(grid64)
        return ux, uy

    prov = FieldVelocity(grid64, shear)
    out = pushforward_density(rho0, prov, 0.5, dt=0.005)
    assert np.max(np.abs(out.values - rho0.values)) < 1e-10


def test_pushforward_matches_spectral(euler128):
    prov = TrajectoryVelocity(euler128)
    rho0 = euler128.states[0].rho
    t = 0.5
    idx = int(np.argmin(np.abs(np.asarray(euler128.times) - t)))
    assert abs(euler128.times[idx] - t) < 1e-12
    spectral = euler128.states[idx].rho
    push = pushforward_density(rho0, prov, t, dt=0.0125)
    err = norm(push - spectral, NormKind.L2)
    assert err <= 5e-3 * norm(rho0, NormKind.L2)


# ------------------------------------------------------------- series

def test_paired_gap_series_self_is_zero(euler128):
    gs = paired_gap_series(euler128, euler128, m=32, dt=0.025)
    assert np.all(gs.flow_gap == 0.0)
    assert np.all(gs.velocity_gap == 0.0)
    assert np.all(gs.hminus1_gap == 0.0)
    assert gs.flow_gap[0] == 0.0
    assert len(gs.times) == len(gs.flow_gap)


def test_paired_gap_series_grid_mismatch():
    base = dict(model="Euler", eps=0.0, t_final=0.1, sample_interval=0.05)
    coarse = run_simulation(RunConfig(n=32, **base))
    fine = run_simulation(RunConfig(n=64, **base))
    with pytest.raises(ValueError, match="different grids"):
        paired_gap_series(coarse, fine)


def test_paired_gap_series_time_mismatch(euler128):
    cfg = RunConfig(n=32, model="Euler", eps=0.0, t_final=0.2,
                    sample_interval=0.1)
    other = run_simulation(cfg)
    with pytest.raises(ValueError):
        paired_gap_series(euler128, other)
