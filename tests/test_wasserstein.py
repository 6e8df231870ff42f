"""Transport distances: entropic solver vs LP oracle, bounds."""

import numpy as np
import pytest

from sglab.config import RunConfig
from sglab.elliptic import hessian_linf
from sglab.spectral import ScalarField, TorusGrid
from sglab.transport import run_simulation
from sglab.wasserstein import (
    DensityOnTorus,
    W2ConvergenceError,
    downsample,
    gronwall_w2_bound,
    physical_density,
    torus_cost,
    w2_exact_small,
    w2_sinkhorn,
)


def bump_density(m, cx, cy, sigma=0.08):
    x = np.arange(m) / m
    X, Y = np.meshgrid(x, x, indexing="ij")
    dx = np.minimum(np.abs(X - cx), 1 - np.abs(X - cx))
    dy = np.minimum(np.abs(Y - cy), 1 - np.abs(Y - cy))
    w = np.exp(-(dx ** 2 + dy ** 2) / (2 * sigma ** 2))
    return DensityOnTorus(m=m, weights=w / w.sum())


def random_density(m, seed):
    rng = np.random.default_rng(seed)
    w = rng.random((m, m))
    return DensityOnTorus(m=m, weights=w / w.sum())


# ------------------------------------------------------------- containers

def test_density_validation():
    with pytest.raises(ValueError):
        DensityOnTorus(4, np.full((4, 4), 0.9 / 16))  # sum != 1
    bad = np.full((4, 4), 1 / 16.0)
    bad[0, 0] = -bad[0, 0]
    bad[1, 1] += 2 / 16.0
    with pytest.raises(ValueError):
        DensityOnTorus(4, bad)  # negative weight
    with pytest.raises(ValueError):
        DensityOnTorus(4, np.full((4, 3), 1 / 12.0))  # shape


def test_physical_density_uniform_and_negative():
    grid = TorusGrid(32)
    flat = physical_density(ScalarField.zeros(grid), 0.5)
    assert np.allclose(flat.weights, 1.0 / 32 ** 2, atol=1e-18)
    rho = ScalarField.from_function(
        grid, lambda x, y: -2.0 * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y))
    with pytest.raises(ValueError, match="not a measure"):
        physical_density(rho, 0.6)


def test_downsample_block_sum():
    w = np.arange(16.0).reshape(4, 4)
    d = DensityOnTorus(4, w / w.sum())
    c = downsample(d, 2)
    manual = np.array([[w[0, 0] + w[0, 1] + w[1, 0] + w[1, 1],
                        w[0, 2] + w[0, 3] + w[1, 2] + w[1, 3]],
                       [w[2, 0] + w[2, 1] + w[3, 0] + w[3, 1],
                        w[2, 2] + w[2, 3] + w[3, 2] + w[3, 3]]])
    assert np.allclose(c.weights, manual / w.sum(), atol=1e-15)
    with pytest.raises(ValueError):
        downsample(d, 3)


def test_torus_cost_bounds():
    c = torus_cost(8, 8)
    assert c.shape == (64, 64)
    assert float(np.max(c)) <= 0.5 + 1e-15
    assert np.allclose(c, c.T, atol=1e-15)
    assert c[0, 0] == 0.0
    with pytest.raises(ValueError):
        torus_cost(100, 100)  # 1e8 entries over budget


# ------------------------------------------------------------- exact LP

def test_point_masses_torus_distance():
    w1 = np.zeros((10, 10))
    w1[0, 0] = 1.0
    w2 = np.zeros((10, 10))
    w2[3, 0] = 1.0
    r = w2_exact_small(DensityOnTorus(10, w1), DensityOnTorus(10, w2))
    assert abs(r.distance - 0.3) < 1e-12
    assert r.method == "exact"
    assert r.marginal_error <= 1e-8


def test_exact_self_distance_zero():
    a = random_density(8, 3)
    assert w2_exact_small(a, a).distance < 1e-9


def test_exact_size_guard():
    a = random_density(17, 0)
    with pytest.raises(ValueError):
        w2_exact_small(a, a)


def test_exact_metric_properties():
    a, b, c = (random_density(6, s) for s in (10, 11, 12))
    dab = w2_exact_small(a, b).distance
    dba = w2_exact_small(b, a).distance
    dac = w2_exact_small(a, c).distance
    dbc = w2_exact_small(b, c).distance
    assert abs(dab - dba) < 1e-12
    assert dab > 1e-4  # distinct densities are separated
    assert dac <= dab + dbc + 1e-10  # triangle inequality slack


def test_exact_translation_recovery():
    # support diameter + translation below 1/2: the rigid shift is optimal
    a = bump_density(12, 0.25, 0.5, sigma=0.03)
    b = bump_density(12, 0.25 + 2 / 12, 0.5, sigma=0.03)
    r = w2_exact_small(a, b)
    assert abs(r.distance - 2 / 12) < 1e-7


# ------------------------------------------------------------- sinkhorn

def test_sinkhorn_identical_inputs_exact_zero():
    a = bump_density(32, 0.3, 0.5)
    r = w2_sinkhorn(a, a, reg=1e-3)
    assert r.distance == 0.0
    assert r.distance <= 1e-6
    assert r.marginal_error <= 1e-8


def test_sinkhorn_uniform_pair_zero():
    u = DensityOnTorus(16, np.full((16, 16), 1.0 / 256))
    v = DensityOnTorus(16, np.full((16, 16), 1.0 / 256))
    assert w2_sinkhorn(u, v, reg=1e-3).distance == 0.0


def test_sinkhorn_translated_bump():
    a = bump_density(32, 0.3, 0.5)
    b = bump_density(32, 0.4, 0.5)
    r = w2_sinkhorn(a, b)
    assert abs(r.distance - 0.1) < 5e-3
    assert r.method == "sinkhorn"
    assert r.reg == 5e-4


def test_sinkhorn_matches_lp_random_8():
    a = random_density(8, 0)
    b = random_density(8, 1)
    lp = w2_exact_small(a, b)
    sk = w2_sinkhorn(a, b, reg=1e-4)
    assert abs(lp.distance - sk.distance) <= 2e-3


def test_sinkhorn_cap_raises():
    a = random_density(8, 5)
    b = random_density(8, 6)
    with pytest.raises(W2ConvergenceError) as exc:
        w2_sinkhorn(a, b, reg=1e-4, cap=40)
    assert exc.value.marginal_error > 0


def test_sinkhorn_size_guard():
    w = np.full((128, 128), 1.0 / 128 ** 2)
    a = DensityOnTorus(128, w)
    with pytest.raises(ValueError):
        w2_sinkhorn(a, a)


# ------------------------------------------------------------- gronwall

@pytest.fixture(scope="module")
def euler64():
    cfg = RunConfig(n=64, model="Euler", eps=0.0, t_final=0.5,
                    sample_interval=0.05)
    return run_simulation(cfg)


def test_gronwall_same_trajectory_zero(euler64):
    series = gronwall_w2_bound(euler64, euler64)
    assert np.all(series.bound == 0.0)
    assert series.bound[0] == 0.0
    assert np.all(np.diff(series.a_t) > 0)


def test_gronwall_exponent_is_the_stored_a_t():
    base = dict(n=32, t_final=0.3, sample_interval=0.1)
    euler = run_simulation(RunConfig(model="Euler", eps=0.0, **base))
    sg = run_simulation(RunConfig(model="SGeps", eps=0.02, **base))
    a_t = gronwall_w2_bound(sg, euler).a_t
    stored = [d.A_t for d in euler.diagnostics]
    assert a_t.tobytes() == np.array(stored).tobytes()
    growth = [1 + 2 * hessian_linf(s.potential) for s in euler.states]
    assert a_t[-1] == pytest.approx(np.trapezoid(growth, euler.times), rel=1e-14)


def test_gronwall_alignment_errors(euler64):
    other = run_simulation(RunConfig(n=32, model="Euler", eps=0.0,
                                     t_final=0.5, sample_interval=0.05))
    with pytest.raises(ValueError, match="grids"):
        gronwall_w2_bound(other, euler64)
    coarse = run_simulation(RunConfig(n=64, model="Euler", eps=0.0,
                                      t_final=0.5, sample_interval=0.25))
    with pytest.raises(ValueError, match="sample times"):
        gronwall_w2_bound(coarse, euler64)


def test_gronwall_bound_eps_scaling(euler64):
    finals = []
    eps_list = [0.04, 0.02, 0.01]
    for eps in eps_list:
        cfg = RunConfig(n=64, model="SGeps", eps=eps, t_final=0.5,
                        sample_interval=0.05)
        sg = run_simulation(cfg)
        series = gronwall_w2_bound(sg, euler64)
        assert np.all(np.diff(series.bound) >= -1e-15)  # monotone in t
        finals.append(series.bound[-1])
    slope = np.polyfit(np.log(eps_list), np.log(finals), 1)[0]
    assert 1.7 <= slope <= 2.3
