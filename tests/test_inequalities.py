"""Checker-level and suite-level tests for the inequality lab."""

from dataclasses import replace

import numpy as np
import pytest

import sglab.inequalities as ineq
from sglab.inequalities import (
    CHECKER_NAMES,
    CheckResult,
    check_det_expansion,
    check_det_lipschitz,
    check_endpoint_cz,
    check_forced_transport_constant,
    check_h1_interp,
    check_sobolev_interp,
    check_wente,
    random_field,
    run_suite,
)
from sglab.config import RunConfig
from sglab.spectral import NormKind, ScalarField, TorusGrid, norm
from sglab.transport import advect_scalar


@pytest.fixture(scope="module")
def grid():
    return TorusGrid(64)


def wave(grid, fn):
    x, y = grid.points()
    return ScalarField(grid, fn(x, y))


def test_checkresult_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        CheckResult("x", -0.5, 1.0, 0, "00")
    assert CheckResult("x", 0.5, 1.0, 0, "00").passed
    assert CheckResult("x", 1.0, 1.0, 0, "00").passed


@pytest.mark.parametrize("ratio, bound, passed", [
    (np.nan, 1.0, False),
    (np.inf, 1.0, False),
    (np.inf, np.inf, False),
    (1.5, 1.0, False),
    (np.nan, None, True),
    (7.0, None, True),
])
def test_checkresult_pass_flag_is_derived(ratio, bound, passed):
    assert CheckResult("x", ratio, bound, 0, "00").passed is passed


def test_random_field_band_limited_and_normalized(grid):
    rng = np.random.default_rng(11)
    f = random_field(grid, rng, gamma=2.0)
    assert abs(f.mean()) < 1e-14
    assert abs(np.max(np.abs(f.values)) - 1.0) < 1e-12
    spec = np.abs(np.fft.fft2(f.values))
    assert np.max(spec[~grid.dealias_mask()]) < 1e-9 * np.max(spec)


def test_random_field_gradient_normalization(grid):
    rng = np.random.default_rng(12)
    f = random_field(grid, rng, gamma=4.0, normalize="gradlinf")
    assert abs(norm(f, NormKind.GradLinf) - 1.0) < 1e-12
    with pytest.raises(ValueError, match="normalization"):
        random_field(grid, rng, gamma=4.0, normalize="h7")


def test_random_field_deterministic(grid):
    a = random_field(grid, np.random.default_rng(5), gamma=3.0)
    b = random_field(grid, np.random.default_rng(5), gamma=3.0)
    assert np.array_equal(a.values, b.values)


def test_wente_product_cosine_constant(grid):
    psi = wave(grid, lambda x, y: np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y))
    r = check_wente(psi)
    assert abs(r.ratio - 1.0 / (8.0 * np.pi)) < 1e-10
    assert r.passed


def test_wente_one_dimensional_field_vanishes(grid):
    psi = wave(grid, lambda x, y: np.cos(2 * np.pi * y))
    assert check_wente(psi).ratio == 0.0


def test_wente_random_fields_stay_small(grid):
    rng = np.random.default_rng(100)
    worst = max(
        check_wente(random_field(grid, rng, gamma=2.0 + (i % 3))).ratio
        for i in range(100)
    )
    assert worst <= 0.5


def test_endpoint_cz_zero_field_rejected(grid):
    with pytest.raises(ValueError, match="degenerate"):
        check_endpoint_cz(ScalarField.zeros(grid))


def test_endpoint_cz_single_mode_trend():
    # higher frequency raises the Hoelder norm, so the logarithmic
    # denominator grows while the Hessian quotient stays at 1
    grid = TorusGrid(128)
    ratios = [
        check_endpoint_cz(wave(grid, lambda x, y, N=N: np.cos(2 * np.pi * N * x))).ratio
        for N in (1, 2, 4, 8, 16, 32)
    ]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert all(r <= 2.0 for r in ratios)


def test_h1_interp_single_mode_saturates(grid):
    g = wave(grid, lambda x, y: np.cos(2 * np.pi * (3 * x + 2 * y)))
    r = check_h1_interp(g)
    assert abs(r.ratio - 1.0) < 1e-10
    assert r.passed
    with pytest.raises(ValueError, match="degenerate"):
        check_h1_interp(ScalarField.zeros(grid))


def test_sobolev_interp_saturation_and_randoms(grid):
    g = wave(grid, lambda x, y: np.sin(2 * np.pi * (x + 4 * y)))
    assert abs(check_sobolev_interp(g).ratio - 1.0) < 1e-10
    rng = np.random.default_rng(21)
    for _ in range(20):
        r = check_sobolev_interp(random_field(grid, rng, gamma=3.0))
        assert r.ratio <= 1.0 + 1e-12


def test_det_lipschitz_random_and_degenerate(grid):
    rng = np.random.default_rng(31)
    for _ in range(10):
        r = check_det_lipschitz(
            random_field(grid, rng, gamma=3.0), random_field(grid, rng, gamma=3.0)
        )
        assert r.ratio <= 1.0
    f = random_field(grid, rng, gamma=3.0)
    with pytest.raises(ValueError, match="degenerate"):
        check_det_lipschitz(f, f)


def test_det_expansion_closes(grid):
    rng = np.random.default_rng(41)
    r = check_det_expansion(
        random_field(grid, rng, gamma=3.0), random_field(grid, rng, gamma=4.0)
    )
    assert r.ratio <= 1e-10


def test_forced_transport_zero_velocity_is_exact(grid):
    rng = np.random.default_rng(51)
    r = check_forced_transport_constant(random_field(grid, rng, gamma=2.0))
    assert abs(r.ratio - 1.0) < 1e-10
    with pytest.raises(ValueError, match="degenerate"):
        check_forced_transport_constant(ScalarField.zeros(grid))


@pytest.mark.parametrize("gamma", [2.0, 3.0, 4.0])
def test_forced_transport_matches_zero_velocity_advect_scalar(grid, gamma):
    f = random_field(grid, np.random.default_rng(52), gamma=gamma)
    zero = ScalarField.zeros(grid)
    out = advect_scalar(zero, lambda t: zero, 0.0, ineq.FORCED_T, dt=0.05,
                        forcing_at=lambda t: f)
    ratio = float(norm(out - zero, NormKind.Hminus1)
                  / (ineq.FORCED_T * norm(f, NormKind.Hminus1)))
    assert check_forced_transport_constant(f).ratio == ratio


# ---------------------------------------------------------------- suite


@pytest.fixture(scope="module")
def suite_pair():
    return run_suite(4, count=2), run_suite(4, count=2)


def test_suite_runs_full_roster(suite_pair):
    rep, _ = suite_pair
    names = {r.name for r in rep.results}
    assert names == set(CHECKER_NAMES)
    assert not rep.errors
    assert all(r.passed for r in rep.results)


def test_suite_runs_each_checker_count_times_in_order(suite_pair):
    rep, _ = suite_pair
    assert [r.name for r in rep.results] == [
        name for name in CHECKER_NAMES for _ in range(rep.count)]


def test_suite_deterministic(suite_pair):
    rep1, rep2 = suite_pair
    key = lambda rep: [(r.name, r.ratio, r.inputs_digest, r.passed) for r in rep.results]
    assert key(rep1) == key(rep2)


def test_suite_count_validation():
    with pytest.raises(ValueError, match="count"):
        run_suite(0, count=0)


def test_suite_more_samples_never_lower_max():
    small = run_suite(6, count=2).max_ratios()
    large = run_suite(6, count=5).max_ratios()
    for name, r in small.items():
        assert large[name] >= r - 1e-15


def test_suite_collects_checker_errors(monkeypatch):
    def boom(f, seed):
        raise ValueError("synthetic failure")

    monkeypatch.setitem(ineq.FIELD_CHECKS, "boom", (boom, (0,)))
    rep = run_suite(1, count=1)
    assert ("boom", "synthetic failure") in rep.errors
    assert any(r.name == "wente" for r in rep.results)
    assert any(r.name == "grad_ode" for r in rep.results)


def test_one_round_suite_sweeps_to_the_first_sample_only(monkeypatch):
    swept = []
    original = ineq.backward_flow

    def recording(provider, times, m, dt):
        swept.append(list(times))
        return original(provider, times, m, dt)

    monkeypatch.setattr(ineq, "backward_flow", recording)
    rep = run_suite(2, count=1)
    assert swept == [[0.05], [0.05]]
    assert not rep.errors
    assert [r.name for r in rep.results].count("inv_gap") == 1


def test_bundle_reads_euler_from_its_corrector_run(monkeypatch):
    made = []
    original = ineq.run_simulation

    def counting(cfg):
        made.append(cfg.model)
        return original(cfg)

    monkeypatch.setattr(ineq, "run_simulation", counting)
    bundle = ineq._Bundle(3, count=1)
    assert made == ["SGeps", "Corrector"]
    # the same datum the bundle draws; its Euler view is this run bit for
    # bit, the A_t record aside, which no bundle check reads
    rho0 = random_field(TorusGrid(ineq.BUNDLE_N), np.random.default_rng([3, 1]),
                        gamma=4.0, normalize="gradlinf")
    euler = original(RunConfig(model="Euler", eps=0.0, n=ineq.BUNDLE_N,
                               t_final=ineq.BUNDLE_T, sample_interval=ineq.BUNDLE_INTERVAL,
                               initial_data=ineq._field_to_modes(rho0)))
    assert bundle.euler.times == euler.times
    assert bundle.euler.m0 == euler.m0 == norm(bundle.rho0, NormKind.Linf)
    assert bundle.euler.diagnostics == [replace(d, A_t=None) for d in euler.diagnostics]
    for mine, ref in zip(bundle.euler.states, euler.states, strict=True):
        assert mine.model == ref.model and mine.eps == ref.eps
        for name in ("rho", "potential"):
            assert getattr(mine, name).values.tobytes() == getattr(ref, name).values.tobytes()
