"""Integrator tests: stationary states, conservation, convergence order,
corrector consistency, sampling contract."""

import numpy as np
import pytest
from conftest import field_from

from sglab.config import RunConfig
from sglab.spectral import (
    NormKind,
    ScalarField,
    TorusGrid,
    dealias,
    derivative,
    inv_laplacian,
    norm,
    perp_gradient,
)
from sglab.elliptic import (
    bootstrap_status,
    cofactor_contract,
    hessian_det,
    hessian_l2,
    hessian_linf,
    solve_corrector_potential,
)
from sglab.lagrangian import TrajectoryVelocity
from sglab.transport import (
    PRESETS,
    SimState,
    StepSizeError,
    Trajectory,
    advect_scalar,
    cfl_limit,
    gronwall_integral,
    initial_data_field,
    run_simulation,
    step_rk4,
)
from sglab.transport import _initial_state  # test-only import
from test_elliptic import reference_sg_solve


TWO_PI = 2 * np.pi


def euler_state(n=64, preset="default"):
    cfg = RunConfig(n=n, model="Euler", initial_data=preset)
    return _initial_state(cfg)


# --- initial data ----------------------------------------------------------

def test_presets_have_zero_mean():
    g = TorusGrid(64)
    for name in ("default", "steep", "shear"):
        f = initial_data_field(g, name)
        assert abs(f.mean()) < 1e-14


# each preset's formula, as its comment in transport.PRESETS states it
PRESET_FORMULAS = {
    "default": lambda x, y: np.cos(TWO_PI * x) * np.cos(TWO_PI * y)
    + 0.5 * np.cos(2 * TWO_PI * y),
    "mild": lambda x, y: 0.25 * (np.cos(TWO_PI * x) * np.cos(TWO_PI * y)
                                 + 0.5 * np.cos(2 * TWO_PI * y)),
    "steep": lambda x, y: 0.08 * (np.cos(TWO_PI * x) * np.cos(TWO_PI * y)
                                  + 0.7 * np.cos(TWO_PI * (2 * x + y))),
    "shear": lambda x, y: -4 * np.pi ** 2 * np.cos(TWO_PI * y) + 0.0 * x,
}


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_rows_sample_their_formula(name):
    g = TorusGrid(64)
    f = initial_data_field(g, name)
    expect = dealias(field_from(g, PRESET_FORMULAS[name]))
    assert np.max(np.abs(f.values - (expect - expect.mean()).values)) <= 1e-13


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_rows_pass_mode_row_validation(name):
    # integer indices, no (0, 0) row: a config may spell any preset as rows
    cfg = RunConfig(initial_data=PRESETS[name])
    assert np.array_equal(initial_data_field(TorusGrid(32), cfg.initial_data).values,
                          initial_data_field(TorusGrid(32), name).values)


def test_mode_list_datum():
    g = TorusGrid(64)
    f = initial_data_field(g, [[1, 0, 1.0, 0.0], [0, 2, 0.0, 0.5]])
    expect = field_from(
        g, lambda x, y: np.cos(TWO_PI * x) + 0.5 * np.sin(2 * TWO_PI * y)
    )
    assert np.allclose(f.values, expect.values, atol=1e-13)


def reference_mode_list_field(grid, spec):
    """The mode list summed as cos and sin over the whole grid, row by row."""
    X, Y = grid.points()
    vals = np.zeros((grid.n, grid.n))
    for p, q, c, s in spec:
        phase = 2 * np.pi * (p * X + q * Y)
        vals += float(c) * np.cos(phase) + float(s) * np.sin(phase)
    out = dealias(ScalarField(grid, vals))
    return out - out.mean()


@pytest.mark.parametrize("n, seed", [(32, 0), (32, 1), (64, 2)])
def test_mode_list_matches_grid_sum(n, seed):
    rng = np.random.default_rng(seed)
    # in-band frequencies, about half of them shifted by multiples of n
    # into aliased rows, and a repeat
    band = n // 3
    k = rng.integers(-band, band + 1, size=(40, 2))
    k += n * rng.integers(-1, 2, size=(40, 2))
    k[4] = k[5]
    k = k[np.any(k % n != 0, axis=1)]
    assert np.any(np.abs(k) >= n // 2)
    spec = [[int(p), int(q), float(c), float(s)]
            for (p, q), (c, s) in zip(k, rng.normal(size=(len(k), 2)))]
    f = initial_data_field(TorusGrid(n), spec)
    ref = reference_mode_list_field(TorusGrid(n), spec)
    # relative to sum |c| + |s|, which bounds the values: the reference's
    # phases reach 2 pi * 2n, and their roundoff alone is about 1e-13 of
    # that bound at n = 64 (measured 2e-13 of 65)
    scale = sum(abs(c) + abs(s) for _, _, c, s in spec)
    assert np.max(np.abs(f.values - ref.values)) <= 1e-13 * scale


def test_mode_list_aliased_row_is_its_reduced_row():
    g = TorusGrid(64)
    for row, reduced in (([60, 3, 0.7, -0.2], [-4, 3, 0.7, -0.2]),
                         ([-2, 85, 0.1, 0.4], [-2, 21, 0.1, 0.4])):
        assert np.array_equal(initial_data_field(g, [row]).values,
                              initial_data_field(g, [reduced]).values)


@pytest.mark.parametrize("n, row", [(64, [40, 0, 1.0, 0.0]), (64, [3, -22, 0.0, 1.0]),
                                    (64, [32, 0, 1.0, 0.0]), (64, [100, 0, 1.0, 0.0]),
                                    (32, [11, 1, 1.0, 0.0]), (32, [-5, 21, 0.0, 1.0])])
def test_mode_list_rejects_rows_above_the_band(n, row):
    # dealiasing would zero the row; reduced mod n, max(|p|, |q|) > n/3
    with pytest.raises(ValueError, match=r"above the 2/3 band"):
        initial_data_field(TorusGrid(n), [[1, 0, 1.0, 0.0], row])


def test_mode_list_rejects_constant():
    g = TorusGrid(64)
    with pytest.raises(ValueError):
        initial_data_field(g, [[0, 0, 1.0, 0.0]])


def test_unknown_preset_rejected():
    g = TorusGrid(64)
    with pytest.raises(ValueError, match=r"unknown preset 'nonsense'; have \['default', "
                                         r"'mild', 'shear', 'steep'\]"):
        initial_data_field(g, "nonsense")


# --- stepping basics -------------------------------------------------------

def test_zero_step_is_identity():
    s = euler_state()
    s2 = step_rk4(s, 0.0)
    assert s2 is s


def test_cfl_violation_raises():
    s = euler_state(preset="shear")
    limit = cfl_limit(s, 0.5)
    with pytest.raises(StepSizeError):
        step_rk4(s, 10 * limit, cfl=0.5)


def test_shear_is_stationary():
    # u . grad rho vanishes identically for y-only data, so 100 steps
    # leave the density bit-for-bit unchanged up to roundoff
    s0 = euler_state(preset="shear")
    s = s0
    dt = 0.9 * cfl_limit(s0, 0.5)
    for _ in range(100):
        s = step_rk4(s, dt, cfl=0.5)
    drift = norm(s.rho - s0.rho, NormKind.L2) / norm(s0.rho, NormKind.L2)
    assert drift <= 1e-10


def test_single_step_l2_conservation():
    s = euler_state(n=128)
    dt = cfl_limit(s, 0.5)
    s1 = step_rk4(s, dt, cfl=0.5)
    rel = abs(norm(s1.rho, NormKind.L2) - norm(s.rho, NormKind.L2)) / norm(
        s.rho, NormKind.L2
    )
    assert rel <= 1e-8


def test_rk4_order():
    # error against a fine-dt reference should drop ~16x per halving
    s0 = euler_state(n=64)
    T = 0.04

    def integrate(dt):
        s = s0
        steps = int(round(T / dt))
        for _ in range(steps):
            s = step_rk4(s, dt, cfl=0.9)
        return s.rho

    ref = integrate(T / 64)
    e1 = norm(integrate(T / 4) - ref, NormKind.L2)
    e2 = norm(integrate(T / 8) - ref, NormKind.L2)
    ratio = e1 / e2
    assert 11.0 < ratio < 22.0


def reference_advection(potential, rho):
    """Dealiased u . grad rho for u = perp grad potential on ScalarField
    operations, as every RK4 stage formed it before the stages moved to
    half-spectrum states."""
    ux, uy = perp_gradient(potential)
    return dealias(ux * derivative(rho, (1, 0)) + uy * derivative(rho, (0, 1)))


def reference_rk4(rate, t, y, h):
    """Classical RK4 on a tuple of ScalarFields, each mean-projected."""
    def shifted(a, k):
        return tuple(yi + a * ki for yi, ki in zip(y, k))

    k1 = rate(t, y)
    k2 = rate(t + h / 2, shifted(h / 2, k1))
    k3 = rate(t + h / 2, shifted(h / 2, k2))
    k4 = rate(t + h, shifted(h, k3))
    out = (yi + (h / 6) * (a + 2.0 * b + 2.0 * c + d)
           for yi, a, b, c, d in zip(y, k1, k2, k3, k4))
    return tuple(f - f.mean() for f in out)


def reference_step(state, dt):
    """One SG/Euler RK4 step on ScalarField operations with a cold
    reference solve in every stage, as step_rk4 ran before its
    half-spectrum stages."""
    def potential(r):
        if state.model == "SGeps" and state.eps != 0.0:
            return reference_sg_solve(r, state.eps)[0]
        return inv_laplacian(r)

    def rate(pot, r):
        return -reference_advection(pot, r)

    r0 = state.rho
    k1 = rate(state.potential, r0)
    r2 = r0 + (dt / 2) * k1
    k2 = rate(potential(r2), r2)
    r3 = r0 + (dt / 2) * k2
    k3 = rate(potential(r3), r3)
    r4 = r0 + dt * k3
    k4 = rate(potential(r4), r4)
    r1 = r0 + (dt / 6) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    r1 = r1 - r1.mean()
    return r1, potential(r1)


@pytest.mark.parametrize("model, eps, preset", [
    ("SGeps", 0.2, "steep"),
    ("SGeps", 0.05, "default"),
    ("Euler", 0.0, "default"),
])
def test_step_matches_scalarfield_reference(model, eps, preset):
    # the half-spectrum stages warm-start each SG solve from the previous
    # stage's potential; the reference solves every stage cold
    s0 = _initial_state(RunConfig(n=64, model=model, eps=eps, initial_data=preset))
    dt = cfl_limit(s0, 0.5)
    s1 = step_rk4(s0, dt)
    ref_rho, ref_pot = reference_step(s0, dt)
    assert norm(s1.rho - ref_rho, NormKind.L2) <= 1e-13 * norm(ref_rho, NormKind.L2)
    h1 = NormKind.Hs(1.0)
    assert norm(s1.potential - ref_pot, h1) <= 1e-13 * norm(ref_pot, h1)


def reference_corrector_step(state, dt):
    """One Corrector RK4 step on ScalarField operations, as step_rk4 ran
    before its Corrector stages moved to half-spectrum states. Returns
    (rhobar, rho1)."""
    def rate(t, y):
        rb, rc = y
        phibar = inv_laplacian(rb)
        phi1 = solve_corrector_potential(rc, phibar)
        return (-reference_advection(phibar, rb),
                -(reference_advection(phibar, rc) + reference_advection(phi1, rb)))

    return reference_rk4(rate, state.time, (state.background.rho, state.rho), dt)


def test_corrector_step_matches_scalarfield_reference():
    s0 = _initial_state(RunConfig(n=64, model="Corrector", eps=0.02))
    dt = 0.9 * cfl_limit(s0, 0.5)
    s1 = step_rk4(s0, dt)  # rho1 starts at 0; the second step moves both parts
    for s in (s0, s1):
        nxt = step_rk4(s, dt)
        ref_bg, ref_rho = reference_corrector_step(s, dt)
        for got, want in ((nxt.background.rho, ref_bg), (nxt.rho, ref_rho)):
            assert norm(got - want, NormKind.L2) <= 1e-13 * norm(want, NormKind.L2)
        h1 = NormKind.Hs(1.0)
        phibar = inv_laplacian(ref_bg)
        phi1 = solve_corrector_potential(ref_rho, phibar)
        assert norm(nxt.background.potential - phibar, h1) <= 1e-13 * norm(phibar, h1)
        assert norm(nxt.potential - phi1, h1) <= 1e-13 * norm(phi1, h1)


def test_advect_scalar_matches_scalarfield_reference():
    g = TorusGrid(64)
    rng = np.random.default_rng(4)

    def smooth(scale):
        f = dealias(ScalarField(g, scale * rng.standard_normal((64, 64))))
        return f - f.mean()

    psi_a, psi_b, sigma0, force = smooth(0.01), smooth(0.01), smooth(1.0), smooth(0.5)

    def potential_at(t):
        return np.cos(3 * t) * psi_a + t * psi_b

    def forcing_at(t):
        return (1 + t) * force

    for forcing in (None, forcing_at):
        out = advect_scalar(sigma0, potential_at, 0.1, 0.4, dt=0.05, forcing_at=forcing)

        def rate(t, y):
            r = -reference_advection(potential_at(t), y[0])
            return (r,) if forcing is None else (r + forcing(t),)

        ref, t = sigma0, 0.1
        for _ in range(6):
            (ref,) = reference_rk4(rate, t, (ref,), 0.05)
            t += 0.05
        assert norm(out - ref, NormKind.L2) <= 1e-13 * norm(ref, NormKind.L2)
        assert norm(out - sigma0, NormKind.L2) > 1e-2 * norm(sigma0, NormKind.L2)


def test_max_speed_is_computed_once_per_state(monkeypatch):
    from sglab import transport

    calls = []
    original = transport.advecting_velocity
    monkeypatch.setattr(transport, "advecting_velocity",
                        lambda st: calls.append(st) or original(st))
    s = euler_state(n=32)
    limit = cfl_limit(s, 0.5)
    step_rk4(s, limit, cfl=0.5)  # checks the step against the same limit
    assert cfl_limit(s, 0.5) == limit
    assert calls == [s]
    ux, uy = original(s)
    assert limit == 0.5 * s.rho.grid.h / float(np.max(np.hypot(ux.values, uy.values)))

    # ||grad rho||_Linf likewise: the exit monitor and the diagnostics of
    # a stop_on_exit run share one evaluation per state
    grads = []
    original_norm = transport.norm
    monkeypatch.setattr(transport, "norm", lambda f, kind: (
        kind.tag == "GradLinf" and grads.append(f)) or original_norm(f, kind))
    traj = run_simulation(RunConfig(n=32, model="SGeps", eps=0.2, initial_data="steep",
                                    t_final=0.5, sample_interval=0.25, stop_on_exit=True))
    assert traj.exit_reason is None
    assert len(grads) == len(traj.dt_history) + 1  # the t = 0 state and each step's
    for st, d in zip(traj.states, traj.diagnostics, strict=True):
        assert d.grad_linf_rho == st.grad_linf == original_norm(st.rho, NormKind.GradLinf)


# --- run_simulation contract ------------------------------------------------

def test_sampling_grid_and_alignment():
    cfg_e = RunConfig(n=32, model="Euler", t_final=0.3, sample_interval=0.1)
    cfg_s = RunConfig(n=32, model="SGeps", eps=0.02, t_final=0.3, sample_interval=0.1)
    cfg_c = RunConfig(n=32, model="Corrector", eps=0.02, t_final=0.3, sample_interval=0.1)
    te = run_simulation(cfg_e)
    ts = run_simulation(cfg_s)
    tc = run_simulation(cfg_c)
    assert te.times == pytest.approx([0.0, 0.1, 0.2, 0.3], abs=0)
    assert te.times == ts.times == tc.times
    assert te.exit_reason is None
    assert len(te.diagnostics) == 4
    rec = te.diagnostics[-1]
    assert rec.t == 0.3
    assert rec.velocity_gap is None
    assert rec.A_t is not None and rec.A_t > 0
    # the stored per-sample norms are exactly what a recomputation gives
    for traj in (te, ts, tc):
        for st, d in zip(traj.states, traj.diagnostics, strict=True):
            assert d.hess_linf_psi == hessian_linf(st.potential)
            assert d.hess_l2_psi == hessian_l2(st.potential)
            status = bootstrap_status(st.rho, st.potential, st.eps, m0=traj.m0)
            assert d.grad_margin == status.grad_margin
            assert d.hessian_margin == status.hessian_margin
            assert d.log_estimate_ratio == status.log_estimate_ratio
            assert d.inside == status.inside
            assert d.grad_linf_rho == norm(st.rho, NormKind.GradLinf)
            assert d.h2_rho == norm(st.rho, NormKind.Hs(2.0))
            assert d.h3_rho == norm(st.rho, NormKind.Hs(3.0))


def test_stage_solves_start_from_the_poisson_predictor(monkeypatch):
    # the n=64 steep eps 0.2 lifespan run: started from psi_prev +
    # lap^-1 (r - r_prev), its solves take 4.27 sweeps on average; from
    # psi_prev alone they take 5.26
    from sglab import transport

    sweeps = []
    picard = transport._picard

    def counting(*a, **k):
        out = picard(*a, **k)
        sweeps.append(out[-1])
        return out

    monkeypatch.setattr(transport, "_picard", counting)
    traj = run_simulation(RunConfig(n=64, model="SGeps", eps=0.2, initial_data="steep",
                                    t_final=120.0, sample_interval=0.5, stop_on_exit=True))
    assert traj.exit_reason == "bootstrap_exit"
    assert traj.exit_time == pytest.approx(10.68, abs=5e-3)
    assert len(sweeps) == 89  # the t = 0 solve and 4 per step
    assert sum(sweeps) / len(sweeps) <= 4.5


def test_sg_step_transform_count(monkeypatch):
    # one n=64 steep eps 0.2 SG step from t = 0. Its four stage solves take
    # 5/4/5/3 sweeps, each sweep one determinant (rfft2) of one Hessian
    # (3-stack irfft2), the converged iterate neither; four advection
    # rates take 2 gradients (2-stack irfft2) and one rfft2 each; the CFL
    # speed is a 2-stack irfft2; the increment and the new potential one
    # irfft2 each; the state's potential half-spectrum one rfft2
    from collections import Counter
    from sglab import elliptic, spectral, transport

    calls, sweeps = [], []

    def counting(fn):
        def wrapper(a):
            calls.append((fn.__name__, a.shape))
            return fn(a)
        return wrapper

    kernels = (spectral.rfft2, spectral.irfft2)
    for module in (spectral, elliptic, transport):
        for fn in kernels:
            monkeypatch.setattr(module, fn.__name__, counting(fn))
    picard = transport._picard

    def sweeping(*a, **k):
        out = picard(*a, **k)
        sweeps.append(out[-1])
        return out

    monkeypatch.setattr(transport, "_picard", sweeping)
    state = _initial_state(RunConfig(n=64, model="SGeps", eps=0.2, initial_data="steep",
                                     t_final=1.0))
    calls.clear()
    sweeps.clear()
    step_rk4(state, cfl_limit(state))
    assert sweeps == [5, 4, 5, 3]
    assert Counter(calls) == {("rfft2", (64, 64)): 17 + 4 + 1,
                              ("irfft2", (3, 64, 33)): 17,
                              ("irfft2", (2, 64, 33)): 8 + 1,
                              ("irfft2", (64, 33)): 2}


def test_final_time_not_on_lattice():
    cfg = RunConfig(n=32, model="Euler", t_final=0.25, sample_interval=0.1)
    t = run_simulation(cfg)
    assert t.times == pytest.approx([0.0, 0.1, 0.2, 0.25], abs=0)


def test_gronwall_integral_matches_per_sample_trapezoid():
    # 20 segments: numpy's trapezoid sums pairwise from 8 terms on, the
    # cumulative rule in order; with positive terms each sum is within
    # 20 roundings (20 * 2^-53 < 1e-14 relative) of the exact one
    rng = np.random.default_rng(5)
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 0.1, 20))])
    a = np.concatenate([[0.0], np.cumsum(rng.uniform(0.0, 0.5, 20))])
    source = rng.uniform(0.0, 2.0, 21)
    expect = [np.trapezoid(np.exp(a[i] - a[: i + 1]) * source[: i + 1], times[: i + 1])
              for i in range(21)]
    got = gronwall_integral(a, source, times)
    assert got == pytest.approx(expect, rel=1e-14, abs=0)
    # no growth and a unit source integrate to the elapsed time
    assert gronwall_integral(np.zeros(21), np.ones(21), times) == pytest.approx(times, rel=1e-14)


def test_l2_conserved_default_run():
    cfg = RunConfig(n=128, model="Euler", t_final=1.0)
    t = run_simulation(cfg)
    l2 = [d.l2_rho for d in t.diagnostics]
    rel = abs(l2[-1] - l2[0]) / l2[0]
    assert rel <= 1e-6


def test_immediate_bootstrap_exit():
    # steep preset with eps = 0.3 starts outside the gradient margin
    cfg = RunConfig(
        n=32, model="SGeps", eps=0.3, t_final=0.5, initial_data="steep",
        stop_on_exit=True,
    )
    t = run_simulation(cfg)
    assert t.exit_reason == "bootstrap_exit"
    assert t.exit_time == 0.0
    assert len(t.states) == 1


def test_divergence_at_t0_ends_the_run():
    # ||D^2 psi||_Linf of the Poisson seed is 1, so eps = 0.6 trips the
    # divergence guard in the t = 0 solve; the run ends there, not by raising
    t = run_simulation(RunConfig(n=32, model="SGeps", eps=0.6, initial_data="default"))
    assert (t.exit_reason, t.exit_time) == ("elliptic_divergence", 0.0)
    assert t.states == t.times == t.diagnostics == t.dt_history == []
    assert t.grid == TorusGrid(32)


def test_corrector_state_shape():
    cfg = RunConfig(n=32, model="Corrector", t_final=0.2, sample_interval=0.1)
    t = run_simulation(cfg)
    assert t.exit_reason is None
    final = t.states[-1]
    assert final.model == "Corrector"
    assert final.background is not None
    assert final.background.time == final.time
    # rho1 starts at zero and is excited by the background determinant
    assert norm(t.states[0].rho, NormKind.L2) == 0.0
    assert norm(final.rho, NormKind.L2) > 1e-4


def test_corrector_background_is_the_euler_run():
    # both step d_t rho + u . grad rho = 0 with the same dt sequence through
    # the same stage algebra, so they agree bit for bit
    base = dict(n=64, initial_data="default", t_final=0.5)
    euler = run_simulation(RunConfig(model="Euler", **base))
    corr = run_simulation(RunConfig(model="Corrector", eps=0.02, **base))
    assert corr.times == euler.times and corr.dt_history == euler.dt_history
    for s_c, s_e in zip(corr.states, euler.states, strict=True):
        assert np.array_equal(s_c.background.rho.values, s_e.rho.values)
        assert np.array_equal(s_c.background.potential.values, s_e.potential.values)


def test_corrector_elliptic_identity():
    # with rho_t = rhobar + eps rho1 and psi_t = phibar + eps phi1:
    #   lap psi_t - rho_t + eps det D^2 psi_t
    #     = eps^2 (cof D^2 phibar):D^2 phi1 + eps^3 det D^2 phi1
    # exactly, for every eps (quadratic algebra, no analysis involved)
    from sglab.spectral import derivative

    cfg = RunConfig(n=64, model="Corrector", t_final=0.2, sample_interval=0.1)
    t = run_simulation(cfg)
    final = t.states[-1]
    phibar, phi1 = final.background.potential, final.potential
    rhobar, rho1 = final.background.rho, final.rho
    for eps in (0.1, 0.02):
        psi_t = phibar + eps * phi1
        rho_t = rhobar + eps * rho1
        lap = derivative(psi_t, (2, 0)) + derivative(psi_t, (0, 2))
        lhs = lap - rho_t + eps * hessian_det(psi_t)
        rhs_f = (eps ** 2) * cofactor_contract(phibar, phi1) + (
            eps ** 3
        ) * hessian_det(phi1)
        scale = max(norm(lhs, NormKind.L2), 1e-30)
        assert norm(lhs - rhs_f, NormKind.L2) <= 1e-10 * max(scale, 1.0)


def test_corrector_transport_defect_scales_quadratically():
    # the corrected pair transports rho_t with defect exactly
    # eps^2 * u1 . grad rho1; verify the eps^2 scaling of its L2 norm
    cfg = RunConfig(n=64, model="Corrector", t_final=0.2, sample_interval=0.1)
    t = run_simulation(cfg)
    final = t.states[-1]
    defect = reference_advection(final.potential, final.rho)  # u1 . grad rho1
    base = norm(defect, NormKind.L2)
    for eps in (0.1, 0.01):
        assert eps ** 2 * base == pytest.approx(
            norm((eps ** 2) * defect, NormKind.L2), rel=1e-12
        )
    assert base > 0


# --- passive scalar helper -------------------------------------------------

def test_advect_scalar_constant_forcing_zero_velocity():
    g = TorusGrid(32)
    zero_pot = ScalarField.zeros(g)
    f = field_from(g, lambda x, y: np.sin(TWO_PI * y))
    sigma0 = field_from(g, lambda x, y: np.cos(TWO_PI * x))
    T = 0.7
    out = advect_scalar(
        sigma0, lambda t: zero_pot, 0.0, T, dt=0.1, forcing_at=lambda t: f
    )
    expect = sigma0 + T * f
    assert norm(out - expect, NormKind.L2) <= 1e-13


def test_field_series_interpolator_cubic_exact():
    # potentials cubic in t times one field: the 4-point Lagrange stencil
    # of TrajectoryVelocity reproduces the velocity to roundoff
    g = TorusGrid(32)
    base = field_from(
        g, lambda x, y: np.cos(TWO_PI * x) * np.sin(TWO_PI * y))
    bx, by = (u.values for u in perp_gradient(base))
    times = [0.0, 0.1, 0.2, 0.3, 0.4]

    def coef(t):
        return 1.0 - 2 * t + 3 * t ** 2 - 4 * t ** 3

    zero = ScalarField.zeros(g)
    states = [SimState(t, "Euler", 0.0, zero, coef(t) * base) for t in times]
    traj = Trajectory(model="Euler", eps=0.0, grid=g, m0=0.0,
                      states=states, times=list(times))
    vel = TrajectoryVelocity(traj)
    for t in (0.0, 0.05, 0.17, 0.33, 0.4):
        ux, uy = vel.pair(t)
        assert np.max(np.abs(ux - coef(t) * bx)) <= 1e-12
        assert np.max(np.abs(uy - coef(t) * by)) <= 1e-12
    for t in (-0.01, 0.41):
        with pytest.raises(ValueError):
            vel.pair(t)
