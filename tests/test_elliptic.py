"""Elliptic solver and determinant algebra tests.

Closed forms used below, all derivable by elementary trig:

  psi = cos(2 pi x) cos(2 pi y)
    det D^2 psi = 8 pi^4 (cos 4 pi x + cos 4 pi y)
    ||D^2 psi||_L2 (Frobenius)  = 4 pi^2
    ||det D^2 psi||_{H^-1}      = 2 pi^3
    ||D^2 psi||_Linf (operator) = 4 pi^2
  and with rho1 = 0 the corrector potential solving
    lap phi1 = -det D^2 psi
  is phi1 = (pi^2 / 2)(cos 4 pi x + cos 4 pi y).
"""

import numpy as np
import pytest
from conftest import field_from

from sglab.spectral import (
    MeanViolationError,
    NormKind,
    ScalarField,
    TorusGrid,
    derivative,
    inv_laplacian,
    norm,
)
from sglab.elliptic import (
    EllipticConvergenceError,
    EllipticDivergenceError,
    _hessian_values,
    bootstrap_status,
    cofactor_contract,
    det_expansion_residual,
    hessian_det,
    hessian_l2,
    hessian_linf,
    solve_corrector_potential,
    solve_sg_potential,
)

TWO_PI = 2 * np.pi


def reference_sg_solve(rho, eps, tol=1e-12, max_iter=100):
    """The Picard loop on ScalarField operations, as solve_sg_potential
    ran before its half-spectrum kernel: the reference the kernel must
    reproduce. Returns (psi, iterations, residual, hessian_linf)."""
    psi = inv_laplacian(rho)
    h1 = NormKind.Hs(1.0)
    for sweep in range(1, max_iter + 1):
        hlinf = hessian_linf(psi)
        det = hessian_det(psi)
        rhs = ScalarField(rho.grid, np.real(np.fft.ifft2(
            np.fft.fft2(rho.values) - eps * np.fft.fft2(det.values))))
        psi_next = inv_laplacian(rhs)
        update = norm(psi_next - psi, h1)
        scale = max(norm(psi_next, h1), 1e-14)
        psi = psi_next
        if update / scale <= tol:
            lap = derivative(psi, (2, 0)) + derivative(psi, (0, 2))
            resid = norm(lap - rho + eps * hessian_det(psi), NormKind.L2)
            return psi, sweep, resid, hessian_linf(psi)
        if eps * hlinf > 0.5:
            raise EllipticDivergenceError(f"eps*||D^2 psi||_Linf = {eps * hlinf:.3e}")
    raise EllipticConvergenceError(f"no convergence within {max_iter} sweeps")


def trig_field(grid, p, q, amp=1.0, phase=0.0):
    return field_from(
        grid, lambda x, y: amp * np.cos(TWO_PI * (p * x + q * y) + phase)
    )


@pytest.fixture(scope="module")
def grid():
    return TorusGrid(64)


@pytest.fixture(scope="module")
def checker(grid):
    return field_from(
        grid, lambda x, y: np.cos(TWO_PI * x) * np.cos(TWO_PI * y)
    )


def test_hessian_against_trig_oracle(grid):
    # psi = cos(2 pi (2x + y)): D^2 = -(2 pi)^2 [[4, 2], [2, 1]] psi
    psi = trig_field(grid, 2, 1)
    pxx, pxy, pyy = _hessian_values(psi)
    assert np.allclose(pxx, -TWO_PI ** 2 * 4 * psi.values, atol=1e-9)
    assert np.allclose(pxy, -TWO_PI ** 2 * 2 * psi.values, atol=1e-9)
    assert np.allclose(pyy, -TWO_PI ** 2 * 1 * psi.values, atol=1e-9)


def test_hessian_det_closed_form(checker, grid):
    det = hessian_det(checker)
    expect = field_from(
        grid,
        lambda x, y: 8 * np.pi ** 4 * (np.cos(2 * TWO_PI * x) + np.cos(2 * TWO_PI * y)),
    )
    rel = norm(det - expect, NormKind.L2) / norm(expect, NormKind.L2)
    assert rel < 1e-12


def test_hessian_det_mean_tiny(grid):
    # band-limited input (the documented precondition; solver iterates
    # satisfy it automatically because every product is dealiased)
    from sglab.spectral import dealias

    rng = np.random.default_rng(5)
    vals = rng.standard_normal((64, 64))
    vals -= vals.mean()
    psi = dealias(ScalarField(grid, vals))
    det = hessian_det(psi)
    assert abs(det.mean()) <= 1e-10 * hessian_l2(psi) ** 2


def test_hessian_norms_closed_form(checker):
    assert hessian_l2(checker) == pytest.approx(4 * np.pi ** 2, rel=1e-12)
    assert hessian_linf(checker) == pytest.approx(4 * np.pi ** 2, rel=1e-10)


def test_wente_ratio_closed_form(checker):
    det = hessian_det(checker)
    ratio = norm(det, NormKind.Hminus1) / hessian_l2(checker) ** 2
    assert ratio == pytest.approx(1.0 / (8 * np.pi), abs=1e-12)


def test_cofactor_contract_symmetry(grid):
    rng = np.random.default_rng(9)
    a = ScalarField(grid, rng.standard_normal((64, 64)))
    b = ScalarField(grid, rng.standard_normal((64, 64)))
    ab = cofactor_contract(a, b)
    ba = cofactor_contract(b, a)
    assert np.allclose(ab.values, ba.values, atol=1e-8 * hessian_l2(a) * hessian_l2(b))


def test_det_expansion_residual_is_roundoff(grid):
    rng = np.random.default_rng(13)
    pa = rng.standard_normal((64, 64))
    pb = rng.standard_normal((64, 64))
    phi = ScalarField(grid, pa - pa.mean())
    eta = ScalarField(grid, pb - pb.mean())
    scale = (hessian_l2(phi) + hessian_l2(eta)) ** 2
    assert det_expansion_residual(phi, eta, 0.3) <= 1e-10 * scale


def test_solve_poisson_limit(grid):
    rho = trig_field(grid, 1, 0)
    psi, report = solve_sg_potential(rho, eps=0.0)
    assert report.iterations == 1
    assert report.converged
    expect = -1.0 / TWO_PI ** 2
    assert psi.values[0, 0] == pytest.approx(expect, rel=1e-12)


def test_solve_one_dimensional_data_matches_poisson(grid):
    # data varying only in y has identically zero Hessian determinant, so
    # the nonlinear correction vanishes for every eps
    rho = field_from(grid, lambda x, y: np.cos(TWO_PI * y))
    base, _ = solve_sg_potential(rho, eps=0.0)
    for eps in (0.01, 0.05, 0.1):
        psi, report = solve_sg_potential(rho, eps=eps)
        gap = norm(psi - base, NormKind.Hs(1.0)) / norm(base, NormKind.Hs(1.0))
        assert gap < 1e-12
        assert report.iterations == 1


def test_solve_default_datum_residual():
    g = TorusGrid(128)
    rho = field_from(
        g,
        lambda x, y: np.cos(TWO_PI * x) * np.cos(TWO_PI * y)
        + 0.5 * np.cos(2 * TWO_PI * y),
    )
    psi, report = solve_sg_potential(rho, eps=0.01)
    assert report.converged
    assert report.iterations <= 15
    assert report.residual <= 1e-10


def test_solve_divergence_guard(grid):
    rho = field_from(
        grid, lambda x, y: np.cos(TWO_PI * x) * np.cos(TWO_PI * y)
    )
    # Poisson solution has ||D^2 psi||_Linf = 1/2, so eps = 1.5 puts the
    # seed outside the contraction region immediately
    with pytest.raises(EllipticDivergenceError):
        solve_sg_potential(rho, eps=1.5)


def test_corrector_potential_closed_form(checker, grid):
    rho1 = ScalarField.zeros(grid)
    phi1 = solve_corrector_potential(rho1, checker)
    expect = field_from(
        grid,
        lambda x, y: (np.pi ** 2 / 2)
        * (np.cos(2 * TWO_PI * x) + np.cos(2 * TWO_PI * y)),
    )
    rel = norm(phi1 - expect, NormKind.L2) / norm(expect, NormKind.L2)
    assert rel < 1e-12


def test_bootstrap_margin_threshold(grid):
    rho = trig_field(grid, 1, 0)
    psi, _ = solve_sg_potential(rho, eps=0.0)
    eps = 1.0 / (8 * np.pi)  # makes eps * ||grad rho||_Linf exactly 1/4
    status = bootstrap_status(rho, psi, eps=eps)
    assert status.grad_margin == pytest.approx(0.0, abs=1e-12)
    assert not status.inside


def test_bootstrap_inside_for_small_eps(grid):
    rho = trig_field(grid, 1, 0)
    psi, _ = solve_sg_potential(rho, eps=0.01)
    status = bootstrap_status(rho, psi, eps=0.01)
    assert status.inside
    assert status.grad_margin > 0.1
    assert status.hessian_margin > 0.2
    assert status.log_estimate_ratio > 0


def test_bootstrap_log_ratio_single_mode(grid):
    # rho = cos(2 pi x): psi = -rho/(4 pi^2), ||D^2 psi||_Linf = 1,
    # m0 = 1, and the Calpha norm exceeds 1, so the ratio is
    # 1 / (1 + log ||rho||_Calpha) < 1.
    rho = trig_field(grid, 1, 0)
    psi, _ = solve_sg_potential(rho, eps=0.0)
    status = bootstrap_status(rho, psi, eps=0.0)
    calpha = norm(rho, NormKind.Calpha)
    expect = 1.0 / (1.0 + np.log(calpha))
    assert status.log_estimate_ratio == pytest.approx(expect, rel=1e-10)


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("preset", ["default", "steep"])
@pytest.mark.parametrize("eps", [0.0, 0.05, 0.2])
def test_solve_matches_scalarfield_reference(n, preset, eps):
    from sglab.transport import initial_data_field

    rho = initial_data_field(TorusGrid(n), preset)
    ref_psi, ref_iters, ref_resid, ref_hlinf = reference_sg_solve(rho, eps)
    psi, report = solve_sg_potential(rho, eps)
    h1 = NormKind.Hs(1.0)
    assert report.iterations == ref_iters
    assert norm(psi - ref_psi, h1) <= 1e-13 * norm(ref_psi, h1)
    # the residual is roundoff-sized, so it is compared on the scale of rho
    assert abs(report.residual - ref_resid) <= 1e-13 * norm(rho, NormKind.L2)
    assert abs(report.hessian_linf - ref_hlinf) <= 1e-13 * ref_hlinf


def test_solve_rejects_nonzero_mean(grid):
    rho = field_from(grid, lambda x, y: np.cos(TWO_PI * x) + 0.1)
    with pytest.raises(MeanViolationError):
        solve_sg_potential(rho, eps=0.05)


def test_solve_sweep_cap(grid):
    rho = field_from(
        grid, lambda x, y: np.cos(TWO_PI * x) * np.cos(TWO_PI * y)
        + 0.5 * np.cos(2 * TWO_PI * y))
    with pytest.raises(EllipticConvergenceError):
        solve_sg_potential(rho, eps=0.05, max_iter=1)


def test_solve_nonfinite_hessian_is_value_error():
    # ||D^2 psi||_Linf ~ 1e160 overflows once squared; eps keeps the
    # divergence guard quiet, so the finiteness check is what fires
    g = TorusGrid(32)
    rho = field_from(
        g, lambda x, y: 1e160 * np.cos(TWO_PI * x) * np.cos(TWO_PI * y))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError):
        solve_sg_potential(rho, eps=1e-200)


def test_picard_forms_no_hessian_or_residual_after_convergence(monkeypatch):
    # the start's Hessian and one per sweep but the last; one determinant
    # per sweep and none for a residual. solve_sg_potential forms the
    # converged iterate's Hessian and residual determinant once, for its
    # report
    from sglab import elliptic
    from sglab.transport import initial_data_field

    calls = []
    for name in ("_hessian_half", "_det_half"):
        def counting(*a, _fn=getattr(elliptic, name), _name=name):
            calls.append(_name)
            return _fn(*a)
        monkeypatch.setattr(elliptic, name, counting)
    rho = initial_data_field(TorusGrid(64), "steep")
    psi_hat, sweeps = elliptic._picard(rho.hat, 0.2)
    assert sweeps >= 3
    assert calls.count("_hessian_half") == calls.count("_det_half") == sweeps
    calls.clear()
    psi, report = solve_sg_potential(rho, 0.2)
    assert report.iterations == sweeps
    assert np.array_equal(psi.values, np.fft.irfft2(psi_hat))
    assert calls.count("_hessian_half") == calls.count("_det_half") == sweeps + 1
