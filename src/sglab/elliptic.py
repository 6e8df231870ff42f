"""Elliptic solvers and Hessian determinant algebra.

The SG potential solves a Poisson equation with a Monge-Ampere
perturbation,

    lap psi = rho - eps * det(D^2 psi),    <psi> = 0,

handled by Picard iteration: each sweep inverts the Laplacian with the
determinant frozen at the previous iterate. The map contracts while
eps * ||D^2 psi||_Linf stays below 1/2, which the bootstrap regime
(margin against 1/4) guarantees with room to spare.

The sweeps run on rfft2 half-spectra with the cached multipliers of
`spectral.kernel(n)` (rows p = -n/2..n/2-1 in fftfreq order, columns
q = 0..n/2), through the two-stage `spectral.rfft2`/`irfft2`. Each
sweep that does not converge forms the Hessian of its new iterate once,
as one batched irfft2 of three components; that Hessian feeds the next
sweep's sup-norm guard and its determinant (one masked rfft2). A
converged iterate is returned as it is: only `solve_sg_potential` forms
its Hessian, residual and Hessian sup norm, for its report. Update and
scale norms are read from the coefficients.
ScalarField stays the type at the public boundary; the public Hessian
functions form the Hessian of its cached half-spectrum the same way.
The RK4 stages of `transport.step_rk4` call the same sweeps, each
stage's solve starting from the previous solve's potential plus the
Poisson response lap^-1 of the change in density.

Matrix norm conventions, used consistently everywhere:
  - pointwise Linf of a Hessian: symmetric 2x2 operator norm
    (largest absolute eigenvalue), maximized over the grid;
  - L2 of a Hessian: Frobenius norm with the off-diagonal counted
    twice, so ||D^2 psi||_L2 equals ||lap psi||_L2 exactly on the
    torus (integration by parts is exact mode by mode).

All quadratic products are formed pointwise and 2/3-dealiased, which
keeps them alias-free for band-limited inputs.
"""

from dataclasses import dataclass

import numpy as np

from .spectral import (
    ScalarField,
    NormKind,
    SpectralKernel,
    _require_mean_zero,
    irfft2,
    kernel,
    norm,
    rfft2,
)

__all__ = [
    "EllipticDivergenceError",
    "EllipticConvergenceError",
    "MASolveReport",
    "BootstrapStatus",
    "hessian_det",
    "cofactor_contract",
    "det_expansion_residual",
    "hessian_linf",
    "hessian_l2",
    "solve_sg_potential",
    "solve_corrector_potential",
    "bootstrap_status",
]

class EllipticDivergenceError(RuntimeError):
    """Picard iteration left its contraction region (eps * ||D^2 psi|| > 1/2)."""


class EllipticConvergenceError(RuntimeError):
    """Picard iteration failed to meet tolerance within max_iter sweeps."""


@dataclass(frozen=True)
class MASolveReport:
    """Solver diagnostics: sweeps used, final residual, Hessian size."""

    iterations: int
    residual: float
    hessian_linf: float
    converged: bool


@dataclass(frozen=True)
class BootstrapStatus:
    """Snapshot of the regime margins at one time.

    grad_margin    = 1/4 - eps * ||grad rho||_Linf
    hessian_margin = 1/4 - eps * ||D^2 psi||_Linf
    inside         = both margins strictly positive
    log_estimate_ratio compares ||D^2 psi||_Linf against the
    log-endpoint bound  m0 * (1 + log+ (||rho||_Calpha / m0)).
    """

    grad_margin: float
    hessian_margin: float
    log_estimate_ratio: float
    inside: bool


def hessian_det(psi: ScalarField) -> ScalarField:
    """det D^2 psi = psi_xx psi_yy - psi_xy^2, dealiased.

    The result has numerically zero mean: the determinant is a sum of
    perfect mixed derivatives, so its integral over the torus vanishes.
    """
    k = kernel(psi.grid.n)
    return ScalarField(psi.grid, irfft2(_det_half(k, _hessian_half(k, psi.hat))))


def cofactor_contract(phi: ScalarField, eta: ScalarField) -> ScalarField:
    """(cof D^2 phi) : D^2 eta = phi_yy eta_xx - 2 phi_xy eta_xy + phi_xx eta_yy."""
    axx, axy, ayy = _hessian_values(phi)
    bxx, bxy, byy = _hessian_values(eta)
    out = ayy * bxx - 2.0 * (axy * bxy) + axx * byy
    return ScalarField(phi.grid, irfft2(rfft2(out), kernel(phi.grid.n).mask_half))


def det_expansion_residual(phi: ScalarField, eta: ScalarField, eps: float) -> float:
    """L2 norm of det D^2(phi + eps eta) minus its exact quadratic expansion.

    det is quadratic, so
        det D^2(phi + eps eta)
          = det D^2 phi + eps (cof D^2 phi):D^2 eta + eps^2 det D^2 eta
    holds identically; the residual is pure floating-point noise and a
    sharp canary for inconsistent dealiasing between the two sides.
    """
    combined = hessian_det(phi + eps * eta)
    expanded = (
        hessian_det(phi)
        + eps * cofactor_contract(phi, eta)
        + (eps * eps) * hessian_det(eta)
    )
    return norm(combined - expanded, NormKind.L2)


def _hessian_operator_linf(pxx, pxy, pyy) -> float:
    # largest |eigenvalue| of a symmetric 2x2 field (value arrays),
    # maximized over the grid
    half_tr = 0.5 * (pxx + pyy)
    disc = np.sqrt((0.5 * (pxx - pyy)) ** 2 + pxy ** 2)
    return float(np.max(np.abs(half_tr) + disc))


def _hessian_frobenius_l2(pxx, pxy, pyy) -> float:
    sq = pxx ** 2 + 2.0 * pxy ** 2 + pyy ** 2
    return float(np.sqrt(np.mean(sq)))


def _hessian_values(psi: ScalarField) -> np.ndarray:
    """Stacked (psi_xx, psi_xy, psi_yy) values from one batched irfft2."""
    return _hessian_half(kernel(psi.grid.n), psi.hat)


def hessian_linf(psi: ScalarField) -> float:
    """Pointwise operator norm of D^2 psi, maximized over the grid."""
    return _hessian_operator_linf(*_hessian_values(psi))


def hessian_l2(psi: ScalarField) -> float:
    """Frobenius L2 norm of D^2 psi (equals ||lap psi||_L2 on the torus)."""
    return _hessian_frobenius_l2(*_hessian_values(psi))


def _hessian_half(k: SpectralKernel, psi_hat: np.ndarray, out=None) -> np.ndarray:
    """Real-space (psi_xx, psi_xy, psi_yy), stacked, from a half-spectrum;
    written into out when given."""
    return irfft2(psi_hat, k.hess, out=out)


def _det_half(k: SpectralKernel, hess: np.ndarray) -> np.ndarray:
    """Dealiased half-spectrum of det D^2 psi from its real-space Hessian."""
    pxx, pxy, pyy = hess
    return k.mask_half * rfft2(pxx * pyy - pxy * pxy)


def _picard(rho_hat: np.ndarray, eps: float, tol: float = 1e-12,
            max_iter: int = 100, start=None):
    """The Picard sweeps of `solve_sg_potential` on rfft2 half-spectra.

    start is None (seed with the Poisson solution) or a potential
    half-spectrum guess, e.g. `transport._equations`'s Poisson predictor.
    Each sweep that does not converge forms the Hessian of its new
    iterate once, for the next sweep's sup-norm guard and determinant,
    over the previous one: a solve holds one Hessian array.
    Returns (psi_hat, sweeps) at the first sweep whose relative update is
    at most tol, without forming that iterate's Hessian or residual.
    """
    k = kernel(rho_hat.shape[0])
    k.require_mean_zero(rho_hat)
    psi_hat = k.inv_lap_half * rho_hat if start is None else start
    hess = _hessian_half(k, psi_hat)
    for sweep in range(1, max_iter + 1):
        hlinf = _hessian_operator_linf(*hess)
        if not np.isfinite(hlinf):
            raise ValueError("field values must be finite")
        rhs = rho_hat - eps * _det_half(k, hess)
        k.require_mean_zero(rhs)
        psi_next = k.inv_lap_half * rhs
        update = k.hs(psi_next - psi_hat, 1.0)
        scale = max(k.hs(psi_next, 1.0), 1e-14)
        psi_hat = psi_next
        if update / scale <= tol:
            return psi_hat, sweep
        if eps * hlinf > 0.5:
            raise EllipticDivergenceError(
                f"eps*||D^2 psi||_Linf = {eps * hlinf:.3e} > 1/2 at sweep {sweep}"
            )
        _hessian_half(k, psi_hat, hess)
    raise EllipticConvergenceError(
        f"no convergence to tol={tol:g} within {max_iter} sweeps"
    )


def solve_sg_potential(
    rho: ScalarField,
    eps: float,
    tol: float = 1e-12,
    max_iter: int = 100,
) -> tuple[ScalarField, MASolveReport]:
    """Solve lap psi = rho - eps det D^2 psi with <psi> = 0.

    Picard sweeps psi <- lap^-1(rho - eps det D^2 psi_prev), seeded with
    the Poisson solution. Stops when the relative H1 update drops below
    tol; the report's residual and Hessian sup norm are those of the
    returned potential. eps = 0 returns the plain Poisson solution after
    one sweep, and so does any rho whose potential has identically zero
    determinant (e.g. data varying in only one direction).

    Raises MeanViolationError when rho (or a sweep's right-hand side)
    does not have zero mean, ValueError when the Hessian of an iterate
    is not finite, EllipticDivergenceError when eps * ||D^2 psi||
    exceeds 1/2 while the sweep update is still above tol (outside the
    contraction regime with work left to do; a converged sweep never
    trips it, so large-Hessian data with vanishing determinant still
    solve exactly) and EllipticConvergenceError when max_iter sweeps do
    not reach tol.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    psi_hat, sweeps = _picard(rho.hat, eps, tol, max_iter)
    k = kernel(rho.grid.n)
    hess = _hessian_half(k, psi_hat)
    return ScalarField(rho.grid, irfft2(psi_hat)), MASolveReport(
        iterations=sweeps,
        residual=k.l2(k.lap * psi_hat - rho.hat + eps * _det_half(k, hess)),
        hessian_linf=_hessian_operator_linf(*hess),
        converged=True,
    )


def solve_corrector_potential(
    rho1: ScalarField, phibar: ScalarField
) -> ScalarField:
    """First-order potential: lap phi1 = rho1 - det D^2 phibar, <phi1> = 0."""
    k = kernel(rho1.grid.n)
    rhs = rho1.hat - _det_half(k, _hessian_half(k, phibar.hat))
    _require_mean_zero(irfft2(rhs))
    return ScalarField(rho1.grid, irfft2(rhs, k.inv_lap_half))


def bootstrap_status(
    rho: ScalarField,
    psi: ScalarField,
    eps: float,
    m0: float | None = None,
) -> BootstrapStatus:
    """Evaluate the regime margins for a (rho, psi) pair.

    m0 defaults to ||rho||_Linf of the supplied field; callers tracking a
    trajectory should pass the initial value, which transport conserves.
    """
    return _bootstrap_margins(rho, hessian_linf(psi), norm(rho, NormKind.GradLinf),
                              norm(rho, NormKind.Calpha), eps, m0)


def _potential_norms(rho, psi, eps, m0, grad_linf, calpha):
    """(||D^2 psi||_Linf, ||D^2 psi||_L2, bootstrap_status(rho, psi, eps,
    m0=m0)) from one Hessian, for a density whose ||grad rho||_Linf is
    grad_linf and whose ||rho||_Calpha is calpha, each equal to the
    separate call bit for bit."""
    hess = _hessian_values(psi)
    hlinf = _hessian_operator_linf(*hess)
    return (hlinf, _hessian_frobenius_l2(*hess),
            _bootstrap_margins(rho, hlinf, grad_linf, calpha, eps, m0))


def _bootstrap_margins(rho, hlinf, grad_linf, calpha, eps, m0) -> BootstrapStatus:
    """`bootstrap_status` for a potential whose ||D^2 psi||_Linf is hlinf
    and a density whose ||grad rho||_Linf is grad_linf and whose
    ||rho||_Calpha is calpha."""
    if m0 is None:
        m0 = norm(rho, NormKind.Linf)
    grad_margin = 0.25 - eps * grad_linf
    hessian_margin = 0.25 - eps * hlinf
    if m0 <= 0:
        ratio = np.inf if hlinf > 0 else 0.0
    else:
        logplus = max(0.0, np.log(calpha / m0)) if calpha > 0 else 0.0
        ratio = hlinf / (m0 * (1.0 + logplus))
    return BootstrapStatus(
        grad_margin=float(grad_margin),
        hessian_margin=float(hessian_margin),
        log_estimate_ratio=float(ratio),
        inside=bool(grad_margin > 0 and hessian_margin > 0),
    )
