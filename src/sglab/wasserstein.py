"""Quadratic optimal transport between lattice densities on the torus.

Densities are atom collections on a regular m x m lattice (points j/m),
produced by sampling physical densities 1 + eps*rho and normalizing.
Two solvers:

* w2_sinkhorn: debiased entropic transport in the log domain. The
  squared torus cost splits per axis, so each Sinkhorn half-step is a
  pair of logsumexp contractions over one axis at a time (m^3 work
  instead of m^4). Regularization is annealed from a coarse value down
  to the target, warm-starting the potentials, which keeps the
  iteration count at strong regularization levels. The debiased value
  is OT(a,b) - (OT(a,a) + OT(b,b))/2 with all three terms computed by
  the same code path, so bitwise-equal inputs give exactly zero.

* w2_exact_small: the linear program on the full product space, for
  cross-checking the entropic solver on problems up to 16 x 16.

Atoms are placed at block starts when downsampling; both densities in
any comparison get the same convention, so the common half-block shift
cancels from transport distances.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog
from scipy.special import logsumexp

from .spectral import ScalarField, perp_gradient
from .transport import Trajectory

__all__ = [
    "DensityOnTorus",
    "OTResult",
    "W2ConvergenceError",
    "W2GronwallSeries",
    "physical_density",
    "downsample",
    "torus_cost",
    "w2_sinkhorn",
    "w2_exact_small",
    "gronwall_w2_bound",
]

MAX_COST_ENTRIES = 2 ** 26
SINKHORN_SIDE_LIMIT = 64
EXACT_SIDE_LIMIT = 16


class W2ConvergenceError(RuntimeError):
    """Sinkhorn hit its iteration cap before the marginal tolerance."""

    def __init__(self, message, marginal_error):
        super().__init__(message)
        self.marginal_error = marginal_error


@dataclass(frozen=True)
class DensityOnTorus:
    """Probability weights on the m x m lattice of points j/m."""

    m: int
    weights: np.ndarray

    def __post_init__(self):
        w = self.weights
        if w.shape != (self.m, self.m):
            raise ValueError(f"weights shape {w.shape} != ({self.m}, {self.m})")
        if not np.all(np.isfinite(w)) or np.min(w) < 0:
            raise ValueError("weights must be finite and nonnegative")
        total = float(np.sum(w))
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total}, not 1")


@dataclass(frozen=True)
class OTResult:
    """Transport distance plus solver provenance.

    marginal_error is the L1 marginal violation of the computed plan;
    values at or below 1e-8 are considered converged.
    """

    distance: float
    method: str
    reg: float
    iterations: int
    marginal_error: float


def physical_density(rho: ScalarField, eps: float) -> DensityOnTorus:
    """Normalized samples of the physical density 1 + eps*rho.

    Raises if 1 + eps*rho dips below zero anywhere: a negative mass
    density means the perturbation left the admissible regime, and
    clamping would silently change the measure being compared.
    """
    vals = 1.0 + eps * rho.values
    if float(np.min(vals)) < 0.0:
        raise ValueError(
            f"1 + eps*rho reaches {float(np.min(vals)):.3e} < 0; "
            "density is not a measure"
        )
    return DensityOnTorus(m=rho.grid.n, weights=vals / float(np.sum(vals)))


def downsample(d: DensityOnTorus, m: int) -> DensityOnTorus:
    """Block-sum onto a coarser m x m lattice (m must divide d.m)."""
    if m < 1 or d.m % m != 0:
        raise ValueError(f"{m} does not divide {d.m}")
    p = d.m // m
    w = d.weights.reshape(m, p, m, p).sum(axis=(1, 3))
    return DensityOnTorus(m=m, weights=w / float(np.sum(w)))


def _axis_cost(ma: int, mb: int) -> np.ndarray:
    """Squared torus distance between the 1D lattices j/ma and k/mb."""
    xa = np.arange(ma) / ma
    xb = np.arange(mb) / mb
    d = np.abs(xa[:, None] - xb[None, :])
    return np.minimum(d, 1.0 - d) ** 2


def torus_cost(ma: int, mb: int) -> np.ndarray:
    """Full (ma^2, mb^2) squared torus distance matrix, row-major atoms."""
    if (ma * ma) * (mb * mb) > MAX_COST_ENTRIES:
        raise ValueError("cost matrix would exceed the entry budget")
    ca = _axis_cost(ma, mb)
    return (ca[:, None, :, None] + ca[None, :, None, :]).reshape(ma * ma, mb * mb)


def _half_update(pot_other, logw_other, cxa, cxb, reg):
    """One log-domain Sinkhorn half-step via per-axis contractions.

    Returns the updated potential on the first marginal's lattice:
    f[i,j] = -reg * LSE_{k,l}[(g[k,l] - cxa[i,k] - cxb[j,l])/reg + logw[k,l]].
    """
    A = pot_other / reg + logw_other
    # reduce over the first atom axis k: (i, k, l) -> (i, l)
    B = logsumexp(A[None, :, :] - cxa[:, :, None] / reg, axis=1)
    # reduce over the second atom axis l: (i, j, l) -> (i, j)
    T = logsumexp(B[:, None, :] - cxb[None, :, :] / reg, axis=2)
    return -reg * T


def _ot_reg(wa, wb, reg, tol, cap):
    """Entropic OT value between lattice weight arrays, log domain.

    Anneals the regularization from 0.25 down to reg with warm-started
    potentials, then polishes at reg until the L1 marginal violation of
    the implied plan drops to tol. Returns (value, iterations,
    marginal_error).
    """
    ma, mb = wa.shape[0], wb.shape[0]
    with np.errstate(divide="ignore"):
        la = np.log(wa)
        lb = np.log(wb)
    ca = _axis_cost(ma, mb)
    cb = ca  # both axes use identical 1D lattices, cost is shared

    f = np.zeros((ma, ma))
    g = np.zeros((mb, mb))

    stages = []
    r = 0.25
    while r > reg * 1.0000001:
        stages.append(r)
        r *= 0.5
    iterations = 0
    for r in stages:
        for _ in range(2):
            f = _half_update(g, lb, ca, cb, r)
            g = _half_update(f, la, ca.T, cb.T, r)
            iterations += 1

    err = np.inf
    while iterations < cap:
        f_new = _half_update(g, lb, ca, cb, reg)
        g = _half_update(f_new, la, ca.T, cb.T, reg)
        iterations += 1
        # row marginals of the implied plan are wa * exp((f - f_new)/reg)
        err = float(np.sum(wa * np.abs(np.exp((f - f_new) / reg) - 1.0)))
        f = f_new
        if err <= tol:
            break
    else:
        raise W2ConvergenceError(
            f"marginal error {err:.3e} after {iterations} iterations", err
        )
    # Report the full dual objective: the bare sum of potentials is only
    # first-order accurate in the marginal violation, while subtracting
    # reg * (total plan mass - 1) makes the value stationary at the fixed
    # point and hence second-order accurate.
    f_half = _half_update(g, lb, ca, cb, reg)
    total_mass = float(np.sum(wa * np.exp((f - f_half) / reg)))
    value = float(np.sum(f * wa) + np.sum(g * wb)) - reg * (total_mass - 1.0)
    return value, iterations, err


def w2_sinkhorn(a: DensityOnTorus, b: DensityOnTorus, reg: float = 5e-4,
                tol: float = 1e-9, cap: int = 100_000) -> OTResult:
    """Debiased entropic W2 between two lattice densities.

    Computes sqrt of OT_reg(a,b) - (OT_reg(a,a) + OT_reg(b,b))/2, all
    three terms by the same solver, so w2_sinkhorn(a, a) is exactly 0.
    """
    if a.m > SINKHORN_SIDE_LIMIT or b.m > SINKHORN_SIDE_LIMIT:
        raise ValueError(f"lattice side exceeds {SINKHORN_SIDE_LIMIT}")
    if reg <= 0:
        raise ValueError("reg must be positive")
    v_ab, it_ab, err_ab = _ot_reg(a.weights, b.weights, reg, tol, cap)
    v_aa, it_aa, err_aa = _ot_reg(a.weights, a.weights, reg, tol, cap)
    v_bb, it_bb, err_bb = _ot_reg(b.weights, b.weights, reg, tol, cap)
    s = v_ab - 0.5 * (v_aa + v_bb)
    return OTResult(
        distance=float(np.sqrt(max(s, 0.0))),
        method="sinkhorn",
        reg=reg,
        iterations=it_ab + it_aa + it_bb,
        marginal_error=max(err_ab, err_aa, err_bb),
    )


def _merge_thin_support(weights, cost_to_self, cut=1e-7):
    """Move mass of atoms below cut*max onto their nearest heavy atom.

    The LP solver misclassifies problems whose equality right-hand
    sides span many orders of magnitude, so thin atoms are merged into
    their nearest retained neighbor first. Mass is conserved exactly;
    the induced distance perturbation is bounded by the square root of
    the relocated mass times the squared torus diameter, and smooth
    near-uniform densities are returned untouched.
    """
    keep = weights > cut * float(np.max(weights))
    if np.all(keep):
        return weights, np.nonzero(keep)[0]
    idx_keep = np.nonzero(keep)[0]
    idx_drop = np.nonzero(~keep)[0]
    merged = weights[idx_keep].copy()
    hosts = np.argmin(cost_to_self[np.ix_(idx_drop, idx_keep)], axis=1)
    np.add.at(merged, hosts, weights[idx_drop])
    return merged, idx_keep


def w2_exact_small(a: DensityOnTorus, b: DensityOnTorus) -> OTResult:
    """Exact W2 via the transport linear program (lattices up to 16^2)."""
    if a.m > EXACT_SIDE_LIMIT or b.m > EXACT_SIDE_LIMIT:
        raise ValueError(f"lattice side exceeds {EXACT_SIDE_LIMIT}")
    cost = torus_cost(a.m, b.m)
    wa, ia = _merge_thin_support(a.weights.ravel(), torus_cost(a.m, a.m))
    wb, ib = _merge_thin_support(b.weights.ravel(), torus_cost(b.m, b.m))
    C = cost[np.ix_(ia, ib)]
    p, q = len(ia), len(ib)
    rows = sparse.kron(sparse.eye(p), np.ones((1, q)), format="csr")
    cols = sparse.kron(np.ones((1, p)), sparse.eye(q), format="csr")
    # drop the last column constraint: it is implied by the others
    A_eq = sparse.vstack([rows, cols[:-1]], format="csr")
    b_eq = np.concatenate([wa, wb[:-1]])
    res = linprog(C.ravel(), A_eq=A_eq, b_eq=b_eq, bounds=(0, None),
                  method="highs")
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    plan = np.zeros((a.m * a.m, b.m * b.m))
    plan[np.ix_(ia, ib)] = res.x.reshape(p, q)
    value = float(res.fun)
    err = float(np.sum(np.abs(plan.sum(axis=1) - a.weights.ravel()))
                + np.sum(np.abs(plan.sum(axis=0) - b.weights.ravel())))
    return OTResult(
        distance=float(np.sqrt(max(value, 0.0))),
        method="exact",
        reg=0.0,
        iterations=0,
        marginal_error=err,
    )


@dataclass
class W2GronwallSeries:
    """Integrated stability bound for W2(m_sg(t), m_euler(t))^2."""

    times: np.ndarray
    a_t: np.ndarray
    bound: np.ndarray


def gronwall_w2_bound(traj_sg: Trajectory, traj_euler: Trajectory) -> W2GronwallSeries:
    """Energy-style upper bound B(t) for the squared transport gap.

    B(t) = int_0^t exp(A(t) - A(s)) * G(s) ds with
    A(t) = int_0^t (1 + 2*||D^2 phi_euler||_inf), the Euler run's stored
    A_t, and G(s) = int |u_sg - u_euler|^2 (1 + eps*rho_sg) dx; both
    integrals use the trapezoid rule on the shared sample grid.
    """
    ta = np.asarray(traj_sg.times, dtype=float)
    tb = np.asarray(traj_euler.times, dtype=float)
    if traj_sg.grid.n != traj_euler.grid.n:
        raise ValueError("trajectories live on different grids")
    k = min(len(ta), len(tb))
    if k < 2 or not np.allclose(ta[:k], tb[:k], atol=1e-12):
        raise ValueError("trajectories do not share sample times")
    times = ta[:k]
    eps = traj_sg.eps

    gap2 = np.empty(k)
    for i in range(k):
        se = traj_euler.states[i]
        ss = traj_sg.states[i]
        ue = perp_gradient(se.potential)
        us = perp_gradient(ss.potential)
        dense = 1.0 + eps * ss.rho.values
        dx = us[0].values - ue[0].values
        dy = us[1].values - ue[1].values
        gap2[i] = float(np.mean((dx * dx + dy * dy) * dense))

    a_t = np.array([d.A_t for d in traj_euler.diagnostics[:k]])
    bound = np.array([np.trapezoid(np.exp(a_t[i] - a_t[: i + 1]) * gap2[: i + 1],
                                   times[: i + 1]) for i in range(k)])
    return W2GronwallSeries(times=times, a_t=a_t, bound=bound)
