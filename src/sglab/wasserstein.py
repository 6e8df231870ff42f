"""Quadratic optimal transport between lattice densities on the torus.

Densities are atom collections on a regular m x m lattice (points j/m),
produced by sampling physical densities 1 + eps*rho and normalizing.
Two solvers:

* w2_sinkhorn: debiased entropic transport with log-domain potentials.
  The squared torus cost splits per axis, so each Sinkhorn half-step is
  one m x m matrix product per axis with the kernel exp(-cost/reg), in
  the scaling domain with log absorption (Schmitzer 2019): the max of
  the exponent is taken out before the product and added back after
  it. An axis whose product underflows is contracted exactly in the log
  domain instead. The debiased value OT(a,b) - (OT(a,a) + OT(b,b))/2
  is one exact sum of per-atom differences of the three solves'
  potentials, since the three values nearly cancel; bitwise-equal
  inputs run one solve and give exactly zero. Every solve iterates at
  the target regularization. The two self-transport terms run first,
  from zero potentials, and iterate the averaged symmetric update
  f <- (f + T(f))/2 (Feydy et al. 2019), one half-step per iteration.
  The cross term alternates the two half-steps, started from the
  self-transport potentials (f_aa, f_bb).

* w2_exact_small: the transport linear program, for cross-checking the
  entropic solver on problems up to 16 x 16. It is solved by column
  generation: HiGHS solves the LP on a sparse support (pairs within one
  lattice step plus a north-west-corner plan, which keeps it feasible),
  and every pair whose reduced cost under the solve's duals is negative
  joins the support until the duals certify the full product. Near-equal
  densities, whose optimal plan stays next to the diagonal, take one
  solve on about 5 of the 256 pairs per atom; OTResult.iterations counts
  the solves; bitwise-equal weights take none. Per-atom mass differences
  below HiGHS's primal feasibility tolerance (1e-7) can read as 0.
  scipy.optimize and scipy.sparse load on the first LP solve, so a
  process that solves no LP never imports them.

Atoms are placed at block starts when downsampling; both densities in
any comparison get the same convention, so the common half-block shift
cancels from transport distances.
"""

import math
from dataclasses import dataclass

import numpy as np

from .spectral import ScalarField, perp_gradient
from .transport import Trajectory, _shared_times, gronwall_integral

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
# smallest entry a Sinkhorn kernel product may hold before its axis is
# contracted exactly in the log domain instead (see _contract)
PRODUCT_FLOOR = 1e-250
# a pair outside the exact LP's support joins it when its reduced cost
# under the restricted solve's duals is below -REDUCED_COST_TOL; far
# tighter than HiGHS's dual feasibility tolerance (1e-7), so the final
# support is certified by duals at least as feasible as a full solve's
REDUCED_COST_TOL = 1e-12
THIN_ATOM_CUT = 1e-7  # _merge_thin_support's cut, a fraction of the heaviest atom


class W2ConvergenceError(RuntimeError):
    """Sinkhorn hit its iteration cap before the marginal tolerance.

    The message names the failing solve: OT(a,b), or one of the
    debiasing terms OT(a,a) and OT(b,b).
    """

    def __init__(self, message, marginal_error, iterations=None):
        super().__init__(message, marginal_error, iterations)
        self.marginal_error = marginal_error
        self.iterations = iterations

    def __str__(self):
        return self.args[0]


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


def _lse_contract(A, cost, reg):
    """Exact log-domain contraction over the first axis of A:
    out[i, l] = log sum_k exp(A[k, l] - cost[i, k] / reg), shifted by
    the per-(i, l) maximum as scipy.special.logsumexp does."""
    X = A[None, :, :] - cost[:, :, None] / reg
    M = np.max(X, axis=1)
    M[~np.isfinite(M)] = 0.0
    with np.errstate(divide="ignore"):
        return np.log(np.sum(np.exp(X - M[:, None, :]), axis=1)) + M


def _contract(A, K, cost, reg):
    """log(K @ exp(A)), with K = exp(-cost / reg), for the contraction
    over the first axis of A.

    Log absorption: the column max of A is taken out before the product
    and added back after it. Every column of exp(A - M) then holds a 1,
    so an entry of the product is at least the smallest kernel entry
    exp(-max cost / reg). An entry below PRODUCT_FLOOR means the kernel
    may have lost dominant terms to underflow, and the contraction is
    redone exactly in the log domain.
    """
    M = np.max(A, axis=0)
    M[~np.isfinite(M)] = 0.0
    P = K @ np.exp(A - M)
    if float(np.min(P)) < PRODUCT_FLOOR:
        return _lse_contract(A, cost, reg)
    return np.log(P) + M


def _half_update(pot_other, logw_other, cost, kernel, reg):
    """One log-domain Sinkhorn half-step as one contraction per axis.

    Returns the updated potential on the first marginal's lattice:
    f[i,j] = -reg * LSE_{k,l}[(g[k,l] - cost[i,k] - cost[j,l])/reg + logw[k,l]].
    The squared torus cost splits per axis, and both axes share the 1D
    cost and its kernel exp(-cost/reg).
    """
    A = pot_other / reg + logw_other
    # reduce over the first atom axis k: (k, l) -> (i, l)
    B = _contract(A, kernel, cost, reg)
    # reduce over the second atom axis l: (l, i) -> (j, i)
    T = _contract(B.T, kernel, cost, reg)
    return -reg * T.T


def _ot_reg(wa, wb, reg, tol, cap, term, start=None):
    """Entropic OT between lattice weight arrays, log domain.

    Iterates at reg from the potentials start = (f, g), zero by default,
    until the L1 marginal violation of the implied plan drops to tol.
    From a good start, such as a cross solve's debiasing potentials on
    near densities, that takes under half the iterations of a start from
    zero (69 against 174, 16^2 calibration densities at reg 2e-3).
    Returns (f, g, dev, iterations, marginal_error): the potentials on
    both lattices and dev, the per-atom deviation of the plan's first
    marginal from wa. The entropic value is
    sum(wa*f) + sum(wb*g) - reg*sum(dev): the bare sum of potentials is
    only first-order accurate in the marginal violation, while
    subtracting reg * (total plan mass - 1) makes the value stationary
    at the fixed point and hence second-order accurate.

    Different weights alternate the two half-steps, f <- T_b(g) and
    g <- T_a(f). Equal weights (a density transported onto itself) have
    a symmetric optimum g = f, and iterate the averaged symmetric update
    f <- (f + T(f))/2 of Feydy et al. (2019), T being the half-step with
    the other potential set to f. T's Jacobian is minus the plan's
    Markov operator, so an error mode of its eigenvalue l in [0, 1]
    contracts by (1 - l)/2 per averaged update, against l^2 per
    alternating iteration: the smooth modes (l near 1) that hold the
    alternating iteration back vanish fastest, and every mode at least
    halves per iteration at any reg, so the solve needs no
    regularization schedule. From zero it takes 6 iterations of one
    half-step each, against 200-odd of two for the alternating update
    (16^2 calibration densities, reg 2e-3). Its marginal error is
    sum(wa * |exp((f - T(f))/reg) - 1|), tested on f before averaging;
    the plan with g = f has equal row and column marginals, so this one
    number bounds both, and that f is returned with g = f.

    `iterations` counts iterations against cap; term names the solve in
    the W2ConvergenceError raised at the cap. That error reports the L1
    row error of the last f with the other potential fitted to it: the
    fitted marginal is exact, so the plan's mass is 1 and the reported
    error is at most 2.
    """
    ma, mb = wa.shape[0], wb.shape[0]
    with np.errstate(divide="ignore"):
        la = np.log(wa)
        lb = np.log(wb)
    ca = _axis_cost(ma, mb)  # both axes use identical 1D lattices
    k = np.exp(-ca / reg)
    symmetric = np.array_equal(wa, wb)
    f, g = (np.zeros((ma, ma)), np.zeros((mb, mb))) if start is None else start
    for iterations in range(1, cap + 1):
        if symmetric:
            t = _half_update(f, la, ca, k, reg)
            # row (= column) marginals of the plan (f, f)
            dev = wa * (np.exp((f - t) / reg) - 1.0)
            err = float(np.sum(np.abs(dev)))
            if err <= tol:
                return f, f, dev, iterations, err
            f = 0.5 * (f + t)
        else:
            f_new = _half_update(g, lb, ca, k, reg)
            g = _half_update(f_new, la, ca.T, k.T, reg)
            # row marginals of the plan (f, g) are wa * exp((f - f_new)/reg)
            err = float(np.sum(wa * np.abs(np.exp((f - f_new) / reg) - 1.0)))
            if err <= tol:
                f_half = _half_update(g, lb, ca, k, reg)
                dev = wa * (np.exp((f_new - f_half) / reg) - 1.0)
                return f_new, g, dev, iterations, err
            f = f_new
    g = _half_update(f, la, ca.T, k.T, reg)
    f_half = _half_update(g, lb, ca, k, reg)
    err = float(np.sum(wa * np.abs(np.exp((f - f_half) / reg) - 1.0)))
    raise W2ConvergenceError(
        f"{term}: marginal error {err:.3e} after {cap} iterations", err, cap
    )


def w2_sinkhorn(a: DensityOnTorus, b: DensityOnTorus, reg: float = 5e-4,
                tol: float = 1e-9, cap: int = 100_000) -> OTResult:
    """Debiased entropic W2 between two lattice densities.

    Computes sqrt of OT_reg(a,b) - (OT_reg(a,a) + OT_reg(b,b))/2. The
    three values nearly cancel, so the difference is taken atom by
    atom on the potentials and summed exactly (math.fsum). The two
    debiasing terms run first, with the averaged symmetric update, and
    bitwise-equal weights run that one solve and give exactly 0. The
    cross term starts from their potentials (f_aa, f_bb). Every solve
    iterates at reg from its first iteration (see _ot_reg).
    OTResult.iterations sums the solves' iterations: one half-step per
    symmetric iteration, two per alternating one. cap bounds each solve;
    a solve that reaches it raises W2ConvergenceError naming the term.
    reg and tol must be positive and finite.
    """
    if a.m > SINKHORN_SIDE_LIMIT or b.m > SINKHORN_SIDE_LIMIT:
        raise ValueError(f"lattice side exceeds {SINKHORN_SIDE_LIMIT}")
    if not (reg > 0 and math.isfinite(reg)):
        raise ValueError("reg must be positive and finite")
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError("tol must be positive and finite")
    if cap < 1:
        raise ValueError("cap must be at least 1")
    wa, wb = a.weights, b.weights
    if np.array_equal(wa, wb):
        *_, it, err = _ot_reg(wa, wa, reg, tol, cap, "OT(a,a)")
        return OTResult(distance=0.0, method="sinkhorn", reg=reg,
                        iterations=it, marginal_error=err)
    f_aa, g_aa, dev_aa, it_aa, err_aa = _ot_reg(wa, wa, reg, tol, cap, "OT(a,a)")
    f_bb, g_bb, dev_bb, it_bb, err_bb = _ot_reg(wb, wb, reg, tol, cap, "OT(b,b)")
    f_ab, g_ab, dev_ab, it_ab, err_ab = _ot_reg(wa, wb, reg, tol, cap, "OT(a,b)",
                                                start=(f_aa, f_bb))
    on_a = wa * (f_ab - 0.5 * (f_aa + g_aa)) - reg * (dev_ab - 0.5 * dev_aa)
    on_b = wb * (g_ab - 0.5 * (f_bb + g_bb)) + (0.5 * reg) * dev_bb
    s = math.fsum(np.concatenate([on_a.ravel(), on_b.ravel()]))
    return OTResult(
        distance=float(np.sqrt(max(s, 0.0))),
        method="sinkhorn",
        reg=reg,
        iterations=it_ab + it_aa + it_bb,
        marginal_error=max(err_ab, err_aa, err_bb),
    )


def _merge_thin_support(weights, cost_to_self):
    """Move mass of atoms below THIN_ATOM_CUT * max onto their nearest heavy atom.

    The LP solver misclassifies problems whose equality right-hand
    sides span many orders of magnitude, so thin atoms are merged into
    their nearest retained neighbor first. Mass is conserved exactly;
    the induced distance perturbation is bounded by the square root of
    the relocated mass times the squared torus diameter, and smooth
    near-uniform densities are returned untouched.
    """
    keep = weights > THIN_ATOM_CUT * float(np.max(weights))
    if np.all(keep):
        return weights, np.nonzero(keep)[0]
    idx_keep = np.nonzero(keep)[0]
    idx_drop = np.nonzero(~keep)[0]
    merged = weights[idx_keep].copy()
    hosts = np.argmin(cost_to_self[np.ix_(idx_drop, idx_keep)], axis=1)
    np.add.at(merged, hosts, weights[idx_drop])
    return merged, idx_keep


def _north_west_corner(wa, wb):
    """Cells (rows, cols) of the north-west-corner plan for marginals wa,
    wb: a staircase from the first to the last cell, p + q - 1 in all,
    touching every row and every column."""
    p, q = len(wa), len(wb)
    cells = [(0, 0)]
    i = j = 0
    ra, rb = wa[0], wb[0]
    while i < p - 1 or j < q - 1:
        if j == q - 1 or (i < p - 1 and ra <= rb):
            rb -= ra
            i += 1
            ra = wa[i]
        else:
            ra -= rb
            j += 1
            rb = wb[j]
        cells.append((i, j))
    return tuple(np.array(c) for c in zip(*cells))


def _restricted_lp(C, wa, wb, rows, cols):
    """The transport LP on the cells (rows, cols) of the p x q product.

    The last column constraint is dropped: it is implied by the others.
    Returns HiGHS's result, whose equality duals are the row potentials
    followed by the first q - 1 column potentials. Presolve is off: on a
    support with few pairs per atom it declared feasible problems
    infeasible when merged atoms weigh less than its primal feasibility
    tolerance (translated 16^2 bumps of width 0.08).
    """
    from scipy import sparse
    from scipy.optimize import linprog
    p, q = C.shape
    k = np.arange(len(rows))
    in_col = cols < q - 1
    constraint = np.concatenate([rows, p + cols[in_col]])
    variable = np.concatenate([k, k[in_col]])
    A_eq = sparse.csr_matrix((np.ones(len(constraint)), (constraint, variable)),
                             shape=(p + q - 1, len(k)))
    b_eq = np.concatenate([wa, wb[:-1]])
    res = linprog(C[rows, cols], A_eq=A_eq, b_eq=b_eq, bounds=(0, None),
                  method="highs", options={"presolve": False})
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return res


def w2_exact_small(a: DensityOnTorus, b: DensityOnTorus) -> OTResult:
    """Exact W2 via the transport linear program (lattices up to 16^2).

    The LP is solved by column generation on a sparse support. It starts
    from every pair within one lattice step on the torus (the diagonal
    included) plus the north-west-corner plan's cells, which make the
    restricted LP feasible for any marginals. After each restricted
    solve, the equality duals u, v (0 for the dropped last column
    constraint) give the reduced cost C - u_i - v_j of every pair of the
    full product; every pair below -REDUCED_COST_TOL joins the support
    and the LP is solved again. The loop ends when the duals certify the
    whole product, and at worst the support grows to the full product.
    OTResult.iterations is the number of restricted solves. Bitwise-equal
    weights return distance 0 with no solve (iterations 0).

    The value is exact only up to HiGHS's tolerances. Per-atom marginal
    differences below its primal feasibility tolerance (1e-7) can vanish:
    moving 4e-8 of mass one cell on a uniform 16^2 density reads 0.0,
    where W2 is 1.25e-5.
    """
    if a.m > EXACT_SIDE_LIMIT or b.m > EXACT_SIDE_LIMIT:
        raise ValueError(f"lattice side exceeds {EXACT_SIDE_LIMIT}")
    if np.array_equal(a.weights, b.weights):
        return OTResult(0.0, "exact", 0.0, iterations=0, marginal_error=0.0)
    cost = torus_cost(a.m, b.m)
    square = a.m == b.m
    wa, ia = _merge_thin_support(a.weights.ravel(),
                                 cost if square else torus_cost(a.m, a.m))
    wb, ib = _merge_thin_support(b.weights.ravel(),
                                 cost if square else torus_cost(b.m, b.m))
    C = cost[np.ix_(ia, ib)]
    p, q = C.shape
    # one step of the coarser lattice: every atom has a partner this close
    active = C <= (1 + 1e-9) / min(a.m, b.m) ** 2
    active[_north_west_corner(wa, wb)] = True
    solves = 0
    while True:
        rows, cols = np.nonzero(active)
        res = _restricted_lp(C, wa, wb, rows, cols)
        solves += 1
        duals = res.eqlin.marginals
        v = np.append(duals[p:], 0.0)
        entering = (C - duals[:p, None] - v[None, :] < -REDUCED_COST_TOL) & ~active
        if not entering.any():
            break
        active |= entering
    plan = np.zeros((a.m * a.m, b.m * b.m))
    plan[ia[rows], ib[cols]] = res.x
    value = float(res.fun)
    err = float(np.sum(np.abs(plan.sum(axis=1) - a.weights.ravel()))
                + np.sum(np.abs(plan.sum(axis=0) - b.weights.ravel())))
    return OTResult(
        distance=float(np.sqrt(max(value, 0.0))),
        method="exact",
        reg=0.0,
        iterations=solves,
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
    times = _shared_times(traj_sg, traj_euler)
    k = len(times)
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
    return W2GronwallSeries(times=times, a_t=a_t, bound=gronwall_integral(a_t, gap2, times))
