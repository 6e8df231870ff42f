"""Periodic grid, spectral transforms, derivatives, and the norm kit.

Everything lives on the side-1 torus [0,1)^2 sampled on an n-by-n uniform
grid (n a power of two). Angular wavenumbers are k = 2*pi*(p, q) with
integer frequencies p, q in [-n/2, n/2). The FFT convention is numpy's:
forward transform unscaled, inverse scaled by 1/n^2, so the mathematical
Fourier coefficient of mode (p, q) is fft2(values)[p, q] / n^2.

Operators run on the rfft2 half-spectrum `ScalarField.hat` (columns
q = 0..n/2), which holds each coefficient of a real field once: the
mirror (-p, -q) of a column 0 < q < n/2 is its conjugate. So Parseval
reads ||f||_L2^2 = sum w_q |hat[p, q] / n^2|^2 with w_q = 2 on those
columns and 1 on the self-mirrored columns q = 0 and q = n/2.

Every rfft2/irfft2 of the solvers and steppers goes through this
module's two-stage kernel, `rfft2`/`irfft2`: the two 1-D passes numpy's
2-D calls make, bit for bit, with the complex intermediate of `irfft2`
(and a multiplier's product with the half-spectrum it transforms)
written into a per-shape work array of the calling thread instead of a
fresh array. Outputs are fresh arrays, or an `out` array of the caller's.

Sobolev norms are homogeneous: ||f||_Hs = (sum_{k != 0} |k|^{2s} |c_k|^2)^{1/2}
with |k| = 2*pi*sqrt(p^2+q^2). This makes the interpolation inequalities
exact with constant 1 (Hoelder on the spectral weights).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "TorusGrid",
    "ScalarField",
    "NormKind",
    "derivative",
    "inv_laplacian",
    "perp_gradient",
    "norm",
    "dealias",
    "MeanViolationError",
]


class MeanViolationError(ValueError):
    """Raised when an operation requiring a mean-zero field gets one that isn't.

    Carries the measured mean in args[1].
    """

    def __init__(self, message: str, measured_mean: float):
        super().__init__(message, measured_mean)
        self.measured_mean = measured_mean

    def __str__(self):
        return self.args[0]


# mean-zero checks pass |mean| <= MEAN_REL_TOL * RMS + MEAN_FLOOR * (1 + max |values|);
# the floor keeps roundoff-scale means of tiny difference fields (e.g. converged
# solver updates) from tripping them
MEAN_REL_TOL, MEAN_FLOOR = 1e-10, 1e-15


class SpectralKernel:
    """Per-n rfft2 half-spectrum multipliers, built once per grid size by
    `kernel(n)`; there are no full-spectrum multipliers.

    Rows are p from fftfreq (the Nyquist row carries p = -n/2), columns
    q = 0..n/2. `grad` stacks the multipliers i k_x, i k_y and `hess`
    those of d_xx, d_xy, d_yy, so one batched irfft2 of `grad * hat` or
    `hess * hat` yields all components; `lap` is their trace.
    `inv_lap_half` is -1/|k|^2 with 0 at k = 0 and `mask_half` the
    2/3-rule keep-mask. The Hermitian weight `l2_weight` turns sums over
    the half-spectrum into Parseval sums: sum(l2_weight * |hat|^2) is
    the mean of the squared values; `hs` adds |k|^{2s}.

    A multiplier m(p, q) acts on a real field as its Hermitian part
    (m(p, q) + conj m(-p, -q)) / 2, the Nyquist index being its own
    negative. So odd-order multipliers vanish on the Nyquist row
    (p = -n/2) and column (q = n/2), where irfft2 would otherwise keep a
    real image of them; the exception is d_xy at the self-mirrored
    corner (-n/2, -n/2), which keeps -(pi n)^2.

    `p`, `q`, `k_mag` and `mask` are the full fft2-layout arrays behind
    `TorusGrid`'s helpers; no operator reads them.
    """

    def __init__(self, n: int):
        self.n = n
        freqs = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)  # integer p in [-n/2, n/2)
        p, q = np.meshgrid(freqs, freqs, indexing="ij")
        k_mag = 2.0 * np.pi * np.sqrt(p.astype(float) ** 2 + q.astype(float) ** 2)
        mask = np.abs(np.maximum(np.abs(p), np.abs(q))) <= n / 3.0  # 2/3-rule keep-mask
        self.p, self.q, self.k_mag, self.mask = p, q, k_mag, mask

        m = n // 2 + 1
        half = (slice(None), slice(0, m))
        shape = (n, m)
        k2 = k_mag[half] ** 2
        kx = 2.0 * np.pi * freqs[:, None].astype(float)
        ky = 2.0 * np.pi * np.arange(m, dtype=float)[None, :]
        odd_x = np.where(freqs[:, None] == -(n // 2), 0.0, 1.0)
        odd_y = np.where(np.arange(m)[None, :] == n // 2, 0.0, 1.0)
        self.grad = np.stack([np.broadcast_to(1j * kx * odd_x, shape),
                              np.broadcast_to(1j * ky * odd_y, shape)])
        self.hess = np.stack([np.broadcast_to(-(kx ** 2), shape),
                              -(kx * ky) * odd_x * odd_y,
                              np.broadcast_to(-(ky ** 2), shape)])
        self.hess[1, n // 2, n // 2] = -(np.pi * n) ** 2  # d_xy at the corner (-n/2, -n/2)
        self.lap = self.hess[0] + self.hess[2]
        self.inv_lap_half = np.zeros(shape)
        nz = k2 > 0
        self.inv_lap_half[nz] = -1.0 / k2[nz]
        self.mask_half = np.ascontiguousarray(mask[half])
        weight = np.full((1, m), 2.0)
        weight[0, 0] = weight[0, -1] = 1.0  # columns q = 0 and q = n/2 have no mirror
        self.l2_weight = weight / float(n) ** 4
        self._k2, self._hs_weights = k2, {}
        for a in (p, q, k_mag, mask, self.grad, self.hess, self.lap, self.inv_lap_half,
                  self.mask_half, self.l2_weight):
            a.setflags(write=False)

    def l2(self, hat: np.ndarray) -> float:
        """Grid-sample L2 norm (RMS) of the field with half-spectrum hat."""
        return float(np.sqrt(np.sum(self.l2_weight * _abs2(hat))))

    def hs(self, hat: np.ndarray, s: float) -> float:
        """Homogeneous H^s norm of the field with half-spectrum hat."""
        w = self._hs_weights.get(s)
        if w is None:  # |k|^{2s} l2_weight
            w = np.where(self._k2 > 0, self._k2, 1.0) ** s * self.l2_weight
            w[0, 0] = 0.0
            w.setflags(write=False)
            self._hs_weights[s] = w
        return float(np.sqrt(np.sum(w * _abs2(hat))))

    def require_mean_zero(self, hat: np.ndarray) -> None:
        """`_require_mean_zero` read from a half-spectrum: the mean is the
        zero mode, the RMS comes from Parseval, and n * RMS, which bounds
        max |values| (Cauchy-Schwarz over the n^2 modes), stands in for
        it in the absolute floor. Used inside the solvers' sweeps and
        stages; the public operators check values in real space."""
        _mean_check(float(hat[0, 0].real) / self.n ** 2, lambda: (r := self.l2(hat), self.n * r))


@lru_cache(maxsize=32)
def kernel(n: int) -> SpectralKernel:
    """The cached `SpectralKernel` of the n x n grid."""
    return SpectralKernel(n)


def _abs2(hat: np.ndarray) -> np.ndarray:
    return hat.real ** 2 + hat.imag ** 2


_buffers = threading.local()  # its __dict__, per thread: shapes -> irfft2 work array


def rfft2(values: np.ndarray) -> np.ndarray:
    """np.fft.rfft2 over the last two axes, bit for bit: rfft along axis
    -1, then an in-place fft along axis -2 of that fresh array."""
    out = np.fft.rfft(values, axis=-1)
    return np.fft.fft(out, axis=-2, out=out)


def irfft2(hat: np.ndarray, mult: np.ndarray | None = None,
           out: np.ndarray | None = None) -> np.ndarray:
    """np.fft.irfft2 of hat, or of mult * hat (say `SpectralKernel.hess`
    times one half-spectrum), over the last two axes, bit for bit. The
    product and the in-place ifft along axis -2 use this thread's work
    array for these shapes; the irfft along axis -1 writes into out, an
    array of the caller's, or else a fresh array, never the work array."""
    key = hat.shape if mult is None else (mult.shape, hat.shape)
    buf = _buffers.__dict__.get(key)
    if buf is None:
        shape = hat.shape if mult is None else np.broadcast_shapes(mult.shape, hat.shape)
        buf = _buffers.__dict__[key] = np.empty(shape, dtype=complex)
    src = hat if mult is None else np.multiply(mult, hat, out=buf)
    return np.fft.irfft(np.fft.ifft(src, axis=-2, out=buf), axis=-1, out=out)


@dataclass(frozen=True)
class TorusGrid:
    """Uniform n x n discretization of [0,1)^2, n a power of two, n >= 8."""

    n: int

    def __post_init__(self):
        n = self.n
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError(f"grid size must be a power of two >= 8, got {n}")

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def k_mag(self) -> np.ndarray:
        """|k| = 2*pi*sqrt(p^2+q^2) per frequency pair of the full fft2
        layout; zero only at (0,0)."""
        return kernel(self.n).k_mag

    def freq_pair(self):
        """Integer frequency arrays (p, q) of the full fft2 layout,
        meshgrid indexing='ij'."""
        k = kernel(self.n)
        return k.p, k.q

    def dealias_mask(self) -> np.ndarray:
        """2/3-rule keep-mask in the full fft2 layout."""
        return kernel(self.n).mask

    def points(self):
        """Sample coordinates (X, Y), each n x n, x index outer."""
        x = np.arange(self.n) * self.h
        return np.meshgrid(x, x, indexing="ij")


class ScalarField:
    """Real periodic grid function with an on-demand cached half-spectrum.

    values is an (n, n) float64 array, row-major over (x, y) samples: the
    first index is x, the second y. Fields are immutable after construction;
    every operation returns a new field, so instances are safe to share
    across workers. The half-spectrum cache is filled at most once and the
    fill is idempotent (numpy FFT of fixed bits is deterministic).
    """

    __slots__ = ("grid", "_values", "_hat")

    def __init__(self, grid: TorusGrid, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (grid.n, grid.n):
            raise ValueError(f"values shape {values.shape} != grid {(grid.n, grid.n)}")
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        values = values.copy()
        values.setflags(write=False)
        self.grid = grid
        self._values = values
        self._hat = None

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def hat(self) -> np.ndarray:
        """Unnormalized half-spectrum rfft2(values), in `SpectralKernel`'s
        layout; cached and read-only."""
        if self._hat is None:
            hat = rfft2(self._values)
            hat.setflags(write=False)
            self._hat = hat
        return self._hat

    def __getstate__(self):
        return self.grid, self._values, self._hat

    def __setstate__(self, state):
        # unpickled arrays come back writeable; fields stay immutable
        self.grid, self._values, self._hat = state
        for arr in (self._values, self._hat):
            if arr is not None:
                arr.setflags(write=False)

    @classmethod
    def zeros(cls, grid: TorusGrid) -> "ScalarField":
        return cls(grid, np.zeros((grid.n, grid.n)))

    def mean(self) -> float:
        return float(np.mean(self._values))

    def _pointwise(self, op, other) -> "ScalarField":
        # products are not dealiased here; callers dealias quadratic terms
        rhs = other._values if isinstance(other, ScalarField) else other
        return ScalarField(self.grid, op(self._values, rhs))

    def __add__(self, other):
        return self._pointwise(np.add, other)

    def __sub__(self, other):
        return self._pointwise(np.subtract, other)

    def __mul__(self, other):
        return self._pointwise(np.multiply, other)

    __rmul__ = __mul__

    def __neg__(self):
        return ScalarField(self.grid, -self._values)


HOLDER_ALPHA = 0.5  # the Hoelder exponent of NormKind.Calpha


@dataclass(frozen=True)
class NormKind:
    """Norm selector: tag in {L2, Linf, Hs, Calpha, GradLinf}; Hminus1 is Hs at s = -1.

    Hs carries the order s; Calpha is the C^alpha norm at alpha =
    HOLDER_ALPHA. Hs/Hminus1 require mean-zero fields.
    """

    tag: str
    s: float = 0.0

    @staticmethod
    def Hs(s: float) -> "NormKind":
        return NormKind("Hs", s=s)


# Singletons for the parameter-free kinds.
NormKind.L2 = NormKind("L2")
NormKind.Linf = NormKind("Linf")
NormKind.Calpha = NormKind("Calpha")
NormKind.Hminus1 = NormKind("Hs", s=-1.0)
NormKind.GradLinf = NormKind("GradLinf")


def _mean_check(m: float, rms_and_peak) -> None:
    """Raise unless |m| is within the tolerance of (RMS, max |values|) = rms_and_peak();
    that is never below MEAN_FLOOR, so a mean under the floor skips the call."""
    if abs(m) > MEAN_FLOOR:
        rms, peak = rms_and_peak()
        tol = MEAN_REL_TOL * rms + MEAN_FLOOR * (1.0 + peak)
        if abs(m) > tol:
            raise MeanViolationError(f"field mean {m:.3e} exceeds tolerance {tol:.3e}", m)


def _require_mean_zero(values: np.ndarray) -> None:
    _mean_check(float(np.mean(values)), lambda: (float(np.sqrt(np.mean(values**2))),
                                                 float(np.max(np.abs(values)))))


def _from_hat(grid: TorusGrid, hat: np.ndarray, mult: np.ndarray) -> ScalarField:
    return ScalarField(grid, irfft2(hat, mult))


def derivative(f: ScalarField, order: tuple[int, int]) -> ScalarField:
    """Spectral partial derivative d_x^a d_y^b f for a multi-index with a+b <= 2."""
    a, b = order
    if a < 0 or b < 0 or a + b > 2:
        raise ValueError(f"unsupported derivative order {order}: need a, b >= 0 and a+b <= 2")
    if a == 0 and b == 0:
        return f
    k = kernel(f.grid.n)
    # (1,0), (0,1) are grad[0], grad[1]; (2,0), (1,1), (0,2) are hess[0..2]
    return _from_hat(f.grid, f.hat, (k.grad if a + b == 1 else k.hess)[b])


def inv_laplacian(f: ScalarField) -> ScalarField:
    """Solve Laplace(g) = f spectrally on mean-zero f; <g> = 0."""
    _require_mean_zero(f.values)
    return _from_hat(f.grid, f.hat, kernel(f.grid.n).inv_lap_half)


def _gradient_values(f: ScalarField) -> np.ndarray:
    """Stacked (d_x f, d_y f) values from one batched irfft2."""
    return irfft2(f.hat, kernel(f.grid.n).grad)


def perp_gradient(psi: ScalarField) -> tuple[ScalarField, ScalarField]:
    """Divergence-free rotation: u = (-d_y psi, d_x psi)."""
    gx, gy = _gradient_values(psi)
    return ScalarField(psi.grid, -gy), ScalarField(psi.grid, gx)


def dealias(f: ScalarField) -> ScalarField:
    """Zero all modes with max(|p|,|q|) > n/3 (2/3-rule); idempotent."""
    return _from_hat(f.grid, f.hat, kernel(f.grid.n).mask_half)


def _holder_seminorm(f: ScalarField) -> float:
    """Discrete C^HOLDER_ALPHA seminorm over dyadic offsets along axes and diagonals.

    Offsets are h*2^j, j = 0..log2(n/2), at most 1/2, so the torus geodesic
    distance is the offset itself. Each periodic shift of the values is a
    view of one 2n x 2n tiling: np.roll(v, (a, b)) = tile[-a % n:, -b % n:][:n, :n].
    """
    n, h, v = f.grid.n, f.grid.h, f.values
    tile = np.tile(v, (2, 2))

    def gap(a, b):
        a, b = -a % n, -b % n
        return float(np.max(np.abs(v - tile[a:a + n, b:b + n])))

    best = 0.0
    step = 1
    while step <= n // 2:
        d = step * h
        ax = max(gap(step, 0), gap(0, step))
        diag = max(gap(step, step), gap(step, -step))
        best = max(best, ax / d**HOLDER_ALPHA, diag / (np.sqrt(2.0) * d) ** HOLDER_ALPHA)
        step *= 2
    return best


def norm(f: ScalarField, kind: NormKind) -> float:
    """Norms per the kit: grid-sample L2/Linf, homogeneous spectral Hs,
    GradLinf = sup |grad f|, Calpha = Linf + discrete Hoelder seminorm."""
    tag = kind.tag
    if tag == "L2":
        return float(np.sqrt(np.mean(f.values**2)))
    if tag == "Linf":
        return float(np.max(np.abs(f.values)))
    if tag == "Hs":
        _require_mean_zero(f.values)
        return kernel(f.grid.n).hs(f.hat, kind.s)
    if tag == "GradLinf":
        gx, gy = _gradient_values(f)
        return float(np.max(np.hypot(gx, gy)))
    if tag == "Calpha":
        return norm(f, NormKind.Linf) + _holder_seminorm(f)
    raise ValueError(f"unknown norm kind {tag!r}")
