"""Spectral operator tests against closed-form references.

Every expected value below is computed by hand from the Fourier
definitions on the side-1 torus (wavenumbers 2*pi*(p, q)) and frozen
here as a literal, so a regression in the FFT plumbing cannot hide
behind a matching bug in the code under test.
"""

import pickle

import numpy as np
import pytest
from conftest import field_from

from sglab.spectral import (
    TorusGrid,
    ScalarField,
    NormKind,
    MeanViolationError,
    derivative,
    inv_laplacian,
    perp_gradient,
    dealias,
    irfft2,
    norm,
    rfft2,
)
from sglab.spectral import (  # test-only imports
    HOLDER_ALPHA,
    SpectralKernel,
    _holder_seminorm,
    _require_mean_zero,
    kernel,
)


@pytest.fixture(scope="module")
def grid():
    return TorusGrid(64)


def test_grid_validation():
    with pytest.raises(ValueError):
        TorusGrid(48)
    with pytest.raises(ValueError):
        TorusGrid(4)
    g = TorusGrid(32)
    assert g.h == pytest.approx(1.0 / 32)


def test_mean_and_arithmetic(grid):
    f = field_from(grid, lambda x, y: np.cos(2 * np.pi * x))
    g = field_from(grid, lambda x, y: np.sin(2 * np.pi * y))
    assert abs(f.mean()) < 1e-15
    h = 2.0 * f + g - f
    expect = f.values + g.values
    assert np.allclose(h.values, expect, atol=1e-15)


def test_values_immutable(grid):
    f = field_from(grid, lambda x, y: np.cos(2 * np.pi * x))
    with pytest.raises(ValueError):
        f.values[0, 0] = 3.0


def test_pickle_keeps_half_spectrum_and_immutability(grid):
    # worker processes send fields back to the experiment drivers pickled
    f = field_from(grid, lambda x, y: np.cos(2 * np.pi * x))
    f.hat
    back = pickle.loads(pickle.dumps(f))
    assert back.grid == f.grid
    assert np.array_equal(back.values, f.values)
    assert np.array_equal(back.hat, f.hat)
    for arr in (back.values, back.hat):
        with pytest.raises(ValueError):
            arr[0, 0] = 3.0


# --- derivatives -----------------------------------------------------------

def test_first_derivative_single_mode(grid):
    f = field_from(grid, lambda x, y: np.sin(2 * np.pi * x))
    fx = derivative(f, (1, 0))
    expect = field_from(grid, lambda x, y: 2 * np.pi * np.cos(2 * np.pi * x))
    assert np.allclose(fx.values, expect.values, atol=1e-12)
    # y-derivative of an x-only field vanishes identically
    fy = derivative(f, (0, 1))
    assert np.max(np.abs(fy.values)) < 1e-13


def test_mixed_second_derivative(grid):
    f = field_from(grid, lambda x, y: np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y))
    fxy = derivative(f, (1, 1))
    expect = field_from(
        grid, lambda x, y: 4 * np.pi ** 2 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
    )
    assert np.allclose(fxy.values, expect.values, atol=1e-10)


def test_derivative_order_cap(grid):
    f = field_from(grid, lambda x, y: np.cos(2 * np.pi * x))
    with pytest.raises(ValueError):
        derivative(f, (2, 1))
    with pytest.raises(ValueError):
        derivative(f, (-1, 0))


# --- inverse Laplacian -----------------------------------------------------

def test_inv_laplacian_single_mode(grid):
    # Laplacian of cos(2 pi x) is -(2 pi)^2 cos(2 pi x), so the inverse
    # returns -cos(2 pi x)/(4 pi^2).
    f = field_from(grid, lambda x, y: np.cos(2 * np.pi * x))
    u = inv_laplacian(f)
    expect = -1.0 / (4 * np.pi ** 2)
    got = u.values[0, 0]  # x = 0 gridline carries the extreme
    assert got == pytest.approx(expect, rel=1e-13)
    assert abs(u.mean()) < 1e-15


def test_inv_laplacian_roundtrip_random():
    rng = np.random.default_rng(7)
    g = TorusGrid(64)
    vals = rng.standard_normal((64, 64))
    vals -= vals.mean()
    f = ScalarField(g, vals)
    lap_u = derivative(inv_laplacian(f), (2, 0)) + derivative(inv_laplacian(f), (0, 2))
    err = norm(lap_u - f, NormKind.L2) / norm(f, NormKind.L2)
    assert err < 1e-11


def test_inv_laplacian_rejects_nonzero_mean(grid):
    f = ScalarField(grid, np.ones((64, 64)))
    with pytest.raises(MeanViolationError):
        inv_laplacian(f)


def _first_verdict(m, tol):
    """The mean check's message without the floor test: the full
    tolerance is computed for every field, then compared with |m|."""
    return f"field mean {m:.3e} exceeds tolerance {tol:.3e}" if abs(m) > tol else None


def _verdict(check, arg):
    try:
        check(arg)
    except MeanViolationError as err:
        return str(err)
    return None


def _mean_check_inputs(n=32):
    """Fields whose means straddle the 1e-15 floor and the relative
    tolerance, plus zero and NaN fields."""
    rng = np.random.default_rng(11)
    base = rng.standard_normal((n, n))
    base -= base.mean()
    out = [np.zeros((n, n)), np.full((n, n), np.nan), np.where(base > 2.0, np.nan, base)]
    for amp in (0.0, 1e-6, 1.0, 1e4):
        for mean in (5e-16, 9.9e-16, 1e-15, 1.01e-15, 1.5e-15, 3e-15):
            out.append(amp * base + mean)
        for k in (0.5, 0.99, 1.01, 2.0):  # around the relative tolerance
            out.append(amp * base + k * (1e-10 * amp + 1e-15 * (1 + 3 * amp)))
    return out


def test_mean_checks_keep_their_first_verdicts():
    n = 32
    kern = kernel(n)
    passes = set()
    for values in _mean_check_inputs(n):
        scale = float(np.sqrt(np.mean(values ** 2)))
        tol = 1e-10 * scale + 1e-15 * (1.0 + float(np.max(np.abs(values))))
        expect = _first_verdict(float(np.mean(values)), tol)
        assert _verdict(_require_mean_zero, values) == expect
        hat = rfft2(values)
        scale = kern.l2(hat)
        tol = 1e-10 * scale + 1e-15 * (1.0 + n * scale)
        expect_hat = _first_verdict(float(hat[0, 0].real) / n ** 2, tol)
        assert _verdict(kern.require_mean_zero, hat) == expect_hat
        passes |= {expect is None, expect_hat is None}
    assert passes == {True, False}  # both verdicts occur


def test_mean_check_under_the_floor_skips_the_norm(monkeypatch):
    n = 32
    calls = []
    l2 = SpectralKernel.l2
    monkeypatch.setattr(SpectralKernel, "l2", lambda self, hat: calls.append(1) or l2(self, hat))
    base = np.cos(2 * np.pi * np.arange(n) / n)[:, None] * np.ones((1, n))
    kernel(n).require_mean_zero(rfft2(base + 5e-16))
    assert calls == []
    kernel(n).require_mean_zero(rfft2(base + 1e-14))  # above the floor, within tolerance
    assert calls == [1]


def test_perp_gradient_stream_function(grid):
    # psi = sin(2 pi y) gives u = (-d_y psi, d_x psi) = (-2 pi cos(2 pi y), 0)
    psi = field_from(grid, lambda x, y: np.sin(2 * np.pi * y))
    ux, uy = perp_gradient(psi)
    expect = field_from(grid, lambda x, y: -2 * np.pi * np.cos(2 * np.pi * y))
    assert np.allclose(ux.values, expect.values, atol=1e-12)
    assert np.max(np.abs(uy.values)) < 1e-13


# --- dealiasing ------------------------------------------------------------

def test_dealias_keeps_low_modes():
    g = TorusGrid(16)  # keep-band: max(|p|,|q|) <= 16/3 -> |p| <= 5
    f = field_from(g, lambda x, y: np.cos(2 * np.pi * 5 * x))
    kept = dealias(f)
    assert np.allclose(kept.values, f.values, atol=1e-13)


def test_dealias_removes_high_modes():
    g = TorusGrid(16)
    f = field_from(g, lambda x, y: np.cos(2 * np.pi * 6 * x))
    gone = dealias(f)
    assert np.max(np.abs(gone.values)) < 1e-13


def test_dealias_quadratic_product_exact():
    # Products of fields supported below n/3 are alias-free after masking:
    # compare an n = 32 product against the same product formed at n = 128.
    def fa(x, y):
        return np.cos(2 * np.pi * 3 * x) + np.sin(2 * np.pi * (2 * x + y))

    def fb(x, y):
        return np.sin(2 * np.pi * 4 * y) + np.cos(2 * np.pi * (x - 3 * y))

    g32 = TorusGrid(32)
    prod32 = dealias(field_from(g32, fa) * field_from(g32, fb))
    g128 = TorusGrid(128)
    prod128 = dealias(field_from(g128, fa) * field_from(g128, fb))
    # read the coarse product's coefficients off the fine one
    c32 = np.fft.fft2(prod32.values) / 32 ** 2
    c128 = np.fft.fft2(prod128.values) / 128 ** 2
    for p in range(-10, 11):
        for q in range(-10, 11):
            want = c128[p % 128, q % 128]
            if max(abs(p), abs(q)) <= 32 / 3:
                assert abs(c32[p % 32, q % 32] - want) < 1e-13
            else:
                assert abs(c32[p % 32, q % 32]) < 1e-13


# --- norms -----------------------------------------------------------------

def test_l2_norm_single_mode(grid):
    f = field_from(grid, lambda x, y: np.cos(2 * np.pi * x))
    # mean of cos^2 over a period is 1/2
    assert norm(f, NormKind.L2) == pytest.approx(np.sqrt(0.5), rel=1e-13)


def test_linf_norm(grid):
    f = field_from(grid, lambda x, y: 1.5 * np.cos(2 * np.pi * x))
    assert norm(f, NormKind.Linf) == pytest.approx(1.5, rel=1e-13)


def test_hminus1_single_mode(grid):
    # |k| = 2 pi for the (1,0) mode, so H^-1 norm = L2 norm / (2 pi)
    f = field_from(grid, lambda x, y: np.cos(2 * np.pi * x))
    expect = np.sqrt(0.5) / (2 * np.pi)
    assert norm(f, NormKind.Hminus1) == pytest.approx(expect, rel=1e-12)


def test_hs_parseval_consistency(grid):
    rng = np.random.default_rng(3)
    vals = rng.standard_normal((64, 64))
    vals -= vals.mean()
    f = ScalarField(grid, vals)
    # H^0 norm must equal the L2 norm (Parseval)
    assert norm(f, NormKind.Hs(0.0)) == pytest.approx(norm(f, NormKind.L2), rel=1e-12)


def test_h2_norm_single_mode(grid):
    f = field_from(grid, lambda x, y: np.sin(2 * np.pi * 3 * y))
    # |k| = 6 pi, homogeneous H2 = |k|^2 * L2
    expect = (6 * np.pi) ** 2 * np.sqrt(0.5)
    assert norm(f, NormKind.Hs(2.0)) == pytest.approx(expect, rel=1e-12)


def test_grad_linf_single_mode(grid):
    f = field_from(grid, lambda x, y: np.cos(2 * np.pi * x))
    assert norm(f, NormKind.GradLinf) == pytest.approx(2 * np.pi, rel=1e-12)


def test_hs_norm_requires_mean_zero(grid):
    f = ScalarField(grid, np.full((64, 64), 2.0))
    with pytest.raises(MeanViolationError):
        norm(f, NormKind.Hs(1.0))


def test_holder_norm_bounds():
    # |cos(2 pi x) - cos(2 pi x')| <= min(2, 2 pi |x - x'|) gives a crude
    # seminorm bound; check the discrete scan lands between the best
    # single-separation value and the crude cap.
    g = TorusGrid(128)
    f = field_from(g, lambda x, y: np.cos(2 * np.pi * x))
    val = norm(f, NormKind.Calpha)
    semi = val - 1.0  # subtract the Linf part
    # separation 1/2 gives |f(0) - f(1/2)| / sqrt(1/2) = 2 sqrt(2)
    assert semi >= 2 * np.sqrt(2) - 1e-9
    assert semi <= 2 * np.pi


def reference_holder_seminorm(f):
    """The Hoelder scan with one np.roll copy per dyadic offset and direction."""
    n, h, v = f.grid.n, f.grid.h, f.values
    best, j = 0.0, 0
    while (1 << j) <= n // 2:
        s = (1 << j) * h
        d = min(s, 1.0 - s)
        step = 1 << j
        ax = max(float(np.max(np.abs(v - np.roll(v, step, axis=0)))),
                 float(np.max(np.abs(v - np.roll(v, step, axis=1)))))
        diag = max(float(np.max(np.abs(v - np.roll(v, (step, step), axis=(0, 1))))),
                   float(np.max(np.abs(v - np.roll(v, (step, -step), axis=(0, 1))))))
        if d > 0:
            best = max(best, ax / d ** HOLDER_ALPHA,
                       diag / (np.sqrt(2.0) * d) ** HOLDER_ALPHA)
        j += 1
    return best


@pytest.mark.parametrize("n", [32, 64, 128])
def test_holder_seminorm_matches_roll_reference(n):
    # the offsets read as views of one periodic tiling give the same bits
    rng = np.random.default_rng(n)
    for _ in range(5):
        f = ScalarField(TorusGrid(n), rng.uniform(0.1, 10.0) * rng.standard_normal((n, n)))
        assert _holder_seminorm(f) == reference_holder_seminorm(f)


def test_sobolev_interpolation_sharp():
    # || f ||_{H^s} <= || f ||_{H^s0}^{th} || f ||_{H^s1}^{1-th} holds with
    # constant exactly 1; a single mode saturates it.
    g = TorusGrid(64)
    f = field_from(g, lambda x, y: np.sin(2 * np.pi * (2 * x + y)))
    n0 = norm(f, NormKind.Hs(-1.0))
    n1 = norm(f, NormKind.Hs(1.0))
    nmid = norm(f, NormKind.Hs(0.0))
    assert nmid == pytest.approx(np.sqrt(n0 * n1), rel=1e-12)

    rng = np.random.default_rng(11)
    vals = rng.standard_normal((64, 64))
    vals -= vals.mean()
    h = ScalarField(g, vals)
    lhs = norm(h, NormKind.Hs(0.0))
    rhs = np.sqrt(norm(h, NormKind.Hs(-1.0)) * norm(h, NormKind.Hs(1.0)))
    assert lhs <= rhs * (1 + 1e-12)


def test_norm_positive_definite(grid):
    z = ScalarField.zeros(grid)
    for kind in (NormKind.L2, NormKind.Linf, NormKind.Hminus1, NormKind.GradLinf):
        assert norm(z, kind) == 0.0


# --- the full-spectrum path, kept as the reference ------------------------
# The operators ran on full fft2 spectra (multipliers built per call from
# integer frequencies, real part of the inverse transform) before they
# moved to the rfft2 half-spectrum kernel; the kernel must reproduce them.

def full_tables(n):
    freqs = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)
    p, q = np.meshgrid(freqs, freqs, indexing="ij")
    k_mag = 2.0 * np.pi * np.sqrt(p.astype(float) ** 2 + q.astype(float) ** 2)
    mask = np.maximum(np.abs(p), np.abs(q)) <= n / 3.0
    inv_lap = np.zeros_like(k_mag)
    nz = k_mag > 0
    inv_lap[nz] = -1.0 / k_mag[nz] ** 2
    return p, q, k_mag, mask, inv_lap


def reference_derivative(values, order):
    p, q = full_tables(values.shape[0])[:2]
    a, b = order
    mult = (2j * np.pi * p) ** a * (2j * np.pi * q) ** b
    return np.real(np.fft.ifft2(mult * np.fft.fft2(values)))


def reference_inv_laplacian(values):
    return np.real(np.fft.ifft2(full_tables(values.shape[0])[4] * np.fft.fft2(values)))


def reference_dealias(values):
    return np.real(np.fft.ifft2(full_tables(values.shape[0])[3] * np.fft.fft2(values)))


def reference_hs_norm(values, s):
    n = values.shape[0]
    km = full_tables(n)[2]
    c2 = np.abs(np.fft.fft2(values) / n ** 2) ** 2
    nz = km > 0
    return float(np.sqrt(np.sum(km[nz] ** (2.0 * s) * c2[nz])))


def reference_grad_linf(values):
    return float(np.max(np.hypot(reference_derivative(values, (1, 0)),
                                 reference_derivative(values, (0, 1)))))


def nyquist_field(n, seed):
    """Mean-zero white noise plus explicit Nyquist-row and -column modes."""
    rng = np.random.default_rng([n, seed])
    x = np.arange(n) / n
    X, Y = np.meshgrid(x, x, indexing="ij")
    vals = (rng.standard_normal((n, n)) + np.cos(np.pi * n * X) * np.sin(2 * np.pi * 3 * Y)
            + np.cos(np.pi * n * Y) * np.cos(2 * np.pi * X))
    vals -= vals.mean()
    spec = np.abs(np.fft.fft2(vals))
    assert spec[n // 2].max() > 1e-3 * spec.max() and spec[:, n // 2].max() > 1e-3 * spec.max()
    return ScalarField(TorusGrid(n), vals)


def assert_close(got, want, rel=1e-13):
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


@pytest.mark.parametrize("n", [8, 32, 64])
@pytest.mark.parametrize("seed", [0, 1])
def test_operators_match_full_spectrum_reference(n, seed):
    f = nyquist_field(n, seed)
    for order in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
        assert_close(derivative(f, order).values, reference_derivative(f.values, order))
    assert_close(inv_laplacian(f).values, reference_inv_laplacian(f.values))
    assert_close(dealias(f).values, reference_dealias(f.values))
    ux, uy = perp_gradient(f)
    assert_close(ux.values, -reference_derivative(f.values, (0, 1)))
    assert_close(uy.values, reference_derivative(f.values, (1, 0)))


@pytest.mark.parametrize("n", [8, 32, 64])
@pytest.mark.parametrize("seed", [0, 1])
def test_norms_match_full_spectrum_reference(n, seed):
    f = nyquist_field(n, seed)
    for s in (-1.0, 1.0, 2.0, 3.0):
        assert norm(f, NormKind.Hs(s)) == pytest.approx(reference_hs_norm(f.values, s), rel=1e-13)
    assert norm(f, NormKind.GradLinf) == pytest.approx(reference_grad_linf(f.values), rel=1e-13)


def test_half_spectrum_is_cached_and_read_only(grid):
    f = field_from(grid, lambda x, y: np.cos(2 * np.pi * x))
    assert f.hat is f.hat
    assert np.array_equal(f.hat, np.fft.rfft2(f.values))
    with pytest.raises(ValueError):
        f.hat[0, 0] = 1.0


@pytest.mark.parametrize("n", [32, 64, 128])
@pytest.mark.parametrize("lead", [(), (2,), (3,)], ids=["single", "stack2", "stack3"])
def test_two_stage_transforms_equal_numpy_bit_for_bit(n, lead):
    rng = np.random.default_rng([n, len(lead)])
    values = rng.standard_normal(lead + (n, n))
    hat = np.fft.rfft2(values)
    assert np.array_equal(rfft2(values), hat)
    # a generic half-spectrum too, not only one that came from real values
    hat = hat + 1j * rng.standard_normal(hat.shape)
    assert np.array_equal(irfft2(hat), np.fft.irfft2(hat))


def test_irfft2_outputs_do_not_share_its_buffer():
    rng = np.random.default_rng(3)
    a, b = np.fft.rfft2(rng.standard_normal((2, 2, 32, 32)))
    first = irfft2(a)
    kept = first.copy()
    second = irfft2(b)
    assert np.array_equal(first, kept)
    assert not np.shares_memory(first, second)


def test_irfft2_threads_keep_their_own_buffers():
    import threading

    rng = np.random.default_rng(4)
    hats = np.fft.rfft2(rng.standard_normal((2, 3, 64, 64)))
    bad = []

    def worker(hat):
        want = np.fft.irfft2(hat)
        bad.extend(k for k in range(200) if not np.array_equal(irfft2(hat), want))

    threads = [threading.Thread(target=worker, args=(h,)) for h in hats]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert bad == []
