import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from conftest import product_time_ratio, random_unit
from hypothesis import given, settings
from hypothesis import strategies as st

import hankeleig
from hankeleig import fft_products
from hankeleig.dense_oracle import (dense_hessian, dense_xm, dense_xm1,
                                    dense_xm2, materialize)
from hankeleig.fft_products import (_DFT_MAX_ENTRIES, HankelSpec,
                                    _dft_matrices, _fast_len, _norm,
                                    _workspace, _xm1_from_power,
                                    _xm_and_power, hankel_xm, hankel_xm1,
                                    make_cache)
from hankeleig.generators import Family, FamilySpec, generate
from hankeleig.objective import (BTensorKind, ReferenceProducts, _evaluate,
                                 _power, evaluate, residual)
from hankeleig.solver import (Extreme, SolverOptions, Termination,
                              cayley_step, curvilinear_search, multistart,
                              solve)


def test_spec_validation():
    with pytest.raises(ValueError, match="m\\*\\(n-1\\)\\+1 = 13"):
        HankelSpec(m=4, n=4, v=np.zeros(12))
    with pytest.raises(ValueError):
        HankelSpec(m=1, n=3, v=np.zeros(3))
    with pytest.raises(ValueError):
        HankelSpec(m=2, n=0, v=np.zeros(1))
    spec = HankelSpec(m=3, n=2, v=[0.0, 1.0, 2.0, 3.0])
    assert spec.ell == 4
    assert spec.v.dtype == np.float64
    # a non-finite or boolean m or n is a ValueError that names it
    for bad in (math.inf, -math.inf, math.nan, True, np.True_, 2.5):
        with pytest.raises(ValueError, match="tensor order m "):
            HankelSpec(m=bad, n=2, v=np.zeros(3))
        with pytest.raises(ValueError, match="dimension n "):
            HankelSpec(m=2, n=bad, v=np.zeros(3))
    spec = HankelSpec(m=4.0, n=np.float64(2.0), v=np.zeros(5))
    assert (spec.m, spec.n) == (4, 2) and type(spec.m) is type(spec.n) is int


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spec_rejects_non_finite_generating_vector(bad):
    v = np.ones(13)
    v[5] = bad
    with pytest.raises(ValueError, match="NaN or infinite"):
        HankelSpec(m=4, n=4, v=v)


def unscaled(cache, spectrum):
    """A cached spectrum in the units of ``v``: the cache holds the spectra
    of ``v * 2**-cache.exponent``."""
    return math.ldexp(1.0, cache.exponent) * spectrum


def test_cache_trivial_length_one():
    spec = HankelSpec(m=2, n=1, v=[5.0])
    cache = make_cache(spec)
    assert cache.size == 1
    assert np.allclose(unscaled(cache, cache.vhat), [5.0])
    assert hankel_xm(cache, spec, [2.0]) == pytest.approx(20.0, rel=1e-15)
    assert np.allclose(hankel_xm1(cache, spec, [2.0]), [10.0], rtol=1e-15)


def test_cache_matches_explicit_three_point_dft():
    spec = HankelSpec(m=2, n=2, v=[1.0, 2.0, 3.0])
    cache = make_cache(spec)
    assert cache.size == 3
    # independent oracle: the forward DFT written out entry by entry
    expected = np.array([
        sum(spec.v[j] * np.exp(-2j * np.pi * j * k / 3) for j in range(3))
        for k in range(2)
    ])
    vhat = unscaled(cache, cache.vhat)
    assert np.allclose(vhat, expected, atol=1e-14)
    assert np.allclose(vhat, [6.0, -1.5 + 0.5j * np.sqrt(3.0)])


@pytest.mark.parametrize("m,n", [(2, 2), (3, 4), (4, 5), (2, 1300), (4, 700)])
def test_cache_round_trips_generating_vector(m, n):
    rng = np.random.default_rng(m * 100 + n)
    spec = HankelSpec(m=m, n=n, v=rng.standard_normal(m * (n - 1) + 1))
    cache = make_cache(spec)
    assert cache.size >= spec.ell
    # numpy's FFT is the independent reference transform here; the padding
    # past ell must come back as zeros
    back = np.fft.irfft(unscaled(cache, cache.vhat), cache.size)
    padded = np.concatenate([spec.v, np.zeros(cache.size - spec.ell)])
    assert np.max(np.abs(back - padded)) <= 1e-12 * max(1.0, np.max(np.abs(spec.v)))


def test_xm_reads_off_corner_entry():
    spec = HankelSpec(m=2, n=2, v=[1.0, 2.0, 3.0])
    cache = make_cache(spec)
    assert hankel_xm(cache, spec, [1.0, 0.0]) == pytest.approx(1.0, abs=1e-12)


def test_xm_small_enumeration_case():
    # sum over {1,2}^3 of v[i+j+k-3] = v0 + 3 v1 + 3 v2 + v3 = 12
    spec = HankelSpec(m=3, n=2, v=[0.0, 1.0, 2.0, 3.0])
    cache = make_cache(spec)
    assert hankel_xm(cache, spec, [1.0, 1.0]) == pytest.approx(12.0, rel=1e-12)
    assert np.allclose(hankel_xm1(cache, spec, [1.0, 1.0]), [4.0, 8.0], rtol=1e-12)


def test_xm1_matrix_row_and_first_basis_vector():
    spec = HankelSpec(m=2, n=2, v=[1.0, 2.0, 3.0])
    cache = make_cache(spec)
    assert np.allclose(hankel_xm1(cache, spec, [0.0, 1.0]), [2.0, 3.0])

    rng = np.random.default_rng(0)
    for m, n in [(2, 4), (3, 5), (4, 3), (5, 6)]:
        spec = HankelSpec(m=m, n=n, v=rng.standard_normal(m * (n - 1) + 1))
        cache = make_cache(spec)
        e1 = np.zeros(n)
        e1[0] = 1.0
        assert np.allclose(hankel_xm1(cache, spec, e1), spec.v[:n], atol=1e-12)


def test_matches_dense_oracle_on_grid():
    rng = np.random.default_rng(7)
    for m in range(2, 7):
        for n in range(1, 9):
            for _ in range(3):
                spec = HankelSpec(m=m, n=n, v=rng.standard_normal(m * (n - 1) + 1))
                cache = make_cache(spec)
                x = rng.standard_normal(n)
                dense = materialize(spec)
                ref = dense_xm(dense, x)
                assert abs(hankel_xm(cache, spec, x) - ref) <= 1e-10 * (1 + abs(ref))
                ref1 = dense_xm1(dense, x)
                err = np.abs(hankel_xm1(cache, spec, x) - ref1)
                assert np.all(err <= 1e-10 * (1 + np.abs(ref1)))


@pytest.mark.parametrize("n", [1300, 2500, 1027, 2050])
def test_order_two_matches_dense_oracle(n):
    # order two keeps n^m under the oracle cap at lengths in the thousands;
    # n = 1027 and 2050 give the prime lengths ell = 2053 and 4099, whose
    # transforms are padded to a smooth size
    rng = np.random.default_rng(19 + n)
    spec = HankelSpec(m=2, n=n, v=rng.standard_normal(2 * n - 1))
    cache = make_cache(spec)
    x = rng.standard_normal(n)
    dense = materialize(spec)
    ref = dense_xm(dense, x)
    assert abs(hankel_xm(cache, spec, x) - ref) <= 1e-10 * (1 + abs(ref))
    ref1 = dense_xm1(dense, x)
    err = np.abs(hankel_xm1(cache, spec, x) - ref1)
    assert np.all(err <= 1e-10 * (1 + np.abs(ref1)))


@pytest.mark.parametrize("m,n", [(4, 1000), (3, 1500), (6, 401)])
def test_high_order_matches_direct_correlation(m, n):
    # beyond the dense oracle's cap: H x^{m-1} as np.correlate of v with the
    # (m-1)-fold np.convolve of x, summed in the signal domain
    rng = np.random.default_rng(m * 1000 + n)
    spec = HankelSpec(m=m, n=n, v=rng.standard_normal(m * (n - 1) + 1))
    cache = make_cache(spec)
    x = rng.standard_normal(n)
    c = x
    for _ in range(m - 2):
        c = np.convolve(c, x)
    ref1 = np.correlate(spec.v, c, mode="valid")
    scale = 1.0 + np.max(np.abs(ref1))
    assert np.max(np.abs(hankel_xm1(cache, spec, x) - ref1)) <= 1e-10 * scale
    ref = float(spec.v @ np.convolve(c, x))
    assert abs(hankel_xm(cache, spec, x) - ref) <= 1e-10 * (1.0 + abs(ref))


@pytest.mark.parametrize("m, size", [(4, 16000), (6, 24000)])
def test_products_past_the_oracle_cap_at_smooth_sizes(m, size):
    # n = 4000, far past the dense oracle's cap, at 5-smooth transform
    # sizes that are not powers of two, under criterion 1's metric: the
    # reference is v correlated with the (m-1)-fold convolution of x
    n = 4000
    rng = np.random.default_rng(m)
    spec = HankelSpec(m=m, n=n, v=rng.standard_normal(m * (n - 1) + 1))
    cache = make_cache(spec)
    assert cache.size == size
    x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    ref1 = np.correlate(spec.v, reduce(np.convolve, [x] * (m - 1)), "valid")
    ref = float(ref1 @ x)
    err1 = np.abs(hankel_xm1(cache, spec, x) - ref1) / (1.0 + np.abs(ref1))
    assert np.max(err1) <= 1e-10
    assert abs(hankel_xm(cache, spec, x) - ref) / (1.0 + abs(ref)) <= 1e-10


@pytest.mark.parametrize("e", [-1070, -600, 0, 600, 1020])
def test_norm_is_exact_where_its_square_leaves_the_range(e):
    # 3-4-5 scaled by 2**e: the squares underflow at -600 and -1070 (the
    # entries subnormal) and overflow at 600 and 1020; the norm keeps its bits
    assert _norm(np.ldexp([3.0, 4.0], e)) == math.ldexp(5.0, e)


def test_norm_above_the_float_range_is_inf():
    assert _norm(np.full(4, 2.0 ** 1023)) == math.inf
    assert _norm(np.zeros(3)) == 0.0


def test_contraction_identity():
    rng = np.random.default_rng(3)
    for m, n in [(2, 6), (4, 9), (6, 5), (3, 8)]:
        spec = HankelSpec(m=m, n=n, v=rng.standard_normal(m * (n - 1) + 1))
        cache = make_cache(spec)
        for _ in range(20):
            x = rng.standard_normal(n)
            scalar = hankel_xm(cache, spec, x)
            dotted = float(x @ hankel_xm1(cache, spec, x))
            assert abs(scalar - dotted) <= 1e-12 * max(1.0, abs(scalar))


@pytest.mark.parametrize("c", [-2.0, 0.5])
def test_homogeneity(c):
    rng = np.random.default_rng(11)
    for m, n in [(2, 5), (3, 4), (4, 6), (5, 3), (6, 4)]:
        spec = HankelSpec(m=m, n=n, v=rng.standard_normal(m * (n - 1) + 1))
        cache = make_cache(spec)
        x = rng.standard_normal(n)
        base = hankel_xm(cache, spec, x)
        scaled = hankel_xm(cache, spec, c * x)
        assert abs(scaled - c ** m * base) <= 1e-10 * max(1.0, abs(c ** m * base))


def test_x_length_checked():
    spec = HankelSpec(m=3, n=2, v=np.zeros(4))
    cache = make_cache(spec)
    with pytest.raises(ValueError, match="length n = 2"):
        hankel_xm(cache, spec, [1.0, 2.0, 3.0])
    # Every public entry checks its vector; the kernel below them does not.
    # A length-1 x_k would broadcast against a length-2 gradient.
    z = BTensorKind.Z_IDENTITY
    ev = evaluate(spec, cache, z, [0.6, 0.8])
    entries = [
        lambda x: hankel_xm1(cache, spec, x),
        lambda x: evaluate(spec, cache, z, x),
        lambda x: curvilinear_search(spec, cache, z, x, ev, 0.5,
                                     SolverOptions()),
    ]
    for entry in entries:
        for x in ([1.0], [1.0 / 3, 2.0 / 3, 2.0 / 3]):
            with pytest.raises(ValueError, match="length n = 2"):
                entry(x)
    # The other vector arguments, each named in its error: a gradient and a
    # Cayley direction would broadcast against x, a start is not checked
    # twice, and the dense oracle checks through the same function.
    spec = HankelSpec(m=4, n=2, v=[1.0, -0.5, 2.0, 0.25, 1.5])
    cache = make_cache(spec)
    dense = materialize(spec)
    x = np.array([0.6, 0.8])
    ev = evaluate(spec, cache, z, x)
    named = [
        ("g", lambda v: curvilinear_search(spec, cache, z, x,
                                           replace(ev, g=np.array(v)), 0.5,
                                           SolverOptions())),
        ("p", lambda v: cayley_step(x, v, 0.5, Extreme.MIN)),
        ("x_1", lambda v: solve(spec, z, SolverOptions(), x_1=v)),
        ("x", lambda v: dense_xm(dense, v)),
        ("x", lambda v: dense_xm1(dense, v)),
        ("x", lambda v: dense_xm2(dense, v)),
        ("x", lambda v: dense_hessian(dense, z, v)),
    ]
    for name, entry in named:
        for v in ([1.0], [1.0 / 3, 2.0 / 3, 2.0 / 3]):
            with pytest.raises(ValueError,
                               match=re.escape(f"{name} must have length n = 2")):
                entry(v)
    # A custom B x^{m-1} of the wrong length would broadcast in the residual
    # and fail inside numpy in the gradient.
    for length in (1, 3):
        short = ReferenceProducts(lambda m, v: 1.0,
                                  lambda m, v, k=length: np.ones(k))
        for entry in (lambda: residual(spec, cache, short, x, 1.0),
                      lambda: evaluate(spec, cache, short, x)):
            with pytest.raises(ValueError,
                               match=re.escape("B x^{m-1} must have length n = 2")):
                entry()


def test_product_time_scales_like_n_log_n():
    # doubling the dimension must cost at most 3x (median of 20, measured
    # interleaved so both sizes see the same machine noise, in up to three
    # rounds)
    m = 4
    rng = np.random.default_rng(9)
    setups = []
    for n in (2 ** 14, 2 ** 15):
        spec = HankelSpec(m=m, n=n, v=rng.standard_normal(m * (n - 1) + 1))
        cache = make_cache(spec)
        x = rng.standard_normal(n)
        hankel_xm1(cache, spec, x)
        setups.append((spec, cache, x))
    ratio = product_time_ratio(*setups, reps=20, bound=3.0)
    assert ratio <= 3.0, f"time at 2n over time at n = {ratio:.2f}"


def test_products_in_a_workspace_allocate_no_spectrum():
    # The transforms run in the two workspace buffers, and H x^{m-1} is
    # read where the inverse transform leaves it, so the pair allocates
    # nothing as long as a half spectrum of floats, let alone a signal or
    # a complex half spectrum.
    m, n = 4, 20000
    rng = np.random.default_rng(5)
    spec = HankelSpec(m=m, n=n, v=rng.standard_normal(m * (n - 1) + 1))
    cache = make_cache(spec)
    x = rng.standard_normal(n)
    ws = _workspace(spec, cache)
    want = hankel_xm1(cache, spec, x)
    _xm_and_power(ws, x)
    _xm1_from_power(ws)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        hxm = _xm_and_power(ws, x)
        hxm1 = _xm1_from_power(ws)
        allocated = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert allocated < 8 * (cache.size // 2 + 1), allocated
    assert np.array_equal(hxm1, want)
    assert hxm == hankel_xm(cache, spec, x)


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_spectral_power_is_the_power_loop_bitwise(m, parity):
    # The kernel starts z**(m-1) with z * z into the workspace instead of a
    # copy of z; the spectrum it leaves must be _power's to the last bit.
    n = next(n for n in range(2, 60)
             if _fast_len(m * (n - 1) + 1) % 2 == (parity == "odd"))
    rng = np.random.default_rng(10 * m + n)
    spec = HankelSpec(m=m, n=n, v=rng.standard_normal(m * (n - 1) + 1))
    cache = make_cache(spec)
    ws = _workspace(spec, cache)
    for _ in range(5):
        x = rng.standard_normal(n)
        _xm_and_power(ws, x)
        # the kernel's own forward transform: at these sizes the product
        # with the cache's forward DFT matrix
        z = np.dot(x, cache.dft[0]).view(complex)
        loop = _power(z, m - 1)
        assert ws.power.tobytes() == loop.tobytes()


def _dft_entries(m, n):
    """The entries of each DFT matrix of an order-m, dimension-n tensor,
    and whether its transform size is odd."""
    size = _fast_len(m * (n - 1) + 1)
    return n * 2 * (size // 2 + 1), size % 2 == 1


def _largest_fitting(m):
    """The largest n whose DFT matrices fit the bound."""
    return next(n for n in range(1, 400)
                if _dft_entries(m, n + 1)[0] > _DFT_MAX_ENTRIES)


def _dimension(m, parity, side):
    """The largest n whose matrices fit the bound ("below"), or the least
    n past it ("above"), whose transform size has the given parity."""
    odd, top = parity == "odd", _largest_fitting(m)
    near = range(top, 0, -1) if side == "below" else range(top + 1, 400)
    return next(n for n in near if _dft_entries(m, n)[1] == odd)


@pytest.mark.parametrize("side", ["below", "above"])
@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("m", [2, 3, 4, 6])
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       k=st.integers(4, 600).flatmap(lambda k: st.sampled_from([k, -k])))
def test_dft_and_fft_kernels_agree(m, parity, side, seed, k):
    # The same products from the two transforms of the kernel, the matrix
    # products of the DFT matrices and numpy.fft, to 1e-13 of the size of
    # H x^{m-1}: below the bound the FFT path is forced by a copy of the
    # cache without matrices, above it the DFT path by a copy with them.
    # v is scaled by 2**k so that the cache's exponent is not 0.
    n = _dimension(m, parity, side)
    rng = np.random.default_rng(seed)
    spec = HankelSpec(m, n, np.ldexp(rng.standard_normal(m * (n - 1) + 1), k))
    cache = make_cache(spec)
    assert cache.exponent != 0 and cache.size % 2 == (parity == "odd")
    assert (cache.dft is None) == (side == "above")
    fft = replace(cache, dft=None)
    dft = replace(cache, dft=_dft_matrices(n, cache.size, cache.vhat))
    x = random_unit(rng, n)
    want1 = hankel_xm1(fft, spec, x)
    scale = np.max(np.abs(want1))
    tol = 1e-13 * scale
    assert np.max(np.abs(hankel_xm1(dft, spec, x) - want1)) <= tol
    assert abs(hankel_xm(dft, spec, x) - hankel_xm(fft, spec, x)) <= tol
    if m % 2:
        return  # the quotient needs an even order
    for kind in BTensorKind:
        want = _evaluate(kind, x, _workspace(spec, fft))
        got = _evaluate(kind, x, _workspace(spec, dft))
        assert abs(got.f - want.f) <= tol / want.bxm
        assert np.max(np.abs(got.g - want.g)) <= m * tol / want.bxm
        assert abs(got.residual - want.residual) <= tol


@pytest.mark.parametrize("m", [2, 4, 6])
def test_the_bound_selects_the_kernel(m):
    # Each DFT matrix has n * 2 * (size//2 + 1) entries: at the bound or
    # below it the cache holds both, past it neither, and the products on
    # either side meet criterion 1 against v correlated with the
    # (m-1)-fold convolution of x.
    top = _largest_fitting(m)
    rng = np.random.default_rng(m)
    for n, fits in ((top, True), (top + 1, False)):
        spec = HankelSpec(m, n, rng.standard_normal(m * (n - 1) + 1))
        cache = make_cache(spec)
        assert (cache.dft is not None) is fits
        if fits:
            k = cache.size // 2 + 1
            forward, inverse = cache.dft
            assert forward.shape == (n, 2 * k) and inverse.shape == (2 * k, n)
            assert forward.size <= _DFT_MAX_ENTRIES
            assert not forward.flags.writeable and not inverse.flags.writeable
            ws = _workspace(spec, cache)  # bound, not copied
            assert ws.forward is forward and ws.inverse is inverse
        x = rng.standard_normal(n)
        ref1 = np.correlate(spec.v, reduce(np.convolve, [x] * (m - 1)),
                            "valid")
        err1 = np.abs(hankel_xm1(cache, spec, x) - ref1) / (1.0 + np.abs(ref1))
        assert np.max(err1) <= 1e-10
        ref = float(ref1 @ x)
        assert abs(hankel_xm(cache, spec, x) - ref) / (1.0 + abs(ref)) <= 1e-10


def test_sine_multistart_is_the_fft_kernels(monkeypatch):
    # The headline run on the DFT path takes the steps of the FFT path,
    # start by start, and finds the same eigenvalue to 1e-12.  A start's
    # last step meets the rounding floor of the Armijo test ([floor] in
    # ROADMAP.md), where rounding alone decides its backtracks, and for
    # three starts whether it stalls or converges one step later.  Those
    # three are pinned.  Its one pair of matrices serves all starts.
    spec = generate(FamilySpec(Family.SIN, 4, 5))
    opts = SolverOptions(starts=100, seed=1, extreme=Extreme.MIN)
    z = BTensorKind.Z_IDENTITY
    builds = []

    def counted(*args):
        builds.append(args)
        return _dft_matrices(*args)

    monkeypatch.setattr(fft_products, "_dft_matrices", counted)
    dft = multistart(spec, z, opts)
    assert len(builds) == 1
    monkeypatch.setattr(hankeleig.solver, "make_cache",
                        lambda s: replace(make_cache(s), dft=None))
    fft = multistart(spec, z, opts)
    assert sum(r.iterations for r in dft.results) == 1381
    stall, converged = Termination.LINESEARCH_STALL, Termination.CONVERGED
    ends = [((a.iterations, a.termination), (b.iterations, b.termination))
            for a, b in zip(dft.results, fft.results)]
    assert {i: e for i, e in enumerate(ends) if e[0] != e[1]} == {
        11: ((12, converged), (11, stall)),
        29: ((12, stall), (13, converged)),
        90: ((12, stall), (13, converged)),
    }
    for a, b in zip(dft.results, fft.results):
        last = min(a.iterations, b.iterations) - 1
        assert ([a.trace[k].backtracks for k in range(last)]
                == [b.trace[k].backtracks for k in range(last)])
        assert a.eigenvalue == pytest.approx(b.eigenvalue, rel=1e-12)
    assert abs(dft.best.eigenvalue - fft.best.eigenvalue) <= 1e-12


def test_cache_keeps_one_half_spectrum():
    # Both products read vhat, so the cache holds one complex half spectrum
    # and nothing else of that size.
    m, n = 4, 20000
    spec = HankelSpec(m=m, n=n,
                      v=np.random.default_rng(6).standard_normal(m * (n - 1) + 1))
    make_cache(spec)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cache = make_cache(spec)
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert kept <= 16 * (cache.size // 2 + 1) + 1024, kept


def _is_5_smooth(k):
    for p in (2, 3, 5):
        while k % p == 0:
            k //= p
    return k == 1


def test_fast_len_is_the_least_5_smooth_length():
    smooth = [k for k in range(1, 20001) if _is_5_smooth(k)]
    nxt = iter(smooth)
    want = next(nxt)
    for t in range(1, 20001):
        if want < t:
            want = next(nxt)
        assert _fast_len(t) == want, t


@pytest.mark.parametrize("ell,size", [
    (1, 1), (17, 18), (5995, 6000), (79997, 80000),
    (399997, 400000), (3999997, 4000000),
])
def test_fast_len_at_benchmark_lengths(ell, size):
    assert _fast_len(ell) == size


def test_fast_len_matches_scipy():
    next_fast_len = pytest.importorskip("scipy.fft").next_fast_len
    rng = np.random.default_rng(12)
    lengths = [*range(1, 5001), *rng.integers(1, 10 ** 9, 2000).tolist()]
    for t in lengths:
        assert _fast_len(t) == next_fast_len(t, real=True), t


def test_importing_the_cli_loads_no_scipy():
    # the copy of the package the suite imports, from src/ or installed
    root = Path(hankeleig.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(root))
    probe = ("import sys, hankeleig.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
