import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hankeleig.dense_oracle import (dense_hessian, dense_xm, dense_xm1,
                                    dense_xm2, materialize)
from hankeleig.fft_products import (HankelSpec, _fast_len, _workspace,
                                    _xm1_from_power, _xm_and_power, hankel_xm,
                                    hankel_xm1, make_cache)
from hankeleig.objective import (BTensorKind, ReferenceProducts, evaluate,
                                 residual)
from hankeleig.solver import (Extreme, SolverOptions, cayley_step,
                              curvilinear_search, solve)

SRC = Path(__file__).resolve().parents[1] / "src"


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
    # interleaved so both sizes see the same machine noise)
    m = 4
    rng = np.random.default_rng(9)
    setups = []
    for n in (2 ** 14, 2 ** 15):
        spec = HankelSpec(m=m, n=n, v=rng.standard_normal(m * (n - 1) + 1))
        cache = make_cache(spec)
        x = rng.standard_normal(n)
        hankel_xm1(cache, spec, x)
        setups.append((spec, cache, x))
    samples = [[], []]
    for _ in range(20):
        for slot, (spec, cache, x) in enumerate(setups):
            tic = time.perf_counter()
            hankel_xm1(cache, spec, x)
            samples[slot].append(time.perf_counter() - tic)
    small, big = (float(np.median(s)) for s in samples)
    assert big <= 3.0 * small, f"time at 2n = {big:.4f}s vs {small:.4f}s at n"


def test_products_in_a_workspace_allocate_no_spectrum():
    # The transforms run in the two workspace buffers, so the pair allocates
    # only the length-n copy of H x^{m-1}: nothing as long as a half
    # spectrum of floats, let alone a signal or a complex half spectrum.
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
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = ("import sys, hankeleig.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
