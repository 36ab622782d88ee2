"""Property tests of the symmetries of the Hankel eigenproblem.

Scaling ``v`` by ``2**k`` scales every eigenvalue by ``2**k`` and leaves
the eigenvectors alone; negating ``v`` swaps the smallest and the largest
eigenvalue; reversing ``v`` reverses the index order of the tensor.
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hankeleig.fft_products import HankelSpec, hankel_xm, hankel_xm1, make_cache
from hankeleig.objective import BTensorKind, evaluate
from hankeleig.solver import Extreme, SolverOptions, solve

KINDS = st.sampled_from(list(BTensorKind))
EXTREMES = st.sampled_from(list(Extreme))

# Entries are zero or far from the subnormal range, so that 2**k * v is
# exact for the k drawn below.
ENTRIES = st.floats(-1e3, 1e3).map(lambda t: t if abs(t) > 1e-200 else 0.0)


@st.composite
def specs(draw, orders=(2, 4)):
    m = draw(st.sampled_from(orders))
    n = draw(st.integers(1, 6))
    ell = m * (n - 1) + 1
    return HankelSpec(m, n, draw(st.lists(ENTRIES, min_size=ell, max_size=ell)))


def _unit(seed, n):
    x = np.random.default_rng(seed).standard_normal(n)
    return x / np.linalg.norm(x)


@settings(max_examples=40, deadline=None)
@given(spec=specs(), kind=KINDS, extreme=EXTREMES,
       seed=st.integers(0, 2 ** 16), k=st.integers(-100, 100))
def test_solve_is_bitwise_covariant_under_powers_of_two(spec, kind, extreme,
                                                        seed, k):
    opts = SolverOptions(extreme=extreme, seed=seed, max_iter=50)
    base = solve(spec, kind, opts)
    res = solve(HankelSpec(spec.m, spec.n, np.ldexp(spec.v, k)), kind, opts)
    assert res.eigenvalue == math.ldexp(base.eigenvalue, k)
    assert res.residual == math.ldexp(base.residual, k)
    assert np.array_equal(res.x, base.x)
    assert res.termination is base.termination
    assert res.stats == base.stats
    assert res.trace == [replace(r, lambda_k=math.ldexp(r.lambda_k, k),
                                 grad_norm=math.ldexp(r.grad_norm, k),
                                 alpha_k=math.ldexp(r.alpha_k, -k))
                         for r in base.trace]


@settings(max_examples=40, deadline=None)
@given(spec=specs(), kind=KINDS, seed=st.integers(0, 2 ** 16))
def test_min_of_negated_tensor_is_minus_max(spec, kind, seed):
    opts = SolverOptions(seed=seed, max_iter=50)
    top = solve(spec, kind, replace(opts, extreme=Extreme.MAX))
    low = solve(HankelSpec(spec.m, spec.n, -spec.v), kind,
                replace(opts, extreme=Extreme.MIN))
    assert low.eigenvalue == -top.eigenvalue
    assert np.array_equal(low.x, top.x)
    assert low.stats == top.stats
    assert [r.lambda_k for r in low.trace] == [-r.lambda_k for r in top.trace]


@settings(max_examples=60, deadline=None)
@given(spec=specs(orders=(2, 3, 4, 6)), seed=st.integers(0, 2 ** 16))
def test_reversed_vector_reverses_the_products(spec, seed):
    # T[i1..im] = v[ell-1 - sum(i)] = H[n-1-i1, ..., n-1-im], so T x^m is
    # H (Jx)^m and T x^{m-1} is J H (Jx)^{m-1}, J the reversal
    rev = HankelSpec(spec.m, spec.n, spec.v[::-1])
    cache, rcache = make_cache(spec), make_cache(rev)
    x = _unit(seed, spec.n)
    jx = x[::-1]
    # the size of the terms the products sum, which bounds their roundoff
    scale = max(1e-300, float(np.max(np.abs(spec.v)))
                * float(np.sum(np.abs(x))) ** spec.m)
    assert abs(hankel_xm(rcache, rev, x) - hankel_xm(cache, spec, jx)) \
        <= 1e-13 * scale
    assert np.max(np.abs(hankel_xm1(rcache, rev, x)
                         - hankel_xm1(cache, spec, jx)[::-1])) <= 1e-13 * scale
    if spec.m % 2:
        return
    for kind in BTensorKind:
        a, b = evaluate(rev, rcache, kind, x), evaluate(spec, cache, kind, jx)
        tol = 1e-13 * spec.m * scale / a.bxm
        assert abs(a.f - b.f) <= tol
        assert np.max(np.abs(a.g - b.g[::-1])) <= tol
