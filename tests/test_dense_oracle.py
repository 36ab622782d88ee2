import numpy as np
import pytest
from conftest import raw_quotient_gradient, random_unit

from hankeleig.dense_oracle import (
    DEFAULT_ENTRY_CAP,
    OracleCapError,
    dense_hessian,
    dense_xm,
    dense_xm1,
    dense_xm2,
    materialize,
)
from hankeleig.fft_products import HankelSpec, make_cache
from hankeleig.generators import Family, FamilySpec, generate
from hankeleig.objective import BTensorKind, InvalidReferenceTensorError
from hankeleig.solver import Extreme, SolverOptions, multistart


def test_materialize_third_order_two_dimensional():
    spec = HankelSpec(m=3, n=2, v=[10.0, 11.0, 12.0, 13.0])
    t = materialize(spec)
    v = spec.v
    expected = np.array([
        [[v[0], v[1]], [v[1], v[2]]],
        [[v[1], v[2]], [v[2], v[3]]],
    ])
    assert np.array_equal(t, expected)


def test_materialize_matrix_case():
    spec = HankelSpec(m=2, n=3, v=[1.0, 2.0, 3.0, 4.0, 5.0])
    t = materialize(spec)
    assert np.array_equal(t, [[1, 2, 3], [2, 3, 4], [3, 4, 5]])


def test_materialize_zero_vector():
    spec = HankelSpec(m=4, n=2, v=np.zeros(5))
    assert not np.any(materialize(spec))


def test_entry_cap():
    spec = HankelSpec(m=6, n=30, v=np.zeros(6 * 29 + 1))
    with pytest.raises(OracleCapError, match=str(DEFAULT_ENTRY_CAP)):
        materialize(spec)


def test_entries_symmetric_under_index_permutations():
    rng = np.random.default_rng(2)
    for m, n in [(3, 4), (4, 3), (5, 2)]:
        spec = HankelSpec(m=m, n=n, v=rng.standard_normal(m * (n - 1) + 1))
        t = materialize(spec)
        for _ in range(100):
            perm = rng.permutation(m)
            assert np.array_equal(t, np.transpose(t, perm))


def test_contraction_consistency():
    rng = np.random.default_rng(4)
    for m, n in [(2, 5), (3, 3), (4, 4), (6, 2)]:
        spec = HankelSpec(m=m, n=n, v=rng.standard_normal(m * (n - 1) + 1))
        t = materialize(spec)
        for _ in range(5):
            x = rng.standard_normal(n)
            s = dense_xm(t, x)
            assert abs(float(x @ dense_xm1(t, x)) - s) <= 1e-12 * max(1.0, abs(s))
            assert abs(float(x @ dense_xm2(t, x) @ x) - s) <= 1e-12 * max(1.0, abs(s))


def test_xm2_of_matrix_ignores_x():
    spec = HankelSpec(m=2, n=3, v=[1.0, 2.0, 3.0, 4.0, 5.0])
    t = materialize(spec)
    out = dense_xm2(t, np.array([9.0, -3.0, 4.0]))
    assert np.array_equal(out, t)


def test_agrees_with_fft_example():
    spec = HankelSpec(m=3, n=2, v=[0.0, 1.0, 2.0, 3.0])
    t = materialize(spec)
    x = np.array([1.0, 1.0])
    assert dense_xm(t, x) == pytest.approx(12.0)
    assert np.allclose(dense_xm1(t, x), [4.0, 8.0])


@pytest.mark.parametrize("kind", [BTensorKind.Z_IDENTITY, BTensorKind.H_IDENTITY])
def test_hessian_symmetric_and_matches_finite_differences(kind):
    rng = np.random.default_rng(8)
    spec = generate(FamilySpec(Family.SIN, 4, 5))
    t = materialize(spec)
    cache = make_cache(spec)
    x = random_unit(rng, 5)
    H = dense_hessian(t, kind, x)
    assert np.linalg.norm(H - H.T) <= 1e-12 * np.linalg.norm(H)

    h = 1e-5
    fd = np.zeros((5, 5))
    for j in range(5):
        e = np.zeros(5)
        e[j] = h
        fd[:, j] = (raw_quotient_gradient(spec, cache, kind, x + e)
                    - raw_quotient_gradient(spec, cache, kind, x - e)) / (2 * h)
    assert np.linalg.norm(H - fd) <= 1e-5 * np.linalg.norm(H)


def test_tangent_hessian_nonnegative_at_minimizer():
    spec = generate(FamilySpec(Family.SIN, 4, 5))
    out = multistart(spec, BTensorKind.Z_IDENTITY,
                     SolverOptions(starts=20, seed=7, tol_rel=1e-14,
                                   extreme=Extreme.MIN))
    x = out.best.x
    H = dense_hessian(materialize(spec), BTensorKind.Z_IDENTITY, x)
    proj = np.eye(5) - np.outer(x, x)
    eigs = np.linalg.eigvalsh(proj @ H @ proj)
    assert eigs.min() >= -1e-6


def test_hessian_rejects_bad_inputs():
    spec = HankelSpec(m=3, n=2, v=[1.0, 1.0, 1.0, 1.0])
    t = materialize(spec)
    with pytest.raises(ValueError, match="x != 0"):
        dense_hessian(t, BTensorKind.H_IDENTITY, np.zeros(2))
    # odd order makes sum(x^m) negative for this x
    with pytest.raises(InvalidReferenceTensorError):
        dense_hessian(t, BTensorKind.H_IDENTITY, np.array([-2.0, 0.5]))
