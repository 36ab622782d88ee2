import math

import numpy as np
import pytest
from conftest import random_unit

from hankeleig.dense_oracle import dense_xm1, materialize
from hankeleig.fft_products import HankelSpec, make_cache
from hankeleig.generators import Family, FamilySpec, generate
from hankeleig.objective import (
    BTensorKind,
    InvalidReferenceTensorError,
    ReferenceProducts,
    b_xm,
    b_xm1,
    b_xm2,
    evaluate,
    residual,
)
from hankeleig.solver import SolverOptions, multistart, solve

Z = BTensorKind.Z_IDENTITY
H = BTensorKind.H_IDENTITY


def test_b_products_trivial_values():
    x = np.array([0.6, 0.8, 0.0])
    assert b_xm(Z, 4, x) == pytest.approx(1.0)
    assert np.allclose(b_xm1(Z, 4, x), x)
    y = np.array([1.0, -1.0]) / np.sqrt(2.0)
    assert b_xm(H, 4, y) == pytest.approx(0.5)


@pytest.mark.parametrize("kind", [Z, H])
@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_b_products_euler_identities(kind, m):
    rng = np.random.default_rng(m)
    for _ in range(10):
        x = rng.standard_normal(5)
        xm = b_xm(kind, m, x)
        assert float(x @ b_xm1(kind, m, x)) == pytest.approx(xm, rel=1e-12, abs=1e-14)
        B2 = b_xm2(kind, m, x)
        assert np.allclose(B2 @ x, b_xm1(kind, m, x), rtol=1e-12, atol=1e-14)
        assert float(x @ B2 @ x) == pytest.approx(xm, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("m", [2, 3, 4, 6, 8])
def test_h_products_agree_with_numpy_power(m):
    # repeated products in place of ``**``; half the entries are negative
    rng = np.random.default_rng(40 + m)
    for _ in range(20):
        x = rng.standard_normal(9)
        expected = x ** (m - 1)
        assert np.all(np.abs(b_xm1(H, m, x) - expected)
                      <= 1e-15 * np.abs(expected))
        expected = x ** m
        # relative to the sum of magnitudes: odd orders may cancel
        assert abs(b_xm(H, m, x) - float(np.sum(expected))) \
            <= 1e-15 * float(np.sum(np.abs(expected)))


def test_b_xm2_order_two_is_identity():
    x = np.array([2.0, -1.0, 5.0])
    assert np.array_equal(b_xm2(Z, 2, x), np.eye(3))
    assert np.array_equal(b_xm2(H, 2, x), np.eye(3))


def test_gradient_is_tangent_everywhere():
    rng = np.random.default_rng(13)
    for trial in range(1000):
        m = int(rng.choice([2, 4, 6]))
        n = int(rng.integers(1, 25))
        spec = HankelSpec(m=m, n=n, v=rng.standard_normal(m * (n - 1) + 1))
        cache = make_cache(spec)
        x = random_unit(rng, n)
        ev = evaluate(spec, cache, (Z, H)[trial % 2], x)
        assert abs(float(x @ ev.g)) <= 1e-12 * (1.0 + np.linalg.norm(ev.g))


@pytest.mark.parametrize("kind", [Z, H])
def test_gradient_matches_great_circle_finite_differences(kind):
    rng = np.random.default_rng(21)
    spec = HankelSpec(m=4, n=6, v=rng.standard_normal(21))
    cache = make_cache(spec)
    x = random_unit(rng, 6)
    ev = evaluate(spec, cache, kind, x)
    h = 1e-5
    for _ in range(10):
        u = rng.standard_normal(6)
        u -= (x @ u) * x
        u /= np.linalg.norm(u)
        fp = evaluate(spec, cache, kind, np.cos(h) * x + np.sin(h) * u).f
        fm = evaluate(spec, cache, kind, np.cos(h) * x - np.sin(h) * u).f
        fd = (fp - fm) / (2.0 * h)
        assert abs(fd - float(ev.g @ u)) <= 1e-6 * max(1.0, np.linalg.norm(ev.g))


@pytest.mark.parametrize("kind", [Z, H])
def test_residual_equals_scaled_gradient_norm(kind):
    rng = np.random.default_rng(17)
    for _ in range(25):
        m = int(rng.choice([2, 4, 6]))
        n = int(rng.integers(2, 20))
        spec = HankelSpec(m=m, n=n, v=rng.standard_normal(m * (n - 1) + 1))
        cache = make_cache(spec)
        x = random_unit(rng, n)
        ev = evaluate(spec, cache, kind, x)
        lhs = residual(spec, cache, kind, x, ev.f)
        rhs = (ev.bxm / m) * np.linalg.norm(ev.g)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, lhs)


def test_value_is_even_in_x():
    rng = np.random.default_rng(23)
    spec = HankelSpec(m=4, n=7, v=rng.standard_normal(25))
    cache = make_cache(spec)
    for kind in (Z, H):
        x = random_unit(rng, 7)
        assert evaluate(spec, cache, kind, x).f == evaluate(spec, cache, kind, -x).f


def test_vandermonde_top_eigenvector_is_critical():
    m, n = 4, 10
    spec = generate(FamilySpec(Family.VANDERMONDE, m, n))
    cache = make_cache(spec)
    u1 = (n / (n - 1)) ** np.arange(n)
    x = u1 / np.linalg.norm(u1)
    ev = evaluate(spec, cache, Z, x)
    assert np.linalg.norm(ev.g) <= 1e-10
    assert ev.f == pytest.approx(np.linalg.norm(u1) ** m, rel=1e-10)

    # a vanished gradient certifies an eigenpair against the dense oracle too
    dense = materialize(spec)
    defect = dense_xm1(dense, x) - ev.f * b_xm1(Z, m, x)
    assert np.linalg.norm(defect) <= 1e-8

    # perturbing the eigenvalue moves the residual linearly
    delta = 1e-3
    r = residual(spec, cache, Z, x, ev.f + delta)
    assert r == pytest.approx(delta * np.linalg.norm(b_xm1(Z, m, x)), rel=1e-6)


def test_converged_solver_point_has_small_residual():
    spec = generate(FamilySpec(Family.SIN, 4, 5))
    out = multistart(spec, Z, SolverOptions(starts=30, seed=7, tol_rel=1e-14))
    best = out.best
    assert best.eigenvalue == pytest.approx(-8.846335, abs=1e-4)
    assert best.residual <= 1e-6


def test_custom_reference_products_match_builtin_kind():
    # spelling out the Z reference through the extension point reproduces
    # the builtin path bit for bit
    custom = ReferenceProducts(
        xm=lambda m, x: float(np.linalg.norm(x)) ** m,
        xm1=lambda m, x: float(np.linalg.norm(x)) ** (m - 2) * x,
    )
    spec = generate(FamilySpec(Family.SIN, 4, 5))
    cache = make_cache(spec)
    x = random_unit(np.random.default_rng(31), 5)
    builtin_ev = evaluate(spec, cache, Z, x)
    custom_ev = evaluate(spec, cache, custom, x)
    assert custom_ev.f == builtin_ev.f
    assert np.array_equal(custom_ev.g, builtin_ev.g)

    opts = SolverOptions(seed=4)
    assert solve(spec, custom, opts).eigenvalue == solve(spec, Z, opts).eigenvalue
    with pytest.raises(TypeError):
        b_xm2(custom, 4, x)


def test_rejects_nonpositive_reference_and_nonunit_x():
    spec = HankelSpec(m=3, n=2, v=np.ones(4))
    cache = make_cache(spec)
    bad = np.array([-2.0, 0.5])
    with pytest.raises(InvalidReferenceTensorError):
        evaluate(spec, cache, H, bad / np.linalg.norm(bad))
    with pytest.raises(ValueError, match="unit vector"):
        evaluate(spec, cache, Z, np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="unit vector"):
        residual(spec, cache, Z, np.array([1.0, 1.0]), 0.0)


@pytest.mark.parametrize("entry", [math.nan, math.inf])
def test_non_finite_vector_is_not_a_unit_vector(entry):
    # a NaN norm fails no "greater than" test; the check must refuse it
    spec = generate(FamilySpec(Family.SIN, 4, 5))
    cache = make_cache(spec)
    x = np.full(spec.n, entry)
    with pytest.raises(ValueError, match="expected a unit vector"):
        evaluate(spec, cache, Z, x)
    with pytest.raises(ValueError, match="expected a unit vector"):
        residual(spec, cache, Z, x, 1.0)


def _z_identity_with(xm=None, xm1=None):
    """The Z identity as a custom reference tensor, with either product
    replaced."""
    return ReferenceProducts(
        xm=xm or (lambda m, x: float(np.linalg.norm(x)) ** m),
        xm1=xm1 or (lambda m, x: float(np.linalg.norm(x)) ** (m - 2) * x),
    )


NON_FINITE_REFERENCES = {
    "xm-nan": _z_identity_with(xm=lambda m, x: math.nan),
    "xm-inf": _z_identity_with(xm=lambda m, x: math.inf),
    "xm1-nan": _z_identity_with(xm1=lambda m, x: np.full(x.size, math.nan)),
}


@pytest.mark.parametrize("name", list(NON_FINITE_REFERENCES))
def test_rejects_non_finite_reference_products(name):
    # a NaN or infinite product would otherwise come out as a NaN or zero
    # eigenvalue
    spec = generate(FamilySpec(Family.SIN, 4, 5))
    kind = NON_FINITE_REFERENCES[name]
    x = random_unit(np.random.default_rng(3), 5)
    with pytest.raises(InvalidReferenceTensorError):
        evaluate(spec, make_cache(spec), kind, x)
    with pytest.raises(InvalidReferenceTensorError):
        solve(spec, kind, SolverOptions(seed=1))
    out = multistart(spec, kind, SolverOptions(starts=3, seed=1))
    assert out.results == [] and out.best is None
    assert [i for i, _ in out.failures] == [0, 1, 2]
    assert all(msg.startswith("InvalidReferenceTensorError: ")
               for _, msg in out.failures)


def test_unknown_reference_kind_raises():
    # the string "z" is not BTensorKind.Z_IDENTITY, and is not read as H
    x = np.array([0.6, 0.8, 0.0])
    for product in (b_xm, b_xm1, b_xm2):
        with pytest.raises(TypeError, match="'z'"):
            product("z", 4, x)
    with pytest.raises(TypeError, match="'z'"):
        solve(generate(FamilySpec(Family.SIN, 4, 5)), "z", SolverOptions(seed=1))
