import math

import numpy as np
import pytest

from hankeleig.generators import (
    Family,
    FamilySpec,
    generate,
    hilbert_bounds,
    vandermonde_reference,
)


def test_all_families_produce_correct_lengths():
    cases = [
        FamilySpec(Family.SIN, 4, 5),
        FamilySpec(Family.PARAM_EPS, 4, 4, epsilon=0.5),
        FamilySpec(Family.VANDERMONDE, 6, 9),
        FamilySpec(Family.HILBERT, 2, 50),
        FamilySpec(Family.RANDOM, 5, 7, seed=3),
    ]
    for fs in cases:
        spec = generate(fs)
        assert spec.v.size == fs.m * (fs.n - 1) + 1


def test_sine_family_values():
    spec = generate(FamilySpec(Family.SIN, 4, 5))
    assert spec.v[0] == math.sin(4.0)
    assert spec.v[0] == pytest.approx(-0.7568, abs=1e-4)
    assert spec.v[-1] == math.sin(20.0)


def test_parameterized_family_vector():
    spec = generate(FamilySpec(Family.PARAM_EPS, 4, 4, epsilon=0.0))
    assert np.array_equal(spec.v, [8, 0, 2, 0, 1, 0, 1, 0, 1, 0, 2, 0, 8])
    tiny = generate(FamilySpec(Family.PARAM_EPS, 4, 4, epsilon=1e-6))
    assert tiny.v[0] == 8 - 1e-6
    assert tiny.v[-1] == 8 - 1e-6
    assert tiny.v.size == 13


def test_parameterized_family_is_fixed_shape():
    with pytest.raises(ValueError, match="m=4, n=4"):
        FamilySpec(Family.PARAM_EPS, 4, 5, epsilon=0.1)
    with pytest.raises(ValueError, match="epsilon"):
        FamilySpec(Family.PARAM_EPS, 4, 4)
    with pytest.raises(ValueError, match="epsilon"):
        FamilySpec(Family.SIN, 4, 5, epsilon=0.1)


@pytest.mark.parametrize("m, n", [(1, 5), (4, 0)])
def test_family_shape_is_checked(m, n):
    with pytest.raises(ValueError, match="need m >= 2 and n >= 1"):
        FamilySpec(Family.SIN, m, n)


def test_vandermonde_family_closed_form():
    m, n = 4, 6
    spec = generate(FamilySpec(Family.VANDERMONDE, m, n))
    alpha, beta = n / (n - 1), (1 - n) / n
    assert spec.v[0] == 2.0
    for k in (1, 5, 20):
        assert spec.v[k] == pytest.approx(alpha ** k + beta ** k, rel=1e-15)
    with pytest.raises(ValueError, match="n >= 2"):
        FamilySpec(Family.VANDERMONDE, 4, 1)


def test_hilbert_family_values():
    spec = generate(FamilySpec(Family.HILBERT, 4, 10))
    assert spec.v.size == 37
    assert spec.v[0] == 1.0
    assert spec.v[36] == 1.0 / 37.0


def test_random_family_is_seeded():
    a = generate(FamilySpec(Family.RANDOM, 4, 6, seed=11))
    b = generate(FamilySpec(Family.RANDOM, 4, 6, seed=11))
    c = generate(FamilySpec(Family.RANDOM, 4, 6, seed=12))
    assert np.array_equal(a.v, b.v)
    assert not np.array_equal(a.v, c.v)
    with pytest.raises(ValueError, match="seed"):
        FamilySpec(Family.RANDOM, 4, 6)
    with pytest.raises(ValueError, match="seed"):
        FamilySpec(Family.HILBERT, 4, 6, seed=1)


def test_vandermonde_reference_small_case():
    # u1 = (1, 2), so the value is ||(1,2)||^4 = 25
    assert vandermonde_reference(4, 2) == pytest.approx(25.0, rel=1e-15)


@pytest.mark.parametrize("m,n,expected", [
    (4, 10, 9.487902e02),
    (4, 100, 1.013475e05),
    (4, 1000, 1.019800e07),
    (6, 10, 2.922505e04),
    (6, 100, 3.226409e07),
])
def test_vandermonde_reference_known_values(m, n, expected):
    assert vandermonde_reference(m, n) == pytest.approx(expected, rel=1e-6)


def test_vandermonde_reference_rejects_odd_sizes():
    with pytest.raises(ValueError, match="even dimension"):
        vandermonde_reference(4, 9)
    with pytest.raises(ValueError, match="even order"):
        vandermonde_reference(3, 10)


def test_hilbert_bounds_values():
    z10, h10 = hilbert_bounds(4, 10)
    assert z10 == pytest.approx(100.0 * math.sin(math.pi / 10.0), rel=1e-15)
    assert h10 == pytest.approx(1000.0 * math.sin(math.pi / 10.0), rel=1e-15)
    z2, _ = hilbert_bounds(4, 2)
    assert z2 == pytest.approx(4.0)
    # small-angle sanity: z bound ~ pi * n^(m/2 - 1) for large n
    z_big, _ = hilbert_bounds(4, 10 ** 6)
    assert z_big == pytest.approx(math.pi * 10 ** 6, rel=1e-6)
    with pytest.raises(ValueError, match="even order"):
        hilbert_bounds(3, 10)
