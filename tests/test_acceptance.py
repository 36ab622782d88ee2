"""Acceptance suite.

One test per acceptance criterion, each asserting at its stated tolerance
and printing a PASS line (run with ``pytest tests/test_acceptance.py -v -s``
to see them).
"""

import math

import numpy as np
import pytest
from conftest import product_time_ratio, raw_quotient_gradient, random_unit

from hankeleig.dense_oracle import dense_hessian, dense_xm, dense_xm1, materialize
from hankeleig.fft_products import HankelSpec, hankel_xm, hankel_xm1, make_cache
from hankeleig.generators import (
    Family,
    FamilySpec,
    generate,
    hilbert_bounds,
    vandermonde_reference,
)
from hankeleig.objective import BTensorKind, evaluate
from hankeleig.solver import (
    Extreme,
    SolverOptions,
    multistart,
    power_method_baseline,
    solve,
    step_length,
)

Z = BTensorKind.Z_IDENTITY
H = BTensorKind.H_IDENTITY


def test_criterion_1_fft_products_match_dense_oracle():
    """m in 2..6, n in 1..8, 50 random (v, x) pairs each: 1e-10 relative."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for m in range(2, 7):
        for n in range(1, 9):
            ell = m * (n - 1) + 1
            for _ in range(50):
                spec = HankelSpec(m=m, n=n, v=rng.standard_normal(ell))
                cache = make_cache(spec)
                x = rng.standard_normal(n)
                dense = materialize(spec)
                ref = dense_xm(dense, x)
                err = abs(hankel_xm(cache, spec, x) - ref) / (1.0 + abs(ref))
                worst = max(worst, err)
                ref1 = dense_xm1(dense, x)
                err1 = np.abs(hankel_xm1(cache, spec, x) - ref1) / (1.0 + np.abs(ref1))
                worst = max(worst, float(np.max(err1)) if err1.size else 0.0)
                assert worst <= 1e-10, (m, n, worst)
    print(f"\nPASS criterion 1: oracle equivalence, worst rel err {worst:.3e}")


def test_criterion_2_sine_tensor_minima():
    """Smallest Z-eigenvalue -8.846335 (1e-4); -3.920428 also observed."""
    spec = generate(FamilySpec(Family.SIN, 4, 5))
    out = multistart(spec, Z, SolverOptions(starts=100, seed=7,
                                            extreme=Extreme.MIN))
    assert not out.failures
    best = out.best.eigenvalue
    assert best == pytest.approx(-8.846335, abs=1e-4)
    lams = [r.eigenvalue for r in out.results]
    assert any(abs(lam - (-3.920428)) <= 1e-4 for lam in lams)
    shares = ", ".join(
        f"{b.eigenvalue:.6f}: {100 * b.share:.0f}%" for b in out.bins)
    print(f"\nPASS criterion 2: sine tensor minima found; occurrences {shares}"
          " (percentages reported, not asserted)")


@pytest.mark.parametrize("m,n,table_value", [
    (4, 10, 9.487902e02),
    (4, 100, 1.013475e05),
    (4, 1000, 1.019800e07),
    (6, 10, 2.922505e04),
])
def test_criterion_3_vandermonde_largest_z(m, n, table_value):
    """Largest Z-eigenvalue matches the tabulated value (1e-5) and the
    closed form (1e-6)."""
    spec = generate(FamilySpec(Family.VANDERMONDE, m, n))
    out = multistart(spec, Z, SolverOptions(starts=10, seed=3,
                                            extreme=Extreme.MAX))
    lam = out.best.eigenvalue
    ref = vandermonde_reference(m, n)
    assert lam == pytest.approx(table_value, rel=1e-5)
    assert lam == pytest.approx(ref, rel=1e-6)
    print(f"\nPASS criterion 3 (m={m}, n={n}): lambda {lam:.6e} vs table "
          f"{table_value:.6e}, closed form {ref:.6e}")


def test_criterion_4_parameterized_sweep_trends_to_zero():
    """Smallest Z- and H-eigenvalues negative for eps > 0, increasing toward
    zero as eps decreases; semidefinite at eps = 0."""
    eps_values = [10.0 ** (-i) for i in range(0, 11)]
    curves = {}
    for kind, name in ((Z, "Z"), (H, "H")):
        lams = []
        for eps in eps_values:
            spec = generate(FamilySpec(Family.PARAM_EPS, 4, 4, epsilon=eps))
            out = multistart(spec, kind,
                             SolverOptions(starts=30, seed=5,
                                           extreme=Extreme.MIN))
            lams.append(out.best.eigenvalue)
        assert all(lam < 0.0 for lam in lams), (name, lams)
        assert all(b > a for a, b in zip(lams, lams[1:])), (name, lams)
        curves[name] = lams
    spec0 = generate(FamilySpec(Family.PARAM_EPS, 4, 4, epsilon=0.0))
    out0 = multistart(spec0, Z, SolverOptions(starts=30, seed=5,
                                              extreme=Extreme.MIN))
    assert out0.best.eigenvalue >= -1e-6
    print("\nPASS criterion 4: sweep negative and monotone toward zero; "
          f"Z range [{curves['Z'][0]:.3e}, {curves['Z'][-1]:.3e}], "
          f"H range [{curves['H'][0]:.3e}, {curves['H'][-1]:.3e}], "
          f"lambda(eps=0) = {out0.best.eigenvalue:.3e}")


@pytest.mark.parametrize("m", [4, 6])
@pytest.mark.parametrize("n", [10, 100, 1000])
def test_criterion_5_hilbert_eigenvalues_respect_bounds(m, n):
    """Largest Z- and H-eigenvalues stay below the closed-form bounds."""
    z_bound, h_bound = hilbert_bounds(m, n)
    spec = generate(FamilySpec(Family.HILBERT, m, n))
    opts = SolverOptions(starts=10, seed=2, extreme=Extreme.MAX)
    z_val = multistart(spec, Z, opts).best.eigenvalue
    h_val = multistart(spec, H, opts).best.eigenvalue
    assert z_val <= z_bound * (1.0 + 1e-8)
    assert h_val <= h_bound * (1.0 + 1e-8)
    print(f"\nPASS criterion 5 (m={m}, n={n}): z {z_val:.4e} <= {z_bound:.4e},"
          f" h {h_val:.4e} <= {h_bound:.4e}")


def test_criterion_6_solver_invariants_on_random_instances():
    """Unit iterates, strict monotonicity, sufficient decrease, step-length
    identity, tangency, and the residual identity at termination."""
    rng = np.random.default_rng(42)
    kinds = [Z, H]
    extremes = [Extreme.MIN, Extreme.MAX]
    for i in range(20):
        m = int(rng.choice([4, 6]))
        n = int(rng.integers(5, 51))
        spec = HankelSpec(m=m, n=n, v=rng.standard_normal(m * (n - 1) + 1))
        kind = kinds[i % 2]
        extreme = extremes[(i // 2) % 2]
        opts = SolverOptions(extreme=extreme, seed=100 + i, keep_path=True)
        res = solve(spec, kind, opts)
        cache = make_cache(spec)
        sgn = -1.0 if extreme is Extreme.MIN else 1.0

        lams = [r.lambda_k for r in res.trace]
        assert all(sgn * (b - a) > 0 for a, b in zip(lams, lams[1:])), i
        for row, lam_next in zip(res.trace[:-1], lams[1:]):
            gain = sgn * (lam_next - row.lambda_k)
            need = opts.eta * row.alpha_k * row.grad_norm ** 2
            assert gain >= need - 1e-12 * max(1.0, abs(row.lambda_k)), i

        for x in res.path:
            assert abs(np.linalg.norm(x) - 1.0) <= 1e-10, i
        for row, x, x_next in zip(res.trace, res.path, res.path[1:]):
            ev = evaluate(spec, cache, kind, x)
            assert abs(float(x @ ev.g)) <= 1e-12 * (1.0 + np.linalg.norm(ev.g)), i
            expected = step_length(x, ev.g, row.alpha_k)
            assert abs(np.linalg.norm(x_next - x) - expected) <= 1e-10, i

        # residual identity at the terminal point, against the quotient
        # gradient formula evaluated from the returned products
        ev = evaluate(spec, cache, kind, res.x)
        g_formula = (m / ev.bxm) * (ev.hxm1 - ev.f * ev.bxm1)
        ident = (ev.bxm / m) * np.linalg.norm(g_formula)
        assert abs(res.residual - ident) <= 1e-12 * max(1.0, res.residual), i
    print("\nPASS criterion 6: all solver invariants hold on 20 random "
          "instances")


def test_criterion_7_derivative_checks():
    """Gradient vs tangent central differences (1e-6); dense Hessian vs
    finite-differenced gradient (1e-5) at m=4, n=5."""
    rng = np.random.default_rng(77)
    spec = generate(FamilySpec(Family.SIN, 4, 5))
    cache = make_cache(spec)
    dense = materialize(spec)
    worst_g = 0.0
    worst_h = 0.0
    for kind in (Z, H):
        x = random_unit(rng, 5)
        ev = evaluate(spec, cache, kind, x)
        h = 1e-5
        for _ in range(10):
            u = rng.standard_normal(5)
            u -= (x @ u) * x
            u /= np.linalg.norm(u)
            fp = evaluate(spec, cache, kind, math.cos(h) * x + math.sin(h) * u).f
            fm = evaluate(spec, cache, kind, math.cos(h) * x - math.sin(h) * u).f
            fd = (fp - fm) / (2.0 * h)
            err = abs(fd - float(ev.g @ u)) / max(1.0, np.linalg.norm(ev.g))
            worst_g = max(worst_g, err)
            assert err <= 1e-6, kind

        hess = dense_hessian(dense, kind, x)
        fd_hess = np.zeros((5, 5))
        for j in range(5):
            e = np.zeros(5)
            e[j] = h
            fd_hess[:, j] = (raw_quotient_gradient(spec, cache, kind, x + e)
                             - raw_quotient_gradient(spec, cache, kind, x - e)
                             ) / (2.0 * h)
        rel = np.linalg.norm(hess - fd_hess) / np.linalg.norm(hess)
        worst_h = max(worst_h, rel)
        assert rel <= 1e-5, kind
    print(f"\nPASS criterion 7: gradient fd worst {worst_g:.3e}, hessian fd "
          f"worst {worst_h:.3e}")


def test_criterion_8_power_method_agrees_with_curvilinear_search():
    """Best eigenvalues agree within 1e-3 on both benchmark problems."""
    sine = generate(FamilySpec(Family.SIN, 4, 5))
    opts = SolverOptions(starts=100, seed=7, extreme=Extreme.MIN)
    search_min = multistart(sine, Z, opts).best.eigenvalue
    power_min = power_method_baseline(sine, Z, opts).eigenvalue
    assert power_min == pytest.approx(search_min, abs=1e-3)

    vdm = generate(FamilySpec(Family.VANDERMONDE, 4, 10))
    opts_max = SolverOptions(starts=10, seed=3, extreme=Extreme.MAX)
    search_max = multistart(vdm, Z, opts_max).best.eigenvalue
    power_max = power_method_baseline(vdm, Z, opts_max).eigenvalue
    assert power_max == pytest.approx(search_max, abs=1e-3 * abs(search_max))
    assert power_max == pytest.approx(vandermonde_reference(4, 10), rel=1e-4)
    print(f"\nPASS criterion 8: min {power_min:.8f} vs {search_min:.8f}; "
          f"max {power_max:.6e} vs {search_max:.6e}")


def test_criterion_9_product_time_scaling():
    """Median product time at n = 2^17 is at most 3x that at n = 2^16."""
    m = 4
    rng = np.random.default_rng(9)
    setups = []
    for n in (2 ** 16, 2 ** 17):
        spec = HankelSpec(m=m, n=n, v=rng.standard_normal(m * (n - 1) + 1))
        cache = make_cache(spec)
        x = rng.standard_normal(n)
        hankel_xm1(cache, spec, x)
        setups.append((spec, cache, x))
    # the median of 20 interleaved samples each, in up to three rounds
    ratio = product_time_ratio(*setups, reps=20, bound=3.0)
    assert ratio <= 3.0, ratio
    print(f"\nPASS criterion 9: time at 2^17 over 2^16 = {ratio:.2f}")
