import math
import re
import threading
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from conftest import random_unit

import hankeleig
import hankeleig.solver as solver_mod
from hankeleig.dense_oracle import dense_xm, dense_xm1, materialize
from hankeleig.fft_products import HankelSpec, hankel_xm, hankel_xm1, make_cache
from hankeleig.generators import Family, FamilySpec, generate
from hankeleig.objective import (BTensorKind, InvalidReferenceTensorError,
                                 ReferenceProducts, evaluate, residual)
from hankeleig.solver import (
    EigenResult,
    Extreme,
    LineSearchStallError,
    ResultOverflowError,
    SolverOptions,
    Termination,
    UnsupportedOrderError,
    _bb_step,
    cayley_step,
    curvilinear_search,
    multistart,
    power_method_baseline,
    solve,
    step_length,
)

Z = BTensorKind.Z_IDENTITY
H = BTensorKind.H_IDENTITY


def _z_identity_zero_below(bound):
    """The Z identity as a custom reference tensor whose ``B x^m`` is 0
    wherever ``x[0] < bound``: not positive definite there."""
    def xm(m, x):
        return 0.0 if x[0] < bound else float(np.linalg.norm(x)) ** m

    def xm1(m, x):
        return float(np.linalg.norm(x)) ** (m - 2) * x

    return ReferenceProducts(xm, xm1)


def _tangent_pair(rng, n):
    x = random_unit(rng, n)
    p = rng.standard_normal(n)
    p -= (x @ p) * x
    return x, p


class TestCayleyStep:
    def test_vanishing_step_returns_start(self):
        rng = np.random.default_rng(0)
        x, p = _tangent_pair(rng, 6)
        out = cayley_step(x, p, 1e-300, Extreme.MIN)
        assert np.allclose(out, x, atol=1e-15)

    def test_zero_direction_is_fixed_point(self):
        rng = np.random.default_rng(1)
        x = random_unit(rng, 4)
        assert np.array_equal(cayley_step(x, np.zeros(4), 123.0, Extreme.MAX), x)

    def test_huge_step_approaches_antipode(self):
        rng = np.random.default_rng(2)
        x, p = _tangent_pair(rng, 5)
        for alpha in (1e300, 1e308):
            out = cayley_step(x, p, alpha, Extreme.MIN)
            assert np.allclose(out, -x, atol=1e-10)

    @pytest.mark.parametrize("extreme", [Extreme.MIN, Extreme.MAX])
    def test_progress_identity_and_unit_norm(self, extreme):
        rng = np.random.default_rng(3)
        sgn = -1.0 if extreme is Extreme.MIN else 1.0
        for _ in range(50):
            n = int(rng.integers(2, 12))
            x, p = _tangent_pair(rng, n)
            alpha = float(10.0 ** rng.uniform(-3, 2))
            out = cayley_step(x, p, alpha, extreme)
            assert abs(np.linalg.norm(out) - 1.0) <= 1e-12
            pn2 = float(p @ p)
            expected = sgn * 2.0 * alpha * pn2 / (1.0 + alpha ** 2 * pn2)
            assert float(p @ (out - x)) == pytest.approx(expected, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("fs, kind, extreme", [
        (FamilySpec(Family.SIN, 4, 5), Z, Extreme.MIN),
        (FamilySpec(Family.HILBERT, 6, 1000), H, Extreme.MAX),
        (FamilySpec(Family.VANDERMONDE, 4, 1000), Z, Extreme.MAX),
        (FamilySpec(Family.RANDOM, 4, 2000, seed=1), Z, Extreme.MIN),
    ], ids=["sine", "hilbert", "vandermonde", "random"])
    def test_iterates_stay_unit_to_the_stall(self, fs, kind, extreme):
        # the step is not renormalised: with a tolerance no run meets, the
        # search runs to the rounding floor and every iterate is still unit
        res = solve(generate(fs), kind, SolverOptions(
            seed=3, tol_rel=1e-300, extreme=extreme, keep_path=True))
        assert res.termination is Termination.LINESEARCH_STALL
        for x in res.path:
            assert abs(np.linalg.norm(x) - 1.0) <= 1e-14

    def test_rejects_nonpositive_alpha(self):
        x, p = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        for alpha in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and positive"):
                cayley_step(x, p, alpha, Extreme.MIN)
            # the closed form refuses what the step refuses
            with pytest.raises(ValueError, match="finite and positive"):
                step_length(x, p, alpha)

    @pytest.mark.parametrize("extreme", ["min", "max", None])
    def test_rejects_an_extreme_that_is_not_an_extreme(self, extreme):
        # the string "min" would otherwise take the MAX direction
        x, p = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        with pytest.raises(ValueError, match=re.escape(repr(extreme))):
            cayley_step(x, p, 0.5, extreme)


class TestStepLength:
    def test_zero_direction(self):
        assert step_length(np.array([1.0, 0.0]), np.zeros(2), 5.0) == 0.0

    def test_rejects_a_direction_of_another_length(self):
        # the closed form checks p against x as the step does
        with pytest.raises(ValueError, match="p must have length n = 2"):
            step_length(np.array([1.0, 0.0]), np.zeros(3), 0.5)

    def test_antipodal_limit(self):
        x = np.array([1.0, 0.0])
        p = np.array([0.0, 1.0])
        for alpha, scale in ((1e200, 1.0), (1e308, 1.0), (1e308, 2.0)):
            assert step_length(x, scale * p, alpha) == pytest.approx(2.0)

    @pytest.mark.parametrize("extreme", [Extreme.MIN, Extreme.MAX])
    def test_matches_direct_norm(self, extreme):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            x, p = _tangent_pair(rng, n)
            alpha = float(10.0 ** rng.uniform(-4, 3))
            direct = np.linalg.norm(cayley_step(x, p, alpha, extreme) - x)
            assert step_length(x, p, alpha) == pytest.approx(direct, abs=1e-12)


class TestBBStep:
    def test_plain_ratio(self):
        assert _bb_step(np.array([2.0, 0.0]), np.array([0.0, 4.0]), 10.0,
                        1.0, 1.0) == 0.5

    def test_zero_dp_uses_fallback(self):
        assert _bb_step(np.ones(2), np.zeros(2), 10.0, 0.25, 1.0) == 0.25

    def test_clamps(self):
        assert _bb_step(np.array([1e9]), np.array([1.0]), 1e4, 1.0, 1.0) == 1e4
        assert _bb_step(np.array([1e-30]), np.array([1.0]), 1e4,
                        1.0, 1.0) == 1e-10

    def test_floor_is_relative_to_scale(self):
        # a step of 1e-13 suits an eigenvalue near 1e11 and is kept
        assert _bb_step(np.array([1e-13]), np.array([1.0]), 1e4, 1.0,
                        3.6e11) == 1e-13
        assert _bb_step(np.array([1e-30]), np.array([1.0]), 1e4, 1.0,
                        1e11) == 1e-10 / 1e11


class TestCurvilinearSearch:
    def _setup(self):
        spec = generate(FamilySpec(Family.SIN, 4, 6))
        cache = make_cache(spec)
        x = random_unit(np.random.default_rng(5), 6)
        return spec, cache, x, evaluate(spec, cache, Z, x)

    def test_small_trial_step_accepted_immediately(self):
        spec, cache, x, ev = self._setup()
        opts = SolverOptions()
        alpha, x_new, ev_new, backtracks = curvilinear_search(
            spec, cache, Z, x, ev, 1e-4, opts)
        assert backtracks == 0
        assert alpha == 1e-4
        gnorm2 = float(ev.g @ ev.g)
        assert ev_new.f <= ev.f - opts.eta * alpha * gnorm2

    def test_exhausted_backtracks_raise(self, monkeypatch):
        spec, cache, x, ev = self._setup()
        # one huge trial (a near-antipodal move changes f by ~0 for even m)
        # against the strongest decrease demand cannot succeed
        monkeypatch.setattr(SolverOptions, "max_backtracks", 0)
        opts = SolverOptions(eta=0.5)
        with pytest.raises(LineSearchStallError):
            curvilinear_search(spec, cache, Z, x, ev, opts.alpha_max, opts)

    def test_alpha_bar_validated(self):
        spec, cache, x, ev = self._setup()
        with pytest.raises(ValueError):
            curvilinear_search(spec, cache, Z, x, ev, 0.0, SolverOptions())


class TestSolverOptions:
    @pytest.mark.parametrize("bad", [
        dict(eta=0.0), dict(eta=0.6), dict(beta=1.0), dict(beta=0.0),
        dict(alpha_max=0.0), dict(alpha_max=-1.0), dict(max_iter=0),
        dict(starts=0), dict(tol_rel=0.0), dict(tol_rel=-1.0),
        dict(tol_rel=math.nan), dict(tol_rel=math.inf),
        dict(alpha_max=math.nan), dict(alpha_max=math.inf),
        dict(seed=-1), dict(extreme="min"),
    ])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ValueError):
            SolverOptions(**bad)

    @pytest.mark.parametrize("constant", ["alpha_1", "max_backtracks"])
    def test_constants_are_not_settings(self, constant):
        assert constant not in {f.name for f in fields(SolverOptions)}
        with pytest.raises(TypeError):
            SolverOptions(**{constant: getattr(SolverOptions, constant)})

    def test_step_cap_below_the_first_step(self):
        # the first search starts at alpha_1 / max(1, |f_1|), capped by
        # alpha_max; a cap below alpha_1 is a valid setting
        spec = generate(FamilySpec(Family.SIN, 4, 5))
        res = solve(spec, Z, SolverOptions(seed=1, alpha_max=1e-3))
        assert res.termination is Termination.CONVERGED
        assert all(r.alpha_k <= 1e-3 for r in res.trace)
        assert res.trace[0].alpha_k == 1e-3 * 0.5 ** res.trace[0].backtracks


class TestCacheBelongsToItsTensor:
    """A spectral cache serves its own tensor, or an equal one, and no
    other: every public entry that takes a tensor and a cache checks the
    pair."""

    # same shape, another shape, and the same v read at another order
    OTHERS = [
        generate(FamilySpec(Family.HILBERT, 4, 5)),
        generate(FamilySpec(Family.SIN, 4, 6)),
        HankelSpec(m=2, n=9, v=np.sin(4.0 + np.arange(17.0))),
    ]

    def _setup(self):
        spec = generate(FamilySpec(Family.SIN, 4, 5))
        x = random_unit(np.random.default_rng(3), spec.n)
        return spec, x, evaluate(spec, make_cache(spec), Z, x)

    def test_cache_records_its_tensor(self):
        spec = generate(FamilySpec(Family.SIN, 4, 5))
        cache = make_cache(spec)
        assert cache.spec is spec
        assert replace(cache, exponent=0).spec is spec

    @pytest.mark.parametrize("other", OTHERS)
    def test_cache_of_another_tensor_raises(self, other):
        spec, x, ev = self._setup()
        wrong = make_cache(other)
        opts = SolverOptions(seed=1)
        calls = [
            lambda: solve(spec, Z, opts, cache=wrong),
            lambda: hankel_xm(wrong, spec, x),
            lambda: hankel_xm1(wrong, spec, x),
            lambda: evaluate(spec, wrong, Z, x),
            lambda: residual(spec, wrong, Z, x, ev.f),
            lambda: curvilinear_search(spec, wrong, Z, x, ev, 1e-3, opts),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="another tensor"):
                call()

    def test_equal_tensor_solves_bitwise_alike(self):
        spec = generate(FamilySpec(Family.SIN, 4, 5))
        copy = replace(spec)
        assert copy is not spec and copy.v is not spec.v
        opts = SolverOptions(seed=1, keep_path=True)
        own = solve(spec, Z, opts, cache=make_cache(spec))
        shared = solve(copy, Z, opts, cache=make_cache(spec))
        assert shared.eigenvalue == own.eigenvalue
        assert np.array_equal(shared.x, own.x)
        assert shared.residual == own.residual
        assert shared.trace == own.trace and shared.stats == own.stats
        assert all(np.array_equal(a, b) for a, b in zip(shared.path, own.path))
        assert len(shared.path) == len(own.path)


class TestSolve:
    def test_odd_order_rejected(self):
        spec = HankelSpec(m=3, n=4, v=np.ones(10))
        with pytest.raises(UnsupportedOrderError):
            solve(spec, Z, SolverOptions())

    def test_start_vector_validated(self):
        spec = HankelSpec(m=4, n=3, v=np.ones(9))
        with pytest.raises(ValueError):
            solve(spec, Z, SolverOptions(), x_1=np.zeros(3))
        with pytest.raises(ValueError):
            solve(spec, Z, SolverOptions(), x_1=np.ones(4))

    def test_zero_tensor_terminates_on_zero_gradient(self):
        spec = HankelSpec(m=4, n=5, v=np.zeros(17))
        res = solve(spec, Z, SolverOptions(seed=1))
        assert res.termination is Termination.ZERO_GRADIENT
        assert res.iterations == 0
        assert res.eigenvalue == 0.0
        assert res.residual == 0.0

    def test_one_dimensional_problem(self):
        # the sphere in one dimension is {-1, +1}; the quotient is constant
        spec = HankelSpec(m=4, n=1, v=[7.0])
        res = solve(spec, Z, SolverOptions(seed=0))
        assert res.termination is Termination.ZERO_GRADIENT
        assert res.eigenvalue == pytest.approx(7.0)
        assert abs(res.x[0]) == pytest.approx(1.0)

    @pytest.mark.parametrize("kind,extreme", [
        (Z, Extreme.MIN), (Z, Extreme.MAX), (H, Extreme.MIN), (H, Extreme.MAX),
    ])
    def test_trace_is_strictly_monotone_and_consistent(self, kind, extreme):
        rng = np.random.default_rng(6)
        spec = HankelSpec(m=4, n=8, v=rng.standard_normal(29))
        opts = SolverOptions(extreme=extreme, seed=2, keep_path=True)
        res = solve(spec, kind, opts)
        assert res.termination is Termination.CONVERGED
        sgn = -1.0 if extreme is Extreme.MIN else 1.0
        lams = [r.lambda_k for r in res.trace]
        assert all(sgn * (b - a) > 0 for a, b in zip(lams, lams[1:]))
        # post-hoc sufficient decrease straight from the logged rows
        for row, lam_next in zip(res.trace[:-1], lams[1:]):
            gain = sgn * (lam_next - row.lambda_k)
            assert gain >= opts.eta * row.alpha_k * row.grad_norm ** 2 - 1e-12

        assert res.iterations == len(res.trace) - 1
        assert res.trace[-1].alpha_k == 0.0
        assert len(res.path) == len(res.trace)
        for x in res.path:
            assert abs(np.linalg.norm(x) - 1.0) <= 1e-10
        # step length identity along the recorded path
        for row, x, x_next in zip(res.trace, res.path, res.path[1:]):
            expected = 2.0 * row.alpha_k * row.grad_norm / math.hypot(
                1.0, row.alpha_k * row.grad_norm)
            assert np.linalg.norm(x_next - x) == pytest.approx(expected, abs=1e-10)

    def test_descent_direction_sign(self):
        rng = np.random.default_rng(14)
        spec = HankelSpec(m=4, n=6, v=rng.standard_normal(21))
        cache = make_cache(spec)
        res = solve(spec, Z, SolverOptions(seed=3, keep_path=True))
        for x, x_next in zip(res.path, res.path[1:]):
            g = evaluate(spec, cache, Z, x).g
            assert float(g @ (x_next - x)) < 0.0

    def test_sine_benchmark_trace_audits_clean(self):
        spec = generate(FamilySpec(Family.SIN, 4, 5))
        opts = SolverOptions(seed=7)
        res = solve(spec, Z, opts)
        assert res.termination is Termination.CONVERGED
        for row, nxt in zip(res.trace[:-1], res.trace[1:]):
            need = opts.eta * row.alpha_k * row.grad_norm ** 2
            assert nxt.lambda_k <= row.lambda_k - need + 1e-12

    def test_given_start_is_normalized_and_used(self):
        spec = generate(FamilySpec(Family.SIN, 4, 5))
        cache = make_cache(spec)
        x1 = np.array([3.0, 0.0, 0.0, 0.0, 0.0])
        res = solve(spec, Z, SolverOptions(), x_1=x1)
        assert res.trace[0].lambda_k == evaluate(
            spec, cache, Z, x1 / 3.0).f

    @pytest.mark.parametrize("x1", [np.full(5, np.nan),
                                    np.array([np.inf, 0.0, 0.0, 0.0, 0.0])],
                             ids=["nan", "inf"])
    def test_non_finite_start_rejected(self, x1):
        spec = generate(FamilySpec(Family.SIN, 4, 5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                solve(spec, Z, SolverOptions(), x_1=x1)

    @pytest.mark.parametrize("c", [1e200, 1e-320, 1e308])
    def test_start_of_any_finite_size_is_the_unit_start(self, c):
        # the norm of c * ones(5) overflows or underflows for these c
        spec = generate(FamilySpec(Family.SIN, 4, 5))
        base = solve(spec, Z, SolverOptions(), x_1=np.ones(5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = solve(spec, Z, SolverOptions(), x_1=np.full(5, c))
        assert res.eigenvalue == base.eigenvalue
        assert np.array_equal(res.x, base.x)
        assert res.trace == base.trace and res.stats == base.stats

    def test_trial_point_with_nonpositive_reference_raises(self):
        # The start lies where B x^m > 0; a line-search trial of the run
        # does not, and the quotient there is refused, not divided by zero.
        spec = generate(FamilySpec(Family.SIN, 4, 5))
        opts = SolverOptions(seed=1, extreme=Extreme.MAX)
        assert solver_mod._start(spec.n, opts.seed)[0] >= -0.5
        with pytest.raises(InvalidReferenceTensorError):
            solve(spec, _z_identity_zero_below(-0.5), opts)


def _sine(c=1.0):
    return HankelSpec(4, 5, c * generate(FamilySpec(Family.SIN, 4, 5)).v)


class TestScaleCovariance:
    """The solver runs on ``v * 2**-e``, so scaling ``v`` scales the result."""

    @pytest.mark.parametrize("k", [-20, 40])
    def test_power_of_two_scaling_is_bitwise(self, k):
        opts = SolverOptions(seed=1)
        base = solve(_sine(), Z, opts)
        res = solve(_sine(math.ldexp(1.0, k)), Z, opts)
        assert res.eigenvalue == math.ldexp(base.eigenvalue, k)
        assert res.residual == math.ldexp(base.residual, k)
        assert np.array_equal(res.x, base.x)
        assert res.stats == base.stats
        assert res.trace == [replace(r, lambda_k=math.ldexp(r.lambda_k, k),
                                     grad_norm=math.ldexp(r.grad_norm, k),
                                     alpha_k=math.ldexp(r.alpha_k, -k))
                             for r in base.trace]

    def test_result_overflow_is_a_value_error(self):
        # lambda_max = 1e308 * 5**2 does not fit a float64
        spec = HankelSpec(4, 5, np.full(17, 1e308))
        opts = SolverOptions(extreme=Extreme.MAX, starts=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ResultOverflowError, match="overflows"):
                solve(spec, Z, opts)
            with pytest.raises(ValueError, match="overflows"):
                multistart(spec, Z, opts)

    def test_result_overflow_is_exported(self):
        assert hankeleig.ResultOverflowError is solver_mod.ResultOverflowError

    def test_subnormal_vector_solves_like_its_scaled_copy(self):
        # e = -1030: lambda, the residual and the gradient norms fit a
        # float64 once scaled back, but the largest steps, scaled by
        # 2**1030, do not, and read inf instead of failing the solve
        v = 1e-310 * _sine().v
        opts = SolverOptions(seed=1)
        res = solve(HankelSpec(4, 5, v), Z, opts)
        base = solve(HankelSpec(4, 5, np.ldexp(v, 1030)), Z, opts)
        assert res.eigenvalue == math.ldexp(base.eigenvalue, -1030)
        assert res.residual == math.ldexp(base.residual, -1030)
        assert np.array_equal(res.x, base.x)
        assert res.stats == base.stats
        # a product with a power of two is exact, or inf where it overflows
        assert res.trace == [
            replace(r, lambda_k=math.ldexp(r.lambda_k, -1030),
                    grad_norm=math.ldexp(r.grad_norm, -1030),
                    alpha_k=r.alpha_k * math.ldexp(1.0, 1000) * 2.0 ** 30)
            for r in base.trace]
        alphas = [r.alpha_k for r in res.trace]
        assert math.inf in alphas and any(0.0 < a < math.inf for a in alphas)

    def test_hilbert_backtracks_fewer_than_two_per_iteration(self):
        # lambda is about 3.6e11 here, so the Barzilai-Borwein steps are
        # near 1e-13; an absolute step floor made each search halve down to
        # them, about nine backtracks per iteration
        spec = generate(FamilySpec(Family.HILBERT, 6, 1000))
        res = solve(spec, H, SolverOptions(seed=1, extreme=Extreme.MAX))
        assert res.termination is Termination.CONVERGED
        assert res.stats.backtracks < 2 * res.iterations


class TestMultistart:
    def test_single_start_matches_solve(self):
        spec = generate(FamilySpec(Family.SIN, 4, 5))
        opts = SolverOptions(starts=1, seed=12)
        out = multistart(spec, Z, opts)
        direct = solve(spec, Z, opts)
        assert out.best.eigenvalue == direct.eigenvalue
        assert np.array_equal(out.best.x, direct.x)
        assert len(out.bins) == 1 and out.bins[0].count == 1

    def test_same_seed_is_reproducible(self):
        spec = generate(FamilySpec(Family.SIN, 4, 5))
        opts = SolverOptions(starts=12, seed=7)
        a = multistart(spec, Z, opts)
        b = multistart(spec, Z, opts)
        assert [r.eigenvalue for r in a.results] == [r.eigenvalue for r in b.results]
        assert a.bins == b.bins

    def test_results_follow_start_order(self):
        spec = generate(FamilySpec(Family.SIN, 4, 5))
        opts = SolverOptions(starts=8, seed=5)
        out = multistart(spec, Z, opts)
        assert len(out.results) == 8
        for i, res in enumerate(out.results):
            direct = solve(spec, Z, replace(opts, seed=opts.seed + i))
            assert res.eigenvalue == direct.eigenvalue
            assert np.array_equal(res.x, direct.x)
            assert res.trace == direct.trace
            assert res.stats == direct.stats

    def test_shared_cache_serves_concurrent_solves(self):
        # a cache with thousands of frequencies serving two threads at once;
        # iteration budget capped because only bitwise agreement matters here
        spec = generate(FamilySpec(Family.RANDOM, 2, 1200, seed=1))
        shared = make_cache(spec)
        seeds = range(2, 6)
        serial = {s: solve(spec, Z, SolverOptions(seed=s, max_iter=40),
                           cache=shared) for s in seeds}
        threaded = {}
        barrier = threading.Barrier(2)

        def worker(mine):
            barrier.wait()
            for s in mine:
                threaded[s] = solve(spec, Z, SolverOptions(seed=s, max_iter=40),
                                    cache=shared)

        threads = [threading.Thread(target=worker, args=(seeds[i::2],))
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(threaded) == list(seeds)
        for s in seeds:
            assert threaded[s].eigenvalue == serial[s].eigenvalue
            assert np.array_equal(threaded[s].x, serial[s].x)

    def test_failures_do_not_abort_other_starts(self, monkeypatch):
        spec = generate(FamilySpec(Family.SIN, 4, 5))
        real_solve = solver_mod.solve
        calls = []

        def flaky(spec_, kind_, opts_, x_1=None, **kwargs):
            calls.append(opts_.seed)
            if opts_.seed == 21:
                raise InvalidReferenceTensorError("synthetic failure")
            return real_solve(spec_, kind_, opts_, x_1, **kwargs)

        monkeypatch.setattr(solver_mod, "solve", flaky)
        out = multistart(spec, Z, SolverOptions(starts=4, seed=20))
        assert len(out.results) == 3
        assert out.failures == [(1, "InvalidReferenceTensorError: "
                                    "synthetic failure")]
        assert out.best is not None

    def test_other_errors_propagate(self, monkeypatch):
        # only a reference tensor that fails at a start's points is filed;
        # any other error is the caller's, raised once
        spec = generate(FamilySpec(Family.SIN, 4, 5))
        real_solve = solver_mod.solve
        calls = []

        def buggy(spec_, kind_, opts_, x_1=None, **kwargs):
            calls.append(opts_.seed)
            if opts_.seed == 21:
                raise RuntimeError("synthetic bug")
            return real_solve(spec_, kind_, opts_, x_1, **kwargs)

        monkeypatch.setattr(solver_mod, "solve", buggy)
        with pytest.raises(RuntimeError, match="synthetic bug"):
            multistart(spec, Z, SolverOptions(starts=4, seed=20))
        assert calls == [20, 21]

    @pytest.mark.parametrize("extreme,values,terminations,first", [
        # a stalled start with the extreme value is passed over
        (Extreme.MAX, [3.0, 2.0, 1.0], ["linesearch_stall", "converged",
                                        "zero_gradient"], 1),
        (Extreme.MIN, [1.0, 3.0, 2.0], ["max_iter", "zero_gradient",
                                        "converged"], 2),
        # with no start succeeding, the best is the extreme of all
        (Extreme.MAX, [1.0, 3.0, 2.0], ["max_iter", "linesearch_stall",
                                        "max_iter"], 1),
    ])
    def test_best_is_chosen_among_the_successful_starts(
            self, monkeypatch, extreme, values, terminations, first):
        spec = generate(FamilySpec(Family.SIN, 4, 5))

        def fixed(i):
            return EigenResult(eigenvalue=values[i], x=np.zeros(spec.n),
                               residual=0.0, iterations=0,
                               termination=Termination(terminations[i]))

        monkeypatch.setattr(solver_mod, "solve",
                            lambda spec_, kind_, opts_, **kw: fixed(opts_.seed))
        opts = SolverOptions(starts=3, extreme=extreme)
        out = multistart(spec, Z, opts)
        assert out.best is out.results[first]
        picked = []

        def power(spec_, cache_, kind_, opts_, x, first_step, *, shift=False):
            picked.append(fixed(len(picked)))
            return picked[-1]

        monkeypatch.setattr(solver_mod, "_iterate", power)
        assert power_method_baseline(spec, Z, opts) is picked[first]

    def test_stalled_start_is_not_the_best(self):
        # start seed 4 stalls at relative residual 6e-11 with a lambda 9e-16
        # relative above the best of the seven starts that converge
        spec = generate(FamilySpec(Family.VANDERMONDE, 4, 1000))
        out = multistart(spec, Z, SolverOptions(starts=10, seed=4,
                                                extreme=Extreme.MAX))
        assert out.results[0].termination is Termination.LINESEARCH_STALL
        assert out.best.termination is Termination.CONVERGED
        assert out.best.eigenvalue == pytest.approx(10197997.415291505,
                                                    rel=1e-12)

    @pytest.mark.parametrize("extreme,values,first", [
        (Extreme.MIN, [2.0, 1.0, 1.0, 3.0], 1),
        (Extreme.MAX, [3.0, 1.0, 3.0, 0.0], 0),
    ])
    def test_best_is_the_first_of_equal_eigenvalues(self, monkeypatch,
                                                    extreme, values, first):
        # the multistart and the power baseline pick their best alike
        spec = generate(FamilySpec(Family.SIN, 4, 5))

        def fixed(i):
            return EigenResult(eigenvalue=values[i], x=np.zeros(spec.n),
                               residual=0.0, iterations=0,
                               termination=Termination.CONVERGED)

        monkeypatch.setattr(solver_mod, "solve",
                            lambda spec_, kind_, opts_, **kw: fixed(opts_.seed))
        out = multistart(spec, Z, SolverOptions(starts=4, extreme=extreme))
        assert out.best is out.results[first]
        picked = []

        def power(spec_, cache_, kind_, opts_, x, first_step, *, shift=False):
            picked.append(fixed(len(picked)))
            return picked[-1]

        monkeypatch.setattr(solver_mod, "_iterate", power)
        best = power_method_baseline(spec, Z,
                                     SolverOptions(starts=4, extreme=extreme))
        assert best is picked[first]

    def test_nonpositive_reference_is_filed_per_start(self):
        spec = generate(FamilySpec(Family.SIN, 4, 5))
        out = multistart(spec, _z_identity_zero_below(-0.5),
                         SolverOptions(starts=4, seed=1, extreme=Extreme.MAX))
        assert [i for i, _ in out.failures] == [0, 3]
        assert all(msg.startswith("InvalidReferenceTensorError: ")
                   for _, msg in out.failures)
        assert len(out.results) == 2 and out.best is not None

    def test_every_start_failing_gives_no_best_and_no_bins(self):
        spec = generate(FamilySpec(Family.SIN, 4, 5))
        out = multistart(spec, _z_identity_zero_below(math.inf),
                         SolverOptions(starts=3, seed=1))
        assert out.best is None and out.results == [] and out.bins == []
        assert [i for i, _ in out.failures] == [0, 1, 2]

    def test_cache_is_built_once_per_call(self, monkeypatch):
        spec = generate(FamilySpec(Family.SIN, 4, 5))
        real_make_cache = solver_mod.make_cache
        builds = []

        def counted(spec_):
            builds.append(spec_)
            return real_make_cache(spec_)

        monkeypatch.setattr(solver_mod, "make_cache", counted)
        out = multistart(spec, Z, SolverOptions(starts=5, seed=1))
        assert len(out.results) == 5
        assert len(builds) == 1

    def test_occurrence_bins_split_the_two_minima(self):
        spec = generate(FamilySpec(Family.SIN, 4, 5))
        out = multistart(spec, Z, SolverOptions(starts=40, seed=7))
        assert len(out.bins) == 2
        assert out.bins[0].eigenvalue == pytest.approx(-8.846335, abs=1e-5)
        assert out.bins[1].eigenvalue == pytest.approx(-3.920428, abs=1e-5)
        assert sum(b.count for b in out.bins) == 40
        assert sum(b.share for b in out.bins) == pytest.approx(1.0)

    def test_hilbert_starts_share_one_bin(self):
        # the starts agree to about 1e-12 relative at lambda near 3.6e11
        spec = generate(FamilySpec(Family.HILBERT, 6, 1000))
        out = multistart(spec, H, SolverOptions(starts=10, seed=1,
                                                extreme=Extreme.MAX))
        assert len(out.results) == 10
        assert [b.count for b in out.bins] == [10]

    @pytest.mark.parametrize("k", [-30, 50])
    def test_bins_scale_with_powers_of_two(self, k):
        opts = SolverOptions(starts=12, seed=7)
        base = multistart(_sine(), Z, opts)
        scaled = multistart(_sine(math.ldexp(1.0, k)), Z, opts)
        assert len(base.bins) == 2
        assert scaled.bins == [replace(b, eigenvalue=math.ldexp(b.eigenvalue, k))
                               for b in base.bins]

    def test_bins_equal_the_sequential_grouping(self):
        # reference: walk the sorted values; a gap above the tolerance
        # starts a new group
        def reference(values):
            ordered = sorted(values)
            gap = solver_mod._EIGENVALUE_BIN_TOL * max(abs(ordered[0]),
                                                       abs(ordered[-1]))
            groups = [[ordered[0]]]
            for lam in ordered[1:]:
                if lam - groups[-1][-1] <= gap:
                    groups[-1].append(lam)
                else:
                    groups.append([lam])
            return [(float(np.median(g)), len(g), len(g) / len(values))
                    for g in groups]

        rng = np.random.default_rng(0)
        for size in (1, 2, 5, 40):
            # clusters whose gaps straddle the tolerance, 4e-6
            values = list(rng.choice([-4.0, -1.0, 3.0], size)
                          + 2e-5 * rng.standard_normal(size))
            bins = solver_mod._bin_eigenvalues(values)
            assert [(b.eigenvalue, b.count, b.share)
                    for b in bins] == reference(values)

    def test_unknown_reference_tensor_is_raised(self):
        # the caller's error, not a failure of each start
        with pytest.raises(TypeError, match="unknown reference tensor"):
            multistart(_sine(), "z", SolverOptions(starts=3))

    def test_odd_order_raises_before_building_a_cache(self, monkeypatch):
        builds = []
        monkeypatch.setattr(solver_mod, "make_cache", builds.append)
        with pytest.raises(UnsupportedOrderError, match="even"):
            multistart(HankelSpec(m=3, n=4, v=np.ones(10)), Z,
                       SolverOptions(starts=3))
        assert builds == []


def test_results_and_trace_rows_are_slotted():
    # a run keeps one trace row per iteration, a multistart one result per
    # start: no per-instance __dict__ on either
    res = solve(_sine(), Z, SolverOptions(seed=1))
    assert not hasattr(res, "__dict__")
    assert not hasattr(res.trace[0], "__dict__")


class TestSolveStats:
    """Per start, one forward transform per trial point and one inverse
    transform per accepted point, plus one of each at the start."""

    @staticmethod
    def _assert_transform_bound(res):
        st = res.stats
        assert st.forward_transforms == 1 + st.trials
        assert st.inverse_transforms == 1 + res.iterations
        assert st.trials == res.iterations + st.backtracks

    @pytest.mark.parametrize("family,m,n,kind,extreme", [
        (Family.SIN, 4, 5, Z, Extreme.MIN),
        (Family.SIN, 4, 5, Z, Extreme.MAX),
        (Family.VANDERMONDE, 4, 10, Z, Extreme.MIN),
        (Family.VANDERMONDE, 4, 10, Z, Extreme.MAX),
        (Family.HILBERT, 4, 8, H, Extreme.MAX),
    ])
    def test_transforms_per_start(self, family, m, n, kind, extreme):
        spec = generate(FamilySpec(family, m, n))
        out = multistart(spec, kind, SolverOptions(starts=4, seed=3,
                                                   extreme=extreme))
        assert len(out.results) == 4
        for res in out.results:
            self._assert_transform_bound(res)
            assert res.stats.backtracks == sum(r.backtracks for r in res.trace)

    def test_transforms_of_a_stalled_run(self, monkeypatch):
        # a tolerance no objective change can meet runs into the rounding
        # floor, where the last search rejects all its trials
        spec = generate(FamilySpec(Family.SIN, 4, 5))
        monkeypatch.setattr(SolverOptions, "max_backtracks", 20)
        opts = SolverOptions(seed=3, tol_rel=1e-300)
        res = solve(spec, Z, opts)
        assert res.termination is Termination.LINESEARCH_STALL
        self._assert_transform_bound(res)
        assert res.stats.backtracks == (sum(r.backtracks for r in res.trace)
                                        + opts.max_backtracks + 1)


class TestProductReuse:
    """Values built from stored spectra and products equal fresh ones."""

    def test_b_xm_is_taken_once_per_point(self):
        # the start and each trial point; an accepted trial reuses its value
        calls = []

        def xm(m, x):
            calls.append(x)
            return float(np.linalg.norm(x)) ** m

        def xm1(m, x):
            return float(np.linalg.norm(x)) ** (m - 2) * x

        spec = generate(FamilySpec(Family.SIN, 4, 5))
        res = solve(spec, ReferenceProducts(xm, xm1), SolverOptions(seed=1))
        assert res.iterations > 0
        assert len(calls) == 1 + res.stats.trials

    @pytest.mark.parametrize("kind,extreme", [(Z, Extreme.MIN), (H, Extreme.MAX)])
    def test_trace_and_residual_match_fresh_evaluations(self, kind, extreme):
        spec = generate(FamilySpec(Family.HILBERT, 4, 12))
        cache = make_cache(spec)
        res = solve(spec, kind, SolverOptions(seed=4, extreme=extreme,
                                              keep_path=True))
        assert res.iterations > 3
        for row, x in zip(res.trace, res.path):
            assert row.lambda_k == evaluate(spec, cache, kind, x).f
        assert res.residual == residual(spec, cache, kind, res.x, res.eigenvalue)

    def test_accepted_eval_matches_fresh_evaluate(self):
        spec = generate(FamilySpec(Family.RANDOM, 4, 40, seed=3))
        cache = make_cache(spec)
        x = random_unit(np.random.default_rng(8), 40)
        ev = evaluate(spec, cache, Z, x)
        _, x_new, ev_new, _ = curvilinear_search(
            spec, cache, Z, x, ev, 1.0, SolverOptions())
        fresh = evaluate(spec, cache, Z, x_new)
        assert ev_new.f == fresh.f and ev_new.hxm == fresh.hxm
        assert np.array_equal(ev_new.g, fresh.g)
        assert np.array_equal(ev_new.hxm1, fresh.hxm1)


class TestWorkspace:
    """Each run transforms in a workspace of its own."""

    def test_tensors_of_one_size_interleave_bitwise(self):
        # ell = 17 for both, so both transform at size 18; a buffer shared
        # by size would carry one tensor's entries into the other's products
        rng = np.random.default_rng(17)
        specs = [HankelSpec(4, 5, rng.standard_normal(17)),
                 HankelSpec(2, 9, rng.standard_normal(17))]
        caches = [make_cache(spec) for spec in specs]
        assert caches[0].size == caches[1].size == 18
        points = [random_unit(rng, spec.n) for spec in specs]
        opts = SolverOptions(seed=3)

        def products(i):
            spec, cache, x = specs[i], caches[i], points[i]
            ev = evaluate(spec, cache, Z, x)
            return [hankel_xm(cache, spec, x), hankel_xm1(cache, spec, x),
                    ev.g, residual(spec, cache, Z, x, ev.f)]

        solo_products = [products(i) for i in (0, 1)]
        solo_runs = [solve(specs[i], Z, opts, cache=caches[i]) for i in (0, 1)]
        mismatches = []

        def z_identity_interleaving(other):
            # b_xm and b_xm1 of the Z identity, computed as they compute
            # them, plus every public product of the other tensor at each
            # trial point of the run
            def xm(m, x):
                got = products(other)
                if not all(np.array_equal(a, b)
                           for a, b in zip(got, solo_products[other])):
                    mismatches.append(other)
                return float(np.linalg.norm(x)) ** m

            def xm1(m, x):
                return float(np.linalg.norm(x)) ** (m - 2) * x

            return ReferenceProducts(xm, xm1)

        for i in (0, 1):
            run = solve(specs[i], z_identity_interleaving(1 - i), opts,
                        cache=caches[i])
            solo = solo_runs[i]
            assert run.eigenvalue == solo.eigenvalue
            assert np.array_equal(run.x, solo.x)
            assert run.trace == solo.trace and run.stats == solo.stats
        assert mismatches == []
        for i in (0, 1):
            dense = materialize(specs[i])
            hxm, hxm1 = solo_products[i][:2]
            ref = dense_xm(dense, points[i])
            assert abs(hxm - ref) <= 1e-10 * (1.0 + abs(ref))
            ref1 = dense_xm1(dense, points[i])
            assert np.all(np.abs(hxm1 - ref1) <= 1e-10 * (1.0 + np.abs(ref1)))
            run = solo_runs[i]
            lam = dense_xm(dense, run.x)
            assert abs(run.eigenvalue - lam) <= 1e-10 * (1.0 + abs(lam))
            dense_res = float(np.linalg.norm(dense_xm1(dense, run.x) - lam * run.x))
            assert abs(run.residual - dense_res) <= 1e-10 * (1.0 + abs(lam))

    def test_solve_peak_memory_is_one_workspace(self):
        # Measured at 2.56 MB: the two half-spectrum workspace buffers
        # (1.28 MB) and eight vectors of length n (two iterates with their
        # three products each).  The bound allows nine vectors, so two more
        # spectrum-sized buffers per run, or two more vector temporaries per
        # iteration, fail it.
        spec = generate(FamilySpec(Family.RANDOM, 4, 20000, seed=1))
        cache = make_cache(spec)
        opts = SolverOptions(seed=1, max_iter=4)
        solve(spec, Z, opts, cache=cache)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            res = solve(spec, Z, opts, cache=cache)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert res.iterations == 4
        workspace = 2 * 16 * (cache.size // 2 + 1)
        assert peak <= workspace + 9 * 8 * spec.n, peak


class TestPowerMethodBaseline:
    def test_fixed_point_at_exact_eigenvector(self):
        n = 10
        spec = generate(FamilySpec(Family.VANDERMONDE, 4, n))
        u1 = (n / (n - 1)) ** np.arange(n)
        x0 = u1 / np.linalg.norm(u1)
        cache = make_cache(spec)
        res = solver_mod._iterate(
            spec, cache, Z, SolverOptions(extreme=Extreme.MAX), x0.copy(),
            solver_mod._power_rule, shift=True)
        assert res.termination in (Termination.CONVERGED,
                                   Termination.ZERO_GRADIENT)
        assert np.linalg.norm(res.x - x0) <= 1e-8

    def test_odd_order_rejected(self):
        spec = HankelSpec(m=3, n=4, v=np.ones(10))
        with pytest.raises(UnsupportedOrderError):
            power_method_baseline(spec, Z, SolverOptions())

    def test_unknown_reference_tensor_is_raised(self):
        # the power step inverts B's action, known for the shipped kinds only
        with pytest.raises(TypeError, match="only the shipped kinds"):
            power_method_baseline(_sine(), "z", SolverOptions(starts=3))

    @pytest.mark.parametrize("seed,iterations,stats", [
        (2, 0, (2, 1, 1, 1)),
        (3, 1, (3, 2, 2, 1)),
    ])
    def test_stall_without_shift_doubling(self, monkeypatch, seed,
                                          iterations, stats):
        monkeypatch.setattr(SolverOptions, "max_backtracks", 0)
        spec = generate(FamilySpec(Family.SIN, 4, 5))
        x = random_unit(np.random.default_rng(seed), spec.n)
        res = solver_mod._iterate(
            spec, make_cache(spec), Z,
            SolverOptions(extreme=Extreme.MAX), x,
            solver_mod._power_rule, shift=True)
        assert res.termination is Termination.LINESEARCH_STALL
        assert res.iterations == iterations
        assert (res.stats.forward_transforms, res.stats.inverse_transforms,
                res.stats.trials, res.stats.backtracks) == stats
        assert len(res.trace) == iterations + 1

    def test_path_follows_the_recorded_shifts(self):
        spec = generate(FamilySpec(Family.SIN, 4, 5))
        cache = make_cache(spec)
        res = power_method_baseline(spec, Z, SolverOptions(seed=1,
                                                           keep_path=True))
        assert len(res.path) == len(res.trace) == res.iterations + 1
        assert np.array_equal(res.path[-1], res.x)
        # MIN: x+ = normalize(-H x^{m-1} + shift * x) for the Z identity
        for row, x, x_next in zip(res.trace, res.path, res.path[1:]):
            u = -hankel_xm1(cache, spec, x) + row.alpha_k * x
            assert np.allclose(x_next, u / np.linalg.norm(u), rtol=0.0,
                               atol=1e-12)

    @pytest.mark.parametrize("kind, extreme", [
        (Z, Extreme.MIN), (H, Extreme.MIN), (H, Extreme.MAX),
    ], ids=["z-min", "h-min", "h-max"])
    def test_agrees_with_curvilinear_search(self, kind, extreme):
        # H takes the power step through the entrywise (m-1)-th root
        spec = generate(FamilySpec(Family.SIN, 4, 5))
        opts = SolverOptions(starts=20, seed=7, extreme=extreme)
        a = multistart(spec, kind, opts)
        p = power_method_baseline(spec, kind, opts)
        assert isinstance(p, EigenResult)
        # a trial costs one forward transform, as in the search
        assert p.stats.forward_transforms == 1 + p.stats.trials
        assert p.stats.inverse_transforms == 1 + p.iterations
        assert p.eigenvalue == pytest.approx(a.best.eigenvalue, abs=1e-3)
        assert p.residual <= 1e-5

    def test_scale_covariant(self):
        opts = SolverOptions(starts=3, seed=1)
        base = power_method_baseline(_sine(), Z, opts)
        assert base.termination is Termination.CONVERGED
        small = power_method_baseline(_sine(math.ldexp(1.0, -20)), Z, opts)
        assert small.eigenvalue == math.ldexp(base.eigenvalue, -20)
        assert np.array_equal(small.x, base.x)
        # alpha_k holds the shift, which is in the units of lambda
        assert small.trace == [replace(r, lambda_k=math.ldexp(r.lambda_k, -20),
                                       grad_norm=math.ldexp(r.grad_norm, -20),
                                       alpha_k=math.ldexp(r.alpha_k, -20))
                               for r in base.trace]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            huge = power_method_baseline(_sine(1e300), Z, opts)
        assert huge.termination is Termination.CONVERGED
        assert huge.eigenvalue / 1e300 == pytest.approx(base.eigenvalue,
                                                        rel=1e-10)
