"""Per-layer numbers: micro timings of single public calls, and the
per-call aggregates of a traced solve.

Micro timings run one public function at the workload's (m, n) and at a
fixed unit vector, and report the median per-call time.  A function that a
later version of the package removes or renames makes its metric absent
instead of stopping the benchmark.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict

import numpy as np

from spans import self_times

LAYERS = ("cli", "generators", "fft_products", "objective", "solver")
_SUCCESS = ("converged", "zero_gradient")
# Each micro timing repeats its call for this long, and at least this often.
MICRO_BUDGET_S = 0.25
MICRO_MIN_REPS = 5


def median_call_s(fn) -> float:
    """Median wall time of ``fn()`` after one warm-up call."""
    fn()
    samples = []
    deadline = time.perf_counter() + MICRO_BUDGET_S
    while len(samples) < MICRO_MIN_REPS or time.perf_counter() < deadline:
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def micro_metrics(w, bench_seed: int) -> tuple[dict, dict]:
    """Median per-call times of the public functions on the workload's
    problem.  Returns ``(metrics, absent)``, ``absent`` mapping a metric
    name to the reason it could not be measured."""
    import hankeleig.fft_products as fp
    import hankeleig.generators as gen
    import hankeleig.objective as obj
    import hankeleig.solver as sol

    metrics: dict[str, float] = {}
    absent: dict[str, str] = {}

    def measure(name, fn):
        try:
            metrics[name] = median_call_s(fn)
        except Exception as exc:  # noqa: BLE001 - reported as absent
            absent[name] = f"{type(exc).__name__}: {exc}"

    def failed(stage, exc):
        absent[f"micro timings {stage}"] = f"{type(exc).__name__}: {exc}"
        return metrics, absent

    try:
        fs = gen.FamilySpec(family=gen.Family(w.family), m=w.m, n=w.n,
                            seed=w.gen_seed(bench_seed))
        spec = gen.generate(fs)
    except Exception as exc:  # noqa: BLE001 - every micro metric absent
        return failed("of the tensor", exc)
    measure("generators.generate_s", lambda: gen.generate(fs))
    try:
        cache = fp.make_cache(spec)
        kind = obj.BTensorKind(w.btensor)
        opts = sol.SolverOptions(extreme=sol.Extreme(w.extreme))
    except Exception as exc:  # noqa: BLE001 - the metrics below are absent
        return failed("of the cache and options", exc)
    x = np.random.default_rng(bench_seed).standard_normal(w.n)
    x /= np.linalg.norm(x)

    measure("fft_products.make_cache_s", lambda: fp.make_cache(spec))
    measure("fft_products.hankel_xm_s", lambda: fp.hankel_xm(cache, spec, x))
    measure("fft_products.hankel_xm1_s", lambda: fp.hankel_xm1(cache, spec, x))
    measure("objective.evaluate_s", lambda: obj.evaluate(spec, cache, kind, x))
    try:
        ev = obj.evaluate(spec, cache, kind, x)
    except Exception as exc:  # noqa: BLE001 - the metrics below are absent
        return failed("at a point", exc)
    measure("objective.residual_s",
            lambda: obj.residual(spec, cache, kind, x, ev.f))
    measure("solver.cayley_step_s",
            lambda: sol.cayley_step(x, ev.g, opts.alpha_1, opts.extreme))
    measure("solver.curvilinear_search_s",
            lambda: sol.curvilinear_search(spec, cache, kind, x, ev,
                                           opts.alpha_1, opts))
    return metrics, absent


def call_metrics(spans: list[tuple], installed: set[str],
                 workers: int) -> dict[str, float]:
    """Layer numbers of one traced solve call (all its starts together).

    A metric whose spans were not installed is left out; a ratio whose base
    is zero is left out."""
    selfs = self_times(spans)
    count: Counter = Counter()
    dur: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    search_ok = 0
    solve_spans = 0
    solve_success = 0
    for sid, name, start, end, _parent, _call, ok, tag in spans:
        count[name] += 1
        dur[name] += end - start
        layer_self[name.split(".", 1)[0]] += selfs[sid]
        if name == "solver.curvilinear_search" and ok:
            search_ok += 1
        if name == "solver.solve":
            solve_spans += 1
            solve_success += tag in _SUCCESS
    have = installed | {"cli.main"}
    out: dict[str, float] = {}
    for layer in LAYERS:
        if any(n.startswith(layer + ".") for n in have):
            out[f"{layer}.self_s"] = layer_self[layer]
    if "solver.multistart" in have:
        out["cli.overhead_s"] = dur["cli.main"] - dur["solver.multistart"]
        out["solver.multistart_s"] = dur["solver.multistart"]
    if "fft_products.make_cache" in have:
        out["fft_products.cache_builds"] = count["fft_products.make_cache"]
    iters = search_ok if "solver.curvilinear_search" in have else 0
    if iters:
        out["solver.iterations"] = iters
    for short, name in (("xm", "fft_products.hankel_xm"),
                        ("xm1", "fft_products.hankel_xm1")):
        if name in have:
            out[f"fft_products.{short}_calls"] = count[name]
            if iters:
                out[f"fft_products.{short}_per_iter"] = count[name] / iters
    if "solver.cayley_step" in have and iters:
        trials = count["solver.cayley_step"]
        out["solver.trials"] = trials
        out["solver.backtracks"] = trials - iters
        out["solver.backtracks_per_iter"] = (trials - iters) / iters
    if "solver.solve" in have and solve_spans:
        if iters:
            out["solver.iter_s"] = dur["solver.solve"] / iters
        out["solver.converged_share"] = solve_success / solve_spans
        if dur["solver.multistart"] > 0.0:
            out["solver.parallel_efficiency"] = (
                dur["solver.solve"] / (dur["solver.multistart"] * workers))
    return out


def median_metrics(per_call: list[dict[str, float]]) -> dict[str, float]:
    """Median over calls of each metric present in every call."""
    if not per_call:
        return {}
    keys = set(per_call[0]).intersection(*per_call[1:])
    return {k: statistics.median(c[k] for c in per_call) for k in sorted(keys)}
