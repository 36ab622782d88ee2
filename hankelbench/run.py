"""hankeleig benchmark: time to a certified extremal eigenpair.

Usage, from the repository root:

    python3 hankelbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The load is a closed loop with one caller: each in-process
``hankeleig.cli.main(["solve", ...])`` call starts after the previous one
returns, with the multistart pool pinned by ``HANKEL_THREADS=2`` and BLAS
pinned to one thread.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
fresh interpreters of importing ``hankeleig.cli``, generating the tensor
and building the first spectral cache), ``peak_mem_mb`` (tracemalloc peak
of a warm ``cli.main`` solve call, in a pass of its own) and ``solve_s``
(median wall time of a warm solve call, result JSON and eigenvector
written to fresh names).  ``--trace 1`` reports the per-layer metrics:
micro timings of single public calls, and the spans of traced solve calls,
interleaved with untraced ones to give the tracing overhead.

An operation is one gated solve call: its answer goes through the gate in
``workloads.py``.  A run gates a fixed number of calls (the warm-up, the
memory pass and the first ``GATED_CALLS`` timed calls, or the first call
of each kind in a traced run), so ``attempted`` and ``failed`` do not grow
with the solver's speed.  The other timed calls count only when they raise
or exit non-zero.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; ``correct``
is false when any call gave a wrong answer, while ``failed`` also counts
calls whose eigenpair is not certified to the residual tolerance.  The
full report, with machine facts, samples and the spans of the first
traced call, goes to ``.hankelbench/out/`` under the repository root.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from collections import Counter

# Fixed thread counts whatever the machine: the multistart pool runs two
# workers, and BLAS runs one thread, since its idle threads spin on the
# cores the pool needs and the vector reductions gain nothing from them.
# Set before numpy is imported.
THREADS = 2
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREADS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".hankelbench")
# Fresh interpreters timed for setup_s (after one untimed one), and for
# cli.import_s in a traced run.
SETUP_CHILDREN = 7
IMPORT_CHILDREN = 3
# A set-up child takes well under a second.
CHILD_TIMEOUT_S = 60
PEAK_CALLS = 3
# The timed loop makes at least this many calls, and gates exactly these.
GATED_CALLS = 3
WRITE_REPS = 5

import workloads  # noqa: E402 - after the BLAS pin


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def load_cli():
    """Import the package from ``src/`` of this checkout, never elsewhere."""
    init = os.path.join(SRC, "hankeleig", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"error: no package source at {init}")
    sys.path.insert(0, SRC)
    import hankeleig.cli as cli
    if os.path.dirname(os.path.abspath(cli.__file__)) != os.path.dirname(init):
        raise SystemExit(f"error: imported hankeleig from {cli.__file__}")
    return cli


# ---------------------------------------------------------------------------
# machine facts

def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _caches() -> dict[str, str]:
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return out
    for entry in entries:
        level = _read(os.path.join(base, entry, "level"))
        kind = _read(os.path.join(base, entry, "type"))
        size = _read(os.path.join(base, entry, "size"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            out[f"L{level}"] = size
    return out


def _filesystem(path: str) -> dict[str, str]:
    best = ("", {})
    for line in (_read("/proc/self/mountinfo") or "").splitlines():
        left, _, right = line.partition(" - ")
        fields, tail = left.split(), right.split()
        if len(fields) < 5 or len(tail) < 2:
            continue
        mount = fields[4]
        inside = path == mount or path.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) > len(best[0]):
            best = (mount, {"mount": mount, "type": tail[0], "source": tail[1]})
    return best[1]


def machine_facts(tmp: str) -> dict:
    import numpy
    import scipy
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "cores": os.cpu_count(), "cores_usable": affinity,
        "cpu_model": _cpu_model(), "caches": _caches(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "platform": platform.platform(),
        "tmp_filesystem": _filesystem(tmp),
    }


# ---------------------------------------------------------------------------
# measurements

def tail(samples: list[float]) -> dict:
    """Median, and the highest percentile with ten samples beyond it."""
    out = {"n": len(samples), "median": statistics.median(samples)}
    n = len(samples)
    if n >= 11:
        pct = (100 * (n - 10)) // n
        rank = -(-pct * n // 100)  # nearest rank, leaves >= 10 above it
        out[f"p{pct}"] = sorted(samples)[max(rank, 1) - 1]
    return out


def run_children(w, seed: int, count: int) -> tuple[list[dict], dict]:
    """Time the cold set-up (``child.py``) in ``count`` fresh interpreters,
    one at a time, after one untimed child that leaves the bytecode cache
    warm.  Returns the children's times and, for each metric they could
    not measure, the reason."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["HANKEL_THREADS"] = str(THREADS)
    gen_seed = w.gen_seed(seed)
    argv = [sys.executable, os.path.join(HERE, "child.py"), w.family,
            str(w.m), str(w.n), "-" if gen_seed is None else str(gen_seed)]
    results: list[dict] = []
    absent: dict[str, str] = {}
    for i in range(count + 1):
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S,
                                  check=False)
        except subprocess.TimeoutExpired:
            reason = f"set-up child ran over {CHILD_TIMEOUT_S} s"
        else:
            if proc.returncode == 0:
                child = json.loads(proc.stdout.strip().splitlines()[-1])
                absent.update(child.pop("absent"))
                if i:
                    results.append(child)
                continue
            lines = proc.stderr.strip().splitlines()
            reason = (f"set-up child exited {proc.returncode}: "
                      + (lines[-1] if lines else ""))
        absent.update({"setup_s": reason, "cli.import_s": reason})
        break
    return results, absent


class Session:
    """Runs solve calls for one workload and keeps the operation ledger."""

    def __init__(self, cli, w, seed: int, tmp: str):
        self.cli, self.w, self.seed, self.tmp = cli, w, seed, tmp
        self.v = workloads.generating_vector(w, seed)
        self.h_bound = (workloads.hilbert_h_bound(w.m, w.n)
                        if w.family == "hilbert" else None)
        self.calls = 0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reasons: Counter = Counter()
        self.last = None
        self.peak_mb = float("nan")
        self.faults = 0

    def solve(self, threads: int = THREADS, tracer=None, gate: bool = True,
              peak: bool = False) -> float:
        """One solve call; returns its wall time in seconds.

        A gated call is one operation and its answer goes through the gate;
        an ungated call counts only if it raises or exits non-zero.  With
        ``peak``, tracemalloc traces the ``cli.main`` call alone and its
        peak goes to ``self.peak_mb``.  The minor page faults of the
        ``cli.main`` call, over all threads, go to ``self.faults``."""
        out = os.path.join(self.tmp, f"result-{self.calls}.json")
        vec = os.path.join(self.tmp, f"vector-{self.calls}.bin")
        self.calls += 1
        argv = self.w.solve_argv(self.seed) + ["--out", out,
                                               "--emit-vector", vec]
        os.environ["HANKEL_THREADS"] = str(threads)
        rc = None
        if peak:
            tracemalloc.start()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        try:
            if tracer is None:
                rc = self.cli.main(argv)
            else:
                rc = tracer.span("cli.main", self.cli.main, argv)
        except SystemExit as exc:  # argparse rejected the command line
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - counted as a failed operation
            traceback.print_exc(file=sys.stderr)
        finally:
            elapsed = time.perf_counter() - start
            self.faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                           - faults)
            if peak:
                self.peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
                tracemalloc.stop()
            os.environ["HANKEL_THREADS"] = str(THREADS)
        if rc is None:
            check = workloads.Check(["exception"])
        elif gate:
            check = workloads.check_result(self.w, self.v, self.h_bound, rc,
                                           out, vec)
            self.last = check
        else:
            check = workloads.Check(["exit"] if rc != 0 else [])
        for path in (out, vec):
            if os.path.exists(path):
                os.unlink(path)
        if gate or check.failed:
            self.attempted += 1
            self.failed += check.failed
            self.wrong += check.wrong
            self.reasons.update(check.reasons)
        return elapsed

    def ledger(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "wrong_answers": self.wrong, "reasons": dict(self.reasons),
                "solve_calls": self.calls}

    def timed(self, seconds: float) -> list[float]:
        """Warm solve calls for ``seconds``, the first GATED_CALLS gated."""
        samples = []
        deadline = time.perf_counter() + seconds
        while len(samples) < GATED_CALLS or time.perf_counter() < deadline:
            samples.append(self.solve(gate=len(samples) < GATED_CALLS))
        return samples

    def peak_mem_mb(self) -> list[float]:
        """tracemalloc peaks of PEAK_CALLS whole ``cli.main`` calls."""
        peaks = []
        for _ in range(PEAK_CALLS):
            self.solve(peak=True)
            peaks.append(self.peak_mb)
        return peaks


def write_times(cli, tmp: str) -> tuple[list, list]:
    """Wall time of ``gen --out`` to a fresh name and over an existing file.

    Both go through the CLI's atomic write (temp file, then rename); on
    filesystems that flush on a rename over an existing file the second
    costs far more."""
    argv = ["gen", "--family", "sin", "--order", "4", "--dim", "5", "--out"]
    fresh, over = [], []
    target = os.path.join(tmp, "gen-existing.txt")
    cli.main(argv + [target])
    for i in range(WRITE_REPS):
        path = os.path.join(tmp, f"gen-fresh-{i}.txt")
        start = time.perf_counter()
        cli.main(argv + [path])
        fresh.append(time.perf_counter() - start)
        start = time.perf_counter()
        cli.main(argv + [target])
        over.append(time.perf_counter() - start)
        os.unlink(path)
    return fresh, over


# ---------------------------------------------------------------------------

def end_to_end(session: Session, w, seed: int, seconds: int,
               report: dict) -> dict:
    children, absent = run_children(w, seed, SETUP_CHILDREN)
    session.solve()  # warm-up
    peaks = session.peak_mem_mb()
    solve = session.timed(seconds)
    values = {"solve_s": statistics.median(solve),
              "peak_mem_mb": statistics.median(peaks)}
    setup = [c["setup_s"] for c in children if "setup_s" in c]
    if setup:
        values["setup_s"] = statistics.median(setup)
    report["absent"] = absent
    report["samples"] = {"setup_children": children, "peak_mem_mb": peaks,
                         "solve_s": solve}
    report["summary"] = {"solve_s": tail(solve), "peak_mem_mb": tail(peaks)}
    if setup:
        report["summary"]["setup_s"] = tail(setup)
    return values


def per_layer(session: Session, cli, w, seed: int, seconds: int,
              tmp: str, report: dict) -> dict:
    import layers
    from spans import Tracer

    children, absent = run_children(w, seed, IMPORT_CHILDREN)
    metrics = {}
    if children:
        metrics["cli.import_s"] = statistics.median(c["import_s"] for c in children)
    session.solve()  # warm-up
    if session.last is not None and session.last.result_bytes:
        metrics["cli.result_bytes"] = session.last.result_bytes

    tracer = Tracer()
    kinds = [(THREADS, False), (THREADS, True), (1, False), (1, True)]
    times = {k: [] for k in kinds}
    faults = []
    calls = {k: [] for k in kinds if k[1]}
    first_spans = None
    installed: set[str] = set()
    deadline = time.perf_counter() + seconds
    for i in itertools.count():
        if i >= len(kinds) and time.perf_counter() >= deadline:
            break
        threads, traced = kinds[i % len(kinds)]
        gate = i < len(kinds)
        if not traced:
            times[(threads, traced)].append(session.solve(threads, gate=gate))
            if threads == THREADS:
                faults.append(session.faults)
            continue
        tracer.call += 1
        installed = set(tracer.install())
        try:
            times[(threads, traced)].append(
                session.solve(threads, tracer, gate=gate))
        finally:
            tracer.uninstall()
        calls[(threads, traced)].append(layers.call_metrics(
            tracer.spans, installed, min(w.starts, threads)))
        if first_spans is None:
            first_spans = tracer.spans
        tracer.spans = []

    # The single-call timings come after the solve calls: run first, they
    # leave the process in a state where hilbert solves take a third less
    # time than in the end-to-end run.
    micro, micro_absent = layers.micro_metrics(w, seed)
    metrics.update(micro)
    absent.update(micro_absent)
    try:
        fresh, over = write_times(cli, tmp)
    except (Exception, SystemExit) as exc:  # noqa: BLE001 - reported as absent
        fresh = over = []
        absent["cli.fresh_write_s"] = absent["cli.overwrite_s"] = (
            f"{type(exc).__name__}: {exc}")
    else:
        metrics["cli.fresh_write_s"] = statistics.median(fresh)
        metrics["cli.overwrite_s"] = statistics.median(over)
    metrics.update(layers.median_metrics(calls[(THREADS, True)]))
    single = layers.median_metrics(calls[(1, True)])
    if "solver.parallel_efficiency" in single:
        metrics["solver.parallel_efficiency_1w"] = single["solver.parallel_efficiency"]
    med = {k: statistics.median(v) for k, v in times.items()}
    metrics["solver.speedup_2w"] = med[(1, False)] / med[(THREADS, False)]
    metrics["bench.trace_overhead"] = med[(THREADS, True)] / med[(THREADS, False)]
    metrics["process.minor_faults"] = statistics.median(faults)
    if session.last is not None and math.isfinite(session.last.rel_residual):
        metrics["solver.rel_residual"] = session.last.rel_residual
    report["absent"] = absent
    report["summary"] = {f"solve_s[threads={t},traced={int(tr)}]": tail(v)
                         for (t, tr), v in times.items()}
    report["samples"] = {f"solve_s[threads={t},traced={int(tr)}]": v
                         for (t, tr), v in times.items()}
    report["samples"]["setup_children"] = children
    report["samples"]["minor_faults"] = faults
    report["samples"]["fresh_write_s"] = fresh
    report["samples"]["overwrite_s"] = over
    report["traced_calls"] = len(calls[(THREADS, True)])
    report["installed_spans"] = sorted(installed)
    if first_spans:
        t0 = min(s[2] for s in first_spans)
        names = sorted({s[1] for s in first_spans})
        index = {name: i for i, name in enumerate(names)}
        report["spans"] = {
            "columns": ["id", "name", "start_us", "end_us", "parent", "ok"],
            "names": names,
            "rows": [[s[0], index[s[1]], round((s[2] - t0) * 1e6, 3),
                      round((s[3] - t0) * 1e6, 3), s[4], int(s[6])]
                     for s in first_spans],
        }
    return metrics


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, for the ``end_to_end`` or ``per_layer`` list of
    BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv=None) -> int:
    args = parse_args(argv)
    w = workloads.WORKLOADS[args.workload]
    cli = load_cli()
    os.environ["HANKEL_THREADS"] = str(THREADS)
    tmp = os.path.join(WORK, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    report = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "threads": THREADS,
              "blas_threads": {var: os.environ[var] for var in BLAS_THREADS},
              "cli_argv": w.solve_argv(args.seed)}
    try:
        report["machine"] = machine_facts(tmp)
        session = Session(cli, w, args.seed, tmp)
        if args.trace:
            values = per_layer(session, cli, w, args.seed, args.seconds, tmp, report)
        else:
            values = end_to_end(session, w, args.seed, args.seconds, report)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    units = declared_units("per_layer" if args.trace else "end_to_end")
    absent = report.setdefault("absent", {})
    for name in units:
        if name not in values and name not in absent:
            absent[name] = "not measured"
    report["operations"] = session.ledger()
    report["metrics"] = {name: {"value": values[name], "unit": unit}
                         for name, unit in units.items() if name in values}
    out_dir = os.path.join(WORK, "out")
    os.makedirs(out_dir, exist_ok=True)
    report_path = os.path.join(
        out_dir, f"{w.name}-seed{args.seed}-trace{args.trace}.json")
    with open(report_path, "w") as fh:
        json.dump(report, fh)

    print(f"# workload {w.name} seed {args.seed}: hankeleig "
          + " ".join(w.solve_argv(args.seed)) + f" (HANKEL_THREADS={THREADS})")
    print("# machine " + json.dumps(report["machine"]))
    for name, stats in report.get("summary", {}).items():
        print(f"# {name} " + json.dumps(stats))
    if report.get("absent"):
        print("# absent " + json.dumps(report["absent"]))
    print("# operations " + json.dumps(report["operations"]))
    print(f"# report {os.path.relpath(report_path, ROOT)}")
    print(json.dumps({
        "correct": session.wrong == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
