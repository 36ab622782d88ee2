"""Command line interface.

Four subcommands: ``solve`` runs the multistart eigenvalue search and emits
a result JSON plus an optional iteration-trace CSV; ``gen`` writes a
benchmark generating vector; ``verify`` compares the fast products (FFTs,
or DFT-matrix products for a small tensor) against the dense oracle on
random instances; ``bench`` times the products and the solver over a list
of dimensions.

Exit codes: 0 for a converged solve (or a clean verify), 2 when a solve
produced no converged result, 1 for usage errors.  All floating point
output is serialised in the shortest form that round-trips exactly; a NaN
or infinite value is refused (exit 1).  Result files are written
atomically (temp file, then rename).  The starts of a solve run one after
another, so its result is deterministic for a given seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import struct
import sys
import tempfile
import time

import numpy as np

from . import __version__
from .dense_oracle import dense_xm, dense_xm1, materialize
from .fft_products import HankelSpec, hankel_xm, hankel_xm1, make_cache
from .generators import Family, FamilySpec, generate
from .objective import BTensorKind
from .solver import (_SUCCESS, Extreme, SolverOptions, SolveStats,
                     multistart, solve)

__all__ = ["main"]

_VECTOR_MAGIC = b"HNKV"
_VECTOR_VERSION = 1
_JSON_VECTOR_LIMIT = 10_000
# The flags default to the library's options and choose among its enums.
_DEFAULTS = SolverOptions()
_BTENSOR_CHOICES = [k.value for k in BTensorKind]
_EXTREME_CHOICES = [e.value for e in Extreme]


class UsageError(Exception):
    """Bad flags or malformed inputs; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# serialisation helpers

def _format_float(x: float) -> str:
    # NaN and Infinity are not JSON, and no correct result contains them
    if not math.isfinite(x):
        raise ValueError(f"cannot serialise the non-finite float {x!r}")
    return repr(float(x))


def _json_text(obj) -> str:
    # floats in their shortest round-trip form, as _format_float writes them
    try:
        return json.dumps(obj, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"cannot serialise a non-finite float: {exc}") from None


def _atomic_write(path: str, data: str | bytes) -> None:
    # a path that exists and is not a regular file (a FIFO, a device such
    # as /dev/null) is written in place, never replaced
    mode = "wb" if isinstance(data, bytes) else "w"
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, mode) as fh:
            fh.write(data)
        return
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".hankeleig-")
        with os.fdopen(fd, mode) as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):  # named by the path given, not tmp's
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def _vector_blob(x: np.ndarray) -> bytes:
    header = (_VECTOR_MAGIC + struct.pack("<I", _VECTOR_VERSION)
              + struct.pack("<Q", x.size))
    return header + np.asarray(x, dtype="<f8").tobytes()


def _trace_csv(trace) -> str:
    lines = ["k,lambda,grad_norm,alpha,backtracks"]
    for k, r in enumerate(trace, 1):
        lines.append(",".join([
            str(k),
            _format_float(r.lambda_k),
            _format_float(r.grad_norm),
            # a step too large for float64 in the units of v is inf
            "inf" if r.alpha_k == math.inf else _format_float(r.alpha_k),
            str(r.backtracks),
        ]))
    return "\n".join(lines) + "\n"


def _emit(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        _atomic_write(path, text)


# ---------------------------------------------------------------------------
# tensor sources

def _add_family_args(p: argparse.ArgumentParser, with_input: bool) -> None:
    p.add_argument("--family", choices=[f.value for f in Family],
                   required=not with_input,
                   help="benchmark family for the generating vector")
    p.add_argument("--order", type=int, help="tensor order m")
    p.add_argument("--dim", type=int, help="tensor dimension n")
    p.add_argument("--epsilon", type=float,
                   help="parameter of the 'param' family")
    p.add_argument("--seed", type=int, default=0,
                   help="RNG seed (random family and solver starts)")
    if with_input:
        p.add_argument("--input", metavar="FILE",
                       help="read the generating vector from FILE instead "
                            "(txt: one number per line with --order/--dim; "
                            "json: {\"m\", \"n\", \"v\"})")


def _spec_from_family(args) -> tuple[HankelSpec, dict]:
    family = Family(args.family)
    if family is Family.PARAM_EPS:
        m = 4 if args.order is None else args.order
        n = 4 if args.dim is None else args.dim
        if args.epsilon is None:
            raise UsageError("--family param needs --epsilon")
    else:
        if args.order is None or args.dim is None:
            raise UsageError(f"--family {family.value} needs --order and --dim")
        m, n = args.order, args.dim
    fs = FamilySpec(
        family=family, m=m, n=n, epsilon=args.epsilon,
        seed=args.seed if family is Family.RANDOM else None,
    )
    spec = generate(fs)
    source = {"family": family.value, "m": spec.m, "n": spec.n}
    if fs.epsilon is not None:
        source["epsilon"] = fs.epsilon
    if fs.seed is not None:
        source["generator_seed"] = fs.seed
    return spec, source


def _spec_from_file(args) -> tuple[HankelSpec, dict]:
    try:
        with open(args.input, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {args.input}: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        payload = None
    if isinstance(payload, dict):
        m, n, v = payload.get("m"), payload.get("n"), payload.get("v")
        # JSON integers only: int() would truncate 4.5, and a bool is an int;
        # numpy would read a string or a bool in 'v' as a number too
        if (type(m) is not int or type(n) is not int or type(v) is not list
                or not set(map(type, v)) <= {int, float}):
            raise UsageError(
                f"{args.input}: a json tensor file needs integer 'm', 'n' "
                "and a numeric array 'v'"
            )
        if args.order is not None and args.order != m:
            raise UsageError(f"--order {args.order} contradicts m={m} in {args.input}")
        if args.dim is not None and args.dim != n:
            raise UsageError(f"--dim {args.dim} contradicts n={n} in {args.input}")
    else:
        if args.order is None or args.dim is None:
            raise UsageError("--input with a txt vector needs --order and --dim")
        m, n = args.order, args.dim
        try:
            v = [float(tok) for tok in text.split()]
        except ValueError as exc:
            raise UsageError(f"{args.input}: expected one number per line") from exc
    try:
        v = np.asarray(v, dtype=float)
    except OverflowError as exc:  # a JSON integer beyond float64
        raise UsageError(
            f"{args.input}: 'v' has an entry too large for a float64") from exc
    spec = HankelSpec(m=m, n=n, v=v)
    return spec, {"input": args.input, "m": spec.m, "n": spec.n}


# ---------------------------------------------------------------------------
# subcommands

def _cmd_solve(args) -> int:
    t0 = time.perf_counter()
    if (args.family is None) == (args.input is None):
        raise UsageError("choose exactly one tensor source: --family or --input")
    spec, source = (_spec_from_family(args) if args.input is None
                    else _spec_from_file(args))
    kind = BTensorKind(args.btensor)
    opts = SolverOptions(
        eta=args.eta, beta=args.beta, alpha_max=args.alpha_max,
        tol_rel=args.tol, max_iter=args.max_iter,
        extreme=Extreme(args.extreme), starts=args.starts, seed=args.seed,
    )
    t1 = time.perf_counter()
    outcome = multistart(spec, kind, opts)
    t2 = time.perf_counter()

    manifest = {
        "tool": "hankeleig",
        "version": __version__,
        "command": "solve",
        "source": source,
        "btensor": args.btensor,
        "extreme": args.extreme,
        # extreme is a top-level key; keep_path is not a flag
        "options": {f.name: getattr(opts, f.name)
                    for f in dataclasses.fields(opts)
                    if f.name not in ("extreme", "keep_path")},
        "timings": {"build_s": t1 - t0, "solve_s": t2 - t1},
        # totals over the starts that returned a result
        "counts": {
            f.name: sum(getattr(r.stats, f.name) for r in outcome.results)
            for f in dataclasses.fields(SolveStats)
        },
    }

    best = outcome.best
    if best is None:
        for index, message in outcome.failures:
            print(f"start {index} failed: {message}", file=sys.stderr)
        print("error: all starts failed", file=sys.stderr)
        return 2

    payload = {"lambda": best.eigenvalue}
    if spec.n <= _JSON_VECTOR_LIMIT:
        payload["x"] = best.x.tolist()
    payload.update({
        "residual": best.residual,
        "iterations": best.iterations,
        "termination": best.termination.value,
        "occurrences": [
            {"lambda": b.eigenvalue, "count": b.count, "share": b.share}
            for b in outcome.bins
        ],
    })
    if outcome.failures:
        payload["failures"] = [[i, msg] for i, msg in outcome.failures]
    payload["manifest"] = manifest

    _emit(args.out, _json_text(payload))
    if args.trace is not None:
        _atomic_write(args.trace, _trace_csv(best.trace))
    if args.emit_vector is not None:
        _atomic_write(args.emit_vector, _vector_blob(best.x))

    return 0 if best.termination in _SUCCESS else 2


def _cmd_gen(args) -> int:
    spec, _ = _spec_from_family(args)
    if args.format == "json":
        text = _json_text({"m": spec.m, "n": spec.n, "v": spec.v.tolist()})
    else:
        text = "\n".join(_format_float(val) for val in spec.v) + "\n"
    _emit(args.out, text)
    return 0


def _cmd_verify(args) -> int:
    if args.trials < 1:
        # zero trials would report a vacuous pass
        raise UsageError(f"--trials must be at least 1, got {args.trials}")
    # checked before the draws, whose lengths they set
    if args.order < 2:
        raise UsageError(f"--order must be at least 2, got {args.order}")
    if args.dim < 1:
        raise UsageError(f"--dim must be at least 1, got {args.dim}")
    m, n = args.order, args.dim
    rng = np.random.default_rng(args.seed)
    ell = m * (n - 1) + 1
    worst = 0.0
    for _ in range(args.trials):
        spec = HankelSpec(m=m, n=n, v=rng.standard_normal(ell))
        x = rng.standard_normal(n)
        dense = materialize(spec)
        cache = make_cache(spec)
        ref = np.r_[dense_xm(dense, x), dense_xm1(dense, x)]
        fast = np.r_[hankel_xm(cache, spec, x), hankel_xm1(cache, spec, x)]
        worst = max(worst, float(np.max(np.abs(fast - ref)
                                        / (1.0 + np.abs(ref)))))
    print(f"max relative error over {args.trials} trials at m={m}, n={n}: "
          f"{worst:.3e}")
    return 0 if worst <= 1e-10 else 1


def _cmd_bench(args) -> int:
    try:
        dims = [int(tok) for tok in args.dims.split(",") if tok]
    except ValueError as exc:
        raise UsageError(f"--dims must be a comma list of integers, got "
                         f"{args.dims!r}") from exc
    if not dims:
        raise UsageError("--dims must name at least one dimension")
    if args.reps < 1:
        raise UsageError(f"--reps must be at least 1, got {args.reps}")
    family = Family(args.family)
    lines = ["family,m,n,product_time_s,solve_time_s,iters"]
    for n in dims:
        fs = FamilySpec(family=family, m=args.order, n=n,
                        seed=args.seed if family is Family.RANDOM else None)
        spec = generate(fs)
        cache = make_cache(spec)
        x = np.random.default_rng(args.seed).standard_normal(n)
        x /= np.linalg.norm(x)
        hankel_xm1(cache, spec, x)
        samples = []
        for _ in range(args.reps):
            tic = time.perf_counter()
            hankel_xm1(cache, spec, x)
            samples.append(time.perf_counter() - tic)
        product_time = float(np.median(samples))
        opts = SolverOptions(extreme=Extreme(args.extreme), seed=args.seed)
        tic = time.perf_counter()
        result = solve(spec, BTensorKind(args.btensor), opts)
        solve_time = time.perf_counter() - tic
        lines.append(",".join([
            family.value, str(args.order), str(n),
            _format_float(product_time), _format_float(solve_time),
            str(result.iterations),
        ]))
    _emit(args.out, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="hankeleig",
                     description="Extremal eigenpairs of Hankel tensors.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="compute an extremal eigenpair")
    _add_family_args(p_solve, with_input=True)
    p_solve.add_argument("--btensor", choices=_BTENSOR_CHOICES, required=True,
                         help="reference tensor: z for Z-eigenpairs, h for "
                              "H-eigenpairs")
    p_solve.add_argument("--extreme", choices=_EXTREME_CHOICES, required=True)
    p_solve.add_argument("--starts", type=int, default=_DEFAULTS.starts,
                         help="number of random starting points")
    p_solve.add_argument("--eta", type=float, default=_DEFAULTS.eta,
                         help="sufficient-decrease constant")
    p_solve.add_argument("--beta", type=float, default=_DEFAULTS.beta,
                         help="backtracking factor")
    p_solve.add_argument("--alpha-max", dest="alpha_max", type=float,
                         default=_DEFAULTS.alpha_max, help="step size cap")
    p_solve.add_argument("--tol", type=float, default=_DEFAULTS.tol_rel,
                         help="relative objective tolerance coefficient "
                              "(scaled by sqrt(n))")
    p_solve.add_argument("--max-iter", type=int, default=_DEFAULTS.max_iter,
                         dest="max_iter")
    p_solve.add_argument("--out", metavar="PATH",
                         help="result JSON path (default: stdout)")
    p_solve.add_argument("--trace", metavar="PATH",
                         help="iteration trace CSV path")
    p_solve.add_argument("--emit-vector", metavar="PATH", dest="emit_vector",
                         help="write the eigenvector as binary (magic 'HNKV', "
                              "u32 version, u64 length, little-endian f64)")
    p_solve.set_defaults(func=_cmd_solve)

    p_gen = sub.add_parser("gen", help="write a benchmark generating vector")
    _add_family_args(p_gen, with_input=False)
    p_gen.add_argument("--format", choices=["txt", "json"], default="txt")
    p_gen.add_argument("--out", metavar="PATH",
                       help="output path (default: stdout)")
    p_gen.set_defaults(func=_cmd_gen)

    p_verify = sub.add_parser(
        "verify", help="compare the fast products against the dense oracle")
    p_verify.add_argument("--order", type=int, required=True)
    p_verify.add_argument("--dim", type=int, required=True)
    p_verify.add_argument("--trials", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=_cmd_verify)

    p_bench = sub.add_parser(
        "bench", help="time the fast product and the solver over dimensions")
    p_bench.add_argument("--order", type=int, required=True)
    p_bench.add_argument("--dims", required=True,
                         help="comma list of dimensions, e.g. 10,100,1000")
    p_bench.add_argument("--reps", type=int, default=20)
    p_bench.add_argument("--family", default="random",
                         choices=[f.value for f in Family
                                  if f is not Family.PARAM_EPS])
    p_bench.add_argument("--btensor", choices=_BTENSOR_CHOICES, default="z")
    p_bench.add_argument("--extreme", choices=_EXTREME_CHOICES, default="min")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", metavar="PATH",
                         help="CSV path (default: stdout)")
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
