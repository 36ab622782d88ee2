"""Curvilinear search on the unit sphere for extremal Hankel eigenpairs.

One loop, :func:`_iterate`, runs both iterations of this module; they
differ only in the step rule it is given.  The paper's rule moves along
the sphere-preserving curve obtained from a Cayley transform of a
rank-two skew matrix built from the iterate and the gradient: a
backtracking search enforces sufficient decrease (increase, for the
largest eigenvalue) and the next trial step is the geometric mean of the
two Barzilai-Borwein step sizes, taken in the curve's own parameter: the
curve is Wen and Yin's ``Y(tau)`` at ``tau = 2 alpha``, so the trial step
is half that mean.  The shifted power rule of the cross-check baseline
normalises a shifted product instead.  The loop stops when the objective
stalls in relative terms.  A multistart driver sits on top.  A run makes
one :func:`curvilinear_search` per iteration and one :func:`cayley_step`
per trial, and keeps its constants and buffers in one workspace (see
:func:`~hankeleig.fft_products._workspace`).

Both iterations run on the normalised tensor ``v * 2**-e`` of the spectral
cache (see :class:`~hankeleig.fft_products.SpectralCache`) and scale the
eigenvalue, the residual and the trace back by ``2**e``.  Their step
control is relative to the eigenvalue estimate, so a run on ``2**k * v``
is the run on ``v`` scaled by ``2**k``, to the last bit.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import ClassVar

import numpy as np

from .fft_products import (HankelSpec, SpectralCache, _norm, _vector,
                           _workspace, _Workspace, make_cache)
from .objective import (BTensorKind, InvalidReferenceTensorError,
                        ObjectiveEval, ReferenceTensor, _evaluate, _gradient,
                        _quotient, b_xm1)

__all__ = [
    "Extreme",
    "Termination",
    "SolverOptions",
    "SolveStats",
    "EigenResult",
    "OccurrenceBin",
    "MultistartOutcome",
    "UnsupportedOrderError",
    "LineSearchStallError",
    "ResultOverflowError",
    "cayley_step",
    "step_length",
    "curvilinear_search",
    "solve",
    "multistart",
    "power_method_baseline",
]

# Gradient norms at or below this (relative) floor are treated as zero:
# the iterate is already an eigenvector to working precision.
_ZERO_GRAD_FLOOR = 1e-13

# Lower clamp for the Barzilai-Borwein trial step, relative to max(1, |f|).
_BB_FLOOR = 1e-10

# Multistart eigenvalues within this share of the largest |eigenvalue|
# share an occurrence bin.
_EIGENVALUE_BIN_TOL = 1e-6


class UnsupportedOrderError(ValueError):
    """The solver requires an even tensor order."""


class LineSearchStallError(RuntimeError):
    """Backtracking exhausted without sufficient decrease (rounding floor)."""


class ResultOverflowError(ValueError):
    """The eigenpair found on the normalised tensor overflows float64 once
    scaled back to the units of the generating vector."""


class Extreme(Enum):
    MIN = "min"
    MAX = "max"


class Termination(Enum):
    CONVERGED = "converged"
    MAX_ITER = "max_iter"
    LINESEARCH_STALL = "linesearch_stall"
    ZERO_GRADIENT = "zero_gradient"


_MIN, _MAX = Extreme.MIN, Extreme.MAX

# The terminations of a run that found an eigenpair.
_SUCCESS = (Termination.CONVERGED, Termination.ZERO_GRADIENT)


@dataclass(frozen=True)
class SolverOptions:
    """Parameters of the curvilinear search.

    ``tol_rel`` is the coefficient of the stopping rule
    ``|lam_{k+1} - lam_k| / max(1, |lam_k|) < tol_rel * sqrt(n)``, applied
    to the normalised tensor.  ``keep_path`` retains every iterate (for
    invariant audits).  Two constants of the class are not settings: the
    first search starts at ``min(alpha_1 / max(1, |f(x_1)|), alpha_max)``,
    and a search gives up after ``max_backtracks`` rejected trials.
    """

    alpha_1: ClassVar[float] = 1.0
    max_backtracks: ClassVar[int] = 60

    eta: float = 1e-3
    beta: float = 0.5
    alpha_max: float = 1e4
    tol_rel: float = 1e-12
    max_iter: int = 1000
    extreme: Extreme = Extreme.MIN
    starts: int = 1
    seed: int = 0
    keep_path: bool = False

    def __post_init__(self):
        for name in ("eta", "beta", "alpha_max", "tol_rel", "max_iter",
                     "starts", "seed"):
            # a bool would pass every check below as 0 or 1
            if isinstance(getattr(self, name), (bool, np.bool_)):
                raise ValueError(f"{name} must be a number, not a bool")
        for name in ("max_iter", "starts", "seed"):
            value = getattr(self, name)
            try:  # a numpy integer passes, a float (even 3.0) or NaN does not
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(
                    f"{name} must be an integer, got {value!r}") from None
        if not 0.0 < self.eta <= 0.5:
            raise ValueError(f"eta must lie in (0, 1/2], got {self.eta}")
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must lie in (0, 1), got {self.beta}")
        for name in ("alpha_max", "tol_rel"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        for name in ("max_iter", "starts"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        _sign(self.extreme)  # refuses anything but an Extreme


# A trace row, 32 B, of a record dtype, so a row reads as ``row.alpha_k``.
_ROW = np.dtype((np.record, [("lambda_k", "f8"), ("grad_norm", "f8"),
                             ("alpha_k", "f8"), ("backtracks", "i8")]))


# Slotted: one record is kept per start.
@dataclass(frozen=True, slots=True)
class SolveStats:
    """Work done by one solver run.

    ``forward_transforms`` and ``inverse_transforms`` count the transforms
    of points (the iterates and the trial points), not the cache build,
    where the product kernel runs them: real FFTs, or for a small tensor
    the products with its DFT matrices.  ``trials`` counts the candidate
    points tried and ``backtracks`` the rejected ones.  A curvilinear
    trial, of either step rule, is the quotient of one forward transform,
    and only the accepted trial adds the inverse transform of its gradient,
    so a run of ``k`` iterations uses ``1 + trials`` forward and ``1 + k``
    inverse transforms.  The run's workspace counts all four in ``int``
    fields of these names, from which the stats are built.
    """

    forward_transforms: int = 0
    inverse_transforms: int = 0
    trials: int = 0
    backtracks: int = 0


@dataclass(eq=False, slots=True)
class EigenResult:
    """Outcome of one solver run.

    ``trace`` is a read-only array of ``_ROW`` records, one per visited
    iterate (empty if the result is built without one): ``trace[k - 1]`` is
    iterate ``k``, and reads as ``.lambda_k``, ``.grad_norm``, ``.alpha_k``
    and ``.backtracks``.  Every value is in the units of the generating
    vector; a step that does not fit a float64 in them (steps scale as
    ``1/lambda``, so only for a ``v`` near the bottom of the subnormal
    range) reads ``inf``.
    """

    eigenvalue: float
    x: np.ndarray
    residual: float
    iterations: int
    termination: Termination
    trace: np.ndarray = field(default_factory=lambda: np.empty(0, _ROW))
    path: list[np.ndarray] | None = None
    stats: SolveStats = field(default_factory=SolveStats)


@dataclass(frozen=True)
class OccurrenceBin:
    """Distinct eigenvalue found by a multistart run, with its frequency."""

    eigenvalue: float
    count: int
    share: float


@dataclass(eq=False)
class MultistartOutcome:
    """All per-start results plus a summary of distinct eigenvalues."""

    results: list[EigenResult]
    failures: list[tuple[int, str]]
    best: EigenResult | None
    bins: list[OccurrenceBin]


def _sign(extreme: Extreme) -> float:
    # by identity, cheaper than isinstance and a member lookup: an Extreme
    # is one of these two members
    if extreme is _MIN:
        return -1.0
    if extreme is _MAX:
        return 1.0
    raise ValueError(f"extreme must be an Extreme, got {extreme!r}")


def _step_args(x: np.ndarray, p, alpha: float, p_norm: float | None = None
               ) -> tuple[np.ndarray, float]:
    """``(p, alpha * ||p||)`` for a ``p`` of the length of ``x`` and a
    finite positive ``alpha``: the one check of both step functions.
    ``||p||`` is ``p_norm`` if given, else :func:`_norm`'s, exact to
    rounding at any scale."""
    p = _vector(p, x.size, "p")
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError(f"alpha must be finite and positive, got {alpha}")
    return p, alpha * (_norm(p) if p_norm is None else p_norm)


def _chord(t: float) -> float:
    """``2 t / sqrt(1 + t^2)``: how far a step with ``t = alpha * ||p||``
    moves a unit ``x`` along the Cayley curve of a tangent ``p``."""
    if t == math.inf:  # the antipodal limit, where inf / inf would be nan
        return 2.0
    return 2.0 * (t / math.hypot(1.0, t))


def cayley_step(x: np.ndarray, p: np.ndarray, alpha: float,
                extreme: Extreme, out: np.ndarray | None = None, *,
                p_norm: float | None = None) -> np.ndarray:
    """Move along the sphere-preserving Cayley curve.

    For the MIN variant ``x+ = ((1 - a) x - 2 alpha p) / (1 + a)`` with
    ``a = alpha^2 ||p||^2``; the MAX variant flips the sign of the ``p``
    term.  For a unit ``x`` and a tangent ``p`` the result is unit to
    rounding and is not renormalised: a trial point is exactly a linear
    combination of ``x`` and ``p``.  It is written into ``out``, an array
    of the shape of ``x`` that may be ``x`` or ``p``, if one is given.
    ``p_norm``, if given, is taken for ``||p||`` unchecked, so it must be
    :func:`~hankeleig.fft_products._norm` of ``p``, as the
    ``grad_norm`` of an :class:`~hankeleig.objective.ObjectiveEval` is of
    its ``g``; then the step is the one without it, to the last bit.
    """
    x = np.asarray(x, dtype=float)
    p, t = _step_args(x, p, alpha, p_norm)
    u = t * t
    # (1 - u) / (1 + u) and 2 alpha / (1 + u) rewritten so huge
    # alpha*||p|| degrades to the antipode instead of overflowing to nan;
    # the factor 2, a power of two, commutes with rounding.
    cx = 2.0 / (1.0 + u) - 1.0
    cp = 2.0 * (alpha / (1.0 + u))
    if cp == math.inf:  # alpha near the float64 limit, p = 0: not inf * 0
        cp = sys.float_info.max
    step = np.multiply(p, _sign(extreme) * cp)  # before out may overwrite p
    return np.add(np.multiply(x, cx, out), step, out)


def step_length(x: np.ndarray, p: np.ndarray, alpha: float) -> float:
    """Distance ``||cayley_step(x, p, alpha) - x||``, in closed form.

    Equals ``2 t / sqrt(1 + t^2)`` with ``t = alpha * ||p||`` for a finite
    positive ``alpha`` and a ``p`` of the length of ``x``; the same for
    both extreme variants.  ``x`` does not enter the value.
    """
    return _chord(_step_args(np.asarray(x, dtype=float), p, alpha)[1])


def _bb_step(ndx: float, ndp: float, alpha_max: float,
             fallback: float, scale: float) -> float:
    """The Barzilai-Borwein trial step in the curve's parameter,
    ``||dx|| / (2 ||dp||)``, from the two norms.

    The geometric-mean BB step ``tau = ||dx|| / ||dp||`` is a step along a
    curve of velocity ``-g`` (``+g`` for MAX) at 0, as Wen and Yin's
    ``Y(tau)`` is.  :func:`cayley_step` has velocity ``x'(0) = -2g``
    (``+2g``): it is ``Y(tau)`` at ``tau = 2 alpha``, so the BB step in its
    parameter is ``alpha = tau / 2``.  Clamped, after the halving, to
    ``[1e-10 / scale, alpha_max]``.  The ratio scales as ``1/lambda``, so
    :func:`solve` passes ``scale = max(1, |f|)`` at the new iterate and the
    floor is relative to the eigenvalue.  A zero gradient difference carries
    the previous trial step, ``fallback``, forward.
    """
    if ndp == 0.0:
        return fallback
    return min(max(ndx / (2.0 * ndp), _BB_FLOOR / scale), alpha_max)


def curvilinear_search(spec: HankelSpec, cache: SpectralCache,
                       kind: ReferenceTensor, x_k: np.ndarray,
                       eval_k: ObjectiveEval, alpha_bar: float,
                       opts: SolverOptions, workspace: _Workspace | None = None
                       ) -> tuple[float, np.ndarray, ObjectiveEval, int]:
    """Backtrack along the Cayley curve until sufficient decrease holds.

    Tries ``alpha = beta^j * alpha_bar`` for ``j = 0, 1, ...`` and accepts
    the first trial with ``f(x+) <= f(x_k) - eta * alpha * ||g||^2`` (MIN;
    the mirrored inequality for MAX).  Returns ``(alpha, x+, eval+, j)``.
    ``||g||`` is ``eval_k.grad_norm``, which every trial's
    :func:`cayley_step` takes as its ``p_norm``, so the search takes no
    norm of its own.  A trial is the quotient of one forward transform;
    only the accepted one adds the inverse transform of ``eval+``, so
    ``B x^m`` is taken once per trial.  Every trial is built in one vector,
    which becomes ``x+``, and ``eval+`` keeps the residual, not the vector
    products.  The transforms run in ``workspace``, a
    :func:`~hankeleig.fft_products._workspace` of ``spec`` and ``cache``
    (a fresh one if it is not given); it is free again on return and
    counts the trials, backtracks and transforms.  :func:`solve` passes
    one workspace to every search of a run.

    Raises :class:`LineSearchStallError` after ``max_backtracks`` rejected
    trials, or once the trial step underflows to zero, before that trial;
    either signals the decrease has fallen below rounding resolution.
    """
    if not 0.0 < alpha_bar <= opts.alpha_max:
        raise ValueError(f"alpha_bar must lie in (0, alpha_max], got {alpha_bar}")
    ws = _workspace(spec, cache) if workspace is None else workspace
    x_k = _vector(x_k, spec.n)
    g = _vector(eval_k.g, spec.n, "g")
    sgn = _sign(opts.extreme)
    f_k = eval_k.f
    gnorm = eval_k.grad_norm
    gnorm2 = gnorm * gnorm  # inf where the square overflows, not an error
    x_trial = np.empty_like(x_k)
    beta, eta, extreme = opts.beta, opts.eta, opts.extreme
    for j in range(opts.max_backtracks + 1):
        alpha = alpha_bar * beta ** j
        if alpha == 0.0:  # a small beta reaches the bottom of the floats
            raise LineSearchStallError(
                f"the trial step underflowed to zero after {j} backtracks")
        cayley_step(x_k, g, alpha, extreme, out=x_trial, p_norm=gnorm)
        ws.trials += 1
        trial = _quotient(kind, x_trial, ws)
        f_trial = trial[0]
        # Strict inequality keeps the trace strictly monotone even when the
        # required decrease rounds to nothing.
        if sgn * (f_trial - f_k) >= eta * alpha * gnorm2 and f_trial != f_k:
            return alpha, x_trial, _gradient(kind, x_trial, trial, ws), j
        ws.backtracks += 1
    raise LineSearchStallError(
        f"no sufficient decrease within {opts.max_backtracks} backtracks"
    )


def _start(n: int, seed: int, x_1=None) -> np.ndarray:
    """``x_1 / ||x_1||``, for a Gaussian draw from ``seed`` if ``x_1`` is
    None.  It is taken on ``x_1 * 2**-e`` (``e`` the exponent of
    ``max|x_1|``), so the norm neither overflows nor underflows, and is
    the plain quotient to the last bit wherever that does neither."""
    if x_1 is None:
        x = np.random.default_rng(seed).standard_normal(n)
    else:
        x = _vector(x_1, n, "x_1")
    top = float(np.max(np.abs(x)))
    if not math.isfinite(top):
        raise ValueError("x_1 must be finite")
    if top == 0.0:
        raise ValueError("x_1 must be nonzero")
    x = np.ldexp(x, -math.frexp(top)[1])
    return x / _norm(x)


def _require_even(spec: HankelSpec) -> None:
    if spec.m % 2 != 0:
        raise UnsupportedOrderError(
            f"the spherical quotient needs an even order, got m = {spec.m}"
        )


def _iterate(spec: HankelSpec, cache: SpectralCache, kind: ReferenceTensor,
             opts: SolverOptions, x: np.ndarray, first_step) -> EigenResult:
    """The one iteration loop, from the unit start ``x``.

    ``first_step(spec, cache, kind, opts, ev_1)`` returns the step rule
    ``step(x, ev, ws) -> (x+, ev+, alpha_k, backtracks)``, which counts its
    trials and backtracks in ``ws.trials`` and ``ws.backtracks`` and raises
    :class:`LineSearchStallError` when it finds no acceptable point.  The
    run is on the cache of ``v * 2**-e`` (the same spectra with exponent
    0), in one workspace, whose four counts become its :class:`SolveStats`.
    A trace row's gradient norm is the ``grad_norm`` of its evaluation.
    Each iteration appends a tuple to the trace, which is packed into one
    array of ``_ROW`` when the run ends.  The result is scaled back:
    lambda, the residual and the trace by ``2**e``, and the trace's steps,
    which scale as ``1/lambda``, by ``2**-e``; a step that overflows reads
    ``inf``.  Raises :class:`ResultOverflowError` when lambda, the residual
    or a gradient norm does not fit a float64 once scaled.  The scaled
    trace is made read-only.
    """
    exponent = cache.exponent
    if exponent:
        cache = replace(cache, exponent=0)
    ws = _workspace(spec, cache)
    ev = _evaluate(kind, x, ws)
    step = first_step(spec, cache, kind, opts, ev)
    tol = opts.tol_rel * math.sqrt(spec.n)
    rows: list[tuple[float, float, float, int]] = []
    path: list[np.ndarray] | None = [x.copy()] if opts.keep_path else None
    termination = Termination.MAX_ITER
    rel_change = math.inf
    while True:
        gnorm = ev.grad_norm
        if rel_change < tol:
            termination = Termination.CONVERGED
            break
        if gnorm <= _ZERO_GRAD_FLOOR * max(1.0, abs(ev.f)):
            termination = Termination.ZERO_GRADIENT
            break
        if len(rows) >= opts.max_iter:
            break
        try:
            x_new, ev_new, alpha_k, backtracks = step(x, ev, ws)
        except LineSearchStallError:
            termination = Termination.LINESEARCH_STALL
            break
        rows.append((ev.f, gnorm, alpha_k, backtracks))
        if path is not None:
            path.append(x_new.copy())
        rel_change = abs(ev_new.f - ev.f) / max(1.0, abs(ev.f))
        x, ev = x_new, ev_new
    iterations = len(rows)
    rows.append((ev.f, gnorm, 0.0, 0))
    trace = np.array(rows, dtype=_ROW)
    lam, res = ev.f, ev.residual
    if exponent:
        with np.errstate(over="ignore"):
            lam, res = np.ldexp([lam, res], exponent).tolist()
            for name, e in (("lambda_k", exponent), ("grad_norm", exponent),
                            ("alpha_k", -exponent)):
                np.ldexp(trace[name], e, out=trace[name])
        if not (math.isfinite(lam) and math.isfinite(res)
                and np.isfinite(trace["lambda_k"]).all()
                and np.isfinite(trace["grad_norm"]).all()):
            raise ResultOverflowError(
                f"the result overflows float64 when scaled back by "
                f"2**{exponent}, the power of two nearest max|v|"
            )
    trace.setflags(write=False)
    return EigenResult(eigenvalue=lam, x=x, residual=res,
                       iterations=iterations, termination=termination,
                       trace=trace, path=path,
                       stats=SolveStats(ws.forward_transforms,
                                        ws.inverse_transforms, ws.trials,
                                        ws.backtracks))


def _search_rule(spec: HankelSpec, cache: SpectralCache, kind: ReferenceTensor,
                 opts: SolverOptions, ev_1: ObjectiveEval):
    """:func:`curvilinear_search` from the BB step in the curve's
    parameter, ``tau = 2 alpha`` (:func:`_bb_step`), and from
    ``min(alpha_1 / max(1, |f_1|), alpha_max)`` at first.  The step's
    ``||x+ - x||`` is :func:`step_length`'s closed form of the accepted
    ``alpha_k * ||g||``, which the search used."""
    alpha_bar = min(opts.alpha_1 / max(1.0, abs(ev_1.f)), opts.alpha_max)

    def step(x, ev, ws):
        nonlocal alpha_bar
        alpha_k, x_new, ev_new, backtracks = curvilinear_search(
            spec, cache, kind, x, ev, alpha_bar, opts, ws)
        # the workspace is free until the next search
        dg = np.subtract(ev_new.g, ev.g, out=ws.head)
        alpha_bar = _bb_step(_chord(alpha_k * ev.grad_norm), _norm(dg),
                             opts.alpha_max, alpha_bar,
                             max(1.0, abs(ev_new.f)))
        return x_new, ev_new, alpha_k, backtracks

    return step


def solve(spec: HankelSpec, kind: ReferenceTensor, opts: SolverOptions,
          x_1: np.ndarray | None = None, *,
          cache: SpectralCache | None = None) -> EigenResult:
    """Run the curvilinear search from one starting point.

    ``x_1``, any finite nonzero vector, defaults to a Gaussian draw from
    ``opts.seed``; either is normalised.  The trace holds one row per
    visited iterate; the eigenvalue column is strictly monotone in the
    direction of ``opts.extreme``.  ``cache`` defaults to
    ``make_cache(spec)``; pass one to share it between runs on the same
    tensor (a cache built for another tensor raises ``ValueError``).  The
    run works on the normalised tensor of the cache; raises
    :class:`ResultOverflowError` if its result does not fit a float64 in
    the units of ``v``.
    """
    _require_even(spec)
    if cache is None:
        cache = make_cache(spec)
    # The start is passed on without a name here, so the loop frees it
    # once it has moved on.
    return _iterate(spec, cache, kind, opts, _start(spec.n, opts.seed, x_1),
                    _search_rule)


def _bin_eigenvalues(values: list[float]) -> list[OccurrenceBin]:
    """Group sorted eigenvalues whose gaps are at most
    ``_EIGENVALUE_BIN_TOL`` times the largest ``|eigenvalue|``; the bins of
    ``2**k`` times the values are the bins of the values times ``2**k``."""
    if not values:
        return []
    ordered = np.sort(values)
    gap = _EIGENVALUE_BIN_TOL * max(abs(ordered[0]), abs(ordered[-1]))
    groups = np.split(ordered, np.flatnonzero(np.diff(ordered) > gap) + 1)
    total = len(values)
    return [OccurrenceBin(eigenvalue=float(np.median(g)), count=len(g),
                          share=len(g) / total)
            for g in groups]


def _best(results: list[EigenResult], extreme: Extreme) -> EigenResult:
    """The result with the extreme eigenvalue among those that succeeded,
    or among all if none did; the first of equal ones."""
    pick = min if extreme is Extreme.MIN else max
    done = [r for r in results if r.termination in _SUCCESS]
    return pick(done or results, key=lambda r: r.eigenvalue)


def multistart(spec: HankelSpec, kind: ReferenceTensor,
               opts: SolverOptions) -> MultistartOutcome:
    """Run ``opts.starts`` independent solves from seeds ``seed + i``.

    The starts run one after another, in start order, on one shared
    spectral cache, so the outcome is deterministic for a given seed.  A
    start that meets a point where the reference tensor is not positive
    definite (:class:`InvalidReferenceTensorError`) is filed as a failure;
    any other error propagates.
    """
    _require_even(spec)
    cache = make_cache(spec)
    results: list[EigenResult] = []
    failures: list[tuple[int, str]] = []
    for i in range(opts.starts):
        try:
            results.append(solve(spec, kind,
                                 replace(opts, seed=opts.seed + i, starts=1),
                                 cache=cache))
        except InvalidReferenceTensorError as exc:
            failures.append((i, f"{type(exc).__name__}: {exc}"))
    best = _best(results, opts.extreme) if results else None
    bins = _bin_eigenvalues([r.eigenvalue for r in results])
    return MultistartOutcome(results=results, failures=failures, best=best,
                             bins=bins)


def _power_rule(spec: HankelSpec, cache: SpectralCache, kind: BTensorKind,
                opts: SolverOptions, ev_1: ObjectiveEval):
    """The shifted power step of :func:`power_method_baseline`."""
    sgn = _sign(opts.extreme)
    root = 1.0 / (spec.m - 1)
    # The shift must dominate |lambda| so the fixed-point multiplier stays
    # positive; it doubles whenever a step breaks monotonicity.
    shift = abs(ev_1.f) + 1.0

    def step(x, ev, ws):
        nonlocal shift
        # u = s H x^{m-1} + shift B x^{m-1}, by H x^{m-1} = (B x^m / m) g
        # + f B x^{m-1} up to roundoff; x @ u = (s f + shift) B x^m > 0.
        # u is built in x_new, with ws.spare, free until the trial's
        # transform, as the one temporary.
        bx = b_xm1(kind, spec.m, x)
        t = ws.spare
        for repairs in range(opts.max_backtracks + 1):
            if repairs:
                shift *= 2.0
            x_new = np.multiply(bx, sgn * ev.f + shift)
            x_new += np.multiply(ev.g, sgn * ev.bxm / spec.m, out=t)
            if kind is not BTensorKind.Z_IDENTITY:
                np.power(np.abs(x_new, out=t), root, out=t)
                np.copysign(t, x_new, out=x_new)
            x_new /= _norm(x_new)
            ws.trials += 1
            trial = _quotient(kind, x_new, ws)
            f_new = trial[0]
            if sgn * (f_new - ev.f) >= -1e-14 * max(1.0, abs(ev.f)):
                taken, shift = 1.0 / shift, max(shift, abs(f_new) + 1.0)
                ev_new = _gradient(kind, x_new, trial, ws)
                return x_new, ev_new, taken, repairs
            ws.backtracks += 1
        raise LineSearchStallError(
            f"no monotone step within {opts.max_backtracks} shift doublings")

    return step


def power_method_baseline(spec: HankelSpec, kind: BTensorKind,
                          opts: SolverOptions) -> EigenResult:
    """Shifted power iteration over the same fast products, best of all starts.

    The fixed-point map is ``x+ = normalize(s(H x^{m-1}) + shift * B x^{m-1})``
    (taken through the entrywise ``(m-1)``-th root for the diagonal reference
    tensor), with ``s`` the extreme's sign.  The shift adapts by doubling
    whenever the objective fails to move monotonically, so no Hessian is
    needed.  The trace's ``alpha_k`` is the step ``1/shift`` of the map, as
    ``x+`` is a multiple of ``x + s H x^{m-1} / shift`` for the Z identity,
    and ``backtracks`` counts the shift doublings.  Only a cross-check.
    """
    _require_even(spec)
    if not isinstance(kind, BTensorKind):
        raise TypeError(
            "the power iteration needs to invert the reference tensor's "
            "action and supports only the shipped kinds"
        )
    cache = make_cache(spec)
    return _best([_iterate(spec, cache, kind, opts,
                           _start(spec.n, opts.seed + i), _power_rule)
                  for i in range(opts.starts)], opts.extreme)
