"""Curvilinear search on the unit sphere for extremal Hankel eigenpairs.

One loop, :func:`_iterate`, runs both iterations of this module; they
differ only in the step rule it is given.  The paper's rule moves along
the sphere-preserving curve obtained from a Cayley transform of a
rank-two skew matrix built from the iterate and the gradient: a
backtracking search enforces sufficient decrease (increase, for the
largest eigenvalue) and the next trial step comes from the geometric mean
of the two Barzilai-Borwein step sizes.  The shifted power rule of the
cross-check baseline normalises a shifted product instead.  The loop
stops when the objective stalls in relative terms.  A multistart driver
sits on top.

Both iterations run on the normalised tensor ``v * 2**-e`` of the spectral
cache (see :class:`~hankeleig.fft_products.SpectralCache`) and scale the
eigenvalue, the residual and the trace back by ``2**e``.  Their step
control is relative to the eigenvalue estimate, so a run on ``2**k * v``
is the run on ``v`` scaled by ``2**k``, to the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import ClassVar

import numpy as np

from .fft_products import (HankelSpec, SpectralCache, _norm, _vector,
                           _workspace, _Workspace, make_cache)
from .objective import (BTensorKind, InvalidReferenceTensorError,
                        ObjectiveEval, ReferenceTensor, _evaluate, _gradient,
                        _quotient)

__all__ = [
    "Extreme",
    "Termination",
    "SolverOptions",
    "IterationRecord",
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


@dataclass(frozen=True, slots=True)
class IterationRecord:
    """One trace row.

    ``alpha_k`` is the accepted step size leaving iterate ``k`` (0.0 on the
    terminal row) and ``backtracks`` counts rejected trials in that search.
    Every value is in the units of the generating vector; a step that does
    not fit a float64 in them (steps scale as ``1/lambda``, so only for a
    ``v`` near the bottom of the subnormal range) reads ``inf``.
    """

    k: int
    lambda_k: float
    grad_norm: float
    alpha_k: float
    backtracks: int


# Slotted: one record is kept per start.
@dataclass(frozen=True, slots=True)
class SolveStats:
    """Work done by one solver run.

    ``forward_transforms`` and ``inverse_transforms`` count the real FFTs
    of points (the iterates and the trial points), not the cache build,
    where the product kernel runs them.  ``trials`` counts the candidate
    points tried and ``backtracks`` the rejected ones.  A curvilinear
    trial, of either step rule, is the quotient of one forward transform,
    and only the accepted trial adds the inverse transform of its gradient,
    so a run of ``k`` iterations uses ``1 + trials`` forward and ``1 + k``
    inverse transforms.
    """

    forward_transforms: int = 0
    inverse_transforms: int = 0
    trials: int = 0
    backtracks: int = 0


@dataclass(eq=False, slots=True)
class EigenResult:
    """Outcome of one solver run."""

    eigenvalue: float
    x: np.ndarray
    residual: float
    iterations: int
    termination: Termination
    trace: list[IterationRecord] = field(default_factory=list)
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
    if not isinstance(extreme, Extreme):
        raise ValueError(f"extreme must be an Extreme, got {extreme!r}")
    return -1.0 if extreme is Extreme.MIN else 1.0


def _step_args(x: np.ndarray, p, alpha: float) -> tuple[np.ndarray, float]:
    """``(p, alpha * ||p||)`` for a ``p`` of the length of ``x`` and a
    finite positive ``alpha``: the one check of both step functions."""
    p = _vector(p, x.size, "p")
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError(f"alpha must be finite and positive, got {alpha}")
    return p, alpha * _norm(p)


def cayley_step(x: np.ndarray, p: np.ndarray, alpha: float,
                extreme: Extreme) -> np.ndarray:
    """Move along the sphere-preserving Cayley curve.

    For the MIN variant ``x+ = ((1 - a) x - 2 alpha p) / (1 + a)`` with
    ``a = alpha^2 ||p||^2``; the MAX variant flips the sign of the ``p``
    term.  For a unit ``x`` and a tangent ``p`` the result is unit to
    rounding and is not renormalised: a trial point is exactly a linear
    combination of ``x`` and ``p``.
    """
    x = np.asarray(x, dtype=float)
    p, t = _step_args(x, p, alpha)
    u = t * t
    # (1 - u) / (1 + u) and 2 alpha / (1 + u) rewritten so huge
    # alpha*||p|| degrades to the antipode instead of overflowing to nan;
    # the factor 2, a power of two, commutes with rounding.
    cx = 2.0 / (1.0 + u) - 1.0
    cp = 2.0 * (alpha / (1.0 + u))
    return cx * x + _sign(extreme) * cp * p


def step_length(x: np.ndarray, p: np.ndarray, alpha: float) -> float:
    """Distance ``||cayley_step(x, p, alpha) - x||``, in closed form.

    Equals ``2 t / sqrt(1 + t^2)`` with ``t = alpha * ||p||`` for a finite
    positive ``alpha`` and a ``p`` of the length of ``x``; the same for
    both extreme variants.  ``x`` does not enter the value.
    """
    _, t = _step_args(np.asarray(x, dtype=float), p, alpha)
    if t == math.inf:  # the antipodal limit, where inf / inf would be nan
        return 2.0
    return 2.0 * (t / math.hypot(1.0, t))


def _bb_step(dx: np.ndarray, dp: np.ndarray, alpha_max: float,
             fallback: float, scale: float) -> float:
    """Geometric-mean Barzilai-Borwein trial step ``||dx|| / ||dp||``.

    Clamped to ``[1e-10 / scale, alpha_max]``.  The ratio scales as
    ``1/lambda``, so :func:`solve` passes ``scale = max(1, |f|)`` at the new
    iterate and the floor is relative to the eigenvalue.  A zero gradient
    difference carries the previous trial step, ``fallback``, forward.
    """
    ndp = _norm(dp)
    if ndp == 0.0:
        return fallback
    return min(max(_norm(dx) / ndp, _BB_FLOOR / scale), alpha_max)


def curvilinear_search(spec: HankelSpec, cache: SpectralCache,
                       kind: ReferenceTensor, x_k: np.ndarray,
                       eval_k: ObjectiveEval, alpha_bar: float,
                       opts: SolverOptions, workspace: _Workspace | None = None
                       ) -> tuple[float, np.ndarray, ObjectiveEval, int]:
    """Backtrack along the Cayley curve until sufficient decrease holds.

    Tries ``alpha = beta^j * alpha_bar`` for ``j = 0, 1, ...`` and accepts
    the first trial with ``f(x+) <= f(x_k) - eta * alpha * ||g||^2`` (MIN;
    the mirrored inequality for MAX).  Returns ``(alpha, x+, eval+, j)``.
    A trial is the quotient of one forward transform; only the accepted
    one adds the inverse transform of ``eval+``, so ``B x^m`` is taken once
    per trial.  The transforms run in ``workspace``, which carries the
    cache, from :func:`~hankeleig.fft_products._workspace` (a fresh one of
    ``spec`` and ``cache`` if it is not given); it is free again on return
    and counts the trials, backtracks and transforms.  :func:`solve` passes
    one workspace to every search of a run.

    Raises :class:`LineSearchStallError` after ``max_backtracks`` rejected
    trials; that signals the decrease has fallen below rounding resolution.
    """
    if not 0.0 < alpha_bar <= opts.alpha_max:
        raise ValueError(f"alpha_bar must lie in (0, alpha_max], got {alpha_bar}")
    ws = _workspace(spec, cache) if workspace is None else workspace
    x_k = _vector(x_k, spec.n)
    g = _vector(eval_k.g, spec.n, "g")
    sgn = _sign(opts.extreme)
    f_k = eval_k.f
    gnorm2 = float(g @ g)
    for j in range(opts.max_backtracks + 1):
        alpha = alpha_bar * opts.beta ** j
        x_trial = cayley_step(x_k, g, alpha, opts.extreme)
        ws.counts["trials"] += 1
        f_trial, hxm, bxm = _quotient(kind, x_trial, ws)
        # Strict inequality keeps the trace strictly monotone even when the
        # required decrease rounds to nothing.
        if sgn * (f_trial - f_k) >= opts.eta * alpha * gnorm2 and f_trial != f_k:
            return alpha, x_trial, _gradient(kind, x_trial, hxm, bxm, ws), j
        ws.counts["backtracks"] += 1
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


def _scaled_step(alpha: float, exponent: int) -> float:
    """``alpha * 2**exponent`` for a step ``alpha >= 0``, ``inf`` where that
    overflows."""
    try:
        return math.ldexp(alpha, exponent)
    except OverflowError:
        return math.inf


def _iterate(spec: HankelSpec, cache: SpectralCache, kind: ReferenceTensor,
             opts: SolverOptions, x: np.ndarray, first_step, *,
             shift: bool = False) -> EigenResult:
    """The one iteration loop, from the unit start ``x``.

    ``first_step(spec, cache, kind, opts, ev_1)`` returns the step rule
    ``step(x, ev, ws) -> (x+, ev+, alpha_k, backtracks)``, which counts its
    trials and backtracks in ``ws.counts`` and raises
    :class:`LineSearchStallError` when it finds no acceptable point.  The
    run is on the cache of ``v * 2**-e`` (the same spectra with exponent
    0), in one workspace, whose counts become its :class:`SolveStats`.
    Its result is scaled back: lambda, the residual and the trace by
    ``2**e``, trace steps by ``2**-e``, or, when ``shift`` says they are
    the power iteration's shifts, in the units of lambda, by ``2**e``.
    Raises :class:`ResultOverflowError` when lambda, the residual or a
    gradient norm does not fit a float64 once scaled.
    """
    exponent = cache.exponent
    if exponent:
        cache = replace(cache, exponent=0)
    ws = _workspace(spec, cache)
    ev = _evaluate(kind, x, ws)
    step = first_step(spec, cache, kind, opts, ev)
    tol = opts.tol_rel * math.sqrt(spec.n)
    trace: list[IterationRecord] = []
    path: list[np.ndarray] | None = [x.copy()] if opts.keep_path else None
    termination = Termination.MAX_ITER
    rel_change = math.inf
    k = 1
    while True:
        gnorm = _norm(ev.g)
        if rel_change < tol:
            termination = Termination.CONVERGED
            break
        if gnorm <= _ZERO_GRAD_FLOOR * max(1.0, abs(ev.f)):
            termination = Termination.ZERO_GRADIENT
            break
        if k > opts.max_iter:
            break
        try:
            x_new, ev_new, alpha_k, backtracks = step(x, ev, ws)
        except LineSearchStallError:
            termination = Termination.LINESEARCH_STALL
            break
        trace.append(IterationRecord(k=k, lambda_k=ev.f, grad_norm=gnorm,
                                     alpha_k=alpha_k, backtracks=backtracks))
        if path is not None:
            path.append(x_new.copy())
        rel_change = abs(ev_new.f - ev.f) / max(1.0, abs(ev.f))
        x, ev = x_new, ev_new
        k += 1
    trace.append(IterationRecord(k=k, lambda_k=ev.f, grad_norm=gnorm,
                                 alpha_k=0.0, backtracks=0))
    lam = ev.f
    # ||H x^{m-1} - f B x^{m-1}|| from the products ev holds
    res = _norm(ev.hxm1 - ev.f * ev.bxm1)
    if exponent:
        step_exponent = exponent if shift else -exponent
        try:
            lam = math.ldexp(lam, exponent)
            res = math.ldexp(res, exponent)
            trace = [replace(r, lambda_k=math.ldexp(r.lambda_k, exponent),
                             grad_norm=math.ldexp(r.grad_norm, exponent),
                             alpha_k=_scaled_step(r.alpha_k, step_exponent))
                     for r in trace]
        except OverflowError:
            raise ResultOverflowError(
                f"the result overflows float64 when scaled back by "
                f"2**{exponent}, the power of two nearest max|v|"
            ) from None
    return EigenResult(eigenvalue=lam, x=x, residual=res, iterations=k - 1,
                       termination=termination, trace=trace, path=path,
                       stats=SolveStats(**ws.counts))


def _search_rule(spec: HankelSpec, cache: SpectralCache, kind: ReferenceTensor,
                 opts: SolverOptions, ev_1: ObjectiveEval):
    """The paper's step: :func:`curvilinear_search` from the
    Barzilai-Borwein trial step, ``min(alpha_1 / max(1, |f_1|), alpha_max)``
    at first."""
    alpha_bar = min(opts.alpha_1 / max(1.0, abs(ev_1.f)), opts.alpha_max)

    def step(x, ev, ws):
        nonlocal alpha_bar
        alpha_k, x_new, ev_new, backtracks = curvilinear_search(
            spec, cache, kind, x, ev, alpha_bar, opts, ws)
        # the workspace is free until the next search
        dx = np.subtract(x_new, x, out=ws.power.view(float)[: spec.n])
        dg = np.subtract(ev_new.g, ev.g, out=ws.scratch.view(float)[: spec.n])
        alpha_bar = _bb_step(dx, dg, opts.alpha_max, alpha_bar,
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
        for repairs in range(opts.max_backtracks + 1):
            if repairs:
                shift *= 2.0
            u = sgn * ev.hxm1 + shift * ev.bxm1
            if kind is not BTensorKind.Z_IDENTITY:
                u = np.sign(u) * np.abs(u) ** root
            nu = _norm(u)
            if nu > 0.0:
                x_new = u / nu
                ws.counts["trials"] += 1
                f_new, hxm, bxm = _quotient(kind, x_new, ws)
                if sgn * (f_new - ev.f) >= -1e-14 * max(1.0, abs(ev.f)):
                    taken, shift = shift, max(shift, abs(f_new) + 1.0)
                    return (x_new, _gradient(kind, x_new, hxm, bxm, ws),
                            taken, repairs)
            ws.counts["backtracks"] += 1
        raise LineSearchStallError(
            f"no monotone step within {opts.max_backtracks} shift doublings")

    return step


def power_method_baseline(spec: HankelSpec, kind: BTensorKind,
                          opts: SolverOptions) -> EigenResult:
    """Shifted power iteration over the same FFT products, best of all starts.

    The fixed-point map is ``x+ = normalize(s(H x^{m-1}) + shift * B x^{m-1})``
    (taken through the entrywise ``(m-1)``-th root for the diagonal reference
    tensor), with ``s`` the extreme's sign.  The shift adapts by doubling
    whenever the objective fails to move monotonically, so no Hessian is
    needed.  In the trace, ``alpha_k`` holds the shift and ``backtracks`` the
    number of shift doublings.  Intended only as a cross-check for the
    curvilinear search.
    """
    _require_even(spec)
    if not isinstance(kind, BTensorKind):
        raise TypeError(
            "the power iteration needs to invert the reference tensor's "
            "action and supports only the shipped kinds"
        )
    cache = make_cache(spec)
    return _best([_iterate(spec, cache, kind, opts,
                           _start(spec.n, opts.seed + i), _power_rule,
                           shift=True)
                  for i in range(opts.starts)], opts.extreme)
