"""Spherical eigenvalue objective: quotient value, gradient, and residual.

For a Hankel tensor ``H`` and a positive definite reference tensor ``B``
the objective on the unit sphere is ``f(x) = H x^m / B x^m``.  Its critical
points are generalized eigenvectors and the value of ``f`` there is the
eigenvalue.  Two reference tensors ship: the identity mapping onto
Z-eigenpairs (``B x^{m-1} = ||x||^{m-2} x``) and the diagonal identity
mapping onto H-eigenpairs (``(B x^{m-1})_i = x_i^{m-1}``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .fft_products import (HankelSpec, SpectralCache, _norm, _power,
                           _vector, _workspace, _Workspace, _xm1_from_power,
                           _xm_and_power, hankel_xm1)

__all__ = [
    "BTensorKind",
    "ReferenceProducts",
    "ObjectiveEval",
    "InvalidReferenceTensorError",
    "b_xm",
    "b_xm1",
    "b_xm2",
    "evaluate",
    "residual",
]

_UNIT_TOL = 1e-8


class InvalidReferenceTensorError(ValueError):
    """Raised when ``B x^m`` is not positive and finite, or a custom
    ``B x^{m-1}`` not finite; the quotient objective is then undefined."""


class BTensorKind(Enum):
    """Reference tensor in the generalized eigenproblem ``Hx^{m-1} = lam*Bx^{m-1}``."""

    Z_IDENTITY = "z"
    H_IDENTITY = "h"


@dataclass(frozen=True)
class ReferenceProducts:
    """Extension point: a custom positive definite reference tensor.

    Supply the two products as callables of ``(m, x)``.  Any such pair can
    be passed wherever a :class:`BTensorKind` is accepted by the objective
    and the curvilinear solver.  The caller is responsible for positive
    definiteness (even order) and finite products; a ``B x^m`` that is not
    positive and finite is still caught at every point where the quotient
    is taken, line-search trials included, and so is a ``B x^{m-1}`` with a
    NaN or infinite entry.
    """

    xm: Callable[[int, np.ndarray], float]
    xm1: Callable[[int, np.ndarray], np.ndarray]


ReferenceTensor = BTensorKind | ReferenceProducts


@dataclass(frozen=True, eq=False)
class ObjectiveEval:
    """One objective evaluation: value, gradient, and the four raw products."""

    f: float
    g: np.ndarray
    hxm: float
    bxm: float
    hxm1: np.ndarray
    bxm1: np.ndarray


def b_xm(kind: ReferenceTensor, m: int, x: np.ndarray) -> float:
    """Scalar product ``B x^m`` for the chosen reference tensor."""
    x = np.asarray(x, dtype=float)
    if isinstance(kind, ReferenceProducts):
        return float(kind.xm(m, x))
    if kind is BTensorKind.Z_IDENTITY:
        return _norm(x) ** m
    if kind is BTensorKind.H_IDENTITY:
        return float(np.sum(_power(x, m)))
    raise TypeError(f"unknown reference tensor {kind!r}")


def b_xm1(kind: ReferenceTensor, m: int, x: np.ndarray) -> np.ndarray:
    """Vector product ``B x^{m-1}``; a custom one must have the length of
    ``x``."""
    x = np.asarray(x, dtype=float)
    if isinstance(kind, ReferenceProducts):
        bxm1 = _vector(kind.xm1(m, x), x.size, "B x^{m-1}")
        if not np.isfinite(bxm1).all():
            raise InvalidReferenceTensorError(
                "B x^{m-1} has a NaN or infinite entry")
        return bxm1
    if kind is BTensorKind.Z_IDENTITY:
        # ||x||^0 == 1 covers m == 2 even at the x == 0 boundary.
        return _norm(x) ** (m - 2) * x
    if kind is BTensorKind.H_IDENTITY:
        return _power(x, m - 1)
    raise TypeError(f"unknown reference tensor {kind!r}")


def b_xm2(kind: BTensorKind, m: int, x: np.ndarray) -> np.ndarray:
    """Matrix product ``B x^{m-2}``, i.e. the second gradient of ``B x^m``
    divided by ``m*(m-1)``.  Used by the dense Hessian.

    Only the two shipped reference tensors carry this product; the
    :class:`ReferenceProducts` extension point does not (``TypeError``).
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if kind is BTensorKind.Z_IDENTITY:
        if m == 2:
            return np.eye(n)
        nrm = _norm(x)
        return ((m - 2) * nrm ** (m - 4) * np.outer(x, x)
                + nrm ** (m - 2) * np.eye(n)) / (m - 1)
    if kind is BTensorKind.H_IDENTITY:
        return np.diag(x ** (m - 2))
    raise TypeError(f"B x^(m-2) needs a shipped reference tensor, got {kind!r}")


def _require_unit(x: np.ndarray, n: int) -> np.ndarray:
    x = _vector(x, n)
    nrm = _norm(x)
    if not abs(nrm - 1.0) <= _UNIT_TOL:  # a NaN norm fails it too
        raise ValueError(f"expected a unit vector, got norm {nrm!r}")
    return x


def evaluate(spec: HankelSpec, cache: SpectralCache, kind: ReferenceTensor,
             x: np.ndarray) -> ObjectiveEval:
    """Evaluate ``f`` and its gradient at a unit vector.

    The gradient ``g = (m / Bx^m) * (Hx^{m-1} - f * Bx^{m-1})`` lies in the
    tangent plane of the sphere at ``x`` (``x @ g == 0`` up to roundoff),
    because ``f`` is homogeneous of degree zero.  One forward and one
    inverse transform: both Hankel products come from one spectrum of
    ``x``.
    """
    return _evaluate(kind, _require_unit(x, spec.n), _workspace(spec, cache))


def _evaluate(kind: ReferenceTensor, x: np.ndarray, ws: _Workspace) -> ObjectiveEval:
    """:func:`evaluate` at a unit ``x``: :func:`_gradient` of
    :func:`_quotient`, in the workspace ``ws``."""
    _, hxm, bxm = _quotient(kind, x, ws)
    return _gradient(kind, x, hxm, bxm, ws)


def _quotient(kind: ReferenceTensor, x: np.ndarray,
              ws: _Workspace) -> tuple[float, float, float]:
    """``(f, H x^m, B x^m)`` at a unit ``x``, from one forward transform.

    The transform leaves the spectrum of ``x^{m-1}`` in ``ws`` for
    :func:`_gradient`.  Raises :class:`InvalidReferenceTensorError` unless
    ``0 < B x^m < inf``.
    """
    hxm = _xm_and_power(ws, x)
    bxm = b_xm(kind, ws.cache.spec.m, x)
    if not 0.0 < bxm < math.inf:
        raise InvalidReferenceTensorError(
            f"B x^m = {bxm!r} is not positive and finite; the reference "
            "tensor is not positive definite at this point (odd order?)"
        )
    return hxm / bxm, hxm, bxm


def _gradient(kind: ReferenceTensor, x: np.ndarray, hxm: float, bxm: float,
              ws: _Workspace) -> ObjectiveEval:
    """The :class:`ObjectiveEval` at the ``x`` of the last :func:`_quotient`
    in ``ws``, from one inverse transform.  The gradient is built in place,
    with its one temporary in ``ws``."""
    hxm1 = _xm1_from_power(ws)
    bxm1 = b_xm1(kind, ws.cache.spec.m, x)
    f = hxm / bxm
    # g = (m / bxm) * (hxm1 - f * bxm1), built in place
    g = f * bxm1
    np.subtract(hxm1, g, out=g)
    g *= ws.cache.spec.m / bxm
    # The formula is tangent in exact arithmetic; subtracting the normal
    # component removes roundoff that would otherwise dwarf the gradient
    # once the iterate approaches an eigenvector.
    g -= np.multiply(x @ g, x, out=ws.power.view(float)[: x.size])
    return ObjectiveEval(f=f, g=g, hxm=hxm, bxm=bxm, hxm1=hxm1, bxm1=bxm1)


def residual(spec: HankelSpec, cache: SpectralCache, kind: ReferenceTensor,
             x: np.ndarray, lam: float) -> float:
    """Eigenpair residual ``||H x^{m-1} - lam * B x^{m-1}||`` at a unit vector.

    When ``lam == f(x)`` this equals ``B x^m / m`` times the norm of the
    quotient-gradient formula (as reconstructible from an
    :class:`ObjectiveEval`'s product fields), so a small gradient certifies
    a small residual.
    """
    x = _require_unit(x, spec.n)
    hxm1 = hankel_xm1(cache, spec, x)
    bxm1 = b_xm1(kind, spec.m, x)
    return _norm(hxm1 - lam * bxm1)
