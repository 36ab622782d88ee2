"""Brute-force dense reference path for small Hankel tensors.

Materialises all ``n^m`` entries and contracts them by full enumeration,
with no use of symmetry or of the Fourier structure.  Deliberately the
most obvious implementation available: every fast-path result in this
package is validated against it.
"""

from __future__ import annotations

from functools import reduce
from string import ascii_letters

import numpy as np

from .fft_products import HankelSpec, _vector
from .objective import BTensorKind, InvalidReferenceTensorError, b_xm, b_xm1, b_xm2

__all__ = [
    "DEFAULT_ENTRY_CAP",
    "OracleCapError",
    "materialize",
    "dense_xm",
    "dense_xm1",
    "dense_xm2",
    "dense_hessian",
]

DEFAULT_ENTRY_CAP = 10 ** 7


class OracleCapError(ValueError):
    """Raised when a dense tensor would exceed ``DEFAULT_ENTRY_CAP`` entries."""


def materialize(spec: HankelSpec) -> np.ndarray:
    """Expand a generating vector into the full dense Hankel tensor, the
    m-way array of shape ``(n,) * m`` with entry ``v[i1 + ... + im]``."""
    count = spec.n ** spec.m
    if count > DEFAULT_ENTRY_CAP:
        raise OracleCapError(
            f"dense tensor would hold n^m = {count} entries, above the cap "
            f"of {DEFAULT_ENTRY_CAP}"
        )
    # the sum of the m indices at every position of the m-way array
    return spec.v[reduce(np.add.outer, [np.arange(spec.n)] * spec.m)]


def dense_xm(t: np.ndarray, x: np.ndarray) -> float:
    """Full-enumeration scalar contraction over all ``n^m`` index tuples."""
    x = _vector(x, t.shape[0])
    idx = ascii_letters[: t.ndim]
    sub = idx + "," + ",".join(idx) + "->"
    return float(np.einsum(sub, t, *([x] * t.ndim)))


def dense_xm1(t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Full-enumeration vector contraction over the trailing ``m-1`` modes."""
    x = _vector(x, t.shape[0])
    idx = ascii_letters[: t.ndim]
    sub = idx + "," + ",".join(idx[1:]) + "->" + idx[0]
    return np.einsum(sub, t, *([x] * (t.ndim - 1)))


def dense_xm2(t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Full-enumeration matrix contraction over the trailing ``m-2`` modes.

    For ``m == 2`` the contraction is empty and the matrix itself comes back.
    """
    x = _vector(x, t.shape[0])
    if t.ndim == 2:
        return t.copy()
    idx = ascii_letters[: t.ndim]
    sub = idx + "," + ",".join(idx[2:]) + "->" + idx[:2]
    return np.einsum(sub, t, *([x] * (t.ndim - 2)))


def dense_hessian(t: np.ndarray, b: BTensorKind,
                  x: np.ndarray) -> np.ndarray:
    """Dense Hessian of the quotient objective ``f(x) = Hx^m / Bx^m``.

    Assembled from the dense contractions; symmetric by construction.
    """
    x = _vector(x, t.shape[0])
    if not np.any(x):
        raise ValueError("the Hessian of the quotient objective needs x != 0")
    m = t.ndim
    bxm = b_xm(b, m, x)
    if bxm <= 0.0:
        raise InvalidReferenceTensorError(
            f"B x^m = {bxm!r} is not positive at this point"
        )
    hxm = dense_xm(t, x)
    hxm1 = dense_xm1(t, x)
    hxm2 = dense_xm2(t, x)
    bxm1 = b_xm1(b, m, x)
    bxm2 = b_xm2(b, m, x)

    def sym_outer(u, w):
        return np.outer(u, w) + np.outer(w, u)

    return (m * (m - 1) * hxm2 / bxm
            - (m * (m - 1) * hxm * bxm2 + m * m * sym_outer(hxm1, bxm1)) / bxm ** 2
            + m * m * hxm * sym_outer(bxm1, bxm1) / bxm ** 3)
