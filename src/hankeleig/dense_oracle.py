"""Brute-force dense reference path for small Hankel tensors.

Materialises all ``n^m`` entries and contracts them by full enumeration,
with no use of symmetry or of the Fourier structure.  Deliberately the
most obvious implementation available: every fast-path result in this
package is validated against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from string import ascii_letters

import numpy as np

from .fft_products import HankelSpec, _vector
from .objective import BTensorKind, InvalidReferenceTensorError, b_xm, b_xm1, b_xm2

__all__ = [
    "DEFAULT_ENTRY_CAP",
    "DenseSymmetricTensor",
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


@dataclass(frozen=True)
class DenseSymmetricTensor:
    """All ``n^m`` entries of a symmetric tensor, flat in row-major order."""

    m: int
    n: int
    entries: np.ndarray

    def reshaped(self) -> np.ndarray:
        """Entries as an m-way array of shape ``(n,) * m``."""
        return self.entries.reshape((self.n,) * self.m)


def materialize(spec: HankelSpec) -> DenseSymmetricTensor:
    """Expand a generating vector into the full dense Hankel tensor."""
    count = spec.n ** spec.m
    if count > DEFAULT_ENTRY_CAP:
        raise OracleCapError(
            f"dense tensor would hold n^m = {count} entries, above the cap "
            f"of {DEFAULT_ENTRY_CAP}"
        )
    sums = np.zeros((spec.n,) * spec.m, dtype=np.intp)
    for axis in range(spec.m):
        shape = [1] * spec.m
        shape[axis] = spec.n
        sums = sums + np.arange(spec.n, dtype=np.intp).reshape(shape)
    return DenseSymmetricTensor(m=spec.m, n=spec.n, entries=spec.v[sums].ravel())


def dense_xm(t: DenseSymmetricTensor, x: np.ndarray) -> float:
    """Full-enumeration scalar contraction over all ``n^m`` index tuples."""
    x = _vector(x, t.n)
    idx = ascii_letters[: t.m]
    sub = idx + "," + ",".join(idx) + "->"
    return float(np.einsum(sub, t.reshaped(), *([x] * t.m)))


def dense_xm1(t: DenseSymmetricTensor, x: np.ndarray) -> np.ndarray:
    """Full-enumeration vector contraction over the trailing ``m-1`` modes."""
    x = _vector(x, t.n)
    idx = ascii_letters[: t.m]
    sub = idx + "," + ",".join(idx[1:]) + "->" + idx[0]
    return np.einsum(sub, t.reshaped(), *([x] * (t.m - 1)))


def dense_xm2(t: DenseSymmetricTensor, x: np.ndarray) -> np.ndarray:
    """Full-enumeration matrix contraction over the trailing ``m-2`` modes.

    For ``m == 2`` the contraction is empty and the matrix itself comes back.
    """
    x = _vector(x, t.n)
    if t.m == 2:
        return t.reshaped().copy()
    idx = ascii_letters[: t.m]
    sub = idx + "," + ",".join(idx[2:]) + "->" + idx[:2]
    return np.einsum(sub, t.reshaped(), *([x] * (t.m - 2)))


def dense_hessian(t: DenseSymmetricTensor, b: BTensorKind,
                  x: np.ndarray) -> np.ndarray:
    """Dense Hessian of the quotient objective ``f(x) = Hx^m / Bx^m``.

    Assembled from the dense contractions; symmetric by construction.
    """
    x = _vector(x, t.n)
    if not np.any(x):
        raise ValueError("the Hessian of the quotient objective needs x != 0")
    m = t.m
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
