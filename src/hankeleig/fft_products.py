"""Fast products of a Hankel tensor with a vector.

An order-``m``, dimension-``n`` Hankel tensor is fully described by its
generating vector ``v`` of length ``ell = m*(n-1) + 1``: the entry at a
(zero-based) multi-index ``(i1, ..., im)`` is ``v[i1 + ... + im]``.  Both
contractions are therefore correlations of ``v`` with self-convolutions of
``x``: ``H x^{m-1}`` is the linear correlation of ``v`` with the
``(m-1)``-fold self-convolution of ``x``, and ``H x^m`` is the dot product
of ``v`` with the ``m``-fold one.  That self-convolution has length at most
``ell``, so a real FFT of any length ``size >= ell`` computes both without
wrap-around, in O(m*n*log(m*n)) time from ``v`` alone and with no dense
storage.  ``size`` is ``scipy.fft.next_fast_len(ell, real=True)``, which
keeps the cost a smooth function of ``ell`` whatever its prime factors.

DFT convention: forward transforms are unnormalised and inverse transforms
carry the ``1/size`` factor (the numpy/scipy default pairing).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft as _fft

__all__ = [
    "HankelSpec",
    "SpectralCache",
    "make_cache",
    "hankel_xm",
    "hankel_xm1",
]


@dataclass(frozen=True)
class HankelSpec:
    """Compact description of a Hankel tensor.

    Parameters
    ----------
    m : int
        Tensor order, at least 2.
    n : int
        Dimension, at least 1.
    v : array_like
        Generating vector of length ``m*(n-1) + 1`` with finite entries.
    """

    m: int
    n: int
    v: np.ndarray

    def __post_init__(self):
        if int(self.m) != self.m or self.m < 2:
            raise ValueError(f"tensor order m must be an integer >= 2, got {self.m}")
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"dimension n must be an integer >= 1, got {self.n}")
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "n", int(self.n))
        v = np.array(self.v, dtype=float, copy=True).reshape(-1)
        if v.size != self.ell:
            raise ValueError(
                f"generating vector must have length m*(n-1)+1 = {self.ell}, "
                f"got {v.size}"
            )
        if not np.isfinite(v).all():
            raise ValueError("generating vector has a NaN or infinite entry")
        v.flags.writeable = False
        object.__setattr__(self, "v", v)

    @property
    def ell(self) -> int:
        """Length of the generating vector."""
        return self.m * (self.n - 1) + 1


@dataclass(frozen=True)
class SpectralCache:
    """Reusable spectral data for one Hankel tensor.

    ``vhat`` is ``rfft(v, size)``, the half spectrum of the zero-padded
    generating vector.  ``xm_weights`` is ``conj(vhat)`` times the Hermitian
    half-spectrum weights (1 at zero frequency and, for even ``size``, at
    the Nyquist frequency, 2 elsewhere) divided by ``size``, so that
    ``H x^m`` is the real part of one dot product with ``rfft(x, size)**m``.
    All fields are immutable after construction, so one cache may serve any
    number of concurrent product calls.
    """

    size: int
    vhat: np.ndarray
    xm_weights: np.ndarray

    def __post_init__(self):
        self.vhat.flags.writeable = False
        self.xm_weights.flags.writeable = False


def make_cache(spec: HankelSpec) -> SpectralCache:
    """Build the spectral cache (one real FFT of the generating vector)."""
    size = _fft.next_fast_len(spec.ell, real=True)
    vhat = _fft.rfft(spec.v, size)
    weights = np.full(vhat.size, 2.0)
    weights[0] = 1.0
    if size % 2 == 0:
        weights[-1] = 1.0
    return SpectralCache(size=size, vhat=vhat,
                         xm_weights=np.conj(vhat) * (weights / size))


def _power(a: np.ndarray, k: int) -> np.ndarray:
    """``a**k`` for ``k >= 1`` by repeated in-place products: several times
    faster than ``**``, which calls ``pow`` per entry, and no less accurate
    for the small orders used here."""
    p = a.copy()
    for _ in range(k - 1):
        p *= a
    return p


def _xm_and_power(cache: SpectralCache, spec: HankelSpec,
                  x: np.ndarray) -> tuple[float, np.ndarray]:
    """One forward transform: ``H x^m`` and ``p = rfft(x, size)**(m-1)``.

    ``p`` is the spectrum of the ``(m-1)``-fold self-convolution of ``x``;
    :func:`_xm1_from_power` turns it into ``H x^{m-1}`` with one inverse
    transform, so a caller that may need both products transforms ``x``
    once.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != spec.n:
        raise ValueError(f"x must have length n = {spec.n}, got {x.size}")
    z = _fft.rfft(x, cache.size)
    p = _power(z, spec.m - 1)
    # ``p * z``, not ``z * p``: complex multiplication is not bitwise
    # commutative, and ``p * z`` is the loop's next step, so ``H x^m`` is
    # the same to the last bit as from an m-fold loop.
    np.multiply(p, z, out=z)
    return float((cache.xm_weights @ z).real), p


def _xm1_from_power(cache: SpectralCache, spec: HankelSpec,
                    p: np.ndarray) -> np.ndarray:
    """``H x^{m-1}`` from ``p`` of :func:`_xm_and_power`, which it consumes
    (one inverse transform, computed in ``p``'s buffer)."""
    np.conjugate(p, out=p)
    p *= cache.vhat
    return _fft.irfft(p, cache.size, overwrite_x=True)[: spec.n].copy()


def hankel_xm(cache: SpectralCache, spec: HankelSpec, x: np.ndarray) -> float:
    """Scalar contraction ``H x^m`` computed in Fourier space.

    Equals the dense contraction of the materialised tensor with ``m``
    copies of ``x``.
    """
    return _xm_and_power(cache, spec, x)[0]


def hankel_xm1(cache: SpectralCache, spec: HankelSpec, x: np.ndarray) -> np.ndarray:
    """Vector contraction ``H x^{m-1}`` computed in Fourier space.

    Returns the first ``n`` lags of the correlation of ``v`` with the
    ``(m-1)``-fold self-convolution of ``x``; satisfies
    ``x @ hankel_xm1(...) == hankel_xm(...)`` up to roundoff.
    """
    return _xm1_from_power(cache, spec, _xm_and_power(cache, spec, x)[1])
