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
storage.  ``size`` is the smallest 5-smooth length ``2**a * 3**b * 5**c``
at least ``ell``, which keeps the cost a smooth function of ``ell`` whatever
its prime factors: pocketfft, the C++ FFT behind ``numpy.fft``, runs its
fastest kernels on those factors.  The tensor is kept as one half
spectrum, ``rfft(v, size)``, which gives ``H x^m`` by the Hermitian fold.

Every transform is ``numpy.fft``'s, which writes into a given ``out=``
array (NumPy 2.0 and later).  A solver run allocates one workspace, two
half-spectrum buffers of ``size//2 + 1`` complex entries, and transforms
every point into it, so a trial point allocates no array the size of a
spectrum.  Large temporaries freed after each trial were handed back to the
operating system and faulted in again at the next: on a random order-4
tensor with ``n = 20000`` the workspace halves the minor page faults of a
solve, from about 95,000 to 47,000 (the rest are the transform's own
internal scratch).  The public products allocate a workspace per call.

DFT convention: forward transforms are unnormalised and inverse transforms
carry the ``1/size`` factor (the numpy default).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HankelSpec",
    "SpectralCache",
    "make_cache",
    "hankel_xm",
    "hankel_xm1",
]


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class SpectralCache:
    """Reusable spectral data for one Hankel tensor: one half spectrum.

    ``spec`` is the tensor it was built from, held by reference; a
    product refuses a cache of another tensor.  ``exponent`` is ``e`` with
    ``2**e`` the power of two nearest ``max|v|`` (0 for a zero ``v``).
    ``vhat`` is ``rfft(v * 2**-e, size)``, the half spectrum of the
    zero-padded normalised generating vector, so a vector near overflow or
    underflow is transformed at unit scale.  Both products read it:
    ``H x^{m-1}`` as a correlation, and ``H x^m`` as the dot product of
    ``vhat`` with ``rfft(x, size)**m`` folded over the Hermitian half
    spectrum.  Every product is scaled back by ``2**e``, which is exact, so
    the products are those of ``v`` to the last bit.  The same spectrum
    with ``exponent`` 0 is the cache of the normalised tensor, which is
    what the solver works on.  All fields are immutable after construction,
    so one cache may serve any number of concurrent product calls.
    """

    spec: HankelSpec
    size: int
    vhat: np.ndarray
    exponent: int

    def __post_init__(self):
        self.vhat.flags.writeable = False


def _fast_len(ell: int) -> int:
    """The smallest ``2**a * 3**b * 5**c >= ell``: pocketfft's
    ``good_size_real``, which ``scipy.fft.next_fast_len(ell, real=True)``
    returns too.  Computed here because importing ``scipy.fft`` for it
    added more to a cold start than the rest of the import, numpy
    included."""
    best = 1 << (ell - 1).bit_length()
    f5 = 1
    while f5 < best:
        f35 = f5
        while f35 < best:
            # the least power of two times f35 that reaches ell
            best = min(best, f35 << (-(-ell // f35) - 1).bit_length())
            f35 *= 3
        f5 *= 5
    return best


def make_cache(spec: HankelSpec) -> SpectralCache:
    """Build the spectral cache: one real FFT of the normalised ``v``."""
    size = _fast_len(spec.ell)
    # max|v| without a full-size temporary
    mant, exponent = math.frexp(max(float(spec.v.max()), -float(spec.v.min())))
    if 0.0 < mant < math.sqrt(0.5):
        exponent -= 1  # 2**(exponent-1) is the nearer power by ratio
    vhat = np.fft.rfft(np.ldexp(spec.v, -exponent), n=size)
    return SpectralCache(spec=spec, size=size, vhat=vhat, exponent=exponent)


def _power(a: np.ndarray, k: int, out: np.ndarray | None = None) -> np.ndarray:
    """``a**k`` for ``k >= 1`` by repeated in-place products, into ``out``
    if it is given: several times faster than ``**``, which calls ``pow``
    per entry, and no less accurate for the small orders used here."""
    if out is None:
        out = np.empty_like(a)
    np.copyto(out, a)
    for _ in range(k - 1):
        out *= a
    return out


def _norm(v: np.ndarray) -> float:
    """``float(np.linalg.norm(v))`` to the last bit, without its overhead."""
    v = v.ravel(order="K")  # numpy's default norm: sqrt(dot) of the ravel
    return math.sqrt(v.dot(v))


@dataclass(frozen=True, eq=False, slots=True)
class _Workspace:
    """The cache and buffers of one solver run, and the work done in them.

    Every product of the run reads ``m``, ``n`` and the spectrum from
    ``cache`` and transforms into the two half spectra ``power`` and
    ``scratch`` (``size//2 + 1`` complex entries each), so a trial point
    allocates nothing the size of a spectrum.  ``counts`` is keyed by the
    field names of :class:`~hankeleig.solver.SolveStats`: the products
    count the transforms they run, the solver's step rules their trials and
    backtracks.  Unlike the cache, a workspace belongs to one caller at a
    time.
    """

    cache: SpectralCache
    power: np.ndarray
    scratch: np.ndarray
    counts: Counter


def _workspace(spec: HankelSpec, cache: SpectralCache) -> _Workspace:
    """A fresh :class:`_Workspace` for the products of ``spec`` from
    ``cache``: the one check that ``cache`` was built for ``spec`` or for
    an equal tensor (same ``m`` and ``v``, whose length fixes ``n``)."""
    own = cache.spec
    if own is not spec and not (own.m == spec.m and np.array_equal(own.v, spec.v)):
        raise ValueError("the spectral cache was built for another tensor")
    half = cache.size // 2 + 1
    return _Workspace(cache, np.empty(half, dtype=complex),
                      np.empty(half, dtype=complex), Counter())


def _vector(x, n: int, name: str = "x") -> np.ndarray:
    """``x`` as a 1-D float array, refused unless its length is ``n``: the
    package's one vector check, whose error names the argument ``name``."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != n:
        raise ValueError(f"{name} must have length n = {n}, got {x.size}")
    return x


def _xm_and_power(ws: _Workspace, x: np.ndarray) -> float:
    """One forward transform: ``H x^m`` of a :func:`_vector` ``x``, leaving
    ``rfft(x, size)**(m-1)`` in ``ws.power``.

    That power is the spectrum of the ``(m-1)``-fold self-convolution of
    ``x``; :func:`_xm1_from_power` turns it into ``H x^{m-1}`` with one
    inverse transform, so a caller that may need both products transforms
    ``x`` once.  It stays valid until ``ws`` is used again.
    """
    cache = ws.cache
    p, z = ws.power, ws.scratch
    # rfft pads x with zeros to ``size`` itself
    np.fft.rfft(x, n=cache.size, out=z)
    ws.counts["forward_transforms"] += 1
    _power(z, cache.spec.m - 1, out=p)
    # ``p * z``, not ``z * p``: complex multiplication is not bitwise
    # commutative, and ``p * z`` is the loop's next step, so ``H x^m`` is
    # the same to the last bit as from an m-fold loop.
    np.multiply(p, z, out=z)
    # Parseval folded onto the half spectrum: each bin stands for itself and
    # its mirror, except zero frequency and, for even size, the Nyquist bin.
    vhat = cache.vhat
    hxm = 2.0 * np.vdot(vhat, z).real - (vhat.item(0) * z.item(0)).real
    if cache.size % 2 == 0:
        hxm -= (vhat.item(-1) * z.item(-1)).real
    hxm = float(hxm) / cache.size
    if cache.exponent:
        hxm = float(np.ldexp(hxm, cache.exponent))
    return hxm


def _xm1_from_power(ws: _Workspace) -> np.ndarray:
    """``H x^{m-1}`` from the ``ws.power`` of :func:`_xm_and_power`, which
    it consumes (one inverse transform, into ``ws.scratch``)."""
    cache, p = ws.cache, ws.power
    np.conjugate(p, out=p)
    p *= cache.vhat
    signal = np.fft.irfft(p, cache.size, out=ws.scratch.view(float)[: cache.size])
    ws.counts["inverse_transforms"] += 1
    hxm1 = signal[: cache.spec.n].copy()
    if cache.exponent:
        np.ldexp(hxm1, cache.exponent, out=hxm1)
    return hxm1


def hankel_xm(cache: SpectralCache, spec: HankelSpec, x: np.ndarray) -> float:
    """Scalar contraction ``H x^m`` computed in Fourier space.

    Equals the dense contraction of the materialised tensor with ``m``
    copies of ``x``.
    """
    return _xm_and_power(_workspace(spec, cache), _vector(x, spec.n))


def hankel_xm1(cache: SpectralCache, spec: HankelSpec, x: np.ndarray) -> np.ndarray:
    """Vector contraction ``H x^{m-1}`` computed in Fourier space.

    Returns the first ``n`` lags of the correlation of ``v`` with the
    ``(m-1)``-fold self-convolution of ``x``; satisfies
    ``x @ hankel_xm1(...) == hankel_xm(...)`` up to roundoff.
    """
    ws = _workspace(spec, cache)
    _xm_and_power(ws, _vector(x, spec.n))
    return _xm1_from_power(ws)
