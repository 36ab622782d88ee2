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

A point's transforms take one of two paths, chosen by size alone.  Above
``_DFT_MAX_ENTRIES`` they are ``numpy.fft``'s, which writes into a given
``out=`` array (NumPy 2.0 and later).  At or below it, where
``numpy.fft``'s per-call overhead is most of a transform's cost, each is
one product with a real DFT matrix of the cache (:func:`_dft_matrices`),
one BLAS call.  Everything else a point computes, and the counts of its
transforms, are the same on both paths.  A solver run allocates one
workspace, two half-spectrum buffers of ``size//2 + 1`` complex entries,
and transforms every point into it, so a trial point allocates no array
the size of a spectrum.  The workspace also binds what every point reads
(the order, the dimension, the transform size, the spectrum and its two
bins outside the Hermitian fold, the DFT matrices, and the float views of
its buffers), so a point's products make only the numpy calls of their
arithmetic.  The solver reads
``H x^{m-1}`` where the inverse transform leaves it, and a line search
builds all its trial points in one vector of length ``n``.  The minor page
faults a run on the FFT path still takes come from pocketfft's per-call
scratch (measured in the README).  The public products make a workspace
per call.

DFT convention: forward transforms are unnormalised and inverse transforms
carry the ``1/size`` factor (the numpy default).
"""

from __future__ import annotations

import math
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
        for name, what, low in (("m", "tensor order", 2),
                                ("n", "dimension", 1)):
            value = getattr(self, name)
            try:  # an integral float such as 4.0 passes, a bool does not
                ok = (not isinstance(value, (bool, np.bool_))
                      and int(value) == value >= low)
            except (OverflowError, ValueError):  # int() of inf or NaN
                ok = False
            if not ok:
                raise ValueError(f"{what} {name} must be an integer >= {low}, "
                                 f"got {value!r}")
            object.__setattr__(self, name, int(value))
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
    what the solver works on.

    ``dft`` is None unless the tensor is small (see :data:`_DFT_MAX_ENTRIES`);
    then it is the pair ``(forward, inverse)`` of real matrices that
    transform a point by one matrix product each, in place of ``rfft`` and
    ``irfft`` (see :func:`_dft_matrices`).  All fields are immutable after
    construction, so one cache may serve any number of concurrent product
    calls.
    """

    spec: HankelSpec
    size: int
    vhat: np.ndarray
    exponent: int
    dft: tuple[np.ndarray, np.ndarray] | None

    def __post_init__(self):
        self.vhat.flags.writeable = False
        for matrix in self.dft or ():
            matrix.flags.writeable = False


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


# The most entries, n * 2 * (size//2 + 1), that each DFT matrix of a cache
# may have: 32 KiB a matrix.  Below it a point is transformed by matrix
# products, whose one BLAS call costs less than numpy.fft's per-call
# overhead; the crossover lies between about 37,000 and 66,000 entries
# (README).
_DFT_MAX_ENTRIES = 4096


def _dft_matrices(n: int, size: int, vhat: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The real matrices ``(forward, inverse)`` that transform a point of
    dimension ``n`` by one matrix product each.

    ``x @ forward`` is ``rfft(x, size)`` as ``2*(size//2 + 1)`` floats, the
    real and imaginary part of each bin; ``forward`` is ``numpy.fft``'s
    transform of the identity.  ``p @ inverse``, for a half spectrum ``p``
    read as floats, is the first ``n`` entries of
    ``irfft(conj(p) * vhat, size)``, whose entry ``j`` is the sum over the
    bins ``k`` of ``Re(conj(p_k) * c[j, k])`` with
    ``c[j, k] = w_k / size * vhat_k * conj(rfft(e_j)[k])``: the weight
    ``w_k`` is 2 for a bin that stands for itself and its mirror, 1 for
    zero frequency and, for an even ``size``, the Nyquist bin.  So rows
    ``2k`` and ``2k + 1`` of ``inverse`` (the coefficients of ``Re p_k``
    and ``Im p_k``) are the real and imaginary parts of ``c[:, k]``; those
    of the two unmirrored bins' imaginary parts are zero, as ``irfft``
    ignores them.  Built from ``forward``, neither takes more than
    O(``n * size``) memory.
    """
    forward = np.fft.rfft(np.eye(n), size, axis=1)
    weight = np.full(size // 2 + 1, 2.0 / size)
    weight[0] = 1.0 / size
    if size % 2 == 0:
        weight[-1] = 1.0 / size
    inverse = (np.conjugate(forward) * (vhat * weight)).view(float).T
    return forward.view(float), np.ascontiguousarray(inverse)


def make_cache(spec: HankelSpec) -> SpectralCache:
    """Build the spectral cache: one real FFT of the normalised ``v`` and,
    for a tensor with ``n * 2 * (size//2 + 1) <= _DFT_MAX_ENTRIES``, its
    two DFT matrices."""
    size = _fast_len(spec.ell)
    # max|v| without a full-size temporary
    mant, exponent = math.frexp(max(float(spec.v.max()), -float(spec.v.min())))
    if 0.0 < mant < math.sqrt(0.5):
        exponent -= 1  # 2**(exponent-1) is the nearer power by ratio
    vhat = np.fft.rfft(np.ldexp(spec.v, -exponent), n=size)
    dft = None
    if spec.n * 2 * (size // 2 + 1) <= _DFT_MAX_ENTRIES:
        dft = _dft_matrices(spec.n, size, vhat)
    return SpectralCache(spec=spec, size=size, vhat=vhat, exponent=exponent,
                         dft=dft)


def _norm(v: np.ndarray) -> float:
    """The 2-norm of a vector at any scale: ``sqrt(np.vdot(v, v))``, the
    bits of ``np.linalg.norm`` on a contiguous vector, without its overhead
    or an overflow warning (``v.dot(v)``, which ``np.linalg.norm`` calls,
    warns where the square overflows).  A norm whose square leaves the
    float range
    (inf, or below 1e-150 with ``v`` nonzero) is taken on ``v * 2**-e`` and
    scaled back by ``2**e``."""
    nrm = math.sqrt(np.vdot(v, v))
    if not 1e-150 <= nrm < math.inf and v.any():
        e = math.frexp(np.max(np.abs(v)))[1]
        w = np.ldexp(v, -e)
        try:
            nrm = math.ldexp(math.sqrt(np.vdot(w, w)), e)
        except OverflowError:  # the norm itself is above the float range
            nrm = math.inf
    return nrm


@dataclass(eq=False, slots=True)
class _Workspace:
    """The constants and buffers of one solver run, and the work done in it.

    A workspace binds what every point of the run reads, so a product
    looks nothing up: ``m``, ``n``, ``size`` and the ``exponent`` of the
    cache, its half spectrum ``vhat`` and the two bins of it that the
    Hermitian fold counts once, ``dc`` and, for an even ``size``,
    ``nyquist`` (None for an odd one), and the cache's DFT matrices
    ``forward`` and ``inverse`` (both None when the cache has none, which
    is what the kernel tests to choose its path).  Every product
    transforms into the two half spectra ``power`` and ``scratch``
    (``size//2 + 1`` complex entries each), so a trial point allocates
    nothing the size of a spectrum.  Float views of them are bound too:
    ``power_floats`` and ``scratch_floats``, all of each, which the matrix
    products read and write; ``signal``, the first ``size`` floats of
    ``scratch``, where ``irfft`` writes; ``head``, its first ``n``, where
    ``H x^{m-1}`` is read; and ``spare``, the first ``n`` floats of
    ``power``.  These fields are bound once, when it is made.  The four
    counts that follow, all 0 at first, are the fields of
    :class:`~hankeleig.solver.SolveStats`: the products count the
    transforms they run, the solver's step rules their trials and
    backtracks.  Unlike the cache, a workspace belongs to one caller at a
    time.
    """

    m: int
    n: int
    size: int
    exponent: int
    vhat: np.ndarray
    dc: complex
    nyquist: complex | None
    forward: np.ndarray | None
    inverse: np.ndarray | None
    power: np.ndarray
    scratch: np.ndarray
    power_floats: np.ndarray
    scratch_floats: np.ndarray
    signal: np.ndarray
    head: np.ndarray
    spare: np.ndarray
    forward_transforms: int = 0
    inverse_transforms: int = 0
    trials: int = 0
    backtracks: int = 0


def _workspace(spec: HankelSpec, cache: SpectralCache) -> _Workspace:
    """A fresh :class:`_Workspace` for the products of ``spec`` from
    ``cache``: the one check that ``cache`` was built for ``spec`` or for
    an equal tensor (same ``m`` and ``v``, whose length fixes ``n``)."""
    own = cache.spec
    if own is not spec and not (own.m == spec.m and np.array_equal(own.v, spec.v)):
        raise ValueError("the spectral cache was built for another tensor")
    size, vhat = cache.size, cache.vhat
    forward, inverse = cache.dft or (None, None)
    power = np.empty(size // 2 + 1, dtype=complex)
    scratch = np.empty_like(power)
    power_floats, scratch_floats = power.view(float), scratch.view(float)
    signal = scratch_floats[:size]
    return _Workspace(own.m, own.n, size, cache.exponent, vhat, vhat.item(0),
                      None if size % 2 else vhat.item(-1), forward, inverse,
                      power, scratch, power_floats, scratch_floats, signal,
                      signal[: own.n], power_floats[: own.n])


_FLOAT = np.dtype(float)


def _vector(x, n: int, name: str = "x") -> np.ndarray:
    """``x`` as a 1-D float array, refused unless its length is ``n``: the
    package's one vector check, whose error names the argument ``name``.
    A 1-D float64 ndarray is returned as it is."""
    if type(x) is not np.ndarray or x.dtype is not _FLOAT or x.ndim != 1:
        x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != n:
        raise ValueError(f"{name} must have length n = {n}, got {x.size}")
    return x


def _xm_and_power(ws: _Workspace, x: np.ndarray) -> float:
    """One forward transform, ``rfft`` or the product with ``ws.forward``:
    ``H x^m`` of a :func:`_vector` ``x``, leaving ``rfft(x, size)**(m-1)``
    in ``ws.power``.

    That power is the spectrum of the ``(m-1)``-fold self-convolution of
    ``x``; :func:`_xm1_from_power` turns it into ``H x^{m-1}`` with one
    inverse transform, so a caller that may need both products transforms
    ``x`` once.  It stays valid until ``ws`` is used again, and
    ``ws.scratch`` is free on return.
    """
    p, z = ws.power, ws.scratch
    if ws.forward is None:
        # rfft pads x with zeros to ``size`` itself
        np.fft.rfft(x, n=ws.size, out=z)
    else:
        np.dot(x, ws.forward, out=ws.scratch_floats)
    ws.forward_transforms += 1
    # z**(m-1) by the loop of objective._power without its copy: z * z,
    # then z times that, so the bits are those of the m-fold loop
    if ws.m == 2:
        np.copyto(p, z)
    else:
        np.multiply(z, z, out=p)
        for _ in range(ws.m - 3):
            p *= z
    # ``p * z``, not ``z * p``: complex multiplication is not bitwise
    # commutative, and ``p * z`` is the loop's next step, so ``H x^m`` is
    # the same to the last bit as from an m-fold loop.
    np.multiply(p, z, out=z)
    # Parseval folded onto the half spectrum: each bin stands for itself and
    # its mirror, except zero frequency and, for even size, the Nyquist bin.
    hxm = 2.0 * np.vdot(ws.vhat, z).real - (ws.dc * z.item(0)).real
    if ws.nyquist is not None:
        hxm -= (ws.nyquist * z.item(-1)).real
    hxm = float(hxm) / ws.size
    if ws.exponent:
        hxm = float(np.ldexp(hxm, ws.exponent))
    return hxm


def _xm1_from_power(ws: _Workspace) -> np.ndarray:
    """``H x^{m-1}`` from the ``ws.power`` of :func:`_xm_and_power`, which
    it consumes: one inverse transform, ``irfft(conj(p) * vhat)`` into
    ``ws.signal`` or the product with ``ws.inverse`` into ``ws.head``.
    Returns ``ws.head``, valid until ``ws.scratch`` is used again."""
    if ws.inverse is None:
        p = ws.power
        np.conjugate(p, out=p)
        p *= ws.vhat
        np.fft.irfft(p, ws.size, out=ws.signal)
    else:
        np.dot(ws.power_floats, ws.inverse, out=ws.head)
    ws.inverse_transforms += 1
    if ws.exponent:
        np.ldexp(ws.head, ws.exponent, out=ws.head)
    return ws.head


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
    return _xm1_from_power(ws).copy()
