import time

import numpy as np

from hankeleig.fft_products import hankel_xm, hankel_xm1
from hankeleig.objective import b_xm, b_xm1


def raw_quotient_gradient(spec, cache, kind, x):
    """Gradient of Hx^m / Bx^m at any nonzero x, without tangent projection.

    Test-side helper: lets finite-difference oracles step off the unit
    sphere, which the library's `evaluate` refuses to do.
    """
    x = np.asarray(x, dtype=float)
    hxm1 = hankel_xm1(cache, spec, x)
    hxm = hankel_xm(cache, spec, x)
    bxm = b_xm(kind, spec.m, x)
    f = hxm / bxm
    return (spec.m / bxm) * (hxm1 - f * b_xm1(kind, spec.m, x))


def scaled_trace(trace, k):
    """The trace of a run on ``2**k * v`` from the trace of the run on
    ``v``: lambda and the gradient norms scaled by ``2**k``, the steps, which
    scale as ``1/lambda``, by ``2**-k``."""
    out = trace.copy()
    for name, e in (("lambda_k", k), ("grad_norm", k), ("alpha_k", -k)):
        out[name] = np.ldexp(trace[name], e)
    return out


def random_unit(rng, n):
    while True:
        x = rng.standard_normal(n)
        nrm = np.linalg.norm(x)
        if nrm > 0:
            return x / nrm


def product_time_ratio(small_setup, big_setup, reps=20, rounds=3, bound=3.0):
    """Median wall time of hankel_xm1 at the big size over the small size.

    Each round interleaves the two sizes (so both face the same machine
    noise) and takes the median of `reps` samples.  Wall-clock noise on a
    shared host is heavy-tailed and only ever inflates a round's ratio, so
    the first round at or under `bound` settles the scaling claim; a true
    super-linear blowup fails every round.  Returns the best ratio seen.
    """
    best = np.inf
    for _ in range(rounds):
        samples = ([], [])
        for _ in range(reps):
            for slot, (spec, cache, x) in enumerate((small_setup, big_setup)):
                tic = time.perf_counter()
                hankel_xm1(cache, spec, x)
                samples[slot].append(time.perf_counter() - tic)
        small, big = (float(np.median(s)) for s in samples)
        best = min(best, big / small)
        if best <= bound:
            break
    return best
