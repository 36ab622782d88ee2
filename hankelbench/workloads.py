"""Workload table and the correctness gate.

Each workload is one ``hankeleig solve`` command line.  The gate checks a
result against an independent recomputation: the benchmark rebuilds the
generating vector from the family definition and evaluates
``H x^{m-1}`` with its own numpy real-FFT correlation, so it trusts neither
the program's products nor the residual the program reports.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

# Reference values of the gate.
SINE_MIN_Z = -8.846335
SINE_TOL = 1e-4
REL_RESIDUAL_MAX = 1e-6
# The reported eigenvalue must be the quotient at the reported vector.
LAMBDA_CONSISTENCY = 1e-9

# Failure reasons that mean a wrong answer.  "uncertified" (relative
# residual above REL_RESIDUAL_MAX) counts as a failed operation but not as
# a wrong answer: the solver's own stopping rule stops short of it on the
# random workload, a known defect that the benchmark keeps visible.
WRONG_ANSWER = ("exit", "exception", "unreadable", "lambda_mismatch",
                "sine_reference", "hilbert_bound")


@dataclass(frozen=True)
class Workload:
    name: str
    family: str
    m: int
    n: int
    btensor: str
    extreme: str
    starts: int
    # None: the solver seed is the benchmark seed.  An int pins both the
    # generator and the start seed (see the random workload).
    pinned_seed: int | None = None

    def cli_seed(self, bench_seed: int) -> int:
        if self.pinned_seed is not None:
            return self.pinned_seed
        return bench_seed % (2 ** 31)

    def solve_argv(self, bench_seed: int) -> list[str]:
        return ["solve", "--family", self.family, "--order", str(self.m),
                "--dim", str(self.n), "--btensor", self.btensor,
                "--extreme", self.extreme, "--starts", str(self.starts),
                "--seed", str(self.cli_seed(bench_seed))]

    def gen_seed(self, bench_seed: int) -> int | None:
        """The generator's seed: the random family's only."""
        return self.cli_seed(bench_seed) if self.family == "random" else None

    @property
    def ell(self) -> int:
        return self.m * (self.n - 1) + 1


WORKLOADS = {w.name: w for w in [
    # The paper's headline problem: ell = 17, so Python overhead in the
    # solver and objective layers, 100 cache builds and the thread pool
    # dominate and the FFT kernel does almost nothing.
    Workload("sine-4x5-z-min-100", "sin", 4, 5, "z", "min", 100),
    # Order 6, H-identity, ell = 5995 on the Bluestein path: about nine
    # backtracks per iteration, so the scalar xm trial product dominates
    # and the two-worker pool pays off.
    Workload("hilbert-6x1000-h-max-10", "hilbert", 6, 1000, "h", "max", 10),
    # One start at ell = 79997: the xm1 kernel is nearly all the time and
    # the fan-out is idle.  Generator and start stay at seed 1, the case
    # that reports "converged" at relative residual 7.6e-5; other seeds
    # change the iteration count threefold and some pass the residual
    # gate, which would hide the defect.
    Workload("random-4x20000-z-min-1", "random", 4, 20000, "z", "min", 1,
             pinned_seed=1),
]}


def generating_vector(w: Workload, bench_seed: int) -> np.ndarray:
    """The family's generating vector, rebuilt from its definition."""
    k = np.arange(w.ell, dtype=float)
    if w.family == "sin":
        return np.sin(w.m + k)
    if w.family == "hilbert":
        return 1.0 / (k + 1.0)
    if w.family == "random":
        return np.random.default_rng(w.gen_seed(bench_seed)).standard_normal(w.ell)
    raise ValueError(f"no reference generator for family {w.family!r}")


def hilbert_h_bound(m: int, n: int) -> float:
    """Upper bound ``n^{m-1} sin(pi/n)`` on the largest H-eigenvalue of the
    order-m, dimension-n Hilbert tensor (even m), from its definition."""
    return float(n) ** (m - 1) * math.sin(math.pi / n)


def _pow2_at_least(k: int) -> int:
    return 1 << (k - 1).bit_length()


def hxm1_reference(v: np.ndarray, m: int, x: np.ndarray) -> np.ndarray:
    """``H x^{m-1}`` as the correlation of ``v`` with the (m-1)-fold
    self-convolution of ``x``.  A transform length of at least ``ell``
    avoids wrap-around on the lags that are kept."""
    n = x.size
    size = _pow2_at_least(v.size)
    conv = np.fft.rfft(x, size) ** (m - 1)
    full = np.fft.irfft(np.fft.rfft(v, size) * np.conj(conv), size)
    return full[:n]


def read_vector(path: str) -> np.ndarray:
    """Parse a ``--emit-vector`` file: 'HNKV', u32 version, u64 length,
    little-endian f64 entries."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != b"HNKV" or len(raw) < 16:
        raise ValueError("not an HNKV vector file")
    (length,) = struct.unpack("<Q", raw[8:16])
    x = np.frombuffer(raw, dtype="<f8", offset=16)
    if x.size != length:
        raise ValueError(f"HNKV length {length} but {x.size} entries")
    return x.astype(float)


@dataclass
class Check:
    reasons: list[str]
    lam: float = float("nan")
    rel_residual: float = float("nan")
    result_bytes: int = 0

    @property
    def failed(self) -> bool:
        return bool(self.reasons)

    @property
    def wrong(self) -> bool:
        return any(r in WRONG_ANSWER for r in self.reasons)


def check_result(w: Workload, v: np.ndarray, hilbert_h_bound: float | None,
                 rc: int, out_path: str, vec_path: str) -> Check:
    """Apply the gate to one finished solve call."""
    reasons: list[str] = []
    if rc != 0:
        reasons.append("exit")
    try:
        with open(out_path, "rb") as fh:
            raw = fh.read()
        payload = json.loads(raw)
        lam = float(payload["lambda"])
        x = read_vector(vec_path)
    except (OSError, ValueError, KeyError, TypeError):
        reasons.append("unreadable")
        return Check(reasons)
    chk = Check(reasons, lam=lam, result_bytes=len(raw))
    if x.size != w.n or not np.all(np.isfinite(x)) or not np.isfinite(lam):
        reasons.append("unreadable")
        return chk
    hxm1 = hxm1_reference(v, w.m, x)
    if w.btensor == "z":
        nrm = float(np.linalg.norm(x))
        bxm, bxm1 = nrm ** w.m, nrm ** (w.m - 2) * x
    else:
        bxm, bxm1 = float(np.sum(x ** w.m)), x ** (w.m - 1)
    quotient = float(x @ hxm1) / bxm
    if abs(quotient - lam) > LAMBDA_CONSISTENCY * max(1.0, abs(quotient)):
        reasons.append("lambda_mismatch")
    if w.family == "sin" and abs(lam - SINE_MIN_Z) > SINE_TOL:
        reasons.append("sine_reference")
    if hilbert_h_bound is not None and lam > hilbert_h_bound:
        reasons.append("hilbert_bound")
    chk.rel_residual = float(np.linalg.norm(hxm1 - lam * bxm1)) / abs(lam)
    if not chk.rel_residual <= REL_RESIDUAL_MAX:
        reasons.append("uncertified")
    return chk
