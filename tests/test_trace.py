"""The trace of a run: a read-only sequence of records, kept packed."""

import gc
import tracemalloc
from collections.abc import Sequence
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from hankeleig.generators import Family, FamilySpec, generate
from hankeleig.objective import BTensorKind
from hankeleig.solver import (EigenResult, IterationRecord, SolverOptions,
                              Termination, multistart, solve)

Z = BTensorKind.Z_IDENTITY


def _sine():
    return generate(FamilySpec(Family.SIN, 4, 5))


def test_a_kept_trace_row_costs_under_100_bytes():
    # What a 100-start sine outcome keeps, per trace row, with its results,
    # vectors and stats counted too.  A row held as a record object and
    # three boxed floats kept about 170 B.
    spec, opts = _sine(), SolverOptions(starts=100, seed=1)
    multistart(spec, Z, opts)  # numpy's first-call allocations stay out
    gc.collect()
    tracemalloc.start()
    try:
        out = multistart(spec, Z, opts)
        rows = sum(len(r.trace) for r in out.results)
        gc.collect()
        alive = tracemalloc.get_traced_memory()[0]
        del out
        gc.collect()
        kept = alive - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert rows == 1481
    assert kept < 100 * rows, kept / rows


def test_trace_is_a_read_only_sequence_of_records():
    res = solve(_sine(), Z, SolverOptions(seed=1))
    trace = res.trace
    rows = list(trace)
    assert isinstance(trace, Sequence)
    assert len(trace) == len(rows) == res.iterations + 1 > 3
    assert [type(r) for r in rows] == [IterationRecord] * len(rows)
    assert [r.k for r in rows] == list(range(1, len(rows) + 1))
    assert all(type(r.lambda_k) is float and type(r.backtracks) is int
               for r in rows)
    assert trace[-1] == rows[-1] and trace[-1].alpha_k == 0.0
    assert trace[-len(rows)] == trace[0] == rows[0]
    with pytest.raises(IndexError):
        trace[len(rows)]
    assert trace[1:3] == rows[1:3] and trace[::-1] == rows[::-1]
    assert trace == rows and rows == trace and trace != rows[:-1]
    assert trace == solve(_sine(), Z, SolverOptions(seed=1)).trace
    assert trace != solve(_sine(), Z, SolverOptions(seed=2)).trace
    with pytest.raises(TypeError):
        trace[0] = rows[0]
    with pytest.raises(FrozenInstanceError):
        trace[0].lambda_k = 0.0
    assert trace == rows


def test_result_built_without_a_trace_has_an_empty_one():
    res = EigenResult(eigenvalue=1.0, x=np.ones(1), residual=0.0,
                      iterations=0, termination=Termination.CONVERGED)
    assert len(res.trace) == 0 and res.trace == [] and list(res.trace) == []
