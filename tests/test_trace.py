"""The trace of a run: one read-only array of packed records."""

import gc
import tracemalloc

import numpy as np
import pytest

from hankeleig.generators import Family, FamilySpec, generate
from hankeleig.objective import BTensorKind
from hankeleig.solver import (_ROW, EigenResult, SolverOptions, Termination,
                              multistart, solve)

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


def test_trace_is_a_read_only_record_array():
    res = solve(_sine(), Z, SolverOptions(seed=1))
    trace = res.trace
    assert trace.dtype is _ROW and trace.dtype.itemsize == 32
    assert trace.dtype.names == ("lambda_k", "grad_norm", "alpha_k",
                                 "backtracks")
    assert len(trace) == res.iterations + 1 > 3
    assert trace[-1].alpha_k == 0.0 and trace[-1].backtracks == 0
    # a row reads by attribute, as its columns do by name
    assert [r.lambda_k for r in trace] == trace["lambda_k"].tolist()
    assert [r.backtracks for r in trace] == trace["backtracks"].tolist()
    assert trace[0].grad_norm == trace["grad_norm"][0] > 0.0
    assert not trace.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        trace[0] = trace[1]
    with pytest.raises(ValueError, match="read-only"):
        trace["alpha_k"][0] = 0.0


def test_result_built_without_a_trace_has_an_empty_one():
    res = EigenResult(eigenvalue=1.0, x=np.ones(1), residual=0.0,
                      iterations=0, termination=Termination.CONVERGED)
    assert res.trace.dtype is _ROW and res.trace.shape == (0,)
