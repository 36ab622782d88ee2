"""The cold set-up of the package, in a fresh interpreter.

Usage: python3 child.py FAMILY ORDER DIM GEN_SEED

Times ``import hankeleig.cli``, then ``generate(...)`` of the workload's
tensor (GEN_SEED is the random family's seed, ``-`` for the others), then
the first ``make_cache(spec)``.  Prints one JSON object with the times.  A
step whose function is gone, or that raises, is listed under ``absent``
with the reason, and the steps after it are left out.  Run by ``run.py``,
which sets ``PYTHONPATH`` to the package source and pins the thread counts.
"""

import json
import sys
import time

t0 = time.perf_counter()
import hankeleig.cli  # noqa: E402,F401 - the import is what is timed

t1 = time.perf_counter()
out = {"import_s": t1 - t0}
absent = {}
family, m, n, gen_seed = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
try:
    from hankeleig import fft_products, generators

    spec = generators.generate(generators.FamilySpec(
        family=generators.Family(family), m=m, n=n,
        seed=None if gen_seed == "-" else int(gen_seed)))
    t2 = time.perf_counter()
    fft_products.make_cache(spec)
    t3 = time.perf_counter()
    out.update(generate_s=t2 - t1, make_cache_s=t3 - t2, setup_s=t3 - t0)
except Exception as exc:  # noqa: BLE001 - reported as absent
    absent["setup_s"] = f"set-up failed: {type(exc).__name__}: {exc}"
out["absent"] = absent
print(json.dumps(out))
