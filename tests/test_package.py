"""The package surface, and the facts the CLI takes from the library."""

import argparse
import json

import pytest

import hankeleig
from hankeleig import (cli, dense_oracle, fft_products, generators,
                       objective, solver)
from hankeleig.generators import Family
from hankeleig.objective import BTensorKind
from hankeleig.solver import Extreme, SolverOptions

MODULES = (dense_oracle, fft_products, generators, objective, solver)


def test_all_is_the_version_and_the_module_lists():
    names = hankeleig.__all__
    assert len(names) == len(set(names))
    assert names == ["__version__"] + [n for mod in MODULES
                                       for n in mod.__all__]


def test_each_name_is_the_defining_modules_object():
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(hankeleig, name) is getattr(mod, name), name


def _choices(sub, dest):
    (subparsers,) = [a for a in cli._build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    (action,) = [a for a in subparsers.choices[sub]._actions if a.dest == dest]
    return action.choices


def test_solve_defaults_are_the_solver_options():
    args = cli._build_parser().parse_args(
        ["solve", "--btensor", "z", "--extreme", "min"])
    defaults = SolverOptions()
    for flag, field in [("eta", "eta"), ("beta", "beta"),
                        ("alpha_max", "alpha_max"), ("tol", "tol_rel"),
                        ("max_iter", "max_iter"), ("starts", "starts")]:
        assert getattr(args, flag) == getattr(defaults, field), flag


@pytest.mark.parametrize("sub", ["solve", "bench"])
def test_choices_are_the_enum_values(sub):
    assert _choices(sub, "btensor") == [k.value for k in BTensorKind]
    assert _choices(sub, "extreme") == [e.value for e in Extreme]


def test_bench_offers_the_families_a_dimension_sweep_builds():
    # param is fixed at n = 4 and needs --epsilon, which bench does not take
    assert _choices("bench", "family") == [
        f.value for f in Family if f is not Family.PARAM_EPS]


def test_manifest_lists_the_options_in_order(capsys):
    code = cli.main(["solve", "--family", "sin", "--order", "4", "--dim", "5",
                     "--btensor", "z", "--extreme", "min", "--seed", "3"])
    assert code == 0
    options = json.loads(capsys.readouterr().out)["manifest"]["options"]
    assert list(options) == ["eta", "beta", "alpha_max", "tol_rel",
                             "max_iter", "starts", "seed"]
    opts = SolverOptions(seed=3)
    assert all(value == getattr(opts, key) for key, value in options.items())


def test_objects_holding_arrays_compare_and_hash_by_identity():
    # an array field has no single truth value, so a field-wise == would
    # raise; these objects are equal only to themselves
    spec = fft_products.HankelSpec(2, 2, [1.0, 2.0, 3.0])
    cache = fft_products.make_cache(spec)
    opts = SolverOptions(seed=1)
    x = [0.6, 0.8]
    pairs = [
        (spec, fft_products.HankelSpec(2, 2, [1.0, 2.0, 3.0])),
        (cache, fft_products.make_cache(spec)),
        (fft_products._workspace(spec, cache),
         fft_products._workspace(spec, cache)),
        (objective.evaluate(spec, cache, BTensorKind.Z_IDENTITY, x),
         objective.evaluate(spec, cache, BTensorKind.Z_IDENTITY, x)),
        (solver.solve(spec, BTensorKind.Z_IDENTITY, opts),
         solver.solve(spec, BTensorKind.Z_IDENTITY, opts)),
        (solver.multistart(spec, BTensorKind.Z_IDENTITY, opts),
         solver.multistart(spec, BTensorKind.Z_IDENTITY, opts)),
    ]
    for one, twin in pairs:
        assert one == one and one != twin, type(one).__name__
        assert len({one, twin}) == 2
