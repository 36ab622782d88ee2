import errno
import json
import math
import os
import stat
import struct
import threading
import warnings

import numpy as np
import pytest

from hankeleig.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """``json.loads`` that refuses NaN and Infinity, which are not JSON."""
    def refuse(constant):
        raise ValueError(f"not JSON: {constant}")
    return json.loads(text, parse_constant=refuse)


def test_gen_txt_round_trips(capsys, tmp_path):
    out = tmp_path / "v.txt"
    code, _, _ = run(capsys, "gen", "--family", "sin", "--order", "4",
                     "--dim", "5", "--out", str(out))
    assert code == 0
    values = [float(line) for line in out.read_text().splitlines()]
    assert values == [math.sin(4.0 + k) for k in range(17)]

    # stdout emission carries the same payload
    code, stdout, _ = run(capsys, "gen", "--family", "sin", "--order", "4",
                          "--dim", "5")
    assert code == 0
    assert stdout == out.read_text()


def test_gen_json_format(capsys, tmp_path):
    out = tmp_path / "v.json"
    code, _, _ = run(capsys, "gen", "--family", "hilbert", "--order", "4",
                     "--dim", "10", "--format", "json", "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["m"] == 4 and payload["n"] == 10
    assert len(payload["v"]) == 37
    assert payload["v"][0] == 1.0
    assert payload["v"][36] == 1.0 / 37.0


def test_gen_param_needs_only_epsilon(capsys):
    code, stdout, _ = run(capsys, "gen", "--family", "param",
                          "--epsilon", "1e-6")
    assert code == 0
    values = [float(line) for line in stdout.splitlines()]
    assert len(values) == 13
    assert values[0] == 8 - 1e-6


def test_gen_requires_one_source(capsys):
    code, _, err = run(capsys, "gen", "--family", "sin")
    assert code == 1
    assert "--order" in err


def test_solve_sine_benchmark(capsys, tmp_path):
    out = tmp_path / "result.json"
    trace = tmp_path / "trace.csv"
    code, _, _ = run(capsys, "solve", "--family", "sin", "--order", "4",
                     "--dim", "5", "--btensor", "z", "--extreme", "min",
                     "--starts", "20", "--seed", "7",
                     "--out", str(out), "--trace", str(trace))
    assert code == 0
    payload = strict_json(out.read_text())
    assert payload["lambda"] == pytest.approx(-8.846335, abs=1e-4)
    assert payload["termination"] == "converged"
    assert len(payload["x"]) == 5
    assert payload["residual"] < 1e-4
    assert sum(b["count"] for b in payload["occurrences"]) == 20
    manifest = payload["manifest"]
    assert manifest["source"] == {"family": "sin", "m": 4, "n": 5}
    assert manifest["options"]["starts"] == 20
    assert manifest["options"]["seed"] == 7
    assert set(manifest["timings"]) == {"build_s", "solve_s"}
    # totals over the 20 starts: one transform pair at each start, then a
    # forward transform per trial and an inverse one per accepted trial
    counts = manifest["counts"]
    assert set(counts) == {"forward_transforms", "inverse_transforms",
                           "trials", "backtracks"}
    assert counts["forward_transforms"] == 20 + counts["trials"]
    assert counts["inverse_transforms"] == (
        20 + counts["trials"] - counts["backtracks"])

    # the best start's trace: one row per visited iterate, k counting from
    # 1, floats that parse, backtracks a count, lambda falling (a MIN run)
    lines = trace.read_text().splitlines()
    assert lines[0] == "k,lambda,grad_norm,alpha,backtracks"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == payload["iterations"] + 1
    assert [int(r[0]) for r in rows] == list(range(1, len(rows) + 1))
    floats = [[float(f) for f in r[1:4]] for r in rows]
    lams = [f[0] for f in floats]
    assert all(int(r[4]) >= 0 for r in rows)
    assert all(b < a for a, b in zip(lams, lams[1:]))


def test_solve_reruns_identically(capsys, tmp_path):
    args = ("solve", "--family", "random", "--order", "4", "--dim", "8",
            "--btensor", "h", "--extreme", "max", "--starts", "5",
            "--seed", "3")
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(capsys, *args, "--out", str(a))[0] == 0
    assert run(capsys, *args, "--out", str(b))[0] == 0
    pa, pb = json.loads(a.read_text()), json.loads(b.read_text())
    del pa["manifest"]["timings"], pb["manifest"]["timings"]
    assert pa == pb


def test_solve_from_file_matches_family_run(capsys, tmp_path):
    vec = tmp_path / "v.txt"
    assert run(capsys, "gen", "--family", "vandermonde", "--order", "4",
               "--dim", "10", "--out", str(vec))[0] == 0
    a = tmp_path / "family.json"
    b = tmp_path / "file.json"
    common = ("--btensor", "z", "--extreme", "max", "--starts", "3",
              "--seed", "3")
    assert run(capsys, "solve", "--family", "vandermonde", "--order", "4",
               "--dim", "10", *common, "--out", str(a))[0] == 0
    assert run(capsys, "solve", "--input", str(vec), "--order", "4",
               "--dim", "10", *common, "--out", str(b))[0] == 0
    pa, pb = json.loads(a.read_text()), json.loads(b.read_text())
    assert pa["lambda"] == pb["lambda"]
    assert pa["x"] == pb["x"]
    assert pa["occurrences"] == pb["occurrences"]


def test_solve_json_input_carries_shape(capsys, tmp_path):
    vec = tmp_path / "v.json"
    assert run(capsys, "gen", "--family", "sin", "--order", "4", "--dim", "5",
               "--format", "json", "--out", str(vec))[0] == 0
    code, stdout, _ = run(capsys, "solve", "--input", str(vec),
                          "--btensor", "z", "--extreme", "min",
                          "--starts", "2", "--seed", "1")
    assert code == 0
    assert strict_json(stdout)["manifest"]["source"]["m"] == 4


def test_solve_wrong_vector_length_names_expectation(capsys, tmp_path):
    vec = tmp_path / "v.txt"
    vec.write_text("1.0\n2.0\n3.0\n")
    code, _, err = run(capsys, "solve", "--input", str(vec), "--order", "4",
                       "--dim", "3", "--btensor", "z", "--extreme", "min")
    assert code == 1
    assert "m*(n-1)+1 = 9" in err


def test_solve_rejects_non_finite_vector(capsys, tmp_path):
    vec = tmp_path / "v.txt"
    vec.write_text("\n".join(["1.0"] * 8 + ["nan"]) + "\n")
    out = tmp_path / "r.json"
    code, _, err = run(capsys, "solve", "--input", str(vec), "--order", "4",
                       "--dim", "3", "--btensor", "z", "--extreme", "min",
                       "--out", str(out))
    assert code == 1
    assert "NaN or infinite" in err
    assert list(tmp_path.iterdir()) == [vec]


def test_solve_rejects_eigenvalue_overflow(capsys, tmp_path):
    # lambda_max = 1e308 * 5**2: the solve itself runs at unit scale, and
    # only scaling the result back overflows
    vec = tmp_path / "v.txt"
    vec.write_text("1e308\n" * 17)
    out = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, "solve", "--input", str(vec),
                           "--order", "4", "--dim", "5", "--btensor", "z",
                           "--extreme", "max", "--out", str(out))
    assert code == 1
    assert "overflows" in err
    assert list(tmp_path.iterdir()) == [vec]


@pytest.mark.parametrize("c", [1e300, 1e-300])
def test_solve_scaled_sine_matches_unit_scale(capsys, tmp_path, c):
    vec = tmp_path / "v.txt"
    vec.write_text("".join(f"{math.sin(4.0 + k) * c!r}\n" for k in range(17)))
    common = ("--btensor", "z", "--extreme", "min", "--starts", "10",
              "--seed", "7")
    ref = tmp_path / "ref.json"
    assert run(capsys, "solve", "--family", "sin", "--order", "4", "--dim",
               "5", *common, "--out", str(ref))[0] == 0
    out = tmp_path / "scaled.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, _ = run(capsys, "solve", "--input", str(vec), "--order", "4",
                         "--dim", "5", *common, "--out", str(out))
    assert code == 0
    expected = json.loads(ref.read_text())["lambda"] * c
    payload = json.loads(out.read_text())
    assert payload["termination"] == "converged"
    assert payload["lambda"] == pytest.approx(expected, rel=1e-10)


def test_solve_subnormal_vector(capsys, tmp_path):
    # e = -1030: the eigenvalue fits a float64, the largest trace steps do
    # not and are written as inf
    v = np.array([1e-310 * math.sin(4.0 + k) for k in range(17)])
    common = ("--order", "4", "--dim", "5", "--btensor", "z", "--extreme",
              "min", "--starts", "1", "--seed", "1")
    lams = []
    for name, w in (("tiny", v), ("unit", np.ldexp(v, 1030))):
        vec = tmp_path / f"{name}.txt"
        vec.write_text("".join(f"{float(t)!r}\n" for t in w))
        out, trace = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
        code, _, _ = run(capsys, "solve", "--input", str(vec), *common,
                         "--out", str(out), "--trace", str(trace))
        assert code == 0
        lams.append(json.loads(out.read_text())["lambda"])
    assert lams[0] == math.ldexp(lams[1], -1030)
    alphas = [line.split(",")[3]
              for line in (tmp_path / "tiny.csv").read_text().splitlines()[1:]]
    assert "inf" in alphas


@pytest.mark.parametrize("bad", ["4.5", "true"])
def test_solve_json_input_needs_integer_order(capsys, tmp_path, bad):
    # 17 entries fit m = 4, n = 5, so a truncated 4.5 or a boolean read as
    # 1 must not slip through as a valid shape
    vec = tmp_path / "v.json"
    vec.write_text('{"m": %s, "n": 5, "v": [%s]}' % (bad, ", ".join(["1.0"] * 17)))
    out = tmp_path / "r.json"
    code, _, err = run(capsys, "solve", "--input", str(vec), "--btensor", "z",
                       "--extreme", "min", "--out", str(out))
    assert code == 1
    assert "integer 'm'" in err
    assert list(tmp_path.iterdir()) == [vec]


@pytest.mark.parametrize("v", [
    '{"a": 1}', "[1, 2, [3], 4, 5]", '["1", 2, 3, 4, 5]', "[true, 2, 3, 4, 5]",
    pytest.param("[1%s, 2, 3, 4, 5]" % ("0" * 399), id="400-digit-integer"),
])
def test_solve_json_input_needs_a_flat_numeric_v(capsys, tmp_path, v):
    # an object, a nested entry, a string, a boolean or an integer beyond
    # float64 in 'v' is a usage error naming 'v', not a traceback, numpy's
    # own message or a number numpy made of it
    vec = tmp_path / "v.json"
    vec.write_text('{"m": 4, "n": 2, "v": %s}' % v)
    code, _, err = run(capsys, "solve", "--input", str(vec), "--btensor", "z",
                       "--extreme", "min")
    assert code == 1
    assert err.startswith("error:")
    assert "'v'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag, value, name", [
    ("--tol", "nan", "tol_rel"),
    ("--tol", "inf", "tol_rel"),
    ("--alpha-max", "inf", "alpha_max"),
])
def test_solve_rejects_non_finite_options(capsys, tmp_path, flag, value, name):
    out = tmp_path / "r.json"
    code, _, err = run(capsys, "solve", "--family", "sin", "--order", "4",
                       "--dim", "5", "--btensor", "z", "--extreme", "min",
                       flag, value, "--out", str(out))
    assert code == 1
    assert name in err
    assert list(tmp_path.iterdir()) == []


def test_solve_rejects_negative_seed(capsys):
    code, _, err = run(capsys, "solve", "--family", "sin", "--order", "4",
                       "--dim", "5", "--btensor", "z", "--extreme", "min",
                       "--seed", "-1", "--starts", "2")
    assert code == 1
    assert "seed" in err


@pytest.mark.parametrize("command", [
    ["solve", "--btensor", "z", "--extreme", "min"],
    ["gen"],
])
def test_unwritable_out_path_is_an_error(capsys, tmp_path, command):
    out = tmp_path / "missing" / "r.json"
    code, _, err = run(capsys, *command, "--family", "sin", "--order", "4",
                       "--dim", "5", "--out", str(out))
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert str(out) in err and ".hankeleig-" not in err
    assert not out.parent.exists()


@pytest.mark.parametrize("command", [
    ["solve", "--btensor", "z", "--extreme", "min"],
    ["gen"],
])
def test_out_path_that_is_a_directory_is_an_error(capsys, tmp_path, command):
    out = tmp_path / "outdir"
    out.mkdir()
    code, _, err = run(capsys, *command, "--family", "sin", "--order", "4",
                       "--dim", "5", "--out", str(out))
    assert code == 1
    assert err.startswith("error:")
    assert str(out) in err and ".hankeleig-" not in err
    # the temporary file is gone
    assert list(tmp_path.iterdir()) == [out]
    assert list(out.iterdir()) == []


def test_out_path_that_is_a_fifo_is_written_in_place(capsys, tmp_path):
    # a path that is not a regular file (a FIFO here, a device such as
    # /dev/null in use) is written, not replaced by a renamed temporary
    argv = ["gen", "--family", "sin", "--order", "4", "--dim", "5", "--out"]
    regular = tmp_path / "v.txt"
    assert run(capsys, *argv, str(regular))[0] == 0
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()),
                              daemon=True)
    reader.start()
    code, _, _ = run(capsys, *argv, str(fifo))
    reader.join(timeout=30)
    assert code == 0
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert got == [regular.read_bytes()]
    assert sorted(tmp_path.iterdir()) == [fifo, regular]


@pytest.mark.parametrize("files, argv, message", [
    ({"v.txt": "1\n2\n3\n"},
     ["solve", "--input", "v.txt", "--btensor", "z", "--extreme", "min"],
     "needs --order and --dim"),
    ({"v.txt": "1\ntwo\n3\n"},
     ["solve", "--input", "v.txt", "--order", "2", "--dim", "2",
      "--btensor", "z", "--extreme", "min"],
     "expected one number per line"),
    ({"v.json": '{"m": 2, "n": 2, "v": [1, 2, 3]}'},
     ["solve", "--input", "v.json", "--order", "4",
      "--btensor", "z", "--extreme", "min"],
     "--order 4 contradicts m=2"),
    ({}, ["solve", "--input", "missing.txt", "--order", "2", "--dim", "2",
          "--btensor", "z", "--extreme", "min"],
     "cannot read missing.txt"),
    ({"v.json": '{"m": 2, "n": 2, "v": [1, 2, 3]}'},
     ["solve", "--input", "v.json", "--dim", "3",
      "--btensor", "z", "--extreme", "min"],
     "--dim 3 contradicts n=2"),
    ({}, ["solve", "--btensor", "z", "--extreme", "min"],
     "choose exactly one tensor source"),
    ({}, ["gen", "--family", "param"], "--family param needs --epsilon"),
    ({}, ["gen", "--order", "4", "--dim", "5"], "--family"),
    ({}, ["bench", "--order", "4", "--dims", ","],
     "--dims must name at least one dimension"),
], ids=["txt-without-shape", "txt-non-number", "order-contradicts-json",
        "missing-input", "dim-contradicts-json", "no-source",
        "param-without-epsilon", "gen-without-family", "empty-dims"])
def test_usage_errors_exit_1(capsys, tmp_path, monkeypatch, files, argv,
                             message):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


def test_step_cap_below_the_first_step_solves(capsys):
    code, out, err = run(capsys, "solve", "--family", "sin", "--order", "4",
                         "--dim", "5", "--btensor", "z", "--extreme", "min",
                         "--alpha-max", "0.5", "--starts", "5", "--seed", "1")
    assert code == 0, err
    payload = strict_json(out)
    assert payload["termination"] == "converged"
    assert payload["manifest"]["options"]["alpha_max"] == 0.5


def test_solve_rejects_odd_order(capsys):
    code, _, err = run(capsys, "solve", "--family", "sin", "--order", "3",
                       "--dim", "4", "--btensor", "z", "--extreme", "min")
    assert code == 1
    assert "even" in err


def test_solve_rejects_ambiguous_source(capsys, tmp_path):
    vec = tmp_path / "v.txt"
    vec.write_text("1.0\n")
    code, _, err = run(capsys, "solve", "--family", "sin", "--order", "4",
                       "--dim", "5", "--input", str(vec),
                       "--btensor", "z", "--extreme", "min")
    assert code == 1
    assert "exactly one tensor source" in err


def test_solve_emit_vector_binary_format(capsys, tmp_path):
    out = tmp_path / "r.json"
    blob = tmp_path / "x.bin"
    code, _, _ = run(capsys, "solve", "--family", "sin", "--order", "4",
                     "--dim", "5", "--btensor", "z", "--extreme", "min",
                     "--seed", "7", "--out", str(out),
                     "--emit-vector", str(blob))
    assert code == 0
    raw = blob.read_bytes()
    assert raw[:4] == b"HNKV"
    version, length = struct.unpack("<IQ", raw[4:16])
    assert (version, length) == (1, 5)
    x = np.frombuffer(raw[16:], dtype="<f8")
    assert x.tolist() == json.loads(out.read_text())["x"]


def test_solve_omits_vector_above_json_limit(capsys, tmp_path):
    out = tmp_path / "r.json"
    blob = tmp_path / "x.bin"
    code, _, _ = run(capsys, "solve", "--family", "random", "--order", "2",
                     "--dim", "10001", "--btensor", "z", "--extreme", "min",
                     "--seed", "0", "--max-iter", "2", "--out", str(out),
                     "--emit-vector", str(blob))
    payload = json.loads(out.read_text())
    assert "x" not in payload
    assert math.isfinite(payload["lambda"])
    raw = blob.read_bytes()
    assert struct.unpack("<Q", raw[8:16])[0] == 10001
    assert len(raw) == 16 + 8 * 10001
    if payload["termination"] in ("converged", "zero_gradient"):
        assert code == 0
    else:
        assert code == 2


def test_verify_small_instance_passes(capsys):
    code, stdout, _ = run(capsys, "verify", "--order", "4", "--dim", "6",
                          "--trials", "100", "--seed", "1")
    assert code == 0
    assert "max relative error" in stdout


def test_failed_write_names_the_path(capsys, tmp_path, monkeypatch):
    # a full disk fails the write itself, after the temporary file exists
    real_fdopen = os.fdopen

    class Full:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "fdopen", lambda fd, mode: Full(real_fdopen(fd, mode)))
    out = tmp_path / "v.txt"
    code, _, err = run(capsys, "gen", "--family", "sin", "--order", "4",
                       "--dim", "5", "--out", str(out))
    assert code == 1
    assert err == (f"error: [Errno {errno.ENOSPC}] "
                   f"{os.strerror(errno.ENOSPC)}: {str(out)!r}\n")
    assert list(tmp_path.iterdir()) == []


def test_stalled_start_does_not_fail_a_converged_solve(capsys):
    # start 0 stalls with the lambda of the best converged one; the best is
    # chosen among the nine starts that converged
    code, stdout, _ = run(capsys, "solve", "--family", "vandermonde",
                          "--order", "4", "--dim", "1000", "--btensor", "z",
                          "--extreme", "max", "--starts", "10", "--seed", "27")
    assert code == 0
    payload = strict_json(stdout)
    assert payload["termination"] == "converged"
    assert payload["lambda"] == pytest.approx(10197997.415291505, rel=1e-12)


def test_a_beta_whose_steps_underflow_stalls_every_start(capsys):
    # alpha_bar * beta**2 is 0.0: each start's search stalls there instead
    # of the run exiting 1 on a zero step, and the stall is reported
    code, stdout, err = run(capsys, "solve", "--family", "sin", "--order",
                            "4", "--dim", "5", "--btensor", "z", "--extreme",
                            "min", "--beta", "1e-200", "--starts", "5",
                            "--seed", "1")
    assert code == 2
    assert "Traceback" not in err
    payload = strict_json(stdout)
    assert payload["termination"] == "linesearch_stall"
    assert sum(b["count"] for b in payload["occurrences"]) == 5
    counts = payload["manifest"]["counts"]
    assert counts["forward_transforms"] == 5 + counts["trials"]


def test_verify_rejects_oversized_instance(capsys):
    code, _, err = run(capsys, "verify", "--order", "6", "--dim", "30")
    assert code == 1
    assert err.startswith("error: dense tensor would hold") and "cap" in err
    assert "Traceback" not in err


def test_bench_emits_csv(capsys):
    code, stdout, _ = run(capsys, "bench", "--order", "4", "--dims", "10,32",
                          "--reps", "3", "--seed", "2")
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == "family,m,n,product_time_s,solve_time_s,iters"
    assert len(lines) == 3
    family, m, n, prod, slv, iters = lines[1].split(",")
    assert (family, m, n) == ("random", "4", "10")
    assert float(prod) >= 0.0 and float(slv) > 0.0 and int(iters) >= 0


def test_bench_product_time_grows_subquadratically(capsys):
    code, stdout, _ = run(capsys, "bench", "--order", "4",
                          "--dims", "256,2560", "--reps", "9", "--seed", "2")
    assert code == 0
    rows = [line.split(",") for line in stdout.splitlines()[1:]]
    t_small, t_big = (float(row[3]) for row in rows)
    assert t_big <= 30.0 * max(t_small, 1e-9)


@pytest.mark.parametrize("reps", ["0", "-3"])
def test_bench_rejects_nonpositive_reps(capsys, reps):
    code, stdout, err = run(capsys, "bench", "--order", "4", "--dims", "10",
                            "--reps", reps)
    assert code == 1
    assert "--reps" in err
    assert stdout == ""


def test_verify_rejects_zero_trials(capsys):
    code, stdout, err = run(capsys, "verify", "--order", "4", "--dim", "6",
                            "--trials", "0")
    assert code == 1
    assert "--trials" in err
    assert stdout == ""


@pytest.mark.parametrize("order,dim,flag", [("4", "0", "--dim"),
                                            ("4", "-2", "--dim"),
                                            ("1", "6", "--order")])
def test_verify_rejects_out_of_range_order_and_dim(capsys, order, dim, flag):
    # before the draws: --dim 0 used to reach numpy and fail with its
    # "negative dimensions are not allowed"
    code, stdout, err = run(capsys, "verify", "--order", order, "--dim", dim)
    assert code == 1
    assert flag in err
    assert "negative dimensions" not in err
    assert stdout == ""


def test_bench_rejects_malformed_dims(capsys):
    code, _, err = run(capsys, "bench", "--order", "4", "--dims", "ten")
    assert code == 1
    assert "--dims" in err


def test_float_serialisation_round_trips_exactly():
    from hankeleig.cli import _format_float

    rng = np.random.default_rng(33)
    samples = list(rng.standard_normal(50) * 10.0 ** rng.integers(-300, 300, 50))
    samples += [0.0, -0.0, 1.0, -8.846334727389259, 2.0 ** -1074]
    for x in samples:
        assert float(_format_float(x)) == x


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_json_writer_refuses_non_finite_floats(bad):
    from hankeleig.cli import _json_text

    with pytest.raises(ValueError, match="non-finite"):
        _json_text({"x": bad})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_float_formatter_refuses_non_finite_floats(bad):
    from hankeleig.cli import _format_float

    with pytest.raises(ValueError, match="non-finite"):
        _format_float(bad)


def test_unknown_command_is_usage_error(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 1


def test_all_starts_failed_maps_to_exit_2(capsys, monkeypatch):
    import hankeleig.cli as cli_mod
    from hankeleig.solver import MultistartOutcome

    def doomed(spec, kind, opts):
        return MultistartOutcome(
            results=[], failures=[(i, "ValueError: synthetic") for i in
                                  range(opts.starts)],
            best=None, bins=[])

    monkeypatch.setattr(cli_mod, "multistart", doomed)
    code, _, err = run(capsys, "solve", "--family", "sin", "--order", "4",
                       "--dim", "5", "--btensor", "z", "--extreme", "min",
                       "--starts", "3")
    assert code == 2
    assert "all starts failed" in err
    assert "start 0 failed" in err


def test_some_starts_failed_are_reported_with_exit_0(capsys, monkeypatch):
    import hankeleig.cli as cli_mod

    real = cli_mod.multistart

    def partly_failed(spec, kind, opts):
        out = real(spec, kind, opts)
        out.failures.append((opts.starts, "ValueError: synthetic"))
        return out

    monkeypatch.setattr(cli_mod, "multistart", partly_failed)
    code, stdout, _ = run(capsys, "solve", "--family", "sin", "--order", "4",
                          "--dim", "5", "--btensor", "z", "--extreme", "min",
                          "--starts", "3", "--seed", "1")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["failures"] == [[3, "ValueError: synthetic"]]
    assert payload["termination"] == "converged"
