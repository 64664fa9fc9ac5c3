"""Driver tests: parsing, schema, determinism, exit codes."""

import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import trotter_lab as tl
from trotter_lab import cli
from trotter_lab.cli import COLUMNS, main, parse_int_range, parse_n_list, parse_potential


def _read_csv(path):
    lines = path.read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    rows = list(csv.DictReader(body))
    return comments, rows


def _strip_stamp_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# generated_at=")
    return "\n".join(lines[1:])


def _strip_stamp_json(path):
    payload = json.loads(path.read_text())
    assert "generated_at" in payload["meta"]
    del payload["meta"]["generated_at"]
    return payload


def test_parse_n_list():
    assert parse_n_list("8..64") == [8, 16, 32, 64]
    assert parse_n_list("2..2") == [2]
    assert parse_n_list("3,5,9") == [3, 5, 9]
    with pytest.raises(ValueError):
        parse_n_list("6..24")  # endpoints must be powers of two
    with pytest.raises(ValueError):
        parse_n_list("64..8")
    with pytest.raises(ValueError):
        parse_n_list("")


def test_parse_int_range():
    assert parse_int_range("1..4") == [1, 2, 3, 4]
    assert parse_int_range("2,5") == [2, 5]


@pytest.mark.parametrize("argv, message", [
    (["cantor", "--depth", "3", "--m", "5..3"], "'5..3' lists no values"),
    (["cantor", "--depth", "3", "--m", "0..2"], "values must be >= 1"),
    (["cantor", "--depth", "3", "--m", "2,1"], "values must strictly increase"),
    (["rates", "--potential", "linear", "--n", "8,8,8,8"],
     "values must strictly increase"),
    (["rates", "--potential", "linear", "--n", "16,8"],
     "values must strictly increase"),
    (["rates", "--potential", "linear", "--n", "0,8"], "values must be >= 1"),
    (["oracle", "--potential", "linear", "--n", ","], "lists no values"),
    (["rates", "--potential", "linear", "--n", "64..8"],
     "'64..8' lists no values"),
    (["rates", "--potential", "linear", "--n", "0..4"],
     "range endpoints must both be powers of two"),
])
def test_exit_code_bad_list(tmp_path, capsys, monkeypatch, argv, message):
    _assert_rejected_before_search(tmp_path, capsys, monkeypatch, argv,
                                   message)


@pytest.mark.parametrize("argv, message", [
    (["rates", "--potential", "linear", "--n", "8..64", "--refine", "-1"],
     "refine_levels must be >= 0, got -1"),
    (["rates", "--potential", "linear", "--n", "8..64", "--max-evals", "0"],
     "max_evals must be >= 1, got 0"),
    (["rates", "--potential", "linear", "--n", "8..64", "--max-evals", "-3"],
     "max_evals must be >= 1, got -3"),
    (["cantor", "--depth", "3", "--refine", "-2"],
     "refine_levels must be >= 0, got -2"),
    (["oracle", "--potential", "linear", "--max-evals", "0"],
     "max_evals must be >= 1, got 0"),
])
def test_exit_code_bad_search_config(tmp_path, capsys, monkeypatch, argv,
                                     message):
    _assert_rejected_before_search(tmp_path, capsys, monkeypatch, argv,
                                   message)


@pytest.mark.parametrize("argv, message", [
    (["lie", "--n", "8..16", "--dim", "0"], "dim must be >= 1"),
    (["lie", "--n", "8..16", "--norm-bound", "0"], "norm_bound must be > 0"),
])
def test_exit_code_bad_matrix_pair(tmp_path, capsys, monkeypatch, argv,
                                   message):
    _assert_rejected_before_search(tmp_path, capsys, monkeypatch, argv,
                                   message)


def _assert_rejected_before_search(tmp_path, capsys, monkeypatch, argv,
                                   message):
    def no_search(*args):
        raise AssertionError("a search ran before the arguments were checked")
    monkeypatch.setattr(cli, "sup_riemann_error", no_search)
    out = tmp_path / "report.csv"
    code = main(argv + ["--output", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["oracle", "--potential", "linear", "--tau-grid", "0"], "--tau-grid"),
    # a signed zero is still zero
    (["lie", "--seed", "3", "--trials", "-0"], "--trials"),
    (["lie", "--trials", "0"], "--trials"),
    (["lie", "--trials", "-3"], "--trials"),
    (["oracle", "--potential", "tent:harmonic=6", "--n", "4,16,64",
      "--tau-grid", "128", "--m", "0"], "--m"),
    (["strong", "--potential", "linear", "--m", "-5"], "--m"),
    (["oracle", "--potential", "linear", "--p", "0.5"], "--p"),
    (["strong", "--potential", "linear", "--p", "0"], "--p"),
    # an infinite p would read every residual as 1
    (["strong", "--potential", "linear", "--n", "2..8", "--m", "1024",
      "--p", "inf"], "--p"),
    (["oracle", "--potential", "linear", "--p", "inf"], "--p"),
])
def test_exit_code_nonpositive_count(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}: must be >= 1" in capsys.readouterr().err


def test_exit_code_not_a_number(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--potential", "linear", "--m", "abc"])
    assert exc.value.code == 2
    assert "argument --m: invalid int value: 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [
    ("rates", "--p"), ("rates", "--trials"),
    ("cantor", "--beta"), ("cantor", "--levels"), ("cantor", "--p"),
    ("cantor", "--trials"),
    ("lie", "--depth"), ("lie", "--beta"), ("lie", "--levels"), ("lie", "--p"),
    ("lie", "--grid"), ("lie", "--refine"), ("lie", "--max-evals"),
    ("strong", "--trials"), ("oracle", "--trials"),
    # potential parameters are set in the --potential text only
    ("rates", "--beta"), ("rates", "--levels"), ("rates", "--depth"),
    ("oracle", "--beta"), ("oracle", "--levels"), ("oracle", "--depth"),
    ("strong", "--beta"), ("strong", "--levels"), ("strong", "--depth"),
])
def test_exit_code_flag_not_read(capsys, command, flag):
    # each subcommand registers only the flags it reads
    argv = [command] + (["--potential", "linear"]
                        if command in ("rates", "oracle", "strong") else [])
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, "3"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err


def _run_module(*args):
    src = str(Path(tl.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, *args], env=env, check=True,
                          capture_output=True, text=True)


def test_import_does_not_load_scipy():
    code = ("import sys, trotter_lab.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    assert _run_module("-c", code).stdout.strip() == "[]"


def test_warnings_name_no_source_file():
    # tau m / n is not a whole number of cells, so every step shift rounds
    err = _run_module(
        "-m", "trotter_lab.cli", "strong", "--potential",
        "pw:breakpoints=0+1/3+1/2+1,values=1+0+2", "--n", "2..64",
        "--m", "4096", "--tau", "0.37").stderr
    assert "warning: GridResolutionWarning: Trotter step shift " in err
    assert ".py:" not in err
    lines = err.splitlines()
    assert lines and all(ln.startswith("warning: GridResolutionWarning: ")
                         for ln in lines)


def test_main_restores_warning_hook(tmp_path):
    shown = warnings.showwarning
    assert main(["lie", "--n", "8..16", "--trials", "1",
                 "--output", str(tmp_path / "lie.csv")]) == 0
    assert warnings.showwarning is shown


def test_parse_potential_shorthands():
    assert isinstance(parse_potential("constant"), tl.Constant)
    assert parse_potential("constant:c=2.5").sup_norm == 2.5
    lin = parse_potential("linear:slope=0.5,intercept=0.25")
    assert lin(0.5) == 0.5
    w = parse_potential("weier:beta=0.5,levels=4")
    assert w.kind == "HolderWeierstrass"
    c = parse_potential("cantor:depth=2")
    assert c.depth == 2
    t = parse_potential("tent:harmonic=3")
    assert t.amplitudes == (1.0, 0.5, 1.0 / 3.0)
    t2 = parse_potential("tent:amplitudes=1+0.5")
    assert t2.amplitudes == (1.0, 0.5)
    pw = parse_potential("pw:breakpoints=0+1/2+1,values=1+0")
    assert pw(0.25) == 1.0 and pw(0.75) == 0.0
    with pytest.raises(ValueError):
        parse_potential("mystery")


def test_parse_potential_spec_file(tmp_path):
    spec = tmp_path / "q.json"
    spec.write_text(json.dumps({"kind": "linear",
                                "params": {"slope": 2.0, "intercept": 0.0}}))
    q = parse_potential(f"@{spec}")
    assert q(0.5) == 1.0


def test_harmonic_spec_file_matches_shorthand(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "tent", "params": {"harmonic": 4}}))
    outs = []
    for potential in (f"@{spec}", "tent:harmonic=4"):
        out = tmp_path / "rates.csv"
        assert main(["rates", "--potential", potential, "--n", "8..64",
                     "--grid", "32", "--refine", "1",
                     "--output", str(out)]) == 0
        outs.append(_strip_stamp_csv(out))
    assert outs[0] == outs[1]
    assert "TentTrain(amplitudes=[1.0, 0.5, 0.3333333333333333, 0.25])" in outs[0]


def test_rates_csv_schema_and_summary(tmp_path):
    out = tmp_path / "rates.csv"
    code = main(["rates", "--potential", "linear", "--n", "8..64",
                 "--grid", "32", "--refine", "1",
                 "--output", str(out), "--format", "csv"])
    assert code == 0
    comments, rows = _read_csv(out)
    assert any(c.startswith("# command=rates") for c in comments)
    assert list(rows[0].keys()) == list(COLUMNS)
    data = [r for r in rows if r["command"] == "rates"]
    assert [int(r["n"]) for r in data] == [8, 16, 32, 64]
    assert all(r["verdict"] == "HOLDER_OK" for r in data)
    fit = [r for r in rows if r["command"] == "rates/fit"]
    assert len(fit) == 1 and fit[0]["n"] == "0"
    assert fit[0]["verdict"].startswith("POLY_RATE")
    assert rows[-1]["command"] == "rates/fit"  # summary after data rows


def test_rates_constant_exact_zero(tmp_path):
    out = tmp_path / "const.json"
    code = main(["rates", "--potential", "constant:c=1", "--n", "8..64",
                 "--grid", "16", "--refine", "1",
                 "--output", str(out), "--format", "json"])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["meta"]["verdict"] == "EXACT_ZERO"
    assert {r["command"] for r in payload["rows"]} == {"rates", "rates/fit"}


@pytest.mark.parametrize("potential", ["constant:c=3",
                                       "linear:slope=0,intercept=3"])
def test_rates_zero_bound_is_not_violated(tmp_path, potential):
    out = tmp_path / "zero.csv"
    assert main(["rates", "--potential", potential, "--n", "8..64",
                 "--grid", "32", "--refine", "1", "--output", str(out)]) == 0
    _, rows = _read_csv(out)
    data = [r for r in rows if r["command"] == "rates"]
    assert len(data) == 4
    assert all(r["verdict"] == "HOLDER_OK" and float(r["value"]) == 0.0
               for r in data)


def test_cantor_report(tmp_path):
    out = tmp_path / "cantor.json"
    code = main(["cantor", "--depth", "4", "--m", "1..4",
                 "--grid", "32", "--refine", "1",
                 "--output", str(out), "--format", "json"])
    assert code == 0
    payload = json.loads(out.read_text())
    meta = payload["meta"]
    assert meta["complement_measure"] == "165/256"
    assert abs(meta["integral"] - 165.0 / 256.0) < 1e-12
    assert "merged_open_set" in meta
    data = [r for r in payload["rows"] if r["command"] == "cantor"]
    assert [r["n"] for r in data] == [2, 4, 8, 16]
    assert all(r["verdict"] == "FLOOR_OK" for r in data)
    fit = [r for r in payload["rows"] if r["command"] == "cantor/fit"]
    assert fit and fit[0]["verdict"] == "NON_CONVERGENT"


def test_oracle_report(tmp_path):
    out = tmp_path / "oracle.csv"
    code = main(["oracle", "--potential", "linear", "--n", "4",
                 "--m", "2048", "--tau-grid", "16",
                 "--grid", "32", "--refine", "1",
                 "--output", str(out), "--format", "csv"])
    assert code == 0
    _, rows = _read_csv(out)
    sym = [r for r in rows if r["command"] == "oracle/symbol"]
    probe = [r for r in rows if r["command"] == "oracle/probe"]
    assert len(sym) == 1 and len(probe) == 1
    assert sym[0]["verdict"] == "CONTAINED"
    assert probe[0]["verdict"] == "REACHED"
    assert float(sym[0]["lower"]) <= float(sym[0]["value"]) <= float(sym[0]["upper"])


def test_oracle_probe_above_its_upper_is_not_reached(tmp_path):
    # tau = 1/7 is no whole number of the 1000 cells, so the probe is not
    # a weighted shift and may exceed the symbol norm plus slack
    out = tmp_path / "oracle.csv"
    assert main(["oracle", "--potential", "tent:harmonic=6", "--n", "3,5",
                 "--m", "1000", "--tau-grid", "7", "--grid", "32",
                 "--refine", "1", "--output", str(out)]) == 0
    _, rows = _read_csv(out)
    probes = [r for r in rows if r["command"] == "oracle/probe"]
    assert len(probes) == 2
    for r in probes:
        value, lower, upper = (float(r[k]) for k in ("value", "lower", "upper"))
        want = ("ABOVE" if value > upper else
                "REACHED" if value >= lower - 1e-12 else "SHORT")
        assert r["verdict"] == want
    assert probes[1]["n"] == "5" and probes[1]["verdict"] == "ABOVE"


def test_oracle_report_reads_no_seed(tmp_path):
    texts = []
    for seed in ("1", "2"):
        out = tmp_path / f"oracle-{seed}.csv"
        assert main(["oracle", "--potential", "cantor:depth=3", "--n", "4,16",
                     "--m", "4096", "--tau-grid", "16", "--grid", "32",
                     "--refine", "1", "--seed", seed,
                     "--output", str(out)]) == 0
        texts.append([ln for ln in _strip_stamp_csv(out).splitlines()
                      if not ln.startswith("# seed=")])
    assert texts[0] == texts[1]


def _symbol_rows(tmp_path, argv):
    out = tmp_path / "oracle.csv"
    assert main(argv + ["--output", str(out)]) == 0
    return [r for r in _read_csv(out)[1] if r["command"] == "oracle/symbol"]


@pytest.mark.parametrize("tau_grid, verdicts", [
    ("16", ["CONTAINED", "UNRESOLVED"]), ("128", ["CONTAINED", "CONTAINED"])])
def test_oracle_coarse_tau_grid_is_unresolved(tmp_path, tau_grid, verdicts):
    # a tau-grid max below the searched lower end is a coverage gap
    rows = _symbol_rows(tmp_path, [
        "oracle", "--potential", "cantor:depth=3", "--n", "4,16",
        "--m", "4096", "--tau-grid", tau_grid, "--grid", "32",
        "--refine", "1"])
    assert [r["verdict"] for r in rows] == verdicts
    for r in rows:
        value, lower = float(r["value"]), float(r["lower"])
        assert (r["verdict"] == "UNRESOLVED") == (value < lower - 1e-3)


def test_oracle_symbol_above_upper_is_outside(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "sup_over_taus",
                        lambda q, taus, n: (1.0, 0.5, 0.75))
    rows = _symbol_rows(tmp_path, [
        "oracle", "--potential", "linear", "--n", "4", "--m", "2048",
        "--tau-grid", "16", "--grid", "32", "--refine", "1"])
    assert float(rows[0]["upper"]) == 0.125
    assert rows[0]["verdict"] == "OUTSIDE"


def test_lie_report(tmp_path):
    out = tmp_path / "lie.csv"
    code = main(["lie", "--n", "8..64", "--trials", "5", "--seed", "3",
                 "--output", str(out), "--format", "csv"])
    assert code == 0
    _, rows = _read_csv(out)
    tele = [r for r in rows if r["command"] == "lie/telescoping"]
    assert tele[0]["verdict"] == "PASS"
    errs = [r for r in rows if r["command"] == "lie/error"]
    assert [int(r["n"]) for r in errs] == [8, 16, 32, 64]
    fit = [r for r in rows if r["command"] == "lie/fit"]
    assert fit and fit[0]["verdict"].startswith("POLY_RATE")


def test_lie_error_rows_are_the_first_pair(tmp_path):
    out = tmp_path / "lie.json"
    assert main(["lie", "--n", "16..256", "--trials", "3", "--dim", "8",
                 "--seed", "5", "--output", str(out), "--format", "json"]) == 0
    rows = json.loads(out.read_text())["rows"]
    tele = [r for r in rows if r["command"] == "lie/telescoping"]
    assert tele[0]["verdict"] == "PASS"
    ns = [16, 32, 64, 128, 256]
    want = tl.lie_error(*tl.random_matrix_pair(8, 2.0, 5), 1.0, ns)
    got = [(r["n"], r["value"]) for r in rows if r["command"] == "lie/error"]
    assert got == want


def test_cantor_beyond_depth_claims_no_floor(tmp_path):
    out = tmp_path / "cantor.csv"
    assert main(["cantor", "--depth", "3", "--m", "1..8", "--grid", "32",
                 "--refine", "1", "--output", str(out)]) == 0
    _, rows = _read_csv(out)
    data = [r for r in rows if r["command"] == "cantor"]
    assert [int(r["n"]) for r in data] == [2 ** m for m in range(1, 9)]
    assert [r["verdict"] for r in data] == ["FLOOR_OK"] * 3 + ["NO_FLOOR"] * 5


def test_strong_report(tmp_path):
    out = tmp_path / "strong.csv"
    code = main(["strong", "--potential", "cantor:depth=2", "--n", "2..32",
                 "--m", "2048", "--tau", "0.5", "--grid", "32", "--refine", "1",
                 "--output", str(out), "--format", "csv"])
    assert code == 0
    _, rows = _read_csv(out)
    resid = [r for r in rows if r["command"] == "strong/residual"]
    floor = [r for r in rows if r["command"] == "strong/norm-floor"]
    summary = [r for r in rows if r["command"] == "strong/summary"]
    assert len(resid) == 5 and len(floor) == 5
    assert summary[0]["verdict"] == "DECREASING"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_determinism_rates(tmp_path, fmt):
    argv = ["rates", "--potential", "weier:beta=0.5,levels=6", "--n", "8..64",
            "--grid", "32", "--refine", "1", "--seed", "7", "--format", fmt]
    a, b = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
    assert main(argv + ["--output", str(a)]) == 0
    assert main(argv + ["--output", str(b)]) == 0
    if fmt == "csv":
        assert _strip_stamp_csv(a) == _strip_stamp_csv(b)
    else:
        assert _strip_stamp_json(a) == _strip_stamp_json(b)


def test_thread_env_does_not_change_output(tmp_path, monkeypatch):
    argv = ["rates", "--potential", "tent:harmonic=4", "--n", "8..128",
            "--grid", "32", "--refine", "1", "--output"]
    single, multi = tmp_path / "one.csv", tmp_path / "many.csv"
    monkeypatch.setenv("TROTTER_LAB_THREADS", "1")
    assert main(argv + [str(single)]) == 0
    monkeypatch.setenv("TROTTER_LAB_THREADS", "4")
    assert main(argv + [str(multi)]) == 0
    assert _strip_stamp_csv(single) == _strip_stamp_csv(multi)


def test_exit_code_spec_error(tmp_path, capsys):
    code = main(["rates", "--potential", "mystery", "--n", "8..16"])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    code = main(["rates", "--potential", "weier", "--n", "8..16"])
    assert code == 2  # weier needs beta/levels from kv or flags
    capsys.readouterr()
    for potential, message in (
            ("linear:slope", "expected key=value, got 'slope'"),
            ("constant:c=-1", "constant potential must be >= 0")):
        assert main(["rates", "--potential", potential, "--n", "8..16"]) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("potential, named", [
    ({"kind": "weierstrass", "params": {"beta": 0.5}}, "'levels'"),
    ({"kind": "cantor"}, "'depth'"),
    ({"kind": "tent", "params": {"amplitudes": 5}}, "'amplitudes'"),
    ("pw:values=1+0", "'breakpoints'"),
    ("constant:C=2", "'C'"),
    ("linear:slop=2", "'slop'"),
    # past the Cantor size cap: the misspelt name is checked before a build
    ("cantor:depth=100,dpth=1", "'dpth'"),
])
def test_exit_code_bad_potential_parameter(tmp_path, capsys, potential, named):
    if isinstance(potential, dict):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(potential))
        potential = f"@{spec}"
    code = main(["rates", "--potential", potential, "--n", "8..16"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err


@pytest.mark.parametrize("argv", [
    ["rates", "--potential", "linear", "--n", "8..64", "--grid", "64",
     "--refine", "1"],
    ["cantor", "--depth", "3", "--m", "1..3", "--grid", "64"],
    ["oracle", "--potential", "linear", "--n", "4,16", "--m", "1024",
     "--tau-grid", "8"],
    ["strong", "--potential", "linear", "--n", "2..8", "--m", "1024"],
], ids=lambda argv: argv[0])
def test_exit_code_budget(tmp_path, argv):
    out = tmp_path / "partial.csv"
    code = main(argv + ["--max-evals", "10", "--output", str(out),
                        "--format", "csv"])
    assert code == 3
    comments, rows = _read_csv(out)
    assert any(c.startswith("# budget_exhausted=True") for c in comments)
    assert rows  # partial rows written


def test_stdout_default(capsys):
    code = main(["rates", "--potential", "linear", "--n", "8..64",
                 "--grid", "16", "--refine", "1"])
    assert code == 0
    text = capsys.readouterr().out
    assert text.startswith("# generated_at=")
    assert "rates/fit" in text


def test_argparse_rejects_unknown_command():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
