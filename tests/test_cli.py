"""Driver tests: parsing, schema, determinism, exit codes."""

import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
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
    # the lattice of G points per axis has G (G + 1)/2 windows
    (["rates", "--potential", "linear", "--n", "8", "--grid", "100000",
      "--refine", "0"], "coarse_grid 100000 > cap 4096"),
    (["cantor", "--depth", "3", "--grid", "4097"],
     "coarse_grid 4097 > cap 4096"),
])
def test_exit_code_bad_search_config(tmp_path, capsys, monkeypatch, argv,
                                     message):
    _assert_rejected_before_search(tmp_path, capsys, monkeypatch, argv,
                                   message)


@pytest.mark.parametrize("argv", [
    ["strong", "--potential", "linear", "--n", "2..4", "--m", "4194305",
     "--tau", "0.5", "--grid", "16", "--refine", "0"],
    ["oracle", "--potential", "linear", "--n", "4", "--m", "4194305",
     "--grid", "16", "--refine", "0"],
])
def test_exit_code_grid_resolution_over_the_cap(tmp_path, capsys,
                                                monkeypatch, argv):
    # one grid point over the cap of 2^22 (at m = 10^9 the grid functions
    # would take 8 GiB): refused before the searches, which for oracle come
    # before its first grid function
    _assert_rejected_before_search(tmp_path, capsys, monkeypatch, argv,
                                   "m 4194305 > cap 4194304")


def test_sampled_n_over_the_cap_exits_2(capsys):
    # one sample over the sampled kernel's cap of 2^22 is an error line (at
    # n = 2^30 the samples of one window would take 8 GiB); closed forms
    # and piece counts take n = 2^30
    argv = ["--grid", "2", "--refine", "0"]
    assert main(["rates", "--potential", "tent:harmonic=3",
                 "--n", "4194305"] + argv) == 2
    assert capsys.readouterr().err == (
        "error: n 4194305 > cap 4194304 of the sampled left-sum kernel\n")
    for spec in ("weier:beta=0.5,levels=10", "cantor:depth=4"):
        assert main(["rates", "--potential", spec,
                     "--n", "1073741824"] + argv) == 0
        assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv, message", [
    (["lie", "--n", "8..16", "--dim", "0"], "dim must be >= 1"),
    (["lie", "--n", "8..16", "--norm-bound", "0"], "norm_bound must be > 0"),
    (["lie", "--n", "8..16", "--norm-bound", "nan"],
     "norm_bound must be > 0 and finite, got nan"),
    (["lie", "--n", "8..16", "--norm-bound", "inf"],
     "norm_bound must be > 0 and finite, got inf"),
    # expm's norm cap raises OverflowError, a bad-input error too
    (["lie", "--n", "8..16", "--dim", "2", "--norm-bound", "1e6"],
     "exceeds cap"),
    # entries near 1e300 overflow a Frobenius norm, not the cap's pre-check
    (["lie", "--n", "8..16", "--dim", "2", "--norm-bound", "1e300"],
     "exceeds cap"),
])
def test_exit_code_bad_matrix_pair(tmp_path, capsys, monkeypatch, argv,
                                   message):
    _assert_rejected_before_search(tmp_path, capsys, monkeypatch, argv,
                                   message)


def _assert_rejected_before_search(tmp_path, capsys, monkeypatch, argv,
                                   message):
    def no_search(*args):
        raise AssertionError("a search ran before the arguments were checked")
    for search in ("sup_riemann_error", "sup_symbol"):
        monkeypatch.setattr(cli, search, no_search)
    out = tmp_path / "report.csv"
    code = main(argv + ["--output", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert "warning:" not in err
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
    # expm needs only numpy, so a whole lie run loads no scipy either
    loaded = ("print(sorted(m for m in sys.modules "
              "if m == 'scipy' or m.startswith('scipy.'))); ")
    code = ("import os, sys, trotter_lab.cli; " + loaded +
            "trotter_lab.cli.main(['lie', '--n', '8..16', '--trials', '2', "
            "'--output', os.devnull]); " + loaded)
    assert _run_module("-c", code).stdout.split() == ["[]", "[]"]


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


def _rows(tmp_path, argv):
    out = tmp_path / "report.csv"
    assert main(argv + ["--output", str(out)]) == 0
    return _read_csv(out)[1]


@pytest.mark.parametrize("potential, ns, m", [
    ("tent:harmonic=6", "3,5", "1000"), ("cantor:depth=3", "4,16", "4096"),
    ("linear", "4,16", "100")])
def test_oracle_probes_an_aligned_tau(tmp_path, potential, ns, m):
    # tau_p is a multiple of n/m below 1 and at most the symbol's
    # tau* = t* - s* (or n/m, the smallest): both shifts align there, so
    # the probe is the exact discrete norm and reaches the per-tau symbol
    rows = _rows(tmp_path, [
        "oracle", "--potential", potential, "--n", ns, "--m", m,
        "--grid", "32", "--refine", "1"])
    for sym, probe in zip(rows[1::2], rows[::2]):
        assert (sym["command"], probe["command"]) == ("oracle/symbol",
                                                      "oracle/probe")
        n, tau = int(probe["n"]), float(probe["argmax_t"])
        steps = tau * int(m) / n
        assert abs(steps - round(steps)) < 1e-9 and 1 <= round(steps)
        assert tau < 1.0
        width = float(sym["argmax_t"]) - float(sym["argmax_s"])
        assert tau <= width or round(steps) == 1
        assert probe["verdict"] == "REACHED"


def test_oracle_probe_tau():
    # the largest multiple of n/m at most tau* and below 1, at least n/m
    assert cli._probe_tau(0.9, 4, 64) == 56 / 64
    assert cli._probe_tau(0.99999, 4, 64) == 60 / 64
    assert cli._probe_tau(0.01, 4, 64) == 4 / 64
    assert cli._probe_tau(0.7, 16, 24) == 16 / 24
    # no multiple of n/m lies in (0, 1): tau* itself
    assert cli._probe_tau(0.7, 16, 16) == 0.7
    assert cli._probe_tau(0.7, 16, 8) == 0.7


@pytest.mark.parametrize("m", ["16", "8"])
def test_oracle_without_an_aligned_tau_probes_at_the_argmax(tmp_path, m):
    rows = _rows(tmp_path, [
        "oracle", "--potential", "linear", "--n", "16", "--m", m,
        "--grid", "32", "--refine", "1"])
    sym, probe = rows[1], rows[0]
    assert float(probe["argmax_t"]) == (float(sym["argmax_t"])
                                        - float(sym["argmax_s"]))
    # no tau in (0, 1) aligns the shifts, so the probe claims nothing
    assert probe["verdict"] == "UNALIGNED"


def test_oracle_probe_below_its_lower_is_short(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "operator_norm_oracle",
                        lambda q, tau, n, p, m: 0.0)
    rows = _rows(tmp_path, [
        "oracle", "--potential", "tent:harmonic=6", "--n", "3,5",
        "--m", "1000", "--grid", "32", "--refine", "1"])
    assert [r["verdict"] for r in rows
            if r["command"] == "oracle/probe"] == ["SHORT", "SHORT"]


def test_oracle_probe_above_its_upper_is_not_reached(tmp_path, monkeypatch):
    # a probe above the per-tau symbol plus the grid slack reads ABOVE
    monkeypatch.setattr(cli, "operator_norm_oracle",
                        lambda q, tau, n, p, m: 0.5427)
    rows = _rows(tmp_path, [
        "oracle", "--potential", "tent:harmonic=6", "--n", "3,5",
        "--m", "1000", "--grid", "32", "--refine", "1"])
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
    return [r for r in _rows(tmp_path, argv)
            if r["command"] == "oracle/symbol"]


@pytest.mark.parametrize("tau_grid, verdicts", [
    ("16", ["CONTAINED", "CONTAINED"]), ("128", ["CONTAINED", "CONTAINED"])])
def test_oracle_coarse_tau_grid_is_unresolved(tmp_path, tau_grid, verdicts):
    # the symbol is one triangle search, so a coarse tau grid leaves no
    # coverage gap: no row is UNRESOLVED and --tau-grid changes no row
    texts = []
    for grid in (tau_grid, "256"):
        out = tmp_path / f"oracle-{grid}.csv"
        assert main(["oracle", "--potential", "cantor:depth=3", "--n", "4,16",
                     "--m", "4096", "--tau-grid", grid, "--grid", "32",
                     "--refine", "1", "--output", str(out)]) == 0
        texts.append(_strip_stamp_csv(out))
    rows = _read_csv(tmp_path / f"oracle-{tau_grid}.csv")[1]
    assert [r["verdict"] for r in rows] == ["REACHED", "CONTAINED"] * 2
    symbols = [r for r in rows if r["command"] == "oracle/symbol"]
    assert [r["verdict"] for r in symbols] == verdicts
    for r in symbols:
        value, lower = float(r["value"]), float(r["lower"])
        assert (r["verdict"] == "UNRESOLVED") == (value < lower - 1e-3)
    assert texts[0] == texts[1]


def _patched_symbol_row(tmp_path, monkeypatch, symbol):
    # the oracle passes its sweep's shared lattice to the symbol search
    monkeypatch.setattr(cli, "sup_symbol", lambda q, n, cfg, lattice:
                        tl.SearchReport(n, symbol, tl.DeltaPair(0.75, 0.25),
                                        tl.SearchTrace((symbol,), 1)))
    rows = _symbol_rows(tmp_path, [
        "oracle", "--potential", "linear", "--n", "4", "--m", "2048",
        "--tau-grid", "16", "--grid", "32", "--refine", "1"])
    assert (rows[0]["argmax_t"], rows[0]["argmax_s"]) == ("0.75", "0.25")
    return rows[0]


def test_oracle_symbol_above_upper_is_outside(tmp_path, monkeypatch):
    # above the certified upper end is a contradiction
    row = _patched_symbol_row(tmp_path, monkeypatch, 1.0)
    assert float(row["upper"]) == 0.125
    assert row["verdict"] == "OUTSIDE"


@pytest.mark.parametrize("steps", [
    "pw:breakpoints=0+1,values=0.3", "pw:breakpoints=0+1/2+1,values=0.3+0.3"],
    ids=["one-piece", "equal-pieces"])
def test_jump_free_steps_read_as_constant(tmp_path, steps):
    # a step potential without jumps is the constant: its integral and its
    # left sums round alike, so every error and symbol is exactly 0
    search = ["--grid", "32", "--refine", "1"]
    for argv in (["rates", "--n", "1,3,16"], ["oracle", "--n", "1,3,16"]):
        got, want = (
            [(r["command"], r["n"], r["value"], r["argmax_t"], r["argmax_s"])
             for r in _rows(tmp_path, argv + ["--potential", pot]
                                   + search)
             if r["command"] in ("rates", "oracle/symbol")]
            for pot in (steps, "constant:c=0.3"))
        assert got == want
        assert {value for _, _, value, _, _ in got} == {"0.0"}


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


def test_cantor_rates_reach_the_window_at_non_dyadic_n(tmp_path):
    # the window (eps_m/2 + n/2^m, eps_m/2) has a zero left sum at every n
    # with 2^(m-1) < n < 2^m, m <= depth; the search reached 0.37x of it
    # at n = 96 before the hint
    q, _ = tl.build_cantor(8)
    out = tmp_path / "rates.csv"
    assert main(["rates", "--potential", "cantor:depth=8",
                 "--n", "12,24,48,96,192", "--output", str(out)]) == 0
    rows = [r for r in _read_csv(out)[1] if r["command"] == "rates"]
    assert [int(r["n"]) for r in rows] == [12, 24, 48, 96, 192]
    for r in rows:
        n = int(r["n"])
        m = n.bit_length()
        half = 0.5 * q.corner_width(m)
        window = q.antiderivative(half + n / 2.0 ** m) - q.antiderivative(half)
        assert float(r["value"]) >= 0.99 * window, n


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


@pytest.mark.parametrize("argv, usable, points", [
    (["rates", "--potential", "linear:slope=1e-10", "--n", "8..1024",
      "--grid", "16", "--refine", "0"], 3, 8),
    # a commuting pair: every error is roundoff, 4e-15 to 2e-12
    (["lie", "--n", "16..1024", "--trials", "1", "--dim", "1"], 1, 7),
    (["cantor", "--depth", "1", "--m", "39..42", "--grid", "16",
      "--refine", "0"], 2, 4),
])
def test_sweep_below_the_zero_threshold_writes_rows_unfitted(
        tmp_path, capsys, argv, usable, points):
    # some but fewer than 4 values above 1e-12: the per-n rows are written
    # with no fit row and no verdict, a warning gives the usable count,
    # and the command succeeds
    out = tmp_path / "r.json"
    assert main(argv + ["--format", "json", "--output", str(out)]) == 0
    assert capsys.readouterr().err == (
        f"warning: no rate fit: only {usable} of {points} values above "
        f"1e-12\n")
    payload = json.loads(out.read_text())
    assert "verdict" not in payload["meta"]
    rows = payload["rows"]
    assert not any(r["command"].endswith("/fit") for r in rows)
    searched = [r for r in rows if r["n"]]
    assert len(searched) == points
    assert sum(r["value"] > 1e-12 for r in searched) == usable


def test_exit_code_spec_error(tmp_path, capsys):
    code = main(["rates", "--potential", "mystery", "--n", "8..16"])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    code = main(["rates", "--potential", "weier", "--n", "8..16"])
    assert code == 2  # weier needs beta/levels from kv or flags
    capsys.readouterr()
    for potential, message in (
            ("linear:slope", "expected key=value, got 'slope'"),
            ("constant:c=-1", "constant potential must be >= 0"),
            # non-finite parameters, which min and max would pass over
            ("constant:c=nan", "constant potential must be >= 0 and finite"),
            ("linear:slope=inf", "linear potential parameters must be finite"),
            ("pw:breakpoints=0+1/2+1,values=nan+1",
             "piece values must be >= 0 and finite"),
            ("tent:amplitudes=1+nan", "tent amplitudes must be > 0"),
            ("tent:amplitudes=1+inf", "tent amplitudes must be > 0"),
            ("tent:harmonic=-3", "'harmonic'"),
            ("weier:beta=0.5,levels=1023", "levels must lie in [1, 1022]")):
        assert main(["rates", "--potential", potential, "--n", "8..16",
                     "--grid", "16", "--refine", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
    # 2^(j + 1) in the Holder constant overflows at level 1023; 1022 runs
    argv = ["rates", "--n", "8", "--grid", "2", "--refine", "0"]
    assert main(argv + ["--potential", "tent:harmonic=1023"]) == 2
    err = capsys.readouterr().err
    assert err == "error: a tent train takes at most 1022 levels, got 1023\n"
    assert main(argv + ["--potential", "tent:harmonic=1022"]) == 0
    assert capsys.readouterr().err == ""
    for tau in ("inf", "nan"):
        assert main(["strong", "--potential", "linear", "--n", "2..8",
                     "--m", "1024", "--tau", tau]) == 2
        assert "error: tau must be >= 0" in capsys.readouterr().err
    # a finite tau whose shift overflows a whole number of cells
    assert main(["strong", "--potential", "linear", "--n", "2..8",
                 "--m", "64", "--tau", "1e308"]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("tau", ["1", "2", "1e308"])
def test_strong_rejects_tau_from_one_on(capsys, tau):
    # from tau = 1 on every residual is 0 and the summary would read
    # DECREASING on no evidence; an overflowing tau gets the same message
    assert main(["strong", "--potential", "linear", "--n", "2..8",
                 "--m", "64", "--tau", tau]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: tau must be < 1, got")


def test_strong_rejects_tau_that_rounds_to_the_grid(capsys):
    # tau < 1, but 0.999 * 64 rounds to all 64 cells: every residual would
    # be 0 and the summary DECREASING on no evidence
    assert main(["strong", "--potential", "linear", "--n", "2..8",
                 "--m", "64", "--tau", "0.999"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: tau 0.999 rounds to the whole m = 64")


@pytest.mark.parametrize("potential, named", [
    ({"kind": "weierstrass", "params": {"beta": 0.5}}, "'levels'"),
    ({"kind": "cantor"}, "'depth'"),
    ({"kind": "tent", "params": {"amplitudes": 5}}, "'amplitudes'"),
    ("pw:values=1+0", "'breakpoints'"),
    ("constant:C=2", "'C'"),
    ("linear:slop=2", "'slop'"),
    # past the Cantor size cap: the misspelt name is checked before a build
    ("cantor:depth=100,dpth=1", "'dpth'"),
    # a negative level count is no empty train
    ("tent:harmonic=-3", "'harmonic'"),
    # pi 2^1023 overflows, which would make q NaN
    ("weier:beta=0.5,levels=1023", "levels must lie in [1, 1022]"),
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


@pytest.mark.parametrize("argv", [
    ["rates", "--potential", "linear", "--n", "8..64"],
    ["cantor", "--depth", "2", "--m", "1..3"],
    ["oracle", "--potential", "linear", "--n", "4,16", "--m", "4096"],
], ids=lambda argv: argv[0])
def test_budget_spent_before_the_first_probe_writes_no_row(tmp_path, argv):
    # 3 evals do not admit the 5 hints: no window was probed, so there is
    # no value, verdict or probe tau to report
    out = tmp_path / "partial.csv"
    assert main(argv + ["--grid", "16", "--refine", "1", "--max-evals", "3",
                        "--output", str(out)]) == 3
    comments, rows = _read_csv(out)
    assert "# budget_exhausted=True" in comments
    assert rows == []


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


def _json_rows(tmp_path, argv, code):
    out = tmp_path / "report.json"
    assert main(argv + ["--format", "json", "--output", str(out)]) == code
    return json.loads(out.read_text())["rows"]


def test_budget_sweep_rows_equal_single_searches(tmp_path):
    # a budget that the n = 8 left-sum search fits and the n = 16 one does
    # not: the sweeps stop where searches run alone would, with the same
    # partial reports, though the sweep's searches share the lattice; the
    # symbol searches of oracle and strong run alone over the whole n list
    q = parse_potential("tent:harmonic=6")
    spent = tl.sup_riemann_error(q, 8, tl.SearchConfig(64, 2)).method.evals
    cfg = tl.SearchConfig(64, 2, max_evals=spent)

    def alone(search, ns):
        out = []
        for n in ns:
            try:
                out.append(search(q, n, cfg))
            except tl.BudgetExceededError as exc:
                return out + [exc.partial]
        return out

    reports = alone(tl.sup_riemann_error, [8, 16, 32])
    assert [rep.method.budget_hit for rep in reports] == [False, True]
    symbols = alone(tl.sup_symbol, [8, 16, 32])
    argv = ["--potential", "tent:harmonic=6", "--n", "8,16,32", "--grid",
            "64", "--refine", "2", "--max-evals", str(spent)]
    for head, command, searched in (
            (["rates"], "rates", reports),
            (["oracle", "--m", "4096"], "oracle/symbol", symbols),
            (["strong", "--m", "4096"], "strong/norm-floor", symbols)):
        rows = _json_rows(tmp_path, head + argv, 3)
        assert [(r["n"], r["value"], r["lower"], r["upper"], r["argmax_t"],
                 r["argmax_s"]) for r in rows if r["command"] == command] == [
            (rep.n, rep.value, rep.value, q.certified_upper_bound(rep.n),
             rep.argmax.t, rep.argmax.s) for rep in searched], command


SEARCHED = ("rates", "cantor", "oracle/symbol", "strong/norm-floor")


@pytest.mark.parametrize("argv", [
    ["rates", "--potential", "weier:beta=0.5,levels=6", "--n", "8..64"],
    ["rates", "--potential", "pw:breakpoints=0+1/3+1,values=2+0.5",
     "--n", "3,8,9"],
    ["cantor", "--depth", "3", "--m", "1..5"],
    ["oracle", "--potential", "tent:harmonic=6", "--n", "4,16", "--m",
     "4096"],
    ["strong", "--potential", "linear", "--n", "2..8", "--m", "1024"],
    ["strong", "--potential", "cantor:depth=3", "--n", "2..16", "--m",
     "4096"],
], ids=lambda argv: "-".join(argv[:3]))
def test_searched_rows_bracket_their_value(tmp_path, argv):
    # every searched row's value is its own lower end, under its certified
    # upper end
    rows = [r for r in _json_rows(tmp_path, argv + ["--grid", "32",
                                                    "--refine", "1"], 0)
            if r["command"] in SEARCHED]
    assert rows
    for r in rows:
        assert r["lower"] == r["value"] <= r["upper"], r


@pytest.mark.parametrize("argv", [
    ["lie", "--n", "8..64", "--trials", "2"],
    # the Gram-eigenvalue spectral norm and the doubled telescoping sum at
    # the largest benchmark dimension
    ["lie", "--dim", "96", "--trials", "2", "--n", "16..64"],
    # norms up to 80 take the Taylor exponential through several squarings
    # of degree 20
    ["lie", "--dim", "16", "--norm-bound", "40", "--trials", "2",
     "--n", "16..64"],
], ids=["dim4", "dim96", "norm40"])
def test_lie_telescoping_passes(tmp_path, argv):
    # lie exits 0 on a FAIL row too, so the verdict is read
    rows = [r for r in _json_rows(tmp_path, argv, 0)
            if r["command"] == "lie/telescoping"]
    assert len(rows) == 1 and rows[0]["verdict"] == "PASS", rows


def test_oracle_runs_one_symbol_search_per_n(tmp_path, monkeypatch):
    # the symbol max is the row's lower end, so each n costs one triangle
    # search and no left-sum search runs
    q = parse_potential("tent:harmonic=6")
    ns = [4, 16, 64]
    symbols = [tl.sup_symbol(q, n, tl.SearchConfig(32, 1)) for n in ns]
    search, calls = tl.sup_search._search_triangle, []

    def counted(q, n, *args):
        calls.append(n)
        return search(q, n, *args)

    def no_search(*args, **kwargs):
        raise AssertionError("oracle ran a left-sum search")

    monkeypatch.setattr(tl.sup_search, "_search_triangle", counted)
    monkeypatch.setattr(cli, "sup_riemann_error", no_search)
    rows = _json_rows(tmp_path, [
        "oracle", "--potential", "tent:harmonic=6", "--n", "4,16,64",
        "--m", "4096", "--grid", "32", "--refine", "1"], 0)
    assert calls == ns
    assert [(r["n"], r["value"], r["lower"], r["upper"], r["argmax_t"],
             r["argmax_s"], r["verdict"])
            for r in rows if r["command"] == "oracle/symbol"] == [
        (rep.n, rep.value, rep.value, q.certified_upper_bound(rep.n),
         rep.argmax.t, rep.argmax.s, "CONTAINED") for rep in symbols]


def test_rates_sweep_samples_the_lattice_once(monkeypatch):
    # each n's lattice sums come off a fine grid of (G - 1) n + 1 points of
    # q, plus the windows near the top cells summed again: all told below
    # one sampling of the lattice at the sweep's largest n.  Only the hints
    # and the refinement rounds sample q at each n besides
    q = parse_potential("tent:harmonic=6")
    ns = [8, 16, 32, 64, 128, 256]
    cfg = tl.SearchConfig()
    side = tl.sup_search._REFINE_FACTOR + 1
    per_n = (cfg.refine_levels * tl.sup_search._TOP_CELLS * side * side)
    bound = (cfg.coarse_grid * (cfg.coarse_grid + 1) // 2 * max(ns)
             + sum(n * (len(tl.sup_search.default_hints(q, n)) + per_n)
                   for n in ns))
    points = []
    call = tl.Potential.__call__

    def counted(self, t):
        points.append(np.size(t))
        return call(self, t)

    monkeypatch.setattr(tl.Potential, "__call__", counted)
    assert main(["rates", "--potential", "tent:harmonic=6", "--n", "8..256",
                 "--output", os.devnull]) == 0
    assert sum(points) <= bound


PW7 = ("pw:breakpoints=0+1/7+2/7+3/7+4/7+5/7+6/7+1,"
       "values=0+1+0.5+1+0+1.5+0")


@pytest.mark.parametrize("potential, ns", [
    (PW7, "2,3,4,5,6"), ("tent:harmonic=12", "2..64"),
    ("weier:beta=0.5,levels=10", "2..64")], ids=["pw", "tent", "weier"])
def test_lattice_argmax_reads_its_riemann_error(tmp_path, potential, ns):
    # at --refine 0 every row's argmax is a lattice point, whose value is
    # the riemann_error there, bit for bit: the 7-piece step (K = 6 >= n)
    # reads its lattice sums off one fine grid per n, the tent train off
    # the fine grid within a proven slop and Weierstrass off its phase
    # tables within one, and the windows that could reach the top cells
    # are summed again
    out = tmp_path / "lattice.json"
    assert main(["rates", "--potential", potential, "--n", ns, "--grid", "32",
                 "--refine", "0", "--format", "json", "--output",
                 str(out)]) == 0
    report = json.loads(out.read_text())
    q = parse_potential(potential)
    axis = np.linspace(tl.sup_search._S_MIN, 1.0, 32).tolist()
    rows = [r for r in report["rows"] if r["command"] == "rates"]
    assert [r["n"] for r in rows] == report["meta"]["n_list"]
    for r in rows:
        t, s = r["argmax_t"], r["argmax_s"]
        assert t in axis and s in axis, r
        assert r["value"] == tl.riemann_error(q, tl.DeltaPair(t, s), r["n"]), r


@pytest.mark.parametrize("potential", [
    "tent:harmonic=6", "cantor:depth=3", "cantor:depth=10",
    "weier:beta=0.5,levels=10"])
def test_sweep_rows_equal_rows_alone(capsys, potential):
    # a sweep samples one lattice for all its n and counts the breakpoints
    # once for its piece-count n (cantor:depth=3 has 16, so n = 32 and 64
    # count and share; cantor:depth=10 has 1320, so every n samples it
    # through the cell value table), and Weierstrass reads one set of phase
    # tables: its per-n rows equal those of each n run alone
    def rates_rows(ns):
        argv = ["rates", "--potential", potential, "--n", ns, "--grid", "32",
                "--refine", "1"]
        assert main(argv) == 0
        return [ln for ln in capsys.readouterr().out.splitlines()
                if ln.startswith("rates,")]

    sweep = rates_rows("8..64")
    assert len(sweep) == 4
    assert sweep == [row for n in ("8", "16", "32", "64")
                     for row in rates_rows(n)]
