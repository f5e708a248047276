import inspect
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import doublehopf as dh
from doublehopf import cli, nfde_sim
from doublehopf.chareq import SystemParams
from doublehopf.cli import main

from conftest import (EPS, MU, REF_B0, REF_C0, REF_K0, REF_TAU0, delayed_y,
                      format_cases, grid_times)


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    lines = path.read_text().split("\n")
    assert lines[-1] == ""  # trailing LF
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:-1]]
    return header, rows


def write_rows(path, header, rows):
    """The row-by-row CSV writer: each float by format(v, ".17g")."""
    with open(path, "w", newline="\n") as fh:
        cli._csv_rows(fh, header, rows)


PUBLIC_NAMES = [
    "AmplitudeEquilibrium", "AmplitudeState", "AttractorPrediction", "EigenBasis",
    "HopfFrequencies", "HopfHopfPoint", "HopfLadders", "NormalFormCoeffs",
    "PoincareSection", "SimConfig", "StabilityWindows", "SystemParams",
    "Trajectory", "UnfoldingParams", "ViaLines", "WPoly", "bilinear_form",
    "classify_section", "classify_unfolding", "divergence_exponent",
    "duality_residual", "eigenbasis", "equilibria", "eval_char",
    "find_hopf_hopf", "hopf_frequencies", "hopf_ladders", "line_T_scan",
    "nf_coefficients", "poincare", "predict_attractor", "region_of",
    "resonance_check", "scan_hopf_curves", "simulate_amplitude",
    "simulate_neutral", "simulate_theta", "stability_windows", "tau_branch",
    "transversality_sign", "unfolding_params", "via_lines", "w_poly",
]


def test_public_api_is_pinned():
    # the package ships what its commands run; an evaluator only the tests
    # call lives in tests/conftest.py, and adding a name updates this list
    names = sorted(k for k, v in vars(dh).items()
                   if not k.startswith("_") and not inspect.ismodule(v))
    assert names == PUBLIC_NAMES
    for module in (dh.amplitude, dh.chareq, dh.hopf_hopf, dh.nfde_sim, dh.normalform):
        assert set(module.__all__) <= set(vars(module)), module.__name__


def test_analyze_report(tmp_path):
    out = tmp_path / "report.json"
    assert run_cli("analyze", "--out", str(out)) == 0
    rep = json.loads(out.read_text())
    assert rep["k0"] == pytest.approx(REF_K0, abs=1e-8)
    assert rep["tau0"] == pytest.approx(REF_TAU0, abs=1e-8)
    assert rep["case"] == "VIa"
    assert rep["nonresonant"] is True
    assert rep["b0"] == pytest.approx(REF_B0, rel=1e-4)
    assert rep["c0"] == pytest.approx(REF_C0, rel=1e-4)
    assert rep["d0"] == -1
    assert rep["duality_residual"] < 1e-8
    assert len(rep["lines"]) == 8
    assert {ln["name"] for ln in rep["lines"]} == {f"L{i}" for i in range(1, 9)}
    # 17-significant-digit serialization round-trips exactly
    hh = dh.find_hopf_hopf(EPS, MU, 1, 1, 4.5, 5.2)
    assert rep["k0"] == hh.k0
    assert rep["tau0"] == hh.tau0


def test_hopf_curves_csv(tmp_path):
    out = tmp_path / "curves.csv"
    assert run_cli("hopf-curves", "--k-range", "4.6:4.8:0.05", "--j-max", "1",
                   "--out", str(out)) == 0
    header, rows = read_csv(out)
    assert header == ["branch_sign", "j", "k", "tau", "omega"]
    assert len(rows) == 2 * 2 * 5
    for sign, j, k, tau, omega in rows[:6]:
        p = SystemParams(EPS, MU, float(k), float(tau))
        assert abs(dh.eval_char(1j * float(omega), p)) < 1e-9


def test_hopf_curves_empty_range(tmp_path):
    out = tmp_path / "curves.csv"
    assert run_cli("hopf-curves", "--k-range", "5:4:0.1", "--out", str(out)) == 0
    header, rows = read_csv(out)
    assert header == ["branch_sign", "j", "k", "tau", "omega"]
    assert rows == []


def test_hopf_curves_blocks_match_row_writer(tmp_path, monkeypatch):
    # each curve goes out in %-formatted blocks behind its (sign, j) prefix;
    # the bytes are those of the row-by-row writer, partial blocks included
    monkeypatch.setattr(cli, "_ROW_BLOCK", 4)
    out = tmp_path / "curves.csv"
    assert run_cli("hopf-curves", "--k-range", "2.6:3.0:0.02", "--j-max", "2",
                   "--out", str(out)) == 0
    table = dh.scan_hopf_curves(EPS, MU, cli._parse_range("2.6:3.0:0.02"), 2)
    n_curve = len(table.rows) // 6
    assert table.skipped_k and n_curve % 4 != 0
    whole = tmp_path / "whole.csv"
    write_rows(whole, ["branch_sign", "j", "k", "tau", "omega"],
               ((r.branch_sign, r.j, r.k, r.tau, r.omega) for r in table.rows))
    assert out.read_bytes() == whole.read_bytes()


def test_hopf_curves_grid_too_large_is_json_error(tmp_path, capsys):
    # 10**18 + 1 gains: numpy refuses the allocation before committing memory
    out = tmp_path / "curves.csv"
    assert run_cli("hopf-curves", "--k-range", "0:1e9:1e-9", "--out", str(out)) == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "ValueError"
    assert "1000000000000000001 gains" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("k_range",
                         ["0:1e308:1e-10", "-1e308:1e308:1e-300", "0:1e19:1"])
def test_hopf_curves_uncountable_grid_is_json_error(tmp_path, capsys, k_range):
    # the gain count overflows a double, or numpy's index type: the same
    # error, not a traceback or numpy's own message
    out = tmp_path / "curves.csv"
    assert run_cli("hopf-curves", f"--k-range={k_range}", "--out", str(out)) == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "ValueError"
    assert "too many to hold in memory" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("args", [
    pytest.param(("--mu", "1.5", "--k-range", "5:4:0.1"), id="mu-empty-grid"),
    pytest.param(("--epsilon", "nan", "--k-range", "5:4:0.1"), id="epsilon-empty-grid"),
    pytest.param(("--j-max", "-1"), id="j-max"),
])
def test_hopf_curves_rejects_forbidden_instance(tmp_path, capsys, args):
    # checked before the gain loop, so an empty grid does not hide it
    assert run_cli("hopf-curves", *args, "--out", str(tmp_path / "c.csv")) == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "ValueError"
    assert err["message"].startswith(args[0][2:].replace("-", "_"))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("stride", ["0", "-3", str(10**30)], ids=["0", "-3", "1e30"])
def test_simulate_rejects_non_positive_stride(tmp_path, capsys, stride):
    assert run_cli("simulate", "--alpha1", "0.1", "--alpha2", "0.085",
                   "--stride", stride, "--out", str(tmp_path / "s")) == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "ValueError"
    assert "stride" in err["message"]
    assert list(tmp_path.iterdir()) == []


def test_simulate_roundtrip_uses_report_exactly(tmp_path):
    rep_path = tmp_path / "report.json"
    run_cli("analyze", "--out", str(rep_path))
    rep = json.loads(rep_path.read_text())

    out = tmp_path / "run"
    code = run_cli(
        "simulate", "--alpha1", "-0.1", "--alpha2", "0.1",
        "--report", str(rep_path), "--h-div", "100", "--t-end", "40",
        "--transient", "10", "--stride", "10", "--out", str(out),
    )
    assert code == 0
    cls = json.loads((tmp_path / "run.classification.json").read_text())
    assert cls["k"] == rep["k0"] + (-0.1)
    assert cls["tau"] == rep["tau0"] + 0.1

    header, rows = read_csv(tmp_path / "run.trajectory.csv")
    assert header == ["t", "x", "y", "theta", "y_delayed"]
    assert len(rows) > 10
    header, _ = read_csv(tmp_path / "run.section.csv")
    assert header == ["t", "x", "y_delayed", "direction"]


def test_simulate_report_supplies_the_whole_point(tmp_path):
    # a report of an epsilon = 0.2 point runs at epsilon = 0.2, whatever the
    # instance flags say: the same files as the run given by flags, and the
    # classification records the instance it ran
    point = ("--epsilon", "0.2", "--j-plus", "2", "--j-minus", "1",
             "--bracket", "2.46:4.98")
    rep_path = tmp_path / "report.json"
    assert run_cli("analyze", *point, "--out", str(rep_path)) == 0
    run = ("simulate", "--alpha1", "0.1", "--alpha2", "0.081", "--h-div", "100",
           "--t-end", "300", "--transient", "100", "--stride", "10")
    assert run_cli(*run, "--report", str(rep_path), "--out", str(tmp_path / "r")) == 0
    assert run_cli(*run, *point, "--out", str(tmp_path / "f")) == 0
    for suffix in (".trajectory.csv", ".section.csv", ".classification.json"):
        assert (tmp_path / ("r" + suffix)).read_bytes() == (
            tmp_path / ("f" + suffix)
        ).read_bytes()
    cls = json.loads((tmp_path / "r.classification.json").read_text())
    assert list(cls)[:4] == ["epsilon", "mu", "k", "tau"]
    assert (cls["epsilon"], cls["mu"]) == (0.2, MU)


@pytest.mark.parametrize("text,missing", [
    ('{"tau0": 8.8}', "KeyError: 'k0'"),
    ("[1, 2]", "TypeError"),
])
def test_malformed_report_is_json_error(tmp_path, capsys, text, missing):
    rep_path = tmp_path / "r.json"
    rep_path.write_text(text)
    assert run_cli("simulate", "--alpha1", "0.1", "--alpha2", "0.085",
                   "--report", str(rep_path), "--out", str(tmp_path / "z")) == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "ValueError"
    assert str(rep_path) in err["message"] and missing in err["message"]
    assert list(tmp_path.iterdir()) == [rep_path]


@pytest.mark.parametrize("key,text", [
    ("j_plus", "1e400"), ("j_plus", "1.5"), ("j_plus", "true"), ("j_minus", "-1"),
    ("k0", "1" + "0" * 400), ("k0", "true"), ("tau0", "NaN"), ("epsilon", '"0.1"'),
])
def test_bad_report_field_is_json_error(tmp_path, capsys, key, text):
    # each field is read by the rule its argument has (errors.real or
    # errors.index), so a bad one exits 2 naming it: not an OverflowError
    # traceback, and not a truncated or converted value
    hh = dh.find_hopf_hopf(EPS, MU, 1, 1, 4.5, 5.2)
    rep = {k: getattr(hh, k) for k in cli._REPORT_POINT}
    rep_path = tmp_path / "r.json"
    rep_path.write_text(json.dumps({**rep, key: "@"}).replace('"@"', text))
    assert run_cli("simulate", "--alpha1", "0.1", "--alpha2", "0.085",
                   "--report", str(rep_path), "--out", str(tmp_path / "z")) == 2
    (line,) = capsys.readouterr().out.strip().splitlines()
    err = json.loads(line)
    assert err["error"] == "ValueError"
    assert err["message"].startswith(f"{key} must be ")
    assert list(tmp_path.iterdir()) == [rep_path]


@pytest.mark.parametrize("argv,message", [
    (("simulate", "--alpha1", "0.1"), "required: --alpha2"),
    (("simulate", "--alpha1", "0.1", "--alpha2", "-inf"),
     "--alpha2: expected one argument"),
    (("bogus",), "invalid choice: 'bogus'"),
])
def test_usage_error_is_json_error(tmp_path, capsys, argv, message):
    assert run_cli(*argv, "--out", str(tmp_path / "z")) == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "ValueError"
    assert message in err["message"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [("--help",), ("simulate", "--help")])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: doublehopf")


def test_simulate_outputs_are_reproducible(tmp_path):
    args = (
        "simulate", "--alpha1", "-0.1", "--alpha2", "0.1", "--h-div", "100",
        "--t-end", "30", "--transient", "5", "--stride", "5",
    )
    run_cli(*args, "--out", str(tmp_path / "a"))
    run_cli(*args, "--out", str(tmp_path / "b"))
    for suffix in (".trajectory.csv", ".section.csv", ".classification.json"):
        assert (tmp_path / ("a" + suffix)).read_bytes() == (
            tmp_path / ("b" + suffix)
        ).read_bytes()


def test_simulate_neutral_formulation(tmp_path):
    out = tmp_path / "run"
    code = run_cli(
        "simulate", "--alpha1", "-0.1", "--alpha2", "-0.08",
        "--formulation", "neutral_form", "--h-div", "100", "--t-end", "30",
        "--transient", "5", "--stride", "10", "--out", str(out),
    )
    assert code == 0
    cls = json.loads((tmp_path / "run.classification.json").read_text())
    assert cls["formulation"] == "neutral_form"


def test_error_exit_codes(tmp_path, capsys):
    # negative delay -> parameter validation error
    code = run_cli("simulate", "--alpha1", "0", "--alpha2", "-50.0",
                   "--h-div", "50", "--t-end", "10", "--out",
                   str(tmp_path / "x"))
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "ValueError"

    # bracket without a curve crossing -> domain error
    code = run_cli("analyze", "--bracket", "3.0:3.5",
                   "--out", str(tmp_path / "y.json"))
    assert code == 1
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "NoSignChange"


@pytest.mark.parametrize("command", [
    ("simulate", "--alpha1", "0.1", "--alpha2", "0.085"),
    ("line-t", "--iota", "2.0", "--no-exponent"),
])
def test_zero_delay_divisor_is_json_error(tmp_path, capsys, command):
    assert run_cli(*command, "--h-div", "0", "--out", str(tmp_path / "z")) == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "ValueError"
    assert "h_div" in err["message"]


@pytest.mark.parametrize("command,name", [
    pytest.param(("simulate", "--alpha1", "0.1", "--alpha2", "0.085",
                  "--t-end", "inf"), "t_end", id="simulate-t-end"),
    pytest.param(("line-t", "--iota", "2.0", "--t-end", "inf"), "t_end",
                 id="line-t-t-end"),
    pytest.param(("line-t", "--iota", "2.0", "--h-div", "50", "--t-end", "100",
                  "--transient", "50", "--renorm-T", "inf"), "renorm_T",
                 id="line-t-renorm-T"),
    pytest.param(("hopf-curves", "--k-range", "3:inf:0.01"), "finite",
                 id="k-range-hi"),
    pytest.param(("hopf-curves", "--k-range", "3:6:inf"), "finite",
                 id="k-range-step"),
    pytest.param(("hopf-curves", "--k-range", "nan:6:0.01"), "finite",
                 id="k-range-lo"),
    pytest.param(("line-t", "--iota", "2.0,nan"), "iota", id="line-t-iota-nan"),
    pytest.param(("line-t", "--iota", "inf"), "iota", id="line-t-iota-inf"),
    pytest.param(("line-t", "--iota=-inf"), "iota", id="line-t-iota-minus-inf"),
    pytest.param(("analyze", "--bracket=-inf:5.2"), "k_lo", id="analyze-bracket-lo"),
])
def test_non_finite_argument_is_json_error(tmp_path, capsys, command, name):
    assert run_cli(*command, "--out", str(tmp_path / "z")) == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "ValueError"
    assert name in err["message"]


def test_blowup_maps_to_error_with_time(tmp_path, capsys, monkeypatch):
    # with 7-step chunks the streamed export has rows before the blow-up
    for chunk in (7, nfde_sim._CHUNK, 1 << 16):
        monkeypatch.setattr(nfde_sim, "_CHUNK", chunk)
        code = run_cli(
            "simulate", "--alpha1", "495", "--alpha2", "0", "--x0", "1.0",
            "--h-div", "50", "--t-end", "50", "--transient", "10",
            "--out", str(tmp_path / "b"),
        )
        assert code == 1
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err["error"] == "NonFiniteState"
        assert 0.0 < err["time"] < 50.0
        assert list(tmp_path.glob("b.*")) == []  # no partial export


def test_line_t_blowup_is_the_same_error_at_one_and_two_cpus(tmp_path, capsys,
                                                          monkeypatch):
    # both scales blow up at once; at 2 CPUs each in its own worker process
    out = tmp_path / "b.csv"
    seen = []
    for cpus in (1, 2):
        monkeypatch.setattr(nfde_sim, "_usable_cpus", lambda n=cpus: n)
        code = run_cli("line-t", "--iota", "2.0,2.6", "--x0", "1e7",
                       "--t-end", "100", "--transient", "50", "--no-exponent",
                       "--out", str(out))
        seen.append((code, capsys.readouterr().out))
        assert not out.exists()  # no output of a failed scan
    assert seen[0] == seen[1]
    code, text = seen[0]
    err = json.loads(text.strip().splitlines()[-1])
    assert code == 1 and err["error"] == "NonFiniteState"
    assert 0.0 < err["time"] < 1.0


def test_line_t_bad_out_fails_before_any_step(tmp_path, capsys, monkeypatch):
    def step(self, n):
        raise AssertionError("stepped before opening --out")

    monkeypatch.setattr(nfde_sim._ThetaStepper, "step", step)
    out = tmp_path / "missing" / "x.csv"
    assert run_cli("line-t", "--iota", "2.0,2.6", "--out", str(out)) == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "FileNotFoundError"
    assert list(tmp_path.iterdir()) == []


def test_import_loads_no_process_pool():
    # the pool machinery is imported by the first parallel map, not at start
    code = ("import sys, doublehopf, doublehopf.cli; "
            "print([m for m in ('multiprocessing', 'concurrent.futures.process') "
            "if m in sys.modules])")
    src = str(Path(dh.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.strip() == "[]"


def test_zero_start_stays_zero(tmp_path):
    out = tmp_path / "z"
    code = run_cli(
        "simulate", "--alpha1", "0", "--alpha2", "0", "--x0", "0", "--y0", "0",
        "--h-div", "50", "--t-end", "20", "--transient", "5", "--out", str(out),
    )
    assert code == 0
    _, rows = read_csv(tmp_path / "z.trajectory.csv")
    assert all(float(r[1]) == 0.0 and float(r[2]) == 0.0 for r in rows)


def test_config_file_defaults(tmp_path, capsys):
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("# defaults\nk_range=4.6:4.7:0.05\nj_max=0\n")
    out = tmp_path / "c.csv"
    for spelling in (["--config", str(cfg)], [f"--config={cfg}"]):
        assert run_cli(*spelling, "hopf-curves", "--out", str(out)) == 0
        _, rows = read_csv(out)
        assert len(rows) == 2 * 3  # j = 0 only, 3 gains, both signs
        out.unlink()

    # explicit flag beats the config value
    assert run_cli("--config", str(cfg), "hopf-curves", "--j-max", "1",
                   "--out", str(out)) == 0
    _, rows = read_csv(out)
    assert len(rows) == 4 * 3


def test_config_values_parse_like_flags(tmp_path, capsys):
    # a config value goes through the flag's own type, as the flag would
    short = ("--no-exponent", "--t-end", "300", "--transient", "100", "--h-div", "200")
    cfg = tmp_path / "iota.cfg"
    cfg.write_text("iota=2.6\n")
    assert run_cli("--config", str(cfg), "line-t", *short,
                   "--out", str(tmp_path / "c.csv")) == 0
    assert run_cli("line-t", "--iota", "2.6", *short,
                   "--out", str(tmp_path / "f.csv")) == 0
    assert (tmp_path / "c.csv").read_text() == (tmp_path / "f.csv").read_text()

    sim = ("simulate", "--alpha1", "0.1", "--alpha2", "0.085")
    cfg.write_text("stride=2.5\n")
    assert run_cli("--config", str(cfg), *sim, "--out", str(tmp_path / "s")) == 2
    from_config = capsys.readouterr().out
    assert run_cli(*sim, "--stride", "2.5", "--out", str(tmp_path / "s")) == 2
    assert from_config == capsys.readouterr().out
    assert json.loads(from_config)["error"] == "ValueError"

    cfg.write_text("j_plus=abc\n")
    assert run_cli("--config", str(cfg), "analyze",
                   "--out", str(tmp_path / "a.json")) == 2
    from_config = capsys.readouterr().out
    assert run_cli("analyze", "--j-plus", "abc",
                   "--out", str(tmp_path / "a.json")) == 2
    assert from_config == capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.csv", "f.csv", "iota.cfg"]


def test_config_format_and_choices(tmp_path, capsys):
    cfg = tmp_path / "fmt.cfg"
    cfg.write_text("format=json\nk_range=4.6:4.7:0.05\nj_max=0\n")
    out = tmp_path / "h.json"
    assert run_cli("--config", str(cfg), "hopf-curves", "--out", str(out)) == 0
    assert len(json.loads(out.read_text())["rows"]) == 2 * 3

    # short runs, in case a bad value were let through
    simulate = ("simulate", "--alpha1", "0.1", "--alpha2", "0.1", "--h-div", "50",
                "--t-end", "20", "--transient", "5")
    for key, bad, command in [
        ("format", "xml", ("hopf-curves", "--k-range", "4.6:4.7:0.05")),
        ("direction", "sideways", simulate),
        ("no_exponent", "yes", ("line-t", "--iota", "0")),
    ]:
        cfg.write_text(f"{key}={bad}\n")
        assert run_cli("--config", str(cfg), *command, "--out", str(tmp_path / "z")) == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "ValueError"
        assert key in err["message"] and repr(bad) in err["message"]
    assert not list(tmp_path.glob("z*"))


def test_line_t_skipped_origin(tmp_path):
    out = tmp_path / "t.csv"
    assert run_cli("line-t", "--iota", "0", "--out", str(out)) == 0
    header, rows = read_csv(out)
    assert header == ["iota", "k", "tau", "label", "divergence_exponent"]
    assert len(rows) == 1
    assert rows[0][3] == "skipped_origin"
    assert float(rows[0][1]) == pytest.approx(REF_K0, abs=1e-8)


def test_line_t_records_label_error(tmp_path):
    # the JSON rows carry the classifier's error, as simulate's report does
    out = tmp_path / "t.json"
    assert run_cli("--format", "json", "line-t", "--iota", "2.0,0",
                   "--no-exponent", "--h-div", "100", "--t-end", "40",
                   "--transient", "10", "--out", str(out)) == 0
    origin, short = json.loads(out.read_text())["rows"]
    assert "label_error" not in origin
    assert short["label"] is None and short["divergence_exponent"] is None
    assert short["label_error"].startswith("InsufficientData: ")


def test_analyze_flags_resonant_frequencies(tmp_path, monkeypatch):
    # inject a 1:2-resonant point through the detection hook
    real = dh.find_hopf_hopf(EPS, MU, 1, 1, 4.5, 5.2)
    fake = dh.HopfHopfPoint(
        EPS, MU, real.k0, real.tau0, real.omega2 / 2.0, real.omega2, 1, 1
    )
    import doublehopf.cli as cli_mod

    monkeypatch.setattr(cli_mod.hopf_hopf, "find_hopf_hopf",
                        lambda *a, **kw: fake)
    out = tmp_path / "res.json"
    assert run_cli("analyze", "--out", str(out)) == 0
    rep = json.loads(out.read_text())
    assert rep["nonresonant"] is False
    assert rep["nearest_ratio"] == [1, 2]


def test_json_table_format(tmp_path):
    out = tmp_path / "curves.json"
    assert run_cli("--format", "json", "hopf-curves", "--k-range",
                   "4.6:4.7:0.05", "--j-max", "0", "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert len(data["rows"]) == 2 * 3
    assert data["skipped_k"] == []

    out2 = tmp_path / "t.json"
    assert run_cli("--format", "json", "line-t", "--iota", "0",
                   "--out", str(out2)) == 0
    data = json.loads(out2.read_text())
    assert data["rows"][0]["label"] == "skipped_origin"


@pytest.mark.parametrize("stride,formulation", [(1, "theta_form"),
                                                (3, "neutral_form"),
                                                (3, "theta_form"),
                                                (1, "neutral_form")])
def test_trajectory_export_blocks_match_whole_arrays(
    tmp_path, monkeypatch, hh, stride, formulation
):
    monkeypatch.setattr(cli, "_ROW_BLOCK", 16)
    # streamed runs: chunk boundaries off the stride and row blocks
    chunks = (nfde_sim._CHUNK, 1 << 16, 7, 40)
    for chunk in chunks:
        monkeypatch.setattr(nfde_sim, "_CHUNK", chunk)
        assert run_cli(
            "simulate", "--alpha1", "-0.1", "--alpha2", "0.1", "--h-div", "50",
            "--t-end", "60", "--transient", "5", "--stride", str(stride),
            "--formulation", formulation, "--out", str(tmp_path / f"run{chunk}"),
        ) == 0
    params = SystemParams(EPS, MU, hh.k0 - 0.1, hh.tau0 + 0.1)
    traj = nfde_sim.simulate(nfde_sim.SimConfig(
        params, 0.1, 0.0, 50, 60.0, 5.0, formulation))
    assert len(traj) % (16 * stride) != 0  # ends in a partial block
    assert len(traj) > 2 * 16 * stride
    whole = tmp_path / "whole.csv"
    write_rows(
        whole,
        ["t", "x", "y", "theta", "y_delayed"],
        zip(grid_times(traj)[::stride].tolist(), traj.x[::stride].tolist(),
            traj.y[::stride].tolist(), traj.theta[::stride].tolist(),
            delayed_y(traj)[::stride].tolist()),
    )
    for chunk in chunks:
        got = tmp_path / f"run{chunk}.trajectory.csv"
        assert got.read_bytes() == whole.read_bytes(), chunk


@pytest.mark.parametrize("direction", ["both", "up", "down"])
def test_section_csv_matches_row_writer(tmp_path, monkeypatch, hh, direction):
    # the section goes out in _fmt17 blocks with direction a float column;
    # the bytes are those of the row-by-row writer with direction an int
    monkeypatch.setattr(cli, "_ROW_BLOCK", 4)
    assert run_cli(
        "simulate", "--alpha1", "-0.1", "--alpha2", "0.1", "--h-div", "50",
        "--t-end", "100", "--transient", "5", "--direction", direction,
        "--out", str(tmp_path / "run"),
    ) == 0
    params = SystemParams(EPS, MU, hh.k0 - 0.1, hh.tau0 + 0.1)
    sec = nfde_sim.stream_section(nfde_sim.SimConfig(
        params, 0.1, 0.0, 50, 100.0, 5.0), direction)
    assert len(sec) > 2 * 4 and len(sec) % 4 != 0  # ends in a partial block
    assert set(sec.direction.tolist()) == ({-1, 1} if direction == "both" else
                                           {1 if direction == "up" else -1})
    whole = tmp_path / "whole.csv"
    write_rows(whole, ["t", "x", "y_delayed", "direction"],
               zip(sec.t.tolist(), sec.x.tolist(), sec.y_delayed.tolist(),
                   sec.direction.tolist()))
    assert (tmp_path / "run.section.csv").read_bytes() == whole.read_bytes()


def test_section_without_crossings_is_its_header(tmp_path):
    # y falls from 0 through the window [2, 3] and turns only after it
    assert run_cli(
        "simulate", "--alpha1", "-0.1", "--alpha2", "0.1", "--h-div", "50",
        "--t-end", "3", "--transient", "2", "--out", str(tmp_path / "run"),
    ) == 0
    cls = json.loads((tmp_path / "run.classification.json").read_text())
    assert cls["n_crossings"] == 0
    assert (tmp_path / "run.section.csv").read_bytes() == b"t,x,y_delayed,direction\n"


def test_percent_format_matches_format_spec():
    # "%.17g" and format(v, ".17g") agree digit for digit; the long tables'
    # _fmt17 is checked against the same values in test_cli_properties
    vals = format_cases()
    text = ("%.17g,%.17g\n" * (len(vals) // 2)) % tuple(vals[: len(vals) // 2 * 2])
    want = "".join(
        f"{format(a, '.17g')},{format(b, '.17g')}\n"
        for a, b in zip(vals[0::2], vals[1::2])
    )
    assert text == want


def test_config_as_last_argument(tmp_path, capsys):
    assert run_cli("analyze", "--out", str(tmp_path / "a.json"), "--config") == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "ValueError"


def test_config_does_not_leak_into_later_calls(tmp_path, capsys):
    # main parses with one shared parser; a --config call's defaults stay
    # with that call, and the next plain call sees the built-in defaults
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("j_max=0\nformat=json\n")
    grid = ("hopf-curves", "--k-range", "4.6:4.7:0.05")
    assert run_cli("--config", str(cfg), *grid, "--out", str(tmp_path / "c.json")) == 0
    assert len(json.loads((tmp_path / "c.json").read_text())["rows"]) == 2 * 3
    out = tmp_path / "c.csv"
    assert run_cli(*grid, "--out", str(out)) == 0
    _, rows = read_csv(out)
    assert len(rows) == 2 * 4 * 3  # j = 0..3, both signs, 3 gains, as CSV


def test_usage_error_leaves_next_call_unaffected(tmp_path, capsys):
    first, again = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("analyze", "--out", str(first)) == 0
    capsys.readouterr()
    assert run_cli("simulate", "--alpha1", "0.1") == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "ValueError" and "--alpha2" in err["message"]
    assert run_cli("analyze", "--out", str(again)) == 0
    assert again.read_bytes() == first.read_bytes()


def test_build_parser_is_public_and_fresh():
    assert "build_parser" in cli.__all__
    built = cli.build_parser()
    assert built is not cli.build_parser()
    assert built is not cli._shared_parser()
    assert cli._shared_parser() is cli._shared_parser()
    # a caller's changes to a built parser stay with that parser
    built.set_defaults(format="json")
    assert cli._shared_parser().parse_args(["analyze"]).format == "csv"


def test_line_t_locates_point_from_options(tmp_path, capsys):
    args = ("line-t", "--epsilon", "0.2", "--j-plus", "2", "--j-minus", "1",
            "--bracket", "2.46:4.98", "--iota", "1.0", "--no-exponent")
    out = tmp_path / "t.csv"
    # a short run reaches the classifier: the point was located and is
    # admissible, and too few crossings leaves the label cell empty
    assert run_cli(*args, "--t-end", "200", "--transient", "100",
                   "--out", str(out)) == 0
    header, rows = read_csv(out)
    assert len(header) == 5 and len(rows) == 1 and len(rows[0]) == 5
    assert rows[0][3] == "" and rows[0][4] == ""
    assert run_cli(*args, "--h-div", "100", "--t-end", "3000",
                   "--transient", "100", "--out", str(out)) == 0
    _, rows = read_csv(out)
    hh = dh.find_hopf_hopf(0.2, MU, 2, 1, 2.46, 4.98)
    assert float(rows[0][1]) == hh.k0 + 0.1
    assert rows[0][3] == "fixed_point"


_COMMANDS = {
    "hopf-curves": ("hopf-curves",),
    "analyze": ("analyze",),
    "simulate": ("simulate", "--alpha1", "0.1", "--alpha2", "0.085"),
    "line-t": ("line-t", "--iota", "2.0"),
}


@pytest.mark.parametrize("other,flag,name", [
    ("--alpha2=0.085", "--alpha1", "k"), ("--alpha1=0.1", "--alpha2", "tau"),
])
def test_non_finite_offset_is_json_error(tmp_path, capsys, other, flag, name):
    # the input is at fault, not the integrator: exit 2, not NonFiniteState
    for bad in ("nan", "inf", "-inf"):
        assert run_cli("simulate", other, f"{flag}={bad}",
                       "--out", str(tmp_path / "z")) == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err["error"] == "ValueError"
        assert err["message"].startswith(f"{name} must be finite")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["simulate", "line-t"])
@pytest.mark.parametrize("name", ["x0", "y0"])
def test_non_finite_initial_data_is_json_error(tmp_path, capsys, command, name):
    # bad input, not a blow-up: exit 2, not NonFiniteState at the first step
    for bad in ("nan", "inf", "-inf"):
        assert run_cli(*_COMMANDS[command], f"--{name}={bad}",
                       "--out", str(tmp_path / "z")) == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert (err["error"], err["message"]) == (
            "ValueError", f"{name} must be finite, got {bad}")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", list(_COMMANDS))
@pytest.mark.parametrize("flag,value", [
    ("--epsilon", "0"), ("--epsilon", "-0.1"), ("--epsilon", "nan"),
    ("--mu", "0"), ("--mu", "1"), ("--mu", "1.5"), ("--mu", "nan"),
])
def test_inadmissible_instance_is_json_error(tmp_path, capsys, command, flag, value):
    # the SystemParams rule, applied by gain_bound, which every command reaches
    assert run_cli(*_COMMANDS[command], flag, value,
                   "--out", str(tmp_path / "z")) == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "ValueError"
    assert err["message"].startswith(flag[2:])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["analyze", "simulate", "line-t"])
def test_rung_beyond_float_range_is_json_error(tmp_path, capsys, command):
    # from 2**53 on, floats no longer hold every integer, so j*2*pi/omega is
    # no rung: the index is refused as an argument, not met as an overflow
    assert run_cli(*_COMMANDS[command], "--j-plus", str(10**400),
                   "--out", str(tmp_path / "z")) == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "ValueError"
    assert err["message"].startswith(
        "branch index j must be an integer >= 0 and < 2**53")
    assert list(tmp_path.iterdir()) == []


def _row_by_row_curves(table):
    """The hopf-curves CSV and JSON of ``table`` from its rows, one at a time."""
    csv = io.StringIO()
    cli._csv_rows(csv, ["branch_sign", "j", "k", "tau", "omega"], table.rows)
    doc = {"rows": [r._asdict() for r in table.rows],
           "skipped_k": list(table.skipped_k)}
    return csv.getvalue().encode(), (cli._json_text(doc) + "\n").encode()


@pytest.mark.parametrize("block", [4, 16384])
@pytest.mark.parametrize("k_range", [
    pytest.param("2.6:3.0:0.02", id="skipped-below"),
    pytest.param("9.9:10.2:0.05", id="skipped-above"),
    pytest.param("1:2:0.1", id="all-skipped"),
    pytest.param("5:4:0.1", id="empty"),
    pytest.param("4.6:4.62:0.01", id="one-partial-block"),
])
@pytest.mark.parametrize("j_max", [0, 1, 2, 3])
def test_hopf_curves_writers_match_row_by_row(tmp_path, monkeypatch, k_range,
                                              j_max, block):
    # both formats write each curve in blocks with k and omega formatted
    # once; the bytes are those of the row-by-row writers
    monkeypatch.setattr(cli, "_ROW_BLOCK", block)
    table = dh.scan_hopf_curves(EPS, MU, cli._parse_range(k_range), j_max)
    want_csv, want_json = _row_by_row_curves(table)
    for fmt, want in (("csv", want_csv), ("json", want_json)):
        out = tmp_path / f"curves.{fmt}"
        assert run_cli("--format", fmt, "hopf-curves", "--k-range", k_range,
                       "--j-max", str(j_max), "--out", str(out)) == 0
        assert out.read_bytes() == want, fmt


@pytest.mark.parametrize("n", [0, 1, 3, 10])
def test_text_columns_match_row_writer(monkeypatch, n):
    # a column formatted once by _fmt17 goes out next to float columns,
    # in blocks of 3 rows with a partial last block
    monkeypatch.setattr(cli, "_ROW_BLOCK", 3)
    vals = np.array([0.1, -0.0, 5e-324, 1e300, math.inf, -math.inf, math.nan,
                     1.0 / 3.0, 2.0**53 + 2.0, -2.5])[:n]
    floats = vals[::-1].copy()
    got = io.StringIO()
    cli._csv_block_rows(got, [cli._fmt17(vals), floats, cli._fmt17(floats), vals],
                        "s,1,")
    want = io.StringIO()
    cli._csv_rows(want, [], (("s", 1, a, b, b, a)
                             for a, b in zip(vals.tolist(), floats.tolist())))
    assert got.getvalue() == want.getvalue()[1:]  # _csv_rows' empty header
