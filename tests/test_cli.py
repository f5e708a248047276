import json
import math

import numpy as np
import pytest

import doublehopf as dh
from doublehopf import cli, nfde_sim
from doublehopf.chareq import SystemParams
from doublehopf.cli import main

from conftest import EPS, MU, REF_B0, REF_C0, REF_K0, REF_TAU0


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    lines = path.read_text().split("\n")
    assert lines[-1] == ""  # trailing LF
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:-1]]
    return header, rows


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


@pytest.mark.parametrize("stride", ["0", "-3"])
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
])
def test_non_finite_argument_is_json_error(tmp_path, capsys, command, name):
    assert run_cli(*command, "--out", str(tmp_path / "z")) == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "ValueError"
    assert name in err["message"]


def test_blowup_maps_to_error_with_time(tmp_path, capsys, monkeypatch):
    # with 7-step chunks the streamed export has rows before the blow-up
    for chunk in (7, 1 << 16):
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
        real.k0, real.tau0, real.omega2 / 2.0, real.omega2, 1, 1
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
    for chunk in (1 << 16, 7, 40):
        monkeypatch.setattr(nfde_sim, "_CHUNK", chunk)
        assert run_cli(
            "simulate", "--alpha1", "-0.1", "--alpha2", "0.1", "--h-div", "50",
            "--t-end", "60", "--transient", "5", "--stride", str(stride),
            "--formulation", formulation, "--out", str(tmp_path / f"run{chunk}"),
        ) == 0
    params = SystemParams(EPS, MU, hh.k0 - 0.1, hh.tau0 + 0.1)
    traj = nfde_sim.simulate(nfde_sim.SimConfig.from_divisor(
        params, 0.1, 0.0, 50, 60.0, 5.0, formulation))
    assert len(traj) % (16 * stride) != 0  # ends in a partial block
    assert len(traj) > 2 * 16 * stride
    whole = tmp_path / "whole.csv"
    cli._write_csv(
        str(whole),
        ["t", "x", "y", "theta", "y_delayed"],
        zip(traj.t[::stride].tolist(), traj.x[::stride].tolist(),
            traj.y[::stride].tolist(), traj.theta[::stride].tolist(),
            traj.y_delayed()[::stride].tolist()),
    )
    for chunk in (1 << 16, 7, 40):
        got = tmp_path / f"run{chunk}.trajectory.csv"
        assert got.read_bytes() == whole.read_bytes(), chunk


def test_percent_format_matches_format_spec():
    # the trajectory writer formats blocks with "%.17g"; every other
    # output uses format(v, ".17g"), and the two must agree digit for digit
    rng = np.random.default_rng(17)
    raw = rng.integers(0, 2**64, size=50_000, dtype=np.uint64).view(np.float64)
    scaled = rng.standard_normal(20_000) * 10.0 ** rng.integers(-320, 300, 20_000)
    vals = [v for v in np.concatenate([raw, scaled]).tolist() if math.isfinite(v)]
    vals += [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
             2.2250738585072014e-308, 1e300, -1e300, 1e-300, -1e-300,
             1.7976931348623157e308, 0.1, 1.0 / 3.0, 2.0**53 + 2.0,
             math.inf, -math.inf, math.nan]
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
