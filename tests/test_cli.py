import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from poolruin.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SRC = Path(__file__).resolve().parent.parent / "src"

M1_TEXT = (CONFIGS / "m1_hand.json").read_text()


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_transform_hand_model(capsys):
    code, out, _ = run_cli(
        capsys,
        "transform",
        "--config",
        str(CONFIGS / "m1_hand.json"),
        "--alpha-grid",
        "0,1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "alpha,pi_ladder,pi_overshoot,abs_diff"
    zero = lines[1].split(",")
    assert zero[0] == "0" and zero[1] == "1" and zero[2] == "1" and zero[3] == "0"
    one = lines[2].split(",")
    assert math.isclose(float(one[1]), 5.0 / 6.0, rel_tol=1e-12)
    assert math.isclose(float(one[2]), 5.0 / 6.0, rel_tol=1e-12)
    assert float(one[3]) < 1e-10


def test_invalid_config_names_field(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"m": 1, "lambda_circ": [-1.0], "claims": [{"exp": {"mu": 1.0}}], '
        '"regimes": [{"drift": {"r": 1.0}}, {"drift": {"r": 1.0}}]}'
    )
    code, _, err = run_cli(capsys, "transform", "--config", str(bad))
    assert code == 2
    assert "lambda_circ[0]" in err


def test_missing_config_file(capsys):
    code, _, err = run_cli(capsys, "transform", "--config", "/nonexistent.json")
    assert code == 2
    assert "not found" in err


def test_numerical_failure_exit_code(capsys):
    # the general recursion needs a positive killing rate
    code, _, err = run_cli(
        capsys,
        "transform",
        "--config",
        str(CONFIGS / "fig3.json"),
        "--beta",
        "0",
    )
    assert code == 3
    assert "numerical failure" in err


def test_curves_moments(capsys):
    code, out, _ = run_cli(
        capsys,
        "curves",
        "--config",
        str(CONFIGS / "fig2.json"),
        "--mode",
        "moments",
        "--t-grid",
        "1,2,5",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,mean,var"
    means = [float(line.split(",")[1]) for line in lines[1:]]
    assert means == sorted(means)


def test_curves_ruin_columns(capsys):
    code, out, _ = run_cli(
        capsys,
        "curves",
        "--config",
        str(CONFIGS / "fig4.json"),
        "--mode",
        "ruin",
        "--u-grid",
        "1,5",
        "--mc-paths",
        "20000",
        "--seed",
        "4",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "u,p_inverted,p_exact_ph,p_asymptote,p_montecarlo,mc_stderr"
    for line in lines[1:]:
        u, inv, ph, asym, mc, se = line.split(",")
        assert asym == ""  # Erlang claims carry no regular-variation tail
        assert abs(float(inv) - float(ph)) < 1e-4
        assert abs(float(mc) - float(ph)) < 4 * float(se)


def test_curves_ruin_fig5_asymptote_column(capsys):
    code, out, _ = run_cli(
        capsys,
        "curves",
        "--config",
        str(CONFIGS / "fig5.json"),
        "--mode",
        "ruin",
        "--u-grid",
        "100",
    )
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[2] == ""  # no phase-type representation for Lomax claims
    assert float(row[3]) > 0
    assert row[4] == "" and row[5] == ""


def test_simulate_json_deterministic(capsys):
    argv = [
        "simulate",
        "--config",
        str(CONFIGS / "m1_hand.json"),
        "--paths",
        "20000",
        "--seed",
        "5",
        "--u",
        "0.5",
        "--alpha",
        "1.0",
    ]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    code3, out3, _ = run_cli(capsys, *argv, "--workers", "8")
    assert code1 == code2 == code3 == 0
    assert out1 == out2 == out3
    doc = json.loads(out1)
    assert doc["seed"] == 5 and doc["n_paths"] == 20000
    assert "estimates" in doc and "stderr" in doc
    assert "0.5" in doc["estimates"]["ruin"]


def test_simulate_writes_file(tmp_path, capsys):
    out_path = tmp_path / "sim.json"
    code, _, _ = run_cli(
        capsys,
        "simulate",
        "--config",
        str(CONFIGS / "m1_hand.json"),
        "--paths",
        "1000",
        "--seed",
        "1",
        "--out",
        str(out_path),
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["n_paths"] == 1000


def test_simulate_reports_claim_count_pvalue(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate",
        "--config",
        str(CONFIGS / "m1_hand.json"),
        "--paths",
        "50000",
        "--seed",
        "3",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["estimates"]["claims_count_pvalue"] > 0.001


def test_config_parses_all_claim_and_regime_tags(tmp_path, capsys):
    cfg = tmp_path / "full.json"
    cfg.write_text(json.dumps({
        "m": 3,
        "lambda_circ": [1.0, 2.0, 1.5],
        "beta": 1.0,
        "claims": [
            {"ph": {"delta": [0.6, 0.4], "delta_abs": 0.0,
                     "S": [[-2.0, 1.0], [0.0, -3.0]]}},
            {"lomax": {"c": 1.0, "eps": 1.5}},
            {"point": {"b": 0.7}},
        ],
        "regimes": [
            {"drift": {"r": 1.0}},
            {"bm": {"r": 0.5, "sigma2": 1.0}},
            {"cp": {"r": 1.0, "sigma2": 0.5, "rate": 0.7,
                     "jump": {"erlang": {"k": 2, "mu": 3.0}}}},
            {"sub": {"r": -0.2, "rate": 0.4, "jump": {"exp": {"mu": 1.0}}}},
        ],
    }))
    code, out, _ = run_cli(capsys, "transform", "--config", str(cfg),
                           "--alpha-grid", "0,1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1].split(",")[1] == "1"  # transform at zero
    pi_one = float(lines[2].split(",")[1])
    assert 0.0 < pi_one < 1.0


def test_config_rejects_unknown_tags(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({
        "m": 1, "lambda_circ": [1.0],
        "claims": [{"weibull": {"k": 2.0}}],
        "regimes": [{"drift": {"r": 1.0}}, {"drift": {"r": 1.0}}],
    }))
    code, _, err = run_cli(capsys, "transform", "--config", str(cfg))
    assert code == 2
    assert "claims[0]" in err and "weibull" in err


def test_transform_output_is_deterministic(capsys):
    argv = ["transform", "--config", str(CONFIGS / "fig4.json"),
            "--alpha-grid", "0,0.3,1.7"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


BIG_INT = "1" + "0" * 400  # an integer literal beyond the float range
NON_FINITE = {
    "rate-nan": ('"lambda_circ": [1.0]', '"lambda_circ": [NaN]', ()),
    "mu-inf": ('"mu": 1.0', '"mu": Infinity', ()),
    "mu-minus-inf": ('"mu": 1.0', '"mu": -Infinity', ()),
    "beta-nan": ('"beta": 1.0', '"beta": NaN', ()),
    # literals beyond the float range parse to infinity
    "rate-overflow": ('"lambda_circ": [1.0]', '"lambda_circ": [1e400]', ()),
    "beta-overflow": ('"beta": 1.0', '"beta": 1e400', ()),
    "drift-overflow": ('"r": 1.0', '"r": 1e999', ()),
    "mu-big-int": ('"mu": 1.0', f'"mu": {BIG_INT}', ()),
    "rate-big-int": ('"lambda_circ": [1.0]', f'"lambda_circ": [{BIG_INT}]', ()),
    "beta-big-int": ('"beta": 1.0', f'"beta": {BIG_INT}', ()),
    "ph-atom-big-int": (
        '{"exp": {"mu": 1.0}}',
        f'{{"ph": {{"delta": [1.0], "S": [[-1.0]], "delta_abs": {BIG_INT}}}}}',
        (),
    ),
    "ph-rate-big-int": (
        '{"exp": {"mu": 1.0}}',
        f'{{"ph": {{"delta": [1.0], "S": [[-{BIG_INT}]]}}}}',
        (),
    ),
    "flag-beta-nan": ("", "", ("--beta", "nan")),
    "flag-alpha-inf": ("", "", ("--alpha-grid", "0,inf")),
}


@pytest.mark.parametrize("case", NON_FINITE)
def test_non_finite_input_is_a_config_error(tmp_path, capsys, case):
    old, new, flags = NON_FINITE[case]
    config = M1_TEXT.replace(old, new) if old else M1_TEXT
    assert config != M1_TEXT or flags
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    code, out, err = run_cli(capsys, "transform", "--config", str(cfg), *flags)
    assert code == 2
    assert "config error" in err
    assert "nan" not in out.lower()


def test_closed_stdout_exits_quietly():
    grid = ",".join(f"{i / 1000:g}" for i in range(3000))  # well over a pipe buffer
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.Popen(
        [sys.executable, "-m", "poolruin.cli", "transform",
         "--config", str(CONFIGS / "m1_hand.json"), "--alpha-grid", grid],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"alpha,pi_ladder,pi_overshoot,abs_diff\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 141
    assert err == b""
