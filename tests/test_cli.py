import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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


def test_beta_zero_off_the_drift_model_is_a_config_error(capsys):
    # the killing-rate rule, checked before any route: every command that
    # needs the infinite horizon refuses it with one message
    fig3 = str(CONFIGS / "fig3.json")
    runs = [
        run_cli(capsys, *command, "--config", fig3, "--beta", "0")
        for command in (
            ("transform",),
            ("curves", "--mode", "ruin"),
            ("simulate", "--paths", "1000"),
        )
    ]
    assert [(code, out) for code, out, _ in runs] == [(2, "")] * 3
    assert len({err for _, _, err in runs}) == 1
    assert runs[0][2].startswith("config error: the running maximum at beta = 0 ")
    # over a fixed horizon beta = 0 needs no drift model
    code, out, _ = run_cli(
        capsys, "simulate", "--config", fig3, "--beta", "0", "--paths", "1000",
        "--horizon", "2",
    )
    assert code == 0 and json.loads(out)["beta"] == 0.0


def _write_pool(tmp_path, claim):
    cfg = tmp_path / "pool.json"
    cfg.write_text(
        json.dumps(
            {
                "m": 2,
                "lambda_circ": [1, 1],
                "beta": 1,
                "claims": [claim, claim],
                "regimes": [{"drift": {"r": r}} for r in (0, 1, 2)],
            }
        )
    )
    return str(cfg)


def test_moment_overflow_exit_code(tmp_path, capsys):
    cfg = _write_pool(tmp_path, {"exp": {"mu": 1e-300}})
    code, out, err = run_cli(capsys, "curves", "--config", cfg, "--mode", "moments")
    assert code == 3, err
    assert out == ""
    assert "numerical failure" in err and "t = 1.0, node beta = " in err


@pytest.mark.parametrize("mu", [1e-15, 1e-300])
def test_exact_column_for_slow_claims(tmp_path, capsys, mu):
    cfg = _write_pool(tmp_path, {"exp": {"mu": mu}})
    code, out, err = run_cli(capsys, "curves", "--config", cfg, "--mode", "ruin")
    assert code == 0, err
    for line in out.strip().splitlines()[1:]:
        exact = float(line.split(",")[2])
        assert 0.0 <= exact <= 1.0


def test_exact_column_left_empty_above_the_dense_bound(tmp_path, capsys):
    # an Erlang law of 10^6 phases has no dense phase-type matrix to build
    cfg = _write_pool(tmp_path, {"erlang": {"k": 10**6, "mu": 1.0}})
    code, out, err = run_cli(capsys, "curves", "--config", cfg, "--mode", "ruin")
    assert code == 0, err
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) == 3
    assert all(row[1] != "" and row[2] == "" for row in rows)


@pytest.mark.parametrize(
    "command", [("transform",), ("curves", "--mode", "ruin"), ("curves", "--mode", "moments")]
)
def test_lomax_overflow_exit_code(tmp_path, capsys, command):
    cfg = _write_pool(tmp_path, {"lomax": {"c": 1e300, "eps": 1.5}})
    code, out, err = run_cli(capsys, command[0], "--config", cfg, *command[1:])
    assert code == 3, err
    assert out == ""
    assert "numerical failure: Lomax(c=1e+300, eps=1.5) transform at alpha = " in err


def test_brownian_pool_at_a_vanishing_killing_rate(tmp_path, capsys):
    # psi(beta) is about beta / r here: the cancelling root form gave 0.0
    # and a division by zero
    bm = {"bm": {"r": 0.9, "sigma2": 0.9}}
    cfg = tmp_path / "bm.json"
    cfg.write_text(
        json.dumps(
            {
                "m": 1,
                "lambda_circ": [1.0],
                "beta": 1.2e-38,
                "claims": [{"exp": {"mu": 1.0}}],
                "regimes": [bm, bm],
            }
        )
    )
    code, out, err = run_cli(capsys, "transform", "--config", str(cfg))
    assert code == 0, err
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) == 6
    assert all(math.isfinite(float(row[1])) for row in rows)


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


def test_curves_ruin_at_zero_reserve(capsys):
    # u = 0 takes the engine's atom, with no inversion
    code, out, _ = run_cli(
        capsys, "curves", "--config", str(CONFIGS / "fig2.json"),
        "--mode", "ruin", "--u-grid", "0,1",
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [row[0] for row in rows] == ["0", "1"]
    assert rows[0][1] == rows[0][2]  # the exact phase-type value, to 12 digits


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


MIXED_CLAIMS = """{
  "m": 2, "lambda_circ": [1.0, 2.0], "beta": 1.0,
  "claims": [{"exp": {"mu": 1.0}}, {"erlang": {"k": 2, "mu": 3.0}}],
  "regimes": [{"drift": {"r": 0.0}}, {"drift": {"r": 1.0}}, {"drift": {"r": 2.0}}]
}"""


def test_curves_exact_column_for_per_client_laws(tmp_path, capsys):
    cfg = tmp_path / "mixed.json"
    cfg.write_text(MIXED_CLAIMS)
    code, out, _ = run_cli(
        capsys, "curves", "--config", str(cfg), "--mode", "ruin", "--u-grid", "1,3"
    )
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        u, inv, ph = line.split(",")[:3]
        assert abs(float(inv) - float(ph)) < 1e-4


@pytest.mark.parametrize("bad", [math.nan, 1.5])
@pytest.mark.parametrize(
    "argv",
    [
        ("transform", "--alpha-grid", "0,0.5"),
        ("curves", "--mode", "ruin", "--u-grid", "1"),
    ],
    ids=["transform", "curves"],
)
def test_values_outside_the_unit_interval_fail_loudly(monkeypatch, capsys, argv, bad):
    from poolruin import ladder

    monkeypatch.setattr(ladder._Recursion, "value", lambda self, alpha: bad)
    code, out, err = run_cli(capsys, *argv[:1], "--config", str(CONFIGS / "fig4.json"), *argv[1:])
    assert code == 3
    assert "alpha = " in err and repr(bad) in err
    # the failing row is never written
    assert len(out.strip().splitlines()) <= 1


KEPT = b"kept,bytes\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("curves", "--mode", "moments", "--t-grid", "1,x"),
        ("curves", "--mode", "ruin", "--beta", "-1"),
        ("transform", "--alpha-grid", "1,x"),
    ],
    ids=["moments-grid", "ruin-beta", "transform-grid"],
)
def test_a_config_error_leaves_the_out_file_as_it_was(tmp_path, capsys, argv):
    out = tmp_path / "existing.csv"
    out.write_bytes(KEPT)
    code, stdout, err = run_cli(
        capsys, argv[0], "--config", str(CONFIGS / "fig2.json"), *argv[1:], "--out", str(out)
    )
    assert code == 2, err
    assert stdout == ""
    assert out.read_bytes() == KEPT


def test_a_non_finite_moment_writes_no_row(monkeypatch, tmp_path, capsys):
    # the second time's moment is NaN: the first row is not printed either,
    # and an existing --out file keeps its bytes
    from poolruin import inversion

    def moment_curves(model, t_values):
        return [0.5] + [math.nan] * (len(t_values) - 1), [0.1] * len(t_values)

    monkeypatch.setattr(inversion, "moment_curves", moment_curves)
    argv = ("curves", "--config", str(CONFIGS / "fig2.json"), "--mode", "moments",
            "--t-grid", "1,2")
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 3 and "t = 2.0" in err
    assert stdout == ""
    out = tmp_path / "existing.csv"
    out.write_bytes(KEPT)
    code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
    assert code == 3 and stdout == ""
    assert out.read_bytes() == KEPT


@pytest.mark.parametrize(
    "argv",
    [
        ("curves", "--mode", "moments", "--t-grid", "1,2"),
        ("curves", "--mode", "ruin", "--u-grid", "1,5"),
        ("transform", "--alpha-grid", "0,1"),
    ],
    ids=["moments", "ruin", "transform"],
)
def test_out_file_holds_the_printed_table(tmp_path, capsys, argv):
    cfg = str(CONFIGS / "m1_hand.json")
    code, printed, _ = run_cli(capsys, argv[0], "--config", cfg, *argv[1:])
    assert code == 0
    out = tmp_path / "table.csv"
    out.write_bytes(KEPT)
    code, stdout, _ = run_cli(capsys, argv[0], "--config", cfg, *argv[1:], "--out", str(out))
    assert code == 0 and stdout == ""
    assert out.read_bytes() == printed.encode()


@pytest.mark.parametrize("column", ["pi_ladder", "pi_overshoot"])
def test_transform_rising_in_alpha_fails_loudly(monkeypatch, capsys, column):
    # a transform E exp(-alpha M) cannot rise with alpha; the grid is
    # unsorted, and the column is checked in the order of alpha
    from poolruin import ladder, overshoot

    def rising(self, alpha):
        return 0.5 + 0.01 * alpha

    if column == "pi_ladder":
        monkeypatch.setattr(ladder._Recursion, "value", rising)
    else:
        monkeypatch.setattr(overshoot.OvershootTable, "pi_via_ladders", rising)
    code, out, err = run_cli(
        capsys, "transform", "--config", str(CONFIGS / "m1_hand.json"),
        "--alpha-grid", "0.5,0,1",
    )
    assert code == 3
    assert out == ""
    assert column in err and "alpha = 0.0" in err and "alpha = 0.5" in err


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


@pytest.mark.parametrize(
    "flags, name",
    [
        (("--alpha", "-60", "--alpha", "-1"), "alpha must be nonnegative"),
        (("--seed", "-1"), "seed"),
        (("--workers", "0"), "n_workers"),
        (("--paths", "0"), "n_paths"),
    ],
)
def test_simulate_bad_arguments_exit_2(capsys, flags, name):
    code, out, err = run_cli(
        capsys, "simulate", "--config", str(CONFIGS / "fig2.json"), "--paths", "100",
        *flags,
    )
    assert code == 2 and out == ""
    assert err.startswith("config error:") and name in err


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


def test_simulate_writes_an_infinite_estimate_as_null(tmp_path, capsys):
    # so heavy a tail overflows the fourth power sum: the variance's
    # standard error is inf, which JSON cannot hold
    cfg = _write_pool(tmp_path, {"lomax": {"c": 1, "eps": 0.05}})
    code, out, err = run_cli(
        capsys, "simulate", "--config", cfg, "--paths", "20000", "--seed", "0", "--u", "1"
    )
    assert code == 0, err

    def refuse(constant):
        raise ValueError(f"{constant} in the JSON output")

    doc = json.loads(out, parse_constant=refuse)
    assert doc["stderr"]["var_max"] is None
    assert math.isfinite(doc["estimates"]["var_max"])
    assert err == "warning: stderr.var_max is inf, written as null\n"


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


def test_negative_drift_transforms_as_its_subordinator_spelling(tmp_path, capsys):
    client = '{"drift": {"r": 1.0}}]'  # the regime at the client state
    outs = []
    for spelling in ('{"drift": {"r": -0.4}}', '{"sub": {"r": -0.4}}'):
        config = M1_TEXT.replace(client, spelling + "]")
        assert config != M1_TEXT
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        code, out, _ = run_cli(capsys, "transform", "--config", str(cfg))
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert outs[0].count("\n") > 1


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
    # JSON booleans are not numbers or counts
    "m-bool": ('"m": 1', '"m": true', ()),
    "rate-bool": ('"lambda_circ": [1.0]', '"lambda_circ": [true]', ()),
    "erlang-k-bool": ('{"exp": {"mu": 1.0}}', '{"erlang": {"k": true, "mu": 1.0}}', ()),
    "flag-beta-nan": ("", "", ("--beta", "nan")),
    "flag-alpha-inf": ("", "", ("--alpha-grid", "0,inf")),
    # simulate flags: the command leads
    "sim-alpha-inf": ("", "", ("simulate", "--paths", "1000", "--alpha", "inf")),
    "sim-alpha-nan": ("", "", ("simulate", "--paths", "1000", "--alpha", "nan")),
    "sim-u-nan": ("", "", ("simulate", "--paths", "1000", "--u", "nan")),
    "sim-horizon-nan": ("", "", ("simulate", "--paths", "1000", "--horizon", "nan")),
}


@pytest.mark.parametrize("case", NON_FINITE)
def test_non_finite_input_is_a_config_error(tmp_path, capsys, case):
    old, new, flags = NON_FINITE[case]
    config = M1_TEXT.replace(old, new) if old else M1_TEXT
    assert config != M1_TEXT or flags
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    command, *flags = flags if flags[:1] == ("simulate",) else ("transform", *flags)
    code, out, err = run_cli(capsys, command, "--config", str(cfg), *flags)
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


def test_import_leaves_scipy_for_first_use():
    # scipy.integrate (Lomax quadrature) and scipy.linalg (phase-type
    # algebra) load when first used, not with the CLI
    probe = (
        "import sys, poolruin.cli\n"
        "from poolruin import claims\n"
        "lazy = ('scipy.integrate', 'scipy.linalg')\n"
        "print([m for m in lazy if m in sys.modules])\n"
        "claims.integrate.quad\n"
        "print('scipy.integrate' in sys.modules)\n"
    )
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True"]


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


_CLAIM_SPECS = st.one_of(
    st.builds(lambda mu: {"exp": {"mu": mu}}, _floats(0.05, 5.0)),
    st.builds(lambda k, mu: {"erlang": {"k": k, "mu": mu}}, st.integers(1, 4), _floats(0.05, 5.0)),
    st.builds(
        lambda p, a, b, c: {"ph": {"delta": [p, 1.0 - p], "S": [[-a, b * a], [0.0, -c]]}},
        _floats(0.0, 1.0), _floats(0.1, 5.0), _floats(0.0, 1.0), _floats(0.1, 5.0),
    ),
    st.builds(lambda c, eps: {"lomax": {"c": c, "eps": eps}}, _floats(0.1, 3.0), _floats(0.5, 4.0)),
    st.builds(lambda b: {"point": {"b": b}}, _floats(0.0, 3.0)),
)
_REGIME_SPECS = st.one_of(
    st.builds(lambda r: {"drift": {"r": r}}, _floats(-2.0, 3.0)),
    st.builds(lambda r, s2: {"bm": {"r": r, "sigma2": s2}}, _floats(-2.0, 3.0), _floats(0.01, 2.0)),
    st.builds(
        lambda r, s2, rate, jump: {"cp": {"r": r, "sigma2": s2, "rate": rate, "jump": jump}},
        _floats(-2.0, 3.0), _floats(0.0, 2.0), _floats(0.0, 3.0), _CLAIM_SPECS,
    ),
    st.builds(
        lambda r, rate, jump: {"sub": {"r": r, "rate": rate, "jump": jump}},
        _floats(-2.0, 0.0), _floats(0.0, 3.0), _CLAIM_SPECS,
    ),
)


@st.composite
def _configs(draw):
    m = draw(st.integers(0, 2))
    doc = {
        "m": m,
        "lambda_circ": draw(st.lists(_floats(0.1, 5.0), min_size=m, max_size=m)),
        "claims": draw(st.lists(_CLAIM_SPECS, min_size=m, max_size=m)),
        "regimes": draw(st.lists(_REGIME_SPECS, min_size=m + 1, max_size=m + 1)),
    }
    beta = draw(st.none() | _floats(0.0, 5.0))
    if beta is not None:
        doc["beta"] = beta
    return doc


_FUZZ_COMMANDS = (
    ("transform",),
    ("curves", "--mode", "moments"),
    ("curves", "--mode", "ruin", "--u-grid", "1,5"),
)


def _respelled(doc):
    """``doc`` with every regime that has a second spelling written the other
    way: drift {r <= 0} <-> sub {r}, and cp {sigma2: 0, r <= 0} <-> sub."""

    def twin(node):
        [(tag, body)] = node.items()
        if tag == "drift" and body["r"] <= 0:
            return {"sub": {"r": body["r"]}}
        if tag == "cp" and body["sigma2"] == 0 and body["r"] <= 0 and body["rate"] > 0:
            return {"sub": {k: body[k] for k in ("r", "rate", "jump")}}
        if tag == "sub" and body["rate"] > 0:
            return {"cp": dict(body, sigma2=0.0)}
        if tag == "sub":
            return {"drift": {"r": body["r"]}}
        return node

    return dict(doc, regimes=[twin(node) for node in doc["regimes"]])


def _run_doc(tmp_path_factory, doc, command):
    import contextlib
    import io

    cfg = tmp_path_factory.mktemp("fuzz") / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command[0], "--config", str(cfg), *command[1:]])
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, deadline=None, max_examples=40)
@given(doc=_configs(), command=st.sampled_from(_FUZZ_COMMANDS))
def test_fuzzed_configs_exit_cleanly(tmp_path_factory, doc, command):
    # any model the config grammar admits either prints finite numbers or
    # fails with a config or numerical error, never with a traceback; and a
    # model computes the same however its regimes are spelled
    code, out, err = _run_doc(tmp_path_factory, doc, command)
    assert code in (0, 2, 3, 141), err
    if code == 0:
        text = out.lower()
        assert "nan" not in text and "inf" not in text, text
    twin = _respelled(doc)
    if twin != doc:
        assert _run_doc(tmp_path_factory, twin, command)[:2] == (code, out)


@pytest.mark.parametrize(
    "command",
    [
        ("transform",),
        ("transform", "--beta", "0"),
        ("curves", "--mode", "ruin"),
        ("curves", "--mode", "moments"),
        ("simulate", "--beta", "0", "--paths", "2000"),
    ],
    ids=["transform", "transform-beta0", "ruin", "moments", "simulate-beta0"],
)
def test_flat_state_zero_spellings_agree(tmp_path_factory, command):
    doc = json.loads(M1_TEXT)
    runs = []
    for flat in ({"drift": {"r": 0}}, {"sub": {"r": 0}}):
        doc["regimes"][0] = flat
        runs.append(_run_doc(tmp_path_factory, doc, command))
    assert runs[0][0] == 0, runs[0][2]
    assert runs[0][:2] == runs[1][:2]
