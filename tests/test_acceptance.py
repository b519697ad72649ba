"""End-to-end acceptance checks.

Each test exercises one exit criterion at its stated tolerance and runtime
budget and prints one PASS line (visible under ``pytest -s`` or ``-v`` with
``-rP``); the suite doubles as the reproduction harness for the bundled
example configurations.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
from poolruin import (
    claims,
    heavy_tail,
    inversion,
    ladder,
    model,
    overshoot,
    phase_type,
    simulate,
)
from poolruin.cli import main as cli_main
from poolruin.config import load_model

from conftest import random_drift_model

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

ALPHA_GRID = (0.0, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)


def battery(n_models=50, seed=20240):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n_models):
        mdl = random_drift_model(rng, m_max=6)
        beta = (0.5, 1.0, 2.0)[i % 3]
        out.append((mdl, beta))
    return out


BATTERY = battery()


def _report(name, detail):
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def test_criterion_1_three_way_transform_agreement():
    start = time.perf_counter()
    worst = 0.0
    for mdl, beta in BATTERY:
        table = overshoot.OvershootTable(mdl, beta)
        for a in ALPHA_GRID:
            pd = ladder.pi_max(mdl, beta, mdl.m, a)
            dl = abs(pd - table.pi_via_ladders(a))
            dc = abs(pd - table.pi_explicit_chains(a))
            worst = max(worst, dl, dc)
            assert dl < 1e-10 and dc < 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(1, f"50 models x 8 alphas, worst diff {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_general_recursion_degenerates_to_drift():
    worst = 0.0
    for mdl, beta in BATTERY:
        spec = ladder.generic_spec_from_drift(mdl, beta, mdl.m)
        for a in ALPHA_GRID:
            diff = abs(
                ladder.pi_generic(spec, a) - ladder.pi_max(mdl, beta, mdl.m, a)
            )
            worst = max(worst, diff)
            assert diff <= 1e-12
    _report(2, f"worst diff {worst:.2e}")


def test_criterion_3_phase_type_oracle():
    start = time.perf_counter()
    mdl, beta = load_model(CONFIGS / "fig4.json")
    ph = phase_type.running_max_ph(mdl, beta, mdl.m)
    worst_lst = max(
        abs(phase_type.ph_lst(ph, a) - ladder.pi_max(mdl, beta, mdl.m, a))
        for a in ALPHA_GRID
    )
    assert worst_lst < 1e-10
    u_grid = (1.0, 5.0, 10.0)
    curve = inversion.ruin_curve(mdl, beta, u_grid)
    worst_u = max(
        abs(p - phase_type.ph_tail(ph, u)) for u, p in zip(u_grid, curve)
    )
    assert worst_u < 1e-4
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(3, f"transform diff {worst_lst:.2e}, curve diff {worst_u:.2e}")


def test_criterion_4_monte_carlo_moments_and_brownian_lift():
    start = time.perf_counter()
    drift_mdl, _ = load_model(CONFIGS / "fig2.json")
    bm_mdl, _ = load_model(CONFIGS / "fig3.json")
    t_grid = (1.0, 5.0, 10.0)
    mean_d, var_d = inversion.moment_curves(drift_mdl, t_grid)
    mean_b, var_b = inversion.moment_curves(bm_mdl, t_grid)
    for i, t in enumerate(t_grid):
        for mdl, mean, var in (
            (drift_mdl, mean_d[i], var_d[i]),
            (bm_mdl, mean_b[i], var_b[i]),
        ):
            sim = simulate.simulate_paths(
                mdl, 0.0, horizon_t=t, n_paths=100_000, seed=300 + i
            )
            assert abs(mean - sim.mean_max) < 3 * sim.se_mean_max
            assert abs(var - sim.var_max) < 3 * sim.se_var_max
        # the added Brownian term lifts both moments at every horizon
        assert mean_b[i] > mean_d[i]
        assert var_b[i] > var_d[i]
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(4, f"3 horizons x 2 models within 3 s.e., {elapsed:.1f}s")


def test_criterion_5_regular_variation_asymptote():
    mdl, beta = load_model(CONFIGS / "fig5.json")
    assert beta == 0.0
    approx = heavy_tail.rv_tail_approx(mdl, beta, 100.0)
    sim = simulate.simulate_paths(
        mdl, 0.0, u_queries=(100.0,), n_paths=20_000, seed=0
    )
    ratio = sim.ruin[100.0][0] / approx
    assert 0.8 <= ratio <= 1.2
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 7))
        lam = tuple(rng.uniform(0.1, 5.0, m))
        rv_mdl = model.ModelSpec(
            m=m,
            lambda_circ=lam,
            claims=(claims.Lomax(1.0, 1.5),) * m,
            regimes=(model.drift(1.0),) * (m + 1),
        )
        b = float(rng.uniform(0.0, 3.0))
        theta = rv_mdl.claims[0].rv_meta.theta
        diff = abs(
            heavy_tail.phi_coefficient(rv_mdl, b, m)
            - theta * heavy_tail.expected_claims(rv_mdl, b)
        )
        worst = max(worst, diff)
        assert diff <= 1e-12 * max(1.0, theta * m)
    _report(5, f"MC/asymptote ratio {ratio:.3f}, identity diff {worst:.2e}")


def test_criterion_6_spectral_tail():
    start = time.perf_counter()
    checked = []
    for claim, d1 in ((claims.Exponential(1.0), 1), (claims.Erlang(2, 1.0), 2)):
        for m in (1, 2, 3):
            mdl = model.ModelSpec(
                m=m,
                lambda_circ=tuple(float(k) for k in range(1, m + 1)),
                claims=(claim,) * m,
                regimes=(model.drift(1.0),) * (m + 1),
            )
            ph = phase_type.running_max_ph(mdl, 1.0, m)
            spec = phase_type.spectral_tail(ph)
            assert spec.mult == m * d1
            # ratio against the exact coefficient stabilizes within 1%:
            # one Richardson step over a geometric pair removes the 1/u term
            def ratio(u):
                psi_u = math.exp(-spec.mu * u) * u ** (spec.mult - 1)
                return phase_type.ph_tail(ph, u) / (spec.coeff * psi_u)

            q = 1.25
            for u in (240.0, 400.0):
                corrected = (q * ratio(q * u) - ratio(u)) / (q - 1.0)
                assert abs(corrected - 1.0) < 0.01
            checked.append((claim.kind, m, spec.mult))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(6, f"multiplicities {checked}, {elapsed:.1f}s")


def test_criterion_7_inversion_self_tests_and_atom_consistency():
    assert len(inversion.default_plan()) == 14
    assert abs(inversion.invert(lambda s: 1.0 / s, 1.0) - 1.0) < 1e-8
    assert (
        abs(inversion.invert(lambda s: 1.0 / (s + 1.0), 1.0) - math.exp(-1.0))
        < 1e-6
    )
    assert abs(inversion.invert(lambda s: 1.0 / s**2, 3.0) - 3.0) < 3e-6
    worst_norm = 0.0
    worst_atom = 0.0
    for mdl, beta in BATTERY:
        worst_norm = max(
            worst_norm, abs(ladder.pi_max(mdl, beta, mdl.m, 0.0) - 1.0)
        )
        spec = ladder.generic_spec_from_drift(mdl, beta, mdl.m)
        atom = ladder.atom_at_zero(spec, mdl.m)
        tail_val = ladder.pi_max(mdl, beta, mdl.m, 1e8)
        worst_atom = max(worst_atom, abs(atom - tail_val))
    assert worst_norm <= 1e-12
    assert worst_atom <= 1e-6
    _report(7, f"norm diff {worst_norm:.2e}, atom diff {worst_atom:.2e}")


def test_criterion_8_simulation_reproducibility(capsys, tmp_path):
    argv = [
        "simulate",
        "--config",
        str(CONFIGS / "m1_hand.json"),
        "--paths",
        "20000",
        "--seed",
        "11",
        "--u",
        "0.5",
        "--u",
        "2.0",
        "--alpha",
        "1.0",
    ]
    outs = []
    for workers in ("1", "1", "8"):
        code = cli_main(argv + ["--workers", workers])
        assert code == 0
        outs.append(capsys.readouterr().out.encode())
    assert outs[0] == outs[1] == outs[2]
    doc = json.loads(outs[0])
    est, se = doc["estimates"]["lst"]["1.0"], doc["stderr"]["lst"]["1.0"]
    assert abs(est - 5.0 / 6.0) < 4 * se
    with capsys.disabled():
        _report(8, "byte-identical across reruns and 1 vs 8 workers")


def test_figure_script_writes_the_four_tables(monkeypatch, capsys, tmp_path):
    # scripts/make_figure_tables.py end to end: each table's header and rows,
    # finite inverted and reference values, and moment tables byte-identical
    # to the CLI on the same grid
    import importlib.util
    import sys

    path = CONFIGS.parent / "scripts" / "make_figure_tables.py"
    spec = importlib.util.spec_from_file_location("make_figure_tables", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", [str(path), "--out", str(tmp_path), "--mc-paths", "2000"])
    script.main()
    assert capsys.readouterr().out == f"wrote tables to {tmp_path}/\n"

    ruin_header = "u,p_inverted,p_exact_ph,p_asymptote,p_montecarlo,mc_stderr"
    tables = {
        "fig2_moments": ("t,mean,var", 40, (1, 2)),
        "fig3_moments": ("t,mean,var", 40, (1, 2)),
        "fig4_ruin": (ruin_header, 10, (1, 2, 4)),  # inverted, exact, Monte Carlo
        "fig5_ruin": (ruin_header, 8, (1, 3, 4)),  # inverted, asymptote, Monte Carlo
    }
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"{n}.csv" for n in tables)
    for name, (header, n_rows, finite_cols) in tables.items():
        lines = (tmp_path / f"{name}.csv").read_text().splitlines()
        assert lines[0] == header, name
        assert len(lines) == 1 + n_rows, name
        for line in lines[1:]:
            cells = line.split(",")
            assert all(math.isfinite(float(cells[i])) for i in finite_cols), (name, line)

    t_grid = ",".join(str(x / 2) for x in range(1, 41))
    for fig in ("fig2", "fig3"):
        code = cli_main(["curves", "--config", str(CONFIGS / f"{fig}.json"),
                         "--mode", "moments", "--t-grid", t_grid])
        assert code == 0
        assert capsys.readouterr().out.encode() == (tmp_path / f"{fig}_moments.csv").read_bytes()
