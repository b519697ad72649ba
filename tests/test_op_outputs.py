import dataclasses
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from conftest import cold

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "op_outputs.py"


def _op_outputs():
    spec = importlib.util.spec_from_file_location("op_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


OUTPUTS = {
    "figure_curves/fig2.ruin.u5": "0.25",
    "figure_curves/fig2.moments.t1": "(0.5, 0.125)",
    "deep/drift.m30.spread": "0.145",
    "small_rates/pi_jet.n2": "(1.0, -0.3, 0.6)",
    "cli/transform fig2": "exit 0 md5 aa",
    "simulate/fig2.w1": "{'se_var_max': 0.25, 'overshoot_mean': {1.0: (0.5, 0.01, 900)}}",
    "overshoot/m1_hand.b1.0/zeta.a1.0": "(0.16666666666666666,)",
}


def _compare(tmp_path, capsys, after: dict):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"seed": 7, "outputs": OUTPUTS}))
    b.write_text(json.dumps({"seed": 7, "outputs": {**OUTPUTS, **after}}))
    code = _op_outputs().compare(str(a), str(b))
    return code, capsys.readouterr().out.splitlines()


def test_identical_records_read_zero_moved(tmp_path, capsys):
    code, lines = _compare(tmp_path, capsys, {})
    assert code == 0
    assert lines == [
        "0 of 7 outputs differ",
        "cli: 0 of 1 moved",
        "deep: 0 of 1 moved",
        "figure_curves: 0 of 2 moved",
        "overshoot: 0 of 1 moved",
        "simulate: 0 of 1 moved",
        "small_rates: 0 of 1 moved",
    ]


def test_each_group_names_its_worst_move(tmp_path, capsys):
    after = {
        "figure_curves/fig2.ruin.u5": "0.2500001",
        "figure_curves/fig2.moments.t1": "(0.5, 0.126)",
        "cli/transform fig2": "exit 0 md5 bb",
        # a moved overshoot sum moves the summary
        "simulate/fig2.w1": "{'se_var_max': 0.25, 'overshoot_mean': {1.0: (0.5000000000000001, 0.01, 900)}}",
        "overshoot/m1_hand.b1.0/zeta.a1.0": "(0.1666666666666667,)",
    }
    code, lines = _compare(tmp_path, capsys, after)
    assert code == 1
    assert "5 of 7 outputs differ" in lines
    assert (
        "overshoot: 1 of 1 moved, worst rel 3.3e-16 at overshoot/m1_hand.b1.0/zeta.a1.0"
        in lines
    )
    assert (
        "figure_curves: 2 of 2 moved, worst rel 0.008 at figure_curves/fig2.moments.t1"
        in lines
    )
    assert "cli: 1 of 1 moved, worst rel not numeric at cli/transform fig2" in lines
    assert "deep: 0 of 1 moved" in lines
    assert "simulate: 1 of 1 moved, worst rel not numeric at simulate/fig2.w1" in lines


def test_closed_stdout_exits_quietly(tmp_path):
    # a comparison that prints well over a pipe buffer, read one line at a
    # time and then closed, as ``| head`` does
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    keys = [f"deep/point{i}" for i in range(5000)]
    a.write_text(json.dumps({"seed": 7, "outputs": {k: "0.25" for k in keys}}))
    b.write_text(json.dumps({"seed": 7, "outputs": {k: "0.5" for k in keys}}))
    proc = subprocess.Popen(
        [sys.executable, str(SCRIPT), "--compare", str(a), str(b)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"deep/point0\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 141
    assert err == b""


def test_trace_group_holds_every_path(monkeypatch):
    from poolruin.simulate import PathResult

    module = _op_outputs()
    root = SCRIPT.parent.parent
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    out = module.trace_outputs(root, 7)
    assert sorted(out) == ["trace/cp", "trace/fig4"]
    for text in out.values():
        paths = eval(text, {"PathResult": PathResult, "nan": float("nan")})
        assert len(paths) == module.TRACE_PATHS
        for p in paths:
            assert len(p.ruin_level_hit) == len(module.TRACE_LEVELS)
            assert p.ruin_level_hit[0]  # every path crosses the level below zero
            assert p.ruin_level_hit[2] == p.ruin_level_hit[3]  # the repeated level
            assert repr(p.overshoot[2]) == repr(p.overshoot[3])


def test_simulate_group_holds_every_summary(monkeypatch):
    from poolruin.simulate import SimulationSummary

    module = _op_outputs()
    root = SCRIPT.parent.parent
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    out = module.simulate_outputs(root, 7)
    names = ("fig2", "fig3", "fig4", "fig5", "cp", "cpbm", "sub")
    keys = [f"simulate/{n}.w{w}" for n in names for w in (1, 2)] + ["simulate/cp.horizon"]
    assert sorted(out) == sorted(keys)
    for n in names:
        assert out[f"simulate/{n}.w1"] == out[f"simulate/{n}.w2"]
    fields = {f.name for f in dataclasses.fields(SimulationSummary)}
    for key, text in out.items():
        summary = eval(text, {"np": np, "nan": float("nan"), "inf": float("inf")})
        assert set(summary) == fields
        assert summary["n_paths"] == module.SIM_PATHS
        assert sorted(summary["ruin"]) == sorted(set(module.TRACE_LEVELS))
        assert sorted(summary["lst"]) == sorted(module.SIM_ALPHAS)
        # arrays written out in full, not as numpy's rounded repr
        assert isinstance(summary["claims_count_freq"], list)
        assert all(isinstance(v, list) for v in summary["n_at_ruin_freq"].values())
        assert summary["overshoot_mean"]
        assert summary["horizon_t"] == (module.SIM_HORIZON_T if key.endswith("horizon") else None)


def test_overshoot_group_holds_every_route_value():
    from poolruin import overshoot
    from poolruin.config import load_model

    module = _op_outputs()
    root = SCRIPT.parent.parent
    out = module.overshoot_outputs(root)
    assert all(key.startswith("overshoot/") for key in out)
    for name in module.OVERSHOOT_CONFIGS:
        mdl, own = load_model(root / "configs" / f"{name}.json")
        m = mdl.m
        for beta in {own, 0.0}:
            key = f"overshoot/{name}.b{beta!r}"
            ours = sorted(k for k in out if k.startswith(key + "/"))
            zetas = [k for k in ours if "/zeta." in k]
            xis = [k for k in ours if "/xi." in k]
            # fig5's first ladder rate is one of the alphas, and fig2 at
            # beta = 0 has one ladder rate, 0.25, at every level
            table = overshoot.OvershootTable(mdl, beta)
            assert len(zetas) == len({*module.OVERSHOOT_ALPHAS, table.nu(1)})
            rates = {table.nu(n) for n in range(2, m + 1)}
            assert len(xis) == 2 * len(rates) * len(module.XI_ALPHAS)
            assert len(ours) == len(zetas) + len(xis) + 1
            for k in ours:
                values = eval(out[k])
                size = m + 1 if k.endswith("survive_zero") else m * (m + 1) // 2
                assert len(values) == size and all(isinstance(v, float) for v in values)
            # the record holds the table's own values
            assert eval(out[f"{key}/zeta.a1.0"])[-1] == table.zeta(m, m - 1, 1.0)
            assert eval(out[f"{key}/survive_zero"])[-1] == table.survive_zero(m)
            for k in xis[:2]:
                alpha, gamma = (float(v) for v in k.split("/xi.a")[1].split(".g"))
                assert eval(out[k])[-1] == table.xi(m, m - 1, alpha, gamma)


def test_phase_type_group_holds_every_law_value():
    from poolruin import phase_type
    from poolruin.config import load_model

    module = _op_outputs()
    root = SCRIPT.parent.parent
    out = module.phase_type_outputs(root)
    assert all(key.startswith("phase_type/") for key in out)
    # fig5's Lomax claims have no phase-type law: the refusal is the output
    assert out["phase_type/fig5.b0.0"] == (
        "raised NotPhaseType: claim kind 'lomax' has no phase-type representation"
    )
    fields = ["S", "delta", "delta_abs"]
    fields += [f"lst.a{a!r}" for a in module.OVERSHOOT_ALPHAS]
    fields += [f"{kind}.u{u!r}" for u in module.PH_TAIL_U for kind in ("tail", "density")]
    fields += [f"spectral_tail.{f}" for f in ("mu", "mult", "coeff", "laurent")]
    prefix = ["S", "delta", "delta_abs", *(f"lst.a{a!r}" for a in module.OVERSHOOT_ALPHAS)]
    for name in ("fig2", "fig4", "m1_hand"):
        mdl, own = load_model(root / "configs" / f"{name}.json")
        for beta in {own, 0.0}:
            key = f"phase_type/{name}.b{beta!r}"
            ours = sorted(k[len(key) + 1:] for k in out if k.startswith(key + "/"))
            laws = [f"n{n}/{f}" for n in range(mdl.m) for f in prefix]
            assert ours == sorted(fields + laws)
            # each law below n = m, as a fresh model object builds it first
            for n in range(mdl.m):
                part = phase_type.running_max_ph(cold(mdl), beta, n)
                assert out[f"{key}/n{n}/S"] == repr(tuple(part.S.ravel().tolist()))
                assert out[f"{key}/n{n}/delta"] == repr(tuple(part.delta.tolist()))
                assert out[f"{key}/n{n}/lst.a0.5"] == repr(phase_type.ph_lst(part, 0.5))
            law = phase_type.running_max_ph(mdl, beta, mdl.m)
            assert eval(out[f"{key}/delta"]) == tuple(law.delta)
            assert eval(out[f"{key}/S"]) == tuple(law.S.ravel())
            assert eval(out[f"{key}/delta_abs"]) == law.delta_abs
            assert eval(out[f"{key}/lst.a1.0"]) == phase_type.ph_lst(law, 1.0)
            assert eval(out[f"{key}/tail.u5.0"]) == phase_type.ph_tail(law, 5.0)
            assert eval(out[f"{key}/density.u5.0"]) == phase_type.ph_density(law, 5.0)
            tail = phase_type.spectral_tail(law)
            assert eval(out[f"{key}/spectral_tail.laurent"]) == tail.laurent
            assert eval(out[f"{key}/spectral_tail.coeff"]) == tail.coeff
    # every evaluator on each held law
    held = module.held_laws()
    assert sorted(held) == ["convolved", "point_mass", "unreached"]
    fields = ["S", "delta", "delta_abs", "lst_complex", "lst_complement_complex", "abscissa"]
    fields += ["lst_series", "mean", "second_moment", "sample"]
    kinds = ("lst", "lst_complement")
    fields += [f"{kind}.a{a!r}" for a in module.OVERSHOOT_ALPHAS for kind in kinds]
    fields += [f"{kind}.u{u!r}" for u in (0.0, *module.PH_TAIL_U) for kind in ("tail", "density")]
    fields += [f"spectral_tail.{f}" for f in ("mu", "mult", "coeff", "laurent")]
    for name, law in held.items():
        key = f"phase_type/held.{name}"
        ours = sorted(k[len(key) + 1:] for k in out if k.startswith(key + "/"))
        assert ours == sorted(fields)
        assert eval(out[f"{key}/delta_abs"]) == law.delta_abs
        assert eval(out[f"{key}/lst_complement.a0.5"]) == phase_type.ph_lst_complement(law, 0.5)
        assert eval(out[f"{key}/density.u1.0"]) == phase_type.ph_density(law, 1.0)
        nodes = np.array(module.PH_NODES)
        assert eval(out[f"{key}/lst_complex"]) == tuple(phase_type.ph_lst_complex(law, nodes))
    assert out["phase_type/held.point_mass/abscissa"] == "inf"
    assert out["phase_type/held.point_mass/spectral_tail.mu"] == (
        "raised ValueError: the point mass at zero has no tail"
    )
    assert eval(out["phase_type/held.unreached/spectral_tail.laurent"]) == (1.0,)
    assert eval(out["phase_type/held.convolved/delta_abs"]) == 0.0
    assert len(eval(out["phase_type/held.convolved/delta"])) == 3


def test_generic_group_holds_every_spec_value():
    from poolruin import ladder
    from poolruin.config import load_model

    module = _op_outputs()
    root = SCRIPT.parent.parent
    out = module.generic_outputs(root)
    assert all(key.startswith("generic/") for key in out)
    assert not any(value.startswith("raised") for value in out.values())
    fields = ["nu", "p0", "atom", *(f"pi.a{a!r}" for a in module.OVERSHOOT_ALPHAS)]
    for name in module.OVERSHOOT_CONFIGS:
        mdl, own = load_model(root / "configs" / f"{name}.json")
        for beta in {own, 0.0}:
            for n in range(mdl.m + 1):
                key = f"generic/{name}.b{beta!r}.n{n}"
                ours = sorted(k[len(key) + 1:] for k in out if k.startswith(key + "/"))
                assert ours == sorted(fields)
                # the record holds the spec's own values
                spec = ladder.generic_spec_from_drift(cold(mdl), beta, n)
                assert out[f"{key}/nu"] == repr(spec.nu) and len(spec.nu) == n
                assert out[f"{key}/p0"] == repr(spec.p0)
                assert out[f"{key}/pi.a1.0"] == repr(ladder.pi_generic(spec, 1.0))
                assert out[f"{key}/atom"] == repr(ladder.atom_at_zero(spec, n))


def test_transform_rows_get_route_lines(tmp_path, capsys):
    # (pi_max, pi_via_ladders, pi_explicit_chains[, phase type]) rows, and
    # the parsed rows (pi_ladder, abs_diff) of CLI transform runs
    before = {
        "transform_battery/r001.a1": "(0.5, 0.5000000000000002, 0.5, 0.5)",
        "transform_battery/fig2.a1": "(0.8, 0.8, 0.8000000000000002)",
        "cli/transform fig2": "exit 0 md5 aa",
    }
    after = {
        "transform_battery/r001.a1": "(0.5, 0.5, 0.5, 0.5000000000000001)",
        "transform_battery/fig2.a1": "(0.8, 0.8, 0.8)",
        "cli/transform fig2": "exit 0 md5 bb",
    }
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"seed": 7, "outputs": before, "cli_transform": {"cli/transform fig2": [[0.5, 1e-16]]}}))
    b.write_text(json.dumps({"seed": 7, "outputs": after, "cli_transform": {"cli/transform fig2": [[0.5, 0.0]]}}))
    _op_outputs().compare(str(a), str(b))
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2] == (
        "transform_battery routes: overshoot to pi_max 4.4e-16 "
        "(transform_battery/r001.a1) -> 0 (transform_battery/r001.a1), "
        "overshoot to phase type 4.4e-16 (transform_battery/r001.a1) -> "
        "2.2e-16 (transform_battery/r001.a1)"
    )
    assert lines[-1] == (
        "cli routes: overshoot to pi_max 2e-16 (cli/transform fig2) -> 0 (cli/transform fig2)"
    )


def test_transform_rows_of_a_cli_run():
    text = b"alpha,pi_ladder,pi_overshoot,abs_diff\n0,1,1,0\n1,0.5,0.5,1e-16\n"
    assert _op_outputs()._transform_rows(text) == [(1.0, 0.0), (0.5, 1e-16)]
    bm = b"alpha,pi_ladder,pi_overshoot,abs_diff\n0,1,,\n"
    assert _op_outputs()._transform_rows(bm) == []


def test_killed_max_group_holds_every_factor_value():
    from poolruin import ladder, model
    from poolruin.config import load_model, parse_regime

    module = _op_outputs()
    root = SCRIPT.parent.parent
    out = module.killed_max_outputs(root)
    assert all(key.startswith("killed_max/") for key in out)
    assert not any(value.startswith("raised") for value in out.values())
    for name, node in module.KILLED_MAX_REGIMES.items():
        reg = parse_regime(node, name)
        for lam in module.KILLED_MAX_LAMS:
            key = f"killed_max/{name}.l{lam!r}"
            ours = sorted(k[len(key) + 1:] for k in out if k.startswith(key + "/"))
            fields = [f"real.{x!r}" for x in module.KILLED_MAX_X]
            fields += ["circle", "series.0.0", "series.far", "engine.atom", "engine.0.3"]
            if not reg.nondecreasing:
                fields += ["real.1.2psi", "engine.psi", "engine.1.2psi"]
            assert ours == sorted(fields)
            # the record holds the factor's own values
            assert eval(out[f"{key}/real.0.0"]) == (0.0, 1.0)
            assert eval(out[f"{key}/real.2.5"]) == (2.5, model.killed_max(reg, 2.5, lam))
            jet = model.killed_max_series(reg, 0.0, lam, 2).c
            assert eval(out[f"{key}/series.0.0"]) == (0.0, *jet)
            assert len(eval(out[f"{key}/circle"])) == module.KILLED_MAX_CIRCLE[2]
    # the flat regime alone: K = 1, no clients, no removable point
    assert eval(out["killed_max/flat.l0.7/engine.atom"]) == 1.0
    assert eval(out["killed_max/flat.l0.7/engine.0.3"]) == (0.3, 1.0)
    for name in ("fig2", "fig3", "fig4", "fig5", "m1_hand", *module.HELD):
        atoms = [k for k in out if k.startswith(f"killed_max/atom.{name}.b")]
        assert atoms
    mdl, own = load_model(root / "configs" / "fig2.json")
    assert eval(out[f"killed_max/atom.fig2.b{own!r}"]) == ladder.engine(mdl, own, mdl.m).atom()
    # fig3 is no drift model: beta = 0 is refused, and not recorded
    assert "killed_max/atom.fig3.b0.0" not in out
