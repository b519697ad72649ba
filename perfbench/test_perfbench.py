"""The benchmark's own tests.

Run from the repository root:  python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from checker import Op, tally  # noqa: E402
from poolruin import ladder, seriesops  # noqa: E402
from run import END_TO_END, per_layer_spec  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    DeepPool,
    FigureCurves,
    McOracle,
    TransformBattery,
    _simulate,
)

ROOT = HERE.parent


def _check(op, passes=1):
    from checker import run_op

    outs = [{op.name: run_op(op)} for _ in range(passes)]
    return tally([op], outs, {})


def _ref(value):
    return lambda out: [(abs(out[0] - value) / value, 1e-3)]


def test_nan_counts_as_failure():
    result = _check(Op("nan", lambda: (math.nan,), reference=_ref(0.5)), passes=2)
    # an op counts once, however many passes ran it
    assert (result.attempted, result.failed, result.missed) == (1, 1, 0)
    assert result.pass_ratio == 0.0
    assert result.unexpected


def test_one_percent_off_counts_as_miss():
    result = _check(Op("off", lambda: (0.505,), reference=_ref(0.5)))
    assert (result.failed, result.missed, result.with_ref) == (0, 1, 1)
    assert result.accuracy_ratio == 0.0
    ok = _check(Op("on", lambda: (0.5 * (1 + 1e-6),), reference=_ref(0.5)))
    assert (ok.failed, ok.missed, ok.accuracy_ratio) == (0, 0, 1.0)


def test_raise_out_of_range_and_known_defects():
    def boom():
        raise OverflowError("x")

    assert _check(Op("raise", boom)).failed == 1
    assert _check(Op("big", lambda: (1.5,))).failed == 1
    assert _check(Op("rounding", lambda: (1.0 + 2e-16,))).failed == 0
    known = _check(Op("known", boom, known=("fail",)))
    assert known.failed == 1 and not known.unexpected


def test_irreproducible_output_fails():
    values = iter([0.25, 0.5])
    result = _check(Op("drift", lambda: (next(values),)), passes=2)
    assert result.failed == 1 and result.findings[0][2] == "output differs between passes"


def test_scaling_follows_the_measured_speed():
    import time

    from gauge import REFERENCE_CHUNK_S, Gauge

    gauge = Gauge()
    gauge.start()
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            sum(i * i for i in range(1000))
    finally:
        gauge.stop()
    assert len(gauge.tick_s) >= 3 and gauge.ticked_s > 0
    gauge.tick_end = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    gauge.tick_s = [REFERENCE_CHUNK_S] * 3 + [2 * REFERENCE_CHUNK_S] * 3
    # the ticks around the work, widened to MIN_TICKS
    assert gauge.factor(5.0, 6.0) == 5 / 8


def test_rounds_rerun_only_cheap_ops():
    import time

    from gauge import Gauge
    from run import REPEAT_S, run_pass

    def slow():
        time.sleep(REPEAT_S + 0.05)
        return (0.5,)

    copies = [[Op("cheap", lambda: (0.5,)), Op("slow", slow)] for _ in range(3)]
    outputs, scaled, raw = run_pass(copies, Gauge())
    assert len(raw["cheap"]) == len(scaled["cheap"]) == 3
    assert len(raw["slow"]) == 1 and raw["slow"][0] >= REPEAT_S
    assert [sorted(o) for o in outputs] == [["cheap", "slow"], ["cheap"], ["cheap"]]


def _small_ops():
    """A few cheap ops that cross every traced layer."""
    battery = TransformBattery(ROOT, 3)
    ops = [op for op in battery.ops() if op.name.startswith(("m1_hand", "fig4.a1", "r001"))]
    curves = FigureCurves(ROOT, 0).ops()
    ops += [op for op in curves if op.name in ("fig2.ruin.u1", "fig3.moments.t1", "fig5.ruin.u5")]
    ops += [op for op in DeepPool(ROOT, 0).ops() if op.name in ("bm.m5.spread", "cp.m5.cluster")]
    mdl, beta = McOracle(ROOT, 0).model("fig4")
    ops.append(Op("mc", lambda: _simulate(mdl, beta, 2000, 1, 2), bounded=slice(0, 5)))
    return ops


def test_traced_and_untraced_outputs_identical():
    from checker import run_op

    plain = {op.name: run_op(op) for op in _small_ops()}
    tracer = Tracer()
    originals = (ladder.pi_max, seriesops.Taylor.__mul__, seriesops.div_by_linear_root)
    tracer.install()
    try:
        traced = {op.name: run_op(op) for op in _small_ops()}
    finally:
        tracer.uninstall()
    assert repr(traced) == repr(plain)
    assert (ladder.pi_max, seriesops.Taylor.__mul__, seriesops.div_by_linear_root) == originals
    summary = tracer.summary()
    for span in ("seriesops.mul", "ladder.engine_build", "claims.lst_series", "claims.lomax_quad",
                 "model.inverse_exponent", "overshoot.pi_explicit_chains", "phase_type.ph_lst",
                 "inversion.ruin_curve", "simulate.simulate_paths"):
        assert summary[span]["calls"] > 0, span
        assert summary[span]["self_s"] <= summary[span]["s"] + 1e-12
    metrics = layer_metrics(summary, 1)
    assert metrics["inversion.transforms_per_point"] == 14
    assert metrics["seriesops.max_order"] >= 2


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer_spec()
    assert {w["name"] for w in spec["workloads"]} == {
        "figure_curves", "deep_pool", "transform_battery", "mc_oracle"
    }
