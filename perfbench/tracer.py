"""Spans around the calls between poolruin's modules, installed from the
benchmark's own files (the package itself is not edited).

While installed, wrappers replace the public functions at every module that
imported them, the ``Taylor`` operators, the claim ``lst_series`` methods,
the ``OvershootTable`` routes and the engine constructor.  Each call records
a span (name, start, end, parent, size, work) in flat arrays kept in memory;
self time is derived afterwards from the parent links.  Wrapped functions
are only called from the benchmark's own thread: the simulator's worker
threads call none of them.
"""

from __future__ import annotations

import sys
import time
import types
from array import array
from pathlib import Path

import numpy as np

from poolruin import claims, inversion, ladder, model, overshoot, phase_type, seriesops, simulate
from poolruin.seriesops import Taylor


def _series_size(self, other=None):
    """(order, computed coefficient products) of a Taylor product/quotient."""
    n = len(self.c)
    if isinstance(other, Taylor):
        n = min(n, len(other.c))
        return n - 1, n * (n + 1) // 2
    return n - 1, n


def _shift_size(self, h):
    n = len(self.c)
    return n - 1, (n * (n + 1) // 2 if h != 0.0 else 0)


def _root_div_size(num, *args):
    n = len(num.c)
    return n - 1, n


# (module, function, span name, size): patched wherever the function was
# imported; ``size`` maps the call's arguments to (size, work)
FUNCTIONS = (
    (ladder, "pi_max", "ladder.pi_max", None),
    (ladder, "ruin_transform", "ladder.ruin_transform", None),
    (ladder, "pi_jet", "ladder.pi_jet", None),
    (inversion, "moment_curves", "inversion.moment_curves", lambda mdl, ts: (len(ts), 0)),
    (inversion, "ruin_curve", "inversion.ruin_curve", lambda mdl, b, us: (len(us), 0)),
    (model, "inverse_exponent", "model.inverse_exponent", None),
    (model, "killed_max_series", "model.killed_max_series", None),
    (model, "exponent_series", "model.exponent_series", None),
    (seriesops, "div_by_linear_root", "seriesops.root_div", _root_div_size),
    (phase_type, "running_max_ph", "phase_type.running_max_ph", None),
    (phase_type, "ph_lst", "phase_type.ph_lst", None),
    (simulate, "simulate_paths", "simulate.simulate_paths", None),
)
# (class, method, span name, size)
METHODS = (
    (Taylor, "__mul__", "seriesops.mul", _series_size),
    (Taylor, "__rmul__", "seriesops.mul", _series_size),
    (Taylor, "__truediv__", "seriesops.div", _series_size),
    (Taylor, "shift", "seriesops.shift", _shift_size),
    (ladder._Recursion, "__init__", "ladder.engine_build", None),
    (overshoot.OvershootTable, "pi_via_ladders", "overshoot.pi_via_ladders", None),
    (overshoot.OvershootTable, "pi_explicit_chains", "overshoot.pi_explicit_chains", None),
) + tuple(
    (cls, "lst_series", "claims.lst_series", None)
    for cls in vars(claims).values()
    if isinstance(cls, type) and "lst_series" in vars(cls) and cls is not claims.ClaimDistribution
)
CURVES = ("inversion.moment_curves", "inversion.ruin_curve")
SERIES = ("seriesops.mul", "seriesops.div", "seriesops.root_div", "seriesops.shift")


class Tracer:
    """Install with :meth:`install`, remove with :meth:`uninstall`; spans
    accumulate across installs."""

    def __init__(self):
        self.names: list = []  # span names; spans refer to them by index
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self.work = array("q")
        self._stack = [-1]
        self._undo: list = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, span, size_fn=None):
        nid = self._id(span)
        ids, parent, start, end = self.name_id, self.parent, self.start, self.end
        size, work, stack, clock = self.size, self.work, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(ids)
            ids.append(nid)
            parent.append(stack[-1])
            if size_fn is None:
                size.append(-1)
                work.append(0)
            else:
                s, w = size_fn(*args)
                size.append(s)
                work.append(w)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "poolruin"]
        for home, fname, span, size_fn in FUNCTIONS:
            orig = vars(home)[fname]
            wrapped = self._wrap(orig, span, size_fn)
            for mod in modules:
                if vars(mod).get(fname) is orig:
                    self._set(mod, fname, wrapped)
        for cls, attr, span, size_fn in METHODS:
            self._set(cls, attr, self._wrap(vars(cls)[attr], span, size_fn))
        # the Lomax quadrature, through claims' own handle on scipy.integrate
        quad = self._wrap(claims.integrate.quad, "claims.lomax_quad")
        self._set(claims, "integrate", types.SimpleNamespace(quad=quad))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def arrays(self) -> dict:
        return {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "size": np.array(self.size, dtype=np.int64),
            "work": np.array(self.work, dtype=np.int64),
        }

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds, summed size,
        max size, summed work."""
        a = self.arrays()
        n = len(a["name_id"])
        out = {}
        if n == 0:
            return out
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(a["name_id"], minlength=k)
        incl = np.bincount(a["name_id"], weights=dur, minlength=k)
        self_s = np.bincount(a["name_id"], weights=own, minlength=k)
        size = np.where(a["size"] > 0, a["size"], 0)
        size_sum = np.bincount(a["name_id"], weights=size, minlength=k)
        work = np.bincount(a["name_id"], weights=a["work"], minlength=k)
        size_max = np.zeros(k)
        np.maximum.at(size_max, a["name_id"], a["size"])
        for i, span in enumerate(self.names):
            if calls[i]:
                out[span] = {
                    "calls": int(calls[i]),
                    "s": float(incl[i]),
                    "self_s": float(self_s[i]),
                    "size_sum": int(size_sum[i]),
                    "size_max": int(size_max[i]),
                    "work": int(work[i]),
                }
        return out

    def write(self, path: Path):
        a = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **a)


def layer_metrics(summary: dict, passes: int) -> dict:
    """Per-layer metrics, per pass of the op list, from a span summary."""

    def get(span, key):
        return summary.get(span, {}).get(key, 0) / passes

    out = {}
    for span in SERIES:
        short = span.split(".")[1]
        out[f"seriesops.{short}_calls"] = get(span, "calls")
        out[f"seriesops.{short}_s"] = get(span, "s")
    out["seriesops.max_order"] = max(
        (summary.get(s, {}).get("size_max", 0) for s in SERIES), default=0
    )
    out["seriesops.coef_mults"] = sum(get(s, "work") for s in SERIES)
    out["ladder.engine_builds"] = get("ladder.engine_build", "calls")
    for layer in ("ladder", "inversion"):
        out[f"{layer}.self_s"] = sum(
            v["self_s"] for k, v in summary.items() if k.startswith(layer + ".")
        ) / passes
    out["claims.lst_series_calls"] = get("claims.lst_series", "calls")
    out["claims.lst_series_s"] = get("claims.lst_series", "s")
    out["claims.lomax_quad_s"] = get("claims.lomax_quad", "s")
    for fn in ("inverse_exponent", "killed_max_series"):
        out[f"model.{fn}_calls"] = get(f"model.{fn}", "calls")
        out[f"model.{fn}_s"] = get(f"model.{fn}", "s")
    points = sum(get(s, "size_sum") for s in CURVES)
    transforms = get("ladder.ruin_transform", "calls") + get("ladder.pi_jet", "calls")
    out["inversion.curve_points"] = points
    out["inversion.transforms_per_point"] = transforms / points if points else 0.0
    out["overshoot.pi_via_ladders_s"] = get("overshoot.pi_via_ladders", "s")
    out["overshoot.pi_explicit_chains_s"] = get("overshoot.pi_explicit_chains", "s")
    out["phase_type.running_max_ph_s"] = get("phase_type.running_max_ph", "s")
    out["phase_type.ph_lst_s"] = get("phase_type.ph_lst", "s")
    return out
