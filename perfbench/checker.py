"""Ops and the checks applied to their outputs.

An op is one public call into poolruin.  Its output is a tuple of floats
(or a :class:`Raised` record).  Checks run outside the timed region:

* an op *fails* when it raises, returns a non-finite value, returns a
  probability or transform outside [0, 1] (beyond rounding), breaks a sanity rule, or breaks
  reproducibility (its output differs from the first pass, or from its
  1-worker twin);
* an op *misses* when its result is finite but outside the stated tolerance
  of its independent reference.

Ops may declare documented baseline defects (``known``: the statuses the
op is known to show at baseline).  Such ops are still counted; they only
keep the run's ``correct`` flag from dropping while the defect stays what
it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence


# Rounding slack of the [0, 1] check: transforms at alpha = 0 come out as
# 1 +- a few ulp, which is not a defect.
UNIT_SLACK = 1e-12


@dataclass(frozen=True)
class Raised:
    """Output of an op that raised."""

    text: str


@dataclass
class Op:
    """One timed call.

    ``bounded`` selects the output values that must lie in [0, 1];
    ``sanity`` returns a failure reason or None; ``reference`` returns
    ``[(error, tolerance), ...]`` against an independent reference (an empty
    list or None means the op has no reference).
    """

    name: str
    fn: Callable[[], tuple]
    bounded: slice = field(default_factory=lambda: slice(None))
    sanity: Optional[Callable[[tuple], Optional[str]]] = None
    reference: Optional[Callable[[tuple], list]] = None
    known: tuple = ()


def rel_err(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref) if ref != 0.0 else abs(value)


def run_op(op: Op):
    """Call the op; an exception becomes its output."""
    try:
        return tuple(float(v) for v in op.fn())
    except Exception as exc:  # the op boundary: any raise is a counted failure
        return Raised(f"{type(exc).__name__}: {exc}")


def verdict(op: Op, out) -> tuple:
    """(status, detail, has_reference) for one output; status is ``ok``,
    ``fail`` or ``miss``."""
    has_ref = op.reference is not None
    if isinstance(out, Raised):
        return "fail", out.text, has_ref
    if not all(math.isfinite(v) for v in out):
        return "fail", f"non-finite output {out!r}", has_ref
    if any(not -UNIT_SLACK <= v <= 1.0 + UNIT_SLACK for v in out[op.bounded]):
        return "fail", f"value outside [0, 1] in {out!r}", has_ref
    if op.sanity is not None:
        reason = op.sanity(out)
        if reason:
            return "fail", reason, has_ref
    if has_ref:
        pairs = op.reference(out)
        has_ref = bool(pairs)
        for err, tol in pairs:
            if not err <= tol:
                return "miss", f"error {err:.3g} > tolerance {tol:g}", has_ref
    return "ok", "", has_ref


@dataclass
class Tally:
    """Counts over the distinct ops of the list: an op counts once however
    many passes ran it, so the counts do not depend on the machine's speed."""

    attempted: int = 0
    failed: int = 0
    missed: int = 0
    with_ref: int = 0
    # (op name, status, detail, known statuses) per distinct op
    findings: List[tuple] = field(default_factory=list)

    @property
    def unexpected(self) -> list:
        return [f for f in self.findings if f[1] not in f[3]]

    @property
    def pass_ratio(self) -> float:
        return 1.0 - self.failed / self.attempted

    @property
    def accuracy_ratio(self) -> float:
        return 1.0 - self.missed / self.with_ref if self.with_ref else 1.0


def tally(
    ops: Sequence[Op],
    passes: Sequence[Dict[str, object]],
    group_failures: Dict[str, str],
) -> Tally:
    """Check the outputs of every run of the ops: ``passes`` holds one
    {op name: output} per pass and repetition, the first with every op.
    The first is checked against the references and the workload's
    cross-op rules (``group_failures``: op name -> reason); every later
    output of an op must repeat its first bit for bit."""
    out = Tally()
    first = passes[0]
    for op in ops:
        status, detail, has_ref = verdict(op, first[op.name])
        if op.name in group_failures and status != "fail":
            status, detail = "fail", group_failures[op.name]
        again = [later[op.name] for later in passes[1:] if op.name in later]
        if any(repr(o) != repr(first[op.name]) for o in again):
            status, detail = "fail", "output differs between passes"
        out.attempted += 1
        out.with_ref += has_ref
        out.failed += status == "fail"
        out.missed += status == "miss"
        if status != "ok":
            out.findings.append((op.name, status, detail, op.known))
    return out
