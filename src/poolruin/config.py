"""Model configuration files.

A config is one JSON document:

    {
      "m": 2,
      "lambda_circ": [1.0, 2.0],
      "beta": 1.0,
      "claims": [{"exp": {"mu": 1.0}}, {"erlang": {"k": 2, "mu": 1.0}}],
      "regimes": [{"drift": {"r": 0.0}}, {"drift": {"r": 1.0}}, {"drift": {"r": 2.0}}]
    }

Claim tags: exp {mu}, erlang {k, mu}, ph {delta, delta_abs, S}, lomax
{c, eps}, point {b}.  Regime tags: drift {r}, bm {r, sigma2}, cp {r,
sigma2, rate, jump: <claim spec>}, sub {r, rate, jump: <claim spec>}.
Numbers must be finite: ``NaN`` and ``Infinity``, which Python's ``json``
accepts, are rejected, as are literals beyond the float range.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from . import claims as cl
from . import model as md
from .errors import ConfigError
from .phase_type import PhaseType


def _tagged(node, where: str) -> tuple:
    if not isinstance(node, dict) or len(node) != 1:
        raise ConfigError(f"{where}: expected a single-tag object")
    [(tag, body)] = node.items()
    if not isinstance(body, dict):
        raise ConfigError(f"{where}.{tag}: expected an object of fields")
    return tag, body


def _finite(val) -> bool:
    try:
        return math.isfinite(val)
    except OverflowError:  # an integer literal beyond the float range
        return False


def _num(body, key, where, positive=False, nonneg=False):
    if key not in body:
        raise ConfigError(f"{where}.{key}: missing")
    val = body[key]
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        raise ConfigError(f"{where}.{key}: expected a number")
    if not _finite(val):
        raise ConfigError(f"{where}.{key}: must be finite")
    if positive and val <= 0:
        raise ConfigError(f"{where}.{key}: must be positive")
    if nonneg and val < 0:
        raise ConfigError(f"{where}.{key}: must be nonnegative")
    return float(val)


def parse_claim(node, where: str) -> cl.ClaimDistribution:
    tag, body = _tagged(node, where)
    try:
        if tag == "exp":
            return cl.Exponential(mu=_num(body, "mu", where, positive=True))
        if tag == "erlang":
            k = body.get("k")
            if not isinstance(k, int) or k < 1:
                raise ConfigError(f"{where}.k: expected a positive integer")
            return cl.Erlang(k=k, mu=_num(body, "mu", where, positive=True))
        if tag == "lomax":
            return cl.Lomax(
                c=_num(body, "c", where, positive=True),
                eps=_num(body, "eps", where, positive=True),
            )
        if tag == "point":
            return cl.PointMass(b=_num(body, "b", where, nonneg=True))
        if tag == "ph":
            if "delta" not in body or "S" not in body:
                raise ConfigError(f"{where}: ph needs delta and S")
            atom = _num(body, "delta_abs", where) if "delta_abs" in body else 0.0
            ph = PhaseType(
                delta=np.asarray(body["delta"], dtype=float),
                S=np.asarray(body["S"], dtype=float),
                delta_abs=atom,
            )
            return cl.PhaseTypeClaim(ph=ph)
    except ConfigError:
        raise
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}: unknown claim tag {tag!r}")


def parse_regime(node, where: str) -> md.LevyRegime:
    tag, body = _tagged(node, where)
    try:
        if tag == "drift":
            return md.drift(r=_num(body, "r", where))
        if tag == "bm":
            return md.brownian_drift(
                r=_num(body, "r", where),
                sigma2=_num(body, "sigma2", where, positive=True),
            )
        if tag == "cp":
            return md.compound_poisson_drift(
                r=_num(body, "r", where),
                sigma2=_num(body, "sigma2", where, nonneg=True)
                if "sigma2" in body
                else 0.0,
                jump_rate=_num(body, "rate", where, positive=True),
                jump_law=parse_claim(body.get("jump"), f"{where}.jump"),
            )
        if tag == "sub":
            rate = _num(body, "rate", where, nonneg=True) if "rate" in body else 0.0
            jump = (
                parse_claim(body.get("jump"), f"{where}.jump") if rate > 0 else None
            )
            return md.subordinator(r=_num(body, "r", where), jump_rate=rate, jump_law=jump)
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}: unknown regime tag {tag!r}")


def parse_model(doc: dict) -> tuple:
    """Parse a config document into (ModelSpec, default beta or None)."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    m = doc.get("m")
    if not isinstance(m, int) or m < 0:
        raise ConfigError("m: expected a nonnegative integer")
    rates = doc.get("lambda_circ")
    if not isinstance(rates, list) or len(rates) != m:
        raise ConfigError(f"lambda_circ: expected an array of {m} rates")
    for i, rate in enumerate(rates):
        if not isinstance(rate, (int, float)) or not (_finite(rate) and rate > 0):
            raise ConfigError(f"lambda_circ[{i}]: must be a positive finite number")
    claim_nodes = doc.get("claims")
    if not isinstance(claim_nodes, list) or len(claim_nodes) != m:
        raise ConfigError(f"claims: expected an array of {m} distribution specs")
    regime_nodes = doc.get("regimes")
    if not isinstance(regime_nodes, list) or len(regime_nodes) != m + 1:
        raise ConfigError(f"regimes: expected an array of {m + 1} regime specs")
    beta = doc.get("beta")
    if beta is not None and (
        not isinstance(beta, (int, float))
        or isinstance(beta, bool)
        or not (_finite(beta) and beta >= 0)
    ):
        raise ConfigError("beta: must be a nonnegative finite number")
    spec = md.ModelSpec(
        m=m,
        lambda_circ=tuple(float(r) for r in rates),
        claims=tuple(
            parse_claim(node, f"claims[{i}]") for i, node in enumerate(claim_nodes)
        ),
        regimes=tuple(
            parse_regime(node, f"regimes[{i}]") for i, node in enumerate(regime_nodes)
        ),
    )
    return spec, (None if beta is None else float(beta))


def load_model(path) -> tuple:
    path = Path(path)

    def reject_constant(name):
        raise ConfigError(f"{path}: non-finite number {name} is not allowed")

    try:
        doc = json.loads(path.read_text(), parse_constant=reject_constant)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return parse_model(doc)
