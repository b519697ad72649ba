"""Exception hierarchy for model validation and numerical failures."""

import math


class PoolRuinError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(PoolRuinError):
    """A model configuration file is malformed or inconsistent."""


class NoRoot(PoolRuinError):
    """The Laplace exponent never reaches the requested level."""


class RegimeMismatch(PoolRuinError):
    """Operation requires a different family of regimes (e.g. positive pure drifts)."""


class KillingRequired(PoolRuinError, ValueError):
    """beta = 0 (infinite horizon) off the drift model: an invalid argument."""


class NonIdenticalClaims(PoolRuinError):
    """Operation requires all claim sizes to share one distribution."""


class NotPhaseType(PoolRuinError):
    """Operation requires claim laws with a phase-type representation."""


class MomentUndefined(PoolRuinError):
    """A requested moment of a claim distribution does not exist."""


class SingularSystem(PoolRuinError):
    """A linear system that should be regular turned out singular
    (indicates an invalid phase-type representation)."""


class NoConvergence(PoolRuinError):
    """An iterative or extrapolation procedure failed to stabilize."""


class ChainBudgetExceeded(PoolRuinError):
    """Explicit ladder-chain enumeration would exceed the overshoot module's chain budget."""


class SimulationError(PoolRuinError):
    """A simulated path broke an invariant of its regime (e.g. a drift
    segment rose above the running maximum)."""


def require_finite(owner: str, **fields) -> None:
    """``ValueError`` naming the first of ``fields`` that is NaN or
    infinite: a comparison such as ``mu <= 0`` is False for NaN, so a sign
    check alone lets it through."""
    for name, value in fields.items():
        if not math.isfinite(value):
            raise ValueError(f"{owner}: {name} must be finite, got {value!r}")
