"""Ruin theory for a finite pool of major clients with Levy-modeled small
claims: transform recursions for the running maximum, exact phase-type
representations, tail asymptotics, overshoot transforms, numerical Laplace
inversion, and a Monte Carlo validation engine."""

from . import errors
from .claims import Erlang, Exponential, Lomax, PhaseTypeClaim, PointMass, RVMeta
from .heavy_tail import (
    RVAsymptote,
    expected_claims,
    m_distribution,
    phi_coefficient,
    rv_asymptote,
    rv_tail_approx,
)
from .inversion import invert, moment_curves, ruin_curve
from .ladder import (
    GenericLadderSpec,
    TransformJet,
    atom_at_zero,
    engine,
    generic_spec_from_drift,
    pi_generic,
    pi_jet,
    pi_max,
    ruin_transform,
)
from .model import (
    LevyRegime,
    ModelSpec,
    brownian_drift,
    compound_poisson_drift,
    drift,
    inverse_exponent,
    is_drift_model,
    laplace_exponent,
    subordinator,
)
from .overshoot import (
    OvershootTable,
    pi_explicit_chains,
    pi_via_ladders,
    ruin_prob_at_zero,
    xi,
    zeta,
)
from .phase_type import (
    PhaseType,
    SpectralTail,
    ph_convolve,
    ph_density,
    ph_lst,
    ph_tail,
    running_max_ph,
    spectral_tail,
)
from .simulate import PathResult, SimulationSummary, simulate_paths, simulate_trace

__version__ = "0.1.0"
