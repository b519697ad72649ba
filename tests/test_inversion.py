import math
import re

import numpy as np
import pytest

from poolruin import claims, inversion, ladder, model, phase_type
from poolruin.errors import KillingRequired, PoolRuinError


def fig4_model():
    return model.ModelSpec(
        m=5,
        lambda_circ=(1.0, 2.0, 3.0, 4.0, 5.0),
        claims=(claims.Erlang(2, 1.0),) * 5,
        regimes=tuple(model.drift(r) for r in (0.0, 0.01, 0.02, 0.03, 0.04, 0.05)),
    )


def test_plan_weights_identities():
    assert inversion._N_TERMS == 14
    assert len(inversion.default_plan()) == 14
    # alternating weights cancel exactly in rational arithmetic
    assert sum(inversion._exact_weights(14)) == 0
    assert sum(inversion._exact_weights(8)) == 0


def test_known_pairs():
    for t in (0.5, 1.0, 7.0):
        assert abs(inversion.invert(lambda s: 1.0 / s, t) - 1.0) < 1e-8
    assert abs(
        inversion.invert(lambda s: 1.0 / (s + 1.0), 1.0) - math.exp(-1.0)
    ) < 1e-6
    assert abs(inversion.invert(lambda s: 1.0 / s**2, 3.0) - 3.0) < 3e-6


def test_invert_requires_positive_t():
    with pytest.raises(ValueError):
        inversion.invert(lambda s: 1.0 / s, 0.0)


def test_errors_propagate_from_transform():
    def bad(_):
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        inversion.invert(bad, 1.0)


_WEIGHTS = inversion.default_plan()


def _each_near_1e308(w):
    return math.copysign(1e308, w) / max(abs(w), 1.0)


@pytest.mark.parametrize(
    "F,message",
    [
        (lambda s: 1.0 / (s - s), r"transform at t = 2\.0, node 0\.34\d* divides by zero"),
        (lambda s: math.exp(1e3 * s), r"transform at t = 2\.0, node 1\.03\d* overflows"),
        (lambda s: 1e305 / s, r"Stehfest sum at t = 2\.0 .*inf at node"),  # inf - inf
        # every weighted value near 1e308: finite terms whose sum is not
        (lambda s: _each_near_1e308(_WEIGHTS[round(s / (math.log(2.0) / 2.0)) - 1]),
         r"Stehfest sum at t = 2\.0 .*transform \d\S*e\+308 at node"),
    ],
    ids=["zero-division", "overflow", "inf-minus-inf", "sum-overflow"],
)
def test_arithmetic_failures_name_t_and_the_node(F, message):
    with pytest.raises(PoolRuinError, match=message):
        inversion.invert(F, 2.0)


def test_ruin_curve_no_clients_is_zero():
    none = model.ModelSpec(m=0, lambda_circ=(), claims=(), regimes=(model.drift(1.0),))
    assert (inversion.ruin_curve(none, 1.0, [0.5, 1.0, 5.0]) == 0.0).all()


def test_ruin_curve_no_clients_goes_through_the_engine():
    # Brownian motion with drift 1 and variance 1 killed at rate 1: the
    # maximum is Exp(1 + sqrt 3), not zero; Stehfest's own error grows in u
    bm = model.ModelSpec(
        m=0, lambda_circ=(), claims=(), regimes=(model.brownian_drift(1.0, 1.0),)
    )
    got = inversion.ruin_curve(bm, 1.0, [0.5, 1.0])
    exact = np.exp(-(1.0 + math.sqrt(3.0)) * np.array([0.5, 1.0]))
    assert abs(got[0] - exact[0]) <= 1e-5 * exact[0]
    assert abs(got[1] - exact[1]) <= 1e-3 * exact[1]
    # u = 0 takes no inversion: the Brownian maximum has no atom at zero
    assert inversion.ruin_curve(bm, 1.0, [0.0]).tolist() == [1.0]


def test_ruin_curve_at_zero_is_one_minus_the_atom():
    from pathlib import Path

    from poolruin.config import load_model

    mdl, beta = load_model(Path(__file__).resolve().parent.parent / "configs" / "fig2.json")
    got = inversion.ruin_curve(mdl, beta, [0.0, 1.0])
    exact = 1.0 - phase_type.running_max_ph(mdl, beta, mdl.m).delta_abs
    assert abs(got[0] - exact) <= 1e-14
    assert got[1] == inversion.ruin_curve(mdl, beta, [1.0])[0]


def test_ruin_curve_checks_beta_with_no_clients():
    bm = model.ModelSpec(
        m=0, lambda_circ=(), claims=(), regimes=(model.brownian_drift(1.0, 1.0),)
    )
    with pytest.raises(ValueError, match="beta must be finite"):
        inversion.ruin_curve(bm, math.nan, [1.0])
    with pytest.raises(KillingRequired):
        inversion.ruin_curve(bm, 0.0, [1.0])


def test_ruin_curve_matches_exact_phase_type():
    mdl = fig4_model()
    beta = 5.0
    ph = phase_type.running_max_ph(mdl, beta, 5)
    curve = inversion.ruin_curve(mdl, beta, [1.0, 5.0, 10.0])
    for u, p in zip((1.0, 5.0, 10.0), curve):
        assert abs(p - phase_type.ph_tail(ph, u)) < 1e-4
        assert 0.0 <= p <= 1.0


def test_moment_curves_trivial_and_monotone(m1_model):
    none = model.ModelSpec(m=0, lambda_circ=(), claims=(), regimes=(model.drift(1.0),))
    means, variances = inversion.moment_curves(none, [1.0, 5.0])
    assert np.allclose(means, 0.0, atol=1e-9)
    assert np.allclose(variances, 0.0, atol=1e-9)
    t_grid = [0.5, 1.0, 2.0, 5.0, 10.0, 20.0]
    means, variances = inversion.moment_curves(m1_model, t_grid)
    # nondecreasing up to inversion noise; strictly so before saturation
    assert (np.diff(means) > -1e-4).all()
    assert (np.diff(means[:4]) > 0).all()
    assert (variances >= 0).all()
    # the horizon limit is E(B - T)+ with B ~ Exp(1), T ~ Exp(1): one half
    assert abs(means[-1] - 0.5) < 1e-4


_DETERMINISTIC_T = [1e-100, 1e-6, 0.5, 1.0, 3.0, 1e3, 1e100]


@pytest.mark.parametrize(
    "mdl",
    [
        # M_t = t
        model.ModelSpec(m=0, lambda_circ=(), claims=(), regimes=(model.drift(-1.0),)),
        # claims of size zero under nondecreasing drifts: M_t = X_t
        model.ModelSpec(
            m=2,
            lambda_circ=(1.0, 2.0),
            claims=(claims.PointMass(0.0),) * 2,
            regimes=tuple(model.drift(r) for r in (-1.0, -1.0, -1.0)),
        ),
        # a jump rate of 1e-12: M_t = t up to a 1e-12 chance
        model.ModelSpec(
            m=0, lambda_circ=(), claims=(),
            regimes=(model.compound_poisson_drift(-1.0, 0.0, 1e-12, claims.Exponential(1.0)),),
        ),
    ],
    ids=["drift", "point-zero-claims", "rare-jumps"],
)
def test_a_deterministic_maximum_reads_a_variance_of_inversion_noise(mdl):
    # seconds - means**2 is the rule's error on t**2 and t, a few 1e-6 of
    # t**2 and of either sign, plus the rare jumps' 2e-12 t: no numerical
    # failure
    means, variances = inversion.moment_curves(mdl, _DETERMINISTIC_T)
    t = np.array(_DETERMINISTIC_T)
    assert np.allclose(means, t, rtol=1e-6, atol=0.0)
    assert (np.abs(variances) < 1e-5 * t * t + 3e-12 * t).all()


@pytest.mark.parametrize("t", [1e-200, 1e-150])
def test_an_underflowing_moment_term_is_a_numerical_failure(t):
    # M_t = t: at t = 1e-200 the nodes lie near 7e199, where the mean's
    # term -d1/s = 1/s**2 underflows to 0, and at 1e-150 the second
    # moment's 2/s**3 does; neither reads as a moment of 0
    mdl = model.ModelSpec(m=0, lambda_circ=(), claims=(), regimes=(model.drift(-1.0),))
    node = math.log(2.0) / t  # the first Stehfest node
    for _ in range(2):  # the kept jet raises again
        with pytest.raises(
            PoolRuinError, match=re.escape(f"t = {t!r}, node beta = {node!r} underflows")
        ):
            inversion.moment_curves(mdl, [t])


def overflow_pool():
    """Claims of mean 1e300: the second moment of the maximum overflows."""
    return model.ModelSpec(
        m=2,
        lambda_circ=(1.0, 1.0),
        claims=(claims.Exponential(1e-300),) * 2,
        regimes=tuple(model.drift(r) for r in (0.0, 1.0, 2.0)),
    )


def test_moment_overflow_is_a_numerical_failure():
    mdl = overflow_pool()
    node = math.log(2.0)  # the first Stehfest node at t = 1
    for _ in range(2):  # the kept jet raises again
        with pytest.raises(PoolRuinError, match=rf"t = 1\.0, node beta = {node!r} is not finite"):
            inversion.moment_curves(mdl, [1.0])
    jet = ladder.pi_jet(mdl, node, 2)
    assert jet.d2 == math.inf
    assert ladder.pi_jet(mdl, node, 2) is jet


def test_moment_curve_against_closed_form(m1_model):
    # E max(t): with one Exp(1) claim at rate 1 and unit drifts the
    # transform route must reproduce a direct numerical evaluation of
    # E max(0, B - U) restricted to arrival before t:
    #   E max(t) = int_0^t e^{-s} E[(B - s')...] ... use an independent
    # Monte Carlo estimate instead, at modest path counts.
    from poolruin import simulate

    for t in (1.0, 5.0):
        means, _ = inversion.moment_curves(m1_model, [t])
        sim = simulate.simulate_paths(
            m1_model, beta=0.0, horizon_t=t, n_paths=400_000, seed=9
        )
        assert abs(means[0] - sim.mean_max) < 3 * sim.se_mean_max


def test_ruin_curve_consistent_with_heavy_tail_asymptote():
    from poolruin import heavy_tail

    mdl = model.ModelSpec(
        m=5,
        lambda_circ=(1.0, 2.0, 3.0, 4.0, 5.0),
        claims=(claims.Lomax(1.0, 1.5),) * 5,
        regimes=tuple(model.drift(r) for r in (0.0, 1.0, 4.0, 9.0, 16.0, 25.0)),
    )
    p = inversion.ruin_curve(mdl, 0.0, [100.0])[0]
    approx = heavy_tail.rv_tail_approx(mdl, 0.0, 100.0)
    assert abs(p / approx - 1.0) < 0.2


def test_ruin_curve_stays_in_unit_band_without_clamping():
    import warnings

    mdl = fig4_model()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve = inversion.ruin_curve(mdl, 5.0, [0.5, 1.0, 5.0, 10.0, 20.0])
    assert ((curve >= 0.0) & (curve <= 1.0)).all()


def test_an_inverted_value_above_one_is_clamped_with_a_warning(monkeypatch):
    inversion.default_plan()  # self-tested before the patch
    monkeypatch.setattr(inversion, "invert", lambda f, u: 1.5)
    with pytest.warns(UserWarning, match=r"1\.5 at u=2\.0 clamped"):
        curve = inversion.ruin_curve(fig4_model(), 5.0, [2.0])
    assert curve.tolist() == [1.0]
