import dataclasses
import math
from itertools import combinations
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from poolruin import claims, ladder, model, overshoot, phase_type, simulate
from poolruin.config import load_model
from poolruin.errors import ChainBudgetExceeded, KillingRequired, RegimeMismatch
from poolruin.ladder import _Recursion
from poolruin.seriesops import WINDOW

from conftest import battery_models, cold, random_drift_model


def test_zeta_hand_values(m1_model):
    table = overshoot.OvershootTable(m1_model, 1.0)
    # (lam_circ / r)(B(nu) - B(a)) / (a - nu) with nu = 2, B = Exp(1)
    assert math.isclose(table.zeta(1, 0, 0.0), 1.0 / 3.0, rel_tol=1e-14)
    assert math.isclose(table.zeta(1, 0, 1.0), 1.0 / 6.0, rel_tol=1e-14)
    # transform of a strictly positive overshoot vanishes at large argument
    assert table.zeta(1, 0, 1e9) < 1e-8


def test_zeta_confluent_at_ladder_rate(m1_model):
    table = overshoot.OvershootTable(m1_model, 1.0)
    nu = 2.0
    center = table.zeta(1, 0, nu)
    # continuity across the removable point: compare against close arguments
    left = table.zeta(1, 0, nu - 1e-6)
    right = table.zeta(1, 0, nu + 1e-6)
    assert math.isclose(center, 0.5 * (left + right), rel_tol=1e-9)
    # exact limit: -(lam_circ / r) B'(nu) = (1/(1+nu)^2)
    assert math.isclose(center, 1.0 / 9.0, rel_tol=1e-12)


def test_xi_level_zero_limit(m1_model):
    table = overshoot.OvershootTable(m1_model, 1.0)
    # exponential level with a huge rate is essentially level zero
    assert math.isclose(table.xi(1, 0, 0.0, 1e8), 1.0 / 3.0, rel_tol=1e-6)
    # an enormous level is never exceeded before the kill
    assert table.xi(1, 0, 0.0, 1e-9) < 1e-8


def test_xi_diagonal_continuity(m1_model):
    table = overshoot.OvershootTable(m1_model, 1.0)
    g = 0.7
    center = table.xi(1, 0, g, g)
    near_lo = table.xi(1, 0, g - 1e-5, g)
    near_hi = table.xi(1, 0, g + 1e-5, g)
    assert math.isclose(center, 0.5 * (near_lo + near_hi), rel_tol=1e-8)


def test_xi_monotone_in_level_rate():
    # a larger rate means a stochastically smaller exponential level, which
    # makes exceedance before the kill easier: the aggregate over k is
    # nondecreasing, as is the first-claim slice k = n-1.  Individual k < n-1
    # slices need not be monotone (a low level tends to be crossed earlier,
    # while more clients remain).
    rng = np.random.default_rng(17)
    mdl = random_drift_model(rng, m_max=4)
    table = overshoot.OvershootTable(mdl, 1.0)
    gammas = [0.1, 0.5, 1.0, 3.0, 10.0]
    agg = []
    for g in gammas:
        vals = [table.xi(mdl.m, k, 0.0, g) for k in range(mdl.m)]
        assert all(0.0 <= v <= 1.0 for v in vals)
        agg.append(sum(vals))
    assert (np.diff(agg) >= -1e-12).all()
    assert max(agg) <= 1.0 + 1e-12
    first = [table.xi(mdl.m, mdl.m - 1, 0.0, g) for g in gammas]
    assert (np.diff(first) >= -1e-12).all()


def test_zeta_completely_monotone_in_alpha():
    rng = np.random.default_rng(23)
    mdl = random_drift_model(rng, m_max=4)
    table = overshoot.OvershootTable(mdl, 1.0)
    grid = np.linspace(0.0, 6.0, 25)
    for k in range(mdl.m):
        vals = np.array([table.zeta(mdl.m, k, a) for a in grid])
        assert (vals >= -1e-14).all()
        assert (np.diff(vals) <= 1e-12).all()
        assert (np.diff(vals, 2) >= -1e-10).all()


def test_ladder_probabilities_sum_below_one():
    rng = np.random.default_rng(29)
    for _ in range(10):
        mdl = random_drift_model(rng, m_max=5)
        beta = float(rng.uniform(0.2, 2.0))
        table = overshoot.OvershootTable(mdl, beta)
        for n in range(1, mdl.m + 1):
            total = sum(table.zeta(n, k, 0.0) for k in range(n))
            assert -1e-12 <= total <= 1.0 + 1e-12


def test_pi_via_ladders_hand_value(m1_model):
    assert math.isclose(
        overshoot.pi_via_ladders(m1_model, 1.0, 1.0), 5.0 / 6.0, rel_tol=1e-13
    )
    assert overshoot.pi_via_ladders(m1_model, 1.0, 0.0) == pytest.approx(1.0, abs=1e-13)


def test_pi_explicit_chains_m1(m1_model):
    table = overshoot.OvershootTable(m1_model, 1.0)
    want = (1.0 - table.zeta(1, 0, 0.0)) + table.zeta(1, 0, 1.0)
    got = overshoot.pi_explicit_chains(m1_model, 1.0, 1.0)
    assert math.isclose(got, want, rel_tol=1e-14)
    assert math.isclose(got, 5.0 / 6.0, rel_tol=1e-13)
    assert overshoot.pi_explicit_chains(m1_model, 1.0, 0.0) == pytest.approx(
        1.0, abs=1e-13
    )


def test_no_clients_sum_one_empty_chain():
    # m = 0: the one chain is empty and its product is one
    mdl = model.ModelSpec(m=0, lambda_circ=(), claims=(), regimes=(model.drift(1.0),))
    for beta in (0.0, 1.0):
        assert overshoot.pi_explicit_chains(mdl, beta, 0.5) == 1.0
        assert overshoot.pi_via_ladders(mdl, beta, 0.5) == 1.0


def test_three_way_agreement_random_models():
    rng = np.random.default_rng(31)
    for _ in range(12):
        mdl = random_drift_model(rng)
        beta = float(rng.choice([0.5, 1.0, 2.0]))
        table = overshoot.OvershootTable(mdl, beta)
        for a in (0.0, 0.3, 1.0, 2.7, 8.0):
            pd = ladder.pi_max(mdl, beta, mdl.m, a)
            assert abs(pd - table.pi_via_ladders(a)) < 1e-10
            assert abs(pd - table.pi_explicit_chains(a)) < 1e-10


# the alpha grid of the transform_battery benchmark workload
BATTERY_ALPHAS = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)


@pytest.mark.parametrize("seed", [1, 4, 32])
def test_kept_state_moves_no_value(seed):
    # every route on a warm (model, beta), row by row as the benchmark asks,
    # against each alpha on a cold copy of its own
    for mdl, beta in battery_models(seed):
        table = overshoot.OvershootTable(mdl, beta)
        warm = [
            (
                ladder.pi_max(mdl, beta, mdl.m, a),
                table.pi_via_ladders(a),
                overshoot.OvershootTable(mdl, beta).pi_explicit_chains(a),
            )
            for a in BATTERY_ALPHAS
        ]
        fresh = [
            (
                ladder.pi_max(cold(mdl), beta, mdl.m, a),
                overshoot.pi_via_ladders(cold(mdl), beta, a),
                overshoot.pi_explicit_chains(cold(mdl), beta, a),
            )
            for a in BATTERY_ALPHAS
        ]
        assert repr(warm) == repr(fresh)


def test_tables_of_one_pair_share_ladder_heights(monkeypatch):
    mdl = random_drift_model(np.random.default_rng(41), m_max=6)
    first = overshoot.OvershootTable(mdl, 1.0)
    first.pi_via_ladders(0.5)
    builds = []
    init = _Recursion.__init__

    def counted(self, *args):
        builds.append(1)
        init(self, *args)

    monkeypatch.setattr(_Recursion, "__init__", counted)
    # a fresh table of the same pair reads the zeta matrices it shares
    overshoot.OvershootTable(mdl, 1.0).pi_explicit_chains(0.5)
    overshoot.pi_via_ladders(mdl, 1.0, 0.0)
    assert builds == []
    # the routes keep zetas; only xi keeps its engines
    assert first._kept.xi_engines == {}
    overshoot.xi(mdl, mdl.m, 0, 0.5, 1.0, 2.0)
    assert list(first._kept.xi_engines) == [(0, 0.5)]


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SHARED_ALPHAS = (0.0, 0.25, 1.0, 2.7, 8.0)


def _shared_cases() -> list:
    """(model, beta) pairs whose xi engines stack windowed circles: seed 4's
    r125 of the transform battery (six ladder rates, each within a window of
    another), fig2 (ladder rates 0.45 to 1.25) and point-mass claims, whose
    xi bases are removable at alpha and nu."""
    point = claims.PointMass(0.8)
    return [
        battery_models(4)[125],
        load_model(CONFIGS / "fig2.json"),
        (
            model.ModelSpec(
                m=3, lambda_circ=(1.0, 1.5, 0.7), claims=(point,) * 3,
                regimes=(model.drift(0.5), model.drift(1.0), model.drift(2.0), model.drift(0.8)),
            ),
            0.8,
        ),
    ]


def _windowed_gammas(mdl, beta) -> list:
    """A level rate and a point inside its window, for each level 2..m."""
    table = overshoot.OvershootTable(cold(mdl), beta)
    return [g for n in range(2, mdl.m + 1) for g in (table.nu(n), table.nu(n) * (1 + WINDOW / 2))]


def _routes(table, alpha) -> tuple:
    m = table.model.m
    return (
        [[table.zeta(n, k, alpha) for k in range(n)] for n in range(1, m + 1)],
        [table.survive_zero(n) for n in range(m + 1)],
        table.pi_via_ladders(alpha),
        table.pi_explicit_chains(alpha),
    )


def _xis(table, alpha, gammas) -> list:
    m = table.model.m
    return [table.xi(m, k, alpha, g) for k in range(m - 1) for g in gammas]


@pytest.mark.parametrize("case", range(3))
def test_shared_level_set_moves_no_value(case):
    # the alphas in ascending, descending and shuffled order, interleaved
    # with xi at windowed gammas and with fresh tables of the same pair, on
    # one model object, against each value on a fresh model object
    mdl, beta = _shared_cases()[case]
    gammas = _windowed_gammas(mdl, beta)
    want = {
        a: (
            _routes(overshoot.OvershootTable(cold(mdl), beta), a),
            _xis(overshoot.OvershootTable(cold(mdl), beta), a, gammas),
        )
        for a in SHARED_ALPHAS
    }
    shuffled = [SHARED_ALPHAS[i] for i in np.random.default_rng(case).permutation(5)]
    for order in (SHARED_ALPHAS, SHARED_ALPHAS[::-1], shuffled):
        warm = cold(mdl)
        kept = overshoot.OvershootTable(warm, beta)
        got = {}
        for i, a in enumerate(order):
            if i % 2:  # xi first, on the first table
                xis = _xis(kept, a, gammas)
                got[a] = (_routes(kept, a), xis)
            else:  # the routes first, on a fresh table
                table = overshoot.OvershootTable(warm, beta)
                assert table._kept is kept._kept
                got[a] = (_routes(table, a), _xis(table, a, gammas))
        assert repr({a: got[a] for a in SHARED_ALPHAS}) == repr(want)
    # the memo was used: the level set keeps walks and rings
    memos = [lv.memo for lv in kept._kept.levels]
    assert all(memo.walk for memo in memos)
    assert any(memo.rings for memo in memos)


@pytest.mark.parametrize("case", range(3))
def test_kept_entries_equal_a_fresh_evaluation(case):
    # every entry of a level set's memo, against the same quantity taken
    # for a recursion of its own: the a priori walk on levels without a
    # memo, and the ring factors in stacked arrays
    mdl, beta = _shared_cases()[case]
    table = overshoot.OvershootTable(cold(mdl), beta)
    for a in SHARED_ALPHAS:
        table.pi_via_ladders(a)
    levels = table._kept.levels
    shared = _Recursion(ladder._One(), levels)
    plain = _Recursion(ladder._One(), [dataclasses.replace(lv, memo=None) for lv in levels])
    for j, lv in enumerate(levels, start=1):
        for x, r in list(lv.memo.walk):
            for amp in (0.0, 1.5):
                assert repr(shared._amp_walk(j, x, r, amp)) == repr(plain._amp_walk(j, x, r, amp))
        keys = list(lv.memo.rings)
        if not keys:
            continue
        centres, radii = np.array(keys).T
        z = centres[:, None] + radii[:, None] * ladder._UNIT
        with np.errstate(all="ignore"):
            want = (lv.claim.lst_complex(z), (lv.w * lv.nu) / (lv.nu - z), z / lv.nu)
        for i, key in enumerate(keys):
            for got, stacked in zip(lv.memo.rings[key], want):
                assert got.tobytes() == stacked[i : i + 1].tobytes(), (j, key)


def test_pairs_never_share_a_level_set(monkeypatch):
    # two model objects with equal parameters and two betas, alternated:
    # each pair's xi engines run on its own level set, which starts empty
    # when the pair comes back, and every value repeats by repr
    mdl, beta = _shared_cases()[1]
    gammas = _windowed_gammas(mdl, beta)
    betas = (beta, 2.0 * beta)
    want = {
        (b, a): (
            _routes(overshoot.OvershootTable(cold(mdl), b), a),
            _xis(overshoot.OvershootTable(cold(mdl), b), a, gammas),
        )
        for b in betas
        for a in (0.25, 2.7)
    }
    built = []
    init = _Recursion.__init__

    def spy(self, base, levels, *args):
        init(self, base, levels, *args)
        built.append(self)

    monkeypatch.setattr(_Recursion, "__init__", spy)
    objects = (cold(mdl), cold(mdl))
    sets = []
    for _ in range(2):
        for obj in objects:
            for b in betas:
                built.clear()
                table = overshoot.OvershootTable(obj, b)
                levels = table._kept.levels
                assert not any(lv.memo.walk or lv.memo.rings for lv in levels)
                for a in (0.25, 2.7):
                    got = (_routes(table, a), _xis(table, a, gammas))
                    assert repr(got) == repr(want[(b, a)])
                engines = [eng for eng in built if eng.levels]
                assert engines
                for eng in engines:
                    assert all(any(lv is own for own in levels) for lv in eng.levels)
                sets.append(levels)
    # eight pairs in turn, eight level sets, no level shared between two
    ids = [id(lv) for levels in sets for lv in levels]
    assert len(set(ids)) == len(ids)


def test_the_ladder_engines_keep_no_memo():
    mdl, beta = load_model(CONFIGS / "fig2.json")
    table = overshoot.OvershootTable(mdl, beta)
    table.pi_via_ladders(1.0)
    # the ladder's engines of the same pair, and the generic ones, hold no
    # memo
    engines = [ladder.engine(mdl, beta, n) for n in range(mdl.m + 1)]
    engines.append(ladder._generic_engine(ladder.generic_spec_from_drift(mdl, beta, mdl.m)))
    for eng in engines:
        eng.value(0.6)
        assert all(lv.memo is None for lv in eng.levels)
    assert all(lv.memo is not None for lv in table._kept.levels)
    # the memo takes no part in a level's equality or hash
    shared, own = table._kept.levels[0], ladder._LadderLevel(**{
        f: getattr(table._kept.levels[0], f) for f in ("nu", "claim", "p0", "w")
    })
    assert shared == own and hash(shared) == hash(own)


def _chains_sum(table, alpha) -> float:
    """The explicit chain sum as it was first written: every chain built
    from ``combinations`` on each call."""
    m = table.model.m
    zetas = table._zetas(alpha)
    total = 0.0
    for size in range(m + 1):
        for combo in combinations(range(m), size):
            chain = [m] + sorted(combo, reverse=True)
            prod = 1.0
            for a, b in zip(chain, chain[1:]):
                prod *= zetas[a - 1][b]
            last = chain[-1]
            total += prod if last == 0 else prod * table.survive_zero(last)
    return total


@pytest.mark.parametrize("seed", [4, 7])
def test_chains_enumerated_once_sum_alike(seed):
    for mdl, beta in battery_models(seed)[::5]:
        table = overshoot.OvershootTable(mdl, beta)
        for a in (0.0, 1.0, 16.0):
            assert repr(table.pi_explicit_chains(a)) == repr(_chains_sum(table, a))
    assert overshoot._chains(3) is overshoot._chains(3)


def test_chain_budget():
    rng = np.random.default_rng(37)
    mdl = random_drift_model(rng, m_max=4)
    with pytest.raises(ChainBudgetExceeded):
        overshoot.pi_explicit_chains(mdl, 1.0, 1.0, budget=2 ** (mdl.m) - 1)


def test_public_wrappers_at_the_infinite_horizon(m1_model):
    # beta = 0 is the drift model's infinite horizon on every route
    table = overshoot.OvershootTable(m1_model, 0.0)
    for a in (0.0, 0.5, 1.0, 3.0):
        assert overshoot.xi(m1_model, 1, 0, a, 0.0, 2.0) == table.xi(1, 0, a, 2.0)
        assert overshoot.zeta(m1_model, 1, 0, a, 0.0) == table.zeta(1, 0, a)
        want = ladder.pi_max(m1_model, 0.0, 1, a)
        for got in (
            overshoot.pi_via_ladders(m1_model, 0.0, a),
            overshoot.pi_explicit_chains(m1_model, 0.0, a),
        ):
            assert math.isclose(got, want, rel_tol=1e-14)
    assert overshoot.pi_via_ladders(m1_model, 0.0, 1.0) == table.pi_via_ladders(1.0)
    # off the drift model: the regime at any beta, the rule first at beta = 0
    bm = model.ModelSpec(
        m=1, lambda_circ=(1.0,), claims=(claims.Exponential(1.0),),
        regimes=(model.drift(1.0), model.brownian_drift(1.0, 1.0)),
    )
    for beta, error in ((1.0, RegimeMismatch), (0.0, KillingRequired)):
        for call in (
            lambda: overshoot.xi(bm, 1, 0, 0.5, beta, 2.0),
            lambda: overshoot.zeta(bm, 1, 0, 0.5, beta),
            lambda: overshoot.pi_via_ladders(bm, beta, 1.0),
            lambda: overshoot.pi_explicit_chains(bm, beta, 1.0),
        ):
            with pytest.raises(error):
                call()


def test_regime_mismatch():
    mdl = model.ModelSpec(
        m=1, lambda_circ=(1.0,), claims=(claims.Exponential(1.0),),
        regimes=(model.drift(1.0), model.brownian_drift(1.0, 1.0)),
    )
    with pytest.raises(RegimeMismatch):
        overshoot.OvershootTable(mdl, 1.0)


def test_ruin_prob_at_zero_hand_value(m1_model):
    # beta = 0: nu = 1, B(1) = 1/2, zeta_{1,0}(0,0) = 1/2
    assert math.isclose(overshoot.ruin_prob_at_zero(m1_model), 0.5, rel_tol=1e-13)


def test_ruin_prob_at_zero_point_mass_claims():
    mdl = model.ModelSpec(
        m=2, lambda_circ=(1.0, 2.0), claims=(claims.PointMass(0.0),) * 2,
        regimes=(model.drift(1.0),) * 3,
    )
    assert overshoot.ruin_prob_at_zero(mdl) == pytest.approx(0.0, abs=1e-14)


def test_ruin_prob_at_zero_against_monte_carlo():
    mdl = model.ModelSpec(
        m=3,
        lambda_circ=(1.0, 1.5, 0.7),
        claims=(claims.Exponential(0.9), claims.Erlang(2, 2.0), claims.Exponential(1.5)),
        regimes=(model.drift(0.5), model.drift(1.0), model.drift(2.0), model.drift(0.8)),
    )
    p0 = overshoot.ruin_prob_at_zero(mdl)
    sim = simulate.simulate_paths(mdl, 0.0, u_queries=(0.0,), n_paths=400_000, seed=101)
    freq, se = sim.ruin[0.0]
    assert abs(p0 - freq) < 3 * se


def test_overshoot_transform_against_monte_carlo(m1_model):
    # E e^{-a overshoot(0)} on the hit event, split by the remaining count:
    # the transform at level zero is exactly zeta
    table = overshoot.OvershootTable(m1_model, 1.0)
    paths = simulate.simulate_trace(m1_model, 1.0, u_queries=(0.0,), n_paths=200_000, seed=5)
    vals = np.array([
        math.exp(-1.0 * p.overshoot[0]) if p.ruin_level_hit[0] else 0.0
        for p in paths
    ])
    est = vals.mean()
    se = vals.std() / math.sqrt(len(vals))
    assert abs(est - table.zeta(1, 0, 1.0)) < 3 * se


def test_xi_against_monte_carlo_level_integral():
    # integrate the simulated fixed-level overshoot transform against the
    # exponential level density: that is the definition of xi
    mdl = model.ModelSpec(
        m=2,
        lambda_circ=(1.2, 0.8),
        claims=(claims.Erlang(2, 1.0), claims.Exponential(0.7)),
        regimes=(model.drift(0.6), model.drift(1.0), model.drift(1.5)),
    )
    beta, alpha, gamma = 0.9, 0.5, 1.3
    table = overshoot.OvershootTable(mdl, beta)
    u_grid = np.linspace(0.02, 8.0, 80)
    paths = simulate.simulate_trace(
        mdl, beta, u_queries=u_grid, n_paths=100_000, seed=71
    )
    hit = np.array([p.ruin_level_hit for p in paths])
    over = np.array([p.overshoot for p in paths])
    natr = np.array([p.n_at_ruin for p in paths])
    dens = gamma * np.exp(-gamma * u_grid)
    for k in (0, 1):
        weight = np.where(hit & (natr == k), np.exp(-alpha * over), 0.0)
        eta = np.nan_to_num(weight).mean(axis=0)
        est = np.trapezoid(eta * dens, u_grid)
        est += eta[0] * (1.0 - math.exp(-gamma * u_grid[0]))
        exact = table.xi(2, k, alpha, gamma)
        assert abs(est - exact) < 0.05 * exact + 1e-4


def _ph_two_phase():
    return phase_type.PhaseType(
        delta=np.array([0.6, 0.4]), S=np.array([[-2.0, 1.0], [0.0, -0.5]])
    )


def _mp_ph_lst(x):
    ph = _ph_two_phase()
    S = mp.matrix(ph.S.tolist())
    s = -S * mp.matrix([1, 1])
    inv = (x * mp.eye(2) - S) ** -1
    return (mp.matrix([ph.delta.tolist()]) * inv * s)[0]


# claim law and its transform in mpmath
SLOPE_LAWS = {
    "exp": (claims.Exponential(1.5), lambda x: mp.mpf(1.5) / (mp.mpf(1.5) + x)),
    "erlang": (claims.Erlang(3, 2.0), lambda x: (2 / (2 + x)) ** 3),
    "ph": (claims.PhaseTypeClaim(_ph_two_phase()), _mp_ph_lst),
    "point": (claims.PointMass(0.8), lambda x: mp.exp(-mp.mpf(0.8) * x)),
    "lomax": (
        claims.Lomax(1.0, 1.5),
        lambda x: mp.mpf(1.5) * x**1.5 * mp.exp(x) * mp.gammainc(-1.5, x) if x else mp.mpf(1),
    ),
}


@pytest.mark.parametrize("law", sorted(SLOPE_LAWS))
@pytest.mark.parametrize("c", [0.4, 2.5])
@pytest.mark.parametrize("offset", ["same", "+1e-9", "-1e-4", "+0.3c", "-0.3c", "far", "zero"])
def test_slope_against_mpmath(law, c, offset):
    # B[alpha, c] = (C(alpha) - C(c)) / (alpha - c), removable at alpha = c
    claim, ref = SLOPE_LAWS[law]
    alpha = {
        "same": c, "+1e-9": c + 1e-9, "-1e-4": c - 1e-4, "+0.3c": 1.3 * c,
        "-0.3c": 0.7 * c, "far": 6.0 * c, "zero": 0.0,
    }[offset]
    got = _Recursion(overshoot._Slope(claim, c), ()).value(alpha)
    with mp.workdps(50):
        a, b = mp.mpf(alpha), mp.mpf(c)
        want = mp.diff(ref, b) if alpha == c else (ref(a) - ref(b)) / (a - b)
    assert math.isclose(got, float(want), rel_tol=1e-13)


# ------------------------------------------- closed-form divided differences

EPS = np.finfo(float).eps


@pytest.mark.parametrize("law", [claims.Exponential(1.5), claims.Erlang(3, 1.5)], ids=repr)
@pytest.mark.parametrize("c", [1e-4, 1e-3, 1e-2])
def test_slope_at_small_ladder_rates(law, c):
    # a ladder rate far below the claim scale, where the quotient
    # (C(x) - C(c)) / (x - c) cancels on the law's own scale just outside
    # its window: the route's own divided difference keeps 4 eps
    mdl = model.ModelSpec(
        m=1, lambda_circ=(c / 2,), claims=(law,), regimes=(model.drift(1.0),) * 2
    )
    table = overshoot.OvershootTable(mdl, c / 2)
    assert table.nu(1) == c
    slope = table._slope(1)
    for x in [c * q for q in (0.5, 0.64, 1.0, 1.36, 1.5, 2.0, 3.0)]:
        with mp.workdps(50):
            mu, k = mp.mpf(law.mu), getattr(law, "k", 1)
            lst = lambda t: (mu / (mu + t)) ** k
            a, b = mp.mpf(x), mp.mpf(c)
            want = mp.diff(lst, b) if x == c else (lst(a) - lst(b)) / (a - b)
        assert abs(slope(x) - float(want)) <= 4 * EPS * abs(float(want)), x


def test_xi_bases_of_closed_form_laws_have_no_removable_point():
    mdl = random_drift_model(np.random.default_rng(41), m_max=6)
    table = overshoot.OvershootTable(mdl, 1.0)
    for k in range(mdl.m - 1):
        engine = table._xi_engine(k, 0.7)
        assert isinstance(engine.base, overshoot._OvershootForm)
        assert engine.base.removable == ()
        assert [p for p, _ in engine._removable] == [lv.nu for lv in engine.levels]


def test_xi_engines_keep_contour_means_at_level_rate_windows(monkeypatch):
    # seed 4's r125 of the transform battery: six ladder rates from 0.566 to
    # 1.697, each within a window of another.  The overshoot recursions are
    # built without ``direct``, so their level-rate windows stay contour
    # means, unlike the ladder's small engines; no circle is taken for the
    # bases, which have no removable point
    mdl, beta = battery_models(4)[125]
    stacked = []
    stack = _Recursion._stack

    def spy(self, blocks):
        stacked.append((self, list(blocks)))
        return stack(self, blocks)

    monkeypatch.setattr(_Recursion, "_stack", spy)
    table = overshoot.OvershootTable(cold(mdl), beta)
    for a in BATTERY_ALPHAS:
        table.pi_via_ladders(a)
    xi = [(eng, blocks) for eng, blocks in stacked if isinstance(eng.base, overshoot._OvershootForm)]
    assert sum(len(blocks) for _, blocks in xi) >= 20
    assert all(type(eng.base) is overshoot._OvershootForm for eng, _ in stacked)
    for eng, blocks in xi:
        assert not eng._direct
        for level, x in blocks:
            assert level >= 1
            assert any(
                abs(x - lv.nu) <= WINDOW * lv.nu for lv in eng.levels[:level]
            ), (level, x)


# Lomax and point-mass laws have no closed-form divided difference: their
# slopes, bases and routes keep the quotient and its contour means, bit for
# bit (values recorded before the closed forms came in)
PINNED = {
    ('lomax', 'slope', 0.4, 0.0): -0.7588167240771173,
    ('lomax', 'slope', 0.4, 0.27999999999999997): -0.49340176751020115,
    ('lomax', 'slope', 0.4, 0.4): -0.44175177574652424,
    ('lomax', 'slope', 0.4, 0.48): -0.41418395836403077,
    ('lomax', 'slope', 0.4, 2.4000000000000004): -0.18081321185310628,
    ('lomax', 'slope', 2.5, 0.0): -0.26921482696979543,
    ('lomax', 'slope', 2.5, 1.75): -0.09495458339118454,
    ('lomax', 'slope', 2.5, 2.5): -0.07685930787918148,
    ('lomax', 'slope', 2.5, 3.0): -0.06834276722814162,
    ('lomax', 'slope', 2.5, 15.0): -0.019248394600528348,
    ('lomax', 'base', 2.0, 0.3): 0.02576386680368441,
    ('lomax', 'base', 2.0, 1.0): 0.05267899305220184,
    ('lomax', 'base', 2.0, 1.1): 0.05511277167582085,
    ('lomax', 'base', 2.0, 2.0): 0.07033550081752071,
    ('lomax', 'base', 2.0, 2.4): 0.0747745493135316,
    ('lomax', 'base', 2.0, 5.0): 0.09042301472302285,
    ('lomax', 'pi_via_ladders', 0.8, 0.0): 1.0,
    ('lomax', 'xi', 1.3, 0.0): 0.05100072119992105,
    ('lomax', 'pi_via_ladders', 0.8, 0.5): 0.8236386184059534,
    ('lomax', 'xi', 1.3, 0.5): 0.025426348961297814,
    ('lomax', 'pi_via_ladders', 0.8, 2.0): 0.7343561335317819,
    ('lomax', 'xi', 1.3, 2.0): 0.011959222303192029,
    ('point', 'slope', 0.4, 0.0): -0.6846274073157729,
    ('point', 'slope', 0.4, 0.27999999999999997): -0.6097174774639516,
    ('point', 'slope', 0.4, 0.4): -0.5809192296589527,
    ('point', 'slope', 0.4, 0.48): -0.5627201236767976,
    ('point', 'slope', 0.4, 2.4000000000000004): -0.2897710374716703,
    ('point', 'slope', 2.5, 0.0): -0.3458658867053549,
    ('point', 'slope', 2.5, 1.75): -0.14834890760665836,
    ('point', 'slope', 2.5, 2.5): -0.10826822658929014,
    ('point', 'slope', 2.5, 3.0): -0.08923465989440035,
    ('point', 'slope', 2.5, 15.0): -0.01082633112194075,
    ('point', 'base', 2.0, 0.3): 0.03309502883970466,
    ('point', 'base', 2.0, 1.0): 0.08962458013696888,
    ('point', 'base', 2.0, 1.1): 0.0958496764953064,
    ('point', 'base', 2.0, 2.0): 0.13746437076294699,
    ('point', 'base', 2.0, 2.4): 0.149771734576187,
    ('point', 'base', 2.0, 5.0): 0.18623881975392576,
    ('point', 'pi_via_ladders', 0.8, 0.0): 1.0,
    ('point', 'xi', 1.3, 0.0): 0.040161751159180074,
    ('point', 'pi_via_ladders', 0.8, 0.5): 0.8839103939382549,
    ('point', 'xi', 1.3, 0.5): 0.0347393931997346,
    ('point', 'pi_via_ladders', 0.8, 2.0): 0.7288727969595324,
    ('point', 'xi', 1.3, 2.0): 0.023713360604454232,
}


def test_lomax_and_point_mass_routes_are_unchanged():
    laws = {"lomax": claims.Lomax(1.0, 1.5), "point": claims.PointMass(0.8)}
    got = {}
    for name, law in laws.items():
        for c in (0.4, 2.5):
            for x in (0.0, 0.7 * c, c, 1.2 * c, 6.0 * c):
                got[(name, "slope", c, x)] = _Recursion(overshoot._Slope(law, c), ()).value(x)
        dd = _Recursion(overshoot._Slope(law, 2.0), ()).value(1.0)
        for x in (0.3, 1.0, 1.1, 2.0, 2.4, 5.0):
            base = overshoot._OvershootBase(law, alpha=1.0, nu=2.0, scale=0.8, dd=dd)
            got[(name, "base", 2.0, x)] = _Recursion(base, ()).value(x)
        mdl = model.ModelSpec(
            m=3, lambda_circ=(1.0, 1.5, 0.7), claims=(law,) * 3,
            regimes=(model.drift(0.5), model.drift(1.0), model.drift(2.0), model.drift(0.8)),
        )
        table = overshoot.OvershootTable(mdl, 0.8)
        for a in (0.0, 0.5, 2.0):
            got[(name, "pi_via_ladders", 0.8, a)] = table.pi_via_ladders(a)
            got[(name, "xi", 1.3, a)] = table.xi(3, 1, a, 1.3)
    assert {k: repr(v) for k, v in got.items()} == {k: repr(v) for k, v in PINNED.items()}
