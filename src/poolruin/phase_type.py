"""Phase-type distribution algebra.

A phase-type law is the absorption time of a finite-state Markov chain with
transient generator block ``S``, initial distribution ``delta`` over the
transient states and an atom ``delta_abs`` at zero.  The module provides the
transform, density and survival function, convolution, the inductive
construction of the running-maximum law in the drift model with
phase-type claims, and the exact dominant tail term from the resolvent's
Laurent coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._lazy import LazyModule
from .errors import NoConvergence, NotPhaseType, PoolRuinError, SingularSystem
from .errors import require_nonnegative
from .seriesops import Taylor

linalg = LazyModule("scipy.linalg")

_VALID_ATOL = 1e-10

# Most phases of a dense generator: ph_tail's d x d matrix exponential takes 0.7 s
# per level at d = 1024 (2 cores, 150 MB peak) and grows as d^3 (k = 10^6: 7 TiB).
MAX_DENSE_PHASES = 1024

@dataclass(frozen=True)
class PhaseType:
    """Transient generator ``S``, initial vector ``delta``, atom ``delta_abs``."""

    delta: np.ndarray
    S: np.ndarray
    delta_abs: float = 0.0
    s: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        delta = np.atleast_1d(np.asarray(self.delta, dtype=float))
        S = np.asarray(self.S, dtype=float)
        if delta.ndim != 1:
            raise ValueError("delta must be a vector")
        for name, value in (("delta", delta), ("S", S), ("delta_abs", self.delta_abs)):
            if not np.isfinite(value).all():
                raise ValueError(f"PhaseType: {name} must be finite")
        d = delta.shape[0]
        if S.shape != (d, d):
            raise ValueError(f"S must be {d}x{d}, got {S.shape}")
        if np.any(delta < -_VALID_ATOL):
            raise ValueError("delta entries must be nonnegative")
        if self.delta_abs < -_VALID_ATOL:
            raise ValueError("delta_abs must be nonnegative")
        delta = np.clip(delta, 0.0, None)
        if self.delta_abs < 0.0:
            object.__setattr__(self, "delta_abs", 0.0)
        if abs(delta.sum() + self.delta_abs - 1.0) > 1e-12:
            raise ValueError("delta must sum to 1 - delta_abs")
        off = S - np.diag(np.diag(S))
        if np.any(off < -_VALID_ATOL):
            raise ValueError("off-diagonal rates must be nonnegative")
        if np.any(np.diag(S) >= 0.0):
            raise ValueError("diagonal of S must be negative")
        scale = np.abs(np.diag(S)).max(initial=0.0)
        # a row sum rounds on the scale of its rates
        if np.any(S.sum(axis=1) > _VALID_ATOL * max(1.0, scale)):
            raise ValueError("row sums of S must be nonpositive")
        # relative to S's rate scale: slow laws pass, singular S never does
        if np.any(np.linalg.eigvals(S).real >= -1e-14 * scale):
            raise ValueError("S must be a stable (nonsingular) phase generator")
        exit_vec = -S @ np.ones(d)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "s", np.clip(exit_vec, 0.0, None))
        self.delta.setflags(write=False)
        self.S.setflags(write=False)
        self.s.setflags(write=False)

    @property
    def d(self) -> int:
        return self.delta.shape[0]

    def __eq__(self, other):
        if not isinstance(other, PhaseType):
            return NotImplemented
        return (
            self.d == other.d
            and self.delta_abs == other.delta_abs
            and np.array_equal(self.delta, other.delta)
            and np.array_equal(self.S, other.S)
        )

    def __hash__(self):
        return hash((self.d, self.delta_abs, self.delta.tobytes(), self.S.tobytes()))


def point_mass_zero() -> PhaseType:
    """Degenerate phase type concentrated at 0 (convolution identity)."""
    return PhaseType(delta=np.zeros(0), S=np.zeros((0, 0)), delta_abs=1.0)


def ph_lst(ph: PhaseType, alpha: float) -> float:
    """Transform delta_abs + delta^T (alpha I - S)^(-1) s via one solve."""
    require_nonnegative("alpha", alpha)
    try:
        x = np.linalg.solve(alpha * np.eye(ph.d) - ph.S, ph.s)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - valid PH cannot hit this
        raise SingularSystem(str(exc)) from exc
    return float(ph.delta_abs + ph.delta @ x)


def ph_lst_complement(ph: PhaseType, alpha: float) -> float:
    """1 - transform as alpha delta^T (alpha I - S)^(-1) 1, which does not
    cancel at small alpha: (alpha I - S) 1 = alpha 1 + s and delta^T 1 =
    1 - delta_abs."""
    require_nonnegative("alpha", alpha)
    try:
        x = np.linalg.solve(alpha * np.eye(ph.d) - ph.S, np.ones(ph.d))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - valid PH cannot hit this
        raise SingularSystem(str(exc)) from exc
    return float(alpha * (ph.delta @ x))


def ph_lst_complement_complex(ph: PhaseType, z: np.ndarray) -> np.ndarray:
    """1 - transform at an array of complex arguments, as
    z delta^T (z I - S)^(-1) 1 by one batched solve (see
    :func:`ph_lst_complement`); Re z < 0 is allowed, a non-finite entry
    refused."""
    z = np.asarray(z, dtype=complex)
    if not np.isfinite(z).all():
        raise ValueError("z must be finite: an entry is NaN or infinite")
    if ph.d == 0:  # z times the empty sum reads -0.0 real parts where Re z < 0
        return np.full(z.shape, complex(1.0 - ph.delta_abs))
    mats = z.reshape(-1, 1, 1) * np.eye(ph.d) - ph.S
    x = np.linalg.solve(mats, np.ones((mats.shape[0], ph.d, 1)))[..., 0]
    weighted = x @ ph.delta  # named: never an elided right operand
    return (z.reshape(-1) * weighted).reshape(z.shape)


def ph_lst_complex(ph: PhaseType, z: np.ndarray) -> np.ndarray:
    """Transform at an array of complex arguments by one batched solve of
    (z I - S) x = s; a non-finite entry is refused."""
    z = np.asarray(z, dtype=complex)
    if not np.isfinite(z).all():
        raise ValueError("z must be finite: an entry is NaN or infinite")
    eye = np.eye(ph.d)
    mats = z.reshape(-1, 1, 1) * eye - ph.S
    rhs = np.broadcast_to(ph.s, (mats.shape[0], ph.d))[..., None]
    x = np.linalg.solve(mats, rhs)[..., 0]
    return (ph.delta_abs + x @ ph.delta).reshape(z.shape)


def ph_abscissa(ph: PhaseType) -> float:
    """Distance from zero to the transform's rightmost pole, which is the
    spectral abscissa of S with its sign flipped (inf for the point mass
    at zero)."""
    return -float(np.max(np.linalg.eigvals(ph.S).real, initial=-math.inf))


def ph_lst_series(ph: PhaseType, alpha: float, order: int) -> Taylor:
    """Taylor coefficients of the transform around ``alpha``.

    The i-th coefficient is (-1)^i delta^T (alpha I - S)^(-(i+1)) s, obtained
    by repeated solves against one factorization.
    """
    require_nonnegative("alpha", alpha)
    if ph.d == 0:  # the alternating sign would read -0.0 at odd orders
        return Taylor.constant(ph.delta_abs, order)
    A = alpha * np.eye(ph.d) - ph.S
    lu, piv = linalg.lu_factor(A)
    coeffs = []
    v = ph.s
    sign = 1.0
    for i in range(order + 1):
        v = linalg.lu_solve((lu, piv), v)
        coeffs.append(sign * float(ph.delta @ v))
        sign = -sign
    coeffs[0] += ph.delta_abs
    return Taylor(coeffs)


def ph_mean(ph: PhaseType) -> float:
    return float(ph.delta @ np.linalg.solve(-ph.S, np.ones(ph.d)))


def ph_second_moment(ph: PhaseType) -> float:
    one = np.ones(ph.d)
    x = np.linalg.solve(-ph.S, one)
    return float(2.0 * ph.delta @ np.linalg.solve(-ph.S, x))


def ph_convolve(u: PhaseType, v: PhaseType) -> PhaseType:
    """Phase-type law of the sum of two independent phase-type variables.

    Block construction: the U chain runs first and feeds V's initial vector
    through the exit rates; exits bypass V entirely when V has an atom.
    """
    if u.d == 0:  # pure atom at zero, convolution identity
        return v
    if v.d == 0:
        return u
    S, delta, atom = _append(u.S, u.s, u.delta, u.delta_abs, v)
    return PhaseType(delta=delta, S=S, delta_abs=atom)


def _append(S: np.ndarray, s: np.ndarray, delta: np.ndarray, atom: float, v: PhaseType):
    """Generator, initial vector and atom of X + V, for X with generator
    ``S``, exit rates ``s``, initial vector ``delta`` and atom ``atom``:
    X's block comes first and its exits feed V's initial vector, and X's
    atom passes straight to V."""
    d0 = S.shape[0]
    dw = d0 + v.d
    S_new = np.zeros((dw, dw))
    S_new[:d0, :d0] = S
    S_new[:d0, d0:] = np.outer(s, v.delta)
    S_new[d0:, d0:] = v.S
    return S_new, np.concatenate([delta, atom * v.delta]), atom * v.delta_abs


def _reached_law(ph: PhaseType) -> PhaseType:
    """The law on the phases that ``delta``'s support reaches through
    positive off-diagonal rates (the diagonal is negative): that set is
    closed, so this is the same law, and the other phases' eigenvalues and
    rounding drop out.  ``ph`` itself when it reaches every phase."""
    reached = new = ph.delta > 0.0
    while new.any():  # each phase's row is read once
        new = (ph.S[new] > 0.0).any(axis=0) & ~reached
        reached = reached | new
    if reached.all():
        return ph
    return PhaseType(
        delta=ph.delta[reached], S=ph.S[np.ix_(reached, reached)], delta_abs=ph.delta_abs
    )


def _absorbed(ph: PhaseType, u: float, right: np.ndarray) -> float:
    """delta^T exp(S u) right at u >= 0.  Once |S u| passes about 1e38,
    scipy's expm turns NaN, far past where every entry underflows: then
    exp(S u) = exp(S v) exp(S (u - v)) is zero if exp(S v) is exactly zero
    at the smaller reserve v with |S v| = 2^100; otherwise
    :class:`PoolRuinError` names u."""
    val = float(ph.delta @ (linalg.expm(ph.S * u) @ right))
    if math.isfinite(val):
        return val
    v = math.ldexp(1.0, 100) / np.linalg.norm(ph.S, 1)
    if v < u and not linalg.expm(ph.S * v).any():
        return 0.0
    raise PoolRuinError(f"phase-type matrix exponential at u = {u!r} is not finite")


def ph_tail(ph: PhaseType, u: float) -> float:
    """Survival probability delta^T exp(S u) 1 (excludes the atom at zero),
    on the phases the law reaches (:func:`_reached_law`)."""
    require_nonnegative("u", u)
    ph = _reached_law(ph)
    tail = float(ph.delta.sum()) if u == 0.0 else _absorbed(ph, u, np.ones(ph.d))
    return min(max(tail, 0.0), 1.0)


def ph_density(ph: PhaseType, u: float) -> float:
    """Density of the absolutely continuous part, delta^T exp(S u) s, on
    the phases the law reaches (:func:`_reached_law`)."""
    require_nonnegative("u", u)
    ph = _reached_law(ph)
    return max(_absorbed(ph, u, ph.s), 0.0)


def ph_sample(ph: PhaseType, rng: np.random.Generator, size: int) -> np.ndarray:
    """Exact absorption-time sampling of the underlying Markov chain."""
    if ph.d == 0:  # the general path would draw the absorbed states from the stream
        return np.zeros(size)
    d = ph.d
    rates = -np.diag(ph.S)
    # embedded jump chain: row-stochastic over (d transient + absorption)
    jump = np.zeros((d, d + 1))
    for i in range(d):
        row = ph.S[i].copy()
        row[i] = 0.0
        jump[i, :d] = row / rates[i]
        jump[i, d] = ph.s[i] / rates[i]
    cum = np.cumsum(jump, axis=1)
    probs = np.concatenate([ph.delta, [ph.delta_abs]])
    probs = probs / probs.sum()
    state = rng.choice(d + 1, size=size, p=probs)
    t = np.zeros(size)
    active = state < d
    while active.any():
        idx = np.nonzero(active)[0]
        s = state[idx]
        t[idx] += rng.exponential(1.0 / rates[s])
        nxt = (rng.random(idx.size)[:, None] > cum[s]).sum(axis=1)
        state[idx] = nxt
        active[idx] = nxt < d
    return t


def running_max_ph(model, beta: float, n: int) -> PhaseType:
    """Exact phase-type law of the running maximum killed at rate ``beta``,
    or over the infinite horizon at beta = 0 (see ``require_killing``).

    Requires the drift model (positive pure drifts in every state with
    clients, see ``is_drift_model``) and a phase-type claim law for every
    client; the laws may differ from client to client.  Starting with ``n``
    clients the result stacks one block per client on the diagonal, the
    block of state ``k`` built from ``model.claim_for_state(k)``'s own
    ``(delta, S)``, with rank-one couplings ``s_prev delta_k^T``.  The
    initial vector follows the two-step induction (append the claim block,
    then resolve it against the exponential ladder rate nu_k = lambda_k /
    r_k).  More than ``MAX_DENSE_PHASES`` phases raise :class:`NotPhaseType`.

    Each level's rate nu_k, thinning weight and kill atom are read from the
    ladder's level records (:func:`poolruin.ladder._levels`).  The law is
    kept by ``n`` in the thread's store for (model object, beta), beside
    the ladder engines (:func:`poolruin.ladder._kept`), so a repeated
    call returns the same object; the arguments are checked on every call,
    and a build that raised keeps nothing.  The law is frozen and its
    arrays read-only, so the sharing moves no value.
    """
    # model imports claims, which imports this module; ladder imports model
    from .ladder import _kept
    from .model import require_drift_model, require_killing

    require_killing(model, beta, "running_max_ph")
    if not 0 <= n <= model.m:
        raise ValueError("n must lie in 0..m")
    require_drift_model(model, "running_max_ph")
    return _kept(model, beta, ("law", n), lambda: _running_max_law(model, beta, n))


def _running_max_law(model, beta: float, n: int) -> PhaseType:
    """The law on the first ``n`` level records (:func:`poolruin.ladder._levels`)."""
    from .ladder import _levels

    levels = _levels(model, beta)[:n]
    blocks = []
    for lv in levels:
        blocks.append(lv.claim.phase_type())
        if blocks[-1] is None:
            raise NotPhaseType(f"claim kind {lv.claim.kind!r} has no phase-type representation")
    dim = sum(block.d for block in blocks)
    if dim > MAX_DENSE_PHASES:
        raise NotPhaseType(f"{dim} phases are above the dense phase bound")

    S_cur = np.zeros((0, 0))
    s_cur = np.zeros(0)
    delta_cur = np.zeros(0)
    atom_cur = 1.0
    for lv, claim_ph in zip(levels, blocks):
        # append the new claim block, fed by the unclipped exit rates s_cur
        S_cur, delta_prime, atom_prime = _append(S_cur, s_cur, delta_cur, atom_cur, claim_ph)
        kd = S_cur.shape[0]
        s_cur = -S_cur @ np.ones(kd)
        if kd == 0:  # every claim so far is the point mass at zero: the atom stays 1
            continue
        resolvent = np.linalg.solve((lv.nu * np.eye(kd) - S_cur).T, delta_prime)
        delta_cur = lv.w * lv.nu * resolvent
        # 1 - sum(delta_cur) as nonnegative terms (nu (nu I - S)^(-1) 1 =
        # 1 - (nu I - S)^(-1) s): the difference cancels below zero where
        # ruin is nearly certain
        atom_cur = lv.p0 + lv.w * (atom_prime + float(resolvent @ s_cur))
    return PhaseType(delta=delta_cur, S=S_cur, delta_abs=atom_cur)


@dataclass(frozen=True)
class SpectralTail:
    """Dominant tail term coeff u^(mult-1) e^(-mu u), and the Laurent
    coefficients (a_{-1}, ..., a_{-mult}) of the tail's transform at -mu: the
    cluster's whole term is e^(-mu u) sum_j a_{-j} u^(j-1) / (j-1)!."""

    mu: float
    mult: int
    coeff: float
    laurent: tuple


def spectral_tail(ph: PhaseType) -> SpectralTail:
    """Exact dominant term of the tail delta^T exp(S u) 1 from the Laurent
    coefficients of its transform R(z) = delta^T (z I - S)^(-1) 1 at the
    rightmost eigenvalue -mu of S (Asmussen & Albrecher 2010, *Ruin
    Probabilities*, ch. IX): a_{-j} = mean(R(z) w^j) over 256 nodes z = -mu
    + w on a circle of radius half the gap to the rest of the spectrum, at
    most mu / 2, so R = ``ph_lst_complement_complex(ph, z) / z`` there.  The
    multiplicity is the last j whose coefficient is above the rounding floor,
    the coefficient a_{-mult} / (mult - 1)!.  :class:`NoConvergence` where the
    coefficients do not resolve (none above the floor, one past the
    eigenvalue's multiplicity, or a leading one not positive and real);
    :class:`ValueError` for the point mass at zero.

    The spectrum read is that of the phases the law reaches
    (:func:`_reached_law`): the eigenvalues of the other phases are no
    poles of R."""
    ph = _reached_law(ph)
    if ph.d == 0:
        raise ValueError("the point mass at zero has no tail")
    eigs = np.linalg.eigvals(ph.S)
    mu = -float(eigs.real.max())
    dist = np.abs(eigs + mu)
    cluster = dist <= 1e-8 * mu  # -mu and its copies up to rounding
    radius = min(dist[~cluster].min(initial=math.inf), mu) / 2.0
    w = radius * np.exp(2j * np.pi * np.arange(256) / 256)
    z = w - mu
    R = ph_lst_complement_complex(ph, z) / z
    # up to one past the eigenvalue's multiplicity, far below the aliasing order
    js = np.arange(1, min(int(cluster.sum()) + 1, 128) + 1)
    coeffs = (R * w ** js[:, None]).mean(axis=1)
    floor = 1e-12 * np.abs(R).max() * radius**js  # the mean rounds near eps of this
    above = np.nonzero(np.abs(coeffs) > floor)[0]
    mult = int(above[-1]) + 1 if above.size else 0
    if mult in (0, js.size) or coeffs[mult - 1].real <= 0.0 or (abs(coeffs.imag) > floor).any():
        raise NoConvergence(f"Laurent coefficients of the tail at -{mu!r} do not resolve")
    laurent = tuple(coeffs[:mult].real.tolist())
    return SpectralTail(mu, mult, laurent[-1] / math.factorial(mult - 1), laurent)
