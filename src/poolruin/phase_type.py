"""Phase-type distribution algebra.

A phase-type law is the absorption time of a finite-state Markov chain with
transient generator block ``S``, initial distribution ``delta`` over the
transient states and an atom ``delta_abs`` at zero.  The module provides the
transform, density and survival function, convolution, the inductive
construction of the running-maximum law in the drift model with
phase-type claims, and the Erlang-like spectral tail extraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._lazy import LazyModule
from .errors import NoConvergence, NotPhaseType, SingularSystem
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
        delta = np.clip(delta, 0.0, None)
        if abs(delta.sum() + self.delta_abs - 1.0) > 1e-12:
            raise ValueError("delta must sum to 1 - delta_abs")
        if d > 0:
            off = S - np.diag(np.diag(S))
            if np.any(off < -_VALID_ATOL):
                raise ValueError("off-diagonal rates must be nonnegative")
            if np.any(np.diag(S) >= 0.0):
                raise ValueError("diagonal of S must be negative")
            scale = np.abs(np.diag(S)).max()
            # a row sum rounds on the scale of its rates
            if np.any(S.sum(axis=1) > _VALID_ATOL * max(1.0, scale)):
                raise ValueError("row sums of S must be nonpositive")
            # relative to S's rate scale: slow laws pass, singular S never does
            if np.any(np.linalg.eigvals(S).real >= -1e-14 * scale):
                raise ValueError("S must be a stable (nonsingular) phase generator")
        exit_vec = -S @ np.ones(d) if d > 0 else np.zeros(0)
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
    if not alpha >= 0:
        raise ValueError("alpha must be nonnegative")
    if ph.d == 0:
        return ph.delta_abs
    try:
        x = np.linalg.solve(alpha * np.eye(ph.d) - ph.S, ph.s)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - valid PH cannot hit this
        raise SingularSystem(str(exc)) from exc
    return float(ph.delta_abs + ph.delta @ x)


def ph_lst_complement(ph: PhaseType, alpha: float) -> float:
    """1 - transform as alpha delta^T (alpha I - S)^(-1) 1, which does not
    cancel at small alpha: (alpha I - S) 1 = alpha 1 + s and delta^T 1 =
    1 - delta_abs."""
    if not alpha >= 0:
        raise ValueError("alpha must be nonnegative")
    if ph.d == 0:
        return 1.0 - ph.delta_abs
    try:
        x = np.linalg.solve(alpha * np.eye(ph.d) - ph.S, np.ones(ph.d))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - valid PH cannot hit this
        raise SingularSystem(str(exc)) from exc
    return float(alpha * (ph.delta @ x))


def ph_lst_complement_complex(ph: PhaseType, z: np.ndarray) -> np.ndarray:
    """1 - transform at an array of complex arguments, as
    z delta^T (z I - S)^(-1) 1 by one batched solve (see
    :func:`ph_lst_complement`)."""
    z = np.asarray(z, dtype=complex)
    if ph.d == 0:
        return np.full(z.shape, complex(1.0 - ph.delta_abs))
    mats = z.reshape(-1, 1, 1) * np.eye(ph.d) - ph.S
    x = np.linalg.solve(mats, np.ones((mats.shape[0], ph.d, 1)))[..., 0]
    weighted = x @ ph.delta  # named: never an elided right operand
    return (z.reshape(-1) * weighted).reshape(z.shape)


def ph_lst_complex(ph: PhaseType, z: np.ndarray) -> np.ndarray:
    """Transform at an array of complex arguments by one batched solve of
    (z I - S) x = s."""
    z = np.asarray(z, dtype=complex)
    if ph.d == 0:
        return np.full(z.shape, complex(ph.delta_abs))
    eye = np.eye(ph.d)
    mats = z.reshape(-1, 1, 1) * eye - ph.S
    rhs = np.broadcast_to(ph.s, (mats.shape[0], ph.d))[..., None]
    x = np.linalg.solve(mats, rhs)[..., 0]
    return (ph.delta_abs + x @ ph.delta).reshape(z.shape)


def ph_abscissa(ph: PhaseType) -> float:
    """Distance from zero to the transform's rightmost pole, which is the
    spectral abscissa of S with its sign flipped (inf for the point mass
    at zero)."""
    if ph.d == 0:
        return float("inf")
    return -float(np.max(np.linalg.eigvals(ph.S).real))


def ph_lst_series(ph: PhaseType, alpha: float, order: int) -> Taylor:
    """Taylor coefficients of the transform around ``alpha``.

    The i-th coefficient is (-1)^i delta^T (alpha I - S)^(-(i+1)) s, obtained
    by repeated solves against one factorization.
    """
    if ph.d == 0:
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
    if ph.d == 0:
        return 0.0
    return float(ph.delta @ np.linalg.solve(-ph.S, np.ones(ph.d)))


def ph_second_moment(ph: PhaseType) -> float:
    if ph.d == 0:
        return 0.0
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
    dw = u.d + v.d
    S = np.zeros((dw, dw))
    S[: u.d, : u.d] = u.S
    S[: u.d, u.d :] = np.outer(u.s, v.delta)
    S[u.d :, u.d :] = v.S
    delta = np.concatenate([u.delta, u.delta_abs * v.delta])
    return PhaseType(delta=delta, S=S, delta_abs=u.delta_abs * v.delta_abs)


def ph_tail(ph: PhaseType, u: float) -> float:
    """Survival probability delta^T exp(S u) 1 (excludes the atom at zero)."""
    if not u >= 0:
        raise ValueError("u must be nonnegative")
    if ph.d == 0:
        return 0.0
    if u == 0.0:
        return float(ph.delta.sum())
    val = float(ph.delta @ (linalg.expm(ph.S * u) @ np.ones(ph.d)))
    return min(max(val, 0.0), 1.0)


def ph_density(ph: PhaseType, u: float) -> float:
    """Density of the absolutely continuous part, delta^T exp(S u) s."""
    if ph.d == 0:
        return 0.0
    if u < 0:
        raise ValueError("u must be nonnegative")
    return max(float(ph.delta @ (linalg.expm(ph.S * u) @ ph.s)), 0.0)


def ph_sample(ph: PhaseType, rng: np.random.Generator, size: int) -> np.ndarray:
    """Exact absorption-time sampling of the underlying Markov chain."""
    if ph.d == 0:
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
    """
    # model imports claims, which imports this module
    from .model import require_drift_model, require_killing

    require_killing(model, beta, "running_max_ph")
    if not 0 <= n <= model.m:
        raise ValueError("n must lie in 0..m")
    require_drift_model(model, "running_max_ph")
    blocks = []
    for k in range(1, n + 1):
        claim = model.claim_for_state(k)
        claim_ph = claim.phase_type()
        if claim_ph is None:
            raise NotPhaseType(
                f"claim kind {claim.kind!r} has no phase-type representation"
            )
        blocks.append(claim_ph)
    dim = sum(block.d for block in blocks)
    if dim > MAX_DENSE_PHASES:
        raise NotPhaseType(f"{dim} phases are above the dense phase bound")

    S_cur = np.zeros((0, 0))
    delta_cur = np.zeros(0)
    atom_cur = 1.0
    for k, claim_ph in enumerate(blocks, start=1):
        d0 = S_cur.shape[0]
        kd = d0 + claim_ph.d
        S_new = np.zeros((kd, kd))
        S_new[:d0, :d0] = S_cur
        s_prev = -S_cur @ np.ones(d0)
        S_new[:d0, d0:] = np.outer(s_prev, claim_ph.delta)
        S_new[d0:, d0:] = claim_ph.S
        S_cur = S_new
        if kd == 0:  # every claim so far is the point mass at zero
            continue
        # append the new claim block to the initial vector
        delta_prime = np.concatenate([delta_cur, atom_cur * claim_ph.delta])
        lam_circ = model.lambda_circ[k - 1]
        lam = lam_circ + beta
        nu = lam / model.regimes[k].r
        resolvent = np.linalg.solve((nu * np.eye(kd) - S_cur).T, delta_prime)
        delta_cur = (lam_circ / lam) * nu * resolvent
        atom_cur = 1.0 - float(delta_cur.sum())
    if S_cur.shape[0] == 0:
        return point_mass_zero()
    return PhaseType(delta=delta_cur, S=S_cur, delta_abs=atom_cur)


@dataclass(frozen=True)
class SpectralTail:
    """Dominant tail e^{-mu u} u^{mult-1} with its limiting coefficient."""

    mu: float
    mult: int
    coeff: float


def spectral_tail(
    ph: PhaseType,
    d1: int,
    claim_dim: Optional[int] = None,
    rtol: float = 0.005,
) -> SpectralTail:
    """Extract the Erlang-like tail of a stacked running-maximum phase type.

    ``d1`` is the algebraic multiplicity of the dominant eigenvalue within one
    claim block and ``claim_dim`` the block size (defaults to the whole
    matrix).  The decay rate comes from the claim block spectrum; the
    polynomial order is *extracted* by scanning candidate multiplicities for
    the one whose ratio tail(u) / (e^{-mu u} u^{mult-1}) stabilizes on a
    geometric grid, and the coefficient is the Richardson-extrapolated limit.
    Raises :class:`NoConvergence` when no candidate stabilizes (complex or
    non-dominant spectrum).
    """
    if claim_dim is None:
        claim_dim = ph.d
    if ph.d % claim_dim != 0:
        raise ValueError("claim_dim must divide the phase dimension")
    m_blocks = ph.d // claim_dim
    block = ph.S[:claim_dim, :claim_dim]
    eigs = np.linalg.eigvals(block)
    lead = eigs[np.argmax(eigs.real)]
    if abs(lead.imag) > 1e-8 * max(1.0, abs(lead.real)):
        raise NoConvergence("dominant eigenvalue of the claim block is complex")
    mu = -float(lead.real)
    if mu <= 0.0:
        raise NoConvergence("claim block is not stable")

    q = 1.25
    u0 = max(2.0 / mu, 1.0)
    n_grid = 40
    grid = [u0 * q**i for i in range(n_grid)]
    tails = []
    for u in grid:
        if mu * u > 600.0:
            break
        t = ph_tail(ph, u)
        if t <= 1e-280:
            break
        tails.append((u, t))
    if len(tails) < 6:
        raise NoConvergence("tail underflows before the asymptote stabilizes")

    best = None
    for cand in range(1, m_blocks * d1 + d1 + 1):
        ratios = [t / (np.exp(-mu * u) * u ** (cand - 1)) for u, t in tails]
        # Richardson step removes the O(1/u) correction on a geometric grid
        extrap = [
            (q * ratios[i + 1] - ratios[i]) / (q - 1.0)
            for i in range(len(ratios) - 1)
        ]
        tail_win = extrap[-4:]
        mid = tail_win[-1]
        if mid <= 0.0 or not np.isfinite(mid):
            continue
        drift = max(abs(x / mid - 1.0) for x in tail_win)
        if drift < rtol:
            if best is None or drift < best[1]:
                best = (cand, drift, mid)
    if best is None:
        raise NoConvergence("no candidate multiplicity stabilized the tail ratio")
    return SpectralTail(mu=mu, mult=best[0], coeff=float(best[2]))
