"""Measurement strength, information and disturbance functionals.

The strength of a measurement is defined through the average uncertainty it
leaves behind when applied to the maximally mixed state: sharper measurements
leave purer (lower-entropy) conditional states.  Disturbance is the entropy
gained (or purity lost) by the outcome-averaged state.  Both notions use the
final, post-measurement state, which is what a feedback controller acts on.

The outcome terms, the uncertainties and the disturbance also take a stack
of sets (..., n, N, N) and give each set the bits it gets on its own;
theta_sweep runs all its angles in one pass this way.
"""

import math
from dataclasses import dataclass

import numpy as np

from .states import (
    _checked,
    _count,
    _finite,
    _spectral_entropy,
    check_density_matrix,
    check_hermitian,
    overlap,
    purity,
    von_neumann_entropy,
)
from .povm import (
    EPS_PROB,
    MeasurementOperatorSet,
    _averaged,
    _effects,
    _kappa_stack,
    _sandwich,
    _validated,
)


@dataclass(frozen=True)
class StrengthReport:
    u_v: float   # average post-measurement von Neumann entropy at I/N (nats)
    u_p: float   # average post-measurement impurity at I/N
    s_v: float   # entropy-based strength; math.inf for rank-one-containing sets
    s_p: float   # purity-based strength; math.inf likewise


@dataclass(frozen=True)
class DisturbanceReport:
    n_e_v: float  # excess entropy of the outcome-averaged state (nats)
    n_e_p: float  # purity lost by the outcome-averaged state
    i_f_p: float  # average final purity (information metric)


@dataclass(frozen=True)
class RateEstimate:
    rate_v: float
    rate_v_se: float
    rate_p: float
    rate_p_se: float


def _outcome_terms(raw):
    """(probabilities, normalized post-states) of every outcome of a stack of
    sandwiches Omega rho Omega^dag (..., n, N, N), shapes (..., n) and
    (..., n, N, N).  An outcome with P <= EPS_PROB is dropped: its probability
    reads 0 and its post-state is the finite Omega rho Omega^dag, so it adds
    exactly 0 to a weighted sum."""
    p = np.trace(raw, axis1=-2, axis2=-1).real
    keep = p > EPS_PROB
    return np.where(keep, p, 0.0), raw / np.where(keep, p, 1.0)[..., None, None]


def _ordered_sum(x):
    """sum over the last axis from 0 in index order, as a Python loop adds: a
    pairwise numpy sum would round differently."""
    zero = np.zeros(x.shape[:-1] + (1,))
    return np.add.accumulate(np.concatenate((zero, x), axis=-1), axis=-1)[..., -1]


def uncertainty_v(mset: MeasurementOperatorSet, rho):
    """Probability-weighted average post-outcome von Neumann entropy."""
    p, post = _outcome_terms(_sandwich(mset._stack, _validated(mset, rho)))
    return float(_ordered_sum(p * von_neumann_entropy(post)))


def uncertainty_p(mset: MeasurementOperatorSet, rho):
    """Probability-weighted average post-outcome impurity, 1 - sum Tr[(O rho O^dag)^2]/Tr[O rho O^dag]."""
    return float(_uncertainty_p(_sandwich(mset._stack, _validated(mset, rho))))


def _uncertainty_p(raw):
    p, post = _outcome_terms(raw)
    return 1.0 - _ordered_sum(p * purity(post))


# u(I/N) below this threshold is treated as exactly zero
_ZERO_UNCERTAINTY = 1e-12


def _contains_rank_one(mset):
    sv = np.linalg.svd(mset._stack, compute_uv=False)
    rank_one = sv[:, 0] > 1e-12
    if sv.shape[1] > 1:
        rank_one &= sv[:, 1] <= 1e-10 * sv[:, 0]
    return bool(rank_one.any())


def strength(mset: MeasurementOperatorSet) -> StrengthReport:
    """Strengths s_v = 1/u_v(I/N) - 1/ln(N) and s_p = 1/u_p(I/N) - N/(N-1).

    A set containing any rank-one operator is an infinite-strength measurement
    categorically, independent of the residual uncertainty of its other
    outcomes.
    """
    n = mset.dim
    mixed = np.eye(n, dtype=complex) / n
    u_v = uncertainty_v(mset, mixed)
    u_p = uncertainty_p(mset, mixed)
    if _contains_rank_one(mset):
        return StrengthReport(u_v=u_v, u_p=u_p, s_v=math.inf, s_p=math.inf)
    s_v = math.inf if u_v < _ZERO_UNCERTAINTY else 1.0 / u_v - 1.0 / math.log(n)
    s_p = math.inf if u_p < _ZERO_UNCERTAINTY else 1.0 / u_p - n / (n - 1.0)
    return StrengthReport(u_v=u_v, u_p=u_p, s_v=max(s_v, 0.0), s_p=max(s_p, 0.0))


def disturbance(mset: MeasurementOperatorSet, rho) -> DisturbanceReport:
    """Excess noise of the outcome-averaged state and the average final purity."""
    return DisturbanceReport(*map(float, _disturbance(mset._stack, _validated(mset, rho))))


def _disturbance(ops, rho):
    """(n_e_v, n_e_p, i_f_p) of a stack of sets (..., n, N, N), one value per
    set, for a density matrix rho already validated against them.  rho's own
    entropy and purity are computed once for the whole stack."""
    raw = _sandwich(ops, rho)
    rho_f = _averaged(raw)
    return (
        von_neumann_entropy(rho_f) - von_neumann_entropy(rho),
        purity(rho) - purity(rho_f),
        1.0 - _uncertainty_p(raw),
    )


def theta_sweep(p, kappa, theta_grid):
    """Information/disturbance trade-off of a kappa measurement on diag(p, 1-p).

    Returns a list of (theta, i_f_p, n_e_p, n_e_v) rows, one per grid angle,
    each equal in every bit to disturbance(kappa_povm(KappaMeasurement(kappa,
    theta)), rho).  All angles run in one pass over a (T, 2, 2, 2) stack of
    kappa pairs: p, kappa, every theta and the completeness of every pair are
    checked first, then the state is validated once for the whole sweep.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    theta = np.asarray(theta_grid, dtype=float)
    ops = _kappa_stack(kappa, theta)
    _effects(ops)  # completeness of every pair
    rho = check_density_matrix(np.diag([p, 1.0 - p]).astype(complex))
    n_e_v, n_e_p, i_f_p = _disturbance(ops, rho)
    return list(zip(theta.tolist(), i_f_p.tolist(), n_e_p.tolist(), n_e_v.tolist()))


def fidelity_bound_check(mset: MeasurementOperatorSet, rho, psi_target):
    """True iff the outcome-averaged overlap with the target respects the
    largest-eigenvalue bound.  Only meaningful for pure (all-PSD) sets."""
    if mset.kind not in ("pure", "projective"):
        raise ValueError("bound applies to pure measurements only")
    rho = _validated(mset, rho)
    lam_max = float(np.linalg.eigvalsh(rho).max())
    return overlap(_averaged(_sandwich(mset._stack, rho)), psi_target) <= lam_max + 1e-12


# strength_rate_numeric reads its states at RATE_SAMPLES times up to the
# horizon RATE_HORIZON / k, so its estimates scale exactly linearly in k
RATE_HORIZON = 0.005
RATE_SAMPLES = 5


def strength_rate_numeric(Q, k, n_traj=4000, n_batches=20, n_steps=50, seed=0) -> RateEstimate:
    """Monte Carlo estimate of d s_v/dt and d s_p/dt at rho = I/N.

    Samples n_traj conditioned states of continuous measurement of Q from the
    maximally mixed state, with H = 0 and no feedback, at the RATE_SAMPLES
    times round(j n_steps / RATE_SAMPLES) dt, dt = RATE_HORIZON / (k n_steps),
    for j = 1, ..., RATE_SAMPLES (n_steps >= RATE_SAMPLES), evaluates the two
    uncertainties on them, and fits the strength-vs-time slope through the
    origin (_fitted_rates).  Standard errors come from batching the
    trajectories.

    The measurement is then QND, so the states are exact functions of the
    record and nothing is stepped (the QND case of Jacobs and Steck, Contemp.
    Phys. 47, 279 (2006)).  With q_j the eigenvalues of Q, centred as the
    kernels centre Q, each trajectory draws its level i, uniform on
    0, ..., N - 1, and the Wiener process W at the sample times; its record
    is Y(t) = 2 sqrt(2k) q_i t + W(t), and its populations in Q's eigenbasis
    are proportional to exp(2 sqrt(2k) q_j Y - 4k q_j^2 t), normalised after
    a log-sum-exp shift.  Every number comes from one Philox stream keyed on
    seed: the n_traj levels, then an (RATE_SAMPLES, n_traj) block of
    standard normals.
    """
    Q = _checked("Q", check_hermitian, np.asarray(Q, dtype=complex))
    n = Q.shape[0]
    if n < 2:  # both strengths divide by ln N or N - 1
        raise ValueError(f"Q must be at least 2 x 2, got {n} x {n}")
    _count("n_traj", n_traj)
    _count("n_batches", n_batches, least=2)  # two batches for the spread
    _count("n_steps", n_steps, least=RATE_SAMPLES)
    _finite("k", k)
    if n_batches > n_traj:  # no empty batch
        raise ValueError(f"n_batches must lie between 2 and n_traj, got n_batches={n_batches}, "
                         f"n_traj={n_traj}")
    if k == 0:
        return RateEstimate(0.0, 0.0, 0.0, 0.0)
    dt = RATE_HORIZON / k / n_steps
    t = np.array([round(j * n_steps / RATE_SAMPLES) for j in range(1, RATE_SAMPLES + 1)]) * dt
    q = np.linalg.eigvalsh(Q)
    q -= q.mean()
    rng = np.random.Generator(np.random.Philox(seed))
    level = rng.integers(n, size=n_traj)
    w = rng.standard_normal((RATE_SAMPLES, n_traj))
    w *= np.sqrt(np.diff(t, prepend=0.0))[:, None]
    np.cumsum(w, axis=0, out=w)
    gain = 2.0 * np.sqrt(2.0 * k)
    record = gain * q[level] * t[:, None] + w  # (RATE_SAMPLES, n_traj)
    q = q[:, None, None]
    log_p = gain * q * record - (4.0 * k) * q**2 * t[:, None]  # (N, RATE_SAMPLES, n_traj)
    log_p -= log_p.max(axis=0)
    p = np.exp(log_p)
    p /= p.sum(axis=0)
    return _fitted_rates(p, t, n_batches)


def _fitted_rates(lam, t, n_batches):
    """The RateEstimate of conditioned states from I/N read at the times t:
    lam (N, len(t), n_traj) holds their eigenvalues.  The trajectories are
    split into n_batches batches; each batch's mean entropy and impurity at
    each time give its strengths s_v and s_p, and a least-squares line
    through the origin their slopes.  The rates are the slopes' means over
    the batches, with their standard errors."""
    n = lam.shape[0]
    pur = (lam**2).sum(axis=0)
    ent = _spectral_entropy(lam, axis=0)
    slopes_v, slopes_p = [], []
    for idx in np.array_split(np.arange(lam.shape[2]), n_batches):
        u_v = ent[:, idx].mean(axis=1)
        u_p = 1.0 - pur[:, idx].mean(axis=1)
        s_v = 1.0 / u_v - 1.0 / np.log(n)
        s_p = 1.0 / u_p - n / (n - 1.0)
        slopes_v.append(np.sum(t * s_v) / np.sum(t * t))
        slopes_p.append(np.sum(t * s_p) / np.sum(t * t))
    slopes_v = np.array(slopes_v)
    slopes_p = np.array(slopes_p)
    return RateEstimate(
        rate_v=float(slopes_v.mean()),
        rate_v_se=float(slopes_v.std(ddof=1) / np.sqrt(n_batches)),
        rate_p=float(slopes_p.mean()),
        rate_p_se=float(slopes_p.std(ddof=1) / np.sqrt(n_batches)),
    )


def _traces(Q):
    """(N, Tr[Q^2], Tr[Q]) of an observable Q."""
    Q = np.asarray(Q, dtype=complex)
    return Q.shape[0], np.trace(Q @ Q).real, np.trace(Q).real


def printed_rate_v(Q, k):
    """Closed-form entropy-strength rate as printed: 4k/(N ln^2 N) (Tr[Q^2] + 3 Tr[Q]^2)."""
    n, tr_q2, tr_q = _traces(Q)
    return 4.0 * k / (n * np.log(n) ** 2) * (tr_q2 + 3.0 * tr_q**2)


def printed_rate_p(Q, k):
    """Closed-form purity-strength rate as printed: 8k N^2/(N-1)^2 Tr[Q^2]."""
    n, tr_q2, _ = _traces(Q)
    return 8.0 * k * n**2 / (n - 1.0) ** 2 * tr_q2


def ito_rate_v(Q, k):
    """Independent Ito-expansion entropy-strength rate at rho = I/N:
    4k/(N ln^2 N) (Tr[Q^2] - Tr[Q]^2/N)."""
    n, tr_q2, tr_q = _traces(Q)
    return 4.0 * k / (n * np.log(n) ** 2) * (tr_q2 - tr_q**2 / n)


def ito_rate_p(Q, k):
    """Independent Ito-expansion purity-strength rate at rho = I/N:
    8k/(N-1)^2 (Tr[Q^2] - Tr[Q]^2/N)."""
    n, tr_q2, tr_q = _traces(Q)
    return 8.0 * k / (n - 1.0) ** 2 * (tr_q2 - tr_q**2 / n)
