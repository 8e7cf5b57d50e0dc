"""Measurement strength, information and disturbance functionals.

The strength of a measurement is defined through the average uncertainty it
leaves behind when applied to the maximally mixed state: sharper measurements
leave purer (lower-entropy) conditional states.  Disturbance is the entropy
gained (or purity lost) by the outcome-averaged state.  Both notions use the
final, post-measurement state, which is what a feedback controller acts on.
"""

import math
from dataclasses import dataclass

import numpy as np

from .ensemble import EnsembleConfig, _advance_chunk, _trajectory_streams
from .sde import MeasurementPolicy, SmeConfig
from .states import check_density_matrix, overlap, purity, von_neumann_entropy
from .povm import (
    EPS_PROB,
    KappaMeasurement,
    MeasurementOperatorSet,
    _dagger,
    _nonselective,
    _sandwich,
    kappa_povm,
    nonselective_apply,
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


def _outcome_terms(mset, rho):
    """(probabilities, normalized post-states) of the outcomes with P > eps,
    shapes (n,) and (n, N, N), in outcome order."""
    raw = _sandwich(mset, rho)
    p = np.trace(raw, axis1=1, axis2=2).real
    keep = p > EPS_PROB
    p = p[keep]
    return p, raw[keep] / p[:, None, None]


def _ordered_sum(x):
    """sum(x) from 0 in index order, as a Python loop adds: a pairwise numpy
    sum would round differently."""
    return float(np.add.accumulate(np.concatenate(([0.0], x)))[-1])


def uncertainty_v(mset: MeasurementOperatorSet, rho):
    """Probability-weighted average post-outcome von Neumann entropy."""
    rho = check_density_matrix(rho)
    p, post = _outcome_terms(mset, rho)
    # von_neumann_entropy on every post-state: 0 ln 0 = 0 below 1e-15
    lam = np.linalg.eigvalsh((post + _dagger(post)) / 2)
    lam = np.where(lam > 1e-15, lam, 1.0)
    return _ordered_sum(p * -(lam * np.log(lam)).sum(axis=1))


def uncertainty_p(mset: MeasurementOperatorSet, rho):
    """Probability-weighted average post-outcome impurity, 1 - sum Tr[(O rho O^dag)^2]/Tr[O rho O^dag]."""
    return _uncertainty_p(mset, check_density_matrix(rho))


def _uncertainty_p(mset, rho):
    p, post = _outcome_terms(mset, rho)
    return float(1.0 - _ordered_sum(p * np.einsum("nij,nji->n", post, post).real))


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
    rho = check_density_matrix(rho)
    if rho.shape[0] != mset.dim:
        raise ValueError("dimension mismatch between state and measurement")
    return _disturbance(mset, rho)


def _disturbance(mset, rho):
    """disturbance for a density matrix rho already validated against mset."""
    rho_f = _nonselective(mset, rho)
    return DisturbanceReport(
        n_e_v=von_neumann_entropy(rho_f) - von_neumann_entropy(rho),
        n_e_p=purity(rho) - purity(rho_f),
        i_f_p=1.0 - _uncertainty_p(mset, rho),
    )


def theta_sweep(p, kappa, theta_grid):
    """Information/disturbance trade-off of a kappa measurement on diag(p, 1-p).

    Returns a list of (theta, i_f_p, n_e_p, n_e_v) rows, one per grid angle.
    The state is validated once for the whole sweep.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    rho = check_density_matrix(np.diag([p, 1.0 - p]).astype(complex))
    rows = []
    for theta in np.asarray(theta_grid, dtype=float):
        rep = _disturbance(kappa_povm(KappaMeasurement(kappa, theta)), rho)
        rows.append((float(theta), rep.i_f_p, rep.n_e_p, rep.n_e_v))
    return rows


def fidelity_bound_check(mset: MeasurementOperatorSet, rho, psi_target, slack=1e-12):
    """True iff the outcome-averaged overlap with the target respects the
    largest-eigenvalue bound.  Only meaningful for pure (all-PSD) sets."""
    if mset.kind not in ("pure", "projective"):
        raise ValueError("bound applies to pure measurements only")
    rho = check_density_matrix(rho)
    lam_max = float(np.linalg.eigvalsh(rho).max())
    return overlap(nonselective_apply(mset, rho), psi_target) <= lam_max + slack


def strength_rate_numeric(
    Q,
    k,
    n_traj=4000,
    n_batches=20,
    horizon=None,
    n_steps=50,
    n_samples=5,
    seed=0,
) -> RateEstimate:
    """Monte Carlo estimate of d s_v/dt and d s_p/dt at rho = I/N.

    Runs an ensemble of open-loop diffusive measurement trajectories of Q
    (one lockstep batch, the streams ensemble_states draws for `seed`) from
    the maximally mixed state over a short horizon, keeps the eigenvalues of
    the conditional states at n_samples times, after round(j n_steps /
    n_samples) steps for j = 1, ..., n_samples, evaluates the two
    uncertainties on them, and fits the strength-vs-time slope through the
    origin.  Standard errors come from batching the trajectories.  The
    horizon defaults to 0.005/k so estimates scale exactly linearly in k.
    """
    Q = np.asarray(Q, dtype=complex)
    n = Q.shape[0]
    if k < 0:
        raise ValueError("k must be non-negative")
    if not 1 <= n_samples <= n_steps:
        raise ValueError("n_samples must lie between 1 and n_steps")
    if k == 0:
        return RateEstimate(0.0, 0.0, 0.0, 0.0)
    if horizon is None:
        horizon = 0.005 / k
    dt = horizon / n_steps
    sample_steps = [round(j * n_steps / n_samples) for j in range(1, n_samples + 1)]
    slot = {step: i for i, step in enumerate(sample_steps)}
    cfg = EnsembleConfig(
        realizations=n_traj,
        master_seed=seed,
        sme=SmeConfig(k=k, h0=np.zeros((n, n)), dt=dt, t_end=horizon),
        policy=MeasurementPolicy(mode="fixed_observable", observable=Q),
        mu=0.0,
        rho0=np.eye(n, dtype=complex) / n,
        target_fn=None,
        stat_stride=n_steps,
    )
    t = np.array(sample_steps) * dt
    lam = np.empty((n_traj, n_samples, n))
    for step, batch, _ in _advance_chunk(cfg, n_traj, _trajectory_streams(cfg, 0)):
        if step in slot:
            lam[:, slot[step]] = np.linalg.eigvalsh(batch.states())
    lam = lam.T  # (N, n_samples, n_traj)
    pur = (lam**2).sum(axis=0)
    # 0 ln 0 = 0 below 1e-15, as in states.von_neumann_entropy
    lam = np.where(lam > 1e-15, lam, 1.0)
    ent = -(lam * np.log(lam)).sum(axis=0)

    batches = np.array_split(np.arange(n_traj), n_batches)
    slopes_v, slopes_p = [], []
    for idx in batches:
        u_v = ent[:, idx].mean(axis=1)
        u_p = 1.0 - pur[:, idx].mean(axis=1)
        s_v = 1.0 / u_v - 1.0 / np.log(n)
        s_p = 1.0 / u_p - n / (n - 1.0)
        slopes_v.append(np.sum(t * s_v) / np.sum(t * t))
        slopes_p.append(np.sum(t * s_p) / np.sum(t * t))
    slopes_v = np.array(slopes_v)
    slopes_p = np.array(slopes_p)
    nb = len(batches)
    return RateEstimate(
        rate_v=float(slopes_v.mean()),
        rate_v_se=float(slopes_v.std(ddof=1) / np.sqrt(nb)),
        rate_p=float(slopes_p.mean()),
        rate_p_se=float(slopes_p.std(ddof=1) / np.sqrt(nb)),
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
