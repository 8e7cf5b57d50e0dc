"""Generalized-measurement operator sets and their application.

A measurement is a finite family {Omega_n} with sum_n Omega_n^dag Omega_n = 1.
Outcome n occurs with probability Tr[Omega_n^dag Omega_n rho] and leaves the
state Omega_n rho Omega_n^dag / P(n).  Builders are provided for the Gaussian
weak-measurement family, the two-operator Poisson pair, and the two-outcome
kappa family on a qubit with an arbitrary Bloch rotation.

A set keeps its operators as one read-only (n, N, N) complex stack, and ops
is a tuple of read-only views of it; the effects Omega_n^dag Omega_n are kept
as a second stack.  Completeness, classification, outcome
probabilities and the outcome-averaged state run on the whole stack with the
same per-matrix operations as one operator at a time, and sums over outcomes
run in outcome order, so they give the same bits.
"""

from dataclasses import dataclass, field

import numpy as np

from .states import (
    TOL_HERM,
    TOL_PSD,
    check_hermitian,
    check_density_matrix,
    project_to_physical,
)

TOL_COMPLETENESS = 1e-8
EPS_PROB = 1e-14


def _dagger(a):
    """Conjugate transpose of every matrix of an (n, N, N) stack."""
    return a.conj().transpose(0, 2, 1)


def _classify(stack):
    """Tag a family as projective, pure (all PSD Hermitian) or general."""
    if np.max(np.abs(stack - _dagger(stack))) > TOL_HERM:
        return "general"
    if np.linalg.eigvalsh((stack + _dagger(stack)) / 2).min() < -TOL_PSD:
        return "general"
    if np.max(np.abs(stack @ stack - stack)) > TOL_PSD * 10:
        return "pure"
    return "projective"


@dataclass(frozen=True)
class MeasurementOperatorSet:
    """Immutable family of measurement operators with verified completeness."""

    ops: tuple
    kind: str = field(init=False)
    _stack: np.ndarray = field(init=False, repr=False, compare=False)
    _effects: np.ndarray = field(init=False, repr=False, compare=False)  # Omega^dag Omega

    def __post_init__(self):
        if len(self.ops) == 0:
            raise ValueError("measurement set must contain at least one operator")
        try:
            stack = np.asarray(self.ops, dtype=complex)
        except ValueError:
            stack = None
        if stack is None or stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
            raise ValueError("all operators must be square with equal dimension")
        effects = _dagger(stack) @ stack
        # 0 + sum: the same first addition as summing the operators one at a time
        total = np.add.reduce(effects, axis=0, initial=0)
        residual = np.max(np.abs(total - np.eye(stack.shape[1])))
        if residual > TOL_COMPLETENESS:
            raise ValueError(
                f"completeness violated: ||sum Omega^dag Omega - I|| = {residual:.3e} "
                f"> {TOL_COMPLETENESS:.1e}"
            )
        stack.setflags(write=False)
        effects.setflags(write=False)
        object.__setattr__(self, "_stack", stack)
        object.__setattr__(self, "_effects", effects)
        object.__setattr__(self, "ops", tuple(stack))
        object.__setattr__(self, "kind", _classify(stack))

    @property
    def dim(self):
        return self._stack.shape[1]

    def __len__(self):
        return len(self._stack)


@dataclass(frozen=True)
class MeasurementOutcome:
    index: int
    probability: float
    post_state: np.ndarray


@dataclass(frozen=True)
class KappaMeasurement:
    """Two-outcome qubit measurement of strength kappa, rotated on the Bloch sphere.

    kappa = 1/2 gives no information; kappa = 0 or 1 is projective.  theta is
    the Bloch angle between the measurement basis and the computational basis,
    phi the azimuth.
    """

    kappa: float
    theta: float = 0.0
    phi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.kappa <= 1.0:
            raise ValueError("kappa must lie in [0, 1]")
        if not 0.0 <= self.theta <= np.pi:
            raise ValueError("theta must lie in [0, pi]")
        if not 0.0 <= self.phi < 2 * np.pi:
            raise ValueError("phi must lie in [0, 2*pi)")


def bloch_rotation(theta, phi=0.0):
    """Qubit rotation taking the z-basis to the (theta, phi) Bloch direction."""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array(
        [[c, -np.exp(-1j * phi) * s], [np.exp(1j * phi) * s, c]], dtype=complex
    )


def kappa_povm(m: KappaMeasurement) -> MeasurementOperatorSet:
    """The pair {U Omega_0 U^dag, U Omega_1 U^dag} on a qubit.

    Omega_0 = sqrt(kappa)|0><0| + sqrt(1-kappa)|1><1| and Omega_1 with the
    weights swapped; Omega_0^2 + Omega_1^2 = 1 holds exactly.
    """
    u = bloch_rotation(m.theta, m.phi)
    om0 = np.diag([np.sqrt(m.kappa), np.sqrt(1.0 - m.kappa)]).astype(complex)
    om1 = np.diag([np.sqrt(1.0 - m.kappa), np.sqrt(m.kappa)]).astype(complex)
    return MeasurementOperatorSet((u @ om0 @ u.conj().T, u @ om1 @ u.conj().T))


def default_alpha_grid(Q, k, dt, center=0.0, n_points=2048):
    """Record-outcome grid: +-6 sigma of the outcome distribution plus the
    spectral radius of Q, centered on the expected record value."""
    radius = np.max(np.abs(np.linalg.eigvalsh(Q)))
    half_width = 6.0 / np.sqrt(2.0 * k * dt) + radius
    return np.linspace(center - half_width, center + half_width, n_points)


def gaussian_weak_povm(Q, k, dt, alpha_grid=None) -> MeasurementOperatorSet:
    """Discretized Gaussian weak measurement of observable Q over a time dt.

    Omega_alpha = C sqrt(d_alpha) exp(-k dt (Q - alpha)^2) on the grid, with C
    fixed numerically so the discretized completeness sum is the identity
    (C -> (2 k dt / pi)^(1/4) in the continuum).  Rejects grids too coarse or
    too narrow for completeness to hold.
    """
    Q = check_hermitian(Q)
    if k <= 0 or dt <= 0:
        raise ValueError("k and dt must be positive")
    if alpha_grid is None:
        alpha_grid = default_alpha_grid(Q, k, dt)
    alpha_grid = np.asarray(alpha_grid, dtype=float)
    if alpha_grid.size < 2:
        raise ValueError("alpha grid needs at least two points")
    d_alpha = np.diff(alpha_grid)
    if np.max(np.abs(d_alpha - d_alpha[0])) > 1e-9 * abs(d_alpha[0]):
        raise ValueError("alpha grid must be uniform")
    d_alpha = d_alpha[0]

    q, v = np.linalg.eigh(Q)
    # completeness sum per eigenvalue of Q; a scalar C can only fix all of
    # them at once if they agree, otherwise the grid is unusable
    weights = np.exp(-2.0 * k * dt * (q[None, :] - alpha_grid[:, None]) ** 2)
    sums = d_alpha * weights.sum(axis=0)
    mean_sum = sums.mean()
    spread = np.max(np.abs(sums / mean_sum - 1.0))
    if spread > TOL_COMPLETENESS:
        raise ValueError(
            f"alpha grid too coarse or too narrow: per-eigenvalue completeness "
            f"sums differ by {spread:.3e} (need < {TOL_COMPLETENESS:.1e}); "
            f"widen the grid to ~6/sqrt(2 k dt) or refine its spacing"
        )
    c = 1.0 / np.sqrt(mean_sum)
    amp = c * np.sqrt(d_alpha) * np.exp(-k * dt * (q[None, :] - alpha_grid[:, None]) ** 2)
    return MeasurementOperatorSet((v * amp[:, None, :]) @ v.conj().T)


def poisson_povm(Q, k, dt) -> MeasurementOperatorSet:
    """Two-operator jump/no-jump pair: Omega_0 = 1 - (1/2) k Q^2 dt, Omega_1 = Q sqrt(k dt).

    Valid for k dt small: Omega_0 must stay PSD and the completeness defect,
    which is O((k dt)^2), must stay below tolerance.
    """
    Q = check_hermitian(Q)
    if k <= 0 or dt <= 0:
        raise ValueError("k and dt must be positive")
    dim = Q.shape[0]
    om0 = np.eye(dim, dtype=complex) - 0.5 * k * dt * (Q @ Q)
    if np.linalg.eigvalsh(om0).min() < -TOL_PSD:
        raise ValueError("k*dt too large: no-jump operator is not positive semidefinite")
    om1 = np.sqrt(k * dt) * Q.astype(complex)
    return MeasurementOperatorSet((om0, om1))


def outcome_probabilities(mset: MeasurementOperatorSet, rho):
    """Tr[Omega_n^dag Omega_n rho] for every outcome."""
    rho = check_density_matrix(rho)
    return np.clip(np.einsum("nij,ji->n", mset._effects, rho).real, 0.0, None)


def apply_outcome(mset: MeasurementOperatorSet, rho, n) -> MeasurementOutcome:
    """Condition rho on outcome n: Omega_n rho Omega_n^dag / P(n)."""
    rho = check_density_matrix(rho)
    if rho.shape[0] != mset.dim:
        raise ValueError("dimension mismatch between state and measurement")
    om = mset.ops[n]
    raw = om @ rho @ om.conj().T
    p = np.trace(raw).real
    if p <= EPS_PROB:
        raise ValueError(
            f"outcome {n} has probability {p:.3e}; conditioning on a "
            f"(near-)impossible event"
        )
    return MeasurementOutcome(index=n, probability=p, post_state=project_to_physical(raw / p))


def sample_outcome(mset: MeasurementOperatorSet, rho, rng) -> MeasurementOutcome:
    """Draw an outcome from the measurement distribution using rng."""
    p = outcome_probabilities(mset, rho)
    n = int(rng.choice(len(p), p=p / p.sum()))
    return apply_outcome(mset, rho, n)


def nonselective_apply(mset: MeasurementOperatorSet, rho):
    """Average over outcomes: sum_n Omega_n rho Omega_n^dag."""
    rho = check_density_matrix(rho)
    if rho.shape[0] != mset.dim:
        raise ValueError("dimension mismatch between state and measurement")
    return _nonselective(mset, rho)


def _nonselective(mset, rho):
    """nonselective_apply for a density matrix rho already validated against mset."""
    return project_to_physical(np.add.reduce(_sandwich(mset, rho), axis=0, initial=0))


def _sandwich(mset, rho):
    """Omega_n rho Omega_n^dag for every outcome, an (n, N, N) stack."""
    return mset._stack @ rho @ _dagger(mset._stack)


def polar_split(omega):
    """Split omega = U P with P = sqrt(omega^dag omega) PSD and U unitary.

    SVD-based; on a singular omega the unitary factor is completed from the
    singular-vector pairs, which makes the split deterministic.
    """
    omega = np.asarray(omega, dtype=complex)
    if omega.ndim != 2 or omega.shape[0] != omega.shape[1]:
        raise ValueError("expected a square matrix")
    w, s, xh = np.linalg.svd(omega)
    u = w @ xh
    p = xh.conj().T @ np.diag(s).astype(complex) @ xh
    return u, p


def random_pure_measurement(dim, n_ops, rng) -> MeasurementOperatorSet:
    """Random family of PSD operators completing to the identity.

    Draws random PSD effects E_i, normalizes them with T^(-1/2) E_i T^(-1/2)
    where T = sum E_i, and takes Omega_i = sqrt(E_i).
    """
    draws = rng.standard_normal((n_ops, 2, dim, dim))  # each operator's real, then imaginary part
    g = draws[:, 0] + 1j * draws[:, 1]
    effects = g @ _dagger(g)
    vals, vecs = np.linalg.eigh(np.add.reduce(effects, axis=0, initial=0))
    inv_sqrt = (vecs * (1.0 / np.sqrt(vals))) @ vecs.conj().T
    e = inv_sqrt @ effects @ inv_sqrt
    lam, v = np.linalg.eigh((e + _dagger(e)) / 2)
    lam = np.clip(lam, 0.0, None)
    return MeasurementOperatorSet((v * np.sqrt(lam)[:, None, :]) @ _dagger(v))
