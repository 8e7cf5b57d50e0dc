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

The completeness check, Omega rho Omega^dag and the outcome average also
take a stack of sets (..., n, N, N); metrics.theta_sweep runs all its angles
as one (T, 2, 2, 2) stack of kappa pairs.
"""

from dataclasses import dataclass, field

import numpy as np

from .states import (
    TOL_HERM,
    TOL_PSD,
    _dagger,
    check_hermitian,
    check_density_matrix,
    project_to_physical,
)

TOL_COMPLETENESS = 1e-8
EPS_PROB = 1e-14


def _effects(stack):
    """Omega^dag Omega for every operator of a stack of sets (..., n, N, N).
    Raises unless every entry is finite (checked first, so an inf meets no
    product) and every set's effects sum to the identity within
    TOL_COMPLETENESS."""
    finite = np.isfinite(stack).all(axis=(-2, -1))
    if not finite.all():
        where = np.argwhere(~finite)[0].tolist()
        raise ValueError(f"completeness cannot hold: operator "
                         f"{where[0] if len(where) == 1 else tuple(where)} has a non-finite entry")
    effects = _dagger(stack) @ stack
    # 0 + sum: the same first addition as summing the operators one at a time
    total = np.add.reduce(effects, axis=-3, initial=0)
    residual = np.max(np.abs(total - np.eye(stack.shape[-1])), initial=0.0)
    if not residual <= TOL_COMPLETENESS:  # NaN entries fail too
        raise ValueError(
            f"completeness violated: ||sum Omega^dag Omega - I|| = {residual:.3e} "
            f"> {TOL_COMPLETENESS:.1e}"
        )
    return effects


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
        effects = _effects(stack)
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
        _check_kappa(self.kappa, self.theta, self.phi)


def _check_kappa(kappa, theta, phi):
    """The ranges of a kappa measurement, for one theta or an array of them."""
    if not 0.0 <= kappa <= 1.0:
        raise ValueError("kappa must lie in [0, 1]")
    if not np.all((theta >= 0.0) & (theta <= np.pi)):
        raise ValueError("theta must lie in [0, pi]")
    if not 0.0 <= phi < 2 * np.pi:
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
    theta = np.array([m.theta], dtype=float)
    return MeasurementOperatorSet(_kappa_stack(m.kappa, theta, m.phi)[0])


def _kappa_stack(kappa, theta, phi=0.0):
    """The kappa pairs at every angle of a 1-D theta array, a (T, 2, 2, 2) stack.

    The ranges of kappa, phi and every theta are checked before anything is
    built; completeness is left to the caller's _effects.  Each U is
    bloch_rotation's, with scalar trig, and the products are batched matmuls,
    so each pair has the bits it has on its own.
    """
    _check_kappa(kappa, theta, phi)
    u = np.array([bloch_rotation(t, phi) for t in theta], dtype=complex).reshape(-1, 2, 2)
    w = (np.sqrt(kappa), np.sqrt(1.0 - kappa))
    om = np.array([np.diag(w), np.diag(w[::-1])]).astype(complex)
    return u[:, None] @ om @ _dagger(u)[:, None]


def default_alpha_grid(Q, k, dt):
    """Record-outcome grid of 2048 points centred on 0: +-6 sigma of the
    outcome distribution plus the spectral radius of Q."""
    radius = np.max(np.abs(np.linalg.eigvalsh(Q)))
    half_width = 6.0 / np.sqrt(2.0 * k * dt) + radius
    return np.linspace(-half_width, half_width, 2048)


def gaussian_weak_povm(Q, k, dt, alpha_grid=None) -> MeasurementOperatorSet:
    """Discretized Gaussian weak measurement of observable Q over a time dt.

    Omega_alpha = C sqrt(d_alpha) exp(-k dt (Q - alpha)^2) on the grid, with C
    fixed numerically so the discretized completeness sum is the identity
    (C -> (2 k dt / pi)^(1/4) in the continuum).  Rejects grids too coarse or
    too narrow for completeness to hold.
    """
    Q = check_hermitian(Q)
    if not (0 < k < np.inf and 0 < dt < np.inf):  # written so that NaN fails
        raise ValueError(f"k and dt must be positive and finite, got {k} and {dt}")
    if alpha_grid is None:
        alpha_grid = default_alpha_grid(Q, k, dt)
    alpha_grid = np.asarray(alpha_grid, dtype=float)
    if alpha_grid.size < 2:
        raise ValueError("alpha grid needs at least two points")
    bad = np.flatnonzero(~np.isfinite(alpha_grid))
    if bad.size:
        raise ValueError(f"alpha grid point {bad[0]} is {alpha_grid[bad[0]]}, not finite")
    d_alpha = np.diff(alpha_grid)
    bad = np.flatnonzero(d_alpha <= 0)
    if bad.size:
        i = bad[0]
        raise ValueError(f"alpha grid must increase: point {i + 1} ({alpha_grid[i + 1]}) "
                         f"is not above point {i} ({alpha_grid[i]})")
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
    if not (0 < k < np.inf and 0 < dt < np.inf):  # written so that NaN fails
        raise ValueError(f"k and dt must be positive and finite, got {k} and {dt}")
    dim = Q.shape[0]
    om0 = np.eye(dim, dtype=complex) - 0.5 * k * dt * (Q @ Q)
    if np.linalg.eigvalsh(om0).min() < -TOL_PSD:
        raise ValueError("k*dt too large: no-jump operator is not positive semidefinite")
    om1 = np.sqrt(k * dt) * Q.astype(complex)
    return MeasurementOperatorSet((om0, om1))


def _validated(mset, rho):
    """rho checked as a density matrix of mset's dimension."""
    rho = check_density_matrix(rho)
    if rho.shape[0] != mset.dim:
        raise ValueError("dimension mismatch between state and measurement")
    return rho


def outcome_probabilities(mset: MeasurementOperatorSet, rho):
    """Tr[Omega_n^dag Omega_n rho] for every outcome."""
    return _probabilities(mset, _validated(mset, rho))


def _probabilities(mset, rho):
    return np.clip(np.einsum("nij,ji->n", mset._effects, rho).real, 0.0, None)


def apply_outcome(mset: MeasurementOperatorSet, rho, n) -> MeasurementOutcome:
    """Condition rho on outcome n: Omega_n rho Omega_n^dag / P(n)."""
    return _condition(mset, _validated(mset, rho), n)


def _condition(mset, rho, n):
    """apply_outcome for a density matrix rho already validated against mset."""
    raw = _sandwich(mset.ops[n], rho)
    p = np.trace(raw).real
    if p <= EPS_PROB:
        raise ValueError(
            f"outcome {n} has probability {p:.3e}; conditioning on a "
            f"(near-)impossible event"
        )
    return MeasurementOutcome(index=n, probability=p, post_state=project_to_physical(raw / p))


def sample_outcome(mset: MeasurementOperatorSet, rho, rng) -> MeasurementOutcome:
    """Draw an outcome from the measurement distribution using rng."""
    rho = _validated(mset, rho)
    p = _probabilities(mset, rho)
    n = int(rng.choice(len(p), p=p / p.sum()))
    return _condition(mset, rho, n)


def nonselective_apply(mset: MeasurementOperatorSet, rho):
    """Average over outcomes: sum_n Omega_n rho Omega_n^dag."""
    return _averaged(_sandwich(mset._stack, _validated(mset, rho)))


def _averaged(raw):
    """The outcome average of sandwiched stacks (..., n, N, N): their sum over
    outcomes, from 0 in outcome order, projected to a physical state."""
    return project_to_physical(np.add.reduce(raw, axis=-3, initial=0))


def _sandwich(ops, rho):
    """Omega rho Omega^dag for every operator of a stack (..., N, N)."""
    return ops @ rho @ _dagger(ops)


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
