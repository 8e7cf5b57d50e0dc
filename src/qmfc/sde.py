"""Time evolution: diffusive measurement trajectories and closed-loop control.

One trajectory follows the nonlinear conditioned master equation

    drho = -i[H, rho] dt - k[Q, [Q, rho]] dt - beta[sz, [sz, rho]] dt
           + sqrt(2k)(Q rho + rho Q - 2 Tr[Q rho] rho) dW,

with the simulated record increment dy = 4k Tr[Q rho] dt + sqrt(2k) dW.  It
is integrated with the positivity-preserving Kraus-map filter of Rouchon and
Ralph, Phys. Rev. A 91, 012118 (2015): with L = sqrt(2k) Q the measured
channel and sqrt(2 beta) sz the unread dephasing channel,

    dy~ = 2 sqrt(2k) Tr[Q rho] dt + dW
    M   = I - iH dt - k Q^2 dt - beta dt I + sqrt(2k) Q dy~ + k Q^2 (dy~^2 - dt)
    rho' = (M rho M^+ + 2 beta dt sz rho sz) / Tr[...]

which agrees with the equation above to first order, keeps the Milstein
correction, and maps a density matrix to a density matrix for any dt, so no
eigenvalue clip is needed.  Every qubit runs on the Bloch kernel of
qmfc.ensemble, which steps this map in closed form, with dephasing and the
relative_angle policy (both defined for qubits only, EnsembleConfig);
_kraus_step steps (N, N, m) stacks of larger systems, with no dephasing and
a fixed observable.  A diagonal Q may be given by its diagonal: the step
then skips the products with its zeros, Q rho being a row scaling, and
keeps every value, since each term it skips is a product with an exact zero
(see _kraus_step).

Since the map stays physical at any dt, a step size is a matter of accuracy,
and it is decided once per run, before any step, from what bounds the
generator's rates: the measurement k, the feedback strength mu (Tr H_fb^2 =
mu, so ||H_fb|| <= sqrt(mu)) and the dephasing beta.  EnsembleConfig, which
every run builds, refuses with StepRejected a run in which any of

    2k dt ||Q_0||^2,   dt (||H0_0|| + sqrt(mu)),   beta dt

exceeds STEP_SIZE_LIMIT, with X_0 = X - (Tr X / N) I and ||.|| the largest
singular value (||Q_0|| = 1 under relative_angle).

The closed loop measures, on a qubit, the spin along a fixed Bloch angle
(theta, phi) from the state's own direction and applies the optimal
constrained feedback Hamiltonian recomputed every step.  With r/|r| at polar
angles (Theta, Phi), the measured axis is (sin theta cos phi, sin theta
sin phi, cos theta) turned by the rotation by Theta about (-sin Phi, cos Phi,
0), which takes e_z to r/|r| (_relative_axis).  Below
|r| = BASIS_DEGEN_TOL the state has no direction, and the previous (Theta,
Phi) are kept.  The frame is discontinuous at Theta = pi, where its rotation
axis turns with Phi.  Trajectories are stepped by the batch driver in
qmfc.ensemble; run_control_trajectory is a batch of one.

Their outcome average obeys the linear master equation above without its dW
term; nonselective_solve exponentiates its generator exactly, in numpy alone.

Measurement dragging (inverse_zeno_run) follows one deterministic surviving
branch, so many runs need only their uniforms: inverse_zeno_successes
decides a whole batch of runs from blocks of draws, consuming exactly the
uniforms that successive inverse_zeno_run calls would, in the same order.
"""

from dataclasses import dataclass

import numpy as np

from .states import SIGMA_Z, check_density_matrix, check_hermitian, ket, overlap


# a qubit state has no direction when its Bloch vector is shorter than this;
# the relative_angle frame then keeps its previous angles (_relative_axis)
BASIS_DEGEN_TOL = 1e-12

# the largest step size a run is admitted at, in each of the measures
# EnsembleConfig reads (module docstring)
STEP_SIZE_LIMIT = 0.05


class StepRejected(RuntimeError):
    """Raised when a run's step sizes exceed STEP_SIZE_LIMIT (module
    docstring): the run is refused when its EnsembleConfig is built, before
    any step."""


def _on_step_grid(t, dt):
    """The number of steps of dt that reach time t, or None when t is not a
    whole number of them (to 1e-9 of the larger of t and dt), or not finite."""
    if not np.isfinite(t):
        return None
    step = int(round(t / dt))
    return step if abs(step * dt - t) <= 1e-9 * max(t, dt) else None


def _centred(a):
    """a - (Tr a / N) I for a Hermitian (N, N) matrix or each of an (N, N, m)
    stack, as a new array: all the conditioned evolution sees of a measured
    observable or a Hamiltonian.  A matrix of zero trace keeps every bit."""
    out = np.array(a, dtype=complex)
    shift = np.einsum("ii...->...", out).real / len(out)
    if np.any(shift):
        out[np.diag_indices(len(out))] -= shift
    return out


def _traceless_norm(a):
    """||a - (Tr a / N) I||, the largest singular value of a's traceless part."""
    return float(np.linalg.norm(_centred(a), 2))


def _checked(name, check, a):
    """check(a), its ValueError's message prefixed by the argument's name."""
    try:
        return check(a)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


@dataclass(frozen=True)
class SmeConfig:
    k: float                 # measurement constant [1/time]
    h0: np.ndarray           # drift Hamiltonian
    dephasing_beta: float = 0.0
    dt: float = 1e-4
    t_end: float = 1.0

    def __post_init__(self):
        # written so that NaN fails every check
        if not 0 < self.dt < np.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (0 <= self.k < np.inf and 0 <= self.dephasing_beta < np.inf):
            raise ValueError("k and dephasing_beta must be non-negative and finite, "
                             f"got {self.k} and {self.dephasing_beta}")
        if not 0 < self.t_end < np.inf:
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        if _on_step_grid(self.t_end, self.dt) is None:
            raise ValueError(f"t_end {self.t_end} is not a whole number of steps of dt {self.dt}")
        h0 = _checked("h0", check_hermitian, np.asarray(self.h0, dtype=complex))
        object.__setattr__(self, "h0", h0)

    @property
    def n_steps(self):
        return int(round(self.t_end / self.dt))


@dataclass(frozen=True)
class MeasurementPolicy:
    """Which spin direction to measure at each step.

    mode "fixed_observable" measures the given observable throughout; mode
    "relative_angle" measures, on a qubit, the spin direction at Bloch angle
    (theta, phi) from the state's own direction (_relative_axis).
    """

    mode: str
    observable: np.ndarray = None
    theta: float = 0.0
    phi: float = 0.0

    def __post_init__(self):
        if self.mode not in ("fixed_observable", "relative_angle"):
            raise ValueError(f"unknown policy mode {self.mode!r}")
        if self.mode == "fixed_observable":
            if self.observable is None:
                raise ValueError("fixed_observable mode requires an observable")
            observable = np.asarray(self.observable, dtype=complex)
            object.__setattr__(self, "observable",
                               _checked("observable", check_hermitian, observable))
        else:
            if not 0.0 <= self.theta <= np.pi:
                raise ValueError("theta must lie in [0, pi]")
            if not 0.0 <= self.phi < 2 * np.pi:
                raise ValueError("phi must lie in [0, 2*pi)")


def _local_axis(theta, phi):
    """The relative_angle policy's measured axis in the frame where the state
    points along e_z: (sin theta cos phi, sin theta sin phi, cos theta)."""
    st = np.sin(theta)
    return st * np.cos(phi), st * np.sin(phi), np.cos(theta)


def _relative_axis(r, norm, local, angles):
    """The relative_angle policy's measured axis for a qubit's Bloch vector
    r = (x, y, z) of length norm: local (_local_axis) turned by Theta about
    (-sin Phi, cos Phi, 0), i.e. Rz(Phi) Ry(Theta) Rz(-Phi), for the polar
    angles (Theta, Phi) of r.  angles are the previous (Theta, Phi), kept
    where norm < BASIS_DEGEN_TOL.  r and norm hold Python floats or (m,)
    arrays, and angles the same or floats (the kernels start from (0, 0),
    the lab frame); returns ((n_x, n_y, n_z), (Theta, Phi)) of r's kind."""
    x, y, z = r
    short = norm < BASIS_DEGEN_TOL
    # norm + short is norm, or norm + 1 where the angles are kept, so nothing
    # divides by zero; min and max, or minimum and maximum, clip as np.clip
    # does, bit for bit
    cos_theta = z / (norm + short)
    if isinstance(cos_theta, float):  # Python's own min and max skip numpy's per-call cost
        cos_theta, kept = min(max(cos_theta, -1.0), 1.0), short
    else:
        cos_theta, kept = np.minimum(np.maximum(cos_theta, -1.0), 1.0), np.count_nonzero(short)
    big_theta, big_phi = np.arccos(cos_theta), np.arctan2(y, x)
    if kept:
        big_theta = np.where(short, angles[0], big_theta)
        big_phi = np.where(short, angles[1], big_phi)
    ct, st = np.cos(big_theta), np.sin(big_theta)
    cp, sp = np.cos(big_phi), np.sin(big_phi)
    lx, ly, lz = local
    u = cp * lx + sp * ly
    w = cp * ly - sp * lx
    ux = ct * u + st * lz
    return (cp * ux - sp * w, sp * ux + cp * w, ct * lz - st * u), (big_theta, big_phi)


@dataclass
class TrajectoryResult:
    times: np.ndarray
    states: np.ndarray            # (n_times, N, N)
    records: np.ndarray           # (n_times - 1,) record increments dy
    fb_hamiltonians: np.ndarray   # (n_times - 1, N, N)

    @property
    def purities(self):
        return np.einsum("tij,tji->t", self.states, self.states).real

    def overlaps(self, psi_target_fn):
        return np.array(
            [overlap(s, psi_target_fn(t)) for t, s in zip(self.times, self.states)]
        )


def _dagger(a):
    """The conjugate transpose of each matrix of an (N, N, m) stack."""
    return a.conj().swapaxes(0, 1)


def _matmul(a, b):
    """a @ b for trajectory-last stacks (N, N, m) of N x N matrices, where an
    (N, N, 1) operand acts on every matrix of the other: a sum of N outer
    products in j order, each a ufunc over the contiguous m axis, so every
    column is computed alone, whatever the width.  The terms are accumulated
    in place (out += term, the same additions in the same order) through one
    work array; a and b are only read."""
    out = a[:, :1] * b[:1]
    term = np.empty_like(out)
    for j in range(1, a.shape[0]):
        out += np.multiply(a[:, j:j + 1], b[j:j + 1], out=term)
    return out


def _apply(a, b):
    """a @ b for a trajectory-last stack b (N, N, m) and an operator a like it
    (_matmul), or given by its diagonal (N, 1) or (N, m): then the row
    scaling a_i b_il, the one term of _matmul's sum that no zero of a
    multiplies, so every entry has _matmul's value (only the sign of an
    exactly zero entry can differ)."""
    return a[:, None] * b if a.ndim == 2 else _matmul(a, b)


def _diagonal(a):
    """The diagonal (N, 1) of an (N, N, 1) operator whose off-diagonal
    entries are all exactly zero, or None for any other."""
    if np.any(a[~np.eye(len(a), dtype=bool)]):
        return None
    return np.einsum("ii...->i...", a).copy()


def _sigma_parts(a):
    """(a00 + a11, x, y, z) as Python floats for a (2, 2) qubit operator
    a = a0 I + (x, y, z).sigma, read from the lower triangle."""
    (a00, _), (a10, a11) = a.tolist()
    return a00.real + a11.real, a10.real, a10.imag, (a00.real - a11.real) / 2


def _kraus_step(rho, Q, k, H, dt, dW, q_sq):
    """One Kraus-map step of the conditioned evolution (see the module
    docstring), with no dephasing.

    rho is a stack (N, N, m) of density matrices, trajectory axis last (a
    single state is an (N, N, 1) stack); H and Q are like rho or (N, N, 1),
    which acts on every state; dW is a scalar or one increment per state.
    The step moves at O(dt^1.5) with the traces of Q and H, which the
    evolution does not see, so the ensemble's matrix kernel passes both
    _centred.  q_sq = Q^2, lifted like Q, is computed once by a
    caller that steps many times with the same Q, as _matmul(Q, Q).
    A diagonal Q may be given by its diagonal, (N, 1) or (N, m), and q_sq
    with it.  The step then skips the products with its off-diagonal zeros:
    Q rho is the row scaling q_i rho_il (_apply), and only the diagonal of M
    receives the drive sqrt(2k) dy~ q_i + k (dy~^2 - 2 dt) q_i^2.  Every
    term that the matrix path adds besides these is a product with an exact
    zero, so it is +0 or -0, and adding it leaves a nonzero sum as it was:
    each entry has the matrix path's value, in the same order of operations,
    and only the sign of an entry that is exactly zero can differ.
    Returns (rho_next, exp_q): the next states and Tr[Q rho] before the step.
    At k = 0 the drive and the Milstein term are exact zeros, so M is
    I - iH dt with the signs of its zero entries at most changed.
    Full-width temporaries are updated in place (out= ufuncs, +=, /=) with
    the operands of every product and sum in the formula's order, so each
    holds the bits a fresh array would, and fewer of them are alive at once
    than in an out-of-place step.  No argument is written.
    """
    rho = np.asarray(rho, dtype=complex)
    H = np.asarray(H, dtype=complex)
    Q = np.asarray(Q, dtype=complex)
    m_op = np.eye(len(rho))[..., None] - 1j * dt * H
    sqrt2k = np.sqrt(2.0 * k)
    exp_q = np.einsum("ii...->...", _apply(Q, rho)).real
    dy_tilde = 2.0 * sqrt2k * dt * exp_q + dW
    drive = (sqrt2k * dy_tilde) * Q
    if Q.ndim == 3:
        m_op = np.add(m_op, drive, out=drive)
        m_op += k * (dy_tilde ** 2 - 2.0 * dt) * q_sq
    else:  # a diagonal Q: only M's diagonal is driven
        if m_op.shape != rho.shape:  # a shared H: every state gets its own M
            m_op = np.repeat(m_op, rho.shape[2], axis=2)
        m_diag = np.einsum("ii...->i...", m_op)  # a view, written in place
        m_diag += drive
        m_diag += k * (dy_tilde ** 2 - 2.0 * dt) * q_sq
    new = _matmul(_matmul(m_op, rho), _dagger(m_op))
    new /= np.einsum("ii...->...", new).real
    return new, exp_q


def _expm(a):
    """exp(a) for a small square matrix by scaling and squaring: the degree-14 Taylor
    polynomial of a / 2^s, for the least s >= 0 with ||a||_1 / 2^s <= 1/2 (so the tail
    is below 2 (1/2)^15 / 15! < 1e-16), squared s times.  No eigendecomposition: a
    Lindbladian is not normal, and at an exceptional point it is defective."""
    s = max(0, int(np.ceil(np.log2(2.0 * np.abs(a).sum(axis=0).max() or 1.0))))
    a = a / 2.0 ** s
    out = eye = np.eye(len(a))
    for j in range(14, 0, -1):  # Horner
        out = eye + (a @ out) / j
    for _ in range(s):
        out = out @ out
    return out


def nonselective_solve(rho0, Q, k, H, beta, t_eval):
    """The outcome-averaged states exp(L t) rho0, each computed from t = 0, at
    the times t_eval, for L rho = -i[H, rho] - k[Q, [Q, rho]] - beta[sz, [sz, rho]]:
    on row-major vec(rho), L = -i C_H - k C_Q^2 - beta C_sz^2, with C_A = A (x) I
    - I (x) A^T.  Independent reference for trajectory-ensemble consistency checks.
    Q is ignored (and may be None) when k = 0; beta > 0 needs N = 2."""
    rho0 = _checked("rho0", check_density_matrix, rho0)
    for name, rate in (("k", k), ("beta", beta)):
        if not 0 <= rate < np.inf:  # written so that NaN fails
            raise ValueError(f"{name} must be non-negative and finite, got {rate}")
    if beta > 0 and rho0.shape != (2, 2):
        raise ValueError(f"beta > 0 (z-dephasing) needs N = 2, got N = {len(rho0)}")

    def operator(name, a):
        a = _checked(name, check_hermitian, a)
        if a.shape != rho0.shape:
            raise ValueError(f"{name} has shape {a.shape}, rho0 {rho0.shape}")
        return a

    H = operator("H", H)
    if k > 0:
        Q = operator("Q", Q)
    times = np.asarray(t_eval, dtype=float).reshape(-1)
    if times.size == 0:
        raise ValueError("t_eval is empty")
    for t in times:
        if not 0 <= t < np.inf:
            raise ValueError(f"time {t} is not finite and non-negative")
    eye = np.eye(len(rho0))

    def comm(a):
        return np.kron(a, eye) - np.kron(eye, np.transpose(a))

    gen = -1j * comm(H)
    if k > 0:
        gen -= k * comm(Q) @ comm(Q)
    if beta > 0:
        gen -= beta * comm(SIGMA_Z) @ comm(SIGMA_Z)
    return np.array([(_expm(gen * t) @ rho0.ravel()).reshape(rho0.shape) for t in times])


def run_control_trajectory(
    cfg: SmeConfig,
    policy: MeasurementPolicy,
    rho0,
    psi_target_fn,
    mu,
    rng,
) -> TrajectoryResult:
    """One closed-loop realization: a lockstep batch of one trajectory that
    draws its noise from rng (see ensemble._advance_chunk).

    Per step: pick the measured observable from the policy, compute the
    optimal feedback Hamiltonian toward the current target (skipped when
    mu = 0, which builds no target), then advance the conditioned state one
    measurement step under H0 + H_fb.  The driver yields the batch after
    every step; every state, with the dy and H_fb (zero when mu = 0) of the
    step that ended there, is kept as the kernel's rows (a qubit's Bloch
    vector and feedback vector as floats), and the matrices are built once,
    at the end (the kernel's snapshot and assemble).
    """
    from .ensemble import EnsembleConfig, _advance_chunk

    batch_cfg = EnsembleConfig(
        realizations=1, master_seed=None, sme=cfg, policy=policy, mu=mu, rho0=rho0,
        target_fn=psi_target_fn if mu > 0 else None, stat_stride=cfg.n_steps,
    )
    kept = []
    for _, batch, _ in _advance_chunk(batch_cfg, 1, [rng]):
        kept.append(batch.snapshot())
    states, records, fb_hams = (out[0] for out in batch.assemble(kept))
    return TrajectoryResult(times=np.arange(cfg.n_steps + 1) * cfg.dt,
                            states=states, records=records, fb_hamiltonians=fb_hams)


def _zeno_branch(psi_start, psi_target, n_measurements):
    """The surviving branch of a dragging run, or None when the states
    coincide, which needs no measurement.

    Returns (f1, branch, p).  The frame (f0, f1) spans the plane of the two
    states, f0 physically equal to the start and the target at angle gamma
    from f0; branch[i] = cos(i eps) f0 + sin(i eps) f1, eps = gamma /
    n_measurements, is the state after i successful measurements (branch[0]
    = f0), and p[i - 1] = |<branch[i]|branch[i - 1]>|^2 is the probability
    that measurement i succeeds.
    """
    if n_measurements < 1:
        raise ValueError("need at least one measurement")
    psi_start = ket(psi_start)
    psi_target = ket(psi_target)
    c = np.vdot(psi_start, psi_target)
    if abs(c) > 1.0 - 1e-12:
        return None

    residual = psi_target - c * psi_start
    f1 = residual / np.linalg.norm(residual)
    phase = c / abs(c) if abs(c) > 1e-15 else 1.0
    f0 = phase * psi_start
    gamma = np.arccos(np.clip(abs(c), 0.0, 1.0))

    eps = gamma / n_measurements
    # cos and sin of each angle as scalars: the array functions may round differently
    angles = [i * eps for i in range(1, n_measurements + 1)]
    cos = np.array([np.cos(a) for a in angles])
    sin = np.array([np.sin(a) for a in angles])
    branch = np.empty((n_measurements + 1, f0.size), dtype=complex)
    branch[0] = f0
    branch[1:] = cos[:, None] * f0 + sin[:, None] * f1
    p = [abs(np.vdot(branch[i], branch[i - 1])) ** 2 for i in range(1, n_measurements + 1)]
    return f1, branch, p


def inverse_zeno_run(psi_start, psi_target, n_measurements, rng):
    """Drag a state to the target with a sequence of slightly rotated projections.

    The geodesic between the two states is split into n_measurements equal
    angular increments; each step applies the two-outcome projective
    measurement onto the advanced state.  Success means every outcome landed
    on the advanced branch, in which case the final state is the target.
    Measurement i draws one rng.random() and succeeds when it is below p_i.
    """
    surviving = _zeno_branch(psi_start, psi_target, n_measurements)
    if surviving is None:
        psi_target = ket(psi_target)
        return True, np.outer(psi_target, psi_target.conj())
    f1, branch, p = surviving
    for i, p_success in enumerate(p, 1):
        if not rng.random() < p_success:
            current, advanced = branch[i - 1], branch[i]
            failed = current - np.vdot(advanced, current) * advanced
            norm = np.linalg.norm(failed)
            if norm < 1e-15:
                failed = f1 if i == n_measurements else branch[0]
                norm = 1.0
            current = failed / norm
            return False, np.outer(current, current.conj())
    current = branch[-1]
    return True, np.outer(current, current.conj())


def inverse_zeno_successes(psi_start, psi_target, n_measurements, runs, rng):
    """Number of successes in `runs` successive inverse_zeno_run calls.

    The surviving branch is the same in every run, so a run is decided by its
    uniforms alone: it fails at its first draw u_i >= p_i and succeeds after
    n_measurements draws below them.  The runs consume exactly the uniforms
    that successive inverse_zeno_run calls draw, in the same order, and leave
    rng in the same state.  Every unfinished run takes at least one more draw,
    so the uniforms come in blocks of one per unfinished run.
    """
    if runs < 1:
        raise ValueError("need at least one run")
    surviving = _zeno_branch(psi_start, psi_target, n_measurements)
    if surviving is None:
        return runs
    p = surviving[2]
    p_low = min(p)
    successes = done = 0
    start = 0  # first draw of the current run, counted from the block's start
    while done < runs:
        u = rng.random(runs - done)
        # a draw below every p_i succeeds wherever it falls in its run
        for t in np.flatnonzero(u >= p_low).tolist():
            whole, i = divmod(t - start, n_measurements)
            successes += whole
            done += whole
            start += whole * n_measurements
            if u[t] >= p[i]:
                done += 1
                start = t + 1
        whole = (len(u) - start) // n_measurements
        successes += whole
        done += whole
        start += whole * n_measurements - len(u)
    return successes
