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
eigenvalue clip is needed.  A step is still rejected (dt too large) when the
first-order Euler-Maruyama state from the same rho would have an eigenvalue
far below zero.  For N > 2 that eigenvalue is bounded without an eigensolve:
rho' is positive semidefinite, so by Weyl's inequality the Euler state's
smallest eigenvalue is at least -||euler - rho'||_F, and the batch is
eigensolved only when that bound could reach the rejection threshold.

The closed loop measures a spin direction at a fixed Bloch angle from the
instantaneous eigenbasis of rho and applies the optimal constrained feedback
Hamiltonian recomputed every step.  Trajectories are stepped by the batch
driver in qmfc.ensemble; run_control_trajectory is a batch of one.

Measurement dragging (inverse_zeno_run) follows one deterministic surviving
branch, so many runs need only their uniforms: inverse_zeno_successes
decides a whole batch of runs from blocks of draws, consuming exactly the
uniforms that successive inverse_zeno_run calls would, in the same order.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .povm import bloch_rotation
from .states import SIGMA_Z, check_density_matrix, check_hermitian, ket, overlap


# a qubit's eigenbasis is undefined when its Bloch vector is shorter than this;
# the measured axis then keeps the previous basis (both kernels)
BASIS_DEGEN_TOL = 1e-12


class StepRejected(RuntimeError):
    """Raised when dt is too large: the first-order step lands far off the physical manifold."""


@dataclass(frozen=True)
class SmeConfig:
    k: float                 # measurement constant [1/time]
    h0: np.ndarray           # drift Hamiltonian
    dephasing_beta: float = 0.0
    dt: float = 1e-4
    t_end: float = 1.0

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.k < 0 or self.dephasing_beta < 0:
            raise ValueError("k and dephasing_beta must be non-negative")
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")
        h0 = check_hermitian(np.asarray(self.h0, dtype=complex))
        object.__setattr__(self, "h0", h0)
        scale = max(self.k, self.dephasing_beta, float(np.linalg.norm(h0, 2)))
        if self.dt * scale > 0.05:
            warnings.warn(
                f"dt * max(k, beta, ||H0||) = {self.dt * scale:.3g} > 0.05; "
                f"integration error may be significant",
                stacklevel=2,
            )

    @property
    def n_steps(self):
        return int(round(self.t_end / self.dt))


@dataclass(frozen=True)
class MeasurementPolicy:
    """Which spin direction to measure at each step.

    mode "fixed_observable" measures the given observable throughout; mode
    "relative_angle" measures, on a qubit, the spin direction at Bloch angle
    (theta, phi) from the instantaneous eigenbasis of rho.
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
            object.__setattr__(
                self, "observable", check_hermitian(np.asarray(self.observable, dtype=complex))
            )
        else:
            if not 0.0 <= self.theta <= np.pi:
                raise ValueError("theta must lie in [0, pi]")
            if not 0.0 <= self.phi < 2 * np.pi:
                raise ValueError("phi must lie in [0, 2*pi)")


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


def _default_reject_tol(k, beta, dt):
    # Euler-Maruyama leaves the manifold by O(sqrt(dt)) near pure states;
    # anything much beyond that signals a genuinely unstable step size
    return np.sqrt(2.0 * max(k, beta, 1.0) * dt)


def _dagger(a):
    return a.conj().swapaxes(0, 1)


def _matmul(a, b):
    """a @ b for N x N matrices or trajectory-last stacks (N, N, m) of them, a
    matrix acting on every matrix of a stack: np.matmul below 32 matrices, and
    from 32 on a sum of N outer products, each a ufunc over the contiguous m axis."""
    n = a.shape[0]
    if a.ndim == 2 and b.ndim == 2:
        return a @ b
    if max(a.size, b.size) < 32 * n * n:
        return np.ascontiguousarray(np.matmul(a, b, axes=[(0, 1)] * 3))
    a, b = (x[..., None] if x.ndim == 2 else x for x in (a, b))
    out = a[:, :1] * b[:1]
    for j in range(1, n):
        out = out + a[:, j:j + 1] * b[j:j + 1]
    return out


def _min_eigenvalue(a):
    """Smallest eigenvalue of a Hermitian matrix or stack (lower triangle read)."""
    if a.shape[0] != 2:
        return np.linalg.eigvalsh(a.transpose(2, 0, 1) if a.ndim == 3 else a)[..., 0]
    d00, d11 = a[0, 0].real, a[1, 1].real
    gap = np.sqrt(((d00 - d11) / 2) ** 2 + np.abs(a[1, 0]) ** 2)
    return (d00 + d11) / 2 - gap


# sz rho sz flips the sign of a qubit's off-diagonal entries
_SZ_SANDWICH = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _kraus_step(rho, Q, k, H, dt, dW, beta=0.0, tol=None):
    """One Kraus-map step of the conditioned evolution (see the module docstring).

    rho is (N, N) or a stack (N, N, m), trajectory axis last; H and Q (ignored
    when k = 0) are like rho or (N, N); dW is a scalar or one increment per
    state.  beta > 0 (z-dephasing) needs N = 2, which EnsembleConfig enforces.
    Returns (rho_next, exp_q, euler_min): the next state(s), Tr[Q rho] before
    the step (0 when k = 0), and the step-size diagnostic, the smallest
    eigenvalue of the first-order Euler-Maruyama state from the same rho.
    With a rejection tolerance tol and N > 2, euler_min is instead the lower
    bound -||euler - rho_next||_F of every state whenever the largest of
    these distances is at most tol less 1e-9 (a margin for rho_next's
    rounding-level negative eigenvalues), so no state can be rejected; it
    is exact otherwise, and always for N = 2 or without tol.
    """
    rho = np.asarray(rho, dtype=complex)
    n = rho.shape[0]

    def lift(a):  # an (N, N) operand of a stack acts on every trajectory
        return a[..., None] if a.ndim < rho.ndim else a

    H = lift(np.asarray(H, dtype=complex))

    # the first-order (Euler-Maruyama) increment is g + g^+
    g = (-1j * dt) * _matmul(H, rho)
    m_op = (1.0 - beta * dt) * lift(np.eye(n)) - 1j * dt * H
    exp_q = np.zeros(rho.shape[2:])
    if k > 0:
        Q = lift(np.asarray(Q, dtype=complex))
        sqrt2k = np.sqrt(2.0 * k)
        q_rho = _matmul(Q, rho)
        exp_q = np.einsum("ii...->...", q_rho).real
        g = g - (k * dt) * _matmul(Q, q_rho - _dagger(q_rho)) + (sqrt2k * dW) * (
            q_rho - exp_q * rho
        )
        dy_tilde = 2.0 * sqrt2k * dt * exp_q + dW
        m_op = m_op + sqrt2k * dy_tilde * Q + k * (dy_tilde ** 2 - 2.0 * dt) * _matmul(Q, Q)
    new = _matmul(_matmul(m_op, rho), _dagger(m_op))
    if beta > 0:
        sz_rho_sz = lift(_SZ_SANDWICH) * rho
        g = g + (beta * dt) * (sz_rho_sz - rho)
        new = new + (2.0 * beta * dt) * sz_rho_sz
    new = new / np.einsum("ii...->...", new).real
    euler = rho + g + _dagger(g)
    if tol is not None and n > 2:
        dist = np.linalg.norm(euler - new, axis=(0, 1))
        if dist.max() <= tol - 1e-9:
            return new, exp_q, -dist
    return new, exp_q, _min_eigenvalue(euler)


def nonselective_solve(rho0, Q, k, H, beta, t_eval):
    """Outcome-averaged evolution integrated with an adaptive ODE solver.

    Independent reference for trajectory-ensemble consistency checks.
    """
    from scipy.integrate import solve_ivp

    rho0 = check_density_matrix(rho0)
    n = rho0.shape[0]
    H = np.asarray(H, dtype=complex)
    Q = None if Q is None else np.asarray(Q, dtype=complex)

    def rhs(_t, y):
        rho = y.reshape(n, n)
        out = -1j * (H @ rho - rho @ H)
        if k > 0:
            comm = Q @ rho - rho @ Q
            out -= k * (Q @ comm - comm @ Q)
        if beta > 0:
            comm = SIGMA_Z @ rho - rho @ SIGMA_Z
            out -= beta * (SIGMA_Z @ comm - comm @ SIGMA_Z)
        return out.ravel()

    t_eval = np.asarray(t_eval, dtype=float)
    sol = solve_ivp(
        rhs,
        (0.0, t_eval[-1]),
        rho0.ravel().astype(complex),
        t_eval=t_eval,
        rtol=1e-10,
        atol=1e-12,
    )
    return sol.y.T.reshape(-1, n, n)


def qubit_eigenbasis(rho, prev=None):
    """Columns (top eigenvector, bottom eigenvector) of a qubit rho, with a
    deterministic Bloch-sphere phase convention.

    At eigen-degeneracy (maximally mixed rho) the previous basis is reused so
    the measured direction varies continuously along a trajectory.
    """
    rho = np.asarray(rho, dtype=complex)
    rx = 2.0 * rho[0, 1].real
    ry = -2.0 * rho[0, 1].imag
    rz = (rho[0, 0] - rho[1, 1]).real
    r = np.sqrt(rx * rx + ry * ry + rz * rz)
    if r < BASIS_DEGEN_TOL:
        if prev is not None:
            return prev
        return np.eye(2, dtype=complex)
    big_theta = np.arccos(np.clip(rz / r, -1.0, 1.0))
    big_phi = np.arctan2(ry, rx)
    c, s = np.cos(big_theta / 2), np.sin(big_theta / 2)
    e = np.exp(1j * big_phi)
    return np.array([[c, -s / e], [s * e, c]], dtype=complex)


def _rotated_sigma_z(theta, phi=0.0):
    """sz turned to Bloch angle (theta, phi) from the z-axis."""
    a = bloch_rotation(theta, phi)
    return a @ SIGMA_Z @ a.conj().T


def relative_observable(basis, theta, phi=0.0):
    """Spin observable at Bloch angle (theta, phi) from the given eigenbasis."""
    return basis @ _rotated_sigma_z(theta, phi) @ basis.conj().T


def run_control_trajectory(
    cfg: SmeConfig,
    policy: MeasurementPolicy,
    rho0,
    psi_target_fn,
    mu,
    rng,
    store_every=1,
) -> TrajectoryResult:
    """One closed-loop realization: a lockstep batch of one trajectory that
    draws its noise from rng (see ensemble._advance_chunk).

    Per step: pick the measured observable from the policy, compute the
    optimal feedback Hamiltonian toward the current target (skipped when
    mu = 0), then advance the conditioned state one measurement step under
    H0 + H_fb.  The driver yields the batch after every step; every store_every
    steps its state, and the step's dy and H_fb (zero when mu = 0), are kept.
    """
    from .ensemble import EnsembleConfig, _advance_chunk

    if store_every < 1:
        raise ValueError("store_every must be a positive number of steps")
    n_steps = cfg.n_steps
    batch_cfg = EnsembleConfig(
        realizations=1, master_seed=None, sme=cfg, policy=policy, mu=mu, rho0=rho0,
        target_fn=psi_target_fn, stat_stride=max(n_steps, 1),
    )
    steps = np.arange(0, n_steps + 1, store_every)
    states = np.empty((len(steps),) + batch_cfg.rho0.shape, dtype=complex)
    records = np.zeros(len(steps) - 1)
    fb_hams = np.zeros_like(states[1:])
    for step, batch, _ in _advance_chunk(batch_cfg, 1, [rng]):
        slot, off = divmod(step, store_every)
        if off == 0:
            states[slot] = batch.states()[0]
            if slot > 0:
                dy, h_fb = batch.last_step()
                records[slot - 1] = dy[0]
                if h_fb is not None:
                    fb_hams[slot - 1] = h_fb[0]
    return TrajectoryResult(times=steps * cfg.dt, states=states, records=records,
                            fb_hamiltonians=fb_hams)


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
