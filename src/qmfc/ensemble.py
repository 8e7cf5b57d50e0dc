"""Monte Carlo orchestration: the lockstep batch driver behind every trajectory.

_advance_chunk is the package's only closed-loop stepping loop.  Every
ensemble is one lockstep batch of all its trajectories on one thread: a
step's cost is mostly fixed numpy-call overhead, so one wide batch is
cheapest, and threads would only contend for the GIL.  A single trajectory
(sde.run_control_trajectory) is a batch of one fed by the caller's
generator; the rates estimator (metrics.strength_rate_numeric) is an
open-loop ensemble.  Each ensemble trajectory owns a counter-based random
stream derived from (master seed, sweep index, trajectory index), drawn in
blocks of NOISE_BLOCK steps so the noise buffer does not grow with the run
length.  Results are bit-identical for a given master seed and realization
count, however many steps of noise are drawn at a time.  A row of a qubit
batch wider than one depends only on its own stream; a matrix-kernel row can
differ in the last bits between batches narrower and wider than 32, where
sde._matmul changes method.

Two kernels run the same step as sde._kraus_step, with the same noise, the
same feedback branches and the same StepRejected rule:

* qubit batches wider than one (Bloch form; Jacobs and Steck, Contemp.
  Phys. 47, 279 (2006)): each state is a real Bloch vector r,
  rho = (I + r.sigma) / 2, stored as a (3, m) array with one column per
  trajectory.  With Q = q0 I + q.sigma and
  H = h0 I + h.sigma the Kraus operator is M = alpha I + v.sigma, with alpha
  complex and v = a + ib a complex 3-vector, and

      M M^+         = (|alpha|^2 + |v|^2) I + (2 Re(alpha* v) + 2 a x b).sigma
      M (r.sigma) M^+ = 2 (Re(alpha* v) - a x b).r I
                      + ((|alpha|^2 - |v|^2) r + 2a(a.r) + 2b(b.r)
                         - 2 Im(alpha* v) x r).sigma

  while the dephasing channel adds 2 beta dt sz rho sz
  = beta dt (I + (-r_x, -r_y, r_z).sigma).  The next r is the sigma part of
  the sum over its I part.  The step-size diagnostic is (1 - |r_E|) / 2 for
  the first-order Euler-Maruyama state r_E.  Feedback is the first-order
  rotation -sqrt(mu/2) (s x r)/|s x r| toward the target's Bloch vector s, or
  nothing when the state already points at the target; the rare remaining
  rows (second-order branch) go to feedback.optimal_feedback.
* N > 2, and batches of one, where the Bloch kernel's fixed cost per step
  does not pay: (m, N, N) complex stacks through sde._kraus_step.  For
  qubits this matrix kernel is the oracle the Bloch kernel is tested against.
"""

from dataclasses import dataclass

import numpy as np

from .feedback import optimal_feedback
from .sde import (
    MeasurementPolicy,
    SmeConfig,
    StepRejected,
    _default_reject_tol,
    _kraus_step,
    policy_observable,
)
from .states import check_density_matrix

NOISE_BLOCK = 256  # steps of noise drawn per trajectory at a time


@dataclass(frozen=True)
class EnsembleConfig:
    realizations: int
    master_seed: int
    sme: SmeConfig
    policy: MeasurementPolicy
    mu: float
    rho0: np.ndarray
    target_fn: object            # callable t -> pure-state vector, or None
    stat_stride: int = 10        # store statistics every this many steps
    transient_cut: float = 0.0   # drop times < this from the time averages

    def __post_init__(self):
        if self.realizations < 1:
            raise ValueError("need at least one realization")
        if self.stat_stride < 1 or self.sme.n_steps % self.stat_stride != 0:
            raise ValueError("stat_stride must divide the number of steps")
        rho0 = check_density_matrix(self.rho0)
        object.__setattr__(self, "rho0", rho0)
        shape = rho0.shape
        if self.sme.h0.shape != shape:
            raise ValueError(f"h0 has shape {self.sme.h0.shape}, rho0 {shape}")
        if self.policy.mode == "fixed_observable" and self.policy.observable.shape != shape:
            raise ValueError(
                f"observable has shape {self.policy.observable.shape}, rho0 {shape}"
            )
        if self.policy.mode == "relative_angle" and shape != (2, 2):
            raise ValueError("relative_angle policy is defined for qubits")
        if self.sme.dephasing_beta > 0 and shape != (2, 2):
            raise ValueError("dephasing term is defined for qubit configurations")


@dataclass
class EnsembleStats:
    times: np.ndarray
    purity_mean: np.ndarray
    purity_se: np.ndarray
    overlap_mean: np.ndarray
    overlap_se: np.ndarray
    time_avg_purity: float
    time_avg_purity_se: float
    time_avg_overlap: float
    time_avg_overlap_se: float
    realizations: int


def trajectory_rng(master_seed, sweep_index, traj_index):
    """Counter-based per-trajectory stream; independent of execution order."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(sweep_index, traj_index))
    return np.random.Generator(np.random.Philox(seed=seq))


def precessing_plus_x(omega):
    """Target trajectory: spin along +x precessing about z at angular rate omega."""

    def target(t):
        return np.array([np.exp(-1j * omega * t), np.exp(1j * omega * t)]) / np.sqrt(2.0)

    return target


def _feedback_stack(rho, psi, mu, tau_degen=1e-8):
    """Optimal feedback Hamiltonians for a stack of states toward one target."""
    m = rho.shape[0]
    rho_psi = np.einsum("mij,j->mi", rho, psi)
    sig_rho = psi[None, :, None] * np.conj(rho_psi)[:, None, :]
    comm = sig_rho - np.conj(np.swapaxes(sig_rho, 1, 2))
    comm_norm = np.sqrt(np.einsum("mij,mij->m", comm, np.conj(comm)).real)
    rho_norm = np.sqrt(np.einsum("mij,mij->m", rho, np.conj(rho)).real)
    active = comm_norm > tau_degen * rho_norm
    h = np.zeros_like(rho)
    if np.any(active):
        chi = np.zeros(m)
        chi[active] = np.sqrt(mu) / comm_norm[active]
        h = 1j * chi[:, None, None] * comm
        h = (h + np.conj(np.swapaxes(h, 1, 2))) / 2
    for idx in np.nonzero(~active)[0]:
        h[idx] = optimal_feedback(
            np.asarray(rho[idx]), psi, mu
        ).hamiltonian
    return h


class _MatrixKernel:
    """States as an (m, N, N) complex stack, advanced by sde._kraus_step."""

    def __init__(self, cfg, m):
        n = cfg.rho0.shape[0]
        self.cfg = cfg
        self.rho = np.broadcast_to(cfg.rho0, (m, n, n)).astype(complex).copy()
        self.bases = [None] * m  # per-row eigenbases of the relative_angle policy

    def target(self, psi):
        return psi

    def step(self, psi, dw):
        cfg, sme = self.cfg, self.cfg.sme
        if cfg.policy.mode == "relative_angle":
            picks = [policy_observable(cfg.policy, rho, prev_basis=basis)
                     for rho, basis in zip(self.rho, self.bases)]
            q_obs = np.array([q for q, _ in picks])
            self.bases = [basis for _, basis in picks]
        else:
            q_obs = cfg.policy.observable
        h_fb = _feedback_stack(self.rho, psi, cfg.mu) if cfg.mu > 0 else None
        h = np.broadcast_to(sme.h0, self.rho.shape) if h_fb is None else sme.h0[None, :, :] + h_fb
        self.rho, exp_q, euler_min = _kraus_step(
            self.rho, q_obs, sme.k, h, sme.dt, dw, beta=sme.dephasing_beta
        )
        self._last = exp_q, dw, h_fb
        return euler_min

    def last_step(self):
        """(dy, H_fb) of the last step: record increments, shape (m,), and
        feedback Hamiltonians, shape (m, N, N), or None when mu = 0."""
        exp_q, dw, h_fb = self._last
        k, dt = self.cfg.sme.k, self.cfg.sme.dt
        return 4.0 * k * exp_q * dt + np.sqrt(2.0 * k) * dw, h_fb

    def purity(self):
        return np.einsum("mij,mji->m", self.rho, self.rho).real

    def overlap(self, psi):
        return np.einsum("i,mij,j->m", psi.conj(), self.rho, psi).real

    def states(self):
        return self.rho


def _pauli(a):
    """(a0, a_vec) with a = a0 I + a_vec.sigma, for a Hermitian 2x2 matrix."""
    return (a[0, 0] + a[1, 1]).real / 2, np.array(
        [a[0, 1].real, -a[0, 1].imag, (a[0, 0] - a[1, 1]).real / 2]
    )


def _density(r):
    """(I + r.sigma) / 2 for a Bloch vector (3,) or a stack (3, m) -> (m, 2, 2)."""
    x, y, z = r
    rho = np.empty(np.shape(x) + (2, 2), dtype=complex)
    rho[..., 0, 0] = (1.0 + z) / 2
    rho[..., 1, 1] = (1.0 - z) / 2
    rho[..., 0, 1] = (x - 1j * y) / 2
    rho[..., 1, 0] = (x + 1j * y) / 2
    return rho


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b, out):
    """a x b for (3, m) or (3, 1) stacks, written into the (3, m) array out."""
    np.subtract(a[1] * b[2], a[2] * b[1], out=out[0])
    np.subtract(a[2] * b[0], a[0] * b[2], out=out[1])
    np.subtract(a[0] * b[1], a[1] * b[0], out=out[2])
    return out


class _BlochKernel:
    """Qubit states as Bloch vectors, shape (3, m); see the module docstring."""

    def __init__(self, cfg, m):
        self.cfg = cfg
        self.r = np.repeat(2.0 * _pauli(cfg.rho0)[1][:, None], m, axis=1)
        self.h0_trace, h0 = _pauli(cfg.sme.h0)
        self.h0 = h0[:, None]
        # work arrays for the cross products and the measured axis, reused every step
        self._sxr, self._axb, self._imxr, self._hxr, self._q = np.empty((5, 3, m))
        policy = cfg.policy
        if policy.mode == "relative_angle":
            st = np.sin(policy.theta)
            # measured axis in the frame whose z axis is the state's direction
            self.local = (st * np.cos(policy.phi), st * np.sin(policy.phi), np.cos(policy.theta))
            self.angles = np.zeros((2, m))  # the state's (Theta, Phi); kept where |r| < 1e-12
        else:
            self.q_trace, q = _pauli(policy.observable)
            self.q = q[:, None]

    def target(self, psi):
        """(psi, s0, s) with s0 I + s.sigma = |psi><psi|, shared by feedback and overlap."""
        return (psi,) + _pauli(np.outer(psi, psi.conj()))

    def _measured_axis(self, norm):
        if self.cfg.policy.mode == "fixed_observable":
            return self.q_trace, self.q
        x, y, z = self.r
        ok = norm >= 1e-12
        big_theta = np.arccos(np.clip(z / np.where(ok, norm, 1.0), -1.0, 1.0))
        np.copyto(self.angles[0], big_theta, where=ok)
        np.copyto(self.angles[1], np.arctan2(y, x), where=ok)
        ct, st = np.cos(self.angles[0]), np.sin(self.angles[0])
        cp, sp = np.cos(self.angles[1]), np.sin(self.angles[1])
        # rotate by Theta about (-sin Phi, cos Phi, 0), i.e. Rz(Phi) Ry(Theta) Rz(-Phi)
        lx, ly, lz = self.local
        u = cp * lx + sp * ly
        w = cp * ly - sp * lx
        ux = ct * u + st * lz
        q = self._q
        np.subtract(cp * ux, sp * w, out=q[0])
        np.add(sp * ux, cp * w, out=q[1])
        np.subtract(ct * lz, st * u, out=q[2])
        return 0.0, q

    def _feedback(self, target, r_norm):
        r, mu = self.r, self.cfg.mu
        psi, s_trace, s = target
        sxr = _cross(s[:, None], r, self._sxr)
        sxr_norm = np.sqrt(_dot(sxr, sxr))
        # the matrix rule ||[sigma, rho]||_F > 1e-8 ||rho||_F in Bloch form
        tau = 1e-8 * np.sqrt((1.0 + r_norm * r_norm) / 2)
        active = np.sqrt(2.0) * sxr_norm > tau
        h = np.where(active, sxr * (-np.sqrt(mu / 2) / np.where(active, sxr_norm, 1.0)), 0.0)
        # no-op rows: the target already carries the top eigenvalue (1 + |r|) / 2
        rare = ~active & ((1.0 + r_norm) / 2 - (s_trace + _dot(s, r)) > tau)
        for j in np.nonzero(rare)[0]:
            h[:, j] = _pauli(optimal_feedback(_density(r[:, j]), psi, mu).hamiltonian)[1]
        return h

    def step(self, target, dw):
        cfg, r = self.cfg, self.r
        k, dt, beta = cfg.sme.k, cfg.sme.dt, cfg.sme.dephasing_beta
        sqrt2k = np.sqrt(2.0 * k)
        r_norm = np.sqrt(_dot(r, r))
        q_trace, q = self._measured_axis(r_norm)
        h_fb = self._feedback(target, r_norm) if cfg.mu > 0 else None
        h = self.h0 if h_fb is None else self.h0 + h_fb

        qr = _dot(q, r)
        qq = _dot(q, q)
        dy_tilde = 2.0 * sqrt2k * dt * (q_trace + qr) + dw
        c2 = k * (dy_tilde * dy_tilde - 2.0 * dt)
        alpha_re = (1.0 - beta * dt) + sqrt2k * dy_tilde * q_trace + c2 * (q_trace ** 2 + qq)
        alpha_im = -dt * self.h0_trace
        a = (sqrt2k * dy_tilde + 2.0 * c2 * q_trace) * q
        b = -dt * h
        re_av = alpha_re * a + alpha_im * b
        im_av = alpha_re * b - alpha_im * a
        axb = _cross(a, b, self._axb)
        alpha2 = alpha_re * alpha_re + alpha_im * alpha_im
        v2 = _dot(a, a) + _dot(b, b)
        identity_part = (alpha2 + v2) / 2 + _dot(re_av - axb, r) + beta * dt
        sigma_part = (re_av + axb + ((alpha2 - v2) / 2) * r + a * _dot(a, r)
                      + b * _dot(b, r) - _cross(im_av, r, self._imxr))
        sigma_part[:2] -= (beta * dt) * r[:2]
        sigma_part[2] += (beta * dt) * r[2]

        drift = 2.0 * _cross(h, r, self._hxr) + (4.0 * k) * (q * qr - qq * r)
        drift[:2] -= (4.0 * beta) * r[:2]
        euler = r + dt * drift + (2.0 * sqrt2k * dw) * (q - qr * r)
        self.r = sigma_part / identity_part
        self._last = sqrt2k, dy_tilde, h_fb
        return (1.0 - np.sqrt(_dot(euler, euler))) / 2

    def last_step(self):
        """As _MatrixKernel.last_step; dy = sqrt(2k) dy~."""
        sqrt2k, dy_tilde, h_fb = self._last
        return sqrt2k * dy_tilde, None if h_fb is None else 2.0 * _density(h_fb) - np.eye(2)

    def purity(self):
        return (1.0 + _dot(self.r, self.r)) / 2

    def overlap(self, target):
        _, s_trace, s = target
        return s_trace + _dot(s, self.r)

    def states(self):
        return _density(self.r)


def _trajectory_streams(cfg, sweep_index):
    """The ensemble's per-trajectory streams, each opened when first drawn."""
    return (trajectory_rng(cfg.master_seed, sweep_index, j) for j in range(cfg.realizations))


def _advance_chunk(cfg: EnsembleConfig, width, streams, checkpoint_steps=None, kernel=None):
    """Run one lockstep batch of `width` trajectories; the j-th draws its noise
    from the j-th generator of the iterable `streams`.

    Returns (purity, overlap, states, records, feedback).  purity and overlap
    hold a column every stat_stride steps.  The other three are None unless
    checkpoint_steps (a sequence of step indices) is given; then they hold,
    per trajectory and checkpoint, the conditioned state, shape
    (width, n_cp, N, N), and the record increment dy and feedback Hamiltonian
    of the step that ended there (zero at step 0; feedback is a read-only
    zero array when mu = 0).  kernel defaults to _BlochKernel for qubit
    batches wider than one, whose fixed cost per step pays only on wide
    batches, and to _MatrixKernel otherwise.
    """
    sme = cfg.sme
    n = cfg.rho0.shape[0]
    n_steps = sme.n_steps
    dt = sme.dt
    reject_tol = _default_reject_tol(sme.k, sme.dephasing_beta, dt)
    if kernel is None:
        kernel = _BlochKernel if n == 2 and width > 1 else _MatrixKernel

    # a stream is opened when its first block is drawn and kept only while
    # blocks remain; its next block of increments continues it exactly
    block = NOISE_BLOCK
    dw = np.empty((min(block, n_steps), width))

    batch = kernel(cfg, width)
    n_stat = n_steps // cfg.stat_stride
    pur = np.empty((width, n_stat + 1))
    ovl = np.empty((width, n_stat + 1))
    states = records = feedback = None
    cp_slots = {}
    if checkpoint_steps is not None:
        cp_slots = {int(s): i for i, s in enumerate(checkpoint_steps)}
        shape = (width, len(cp_slots), n, n)
        states = np.empty(shape, dtype=complex)
        records = np.zeros(shape[:2])
        if cfg.mu > 0:
            feedback = np.zeros(shape, dtype=complex)
        else:
            feedback = np.broadcast_to(np.zeros((), dtype=complex), shape)
        if 0 in cp_slots:
            states[:, cp_slots[0]] = batch.states()

    def target(t):
        return batch.target(cfg.target_fn(t)) if cfg.target_fn is not None else None

    def record(slot, target_t):
        pur[:, slot] = batch.purity()
        ovl[:, slot] = np.nan if target_t is None else batch.overlap(target_t)

    target_t = target(0.0)
    record(0, target_t)

    for step in range(n_steps):
        row = step % block
        if row == 0:
            rows = dw[:min(block, n_steps - step)]
            more = step + len(rows) < n_steps
            kept = []
            for j, gen in enumerate(streams):
                rows[:, j] = gen.standard_normal(len(rows)) * np.sqrt(dt)
                if more:
                    kept.append(gen)
            streams = kept
        euler_min = batch.step(target_t, dw[row])
        worst = euler_min.min()
        if worst < -reject_tol:
            bad = int(np.argmin(euler_min))
            raise StepRejected(
                f"trajectory {bad} (master_seed {cfg.master_seed}) at step {step}: "
                f"first-order eigenvalue {worst:.3e} below -{reject_tol:.1e}; reduce dt"
            )

        target_t = target((step + 1) * dt)
        if step + 1 in cp_slots:
            slot = cp_slots[step + 1]
            states[:, slot] = batch.states()
            records[:, slot], h_fb = batch.last_step()
            if h_fb is not None:
                feedback[:, slot] = h_fb
        if (step + 1) % cfg.stat_stride == 0:
            record((step + 1) // cfg.stat_stride, target_t)

    return pur, ovl, states, records, feedback


def run_ensemble(cfg: EnsembleConfig, sweep_index=0) -> EnsembleStats:
    """Advance all realizations as one batch and aggregate purity/overlap statistics."""
    r = cfg.realizations
    n_stat = cfg.sme.n_steps // cfg.stat_stride
    times = np.arange(n_stat + 1) * cfg.stat_stride * cfg.sme.dt
    pur, ovl = _advance_chunk(cfg, r, _trajectory_streams(cfg, sweep_index))[:2]

    keep = times >= cfg.transient_cut
    tavg_p = pur[:, keep].mean(axis=1)
    tavg_o = ovl[:, keep].mean(axis=1)

    def se(x, axis=0):
        if r < 2:
            return np.full(np.shape(np.mean(x, axis=axis)), np.nan)
        return np.std(x, axis=axis, ddof=1) / np.sqrt(r)

    return EnsembleStats(
        times=times,
        purity_mean=pur.mean(axis=0),
        purity_se=se(pur),
        overlap_mean=ovl.mean(axis=0),
        overlap_se=se(ovl),
        time_avg_purity=float(tavg_p.mean()),
        time_avg_purity_se=float(se(tavg_p)) if r > 1 else float("nan"),
        time_avg_overlap=float(tavg_o.mean()),
        time_avg_overlap_se=float(se(tavg_o)) if r > 1 else float("nan"),
        realizations=r,
    )


def ensemble_states(cfg: EnsembleConfig, checkpoint_times, sweep_index=0):
    """Per-trajectory conditioned states at the requested times.

    Returns an array of shape (realizations, n_checkpoints, N, N) using the
    same random streams as run_ensemble, so the conditional ensemble average
    can be compared entrywise against the outcome-averaged master equation.
    """
    dt = cfg.sme.dt
    steps = []
    for t in checkpoint_times:
        step = int(round(t / dt))
        if not 0 <= step <= cfg.sme.n_steps or abs(step * dt - t) > 1e-9 * max(t, dt):
            raise ValueError(f"checkpoint time {t} is not on the step grid")
        steps.append(step)

    streams = _trajectory_streams(cfg, sweep_index)
    return _advance_chunk(cfg, cfg.realizations, streams, checkpoint_steps=steps)[2]


def theta_experiment(base: EnsembleConfig, theta_grid):
    """Closed-loop ensemble per measurement angle; rows of
    (theta, time_avg_purity, se, time_avg_overlap, se)."""
    rows = []
    for i, theta in enumerate(np.asarray(theta_grid, dtype=float)):
        policy = MeasurementPolicy(
            mode="relative_angle", theta=float(theta), phi=base.policy.phi
        )
        cfg = EnsembleConfig(
            realizations=base.realizations,
            master_seed=base.master_seed,
            sme=base.sme,
            policy=policy,
            mu=base.mu,
            rho0=base.rho0,
            target_fn=base.target_fn,
            stat_stride=base.stat_stride,
            transient_cut=base.transient_cut,
        )
        stats = run_ensemble(cfg, sweep_index=i)
        rows.append(
            (
                float(theta),
                stats.time_avg_purity,
                stats.time_avg_purity_se,
                stats.time_avg_overlap,
                stats.time_avg_overlap_se,
            )
        )
    return rows
