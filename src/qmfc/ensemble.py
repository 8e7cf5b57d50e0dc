"""Monte Carlo orchestration: the lockstep batch driver behind every trajectory.

_advance_chunk is the package's only closed-loop stepping loop: a generator
that yields the batch after every step to callers that keep what they read.
Every ensemble is one lockstep batch of all its trajectories on one thread:
a step's cost is mostly fixed numpy-call overhead, so one wide batch is
cheapest, and threads would only contend for the GIL.  A single trajectory
(sde.run_control_trajectory) is a batch of one fed by the caller's
generator; the rates estimator (metrics.strength_rate_numeric) is an
open-loop ensemble.  Each ensemble trajectory owns a counter-based random
stream derived from (master seed, sweep index, trajectory index): the Philox
stream numpy seeds from SeedSequence(entropy=master seed, spawn_key=(sweep
index, trajectory index)).  A Philox stream is a key and a counter, so an
ensemble derives all its keys in one vectorised pass of SeedSequence's hash
(_philox_keys) and opens each stream directly on its key; the streams, and so
every drawn number, are numpy's own.  Noise is drawn in blocks of
NOISE_BLOCK steps so the noise buffer does not grow with the run length.
Results are bit-identical for a given master seed and realization count,
however many steps of noise are drawn at a time.  A row of a qubit
batch wider than one depends only on its own stream, and so does a row of a
matrix-kernel batch of 32 or more; below 32, where sde._matmul changes
method, a matrix-kernel row can differ in the last bits.

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
  the sum over its I part.  When Tr Q = Tr H0 = 0 (every relative_angle run
  with a traceless H0, sigma observables, the rates estimator) the terms in
  q0 and Im alpha = -h0 dt are exactly zero and are skipped; the rest is the
  same operations in the same order, so rows do not change in any bit.
  The step-size diagnostic is (1 - |r_E|) / 2 for the first-order
  Euler-Maruyama state r_E; a step is rejected when it is below -tol, that
  is when |r_E| > 1 + 2 tol.  With eps = 2 sqrt(2k) dW,
  c_r = 1 - 4k dt (q.q) - eps (q.r) and c_q = 4k dt (q.r) + eps,

      |r_E| <= sqrt(c_r^2 |r|^2 + 2 c_r c_q (q.r) + c_q^2 (q.q))
               + dt (2 (|g| + sqrt(mu/2)) + 4 beta) |r|

  for H0 = g0 I + g.sigma (_euler_norm_bound: the first term is the exact
  norm of c_r r + c_q q, the second bounds the rotation and dephasing, since
  feedback rows of either branch have |h_fb| <= sqrt(mu/2)).  r_E is built
  only when the batch maximum of this bound exceeds 1 + 2 tol less 1e-9 for
  rounding, which never happens at fig2's defaults (largest bound about
  1.012 against 1.04), so the rejected set and the StepRejected message are
  those of the matrix kernel.  Feedback is the first-order rotation
  -sqrt(mu/2) (s x r)/|s x r| toward the target's Bloch vector s, or nothing
  when the state already points at the target; the rare remaining rows
  (second-order branch) go to feedback.optimal_feedback.
* N > 2, and batches of one, where the Bloch kernel's fixed cost per step
  does not pay: (N, N, m) complex arrays, trajectory axis last, through
  sde._kraus_step.  For qubits this matrix kernel is the Bloch kernel's oracle.
  For N > 2 its step-size diagnostic is the per-row lower bound
  -||euler - rho'||_F (Weyl's inequality), and the batch is eigensolved only
  when the bound could reach the StepRejected threshold, so the rejected set
  and the message are those of the exact diagnostic.  Feedback rows that the
  first-order test leaves go through one batched eigvalsh: rows whose target
  already carries the top eigenvalue, such as every row at I/N, are no-ops,
  and only the rest (second-order branch) go to feedback.optimal_feedback.
"""

from dataclasses import dataclass, replace

import numpy as np

from .feedback import DEGEN_TOL, optimal_feedback
from .sde import (
    BASIS_DEGEN_TOL,
    MeasurementPolicy,
    SmeConfig,
    StepRejected,
    _default_reject_tol,
    _kraus_step,
    _rotated_sigma_z,
    qubit_eigenbasis,
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
        if self.mu < 0 or (self.mu > 0 and self.target_fn is None):
            raise ValueError("mu must be non-negative, and zero without a target_fn")
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


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _words(n):
    """The number of 32-bit words SeedSequence makes of the integer n >= 0."""
    return max(1, (int(n).bit_length() + 31) // 32)


def _hash_consts(init, mult, first):
    """init * mult**k mod 2**32 for k = first, ..., first + 3, as a (4, 1) uint32 column."""
    return np.array([[init * pow(mult, k, 1 << 32) & _MASK32]
                     for k in range(first, first + 4)], dtype=np.uint32)


def _philox_keys(master_seed, sweep_index, indices):
    """Philox keys, shape (len(indices), 2) uint64, of the streams
    (master_seed, sweep_index, j) for the trajectory indices j.

    Row j is SeedSequence(entropy=master_seed, spawn_key=(sweep_index, j))
    .generate_state(2, np.uint64), the key Philox(seed=that SeedSequence)
    takes, computed for every j at once.  The pool of the shared prefix
    (master_seed, sweep_index) is numpy's own; the entropy words of j come
    last, so they are mixed into copies of it, continuing the hash constant
    where the prefix left it, and the output words are then generated.
    Indices must be integers in [0, 2**64).
    """
    prefix = np.random.SeedSequence(entropy=master_seed, spawn_key=(sweep_index,))
    j = np.asarray(indices)
    if j.dtype.kind not in "iu" or (j.size and j.min() < 0):
        raise ValueError("trajectory indices must be non-negative integers")
    j = j.astype(np.uint64)

    # hashmix calls so far: 4 to fill the pool, 12 to cross-mix it and 4 per
    # further entropy word (the seed is padded to 4 words before a spawn key)
    calls = 16 + 4 * (max(4, _words(prefix.entropy)) - 4 + _words(sweep_index))
    pool = np.repeat(prefix.pool[:, None], len(j), axis=1)
    words = [(j.astype(np.uint32), slice(None))]  # the low word of every j
    two_words = j > _MASK32
    if two_words.any():
        words.append(((j[two_words] >> np.uint64(32)).astype(np.uint32), two_words))
    for n, (word, cols) in enumerate(words):
        # hashmix the word once per pool word, each with its own hash constant
        hashed = word ^ _hash_consts(_INIT_A, _MULT_A, calls + 4 * n)
        hashed *= _hash_consts(_INIT_A, _MULT_A, calls + 4 * n + 1)
        hashed ^= hashed >> np.uint32(16)
        mixed = np.uint32(_MIX_L) * pool[:, cols] - np.uint32(_MIX_R) * hashed
        pool[:, cols] = mixed ^ (mixed >> np.uint32(16))

    # generate_state: four output words, read as two little-endian uint64
    state = pool ^ _hash_consts(_INIT_B, _MULT_B, 0)
    state *= _hash_consts(_INIT_B, _MULT_B, 1)
    state ^= state >> np.uint32(16)
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


class _PhiloxKey(np.random.bit_generator.ISeedSequence):
    """A seed that gives Philox its precomputed key and nothing else."""

    def __init__(self, key):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError("a Philox key is two uint64 words")
        return self.key


def _open_stream(key):
    return np.random.Generator(np.random.Philox(seed=_PhiloxKey(key)))


def trajectory_rng(master_seed, sweep_index, traj_index):
    """Counter-based per-trajectory stream; independent of execution order.

    The stream of Philox(SeedSequence(entropy=master_seed,
    spawn_key=(sweep_index, traj_index))), opened on the key _philox_keys
    derives, the same derivation an ensemble makes for all its trajectories
    at once.
    """
    return _open_stream(_philox_keys(master_seed, sweep_index, [traj_index])[0])


def precessing_plus_x(omega):
    """Target trajectory: spin along +x precessing about z at angular rate omega."""

    def target(t):
        return np.array([np.exp(-1j * omega * t), np.exp(1j * omega * t)]) / np.sqrt(2.0)

    return target


def _feedback_stack(rho, psi, mu):
    """Optimal feedback Hamiltonians (N, N, m) for a trajectory-last stack toward one target."""
    rho_psi = np.einsum("ijm,j->im", rho, psi)
    sig_rho = psi[:, None, None] * np.conj(rho_psi)
    comm = sig_rho - np.conj(np.swapaxes(sig_rho, 0, 1))
    comm_norm = np.sqrt(np.einsum("ijm,ijm->m", comm, np.conj(comm)).real)
    rho_norm = np.sqrt(np.einsum("ijm,ijm->m", rho, np.conj(rho)).real)
    active = comm_norm > DEGEN_TOL * rho_norm
    chi = np.zeros(rho.shape[2])
    chi[active] = np.sqrt(mu) / comm_norm[active]
    h = 1j * chi * comm
    h = (h + np.conj(np.swapaxes(h, 0, 1))) / 2
    rest = np.nonzero(~active)[0]
    if rest.size:
        # no-op rows: the target already carries the top eigenvalue.  Half of
        # optimal_feedback's threshold leaves room for its own rounding, so
        # these rows are no-ops there too; the rest decide there
        sub = np.ascontiguousarray(rho[..., rest].transpose(2, 0, 1))
        top = np.linalg.eigvalsh((sub + np.conj(np.swapaxes(sub, 1, 2))) / 2)[:, -1]
        lam_t = np.einsum("i,mij,j->m", np.conj(psi), sub, psi).real
        no_op = top - lam_t <= 0.5 * DEGEN_TOL * rho_norm[rest]
        h[..., rest[no_op]] = 0.0  # exactly +0, as optimal_feedback's no-op
        for j in np.nonzero(~no_op)[0]:
            h[..., rest[j]] = optimal_feedback(sub[j], psi, mu).hamiltonian
    return h


class _MatrixKernel:
    """States as an (N, N, m) complex array, trajectory last; states() is its (m, N, N) view."""

    def __init__(self, cfg, m):
        self.cfg = cfg
        self.rho = np.repeat(cfg.rho0[:, :, None], m, axis=2)
        self.bases = [None] * m  # per-row eigenbases of the relative_angle policy
        if cfg.policy.mode == "relative_angle":  # relative_observable's sz, turned once per run
            self.rotated_sz = _rotated_sigma_z(cfg.policy.theta, cfg.policy.phi)
        # N > 2 bounds the step-size diagnostic unless it could reach -tol
        self.reject_tol = _default_reject_tol(cfg.sme.k, cfg.sme.dephasing_beta, cfg.sme.dt)

    def target(self, psi):
        return psi

    def step(self, psi, dw):
        cfg, sme, policy = self.cfg, self.cfg.sme, self.cfg.policy
        # a batch of one steps its (N, N) matrix, without the trajectory axis
        cut = 0 if self.rho.shape[2] == 1 else slice(None)
        if policy.mode == "relative_angle":
            self.bases = [qubit_eigenbasis(self.rho[..., j], prev=basis)
                          for j, basis in enumerate(self.bases)]
            q_obs = np.stack([basis @ self.rotated_sz @ basis.conj().T
                              for basis in self.bases], axis=-1)[..., cut]
        else:
            q_obs = policy.observable
        h_fb = _feedback_stack(self.rho, psi, cfg.mu) if cfg.mu > 0 else None
        h = sme.h0 if h_fb is None else (sme.h0[..., None] + h_fb)[..., cut]
        rho, exp_q, euler_min = _kraus_step(self.rho[..., cut], q_obs, sme.k, h, sme.dt, dw[cut],
                                            beta=sme.dephasing_beta, tol=self.reject_tol)
        self.rho = rho.reshape(self.rho.shape)
        self._last = exp_q, dw, None if h_fb is None else h_fb.transpose(2, 0, 1)
        return euler_min

    def last_step(self):
        """(dy, H_fb) of the last step: record increments, shape (m,), and
        feedback Hamiltonians, shape (m, N, N), or None when mu = 0."""
        exp_q, dw, h_fb = self._last
        k, dt = self.cfg.sme.k, self.cfg.sme.dt
        return 4.0 * k * exp_q * dt + np.sqrt(2.0 * k) * dw, h_fb

    # purity and overlap sum over a C-ordered (m, N, N) copy: rho's memory order changes the sum
    def purity(self):
        rho = np.ascontiguousarray(self.states())
        return np.einsum("mij,mji->m", rho, rho).real

    def overlap(self, psi):
        return np.einsum("i,mij,j->m", psi.conj(), np.ascontiguousarray(self.states()), psi).real

    def states(self):
        return self.rho.transpose(2, 0, 1)


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
    """a.b summed as a0 b0 + a1 b1 + a2 b2, accumulated in place."""
    out = a[0] * b[0]
    out += a[1] * b[1]
    out += a[2] * b[2]
    return out


def _cross(a, b, out):
    """a x b for (3, m) or (3, 1) stacks, written into the (3, m) array out."""
    np.subtract(a[1] * b[2], a[2] * b[1], out=out[0])
    np.subtract(a[2] * b[0], a[0] * b[2], out=out[1])
    np.subtract(a[0] * b[1], a[1] * b[0], out=out[2])
    return out


def _euler_norm_bound(r_norm, rr, qr, qq, eps, k, dt, h_scale):
    """Upper bound on |r_E|, the first-order Euler-Maruyama Bloch vector.

    r_E = c_r r + c_q q + dt (2 h x r - 4 beta (r_x, r_y, 0)) with
    eps = 2 sqrt(2k) dW, c_r = 1 - 4k dt (q.q) - eps (q.r) and
    c_q = 4k dt (q.r) + eps; the first two terms' norm is exact, the dt term
    is at most dt h_scale |r| for h_scale = 2 (|g| + sqrt(mu/2)) + 4 beta,
    where g is the sigma part of H0.  rr = r.r and r_norm = |r|; every
    argument is a scalar or an (m,) array.
    """
    c_r = 1.0 - (4.0 * k * dt) * qq - eps * qr
    c_q = (4.0 * k * dt) * qr + eps
    return (np.sqrt(c_r * c_r * rr + 2.0 * c_r * c_q * qr + c_q * c_q * qq)
            + (dt * h_scale) * r_norm)


class _BlochKernel:
    """Qubit states as Bloch vectors, shape (3, m); see the module docstring."""

    def __init__(self, cfg, m):
        self.cfg = cfg
        sme = cfg.sme
        self.r = np.repeat(2.0 * _pauli(cfg.rho0)[1][:, None], m, axis=1)
        self.h0_trace, h0 = _pauli(sme.h0)
        self.h0 = h0[:, None]
        # work arrays for the cross products and the measured axis, reused every step
        self._sxr, self._axb, self._q, self._work = np.empty((4, 3, m))
        policy = cfg.policy
        if policy.mode == "relative_angle":
            st = np.sin(policy.theta)
            # measured axis in the frame whose z axis is the state's direction
            self.local = (st * np.cos(policy.phi), st * np.sin(policy.phi), np.cos(policy.theta))
            # the state's (Theta, Phi); kept where |r| < BASIS_DEGEN_TOL
            self.angles = np.zeros((2, m))
            self.q_trace = 0.0
        else:
            self.q_trace, q = _pauli(policy.observable)
            self.q = q[:, None]
        # Tr Q = Tr H0 = 0: the terms in q_trace and Im alpha are exactly zero
        self.traceless = self.q_trace == 0 and self.h0_trace == 0
        # feedback rows of either branch have |h_fb| <= sqrt(mu/2); the Euler
        # state is built only when the bound on |r_E| could reach the
        # StepRejected threshold 1 + 2 tol (less a margin for rounding)
        self.h_scale = (2.0 * (np.sqrt(_dot(h0, h0)) + np.sqrt(cfg.mu / 2))
                        + 4.0 * sme.dephasing_beta)
        tol = _default_reject_tol(sme.k, sme.dephasing_beta, sme.dt)
        self.euler_limit = 1.0 + 2.0 * tol - 1e-9

    def target(self, psi):
        """(psi, s0, s) with s0 I + s.sigma = |psi><psi|, shared by feedback and overlap."""
        return (psi,) + _pauli(np.outer(psi, psi.conj()))

    def _measured_axis(self, norm):
        if self.cfg.policy.mode == "fixed_observable":
            return self.q
        x, y, z = self.r
        angles = self.angles
        if norm.min() >= BASIS_DEGEN_TOL:
            np.arccos(np.clip(z / norm, -1.0, 1.0), out=angles[0])
            np.arctan2(y, x, out=angles[1])
        else:
            ok = norm >= BASIS_DEGEN_TOL
            big_theta = np.arccos(np.clip(z / np.where(ok, norm, 1.0), -1.0, 1.0))
            np.copyto(angles[0], big_theta, where=ok)
            np.copyto(angles[1], np.arctan2(y, x), where=ok)
        ct, st = np.cos(angles[0]), np.sin(angles[0])
        cp, sp = np.cos(angles[1]), np.sin(angles[1])
        # rotate by Theta about (-sin Phi, cos Phi, 0), i.e. Rz(Phi) Ry(Theta) Rz(-Phi)
        lx, ly, lz = self.local
        u = cp * lx + sp * ly
        w = cp * ly - sp * lx
        ux = ct * u + st * lz
        q = self._q
        np.subtract(cp * ux, sp * w, out=q[0])
        np.add(sp * ux, cp * w, out=q[1])
        np.subtract(ct * lz, st * u, out=q[2])
        return q

    def _feedback(self, target, r_norm):
        r, mu = self.r, self.cfg.mu
        psi, s_trace, s = target
        sxr = _cross(s[:, None], r, self._sxr)
        sxr_norm = np.sqrt(_dot(sxr, sxr))
        # the matrix rule ||[sigma, rho]||_F > DEGEN_TOL ||rho||_F in Bloch form;
        # rounding is monotone, so the rule at the batch's extremes covers every row
        r_max = r_norm.max()
        if np.sqrt(2.0) * sxr_norm.min() > DEGEN_TOL * np.sqrt((1.0 + r_max * r_max) / 2):
            return sxr * (-np.sqrt(mu / 2) / sxr_norm)
        tau = DEGEN_TOL * np.sqrt((1.0 + r_norm * r_norm) / 2)
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
        rr = _dot(r, r)
        r_norm = np.sqrt(rr)
        q = self._measured_axis(r_norm)
        h_fb = self._feedback(target, r_norm) if cfg.mu > 0 else None
        h = self.h0 if h_fb is None else self.h0 + h_fb

        qr = _dot(q, r)
        qq = _dot(q, q)
        b = -dt * h
        if self.traceless:
            # the general branch below without its exactly-zero terms in q_trace and alpha_im
            dy_tilde = 2.0 * sqrt2k * dt * qr + dw
            c2 = k * (dy_tilde * dy_tilde - 2.0 * dt)
            alpha_re = (1.0 - beta * dt) + c2 * qq
            a = (sqrt2k * dy_tilde) * q
            re_av = alpha_re * a
            im_av = alpha_re * b
            alpha2 = alpha_re * alpha_re
        else:
            q_trace = self.q_trace
            dy_tilde = 2.0 * sqrt2k * dt * (q_trace + qr) + dw
            c2 = k * (dy_tilde * dy_tilde - 2.0 * dt)
            alpha_re = (1.0 - beta * dt) + sqrt2k * dy_tilde * q_trace + c2 * (q_trace ** 2 + qq)
            alpha_im = -dt * self.h0_trace
            a = (sqrt2k * dy_tilde + 2.0 * c2 * q_trace) * q
            re_av = alpha_re * a + alpha_im * b
            im_av = alpha_re * b - alpha_im * a
            alpha2 = alpha_re * alpha_re + alpha_im * alpha_im
        axb = _cross(a, b, self._axb)
        v2 = _dot(a, a) + _dot(b, b)
        identity_part = (alpha2 + v2) / 2 + _dot(re_av - axb, r) + beta * dt
        sigma_part = np.add(re_av, axb, out=re_av)
        sigma_part += ((alpha2 - v2) / 2) * r
        sigma_part += a * _dot(a, r)
        sigma_part += b * _dot(b, r)
        sigma_part -= _cross(im_av, r, self._work)
        sigma_part[:2] -= (beta * dt) * r[:2]
        sigma_part[2] += (beta * dt) * r[2]

        eps = (2.0 * sqrt2k) * dw
        bound = _euler_norm_bound(r_norm, rr, qr, qq, eps, k, dt, self.h_scale).max()
        if bound <= self.euler_limit:
            euler_min = (1.0 - bound) / 2  # a lower bound on every row's diagnostic
        else:
            drift = 2.0 * _cross(h, r, self._work) + (4.0 * k) * (q * qr - qq * r)
            drift[:2] -= (4.0 * beta) * r[:2]
            euler = r + dt * drift + eps * (q - qr * r)
            euler_min = (1.0 - np.sqrt(_dot(euler, euler))) / 2
        self.r = np.divide(sigma_part, identity_part, out=sigma_part)
        self._last = sqrt2k, dy_tilde, h_fb
        return euler_min

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
    """The ensemble's per-trajectory streams (those of trajectory_rng), each
    opened when first drawn; their keys are all derived here, in one pass."""
    keys = _philox_keys(cfg.master_seed, sweep_index, np.arange(cfg.realizations))
    return (_open_stream(key) for key in keys)


def _advance_chunk(cfg: EnsembleConfig, width, streams, kernel=None):
    """Step one lockstep batch of `width` trajectories; the j-th draws its noise
    from the j-th generator of the iterable `streams`.

    A generator: yields (step, batch, target_t) at step 0 and after each of
    the n_steps steps.  batch is the kernel holding the states after `step`
    steps (states, purity, overlap) and, from step 1 on, the record
    increments and feedback of the step that ended there (last_step);
    target_t is the kernel's form of the target at step * dt, or None.  The
    batch moves on when the generator resumes, so copy what is kept first.
    kernel defaults to _BlochKernel for qubit batches wider than one, whose
    fixed cost per step pays only on wide batches, and to _MatrixKernel.
    """
    sme = cfg.sme
    n_steps = sme.n_steps
    dt = sme.dt
    reject_tol = _default_reject_tol(sme.k, sme.dephasing_beta, dt)
    if kernel is None:
        kernel = _BlochKernel if cfg.rho0.shape == (2, 2) and width > 1 else _MatrixKernel

    # a stream is opened when its first block is drawn and kept only while
    # blocks remain; its next block of increments continues it exactly
    block = NOISE_BLOCK
    dw = np.empty((min(block, n_steps), width))
    draw = np.empty(len(dw))  # one stream's block, scaled into its column of dw
    sqrt_dt = np.sqrt(dt)

    batch = kernel(cfg, width)

    def target(t):
        return batch.target(cfg.target_fn(t)) if cfg.target_fn is not None else None

    target_t = target(0.0)
    yield 0, batch, target_t

    for step in range(n_steps):
        row = step % block
        if row == 0:
            rows = dw[:min(block, n_steps - step)]
            more = step + len(rows) < n_steps
            noise = draw[:len(rows)]
            kept = []
            for j, gen in enumerate(streams):
                gen.standard_normal(out=noise)
                np.multiply(noise, sqrt_dt, out=rows[:, j])
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
        yield step + 1, batch, target_t


def run_ensemble(cfg: EnsembleConfig, sweep_index=0) -> EnsembleStats:
    """Advance all realizations as one batch and aggregate purity/overlap statistics."""
    r = cfg.realizations
    n_stat = cfg.sme.n_steps // cfg.stat_stride
    times = np.arange(n_stat + 1) * cfg.stat_stride * cfg.sme.dt
    pur = np.empty((r, n_stat + 1))
    ovl = np.empty((r, n_stat + 1))
    for step, batch, target_t in _advance_chunk(cfg, r, _trajectory_streams(cfg, sweep_index)):
        slot, off = divmod(step, cfg.stat_stride)
        if off == 0:
            pur[:, slot] = batch.purity()
            ovl[:, slot] = np.nan if target_t is None else batch.overlap(target_t)

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
        time_avg_purity_se=float(se(tavg_p)),
        time_avg_overlap=float(tavg_o.mean()),
        time_avg_overlap_se=float(se(tavg_o)),
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

    states = np.empty((cfg.realizations, len(steps)) + cfg.rho0.shape, dtype=complex)
    driver = _advance_chunk(cfg, cfg.realizations, _trajectory_streams(cfg, sweep_index))
    for step, batch, _ in driver:
        slots = [i for i, s in enumerate(steps) if s == step]
        if slots:
            states[:, slots] = batch.states()[:, None]
    return states


def theta_experiment(base: EnsembleConfig, theta_grid):
    """Closed-loop ensemble per measurement angle; rows of
    (theta, time_avg_purity, se, time_avg_overlap, se)."""
    rows = []
    for i, theta in enumerate(np.asarray(theta_grid, dtype=float)):
        policy = MeasurementPolicy(
            mode="relative_angle", theta=float(theta), phi=base.policy.phi
        )
        cfg = replace(base, policy=policy)
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
