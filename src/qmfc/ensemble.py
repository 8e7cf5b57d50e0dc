"""Monte Carlo orchestration: the lockstep batch driver behind every trajectory.

_advance_chunk is the package's only closed-loop stepping loop: a generator
that yields the batch after every step to callers that keep what they read.
Every ensemble is one lockstep batch of all its trajectories on one thread:
a step's cost is mostly fixed numpy-call overhead, so one wide batch is
cheapest, and threads would only contend for the GIL.  A single trajectory
(sde.run_control_trajectory) is a batch of one fed by the caller's
generator, which keeps its stored steps as the kernel's rows and builds their
matrices once, at the end.  Each ensemble trajectory owns a counter-based random
stream derived from (master seed, sweep index, trajectory index): the Philox
stream numpy seeds from SeedSequence(entropy=master seed, spawn_key=(sweep
index, trajectory index)).  A Philox stream is a key and a counter, so an
ensemble derives all its keys in one vectorised pass of SeedSequence's hash
(_philox_keys) and opens each stream directly on its key; the streams, and so
every drawn number, are numpy's own.  Noise is drawn in blocks of
NOISE_BLOCK steps, and run_ensemble reduces its statistics STAT_BLOCK slots at
a time, so neither buffer grows with the run length.  The
buffer is (steps, trajectories) in Fortran order: each stream draws its block
straight into its own contiguous column, the block is scaled by sqrt(dt) in
one product, and each step copies its row out contiguously.  A
run of more than one block opens each stream when its first block is drawn
and keeps it for the next; a run of one block draws each stream once, from
counter 0, through one generator whose state is reset to each key in turn,
which draws the same numbers for about a third of the cost of opening them.
Results are bit-identical for a given master seed and realization count,
however many steps of noise are drawn at a time.  A row of a batch depends
only on its own stream, whatever the width, on either kernel: the matrix
kernel steps (N, N, m) stacks at every width, m = 1 included, and the Bloch
kernel runs the same operations on a width-one batch's Python floats as on a
wide batch's arrays.  So a single trajectory is row 0 of a wide batch on the
same stream, bit for bit.

Two kernels run the Kraus-map step of qmfc.sde, one per kind of system,
with the same noise, the same feedback branches and the same StepRejected
rule.  Both step Q - (Tr Q / N) I and H0 - (Tr H0 / N) I, built once per run
(relative_angle observables have zero trace already): the conditioned master
equation sees no more of Q and H, so Q + cI and H0 + cI move no state beyond
the rounding of the shift, and the record dy gets its 4k (Tr Q / N) dt added
back.  The relative_angle policy's measured axis n is sde._relative_axis of
each state's Bloch vector: the policy's (theta, phi) axis turned by the
rotation by Theta about (-sin Phi, cos Phi, 0), for the Bloch vector at
polar angles (Theta, Phi); a state shorter than BASIS_DEGEN_TOL keeps its
previous (Theta, Phi), and the frame is discontinuous at Theta = pi.

* qubit batches of every width (Bloch form; Jacobs and Steck, Contemp.
  Phys. 47, 279 (2006)): each state is a real Bloch vector r,
  rho = (I + r.sigma) / 2, stored as three rows x, y, z, each a Python float
  at width one and an (m,) array, one entry per trajectory, otherwise.  The
  step is written component by component, so both kinds run the same IEEE
  operations in the same order (math.sqrt rounds as np.sqrt does), and the
  trigonometry of sde._relative_axis is numpy's on both; a width-one step
  pays no numpy call overhead on its arithmetic.  states() builds (m, 2, 2)
  matrices from the rows.  A kept step is kept as rows (snapshot: r, dy and
  the feedback's h), and assemble builds every kept state with one _density
  call and every feedback Hamiltonian, 2 _density(h) - I, with one more; the
  matrix kernel's snapshot is a copy of rho and its (N, N, m) feedback.
  With Q = q.sigma
  and H = h.sigma the Kraus operator is M = alpha I + (a + ib).sigma, with
  the real alpha = 1 - beta dt + k (dy~^2 - 2 dt) (q.q), a = sqrt(2k) dy~ q
  and b = -dt h, and

      M M^+           = (alpha^2 + |a|^2 + |b|^2) I + (2 alpha a + 2 a x b).sigma
      M (r.sigma) M^+ = 2 (alpha a - a x b).r I
                        + ((alpha^2 - |a|^2 - |b|^2) r + 2a(a.r) + 2b(b.r)
                           - 2 alpha b x r).sigma

  while the dephasing channel adds 2 beta dt sz rho sz
  = beta dt (I + (-r_x, -r_y, r_z).sigma).  The next r is the sigma part of
  the sum over its I part.
  The step-size diagnostic is (1 - |r_E|) / 2 for the first-order
  Euler-Maruyama state r_E; a step is rejected when it is below -tol, that
  is when |r_E| > 1 + 2 tol.  With eps = 2 sqrt(2k) dW,
  c_r = 1 - 4k dt (q.q) - eps (q.r) and c_q = 4k dt (q.r) + eps,

      |r_E| <= sqrt(c_r^2 |r|^2 + 2 c_r c_q (q.r) + c_q^2 (q.q))
               + dt (2 (|g| + sqrt(mu/2)) + 4 beta) |r|

  for H0's sigma part g (sde._euler_norm_bound: the first term is the
  exact norm of c_r r + c_q q, the second bounds the rotation and
  dephasing, since feedback rows of either branch have |h_fb| <= sqrt(mu/2)).
  r_E is built only when the batch maximum of this bound exceeds 1 + 2 tol
  less 1e-9 for rounding, which never happens at fig2's defaults (largest
  bound about 1.012 against 1.04), so the rejected set and the StepRejected
  message are those of the exact diagnostic.
  Feedback is the first-order rotation -sqrt(mu/2) (s x r)/|s x r| toward
  the target's Bloch vector s, or nothing when the state already points at
  the target; the rare remaining rows (second-order branch) go to
  feedback.optimal_feedback.  Unless every row takes the first-order
  rotation, the rule is applied row by row on (3, m) stacks, at width one
  too, so a rare row is decided from the same numbers at every width.
* N > 2 at every width: (N, N, m) complex arrays, trajectory axis last,
  m = 1 included, through sde._kraus_step, on a fixed observable with no
  dephasing (EnsembleConfig).  The step-size diagnostic is a per-row lower
  bound, -c for a certificate c >= ||euler - rho'||_F (Weyl's inequality,
  sde._weyl_certificate), unless the bound could reach the StepRejected
  threshold, so the rejected set and the message are those of the exact
  diagnostic; the bound builds no Euler state and runs no eigensolver.  The
  run's constants, the centred Q and H0, Q^2 and the certificate's norm
  bounds, are built once per run as (N, N, 1) operands; the step, which
  works in place on its own temporaries, only reads them.  A Q whose
  off-diagonal entries are all exactly zero is kept as its diagonal (N, 1),
  with Q^2: the step then scales rows where it would multiply by Q.  The
  entries it skips are products with exact zeros, so every state keeps its
  value (sde._kraus_step).
  The first-order feedback test ||[sigma, rho]||_F > DEGEN_TOL ||rho||_F
  needs no ||rho||_F when every row's commutator exceeds 2 DEGEN_TOL, since
  ||rho||_F <= 1.  Feedback rows that the test leaves go through one batched
  eigvalsh: rows whose target already carries the top eigenvalue, such as
  every row at I/N, are no-ops, and only the rest (second-order branch) go
  to feedback.optimal_feedback.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .feedback import DEGEN_TOL, optimal_feedback
from .sde import (
    MeasurementPolicy,
    SmeConfig,
    StepRejected,
    _centred,
    _default_reject_tol,
    _diagonal,
    _euler_norm_bound,
    _frobenius,
    _kraus_step,
    _local_axis,
    _matmul,
    _on_step_grid,
    _relative_axis,
    _sigma_parts,
)
from .states import check_density_matrix

NOISE_BLOCK = 256  # steps of noise drawn per trajectory at a time
STAT_BLOCK = 32  # stat slots that run_ensemble reduces across trajectories in one call
_SQRT2 = math.sqrt(2.0)


def _whole_number(x):
    """True for an int or a numpy integer: a bool is an int to Python, but counts nothing."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


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

    def __post_init__(self):
        for name in ("realizations", "stat_stride"):
            count = getattr(self, name)
            if not _whole_number(count):
                raise ValueError(f"{name} must be a whole number, got {count!r}")
        if self.realizations < 1:
            raise ValueError("need at least one realization")
        if self.stat_stride < 1 or self.sme.n_steps % self.stat_stride != 0:
            raise ValueError("stat_stride must divide the number of steps")
        if not 0 <= self.mu < np.inf or (self.mu > 0 and self.target_fn is None):
            raise ValueError("mu must be non-negative and finite, and zero without a target_fn")
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
    # a row is first order when comm_norm > DEGEN_TOL ||rho||_F.  ||rho||_F <= 1
    # for a density matrix, so a batch whose rows all clear 2 DEGEN_TOL (twice,
    # for rounding) needs no ||rho||_F; any other batch takes the exact rule
    first_order = comm_norm.min() > 2.0 * DEGEN_TOL
    if not first_order:
        rho_norm = np.sqrt(np.einsum("ijm,ijm->m", rho, np.conj(rho)).real)
        active = comm_norm > DEGEN_TOL * rho_norm
        first_order = active.all()
    if first_order:  # every row, as in nearly every closed-loop step
        h = 1j * (np.sqrt(mu) / comm_norm) * comm
        return (h + np.conj(np.swapaxes(h, 0, 1))) / 2
    chi = np.zeros(rho.shape[2])
    chi[active] = np.sqrt(mu) / comm_norm[active]
    h = 1j * chi * comm
    h = (h + np.conj(np.swapaxes(h, 0, 1))) / 2
    # no-op rows: the target already carries the top eigenvalue.  Half of
    # optimal_feedback's threshold leaves room for its own rounding, so these
    # rows are no-ops there too; the rest decide there
    rest = np.nonzero(~active)[0]
    sub = np.ascontiguousarray(rho[..., rest].transpose(2, 0, 1))
    top = np.linalg.eigvalsh((sub + np.conj(np.swapaxes(sub, 1, 2))) / 2)[:, -1]
    lam_t = np.einsum("i,mij,j->m", np.conj(psi), sub, psi).real
    no_op = top - lam_t <= 0.5 * DEGEN_TOL * rho_norm[rest]
    h[..., rest[no_op]] = 0.0  # exactly +0, as optimal_feedback's no-op
    for j in np.nonzero(~no_op)[0]:
        h[..., rest[j]] = optimal_feedback(sub[j], psi, mu).hamiltonian
    return h


class _MatrixKernel:
    """N > 2 states as an (N, N, m) complex array, trajectory last, measured
    on a fixed observable; states() is its (m, N, N) view."""

    def __init__(self, cfg, m):
        self.cfg = cfg
        sme, observable = cfg.sme, cfg.policy.observable
        self.rho = np.repeat(cfg.rho0[:, :, None], m, axis=2)
        # the step's per-run constants, (N, N, 1) operands that act on every row:
        # H0 and Q centred (module docstring), Q^2 and the certificate's norm
        # bounds (sde._weyl_certificate)
        self.h0 = _centred(sme.h0)[..., None]
        self.q = _centred(observable)[..., None]
        self.q_sq = _matmul(self.q, self.q)
        self.norms = _frobenius(self.h0) + np.sqrt(cfg.mu), _frobenius(self.q)
        # a diagonal Q steps as its diagonal (N, 1), skipping its zeros (sde._kraus_step)
        q_diagonal = _diagonal(self.q)
        if q_diagonal is not None:
            self.q, self.q_sq = q_diagonal, _diagonal(self.q_sq)
        self.dy_shift = 4.0 * sme.k * (np.trace(observable).real / len(self.q)) * sme.dt
        # the step-size diagnostic is bounded unless it could reach -tol
        self.reject_tol = _default_reject_tol(sme.k, sme.dephasing_beta, sme.dt)
        self._last = 0.0, 0.0, None  # (Tr[Q rho], dW, H_fb) of the last step; none yet

    def target(self, psi):
        return psi

    def step(self, psi, dw):
        cfg, sme = self.cfg, self.cfg.sme
        h_fb = _feedback_stack(self.rho, psi, cfg.mu) if cfg.mu > 0 else None
        h = self.h0 if h_fb is None else self.h0 + h_fb
        self.rho, exp_q, euler_min = _kraus_step(self.rho, self.q, sme.k, h, sme.dt, dw,
                                                 self.q_sq, self.norms, tol=self.reject_tol)
        self._last = exp_q, dw, h_fb
        return euler_min

    def snapshot(self):
        """What a stored step keeps of every row, for assemble: a copy of rho,
        the last step's record increments dy, shape (m,), and its feedback
        (N, N, m), or None when mu = 0 (and before the first step)."""
        exp_q, dw, h_fb = self._last
        k, dt = self.cfg.sme.k, self.cfg.sme.dt
        return self.rho.copy(), 4.0 * k * exp_q * dt + np.sqrt(2.0 * k) * dw + self.dy_shift, h_fb

    def assemble(self, kept):
        """(states, records, feedback) of the snapshots of step 0 and n - 1
        later steps, shapes (m, n, N, N), (m, n - 1) and (m, n - 1, N, N): the
        records and feedback of the steps that ended at the later snapshots,
        the feedback zero when mu = 0."""
        rho, dy, h_fb = zip(*kept)
        states = np.moveaxis(np.array(rho), -1, 0)
        records = np.reshape(dy[1:], (len(kept) - 1, self.rho.shape[2])).T
        if h_fb[-1] is None:
            return states, records, np.zeros_like(states[:, 1:])
        return states, records, np.moveaxis(np.array(h_fb[1:]), -1, 0)

    # purity and overlap sum over a C-ordered (m, N, N) copy: rho's memory order changes the sum
    def purity(self):
        rho = np.ascontiguousarray(self.states())
        return np.einsum("mij,mji->m", rho, rho).real

    def overlap(self, psi):
        return np.einsum("i,mij,j->m", psi.conj(), np.ascontiguousarray(self.states()), psi).real

    def states(self):
        return self.rho.transpose(2, 0, 1)


def _density(r):
    """(I + r.sigma) / 2 for rows x, y, z: of Python floats a (2, 2) matrix,
    of (m,) arrays or a (3, m) stack an (m, 2, 2) stack."""
    x, y, z = r
    rho = np.empty(np.shape(x) + (2, 2), dtype=complex)
    rho[..., 0, 0] = (1.0 + z) / 2
    rho[..., 1, 1] = (1.0 - z) / 2
    rho[..., 0, 1] = (x - 1j * y) / 2
    rho[..., 1, 0] = (x + 1j * y) / 2
    return rho


def _dot(a, b):
    """a.b summed as a0 b0 + a1 b1 + a2 b2, accumulated in place on arrays."""
    out = a[0] * b[0]
    out += a[1] * b[1]
    out += a[2] * b[2]
    return out


class _BlochKernel:
    """Qubit states as Bloch vectors: three rows x, y, z, each a Python float
    at width one and an (m,) array otherwise; see the module docstring."""

    def __init__(self, cfg, m):
        self.cfg = cfg
        sme, policy = cfg.sme, cfg.policy
        self.one = m == 1
        # math.sqrt rounds as np.sqrt does, at a fraction of its cost on a float
        self.sqrt = math.sqrt if self.one else np.sqrt
        r = [2.0 * part for part in _sigma_parts(cfg.rho0)[1:]]
        self.r = r if self.one else [np.full(m, part) for part in r]
        # the step sees only the sigma parts of H0 and Q (module docstring)
        self.h0 = _sigma_parts(sme.h0)[1:]
        self.dy_shift = 0.0  # 4k q0 dt for a fixed observable Q = q0 I + q.sigma
        if policy.mode == "relative_angle":  # every row's frame starts as the lab frame
            self.local, self.angles = _local_axis(policy.theta, policy.phi), (0.0, 0.0)
        else:
            q_trace, *self.q = _sigma_parts(policy.observable)
            self.dy_shift = 4.0 * sme.k * (q_trace / 2) * sme.dt
        self.fb_scale = -math.sqrt(cfg.mu / 2)
        # |h| <= |h0| + sqrt(mu/2) on either feedback branch; the Euler state is built
        # only when the bound on |r_E| could reach 1 + 2 tol less a rounding margin
        self.h_scale = (2.0 * (math.sqrt(_dot(self.h0, self.h0)) + math.sqrt(cfg.mu / 2))
                        + 4.0 * sme.dephasing_beta)
        tol = _default_reject_tol(sme.k, sme.dephasing_beta, sme.dt)
        self.euler_limit = 1.0 + 2.0 * tol - 1e-9
        self._last = 0.0, 0.0, None  # (sqrt(2k), dy~, h_fb) of the last step; none yet

    def target(self, psi):
        """(psi, s0, s) with s0 I + s.sigma = |psi><psi|, shared by feedback and overlap.
        |psi><psi| is np.outer's own multiply, so its bits; Python's complex
        arithmetic would be cheaper, but rounds some entries differently."""
        trace, *s = _sigma_parts(np.multiply(psi[:, None], psi.conj()))
        return psi, trace / 2, s

    def _feedback(self, target, r_norm):
        x, y, z = r = self.r
        psi, s_trace, s = target
        sx, sy, sz = s
        cx, cy, cz = sy * z - sz * y, sz * x - sx * z, sx * y - sy * x  # s x r
        c_norm = self.sqrt(cx * cx + cy * cy + cz * cz)
        # the matrix rule ||[sigma, rho]||_F > DEGEN_TOL ||rho||_F in Bloch form;
        # rounding is monotone, so the rule at the batch's extremes covers every row
        low, high = (c_norm, r_norm) if self.one else (c_norm.min(), r_norm.max())
        if _SQRT2 * low > DEGEN_TOL * self.sqrt((1.0 + high * high) / 2):
            factor = self.fb_scale / c_norm
            return cx * factor, cy * factor, cz * factor
        # the rule row by row, on (3, m) stacks at every width
        r, sxr = np.reshape(r, (3, -1)), np.reshape((cx, cy, cz), (3, -1))
        r_norm, c_norm = np.reshape(r_norm, -1), np.reshape(c_norm, -1)
        tau = DEGEN_TOL * np.sqrt((1.0 + r_norm * r_norm) / 2)
        active = _SQRT2 * c_norm > tau
        h = np.where(active, sxr * (self.fb_scale / np.where(active, c_norm, 1.0)), 0.0)
        # no-op rows: the target already carries the top eigenvalue (1 + |r|) / 2
        rare = ~active & ((1.0 + r_norm) / 2 - (s_trace + _dot(s, r)) > tau)
        for j in np.nonzero(rare)[0]:
            decision = optimal_feedback(_density(r[:, j]), psi, self.cfg.mu)
            h[:, j] = _sigma_parts(decision.hamiltonian)[1:]
        return h[:, 0].tolist() if self.one else tuple(h)

    def step(self, target, dw):
        cfg, sqrt = self.cfg, self.sqrt
        k, dt, beta = cfg.sme.k, cfg.sme.dt, cfg.sme.dephasing_beta
        if self.one:
            dw = dw.item()
        x, y, z = r = self.r
        sqrt2k = math.sqrt(2.0 * k)
        rr = x * x + y * y + z * z
        r_norm = sqrt(rr)
        if cfg.policy.mode == "relative_angle":
            (qx, qy, qz), self.angles = _relative_axis(r, r_norm, self.local, self.angles)
            if self.one:  # numpy's trigonometry returns numpy floats
                qx, qy, qz = float(qx), float(qy), float(qz)
        else:
            qx, qy, qz = self.q
        hx, hy, hz = self.h0
        h_fb = self._feedback(target, r_norm) if cfg.mu > 0 else None
        if h_fb is not None:
            hx, hy, hz = hx + h_fb[0], hy + h_fb[1], hz + h_fb[2]

        qr = qx * x + qy * y + qz * z
        qq = qx * qx + qy * qy + qz * qz
        # M = alpha I + (a + ib).sigma with a real alpha (module docstring)
        bx, by, bz = -dt * hx, -dt * hy, -dt * hz
        dy_tilde = 2.0 * sqrt2k * dt * qr + dw
        c2 = k * (dy_tilde * dy_tilde - 2.0 * dt)
        alpha = (1.0 - beta * dt) + c2 * qq
        drive = sqrt2k * dy_tilde
        ax, ay, az = drive * qx, drive * qy, drive * qz
        alpha2 = alpha * alpha
        v2 = (ax * ax + ay * ay + az * az) + (bx * bx + by * by + bz * bz)
        ux, uy, uz = alpha * ax, alpha * ay, alpha * az
        cx, cy, cz = ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx  # a x b
        identity_part = ((alpha2 + v2) / 2 + ((ux - cx) * x + (uy - cy) * y + (uz - cz) * z)
                         + beta * dt)
        shrink = (alpha2 - v2) / 2
        ar, br = ax * x + ay * y + az * z, bx * x + by * y + bz * z
        wx, wy, wz = alpha * bx, alpha * by, alpha * bz
        # alpha a + a x b + shrink r + a (a.r) + b (b.r) - alpha b x r, and the
        # dephasing channel's beta dt (-x, -y, z)
        damp = beta * dt
        sigma_x = ux + cx + shrink * x + ax * ar + bx * br - (wy * z - wz * y) - damp * x
        sigma_y = uy + cy + shrink * y + ay * ar + by * br - (wz * x - wx * z) - damp * y
        sigma_z = uz + cz + shrink * z + az * ar + bz * br - (wx * y - wy * x) + damp * z

        eps = (2.0 * sqrt2k) * dw
        bound = _euler_norm_bound(r_norm, rr, qr, qq, eps, k, dt, self.h_scale)
        if not self.one:
            bound = bound.max()
        if bound <= self.euler_limit:
            euler_min = (1.0 - bound) / 2  # a lower bound on every row's diagnostic
        else:
            # r_E = r + dt (2 h x r + 4k (q (q.r) - (q.q) r) - 4 beta (x, y, 0))
            #       + eps (q - (q.r) r)
            c, g = 4.0 * k, 4.0 * beta
            ex = (x + dt * (2.0 * (hy * z - hz * y) + c * (qx * qr - qq * x) - g * x)
                  + eps * (qx - qr * x))
            ey = (y + dt * (2.0 * (hz * x - hx * z) + c * (qy * qr - qq * y) - g * y)
                  + eps * (qy - qr * y))
            ez = z + dt * (2.0 * (hx * y - hy * x) + c * (qz * qr - qq * z)) + eps * (qz - qr * z)
            euler_min = (1.0 - sqrt(ex * ex + ey * ey + ez * ez)) / 2
        self.r = sigma_x / identity_part, sigma_y / identity_part, sigma_z / identity_part
        self._last = sqrt2k, dy_tilde, h_fb
        return euler_min

    def snapshot(self):
        """As _MatrixKernel.snapshot, as rows: r, dy = sqrt(2k) dy~ + 4k q0 dt
        and the feedback's h.  A step replaces these rows and never writes them."""
        sqrt2k, dy_tilde, h_fb = self._last
        return self.r, sqrt2k * dy_tilde + self.dy_shift, h_fb

    def assemble(self, kept):
        """As _MatrixKernel.assemble: one _density call builds every state, and
        one more every feedback Hamiltonian, as 2 _density(h) - I."""
        r, dy, h_fb = zip(*kept)
        n, m = len(kept), np.size(self.r[0])
        states = _density(np.reshape(r, (n, 3, m)).transpose(1, 2, 0))
        records = np.reshape(dy[1:], (n - 1, m)).T
        if h_fb[-1] is None:
            return states, records, np.zeros_like(states[:, 1:])
        return states, records, 2.0 * _density(np.reshape(h_fb[1:], (n - 1, 3, m))
                                               .transpose(1, 2, 0)) - np.eye(2)

    def purity(self):
        return np.atleast_1d((1.0 + _dot(self.r, self.r)) / 2)

    def overlap(self, target):
        _, s_trace, s = target
        return np.atleast_1d(s_trace + _dot(s, self.r))

    def states(self):
        return _density(self.r).reshape(-1, 2, 2)


class _TrajectoryStreams:
    """An ensemble's per-trajectory streams (those of trajectory_rng), held
    as their Philox keys, all derived in one pass.  Iterating opens each
    stream when it is reached, so whatever an iteration yields may be kept."""

    def __init__(self, keys):
        self.keys = keys

    def __iter__(self):
        return (_open_stream(key) for key in self.keys)

    def drawn_once(self):
        """The streams in turn, each for one draw from its start: a single
        generator whose state is reset to each stream's key, with counter 0,
        when the next is asked for.  It draws the numbers of the opened stream
        for about a third of the cost of opening one.  It is the same object
        every time, so it is valid only until the next is asked for and must
        never be kept; _advance_chunk uses it only for a run of one noise
        block, which keeps no stream."""
        gen = _open_stream(self.keys[0])
        fresh = gen.bit_generator.state
        yield gen
        for key in self.keys[1:]:
            fresh["state"]["key"] = key
            gen.bit_generator.state = fresh
            yield gen


def _trajectory_streams(cfg, sweep_index):
    """The ensemble's per-trajectory streams; see _TrajectoryStreams."""
    return _TrajectoryStreams(
        _philox_keys(cfg.master_seed, sweep_index, np.arange(cfg.realizations)))


def _advance_chunk(cfg: EnsembleConfig, width, streams, kernel=None):
    """Step one lockstep batch of `width` trajectories; the j-th draws its noise
    from the j-th generator of the iterable `streams`.  A run of at most
    NOISE_BLOCK steps draws every stream once, so it draws _TrajectoryStreams
    through one reset generator (drawn_once) instead of opening each.

    A generator: yields (step, batch, target_t) at step 0 and after each of
    the n_steps steps.  batch is the kernel holding the states after `step`
    steps (states, purity, overlap) and, from step 1 on, the record
    increments and feedback of the step that ended there (snapshot, whose
    snapshots assemble builds into arrays);
    target_t is the kernel's form of the target at step * dt, or None.  The
    batch moves on when the generator resumes, so copy what is kept first.
    kernel defaults to _BlochKernel for qubit batches of every width, width
    one included, and to _MatrixKernel for N > 2.
    """
    sme = cfg.sme
    n_steps = sme.n_steps
    dt = sme.dt
    reject_tol = _default_reject_tol(sme.k, sme.dephasing_beta, dt)
    if kernel is None:
        kernel = _BlochKernel if cfg.rho0.shape == (2, 2) else _MatrixKernel

    # a stream is opened when its first block is drawn and kept only while
    # blocks remain; its next block of increments continues it exactly.  Only
    # a run of one block draws from drawn_once's shared generator: none is kept
    block = NOISE_BLOCK
    # each stream draws its block straight into its own contiguous column,
    # and the block is scaled once; a step reads its row as a contiguous copy
    dw = np.empty((min(block, n_steps), width), order="F")
    dw_row = np.empty(width)
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
            kept = []
            one_block = not more and isinstance(streams, _TrajectoryStreams)
            for j, gen in enumerate(streams.drawn_once() if one_block else streams):
                gen.standard_normal(out=rows[:, j])
                if more:
                    kept.append(gen)
            streams = kept
            rows *= sqrt_dt
        np.copyto(dw_row, dw[row])
        euler_min = batch.step(target_t, dw_row)
        worst = euler_min if isinstance(euler_min, float) else euler_min.min()
        if worst < -reject_tol:
            bad = int(np.argmin(euler_min))
            raise StepRejected(
                f"trajectory {bad} (master_seed {cfg.master_seed}) at step {step}: "
                f"first-order eigenvalue {worst:.3e} below -{reject_tol:.1e}; reduce dt"
            )
        target_t = target((step + 1) * dt)
        yield step + 1, batch, target_t


def run_ensemble(cfg: EnsembleConfig, sweep_index=0) -> EnsembleStats:
    """Advance all realizations as one batch and aggregate purity/overlap statistics: slots
    are reduced a STAT_BLOCK at a time and time averages kept as sums, in memory flat in t_end."""
    r = cfg.realizations
    n_stat = cfg.sme.n_steps // cfg.stat_stride
    times = np.arange(n_stat + 1) * cfg.stat_stride * cfg.sme.dt
    width = min(STAT_BLOCK, n_stat + 1)
    block = np.zeros((2, r, width))  # purity and overlap of every trajectory, by slot
    sums = np.zeros((2, r))  # the same, summed over the slots in order
    per_slot = np.empty((2, 2, n_stat + 1))  # (mean, se) of (purity, overlap)

    def se(x, axis=0):
        if r < 2:
            return np.full(np.shape(np.mean(x, axis=axis)), np.nan)
        return np.std(x, axis=axis, ddof=1) / np.sqrt(r)

    def reduce_block(j, slot):
        # over two or more slots numpy adds the trajectories in order, as over an
        # (r, slots) array; a lone contiguous column it would sum pairwise
        x = block[:, :, :max(j, 1) + 1]
        per_slot[..., slot - j:slot + 1] = [x.mean(axis=1)[:, :j + 1], se(x, 1)[:, :j + 1]]

    for step, batch, target_t in _advance_chunk(cfg, r, _trajectory_streams(cfg, sweep_index)):
        slot, off = divmod(step, cfg.stat_stride)
        if off == 0:
            j = slot % width
            block[0, :, j] = batch.purity()
            block[1, :, j] = np.nan if target_t is None else batch.overlap(target_t)
            sums += block[:, :, j]
            if j == width - 1 and slot < n_stat:
                reduce_block(j, slot)
    reduce_block(n_stat % width, n_stat)  # once the driver has freed its noise buffer
    tavg_p, tavg_o = sums / (n_stat + 1)
    return EnsembleStats(
        times, purity_mean=per_slot[0, 0], purity_se=per_slot[1, 0],
        overlap_mean=per_slot[0, 1], overlap_se=per_slot[1, 1],
        time_avg_purity=float(tavg_p.mean()), time_avg_purity_se=float(se(tavg_p)),
        time_avg_overlap=float(tavg_o.mean()), time_avg_overlap_se=float(se(tavg_o)),
        realizations=r)


def ensemble_states(cfg: EnsembleConfig, checkpoint_times, sweep_index=0):
    """Per-trajectory conditioned states at the requested times.

    Returns an array of shape (realizations, n_checkpoints, N, N) using the
    same random streams as run_ensemble, so the conditional ensemble average
    can be compared entrywise against the outcome-averaged master equation.
    """
    steps = []
    for t in checkpoint_times:
        step = _on_step_grid(t, cfg.sme.dt)
        if step is None or not 0 <= step <= cfg.sme.n_steps:
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
