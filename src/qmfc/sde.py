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
(see _kraus_step).  A step is still rejected (dt too large) when the
first-order Euler-Maruyama state from the same rho would have an eigenvalue
far below zero.  That eigenvalue is bounded without building the Euler
state, which is built, and its exact smallest eigenvalue computed, only
when a state's bound could reach the rejection threshold:

* N = 2, on the Bloch kernel: the Euler state is (I + r_E.sigma) / 2 for a
  Bloch vector r_E whose norm _euler_norm_bound bounds in closed form, so
  its smallest eigenvalue is at least (1 - bound) / 2;
* N > 2, in _kraus_step: rho' is positive semidefinite, so by Weyl's
  inequality the Euler state's smallest eigenvalue is at least -c for any
  c >= ||euler - rho'||_F.  _weyl_certificate computes such a c from Q rho,
  which the step has anyway: the difference's noise part exactly, and its
  two drift commutators, which are O(dt) against a threshold of O(sqrt(dt)),
  by a norm bound in ||H_0||_F and ||Q_0||_F, the norms of their traceless
  parts, which a caller that steps many times passes as constants of its run.

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

import warnings
from dataclasses import dataclass

import numpy as np

from .states import SIGMA_Z, check_density_matrix, check_hermitian, ket, overlap


# a qubit state has no direction when its Bloch vector is shorter than this;
# the relative_angle frame then keeps its previous angles (_relative_axis)
BASIS_DEGEN_TOL = 1e-12


class StepRejected(RuntimeError):
    """Raised when dt is too large: the first-order step lands far off the physical manifold."""


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
        # H0's trace shifts every energy alike and moves no state
        scale = max(self.k, self.dephasing_beta, float(np.linalg.norm(_centred(h0), 2)))
        if self.dt * scale > 0.05:
            warnings.warn(
                f"dt * max(k, beta, ||H0_0||) = {self.dt * scale:.3g} > 0.05; "
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


def _default_reject_tol(k, beta, dt):
    # Euler-Maruyama leaves the manifold by O(sqrt(dt)) near pure states;
    # anything much beyond that signals a genuinely unstable step size
    return np.sqrt(2.0 * max(k, beta, 1.0) * dt)


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


def _euler_norm_bound(r_norm, rr, qr, qq, eps, k, dt, h_scale):
    """Upper bound on |r_E|, the first-order Euler-Maruyama Bloch vector.

    r_E = c_r r + c_q q + dt (2 h x r - 4 beta (r_x, r_y, 0)) with
    eps = 2 sqrt(2k) dW, c_r = 1 - 4k dt (q.q) - eps (q.r) and
    c_q = 4k dt (q.r) + eps, where Q = q0 I + q.sigma and H = h0 I + h.sigma;
    the first two terms' norm is exact, and the dt term is at most
    dt h_scale |r| for any h_scale >= 2 |h| + 4 beta.  rr = r.r and
    r_norm = |r|; every argument is a scalar or an (m,) array.
    """
    c_r = 1.0 - (4.0 * k * dt) * qq - eps * qr
    c_q = (4.0 * k * dt) * qr + eps
    return (np.sqrt(c_r * c_r * rr + 2.0 * c_r * c_q * qr + c_q * c_q * qq)
            + (dt * h_scale) * r_norm)


def _sigma_parts(a):
    """(a00 + a11, x, y, z) as Python floats for a (2, 2) qubit operator
    a = a0 I + (x, y, z).sigma, read from the lower triangle."""
    (a00, _), (a10, a11) = a.tolist()
    return a00.real + a11.real, a10.real, a10.imag, (a00.real - a11.real) / 2


def _frobenius(a):
    """||a||_F of each matrix of an (N, N, m) stack, as one sum of squares
    over a real view of its N^2 entries."""
    parts = np.ascontiguousarray(a).reshape(-1, a.shape[2]).view(np.float64)  # (Re, Im) pairs
    sums = np.einsum("ij,ij->j", parts, parts)
    return np.sqrt(sums[0::2] + sums[1::2])


def _weyl_certificate(rho, new, k, dt, dW, q_rho, exp_q, norms):
    """An upper bound c on ||E - new||_F for each state of a step of
    _kraus_step, where E is its first-order Euler-Maruyama state and new its
    Kraus state, built without E.

    E - new = A + D, with the noise part

        A = rho - new + sqrt(2k) dW (Q rho + rho Q - 2 Tr[Q rho] rho),

    computed from q_rho = Q rho, and the drift D = -i dt [H, rho]
    - k dt [Q, [Q, rho]], which is O(dt) and only bounded: with
    X_0 = X - (Tr X / N) I, ||[X, Y]||_F <= 2 ||X_0||_F ||Y||_F and
    ||rho||_F <= 1 for a density matrix, so

        ||D||_F <= 2 dt ||H_0||_F + 2 k dt ||Q_0||_F ||[Q, rho]||_F,

    where [Q, rho] = q_rho - q_rho^+.  c = ||A||_F + that bound.  norms =
    (h, q) are upper bounds on every state's ||H_0||_F and ||Q_0||_F,
    constant for a whole run (_kraus_step), so Q and H enter c only through
    them and q_rho.  Since ||X_0||_F <= ||X||_F, the ensemble's matrix
    kernel passes ||Q||_F and, for per-row feedback H = H0 + H_fb with
    Tr[H_fb^2] = mu or 0, ||H0||_F + sqrt(mu) of its centred Q and H0.
    Both Frobenius norms are sums of squares over real views (_frobenius):
    c only decides whether the exact diagnostic runs, and the margin of
    _kraus_step covers its rounding.  q_rho, exp_q and norms' q are ignored
    when k = 0.
    """
    h_norm, q_norm = norms
    drift = (2.0 * dt) * h_norm
    if k == 0:
        return _frobenius(rho - new) + drift
    work = _dagger(q_rho)
    a = np.subtract(q_rho, work)  # [Q, rho]
    drift = drift + (2.0 * k * dt) * q_norm * _frobenius(a)
    noise = np.sqrt(2.0 * k) * dW
    work += q_rho
    work *= noise
    # rho - 2 sqrt(2k) dW Tr[Q rho] rho as one product, then A in place
    np.multiply(1.0 - 2.0 * noise * exp_q, rho, out=a)
    a -= new
    a += work
    return _frobenius(a) + drift


def _euler_state(rho, Q, k, H, dt, dW, q_rho, exp_q):
    """The first-order Euler-Maruyama state rho + g + g^+ of a _kraus_step
    from rho, with its q_rho = Q rho and exp_q = Tr[Q rho], for Q in either
    of the step's forms.  Its temporaries work in place."""
    g = _matmul(H, rho)
    np.multiply(-1j * dt, g, out=g)
    if k > 0:
        work = _dagger(q_rho)
        work = _apply(Q, np.subtract(q_rho, work, out=work))
        g -= np.multiply(k * dt, work, out=work)
        np.subtract(q_rho, np.multiply(exp_q, rho, out=work), out=work)
        g += np.multiply(np.sqrt(2.0 * k) * dW, work, out=work)
    euler = rho + g
    euler += _dagger(g)
    return euler


def _kraus_step(rho, Q, k, H, dt, dW, q_sq, norms, tol=None):
    """One Kraus-map step of the conditioned evolution (see the module
    docstring), with no dephasing.

    rho is a stack (N, N, m) of density matrices, trajectory axis last (a
    single state is an (N, N, 1) stack); H and Q (ignored when k = 0) are
    like rho or (N, N, 1), which acts on every state; dW is a scalar or one
    increment per state.  The step moves at O(dt^1.5) with the traces of Q
    and H, which the evolution does not see, so the ensemble's matrix kernel
    passes both _centred.  q_sq = Q^2, lifted like Q, is computed once by a
    caller that steps many times with the same Q, as _matmul(Q, Q); norms
    are the certificate's norm bounds (see _weyl_certificate), constant for
    its run.
    A diagonal Q may be given by its diagonal, (N, 1) or (N, m), and q_sq
    with it.  The step then skips the products with its off-diagonal zeros:
    Q rho is the row scaling q_i rho_il (_apply), and only the diagonal of M
    receives the drive sqrt(2k) dy~ q_i + k (dy~^2 - 2 dt) q_i^2.  Every
    term that the matrix path adds besides these is a product with an exact
    zero, so it is +0 or -0, and adding it leaves a nonzero sum as it was:
    each entry has the matrix path's value, in the same order of operations,
    and only the sign of an entry that is exactly zero can differ.
    Returns (rho_next, exp_q, euler_min): the next states, Tr[Q rho] before
    the step (0 when k = 0), and the step-size diagnostic, the smallest
    eigenvalue of the first-order Euler-Maruyama state from the same rho.
    It is exact, from the Euler state (_euler_state), unless a rejection
    tolerance tol is given.  Then it is instead -c for the certificate
    c >= ||euler - rho_next||_F of _weyl_certificate (rho_next is positive
    semidefinite, so Weyl's inequality applies), which needs no Euler state,
    whenever the batch's smallest -c clears the rejection threshold -tol by
    a margin of 1e-9, so no state can be rejected; the margin covers
    rounding, also rho_next's rounding-level negative eigenvalues and that
    of c's sums of squares.
    Full-width temporaries are updated in place (out= ufuncs, +=, -=, /=)
    with the operands of every product and sum in the formula's order, so
    each holds the bits a fresh array would, and fewer of them are alive at
    once than in an out-of-place step.  No argument is written, and no
    array a later stage still reads (rho, and Q rho for the diagnostic).
    """
    rho = np.asarray(rho, dtype=complex)
    H = np.asarray(H, dtype=complex)
    exp_q = np.zeros(rho.shape[2:])
    q_rho = None
    if k > 0:
        Q = np.asarray(Q, dtype=complex)
        sqrt2k = np.sqrt(2.0 * k)
        q_rho = _apply(Q, rho)
        exp_q = np.einsum("ii...->...", q_rho).real

    m_op = np.eye(len(rho))[..., None] - 1j * dt * H
    if k > 0:
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
    m_op = drive = m_diag = None  # M and its aliases, dead: freed before the diagnostic
    new /= np.einsum("ii...->...", new).real

    if tol is not None:
        bound = -_weyl_certificate(rho, new, k, dt, dW, q_rho, exp_q, norms)
        if bound.min() >= 1e-9 - tol:
            return new, exp_q, bound
    euler = _euler_state(rho, Q, k, H, dt, dW, q_rho, exp_q)
    return new, exp_q, np.linalg.eigvalsh(euler.transpose(2, 0, 1))[:, 0]


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
    store_every=1,
) -> TrajectoryResult:
    """One closed-loop realization: a lockstep batch of one trajectory that
    draws its noise from rng (see ensemble._advance_chunk).

    Per step: pick the measured observable from the policy, compute the
    optimal feedback Hamiltonian toward the current target (skipped when
    mu = 0, which builds no target), then advance the conditioned state one
    measurement step under H0 + H_fb.  The driver yields the batch after
    every step; every store_every steps its state, and the step's dy and
    H_fb (zero when mu = 0), are kept as the kernel's rows (a qubit's Bloch
    vector and feedback vector as floats), and the matrices are built once,
    at the end (the kernel's snapshot and assemble).
    """
    from .ensemble import EnsembleConfig, _advance_chunk, _whole_number

    if not _whole_number(store_every) or store_every < 1:
        raise ValueError(f"store_every must be a positive whole number of steps, "
                         f"got {store_every!r}")
    batch_cfg = EnsembleConfig(
        realizations=1, master_seed=None, sme=cfg, policy=policy, mu=mu, rho0=rho0,
        target_fn=psi_target_fn if mu > 0 else None, stat_stride=cfg.n_steps,
    )
    kept = []
    for step, batch, _ in _advance_chunk(batch_cfg, 1, [rng]):
        if step % store_every == 0:
            kept.append(batch.snapshot())
    states, records, fb_hams = (out[0] for out in batch.assemble(kept))
    return TrajectoryResult(times=np.arange(0, cfg.n_steps + 1, store_every) * cfg.dt,
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
