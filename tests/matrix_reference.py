"""A longhand qubit kernel: the tests' reference for the Bloch kernel of
`qmfc.ensemble`.

`MatrixReference` is a kernel that `qmfc.ensemble._advance_chunk(kernel=...)`
accepts.  It holds an ensemble as an (m, 2, 2) stack of density matrices and
steps it on the same noise as the engine, each step written out with
`np.matmul` from its textbook formula: the Kraus-map filter of Rouchon and
Ralph, PRA 91, 012118 (2015), with the measured channel L = sqrt(2k) Q and
the unread dephasing channel sqrt(2 beta) sz (`rouchon_ralph_step`).

It calls the engine only for what the closed loop defines rather than how it
steps: the relative_angle policy's axis (`qmfc.sde._relative_axis` and
`_local_axis`) and the optimal feedback Hamiltonians
(`qmfc.ensemble._feedback_stack`).  Like the engine it steps the traceless
parts of Q and H0 and adds the record's 4k (Tr Q / 2) dt back.  It shares no
step code with `qmfc`, so agreement with the Bloch kernel's closed form checks
that form rather than restating it.
"""

import numpy as np

from qmfc.ensemble import _feedback_stack
from qmfc.sde import _local_axis, _relative_axis
from qmfc.states import SIGMA_X, SIGMA_Y, SIGMA_Z

PAULIS = np.array([SIGMA_X, SIGMA_Y, SIGMA_Z])


def dagger(a):
    return np.conj(np.swapaxes(a, -1, -2))


def trace(a):
    """Tr a of a matrix, or of each matrix of an (m, N, N) stack, kept as
    (..., 1, 1) so that it scales the matrices it came from."""
    return np.trace(a, axis1=-2, axis2=-1)[..., None, None]


def per_state(dw):
    """dw, a scalar or one increment per state, shaped to scale the matrices."""
    return np.reshape(dw, np.shape(dw) + (1, 1))


def rouchon_ralph_step(rho, h, measured, unread, dt, dw):
    """Kraus-map filter of Rouchon & Ralph, PRA 91, 012118 (2015), for one
    measured channel L at unit efficiency and unread channels D_j:

        dy_L = Tr[(L + L^+) rho] dt + dW
        M    = I + (-iH - 1/2 sum_all L^+ L) dt + L dy_L + 1/2 L^2 (dy_L^2 - dt)
        rho' = (M rho M^+ + sum_j D_j rho D_j^+ dt) / Tr[...]

    for a matrix rho, or an (m, N, N) stack with h and L per state or shared
    and dw a scalar or (m,).  Returns (rho', dy_L)."""
    lind = dagger(measured) @ measured + sum(dagger(d) @ d for d in unread)
    dy_l = trace((measured + dagger(measured)) @ rho).real * dt + per_state(dw)
    m = (np.eye(rho.shape[-1]) + (-1j * h - 0.5 * lind) * dt + measured * dy_l
         + 0.5 * (measured @ measured) * (dy_l ** 2 - dt))
    out = m @ rho @ dagger(m) + sum(d @ rho @ dagger(d) for d in unread) * dt
    dy_l = dy_l.reshape(np.shape(dw))
    return out / trace(out).real, dy_l


def centred(a):
    return a - trace(a).real / len(a) * np.eye(len(a))


class MatrixReference:
    """A qubit ensemble as an (m, 2, 2) stack, stepped longhand (module docstring)."""

    def __init__(self, cfg, m):
        self.cfg = cfg
        sme, policy = cfg.sme, cfg.policy
        self.rho = np.repeat(cfg.rho0[None], m, axis=0)
        self.h0 = centred(sme.h0)
        self.q = None
        self.dy_shift = 0.0
        if policy.mode == "relative_angle":  # every row's frame starts as the lab frame
            self.local, self.angles = _local_axis(policy.theta, policy.phi), (0.0, 0.0)
        else:
            self.q = centred(policy.observable)
            self.dy_shift = 4.0 * sme.k * (np.trace(policy.observable).real / 2) * sme.dt
        self.last = 0.0, None  # (dy, H_fb) of the last step; none yet

    def target(self, psi):
        return psi

    def step(self, psi, dw):
        cfg, sme = self.cfg, self.cfg.sme
        k, dt, beta = sme.k, sme.dt, sme.dephasing_beta
        q = self.q
        if q is None:  # Q = n.sigma for the axis n of each state's Bloch vector
            r = np.array([2.0 * self.rho[:, 1, 0].real, 2.0 * self.rho[:, 1, 0].imag,
                          (self.rho[:, 0, 0] - self.rho[:, 1, 1]).real])
            n, self.angles = _relative_axis(r, np.sqrt(np.sum(r * r, axis=0)), self.local,
                                            self.angles)
            q = np.einsum("am,aij->mij", np.array(n), PAULIS)
        h_fb = None
        if cfg.mu > 0:
            h_fb = np.moveaxis(_feedback_stack(np.moveaxis(self.rho, 0, -1), psi, cfg.mu), -1, 0)
        h = self.h0 if h_fb is None else self.h0 + h_fb
        unread = [np.sqrt(2.0 * beta) * SIGMA_Z] if beta > 0 else []
        self.rho, dy_l = rouchon_ralph_step(self.rho, h, np.sqrt(2.0 * k) * q, unread, dt, dw)
        self.last = np.sqrt(2.0 * k) * dy_l + self.dy_shift, h_fb

    def snapshot(self):
        """A copy of every state, the last step's record increments dy and its
        feedback (m, 2, 2), or None when mu = 0 (and before the first step)."""
        dy, h_fb = self.last
        return self.rho.copy(), dy, h_fb

    def assemble(self, kept):
        """(states, records, feedback) of the snapshots of step 0 and n - 1
        later steps, shapes (m, n, 2, 2), (m, n - 1) and (m, n - 1, 2, 2), the
        feedback zero when mu = 0."""
        rho, dy, h_fb = zip(*kept)
        states = np.stack(rho, axis=1)
        records = np.reshape(dy[1:], (len(kept) - 1, len(self.rho))).T
        if h_fb[-1] is None:
            return states, records, np.zeros_like(states[:, 1:])
        return states, records, np.stack(h_fb[1:], axis=1)

    def purity(self):
        return np.einsum("mij,mji->m", self.rho, self.rho).real

    def overlap(self, psi):
        return np.einsum("i,mij,j->m", psi.conj(), self.rho, psi).real

    def states(self):
        return self.rho
