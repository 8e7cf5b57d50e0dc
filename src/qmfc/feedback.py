"""Optimal Hamiltonian feedback synthesis.

Given the controller's state of knowledge rho and a pure target, construct
either the best finite unitary (eigenvector pairing) or the best
norm-constrained infinitesimal Hamiltonian.  The Hamiltonian construction has
three branches: a first-order one proportional to i[target-projector, rho], a
second-order one that couples the target to the dominant eigenvector when the
two commute, and a no-op when the target already carries the top eigenvalue.
"""

from dataclasses import dataclass

import numpy as np

from .states import check_density_matrix, eig_hermitian, ket, pure_density

# the commutator ||[sigma, rho]||_F, and the gap between rho's top eigenvalue
# and the target's, count as zero below DEGEN_TOL ||rho||_F; every kernel's
# feedback uses this one threshold, so all choose the same branch
DEGEN_TOL = 1e-8


@dataclass(frozen=True)
class FeedbackDecision:
    branch: str            # "first_order" | "second_order" | "no_op"
    hamiltonian: np.ndarray
    a: float               # <target| rho^2 |target>
    b: float               # <target| rho |target>
    commutator_norm: float


def optimal_unitary(rho, sigma_target):
    """Unitary pairing descending eigenvectors of rho with those of the target.

    Achieves overlap sum_j lambda_j(rho) lambda_j(sigma) under the
    descending-descending pairing, which is the best any unitary can do.
    """
    rho = check_density_matrix(rho)
    sigma_target = check_density_matrix(sigma_target)
    if rho.shape != sigma_target.shape:
        raise ValueError("dimension mismatch")
    _, v_rho = eig_hermitian(rho)
    _, v_sig = eig_hermitian(sigma_target)
    return v_sig @ v_rho.conj().T


def first_order_gain(H, rho, psi_target):
    """Coefficient of dt in the fidelity change: -i <target|[H, rho]|target>."""
    H = np.asarray(H, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    psi = np.asarray(psi_target, dtype=complex).reshape(-1)
    comm = H @ rho - rho @ H
    return float((-1j * np.vdot(psi, comm @ psi)).real)


def second_order_gain(H, rho, psi_target, tol=1e-6):
    """Coefficient of dt^2 when the target is an eigenvector of rho:
    sum_n (lambda_n - lambda_T) |<n|H|target>|^2."""
    H = np.asarray(H, dtype=complex)
    rho = check_density_matrix(rho)
    psi = ket(psi_target)
    lam_t = float(np.vdot(psi, rho @ psi).real)
    if np.linalg.norm(rho @ psi - lam_t * psi) > tol:
        raise ValueError("target is not an eigenvector of rho; second-order form invalid")
    h_psi = H @ psi
    return float(np.vdot(h_psi, (rho @ h_psi) - lam_t * h_psi).real)


def optimal_feedback(rho, psi_target, mu) -> FeedbackDecision:
    """Feedback Hamiltonian maximizing the target fidelity under Tr[H^2] = mu.

    Branches:
      first_order  -- rho and the target projector do not commute; H is the
                      scaled commutator i chi [sigma, rho] with chi fixed by
                      exact constraint saturation Tr[H^2] = mu.
      second_order -- they commute but the target lacks the top eigenvalue;
                      H couples the target to the dominant eigenvector with
                      off-diagonal weight sqrt(mu/2), chosen real positive.
      no_op        -- the target already carries the top eigenvalue; H = 0.
    """
    rho = check_density_matrix(rho)
    psi = ket(psi_target)
    if mu < 0:
        raise ValueError("feedback strength must be non-negative")
    n = rho.shape[0]
    tau_degen = DEGEN_TOL * np.linalg.norm(rho)

    sigma = pure_density(psi)
    comm = sigma @ rho - rho @ sigma
    comm_norm = float(np.linalg.norm(comm))
    b = float(np.vdot(psi, rho @ psi).real)
    a = float(np.vdot(psi, rho @ (rho @ psi)).real)

    if mu == 0:
        return FeedbackDecision("no_op", np.zeros((n, n), dtype=complex), a, b, comm_norm)

    if comm_norm > tau_degen:
        # Tr[(i[sigma, rho])^2] = ||[sigma, rho]||_F^2 = 2 (a - b^2); scaling by
        # the commutator norm saturates the constraint without the cancellation
        # that a - b^2 suffers near the branch boundary
        chi = np.sqrt(mu) / comm_norm
        h = 1j * chi * comm
        return FeedbackDecision("first_order", (h + h.conj().T) / 2, a, b, comm_norm)

    vals, vecs = eig_hermitian(rho)
    top = vecs[:, 0]
    lam_t = b  # target is an eigenvector here, so its eigenvalue is b
    if vals[0] - lam_t <= tau_degen:
        return FeedbackDecision("no_op", np.zeros((n, n), dtype=complex), a, b, comm_norm)

    # orthogonalize the dominant eigenvector against the target so H is
    # Hermitian with Tr[H^2] = mu exactly; canonicalize the target's global
    # phase so the same physical target always yields the same H
    nz = np.nonzero(np.abs(psi) > 1e-12)[0][0]
    psi_c = psi * (psi[nz].conjugate() / abs(psi[nz]))
    top = top - np.vdot(psi_c, top) * psi_c
    top /= np.linalg.norm(top)
    h = np.sqrt(mu / 2.0) * (np.outer(top, psi_c.conj()) + np.outer(psi_c, top.conj()))
    return FeedbackDecision("second_order", h, a, b, comm_norm)
