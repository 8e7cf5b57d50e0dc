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

from .states import _finite, _phase_fix, _same_shape, check_density_matrix, eig_hermitian, ket

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
    _same_shape("sigma_target", sigma_target, "rho", rho)
    _, v_rho = eig_hermitian(rho)
    _, v_sig = eig_hermitian(sigma_target)
    return v_sig @ v_rho.conj().T


def first_order_gain(H, rho, psi_target):
    """Coefficient of dt in the fidelity change: -i <target|[H, rho]|target>."""
    H = np.asarray(H, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    psi = np.asarray(psi_target, dtype=complex).reshape(-1)
    _same_shape("H", H, "rho", rho)
    _same_shape("psi_target", psi, "rho", rho, rho.shape[:1])
    comm = H @ rho - rho @ H
    return float((-1j * np.vdot(psi, comm @ psi)).real)


def second_order_gain(H, rho, psi_target):
    """Coefficient of dt^2 when the target is an eigenvector of rho:
    sum_n (lambda_n - lambda_T) |<n|H|target>|^2."""
    H = np.asarray(H, dtype=complex)
    rho = check_density_matrix(rho)
    psi = ket(psi_target)
    _same_shape("H", H, "rho", rho)
    _same_shape("psi_target", psi, "rho", rho, rho.shape[:1])
    lam_t = float(np.vdot(psi, rho @ psi).real)
    if np.linalg.norm(rho @ psi - lam_t * psi) > 1e-6:
        raise ValueError("target is not an eigenvector of rho; second-order form invalid")
    h_psi = H @ psi
    return float(np.vdot(h_psi, (rho @ h_psi) - lam_t * h_psi).real)


def optimal_feedback(rho, psi_target, mu) -> FeedbackDecision:
    """Feedback Hamiltonian maximizing the target fidelity under Tr[H^2] = mu.

    Branches:
      first_order  -- rho and the target projector do not commute; H is the
                      scaled commutator i chi [sigma, rho] with chi fixed by
                      exact constraint saturation Tr[H^2] = mu, Hermitian as
                      built: the commutator is formed as S - S^+.
      second_order -- they commute but the target lacks the top eigenvalue;
                      H couples the target to the dominant eigenvector with
                      off-diagonal weight sqrt(mu/2), chosen real positive.
      no_op        -- the target already carries the top eigenvalue; H = 0.
    """
    rho = check_density_matrix(rho)
    psi = ket(psi_target)
    _same_shape("psi_target", psi, "rho", rho, rho.shape[:1])
    _finite("mu", mu)
    n = rho.shape[0]
    tau_degen = DEGEN_TOL * np.linalg.norm(rho)

    rho_psi = rho @ psi
    # [sigma, rho] as S - S^+ with S = |psi><rho psi| = sigma rho: anti-Hermitian
    # as built, which sigma rho - rho sigma is not (the two products round apart)
    sig_rho = np.outer(psi, rho_psi.conj())
    comm = sig_rho - sig_rho.conj().T
    comm_norm = float(np.linalg.norm(comm))
    b = float(np.vdot(psi, rho_psi).real)
    a = float(np.vdot(psi, rho @ rho_psi).real)

    if mu == 0:
        return FeedbackDecision("no_op", np.zeros((n, n), dtype=complex), a, b, comm_norm)

    if comm_norm > tau_degen:
        # Tr[(i[sigma, rho])^2] = ||[sigma, rho]||_F^2 = 2 (a - b^2); scaling by
        # the commutator norm saturates the constraint without the cancellation
        # that a - b^2 suffers near the branch boundary
        chi = np.sqrt(mu) / comm_norm
        return FeedbackDecision("first_order", 1j * chi * comm, a, b, comm_norm)

    vals, vecs = eig_hermitian(rho)
    if vals[0] - b <= tau_degen:  # the target is an eigenvector here, of eigenvalue b
        return FeedbackDecision("no_op", np.zeros((n, n), dtype=complex), a, b, comm_norm)

    # orthogonalize the dominant eigenvector against the target so H is
    # Hermitian with Tr[H^2] = mu exactly; canonicalize the target's global
    # phase so the same physical target always yields the same H
    psi_c = _phase_fix(psi[:, None])[:, 0]
    top = vecs[:, 0] - np.vdot(psi_c, vecs[:, 0]) * psi_c
    top /= np.linalg.norm(top)
    h = np.sqrt(mu / 2.0) * (np.outer(top, psi_c.conj()) + np.outer(psi_c, top.conj()))
    return FeedbackDecision("second_order", h, a, b, comm_norm)
