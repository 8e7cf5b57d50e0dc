import re

import numpy as np
import pytest

from qmfc.feedback import (
    first_order_gain,
    optimal_feedback,
    optimal_unitary,
    second_order_gain,
)
from qmfc.states import SIGMA_X, check_unitary, overlap, pure_density


def random_density(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_constrained_hamiltonian(rng, n, mu):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (g + g.conj().T) / 2
    return h * np.sqrt(mu) / np.linalg.norm(h)


def random_pure(rng, n):
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return psi / np.linalg.norm(psi)


def test_optimal_unitary_achieves_spectral_pairing():
    rho = np.diag([0.7, 0.3]).astype(complex)
    sigma = pure_density([0.0, 1.0])
    u = optimal_unitary(rho, sigma)
    check_unitary(u)
    after = u @ rho @ u.conj().T
    # best overlap with a pure target is the largest eigenvalue
    assert overlap(after, np.array([0.0, 1.0])) == pytest.approx(0.7)


def test_optimal_unitary_beats_random_unitaries():
    rng = np.random.default_rng(30)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        rho = random_density(rng, n)
        sigma = random_density(rng, n)
        u = optimal_unitary(rho, sigma)
        best = np.trace(u @ rho @ u.conj().T @ sigma).real
        lam_r = np.sort(np.linalg.eigvalsh(rho))
        lam_s = np.sort(np.linalg.eigvalsh(sigma))
        assert best == pytest.approx(float(lam_r @ lam_s), abs=1e-9)
        for _ in range(50):
            v = random_unitary(rng, n)
            assert np.trace(v @ rho @ v.conj().T @ sigma).real <= best + 1e-9


def test_first_order_gain_example():
    # rho = |0><0|, target |+x>, H = sigma_y/sqrt(2): gain rotates toward target
    rho = pure_density([1.0, 0.0])
    psi = np.array([1.0, 1.0]) / np.sqrt(2.0)
    h = np.array([[0.0, -0.5j], [0.5j, 0.0]])
    assert first_order_gain(h, rho, psi) == pytest.approx(0.5)
    assert first_order_gain(-h, rho, psi) == pytest.approx(-0.5)
    assert first_order_gain(np.zeros((2, 2)), rho, psi) == 0.0


def test_second_order_gain_requires_eigenvector_target():
    rho = np.diag([0.7, 0.3]).astype(complex)
    psi = np.array([0.0, 1.0])
    h = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    assert second_order_gain(h, rho, psi) == pytest.approx(0.4)
    with pytest.raises(ValueError):
        second_order_gain(h, rho, np.array([1.0, 1.0]) / np.sqrt(2.0))


def test_first_order_branch_example():
    # rho = |0><0|, target |+x>: non-commuting, chi saturates Tr[H^2] = mu
    rho = pure_density([1.0, 0.0])
    psi = np.array([1.0, 1.0]) / np.sqrt(2.0)
    mu = 1.0
    dec = optimal_feedback(rho, psi, mu)
    assert dec.branch == "first_order"
    assert np.trace(dec.hamiltonian @ dec.hamiltonian).real == pytest.approx(mu)
    # achieved gain is the optimum sqrt(2 mu (a - b^2))
    gain = first_order_gain(dec.hamiltonian, rho, psi)
    assert gain == pytest.approx(np.sqrt(2.0 * mu * (dec.a - dec.b**2)))
    assert gain == pytest.approx(np.sqrt(0.5))


def test_second_order_branch_example():
    # commuting, target in the bottom eigenvector: couple it to the top one
    rho = np.diag([0.7, 0.3]).astype(complex)
    psi = np.array([0.0, 1.0])
    mu = 2.0
    dec = optimal_feedback(rho, psi, mu)
    assert dec.branch == "second_order"
    assert np.allclose(dec.hamiltonian, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.trace(dec.hamiltonian @ dec.hamiltonian).real == pytest.approx(mu)
    assert second_order_gain(dec.hamiltonian, rho, psi) == pytest.approx(
        (0.7 - 0.3) * mu / 2
    )


def test_no_op_branches():
    rho = np.diag([0.7, 0.3]).astype(complex)
    # target already holds the top eigenvalue
    dec = optimal_feedback(rho, np.array([1.0, 0.0]), 1.0)
    assert dec.branch == "no_op"
    assert np.all(dec.hamiltonian == 0)
    # zero available strength
    dec = optimal_feedback(rho, np.array([0.0, 1.0]), 0.0)
    assert dec.branch == "no_op"
    with pytest.raises(ValueError):
        optimal_feedback(rho, np.array([0.0, 1.0]), -1.0)


@pytest.mark.parametrize("mu", [np.nan, np.inf, -1.0])
def test_optimal_feedback_refuses_bad_mu_by_name(mu):
    # rho and the target do not commute, so a NaN mu would reach the first-order branch
    rho = np.array([[0.6, 0.2], [0.2, 0.4]], dtype=complex)
    with pytest.raises(ValueError, match=f"mu must be non-negative and finite, got {mu}"):
        optimal_feedback(rho, np.array([1.0, 0.0]), mu)


RHO_2 = np.array([[0.6, 0.2], [0.2, 0.4]], dtype=complex)
EIGEN_RHO_2 = np.diag([0.7, 0.3]).astype(complex)


@pytest.mark.parametrize("call, message", [
    (lambda: optimal_feedback(RHO_2, [0, 1, 0], 1.0), "psi_target has shape (3,), rho (2, 2)"),
    (lambda: first_order_gain(np.eye(3), RHO_2, [1, 0]), "H has shape (3, 3), rho (2, 2)"),
    (lambda: first_order_gain(SIGMA_X, RHO_2, [0, 1, 0]), "psi_target has shape (3,), rho (2, 2)"),
    (lambda: second_order_gain(np.eye(3), EIGEN_RHO_2, [0, 1]), "H has shape (3, 3), rho (2, 2)"),
    (lambda: second_order_gain(SIGMA_X, EIGEN_RHO_2, [0, 1, 0]),
     "psi_target has shape (3,), rho (2, 2)"),
    (lambda: optimal_unitary(RHO_2, np.eye(3) / 3), "sigma_target has shape (3, 3), rho (2, 2)"),
], ids=["optimal_feedback-psi", "first_order_gain-H", "first_order_gain-psi",
        "second_order_gain-H", "second_order_gain-psi", "optimal_unitary-sigma"])
def test_feedback_refuses_mismatched_dimensions_by_name(call, message):
    # each gain and optimal_feedback raised numpy's unnamed matmul
    # core-dimension error, and optimal_unitary an unnamed "dimension mismatch"
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_first_order_optimal_among_random_hamiltonians():
    rng = np.random.default_rng(31)
    mu = 1.0
    for _ in range(40):
        n = int(rng.integers(2, 5))
        rho = random_density(rng, n)
        psi = random_pure(rng, n)
        dec = optimal_feedback(rho, psi, mu)
        if dec.branch != "first_order":
            continue
        best = first_order_gain(dec.hamiltonian, rho, psi)
        for _ in range(100):
            h = random_constrained_hamiltonian(rng, n, mu)
            assert first_order_gain(h, rho, psi) <= best + 1e-10


def test_second_order_optimal_among_random_hamiltonians():
    rng = np.random.default_rng(32)
    mu = 1.0
    for _ in range(30):
        n = int(rng.integers(2, 5))
        lam = np.sort(rng.dirichlet(np.ones(n)))[::-1]
        rho = np.diag(lam).astype(complex)
        j = int(rng.integers(1, n))  # an eigenvector without the top eigenvalue
        psi = np.zeros(n, dtype=complex)
        psi[j] = 1.0
        dec = optimal_feedback(rho, psi, mu)
        if dec.branch == "no_op":  # degenerate spectrum draw
            continue
        assert dec.branch == "second_order"
        best = second_order_gain(dec.hamiltonian, rho, psi)
        assert best == pytest.approx((lam[0] - lam[j]) * mu / 2, abs=1e-9)
        for _ in range(100):
            h = random_constrained_hamiltonian(rng, n, mu)
            assert second_order_gain(h, rho, psi) <= best + 1e-10


def test_constraint_saturated_on_active_branches():
    rng = np.random.default_rng(33)
    mu = 3.0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        rho = random_density(rng, n)
        psi = random_pure(rng, n)
        dec = optimal_feedback(rho, psi, mu)
        if dec.branch == "no_op":
            continue
        assert np.trace(dec.hamiltonian @ dec.hamiltonian).real == pytest.approx(
            mu, abs=1e-9
        )
        assert np.max(np.abs(dec.hamiltonian - dec.hamiltonian.conj().T)) < 1e-12


def test_target_phase_invariance():
    rng = np.random.default_rng(34)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        rho = random_density(rng, n)
        psi = random_pure(rng, n)
        dec = optimal_feedback(rho, psi, 1.0)
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        dec2 = optimal_feedback(rho, phase * psi, 1.0)
        assert dec2.branch == dec.branch
        assert np.max(np.abs(dec2.hamiltonian - dec.hamiltonian)) < 1e-10
    # also on the commuting branch
    rho = np.diag([0.6, 0.4]).astype(complex)
    psi = np.array([0.0, 1.0])
    h1 = optimal_feedback(rho, psi, 1.0).hamiltonian
    h2 = optimal_feedback(rho, np.exp(0.77j) * psi, 1.0).hamiltonian
    assert np.max(np.abs(h1 - h2)) < 1e-10


def test_feedback_continuity_near_branch_boundary():
    # gains shrink continuously as the commutator closes, no blow-up
    psi = np.array([0.0, 1.0])
    mu = 1.0
    prev_h_norm = None
    for eps in (1e-2, 1e-4, 1e-6):
        c, s = np.cos(eps), np.sin(eps)
        u = np.array([[c, -s], [s, c]], dtype=complex)
        rho = u @ np.diag([0.7, 0.3]).astype(complex) @ u.conj().T
        dec = optimal_feedback(rho, psi, mu)
        h_norm = np.linalg.norm(dec.hamiltonian)
        assert np.isfinite(h_norm)
        assert h_norm == pytest.approx(np.sqrt(mu), abs=1e-8)
        prev_h_norm = h_norm
    assert prev_h_norm is not None
