import numpy as np
import pytest

from qmfc.states import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    check_density_matrix,
    check_hermitian,
    check_unitary,
    eig_hermitian,
    expm_skew,
    ket,
    majorizes,
    overlap,
    project_to_physical,
    pure_density,
    purity,
    trace_distance,
    von_neumann_entropy,
)


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


def random_density(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_check_density_matrix_accepts_valid_states():
    rng = np.random.default_rng(0)
    for n in (2, 3, 4, 8):
        for _ in range(50):
            rho = random_density(rng, n)
            assert check_density_matrix(rho) is rho


def test_check_density_matrix_rejects_bad_states():
    with pytest.raises(ValueError):
        check_density_matrix(np.array([[0.5, 0.1j], [0.1j, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        check_density_matrix(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        check_density_matrix(np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(ValueError):
        check_density_matrix(np.array([[np.nan, 0], [0, 1.0]]))
    with pytest.raises(ValueError):
        check_density_matrix(np.ones((2, 3)))


def test_check_density_matrix_tolerances_are_sharp():
    rho = np.diag([0.5, 0.5]).astype(complex)
    ok = rho + np.array([[0, 5e-10], [-5e-10, 0]])  # Hermitian deviation 1e-9
    check_density_matrix(ok)
    bad = rho + np.array([[0, 5e-9], [-5e-9, 0]])
    with pytest.raises(ValueError):
        check_density_matrix(bad)
    check_density_matrix(np.diag([0.5 + 5e-10, 0.5 + 4e-10]))
    with pytest.raises(ValueError):
        check_density_matrix(np.diag([0.5 + 5e-9, 0.5 + 5e-9]))


def test_check_unitary():
    rng = np.random.default_rng(1)
    for n in (2, 3, 5):
        check_unitary(random_unitary(rng, n))
    with pytest.raises(ValueError):
        check_unitary(2.0 * np.eye(2))


def test_ket_normalization():
    v = ket([1.0, 1.0j] / np.sqrt(2.0))
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        ket([1.0, 1.0])


def test_eig_hermitian_simple():
    vals, vecs = eig_hermitian(SIGMA_Z)
    assert np.allclose(vals, [1.0, -1.0])
    assert np.allclose(np.abs(vecs), np.eye(2))
    vals, vecs = eig_hermitian(SIGMA_X)
    assert np.allclose(vals, [1.0, -1.0])
    assert np.allclose(vecs[:, 0], [1, 1] / np.sqrt(2.0))


def test_eig_hermitian_reconstruction_fuzz():
    rng = np.random.default_rng(2)
    for n in (2, 3, 4, 8):
        for _ in range(250):
            a = random_hermitian(rng, n)
            vals, vecs = eig_hermitian(a)
            assert np.all(np.diff(vals) <= 1e-12)
            assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(n))) < 1e-10
            assert np.max(np.abs((vecs * vals) @ vecs.conj().T - a)) < 1e-10


def test_eig_hermitian_deterministic_under_degeneracy():
    a = np.eye(3, dtype=complex)
    a[0, 0] = 2.0
    vals1, vecs1 = eig_hermitian(a)
    vals2, vecs2 = eig_hermitian(a.copy())
    assert np.array_equal(vals1, vals2)
    assert np.array_equal(vecs1, vecs2)
    # phase convention: first significant component real positive
    for j in range(3):
        col = vecs1[:, j]
        lead = col[np.nonzero(np.abs(col) > 1e-12)[0][0]]
        assert abs(lead.imag) < 1e-12 and lead.real > 0


def test_expm_skew_matches_series_and_inverse():
    assert np.allclose(expm_skew(np.zeros((3, 3)), 1.7), np.eye(3))
    assert np.allclose(expm_skew(SIGMA_Z, np.pi), -np.eye(2), atol=1e-12)
    # exp(-i sx pi/2) = -i sx
    assert np.allclose(expm_skew(SIGMA_X, np.pi / 2), -1j * SIGMA_X, atol=1e-12)
    rng = np.random.default_rng(3)
    for _ in range(100):
        h = random_hermitian(rng, 4)
        t = rng.uniform(-2, 2)
        u = expm_skew(h, t)
        check_unitary(u)
        assert np.max(np.abs(u @ expm_skew(h, -t) - np.eye(4))) < 1e-12


def test_purity_and_entropy():
    assert purity(np.eye(2) / 2) == pytest.approx(0.5)
    assert purity(pure_density([1.0, 0.0])) == pytest.approx(1.0)
    assert von_neumann_entropy(pure_density([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)
    assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(np.log(2.0))
    assert von_neumann_entropy(np.diag([0.75, 0.25])) == pytest.approx(
        0.5623351446188083
    )
    rng = np.random.default_rng(4)
    for _ in range(100):
        rho = random_density(rng, 4)
        lam = np.linalg.eigvalsh(rho)
        assert purity(rho) == pytest.approx(float((lam**2).sum()))


def test_overlap_linearity_and_examples():
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert overlap(pure_density(plus), plus) == pytest.approx(1.0)
    assert overlap(np.eye(2) / 2, plus) == pytest.approx(0.5)
    rng = np.random.default_rng(5)
    for _ in range(50):
        a, b = random_density(rng, 3), random_density(rng, 3)
        psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        psi /= np.linalg.norm(psi)
        w = rng.uniform(0, 1)
        mix = w * a + (1 - w) * b
        assert overlap(mix, psi) == pytest.approx(
            w * overlap(a, psi) + (1 - w) * overlap(b, psi)
        )


def test_trace_distance():
    assert trace_distance(
        pure_density([1.0, 0.0]), pure_density([0.0, 1.0])
    ) == pytest.approx(1.0)
    rho = np.eye(2) / 2
    assert trace_distance(rho, rho) == pytest.approx(0.0)
    assert trace_distance(pure_density([1.0, 0.0]), rho) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        trace_distance(np.eye(2) / 2, np.eye(3) / 3)


def test_majorizes():
    assert majorizes([1.0, 0.0], [0.5, 0.5])
    assert not majorizes([0.5, 0.5], [1.0, 0.0])
    assert majorizes([0.5, 0.5], [0.5, 0.5])
    assert majorizes([0.6, 0.3, 0.1], [0.4, 0.4, 0.2])
    with pytest.raises(ValueError):
        majorizes([0.7, 0.7], [0.5, 0.5])
    with pytest.raises(ValueError):
        majorizes([1.0, 0.0], [1.0, 0.0, 0.0])


def test_project_to_physical():
    mat = np.diag([1.2, -0.1]).astype(complex)
    rho = project_to_physical(mat)
    check_density_matrix(rho)
    assert np.allclose(rho, np.diag([1.0, 0.0]))
    rng = np.random.default_rng(6)
    for _ in range(50):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        check_density_matrix(project_to_physical(g + g.conj().T))


def test_state_functionals_take_stacks():
    # a stack (..., N, N) gives every matrix the bits it gets on its own
    rng = np.random.default_rng(31)
    for n in (2, 3, 4):
        mats = np.array([[random_density(rng, n) for _ in range(5)] for _ in range(3)])
        mats[0, 0] = pure_density(np.eye(n)[0])     # zero eigenvalues: 0 ln 0 = 0
        mats[1, 1] = random_hermitian(rng, n) + np.eye(n)  # clipped by the projection
        for fn in (purity, von_neumann_entropy, project_to_physical):
            stacked = fn(mats)
            for idx in np.ndindex(3, 5):
                assert np.asarray(fn(mats[idx])).tobytes() == stacked[idx].tobytes()
    with pytest.raises(ValueError):
        project_to_physical(np.array([np.eye(2) / 2, -np.eye(2)]))


def test_check_hermitian_returns_input():
    h = SIGMA_Y
    assert check_hermitian(h) is h
    with pytest.raises(ValueError):
        check_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
