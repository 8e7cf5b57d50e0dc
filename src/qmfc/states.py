"""Dense complex linear algebra and quantum-state primitives for small systems.

All operators are plain numpy arrays (N x N complex, N <= ~16).  Density
matrices are validated on entry: Hermitian, unit trace, positive
semidefinite, each within the tolerances below.
"""

import numpy as np

TOL_HERM = 1e-9
TOL_TRACE = 1e-9
TOL_PSD = 1e-9
TOL_UNITARY = 1e-8

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def check_square(A):
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    return A


def check_hermitian(A, tol=TOL_HERM):
    A = check_square(A)
    dev = np.max(np.abs(A - A.conj().T))
    if dev > tol:
        raise ValueError(f"matrix is not Hermitian (deviation {dev:.3e} > {tol:.1e})")
    return A


def check_density_matrix(rho, tol_herm=TOL_HERM, tol_trace=TOL_TRACE, tol_psd=TOL_PSD):
    """Validate rho as a density matrix; returns it unchanged on success."""
    rho = check_hermitian(rho, tol_herm)
    tr = np.trace(rho).real
    if abs(tr - 1.0) > tol_trace:
        raise ValueError(f"trace {tr!r} deviates from 1 beyond {tol_trace:.1e}")
    lam_min = np.linalg.eigvalsh((rho + rho.conj().T) / 2).min()
    if lam_min < -tol_psd:
        raise ValueError(f"negative eigenvalue {lam_min:.3e} below -{tol_psd:.1e}")
    return rho


def check_unitary(U, tol=TOL_UNITARY):
    U = check_square(U)
    dev = np.max(np.abs(U @ U.conj().T - np.eye(U.shape[0])))
    if dev > tol:
        raise ValueError(f"matrix is not unitary (deviation {dev:.3e} > {tol:.1e})")
    return U


def ket(vec, tol=TOL_TRACE):
    """Validate and return a normalized pure-state vector."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    if not np.all(np.isfinite(v)):
        raise ValueError("state vector has non-finite entries")
    n = np.linalg.norm(v)
    if abs(n - 1.0) > tol:
        raise ValueError(f"state vector norm {n!r} deviates from 1 beyond {tol:.1e}")
    return v


def pure_density(psi):
    psi = ket(psi)
    return np.outer(psi, psi.conj())


def _phase_fix(vecs):
    # Make the first component of magnitude > 1e-12 in each column real positive.
    vecs = vecs.copy()
    for j in range(vecs.shape[1]):
        v = vecs[:, j]
        nz = np.nonzero(np.abs(v) > 1e-12)[0]
        if nz.size:
            p = v[nz[0]]
            vecs[:, j] = v * (p.conjugate() / abs(p))
    return vecs


def eig_hermitian(A, tol=TOL_HERM):
    """Eigendecomposition of a Hermitian matrix with deterministic ordering.

    Returns (eigenvalues, eigenvectors) with eigenvalues sorted descending and
    eigenvectors as orthonormal columns.  Degenerate eigenvalues are ordered by
    the lexicographic order of the phase-fixed eigenvector entries, so the
    output is reproducible for reproducible inputs.
    """
    A = check_hermitian(A, tol)
    vals, vecs = np.linalg.eigh((A + A.conj().T) / 2)
    order = np.argsort(-vals, kind="stable")
    vals, vecs = vals[order], _phase_fix(vecs[:, order])

    # reorder within (near-)degenerate groups for a deterministic tie-break
    n = len(vals)
    i = 0
    while i < n:
        j = i + 1
        while j < n and abs(vals[j] - vals[i]) <= 1e-12 * max(1.0, abs(vals[i])):
            j += 1
        if j - i > 1:
            keys = [tuple(np.round(np.c_[vecs[:, m].real, vecs[:, m].imag].ravel(), 12))
                    for m in range(i, j)]
            sub = sorted(range(i, j), key=lambda m: keys[m - i])
            vecs[:, i:j] = vecs[:, sub]
            vals[i:j] = vals[sub]
        i = j
    return vals, vecs


def expm_skew(H, t, tol=TOL_HERM):
    """exp(-i H t) for Hermitian H, exactly unitary by construction."""
    H = check_hermitian(H, tol)
    if not np.isfinite(t):
        raise ValueError("time must be finite")
    vals, vecs = np.linalg.eigh((H + H.conj().T) / 2)
    return (vecs * np.exp(-1j * vals * t)) @ vecs.conj().T


def purity(rho):
    """Tr[rho^2], in [1/N, 1]."""
    rho = np.asarray(rho, dtype=complex)
    return float(np.einsum("ij,ji->", rho, rho).real)


def von_neumann_entropy(rho):
    """-Tr[rho ln rho] in nats, with 0 ln 0 = 0."""
    lam = np.linalg.eigvalsh((rho + np.asarray(rho).conj().T) / 2)
    lam = lam[lam > 1e-15]
    return float(-(lam * np.log(lam)).sum())


def overlap(rho, psi):
    """<psi|rho|psi> for a density matrix and a pure target state."""
    rho = np.asarray(rho, dtype=complex)
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if rho.shape[0] != psi.shape[0]:
        raise ValueError("dimension mismatch between state and target")
    return float(np.vdot(psi, rho @ psi).real)


def trace_distance(rho, sigma):
    """(1/2) Tr|rho - sigma|."""
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.shape != sigma.shape:
        raise ValueError("dimension mismatch")
    diff = rho - sigma
    lam = np.linalg.eigvalsh((diff + diff.conj().T) / 2)
    return float(0.5 * np.abs(lam).sum())


def majorizes(lam, mu, tol=TOL_TRACE):
    """True iff lam majorizes mu (descending partial sums of lam dominate).

    Both vectors must have the same length and sum to 1 within tolerance.
    """
    lam = np.asarray(lam, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if lam.shape != mu.shape:
        raise ValueError("vectors must have the same length")
    for v in (lam, mu):
        if abs(v.sum() - 1.0) > max(tol, 1e-10 * v.size):
            raise ValueError(f"vector sums to {v.sum()!r}, not 1")
    a = np.cumsum(np.sort(lam)[::-1])
    b = np.cumsum(np.sort(mu)[::-1])
    return bool(np.all(a >= b - 1e-12))


def project_to_physical(mat):
    """Nearest-physical-state projection: Hermitize, clip eigenvalues, renormalize."""
    mat = np.asarray(mat, dtype=complex)
    herm = (mat + mat.conj().T) / 2
    vals, vecs = np.linalg.eigh(herm)
    vals = np.clip(vals, 0.0, None)
    s = vals.sum()
    if s <= 0:
        raise ValueError("projection failed: state has no positive weight")
    vals /= s
    return (vecs * vals) @ vecs.conj().T
