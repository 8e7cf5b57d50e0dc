"""Dense complex linear algebra and quantum-state primitives for small systems.

All operators are plain numpy arrays (N x N complex, N <= ~16).  Density
matrices are validated on entry: Hermitian, unit trace, positive
semidefinite, each within the tolerances below.

purity, von_neumann_entropy and project_to_physical also take a stack
(..., N, N) and give one result per matrix, with the bits it gets on its own.

Every module refuses a bad argument through the rules here, by the
argument's name and before any arithmetic or draw: a count (_count: "runs
must be a whole number, got 2.5", "runs must be at least 1, got 0"), a rate,
step or strength (_finite: "k must be non-negative and finite, got nan", or
"positive and finite"), a pair of Bloch angles (_bloch_angles: "theta must
lie in [0, pi]", "phi must lie in [0, 2*pi)"), and an array whose shape must
match another argument's (_same_shape: "H has shape (3, 3), rho (2, 2)").
"""

import numpy as np

TOL_HERM = 1e-9
TOL_TRACE = 1e-9
TOL_PSD = 1e-9
TOL_UNITARY = 1e-8

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _whole_number(x):
    """True for an int or a numpy integer: a bool is an int to Python, but counts nothing."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _count(name, x, least=1):
    """Refuse by name a count x that is not a whole number, or is below least.
    The first message prints x's repr, which names the wrong type:
    np.float64(2.5) is refused for being a float64."""
    if not _whole_number(x):
        raise ValueError(f"{name} must be a whole number, got {x!r}")
    if x < least:
        raise ValueError(f"{name} must be at least {least}, got {x}")


def _finite(name, x, positive=False):
    """Refuse by name an x that is not finite and non-negative, or not finite
    and positive when positive is set.  Written so that NaN fails."""
    if not (0 < x < np.inf if positive else 0 <= x < np.inf):
        sign = "positive" if positive else "non-negative"
        raise ValueError(f"{name} must be {sign} and finite, got {x}")


def _bloch_angles(theta, phi):
    """Refuse a theta outside [0, pi] or a phi outside [0, 2 pi), scalars or
    arrays of them.  Written so that NaN fails."""
    if not np.all((theta >= 0.0) & (theta <= np.pi)):
        raise ValueError("theta must lie in [0, pi]")
    if not np.all((phi >= 0.0) & (phi < 2 * np.pi)):
        raise ValueError("phi must lie in [0, 2*pi)")


def _same_shape(name, a, of, b, shape=None):
    """Refuse the array a, called name, unless its shape is `shape`, by
    default that of b, which is called of: "H has shape (3, 3), rho (2, 2)"."""
    if a.shape != (b.shape if shape is None else shape):
        raise ValueError(f"{name} has shape {a.shape}, {of} {b.shape}")


def _checked(name, check, a):
    """check(a), its ValueError's message prefixed by the argument's name."""
    try:
        return check(a)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def check_square(A):
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    return A


def check_hermitian(A):
    A = check_square(A)
    dev = np.max(np.abs(A - A.conj().T))
    if dev > TOL_HERM:
        raise ValueError(f"matrix is not Hermitian (deviation {dev:.3e} > {TOL_HERM:.1e})")
    return A


def check_density_matrix(rho):
    """Validate rho as a density matrix; returns it unchanged on success."""
    rho = check_hermitian(rho)
    tr = np.trace(rho).real
    if abs(tr - 1.0) > TOL_TRACE:
        raise ValueError(f"trace {float(tr)!r} deviates from 1 beyond {TOL_TRACE:.1e}")
    lam_min = np.linalg.eigvalsh((rho + rho.conj().T) / 2).min()
    if lam_min < -TOL_PSD:
        raise ValueError(f"negative eigenvalue {lam_min:.3e} below -{TOL_PSD:.1e}")
    return rho


def check_unitary(U):
    U = check_square(U)
    dev = np.max(np.abs(U @ U.conj().T - np.eye(U.shape[0])))
    if dev > TOL_UNITARY:
        raise ValueError(f"matrix is not unitary (deviation {dev:.3e} > {TOL_UNITARY:.1e})")
    return U


def ket(vec):
    """Validate and return a normalized pure-state vector."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    if not np.all(np.isfinite(v)):
        raise ValueError("state vector has non-finite entries")
    n = np.linalg.norm(v)
    if abs(n - 1.0) > TOL_TRACE:
        raise ValueError(f"state vector norm {float(n)!r} deviates from 1 beyond {TOL_TRACE:.1e}")
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


def eig_hermitian(A):
    """Eigendecomposition of a Hermitian matrix with deterministic ordering.

    Returns (eigenvalues, eigenvectors) with eigenvalues sorted descending and
    eigenvectors as orthonormal columns.  Degenerate eigenvalues are ordered by
    the lexicographic order of the phase-fixed eigenvector entries, so the
    output is reproducible for reproducible inputs.
    """
    A = check_hermitian(A)
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


def expm_skew(H, t):
    """exp(-i H t) for Hermitian H, exactly unitary by construction."""
    H = check_hermitian(H)
    if not np.isfinite(t):
        raise ValueError("time must be finite")
    vals, vecs = np.linalg.eigh((H + H.conj().T) / 2)
    return (vecs * np.exp(-1j * vals * t)) @ vecs.conj().T


def _dagger(a):
    """Conjugate transpose of a matrix, or of every matrix of a stack (..., N, N)."""
    return a.conj().swapaxes(-1, -2)


def _per_matrix(x):
    """A float for one matrix, the array of values for a stack."""
    return float(x) if x.ndim == 0 else x


def purity(rho):
    """Tr[rho^2], in [1/N, 1]; one per matrix of a stack."""
    rho = np.asarray(rho, dtype=complex)
    return _per_matrix(np.einsum("...ij,...ji->...", rho, rho).real)


def _spectral_entropy(lam, axis):
    """-sum lam ln lam over an axis of eigenvalues, with 0 ln 0 = 0 below 1e-15."""
    lam = np.where(lam > 1e-15, lam, 1.0)
    return -(lam * np.log(lam)).sum(axis=axis)


def von_neumann_entropy(rho):
    """-Tr[rho ln rho] in nats, with 0 ln 0 = 0 below 1e-15; one per matrix of a stack."""
    rho = np.asarray(rho)
    return _per_matrix(_spectral_entropy(np.linalg.eigvalsh((rho + _dagger(rho)) / 2), -1))


def overlap(rho, psi):
    """<psi|rho|psi> for a density matrix and a pure target state."""
    rho = np.asarray(rho, dtype=complex)
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    _same_shape("psi", psi, "rho", rho, rho.shape[:1])
    return float(np.vdot(psi, rho @ psi).real)


def trace_distance(rho, sigma):
    """(1/2) Tr|rho - sigma|."""
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    _same_shape("sigma", sigma, "rho", rho)
    diff = rho - sigma
    lam = np.linalg.eigvalsh((diff + diff.conj().T) / 2)
    return float(0.5 * np.abs(lam).sum())


def majorizes(lam, mu):
    """True iff lam majorizes mu (descending partial sums of lam dominate).

    Both vectors must have the same length and sum to 1 within tolerance.
    """
    lam = np.asarray(lam, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if lam.shape != mu.shape:
        raise ValueError("vectors must have the same length")
    for v in (lam, mu):
        if abs(v.sum() - 1.0) > max(TOL_TRACE, 1e-10 * v.size):
            raise ValueError(f"vector sums to {float(v.sum())!r}, not 1")
    a = np.cumsum(np.sort(lam)[::-1])
    b = np.cumsum(np.sort(mu)[::-1])
    return bool(np.all(a >= b - 1e-12))


def project_to_physical(mat):
    """Nearest-physical-state projection: Hermitize, clip eigenvalues, renormalize.
    Projects every matrix of a stack (..., N, N)."""
    mat = np.asarray(mat, dtype=complex)
    vals, vecs = np.linalg.eigh((mat + _dagger(mat)) / 2)
    vals = np.clip(vals, 0.0, None)
    s = vals.sum(axis=-1, keepdims=True)
    if np.any(s <= 0):
        raise ValueError("projection failed: state has no positive weight")
    return (vecs * (vals / s)[..., None, :]) @ _dagger(vecs)
