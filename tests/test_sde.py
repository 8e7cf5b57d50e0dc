import re
import tracemalloc

import numpy as np
import pytest

from matrix_reference import rouchon_ralph_step
from qmfc.ensemble import EnsembleConfig, _BlochKernel, _MatrixKernel
from qmfc.sde import (
    BASIS_DEGEN_TOL,
    MeasurementPolicy,
    SmeConfig,
    _diagonal,
    _drag_plane,
    _kraus_step,
    _local_axis,
    _matmul,
    _relative_axis,
    inverse_zeno_successes,
    nonselective_solve,
    run_control_trajectory,
)
from qmfc.states import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    check_density_matrix,
    overlap,
    pure_density,
    purity,
    trace_distance,
)


def test_sme_config_validation():
    with pytest.raises(ValueError):
        SmeConfig(k=-1.0, h0=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        SmeConfig(k=1.0, h0=np.zeros((2, 2)), dt=0.0)
    with pytest.raises(ValueError):
        SmeConfig(k=1.0, h0=np.zeros((2, 2)), t_end=-1.0)
    cfg = SmeConfig(k=1.0, h0=np.zeros((2, 2)), dt=1e-3, t_end=0.5)
    assert cfg.n_steps == 500


def test_sme_config_refuses_a_t_end_off_the_step_grid():
    for t_end in (1e-5, 1.5e-4, 0.10005):
        with pytest.raises(ValueError, match="t_end"):
            SmeConfig(k=1.0, h0=np.zeros((2, 2)), dt=1e-4, t_end=t_end)
    # rounding-level misses of a whole number of steps are on the grid
    for dt, t_end, steps in ((1e-4, 0.1, 1000), (1e-3, 0.3, 300), (0.04, 4.0, 100)):
        assert SmeConfig(k=1.0, h0=np.zeros((2, 2)), dt=dt, t_end=t_end).n_steps == steps


@pytest.mark.parametrize("field", ["k", "dephasing_beta", "dt", "t_end"])
def test_sme_config_refuses_non_finite_values(field):
    for value in (np.nan, np.inf):
        with pytest.raises(ValueError, match=field):
            SmeConfig(**{"k": 1.0, "h0": np.zeros((2, 2)), field: value})


def test_measurement_policy_validation():
    with pytest.raises(ValueError):
        MeasurementPolicy(mode="bogus")
    with pytest.raises(ValueError):
        MeasurementPolicy(mode="fixed_observable")
    with pytest.raises(ValueError):
        MeasurementPolicy(mode="relative_angle", theta=4.0)
    MeasurementPolicy(mode="fixed_observable", observable=SIGMA_Z)


def step_constants(q):
    """The run constant a _MatrixKernel passes _kraus_step, for Q as an
    (N, N, m) or (N, N, 1) stack: q_sq = Q^2."""
    return _matmul(q, q)


def sme_step(rho, q, k, h, dt, dw):
    # one step of the SME's Kraus map on a state lifted to an (N, N, 1)
    # stack, and its record dy = 4k<Q>dt + sqrt(2k)dW
    rho, q, h = (np.asarray(a, dtype=complex)[..., None] for a in (rho, q, h))
    new, exp_q = _kraus_step(rho, q, k, h, dt, dw, step_constants(q))
    return new[..., 0], 4.0 * k * exp_q[0] * dt + np.sqrt(2.0 * k) * dw


def bloch_kernel(m, rho0, observable, k, h0, beta, dt, mu=0.0, psi=None):
    """A _BlochKernel of width m from rho0, measuring a fixed observable, and
    with feedback toward psi when mu > 0."""
    cfg = EnsembleConfig(
        realizations=m, master_seed=None,
        sme=SmeConfig(k=k, h0=h0, dephasing_beta=beta, dt=dt, t_end=dt),
        policy=MeasurementPolicy(mode="fixed_observable", observable=observable),
        mu=mu, rho0=rho0, target_fn=None if psi is None else (lambda t: psi), stat_stride=1)
    return _BlochKernel(cfg, m)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_matmul_matches_numpy_on_trajectory_last_stacks(n):
    """_matmul multiplies (N, N, m) stacks, with the trajectory axis last, as
    np.matmul multiplies (m, N, N) stacks: at widths from one to thousands,
    and with a matrix, lifted to (N, N, 1), on either side."""
    rng = np.random.default_rng(n)

    def stack(m):
        return rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))

    for m in (1, 31, 32, 4000):
        a, b, matrix = stack(m), stack(m), stack(1)[0]
        pairs = [(matrix, b, matrix @ b), (a, matrix, a @ matrix), (a, b, a @ b)]
        for left, right, want in pairs:
            got = _matmul(*(x[..., None] if x.ndim == 2 else np.moveaxis(x, 0, -1)
                            for x in (left, right)))
            assert got.shape == (n, n, m)
            assert np.max(np.abs(np.moveaxis(got, -1, 0) - want)) <= 1e-14


@pytest.mark.parametrize("n", [2, 3, 4])
def test_kraus_step_writes_no_argument(n):
    """The step writes its temporaries in place, but never into what it is
    given: rho, Q, H and the cached q_sq keep every byte.  Checked from pure
    states at width one and on stacks of 2 and 31, with per-row and shared
    (N, N, 1) Q and H.  Qubits step on the Bloch kernel instead, which must
    leave its previous rows and the increments as they were."""
    rng = np.random.default_rng(40 + n)
    k, dt = 2.0, 1e-2

    def hermitian(shape):
        g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return (g + np.conj(np.swapaxes(g, 0, 1))) / 2

    for m in (1, 2, 31):
        shape = (n, n, m)
        psi = rng.standard_normal(shape[1:]) + 1j * rng.standard_normal(shape[1:])
        rho = psi[:, None] * np.conj(psi)[None, :]
        rho /= np.einsum("ii...->...", rho).real
        dw = rng.normal(0.0, np.sqrt(dt), m)
        if n == 2:
            bloch_writes_no_argument(hermitian, np.moveaxis(rho, -1, 0), k, dt, dw)
            continue
        for per_row in (True, False):
            q, h = (hermitian(shape if per_row else (n, n, 1)) for _ in range(2))
            given = (rho, q, h, step_constants(q), dw)
            before = [a.tobytes() for a in given]
            _kraus_step(rho, q, k, h, dt, dw, given[3])
            assert [a.tobytes() for a in given] == before


def bloch_writes_no_argument(hermitian, rho, k, dt, dw):
    """One Bloch-kernel step from the pure states rho (m, 2, 2), with
    z-dephasing and feedback: see test_kraus_step_writes_no_argument."""
    m, beta, mu, target = len(rho), 0.4, 10.0, np.array([1.0, 1j]) / np.sqrt(2.0)
    q, h0 = hermitian((2, 2)), hermitian((2, 2))
    batch = bloch_kernel(m, np.eye(2) / 2, q, k, h0, beta, dt, mu, target)
    r = np.array([2.0 * rho[:, 1, 0].real, 2.0 * rho[:, 1, 0].imag,
                  (rho[:, 0, 0] - rho[:, 1, 1]).real])
    batch.r = r[:, 0].tolist() if m == 1 else list(r.copy())
    given = [a for a in batch.r if isinstance(a, np.ndarray)] + [dw]
    before = [a.tobytes() for a in given]
    batch.step(batch.target(target), dw)
    assert [a.tobytes() for a in given] == before


def matrix_kernel(m, observable, k, h0, dt, mu=0.0, psi=None):
    """A _MatrixKernel of width m from I/N, measuring a fixed observable, and
    with feedback toward psi when mu > 0."""
    n = len(observable)
    cfg = EnsembleConfig(
        realizations=m, master_seed=None, sme=SmeConfig(k=k, h0=h0, dt=dt, t_end=dt),
        policy=MeasurementPolicy(mode="fixed_observable", observable=observable),
        mu=mu, rho0=np.eye(n, dtype=complex) / n,
        target_fn=None if psi is None else (lambda t: psi), stat_stride=1)
    return _MatrixKernel(cfg, m)


def test_wide_kraus_step_peaks_below_its_out_of_place_working_set():
    """One N = 4 step at width 4000, with H = 0 and the constants of its
    _MatrixKernel, peaks under tracemalloc at no more than 8.1 arrays the
    size of rho, the peak of the step when every temporary was a fresh
    array: working in place must not keep more temporaries alive at once.  Checked from I/N on a diagonal Q, which
    scales rows, and on the same Q rotated, which steps through _matmul."""
    n, m, k, dt = 4, 4000, 1.0, 1e-3
    diagonal = np.diag(np.linspace(1.0, -1.0, n))
    u = np.linalg.qr(np.random.default_rng(42).standard_normal((n, n)))[0]
    dw = np.random.default_rng(41).normal(0.0, np.sqrt(dt), m)
    rho = np.repeat((np.eye(n, dtype=complex) / n)[..., None], m, axis=2)
    for observable in (diagonal, u @ diagonal @ u.T):
        batch = matrix_kernel(m, observable, k, np.zeros((n, n)), dt)
        args = (rho, batch.q, k, batch.h0, dt, dw, batch.q_sq)
        _kraus_step(*args)
        tracemalloc.start()
        try:
            _kraus_step(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8.1 * rho.nbytes, (batch.q.ndim, peak / rho.nbytes)


@pytest.mark.parametrize("n", [3, 4])
def test_diagonal_operands_step_as_the_matmul_path(n):
    """A diagonal Q given by its diagonal, as a _MatrixKernel passes it,
    scales rows (sde._kraus_step).  The states and Tr[Q rho] equal
    (np.array_equal) those of the same step with Q given as a matrix, which
    runs _matmul.  Checked at widths 1, 2 and 31, on mixed states, with a
    shared diagonal H and with a full per-row H; neither step writes what it
    is given."""
    rng = np.random.default_rng(60 + n)
    k, dt = 2.0, 1e-2
    q = np.diag(rng.standard_normal(n)).astype(complex)[..., None]
    q_sq = _matmul(q, q)
    for m in (1, 2, 31):
        g = rng.standard_normal((n, n, m)) + 1j * rng.standard_normal((n, n, m))
        rho = np.einsum("ijm,kjm->ikm", g, g.conj())
        rho /= np.einsum("ii...->...", rho).real
        dw = rng.normal(0.0, np.sqrt(dt), m)
        shared = np.diag(rng.standard_normal(n)).astype(complex)[..., None]
        per_row = g + g.conj().swapaxes(0, 1)
        for h in (shared, per_row):
            given = (rho, _diagonal(q), h, _diagonal(q_sq))
            before = [a.tobytes() for a in given]
            want = _kraus_step(rho, q, k, h, dt, dw, q_sq)
            got = _kraus_step(rho, given[1], k, h, dt, dw, given[3])
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
            assert [a.tobytes() for a in given] == before


def test_sme_step_free_evolution():
    # k = 0: the general step is a pure Hamiltonian step, M = I - iH dt,
    # whatever Q and the noise, and the record reads 0
    rho = pure_density([1.0, 0.0])
    h, dt = 0.5 * SIGMA_X, 1e-4
    m_op = np.eye(2) - 1j * dt * h
    want = m_op @ rho @ m_op.conj().T
    want /= np.trace(want).real
    for q, dw in ((SIGMA_Z, 0.0), (0.6 * SIGMA_X + 0.8 * SIGMA_Y, 0.3)):
        new, dy = sme_step(rho, q, 0.0, h, dt, dw)
        assert dy == 0.0
        check_density_matrix(new)
        assert np.allclose(new, want, rtol=0, atol=1e-15)
    # one Euler step of precession under sx rotates z toward y
    assert new[0, 0].real < 1.0
    assert abs(new[0, 1].imag) > 0


def test_sme_step_eigenstate_is_fixed_point():
    # a Q eigenstate is invariant for any noise realization
    rho = pure_density([1.0, 0.0])
    for dw in (-0.3, 0.0, 0.02, 1.0):
        new, dy = sme_step(rho, SIGMA_Z, 1.0, np.zeros((2, 2)), 1e-3, dw)
        assert np.max(np.abs(new - rho)) < 1e-14
        # record carries the eigenvalue drift: dy = 4 k <Q> dt + sqrt(2k) dW
        assert dy == pytest.approx(4e-3 + np.sqrt(2.0) * dw)


def test_sme_step_matches_explicit_formula():
    # one step against the Kraus-map filter evaluated longhand, with the
    # measured channel L = sqrt(2k) Q and unread dephasing sqrt(2 beta) sz
    rho = pure_density(np.array([1.0, 1.0]) / np.sqrt(2.0))
    k, dt, dw = 2.0, 1e-5, 3e-3
    q, h = SIGMA_Z, 0.7 * SIGMA_X
    expected, dy_l = rouchon_ralph_step(rho, h, np.sqrt(2 * k) * q, [], dt, dw)
    new, dy = sme_step(rho, q, k, h, dt, dw)
    assert np.max(np.abs(new - expected)) < 1e-14
    assert dy == pytest.approx(4 * k * 0.0 * dt + np.sqrt(2 * k) * dw)
    # the record is the channel's record in the SME's units
    assert dy == pytest.approx(np.sqrt(2 * k) * dy_l)

    # z-dephasing is for qubits, which step on the Bloch kernel
    beta = 0.4
    rho = np.array([[0.7, 0.2 - 0.3j], [0.2 + 0.3j, 0.3]])
    q = SIGMA_X
    expected, dy_l = rouchon_ralph_step(
        rho, h, np.sqrt(2 * k) * q, [np.sqrt(2 * beta) * SIGMA_Z], dt, dw
    )
    batch = bloch_kernel(1, rho, q, k, h, beta, dt)
    batch.step(None, np.array([dw]))
    new, dy = batch.states()[0], batch.snapshot()[1]
    assert np.max(np.abs(new - expected)) < 1e-14
    assert dy == pytest.approx(np.sqrt(2 * k) * dy_l)


def test_nonselective_solve_dephasing_closed_form():
    rho0 = pure_density(np.array([1.0, 1.0]) / np.sqrt(2.0))
    beta = 0.4
    ts = [0.0, 0.5, 1.0, 2.0]
    sol = nonselective_solve(rho0, None, 0.0, np.zeros((2, 2)), beta, ts)
    for t, rho in zip(ts, sol):
        assert rho[0, 1].real == pytest.approx(0.5 * np.exp(-4 * beta * t), abs=1e-8)
        assert rho[0, 0].real == pytest.approx(0.5, abs=1e-9)


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


def random_density(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("n", [3, 4])
def test_nonselective_solve_unitary_closed_form(n):
    # k = 0, beta = 0: rho(t) = U rho0 U^+ with U = exp(-iHt) from eigh
    rng = np.random.default_rng(60 + n)
    rho0, H = random_density(rng, n), random_hermitian(rng, n)
    ts = [0.0, 0.3, 1.0, 4.0]
    energies, vecs = np.linalg.eigh(H)
    for t, rho in zip(ts, nonselective_solve(rho0, None, 0.0, H, 0.0, ts)):
        u = (vecs * np.exp(-1j * energies * t)) @ vecs.conj().T
        assert np.max(np.abs(rho - u @ rho0 @ u.conj().T)) < 1e-12


@pytest.mark.parametrize("n", [3, 4])
def test_nonselective_solve_diagonal_q_closed_form(n):
    # H = 0: a diagonal Q damps each coherence as exp(-k (q_i - q_j)^2 t)
    rng = np.random.default_rng(70 + n)
    rho0, q, k = random_density(rng, n), rng.uniform(-1.5, 1.5, n), 0.8
    ts = [0.0, 0.2, 1.0, 5.0]
    for t, rho in zip(ts, nonselective_solve(rho0, np.diag(q), k, np.zeros((n, n)), 0.0, ts)):
        exact = rho0 * np.exp(-k * (q[:, None] - q[None, :]) ** 2 * t)
        assert np.max(np.abs(rho - exact)) < 1e-12


def test_nonselective_solve_at_an_exceptional_point():
    # H = beta sx with sz dephasing beta: the Bloch components (y, z) obey
    # d/dt (y, z) = (-4 beta y - 2 beta z, 2 beta y), a critically damped
    # pair whose generator is a Jordan block at -2 beta (defective, so no
    # eigendecomposition exponentiates it); x decays as exp(-4 beta t)
    beta, (x0, y0, z0) = 0.4, (0.3, 0.5, -0.6)
    rho0 = (np.eye(2) + x0 * SIGMA_X + y0 * SIGMA_Y + z0 * SIGMA_Z) / 2
    ts = [0.0, 0.5, 1.0, 2.5, 10.0]
    for t, rho in zip(ts, nonselective_solve(rho0, None, 0.0, beta * SIGMA_X, beta, ts)):
        a, decay = 2 * beta * t, np.exp(-2 * beta * t)
        x, y, z = x0 * decay ** 2, decay * ((1 - a) * y0 - a * z0), decay * (a * y0 + (1 + a) * z0)
        exact = (np.eye(2) + x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z) / 2
        assert np.max(np.abs(rho - exact)) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_nonselective_solve_is_unital_hermitian_and_trace_preserving(n):
    rng = np.random.default_rng(80 + n)
    H, Q = random_hermitian(rng, n), random_hermitian(rng, n)
    beta = 0.3 if n == 2 else 0.0
    ts = [0.0, 0.1, 1.0, 7.0]
    fixed = nonselective_solve(np.eye(n) / n, Q, 1.3, H, beta, ts)
    assert np.max(np.abs(fixed - np.eye(n) / n)) < 1e-13
    for rho in np.concatenate([fixed, nonselective_solve(random_density(rng, n), Q, 1.3, H, beta, ts)]):
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-13
        assert abs(np.trace(rho) - 1.0) < 1e-13


def test_nonselective_solve_matches_an_adaptive_solver():
    """The exact propagator against scipy's solve_ivp at rtol 1e-10, on the
    cases the ensemble tests compare with and on random N = 3 and 4 cases."""
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    rng = np.random.default_rng(90)
    plus, up = pure_density(np.array([1.0, 1.0]) / np.sqrt(2.0)), np.diag([1.0, 0.0])
    cases = [(plus, None, 0.0, np.zeros((2, 2)), 0.4, [0.0, 0.5, 1.0, 2.0]),
             (up, SIGMA_Z, 1.0, 0.5 * SIGMA_X, 0.2, [0.25]),
             (up, SIGMA_Z, 1.0, 0.5 * SIGMA_X, 0.0, [0.1, 0.25, 0.5, 1.0]),
             (up, SIGMA_Z, 0.25, 0.5 * SIGMA_X, 0.0, [0.5, 2.0])]
    for n in (3, 4):
        cases.append((random_density(rng, n), random_hermitian(rng, n), 0.7,
                      random_hermitian(rng, n), 0.0, [0.02, 0.05, 0.1, 1.0]))
    for rho0, Q, k, H, beta, ts in cases:
        n = len(rho0)

        def rhs(_t, y):
            rho = y.reshape(n, n)
            out = -1j * (H @ rho - rho @ H)
            for c, a in ((k, Q), (beta, SIGMA_Z)):
                if c > 0:
                    comm = a @ rho - rho @ a
                    out -= c * (a @ comm - comm @ a)
            return out.ravel()

        sol = solve_ivp(rhs, (0.0, ts[-1]), rho0.ravel().astype(complex), t_eval=ts,
                        rtol=1e-10, atol=1e-12)
        ref = sol.y.T.reshape(-1, n, n)
        assert np.max(np.abs(nonselective_solve(rho0, Q, k, H, beta, ts) - ref)) < 1e-10


@pytest.mark.parametrize("t_eval, message", [
    ([0.5, -0.1], "t_eval must be non-negative and finite, got -0.1"),
    ([np.nan], "t_eval must be non-negative and finite, got nan"),
    ([1.0, np.inf], "t_eval must be non-negative and finite, got inf"),
    ([], "t_eval is empty"),
], ids=["negative", "nan", "inf", "empty"])
def test_nonselective_solve_refuses_bad_times(t_eval, message):
    with pytest.raises(ValueError, match=message):
        nonselective_solve(np.eye(2) / 2, SIGMA_Z, 1.0, SIGMA_X, 0.0, t_eval)


@pytest.mark.parametrize("k, beta, H, Q, rho0, message", [
    (np.nan, 0.0, SIGMA_X, SIGMA_Z, np.eye(2) / 2, "k must be non-negative and finite, got nan"),
    (-1.0, 0.0, SIGMA_X, SIGMA_Z, np.eye(2) / 2, "k must be non-negative and finite, got -1.0"),
    (1.0, np.nan, SIGMA_X, SIGMA_Z, np.eye(2) / 2, "beta must be non-negative and finite, got nan"),
    (1.0, -0.5, SIGMA_X, SIGMA_Z, np.eye(2) / 2, "beta must be non-negative and finite, got -0.5"),
    (1.0, 0.2, np.eye(3), np.eye(3), np.eye(3) / 3, "beta > 0 .* needs N = 2, got N = 3"),
    (1.0, 0.0, SIGMA_X + 1j * SIGMA_Z, SIGMA_Z, np.eye(2) / 2, "H: matrix is not Hermitian"),
    (1.0, 0.0, SIGMA_X, np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2) / 2,
     "Q: matrix is not Hermitian"),
    (1.0, 0.0, np.array([[np.inf, 0.0], [0.0, 0.0]]), SIGMA_Z, np.eye(2) / 2,
     "H: matrix has non-finite entries"),
    (1.0, 0.0, np.array([[np.nan, 0.0], [0.0, 0.0]]), SIGMA_Z, np.eye(2) / 2,
     "H: matrix has non-finite entries"),
    (1.0, 0.0, np.eye(3), SIGMA_Z, np.eye(2) / 2, r"H has shape \(3, 3\), rho0 \(2, 2\)"),
    (1.0, 0.0, SIGMA_X, np.eye(3), np.eye(2) / 2, r"Q has shape \(3, 3\), rho0 \(2, 2\)"),
], ids=["k-nan", "k-negative", "beta-nan", "beta-negative", "beta-qutrit", "H-non-hermitian",
        "Q-non-hermitian", "H-inf", "H-nan", "H-shape", "Q-shape"])
def test_nonselective_solve_refuses_bad_rates_and_operators(k, beta, H, Q, rho0, message):
    # each refusal names the argument; none of these was refused before
    with pytest.raises(ValueError, match=message):
        nonselective_solve(rho0, Q, k, H, beta, [0.0, 1.0])


NOT_HERMITIAN = np.array([[0.0, 1.0], [0.0, 0.0]])


@pytest.mark.parametrize("build, name", [
    (lambda: SmeConfig(k=1.0, h0=NOT_HERMITIAN, dt=1e-3, t_end=0.1), "h0"),
    (lambda: MeasurementPolicy(mode="fixed_observable", observable=NOT_HERMITIAN), "observable"),
    (lambda: nonselective_solve(NOT_HERMITIAN, SIGMA_Z, 1.0, SIGMA_X, 0.0, [0.0]), "rho0"),
], ids=["h0", "observable", "rho0"])
def test_non_hermitian_arguments_are_refused_by_name(build, name):
    with pytest.raises(ValueError, match=f"^{name}: matrix is not Hermitian"):
        build()


def test_nonselective_solve_takes_times_in_any_order():
    # each time is computed from 0, so an unsorted t_eval gives the same bits
    args = (pure_density(np.array([1.0, 1.0]) / np.sqrt(2.0)), SIGMA_Z, 1.0, 0.5 * SIGMA_X, 0.2)
    forward = nonselective_solve(*args, [0.25, 0.5, 1.0])
    assert np.array_equal(nonselective_solve(*args, [1.0, 0.25, 0.5]), forward[[2, 0, 1]])


def test_measurement_and_dephasing_average_consistency():
    # conditioned trajectories average to the outcome-averaged solution
    rng = np.random.default_rng(40)
    cfg = SmeConfig(k=1.0, h0=0.5 * SIGMA_X, dephasing_beta=0.2, dt=1e-3, t_end=0.25)
    policy = MeasurementPolicy(mode="fixed_observable", observable=SIGMA_Z)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    n_traj = 400
    finals = np.empty((n_traj, 2, 2), dtype=complex)
    for i in range(n_traj):
        finals[i] = run_control_trajectory(cfg, policy, rho0, None, 0.0, rng).states[-1]
    ref = nonselective_solve(rho0, SIGMA_Z, 1.0, 0.5 * SIGMA_X, 0.2, [0.25])[0]
    mean = finals.mean(axis=0)
    se = finals.std(axis=0, ddof=1) / np.sqrt(n_traj)
    assert np.all(np.abs(mean - ref) <= 3 * np.maximum(np.abs(se), 1e-12) + 1e-3)


def test_record_mean_tracks_expectation():
    # E[dy] = 4 k <Q> dt; start in an eigenstate so <Q> stays 1
    rng = np.random.default_rng(41)
    cfg = SmeConfig(k=1.0, h0=np.zeros((2, 2)), dt=1e-3, t_end=1.0)
    policy = MeasurementPolicy(mode="fixed_observable", observable=SIGMA_Z)
    res = run_control_trajectory(
        cfg, policy, pure_density([1.0, 0.0]), None, 0.0, rng
    )
    n = res.records.size
    mean = res.records.mean()
    expected = 4.0 * 1.0 * 1.0 * cfg.dt
    sigma = np.sqrt(2.0 * cfg.dt / n)  # sd of the mean of sqrt(2k) dW terms
    assert abs(mean - expected) < 4 * sigma


def overlaps(res, psi_target_fn):
    """<psi_target(t)|rho(t)|psi_target(t)> at every kept time of a trajectory."""
    return np.array([overlap(s, psi_target_fn(t)) for t, s in zip(res.times, res.states)])


def test_trajectory_reproducibility():
    cfg = SmeConfig(k=2.0, h0=np.pi * SIGMA_Z, dephasing_beta=0.4, dt=1e-3, t_end=0.1)
    policy = MeasurementPolicy(mode="relative_angle", theta=np.pi / 4)
    rho0 = pure_density(np.array([1.0, 1.0]) / np.sqrt(2.0))
    target = lambda t: np.array([np.exp(-1j * np.pi * t), np.exp(1j * np.pi * t)]) / np.sqrt(2.0)
    a = run_control_trajectory(cfg, policy, rho0, target, 10.0, np.random.default_rng(9))
    b = run_control_trajectory(cfg, policy, rho0, target, 10.0, np.random.default_rng(9))
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.records, b.records)
    assert np.array_equal(a.fb_hamiltonians, b.fb_hamiltonians)
    # purities and overlaps stay physical
    purities = purity(a.states)
    assert np.all(purities <= 1 + 1e-9) and np.all(purities >= 0.5 - 1e-9)
    ovl = overlaps(a, target)
    assert np.all((ovl >= -1e-9) & (ovl <= 1 + 1e-9))


def test_trajectory_keeps_every_step():
    # the state at t = 0 and after each of the 200 steps, with the record and
    # feedback of each step; there is no thinning argument (slice with [::n])
    cfg = SmeConfig(k=2.0, h0=np.pi * SIGMA_Z, dephasing_beta=0.4, dt=1e-4, t_end=0.02)
    policy = MeasurementPolicy(mode="relative_angle", theta=np.pi / 4)
    rho0 = pure_density(np.array([1.0, 1.0]) / np.sqrt(2.0))
    target = lambda t: np.array([np.exp(-1j * np.pi * t), np.exp(1j * np.pi * t)]) / np.sqrt(2.0)
    res = run_control_trajectory(cfg, policy, rho0, target, 10.0, np.random.default_rng(3))
    assert cfg.n_steps == 200
    assert np.array_equal(res.times, np.arange(201) * cfg.dt)
    assert res.states.shape == (201, 2, 2) and np.allclose(res.states[0], rho0, rtol=0, atol=1e-15)
    assert res.records.shape == (200,) and res.fb_hamiltonians.shape == (200, 2, 2)
    with pytest.raises(TypeError, match="store_every"):
        run_control_trajectory(cfg, policy, rho0, target, 10.0, np.random.default_rng(3),
                               store_every=7)


def relative_axis(r, theta, phi, angles, as_array):
    """_relative_axis for Bloch vectors r, shape (3, m), and previous angles,
    shape (2, m): on (m,) arrays, or column by column on Python floats.
    Returns the axes and angles, shapes (3, m) and (2, m)."""
    local = _local_axis(theta, phi)
    norm = np.sqrt(np.sum(r * r, axis=0))
    if as_array:
        return tuple(np.array(out) for out in _relative_axis(r, norm, local, angles))
    columns = [_relative_axis(r[:, j].tolist(), norm[j].item(), local, angles[:, j].tolist())
               for j in range(r.shape[1])]
    return tuple(np.array([[float(c) for c in col[i]] for col in columns]).T for i in (0, 1))


def unit_columns(r):
    return r / np.sqrt(np.sum(r * r, axis=0))


@pytest.mark.parametrize("as_array", [False, True], ids=["floats", "arrays"])
def test_relative_axis_conventions(as_array):
    # the measured axis, on floats and on arrays, for states of every length
    rng = np.random.default_rng(4)
    u = rng.standard_normal((3, 40))
    u[:, :4] = [[0.0, 0.0, 1.0, 1e-4], [0.0, 0.0, 0.0, 0.0], [1.0, -1.0, 0.0, 1.0]]
    u = unit_columns(u)  # e_z, -e_z, +x, near e_z, and random directions
    r = u * rng.uniform(0.01, 1.0, 40)
    for phi in (0.0, 0.3, 4.0):
        # angle 0 from the state's direction is that direction itself
        axis, _ = relative_axis(r, 0.0, phi, np.zeros((2, 40)), as_array)
        assert np.max(np.abs(axis - u)) < 1e-12
        # angle pi/2 is a unit vector perpendicular to it
        axis, _ = relative_axis(r, np.pi / 2, phi, np.zeros((2, 40)), as_array)
        assert np.max(np.abs(np.sum(axis * axis, axis=0) - 1.0)) < 1e-12
        assert np.max(np.abs(np.sum(axis * u, axis=0))) < 1e-12


@pytest.mark.parametrize("as_array", [False, True], ids=["floats", "arrays"])
def test_relative_axis_keeps_the_previous_frame_below_the_tolerance(as_array):
    # every other state is shorter than BASIS_DEGEN_TOL: it keeps the angles
    # (and so the axis) of the state before it; the rest take their own
    rng = np.random.default_rng(5)
    before = unit_columns(rng.standard_normal((3, 10))) * 0.6
    after = unit_columns(rng.standard_normal((3, 10))) * 0.8
    short = np.arange(10) % 2 == 0
    after[:, short] *= 0.5 * BASIS_DEGEN_TOL / 0.8
    after[:, 0] = 0.0  # the maximally mixed state
    for theta, phi in ((0.0, 0.0), (np.pi / 4, 0.3), (np.pi / 2, 5.0)):
        axis, angles = relative_axis(before, theta, phi, np.zeros((2, 10)), as_array)
        kept_axis, kept_angles = relative_axis(after, theta, phi, angles, as_array)
        assert np.array_equal(kept_axis[:, short], axis[:, short])
        assert np.array_equal(kept_angles[:, short], angles[:, short])
        own_axis, own_angles = relative_axis(after, theta, phi, np.zeros((2, 10)), as_array)
        assert np.array_equal(kept_axis[:, ~short], own_axis[:, ~short])
        assert np.array_equal(kept_angles[:, ~short], own_angles[:, ~short])
        assert not np.allclose(axis[:, ~short], own_axis[:, ~short])
    # with no previous state the frame is the lab frame: the axis is the policy's own
    axis, _ = relative_axis(np.zeros((3, 2)), np.pi / 4, 0.3, np.zeros((2, 2)), as_array)
    assert np.array_equal(axis, np.repeat(np.array(_local_axis(np.pi / 4, 0.3))[:, None], 2, 1))


def test_relative_axis_gives_the_same_bits_on_floats_and_arrays():
    """One function serves a width-one kernel's Python floats and a wide
    batch's arrays, with the same bits: random states of every length, states
    shorter than BASIS_DEGEN_TOL that keep their previous angles, and states
    on the z axis, at Theta = 0 and pi."""
    rng = np.random.default_rng(6)
    r = unit_columns(rng.standard_normal((3, 300))) * rng.uniform(0.0, 1.0, 300)
    r[:, :20] *= BASIS_DEGEN_TOL
    r[:, 20:220] = [[0.0], [0.0], [1.0]] * rng.uniform(-1.0, 1.0, 200)
    angles = rng.uniform(0.0, np.pi, (2, 300))
    for theta, phi in ((0.0, 0.0), (np.pi / 4, 0.3), (np.pi / 2, 5.0), (np.pi, 1.0)):
        floats = relative_axis(r, theta, phi, angles, as_array=False)
        arrays = relative_axis(r, theta, phi, angles, as_array=True)
        for got, want in zip(floats, arrays):
            assert got.tobytes() == want.tobytes()


def test_closed_loop_holds_pure_target():
    # noiseless, start at the precessing target: feedback keeps overlap at 1
    omega = np.pi
    cfg = SmeConfig(k=0.0, h0=omega * SIGMA_Z, dt=1e-3, t_end=0.5)
    policy = MeasurementPolicy(mode="fixed_observable", observable=SIGMA_Z)
    target = lambda t: np.array(
        [np.exp(-1j * omega * t), np.exp(1j * omega * t)]
    ) / np.sqrt(2.0)
    res = run_control_trajectory(
        cfg,
        policy,
        pure_density(target(0.0)),
        target,
        1.0,
        np.random.default_rng(0),
    )
    ovl = overlaps(res, target)
    assert np.all(ovl > 1 - 1e-5)


def test_inverse_zeno_closed_form_probabilities():
    psi0 = np.array([1.0, 0.0])
    psi1 = np.array([0.0, 1.0])
    # M = 1 on orthogonal states can never succeed
    successes = sum(
        inverse_zeno_successes(psi0, psi1, 1, 1, np.random.default_rng(s)) for s in range(200)
    )
    assert successes == 0
    # empirical success rates match cos(pi / 2M)^(2M)
    for m, runs in ((2, 4000), (10, 4000)):
        hits = inverse_zeno_successes(psi0, psi1, m, runs, np.random.default_rng(m))
        p = float(np.cos(np.pi / (2 * m)) ** (2 * m))
        sigma = np.sqrt(p * (1 - p) / runs)
        assert abs(hits / runs - p) < 4 * sigma


def test_inverse_zeno_success_reaches_target():
    # the plane is orthonormal, and M advances of eps carry the start onto
    # the target, up to a phase
    rng = np.random.default_rng(3)
    g = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    for psi0, psi1 in (([1.0, 0.0], np.array([1.0, 1.0]) / np.sqrt(2.0)),
                       ([1.0, 0.0], [0.0, 1.0]),
                       tuple(v / np.linalg.norm(v) for v in g)):
        for m in (1, 10, 50):
            f0, f1, eps = _drag_plane(psi0, psi1, m)
            assert abs(np.vdot(f0, f1)) < 1e-12
            assert max(abs(np.linalg.norm(f) - 1.0) for f in (f0, f1)) < 1e-12
            state = np.cos(m * eps) * f0 + np.sin(m * eps) * f1
            assert trace_distance(pure_density(state), pure_density(psi1)) < 1e-10
    # coincident states need no measurement: every run succeeds, with no draw
    psi0 = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    assert _drag_plane(psi0, psi0, 5) is None
    state = rng.bit_generator.state
    assert inverse_zeno_successes(psi0, psi0, 5, 7, rng) == 7
    assert rng.bit_generator.state == state


ZENO_PAIRS = {
    "orthogonal": (np.array([1.0, 0.0]), np.array([0.0, 1.0])),
    "45 degrees": (np.array([1.0, 0.0]), np.array([1.0, 1.0j]) / np.sqrt(2.0)),
    "coincident": (np.array([1.0, 1.0]) / np.sqrt(2.0), np.array([1.0, 1.0]) / np.sqrt(2.0)),
}


def single_run_successes(psi_start, psi_target, m, runs, rng):
    """Successes in `runs` dragging runs, one measurement at a time: each
    draws one rng.random() and succeeds below p = cos^2(eps), and a run ends
    at its first failure."""
    plane = _drag_plane(psi_start, psi_target, m)
    if plane is None:
        return runs
    p = np.cos(plane[2]) ** 2
    return sum(all(rng.random() < p for _ in range(m)) for _ in range(runs))


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.Philox])
@pytest.mark.parametrize("pair", sorted(ZENO_PAIRS))
def test_inverse_zeno_successes_draws_what_single_runs_draw(bit_generator, pair):
    psi0, psi1 = ZENO_PAIRS[pair]
    for m in (1, 2, 10, 50):
        for runs in (1, 7, 1000):
            seed = 1000 * m + runs
            single = np.random.Generator(bit_generator(seed))
            batch = np.random.Generator(bit_generator(seed))
            expected = single_run_successes(psi0, psi1, m, runs, single)
            assert inverse_zeno_successes(psi0, psi1, m, runs, batch) == expected
            # the same uniforms were consumed, so the next draw agrees
            assert batch.random() == single.random()


def test_inverse_zeno_successes_rejects_empty_counts():
    psi0, psi1 = ZENO_PAIRS["orthogonal"]
    rng = np.random.default_rng(0)
    for m, runs in ((0, 10), (-1, 10), (5, 0), (5, -3)):
        with pytest.raises(ValueError):
            inverse_zeno_successes(psi0, psi1, m, runs, rng)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 2.5, True])
def test_dragging_refuses_counts_that_are_not_whole_numbers(value):
    # nan runs returned 0 without a draw, True ran as 1, and 2.5 failed inside
    # range or rng.random; each is now refused by name, before any draw
    psi0, psi1 = ZENO_PAIRS["orthogonal"]
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    for call, name in ((lambda: inverse_zeno_successes(psi0, psi1, value, 10, rng),
                        "n_measurements"),
                       (lambda: inverse_zeno_successes(psi0, psi1, 2, value, rng), "runs")):
        with pytest.raises(ValueError, match=f"^{name} must be a whole number"):
            call()
    assert rng.bit_generator.state == state
    # a numpy integer counts
    count = np.int64(2)
    assert 0 <= inverse_zeno_successes(psi0, psi1, count, count, rng) <= 2


def test_dragging_refuses_states_of_different_dimension():
    # np.vdot raised an unnamed reshape error from inside _drag_plane; the
    # shapes are refused by name, before any draw
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    message = re.escape("psi_target has shape (3,), psi_start (2,)")
    with pytest.raises(ValueError, match=message):
        inverse_zeno_successes([1, 0], [0, 1, 0], 2, 3, rng)
    assert rng.bit_generator.state == state


def old_zeno_branch(psi_start, psi_target, m):
    """The dragging branch built state by state, the construction the closed
    form replaces: the frame (f0, f1), the M + 1 branch states b_i =
    cos(i eps) f0 + sin(i eps) f1 and the state each failure leaves, b_{i-1}
    with its b_i part removed."""
    c = np.vdot(psi_start, psi_target)
    residual = psi_target - c * psi_start
    f1 = residual / np.linalg.norm(residual)
    f0 = (c / abs(c) if abs(c) > 1e-15 else 1.0) * psi_start
    eps = np.arccos(np.clip(abs(c), 0.0, 1.0)) / m
    branch = np.array([np.cos(i * eps) * f0 + np.sin(i * eps) * f1 for i in range(m + 1)])
    failed = [b0 - np.vdot(b1, b0) * b1 for b0, b1 in zip(branch[:-1], branch[1:])]
    return f0, f1, eps, branch, failed


def test_dragging_closed_form_matches_the_branch_it_replaces():
    """Every overlap |<b_i|b_{i-1}>|^2 of the branch built state by state is
    cos^2(gamma / M), and every failure state lies in span(f0, f1),
    orthogonal to b_i: one p and one closed-form failure state describe the
    whole run (inverse_zeno_successes)."""
    rng = np.random.default_rng(34)
    pairs = dict(ZENO_PAIRS)
    del pairs["coincident"]
    g = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    pairs["random N = 3"] = tuple(v / np.linalg.norm(v) for v in g)
    for psi0, psi1 in pairs.values():
        for m in (1, 2, 10, 50):
            f0, f1, eps, branch, failed = old_zeno_branch(psi0, psi1, m)
            plane = _drag_plane(psi0, psi1, m)
            assert all(np.array_equal(a, b) for a, b in zip(plane, (f0, f1, eps)))
            p = np.cos(eps) ** 2
            for i in range(1, m + 1):
                assert abs(abs(np.vdot(branch[i], branch[i - 1])) ** 2 - p) <= 1e-15
                state = failed[i - 1] / np.linalg.norm(failed[i - 1])
                in_plane = np.vdot(f0, state) * f0 + np.vdot(f1, state) * f1
                assert np.max(np.abs(state - in_plane)) < 1e-12
                assert abs(np.vdot(branch[i], state)) < 1e-12
                # the closed form's failure state, up to a global phase
                closed = -np.sin(i * eps) * f0 + np.cos(i * eps) * f1
                assert abs(abs(np.vdot(closed, state)) - 1.0) < 1e-12
