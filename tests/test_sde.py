import numpy as np
import pytest

from qmfc.sde import (
    MeasurementPolicy,
    SmeConfig,
    StepRejected,
    _default_reject_tol,
    _kraus_step,
    _matmul,
    inverse_zeno_run,
    inverse_zeno_successes,
    nonselective_solve,
    qubit_eigenbasis,
    relative_observable,
    run_control_trajectory,
)
from qmfc.states import (
    SIGMA_X,
    SIGMA_Z,
    check_density_matrix,
    overlap,
    pure_density,
    trace_distance,
)


def test_sme_config_validation():
    with pytest.raises(ValueError):
        SmeConfig(k=-1.0, h0=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        SmeConfig(k=1.0, h0=np.zeros((2, 2)), dt=0.0)
    with pytest.raises(ValueError):
        SmeConfig(k=1.0, h0=np.zeros((2, 2)), t_end=-1.0)
    with pytest.warns(UserWarning):
        SmeConfig(k=100.0, h0=np.zeros((2, 2)), dt=1e-3)
    cfg = SmeConfig(k=1.0, h0=np.zeros((2, 2)), dt=1e-3, t_end=0.5)
    assert cfg.n_steps == 500


def test_measurement_policy_validation():
    with pytest.raises(ValueError):
        MeasurementPolicy(mode="bogus")
    with pytest.raises(ValueError):
        MeasurementPolicy(mode="fixed_observable")
    with pytest.raises(ValueError):
        MeasurementPolicy(mode="relative_angle", theta=4.0)
    MeasurementPolicy(mode="fixed_observable", observable=SIGMA_Z)


def sme_step(rho, q, k, h, dt, dw, beta=0.0):
    # one step of the SME's Kraus map and its record dy = 4k<Q>dt + sqrt(2k)dW
    new, exp_q, _ = _kraus_step(rho, q, k, h, dt, dw, beta=beta)
    return new, 4.0 * k * exp_q * dt + np.sqrt(2.0 * k) * dw


@pytest.mark.parametrize("n", [2, 3, 4])
def test_matmul_matches_numpy_on_trajectory_last_stacks(n):
    """_matmul multiplies (N, N, m) stacks, with the trajectory axis last, as
    np.matmul multiplies (m, N, N) stacks: on both sides of its method switch
    at 32 matrices, and with a matrix (N, N) on either side."""
    rng = np.random.default_rng(n)

    def stack(m):
        return rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))

    for m in (1, 31, 32, 4000):
        a, b, matrix = stack(m), stack(m), stack(1)[0]
        pairs = [(matrix, b, matrix @ b), (a, matrix, a @ matrix), (a, b, a @ b)]
        for left, right, want in pairs:
            got = _matmul(*(x if x.ndim == 2 else np.moveaxis(x, 0, -1) for x in (left, right)))
            assert got.shape == (n, n, m)
            assert np.max(np.abs(np.moveaxis(got, -1, 0) - want)) <= 1e-14


def test_sme_step_free_evolution():
    # k = 0: a pure Hamiltonian step, <Q> reads 0 and so does the record
    rho = pure_density([1.0, 0.0])
    new, dy = sme_step(rho, None, 0.0, 0.5 * SIGMA_X, 1e-4, 0.0)
    assert dy == 0.0
    check_density_matrix(new)
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


def rouchon_ralph_step(rho, h, measured, unread, dt, dw):
    # Kraus-map filter of Rouchon & Ralph, PRA 91, 012118 (2015), for one
    # measured channel L at unit efficiency and unread channels D_j:
    #   dy_L = Tr[(L + L^+) rho] dt + dW
    #   M    = I + (-iH - 1/2 sum_all L^+ L) dt + L dy_L + 1/2 L^2 (dy_L^2 - dt)
    #   rho' = (M rho M^+ + sum_j D_j rho D_j^+ dt) / Tr[...]
    lind = measured.conj().T @ measured + sum(d.conj().T @ d for d in unread)
    dy_l = np.trace((measured + measured.conj().T) @ rho).real * dt + dw
    m = (
        np.eye(rho.shape[0])
        + (-1j * h - 0.5 * lind) * dt
        + measured * dy_l
        + 0.5 * (measured @ measured) * (dy_l ** 2 - dt)
    )
    out = m @ rho @ m.conj().T + sum(d @ rho @ d.conj().T for d in unread) * dt
    return out / np.trace(out).real, dy_l


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

    beta = 0.4
    rho = np.array([[0.7, 0.2 - 0.3j], [0.2 + 0.3j, 0.3]])
    q = SIGMA_X
    expected, dy_l = rouchon_ralph_step(
        rho, h, np.sqrt(2 * k) * q, [np.sqrt(2 * beta) * SIGMA_Z], dt, dw
    )
    new, dy = sme_step(rho, q, k, h, dt, dw, beta=beta)
    assert np.max(np.abs(new - expected)) < 1e-14
    assert dy == pytest.approx(np.sqrt(2 * k) * dy_l)


def test_sme_step_rejects_blowup():
    # a huge noise increment on a non-eigenstate state leaves the manifold:
    # the first-order state lies past the rejection threshold
    rho = pure_density(np.array([1.0, 1.0]) / np.sqrt(2.0))
    _, _, euler_min = _kraus_step(rho, SIGMA_Z, 1.0, np.zeros((2, 2)), 0.5, 5.0)
    assert euler_min < -_default_reject_tol(1.0, 0.0, 0.5)
    # and a trajectory that meets such a step stops with StepRejected: a
    # transverse measurement keeps the state off Q's eigenstates, and at
    # this dt a noise draw beyond about 2.3 sigma rejects the step (seed 3
    # draws one at the second step)
    cfg = SmeConfig(k=2.0, h0=np.zeros((2, 2)), dt=0.0125, t_end=0.25)
    policy = MeasurementPolicy(mode="relative_angle", theta=np.pi / 2)
    with pytest.raises(StepRejected, match="at step 1:"):
        run_control_trajectory(cfg, policy, rho, None, 0.0, np.random.default_rng(3))


def test_nonselective_solve_dephasing_closed_form():
    rho0 = pure_density(np.array([1.0, 1.0]) / np.sqrt(2.0))
    beta = 0.4
    ts = [0.0, 0.5, 1.0, 2.0]
    sol = nonselective_solve(rho0, None, 0.0, np.zeros((2, 2)), beta, ts)
    for t, rho in zip(ts, sol):
        assert rho[0, 1].real == pytest.approx(0.5 * np.exp(-4 * beta * t), abs=1e-8)
        assert rho[0, 0].real == pytest.approx(0.5, abs=1e-9)


def test_measurement_and_dephasing_average_consistency():
    # conditioned trajectories average to the outcome-averaged solution
    rng = np.random.default_rng(40)
    cfg = SmeConfig(k=1.0, h0=0.5 * SIGMA_X, dephasing_beta=0.2, dt=1e-3, t_end=0.25)
    policy = MeasurementPolicy(mode="fixed_observable", observable=SIGMA_Z)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    n_traj = 400
    finals = np.empty((n_traj, 2, 2), dtype=complex)
    for i in range(n_traj):
        res = run_control_trajectory(cfg, policy, rho0, None, 0.0, rng, store_every=250)
        finals[i] = res.states[-1]
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
    assert np.all(a.purities <= 1 + 1e-9) and np.all(a.purities >= 0.5 - 1e-9)
    ovl = a.overlaps(target)
    assert np.all((ovl >= -1e-9) & (ovl <= 1 + 1e-9))


def test_store_every_keeps_every_nth_step():
    # 7 does not divide the 200 steps, so the last 4 steps run unstored
    cfg = SmeConfig(k=2.0, h0=np.pi * SIGMA_Z, dephasing_beta=0.4, dt=1e-4, t_end=0.02)
    policy = MeasurementPolicy(mode="relative_angle", theta=np.pi / 4)
    rho0 = pure_density(np.array([1.0, 1.0]) / np.sqrt(2.0))
    target = lambda t: np.array([np.exp(-1j * np.pi * t), np.exp(1j * np.pi * t)]) / np.sqrt(2.0)
    full = run_control_trajectory(cfg, policy, rho0, target, 10.0, np.random.default_rng(3))
    every7 = run_control_trajectory(cfg, policy, rho0, target, 10.0, np.random.default_rng(3),
                                    store_every=7)
    assert cfg.n_steps == 200 and len(every7.times) == 29
    assert np.array_equal(every7.times, full.times[::7])
    assert np.array_equal(every7.states, full.states[::7])
    # records and feedback belong to the step that ended at each stored time
    assert np.array_equal(every7.records, full.records[6::7])
    assert np.array_equal(every7.fb_hamiltonians, full.fb_hamiltonians[6::7])
    for store_every in (0, -1):
        with pytest.raises(ValueError):
            run_control_trajectory(cfg, policy, rho0, target, 10.0, np.random.default_rng(3),
                                   store_every=store_every)


def test_qubit_eigenbasis_conventions():
    # diagonal state: computational basis
    basis = qubit_eigenbasis(np.diag([0.9, 0.1]).astype(complex))
    assert np.allclose(basis, np.eye(2))
    # |+x>: top eigenvector along +x
    basis = qubit_eigenbasis(pure_density(np.array([1.0, 1.0]) / np.sqrt(2.0)))
    assert np.allclose(np.abs(basis[:, 0]), [1, 1] / np.sqrt(2.0))
    # degenerate state reuses the previous basis
    prev = qubit_eigenbasis(pure_density([1.0, 0.0]))
    basis = qubit_eigenbasis(np.eye(2, dtype=complex) / 2, prev=prev)
    assert basis is prev


def test_relative_observable():
    # angle 0 from the computational basis is sigma_z itself
    q = relative_observable(np.eye(2, dtype=complex), 0.0)
    assert np.allclose(q, SIGMA_Z)
    # angle pi/2 is a transverse spin with eigenvalues +-1
    q = relative_observable(np.eye(2, dtype=complex), np.pi / 2)
    assert np.allclose(np.sort(np.linalg.eigvalsh(q)), [-1.0, 1.0])
    assert abs(np.trace(q @ SIGMA_Z).real) < 1e-12


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
        store_every=50,
    )
    ovl = res.overlaps(target)
    assert np.all(ovl > 1 - 1e-5)


def test_inverse_zeno_closed_form_probabilities():
    psi0 = np.array([1.0, 0.0])
    psi1 = np.array([0.0, 1.0])
    # M = 1 on orthogonal states can never succeed
    successes = sum(
        inverse_zeno_run(psi0, psi1, 1, np.random.default_rng(s))[0] for s in range(200)
    )
    assert successes == 0
    # empirical success rates match cos(pi / 2M)^(2M)
    for m, runs in ((2, 4000), (10, 4000)):
        rng = np.random.default_rng(m)
        hits = sum(inverse_zeno_run(psi0, psi1, m, rng)[0] for _ in range(runs))
        p = float(np.cos(np.pi / (2 * m)) ** (2 * m))
        sigma = np.sqrt(p * (1 - p) / runs)
        assert abs(hits / runs - p) < 4 * sigma


def test_inverse_zeno_success_reaches_target():
    psi0 = np.array([1.0, 0.0])
    psi1 = np.array([1.0, 1.0]) / np.sqrt(2.0)
    rng = np.random.default_rng(3)
    for _ in range(50):
        ok, rho = inverse_zeno_run(psi0, psi1, 10, rng)
        check_density_matrix(rho)
        if ok:
            assert trace_distance(rho, pure_density(psi1)) < 1e-10
        else:
            # failure lands orthogonal to the advanced branch it fell off
            assert overlap(rho, psi1) < 1.0 - 1e-6
    # coincident states succeed trivially
    ok, rho = inverse_zeno_run(psi0, psi0, 5, rng)
    assert ok and trace_distance(rho, pure_density(psi0)) < 1e-12
    with pytest.raises(ValueError):
        inverse_zeno_run(psi0, psi1, 0, rng)


ZENO_PAIRS = {
    "orthogonal": (np.array([1.0, 0.0]), np.array([0.0, 1.0])),
    "45 degrees": (np.array([1.0, 0.0]), np.array([1.0, 1.0j]) / np.sqrt(2.0)),
    "coincident": (np.array([1.0, 1.0]) / np.sqrt(2.0), np.array([1.0, 1.0]) / np.sqrt(2.0)),
}


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.Philox])
@pytest.mark.parametrize("pair", sorted(ZENO_PAIRS))
def test_inverse_zeno_successes_draws_what_single_runs_draw(bit_generator, pair):
    psi0, psi1 = ZENO_PAIRS[pair]
    for m in (1, 2, 10, 50):
        for runs in (1, 7, 1000):
            seed = 1000 * m + runs
            single = np.random.Generator(bit_generator(seed))
            batch = np.random.Generator(bit_generator(seed))
            expected = sum(inverse_zeno_run(psi0, psi1, m, single)[0] for _ in range(runs))
            assert inverse_zeno_successes(psi0, psi1, m, runs, batch) == expected
            # the same uniforms were consumed, so the next draw agrees
            assert batch.random() == single.random()


def test_inverse_zeno_successes_rejects_empty_counts():
    psi0, psi1 = ZENO_PAIRS["orthogonal"]
    rng = np.random.default_rng(0)
    for m, runs in ((0, 10), (-1, 10), (5, 0), (5, -3)):
        with pytest.raises(ValueError):
            inverse_zeno_successes(psi0, psi1, m, runs, rng)
