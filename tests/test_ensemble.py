import numpy as np
import pytest

import qmfc.ensemble
from qmfc.ensemble import (
    EnsembleConfig,
    _advance_chunk,
    _BlochKernel,
    _MatrixKernel,
    ensemble_states,
    precessing_plus_x,
    run_ensemble,
    theta_experiment,
    trajectory_rng,
)
from qmfc.sde import (
    MeasurementPolicy,
    SmeConfig,
    StepRejected,
    nonselective_solve,
    run_control_trajectory,
)
from qmfc.states import SIGMA_X, SIGMA_Z, pure_density


def plus_x_density():
    return pure_density(np.array([1.0, 1.0]) / np.sqrt(2.0))


def small_config(**overrides):
    defaults = dict(
        realizations=8,
        master_seed=123,
        sme=SmeConfig(k=2.0, h0=np.pi * SIGMA_Z, dephasing_beta=0.4, dt=1e-3, t_end=0.2),
        policy=MeasurementPolicy(mode="relative_angle", theta=np.pi / 4),
        mu=10.0,
        rho0=plus_x_density(),
        target_fn=precessing_plus_x(np.pi),
        stat_stride=10,
    )
    defaults.update(overrides)
    return EnsembleConfig(**defaults)


def qutrit_config(**overrides):
    # N = 3 from I/3 toward the last basis state: the matrix kernel
    target = np.array([0.0, 0.0, 1.0], dtype=complex)
    h0 = np.array([[0.2, 0.5, 0.1j], [0.5, -0.4, 0.3], [-0.1j, 0.3, 0.2]])
    defaults = dict(
        realizations=8,
        master_seed=5,
        sme=SmeConfig(k=1.0, h0=h0, dt=1e-3, t_end=0.05),
        policy=MeasurementPolicy(mode="fixed_observable", observable=np.diag([1.0, 0.0, -1.0])),
        mu=5.0,
        rho0=np.eye(3, dtype=complex) / 3,
        target_fn=lambda t: target,
        stat_stride=5,
    )
    defaults.update(overrides)
    return EnsembleConfig(**defaults)


def streams(cfg, indices):
    """The per-trajectory streams of sweep 0 for the given trajectory indices."""
    return (trajectory_rng(cfg.master_seed, 0, j) for j in indices)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(realizations=0)
    with pytest.raises(ValueError):
        small_config(stat_stride=7)  # does not divide 200 steps
    with pytest.raises(ValueError):
        small_config(rho0=np.eye(2))  # trace 2
    # shape mismatches are refused at construction, not mid-run inside a matmul
    with pytest.raises(ValueError):
        qutrit_config(policy=MeasurementPolicy(mode="relative_angle", theta=np.pi / 4))
    with pytest.raises(ValueError):
        small_config(rho0=np.eye(3) / 3)
    with pytest.raises(ValueError):
        qutrit_config(policy=MeasurementPolicy(mode="fixed_observable", observable=SIGMA_Z))
    with pytest.raises(ValueError):
        qutrit_config(sme=SmeConfig(k=1.0, h0=SIGMA_Z, dt=1e-3, t_end=0.05))
    with pytest.raises(ValueError):
        qutrit_config(sme=SmeConfig(k=1.0, h0=np.eye(3), dephasing_beta=0.4, dt=1e-3,
                                    t_end=0.05))


def test_trajectory_rng_streams_are_independent_and_stable():
    a = trajectory_rng(5, 0, 3).standard_normal(4)
    b = trajectory_rng(5, 0, 3).standard_normal(4)
    c = trajectory_rng(5, 0, 4).standard_normal(4)
    d = trajectory_rng(5, 1, 3).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_precessing_target():
    target = precessing_plus_x(np.pi)
    psi0 = target(0.0)
    assert np.allclose(psi0, [1, 1] / np.sqrt(2.0))
    # after a full period the state returns to itself up to a global phase
    psi1 = target(2.0)
    assert abs(abs(np.vdot(psi0, psi1)) - 1.0) < 1e-12


def test_single_realization_matches_scalar_engine():
    closed_loop = small_config(realizations=1)
    # 600 steps span three noise blocks; open loop on a fixed observable has no
    # closed-loop discontinuity to amplify rounding differences
    open_loop = small_config(
        realizations=1,
        sme=SmeConfig(k=2.0, h0=np.pi * SIGMA_Z, dephasing_beta=0.4, dt=1e-3, t_end=0.6),
        policy=MeasurementPolicy(mode="fixed_observable",
                                 observable=0.7 * SIGMA_X + 0.3 * SIGMA_Z),
        mu=0.0,
    )
    assert open_loop.sme.n_steps > 2 * qmfc.ensemble.NOISE_BLOCK
    for cfg, atol in ((closed_loop, 1e-8), (open_loop, 1e-12)):
        stats = run_ensemble(cfg)
        rng = trajectory_rng(cfg.master_seed, 0, 0)
        res = run_control_trajectory(
            cfg.sme, cfg.policy, cfg.rho0, cfg.target_fn, cfg.mu, rng,
            store_every=cfg.stat_stride,
        )
        assert np.allclose(stats.purity_mean, res.purities, rtol=0, atol=atol)
        assert np.allclose(stats.overlap_mean, res.overlaps(cfg.target_fn), rtol=0, atol=atol)
        assert np.isnan(stats.purity_se).all()
        assert np.isnan(stats.time_avg_purity_se)
    states = ensemble_states(open_loop, stats.times)
    assert np.max(np.abs(states[0] - res.states)) < 1e-12


def test_chunking_does_not_change_rows():
    cfg = small_config(realizations=40)
    whole = _advance_chunk(cfg, 40, streams(cfg, range(40)))
    parts = [_advance_chunk(cfg, 17, streams(cfg, range(17))),
             _advance_chunk(cfg, 23, streams(cfg, range(17, 40)))]
    for i in range(2):
        assert np.array_equal(whole[i], np.concatenate([p[i] for p in parts]))


def test_noise_blocks_do_not_change_rows(monkeypatch):
    # 200 steps: one block by default, 29 blocks of 7 steps (the last one short)
    cfg = small_config(realizations=12)
    checkpoints = range(0, 201, 20)
    assert cfg.sme.n_steps < qmfc.ensemble.NOISE_BLOCK
    whole = _advance_chunk(cfg, 12, streams(cfg, range(12)), checkpoint_steps=checkpoints)
    monkeypatch.setattr(qmfc.ensemble, "NOISE_BLOCK", 7)
    blocked = _advance_chunk(cfg, 12, streams(cfg, range(12)), checkpoint_steps=checkpoints)
    for got, want in zip(blocked, whole):
        assert np.array_equal(got, want)


def oracle_config(policy, mu, rho0):
    # 1000 steps; h0 with a trace; start one radian behind the target
    return small_config(
        realizations=16,
        master_seed=0,
        sme=SmeConfig(k=2.0, h0=np.pi * SIGMA_Z + 0.5 * SIGMA_X + 0.3 * np.eye(2),
                      dephasing_beta=0.4, dt=2.5e-5, t_end=0.025),
        policy=policy,
        mu=mu,
        rho0=rho0,
    )


def test_bloch_kernel_matches_matrix_kernel(monkeypatch):
    """The qubit Bloch kernel against the matrix kernel on shared noise.

    Agreement to 1e-12 can hold only away from the closed loop's
    discontinuities, where any two roundings part: the relative_angle axis
    near the south pole of the eigenbasis convention (Theta = pi, where it
    turns with the azimuth Phi) and the feedback direction (s x r)/|s x r|
    once the state chatters about the target.  So the runs are short
    (t = 0.025) and start on the equator, one radian behind the target.
    """
    branches = []
    fallback = qmfc.ensemble.optimal_feedback

    def counted(*args):
        decision = fallback(*args)
        branches.append(decision.branch)
        return decision

    monkeypatch.setattr(qmfc.ensemble, "optimal_feedback", counted)
    behind = pure_density(np.array([1.0, np.exp(-1j)]) / np.sqrt(2.0))
    q_fixed = 0.7 * SIGMA_X + 0.3 * SIGMA_Z + 0.2 * np.eye(2)  # Tr Q != 0, Q^2 != I
    policies = [MeasurementPolicy(mode="relative_angle", theta=theta, phi=0.3)
                for theta in (0.0, np.pi / 4, np.pi / 2)]
    policies.append(MeasurementPolicy(mode="fixed_observable", observable=q_fixed))
    cases = [(oracle_config(policy, mu, behind), set())
             for policy in policies for mu in (0.0, 10.0)]
    # antipodal start: the first step takes the second-order feedback branch
    minus_x = pure_density(np.array([1.0, -1.0]) / np.sqrt(2.0))
    cases.append((oracle_config(policies[1], 10.0, minus_x), {"second_order"}))

    checkpoints = range(0, 1001, 10)
    for cfg, fallback_branches in cases:
        branches.clear()
        bloch = _advance_chunk(cfg, 16, streams(cfg, range(16)), checkpoint_steps=checkpoints,
                               kernel=_BlochKernel)
        # the Bloch kernel sends only second-order rows to optimal_feedback
        assert set(branches) == fallback_branches
        matrix = _advance_chunk(cfg, 16, streams(cfg, range(16)), checkpoint_steps=checkpoints,
                                kernel=_MatrixKernel)
        # purity, overlap, states and record increments
        for got, want in zip(bloch[:4], matrix[:4]):
            assert np.array_equal(np.isnan(got), np.isnan(want))
            assert np.nanmax(np.abs(got - want)) <= 1e-12
        # the feedback direction (s x r)/|s x r| scales rounding by 1/|s x r|,
        # about 1e3 in the first steps after the antipodal start (3.5e-12 there)
        assert np.max(np.abs(bloch[4] - matrix[4])) <= 1e-9


def test_kernels_reject_the_same_step():
    for theta in (0.0, np.pi / 4):
        with pytest.warns(UserWarning):
            cfg = small_config(
                sme=SmeConfig(k=2.0, h0=np.pi * SIGMA_Z, dephasing_beta=0.4, dt=0.04, t_end=4.0),
                policy=MeasurementPolicy(mode="relative_angle", theta=theta),
                stat_stride=1,
            )
        messages = []
        for kernel in (_BlochKernel, _MatrixKernel):
            with pytest.raises(StepRejected) as info:
                _advance_chunk(cfg, 8, streams(cfg, range(8)), kernel=kernel)
            messages.append(str(info.value))
        # the message names the trajectory and the step
        assert messages[0] == messages[1]


def test_rerun_is_bit_identical():
    cfg = small_config(realizations=20)
    a = run_ensemble(cfg)
    b = run_ensemble(cfg)
    assert np.array_equal(a.purity_mean, b.purity_mean)
    assert np.array_equal(a.overlap_mean, b.overlap_mean)
    assert a.time_avg_overlap == b.time_avg_overlap


def test_noiseless_closed_loop_stays_on_target():
    cfg = small_config(
        realizations=4,
        sme=SmeConfig(k=0.0, h0=np.pi * SIGMA_Z, dt=1e-3, t_end=0.5),
        mu=1.0,
    )
    stats = run_ensemble(cfg)
    assert np.all(stats.overlap_mean > 1 - 1e-5)
    assert np.all(stats.purity_mean > 1 - 1e-9)


def test_ensemble_mean_matches_master_equation():
    # open-loop conditional mean vs the outcome-averaged reference solver
    r = 400
    cfg = EnsembleConfig(
        realizations=r,
        master_seed=7,
        sme=SmeConfig(k=1.0, h0=0.5 * SIGMA_X, dt=1e-3, t_end=0.5),
        policy=MeasurementPolicy(mode="fixed_observable", observable=SIGMA_Z),
        mu=0.0,
        rho0=np.diag([1.0, 0.0]).astype(complex),
        target_fn=None,
        stat_stride=10,
    )
    ts = [0.1, 0.25, 0.5]
    states = ensemble_states(cfg, ts)
    ref = nonselective_solve(cfg.rho0, SIGMA_Z, 1.0, 0.5 * SIGMA_X, 0.0, ts)
    mean = states.mean(axis=0)
    se = states.std(axis=0, ddof=1) / np.sqrt(r)
    assert np.all(np.abs(mean - ref) <= 3 * np.maximum(np.abs(se), 1e-12) + 1e-3)


def test_ensemble_states_validates_checkpoints():
    cfg = small_config(realizations=2)
    with pytest.raises(ValueError):
        ensemble_states(cfg, [0.00012345])  # off the step grid
    with pytest.raises(ValueError):
        ensemble_states(cfg, [5.0])  # past the end
    states = ensemble_states(cfg, [0.0, 0.1])
    assert states.shape == (2, 2, 2, 2)
    assert np.allclose(states[:, 0], cfg.rho0)


def test_standard_error_scales_with_realizations():
    base = dict(
        master_seed=11,
        sme=SmeConfig(k=2.0, h0=np.pi * SIGMA_Z, dephasing_beta=0.4, dt=1e-3, t_end=0.05),
        policy=MeasurementPolicy(mode="relative_angle", theta=np.pi / 4),
        mu=10.0,
        rho0=plus_x_density(),
        target_fn=precessing_plus_x(np.pi),
        stat_stride=5,
    )
    small = run_ensemble(EnsembleConfig(realizations=250, **base))
    big = run_ensemble(EnsembleConfig(realizations=1000, **base))
    ratio = small.time_avg_purity_se / big.time_avg_purity_se
    assert ratio == pytest.approx(2.0, rel=0.2)


def test_theta_experiment_rows_and_seeding():
    cfg = small_config(realizations=16, sme=SmeConfig(
        k=2.0, h0=np.pi * SIGMA_Z, dephasing_beta=0.4, dt=1e-3, t_end=0.05
    ), stat_stride=5)
    grid = [0.0, np.pi / 4, np.pi / 2]
    rows = theta_experiment(cfg, grid)
    assert len(rows) == 3
    assert [r[0] for r in rows] == grid
    for _theta, tp, tp_se, to, to_se in rows:
        assert 0.5 - 1e-9 <= tp <= 1 + 1e-9
        assert 0 <= to <= 1 + 1e-9
        assert tp_se > 0 and to_se > 0
    # different angles use different random streams by sweep index
    again = theta_experiment(cfg, grid)
    assert rows == again
