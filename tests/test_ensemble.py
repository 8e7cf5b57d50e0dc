import warnings

import numpy as np
import pytest

import qmfc.ensemble
from qmfc.ensemble import (
    EnsembleConfig,
    _advance_chunk,
    _BlochKernel,
    _density,
    _euler_norm_bound,
    _feedback_stack,
    _MatrixKernel,
    _philox_keys,
    _PhiloxKey,
    _trajectory_streams,
    ensemble_states,
    precessing_plus_x,
    run_ensemble,
    theta_experiment,
    trajectory_rng,
)
from qmfc.feedback import DEGEN_TOL, optimal_feedback
from qmfc.sde import (
    MeasurementPolicy,
    SmeConfig,
    StepRejected,
    _kraus_step,
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


def collect(cfg, width, gens, checkpoint_steps=None, kernel=None):
    """Run _advance_chunk to the end and gather what its callers can read:
    (purity, overlap, states, records, feedback).  purity and overlap hold a
    column every stat_stride steps.  The other three are None unless
    checkpoint_steps is given; then they hold, per trajectory and
    checkpoint, the state, shape (width, n_cp, N, N), and the record
    increment dy and feedback Hamiltonian of the step that ended there (zero
    at step 0, and for the feedback when mu = 0)."""
    stride = cfg.stat_stride
    n = cfg.rho0.shape[0]
    pur = np.empty((width, cfg.sme.n_steps // stride + 1))
    ovl = np.empty_like(pur)
    checkpoints = [] if checkpoint_steps is None else list(checkpoint_steps)
    states = records = feedback = None
    if checkpoint_steps is not None:
        states = np.empty((width, len(checkpoints), n, n), dtype=complex)
        records = np.zeros((width, len(checkpoints)))
        feedback = np.zeros_like(states)
    for step, batch, target_t in _advance_chunk(cfg, width, gens, kernel=kernel):
        if step % stride == 0:
            pur[:, step // stride] = batch.purity()
            ovl[:, step // stride] = np.nan if target_t is None else batch.overlap(target_t)
        for slot in (i for i, s in enumerate(checkpoints) if s == step):
            states[:, slot] = batch.states()
            if step > 0:
                records[:, slot], h_fb = batch.last_step()
                if h_fb is not None:
                    feedback[:, slot] = h_fb
    return pur, ovl, states, records, feedback


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(realizations=0)
    with pytest.raises(ValueError):
        small_config(stat_stride=7)  # does not divide 200 steps
    with pytest.raises(ValueError):
        small_config(rho0=np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        small_config(mu=-1.0)
    with pytest.raises(ValueError):
        small_config(target_fn=None)  # feedback with nothing to steer toward
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


def numpy_stream(master_seed, sweep_index, traj_index):
    """The stream (master_seed, sweep_index, traj_index) seeded by numpy's own SeedSequence."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(sweep_index, traj_index))
    return np.random.Generator(np.random.Philox(seed=seq))


def numpy_streams(cfg, sweep_index):
    return (numpy_stream(cfg.master_seed, sweep_index, j) for j in range(cfg.realizations))


@pytest.mark.filterwarnings("error")
def test_philox_keys_match_seed_sequence():
    # one and several words of seed, sweep index and trajectory index
    seeds = [0, 1, 2**32 - 1, 2**32, 2**70 + 3, 2**130 + 11]
    sweeps = [0, 2, 2**32 + 1]
    indices = [0, 1, 255, 256, 65539, 2**32 - 1, 2**32, 2**32 + 7, 2**64 - 1]
    for seed in seeds:
        for sweep in sweeps:
            keys = _philox_keys(seed, sweep, np.array(indices, dtype=np.uint64))
            assert keys.dtype == np.uint64 and keys.shape == (len(indices), 2)
            for j, key in zip(indices, keys):
                seq = np.random.SeedSequence(entropy=seed, spawn_key=(sweep, j))
                assert np.array_equal(key, seq.generate_state(2, np.uint64)), (seed, sweep, j)
    with pytest.raises(ValueError):
        _philox_keys(0, 0, [3, -1])


@pytest.mark.filterwarnings("error")
def test_trajectory_streams_draw_numpy_seeded_streams():
    # 600 draws span three noise blocks of every stream, the last one included
    cfg = small_config(realizations=5, master_seed=2**70 + 3)
    assert 600 > 2 * qmfc.ensemble.NOISE_BLOCK
    for sweep in (0, 2**32 + 1):
        got = [gen.standard_normal(600) for gen in _trajectory_streams(cfg, sweep)]
        want = [gen.standard_normal(600) for gen in numpy_streams(cfg, sweep)]
        assert len(got) == cfg.realizations
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert np.array_equal(trajectory_rng(5, 2, 65539).standard_normal(600),
                          numpy_stream(5, 2, 65539).standard_normal(600))


def test_philox_key_seed_gives_only_the_key():
    key = _philox_keys(1, 0, [0])[0]
    seed = _PhiloxKey(key)
    assert np.array_equal(seed.generate_state(2, np.uint64), key)
    for n_words, dtype in ((4, np.uint32), (2, np.uint32), (1, np.uint64), (4, np.uint64)):
        with pytest.raises(ValueError):
            seed.generate_state(n_words, dtype)


@pytest.mark.parametrize("make", [
    lambda steps: small_config(sme=SmeConfig(k=2.0, h0=np.pi * SIGMA_Z, dephasing_beta=0.4,
                                             dt=1e-3, t_end=steps * 1e-3), stat_stride=1),
    lambda steps: qutrit_config(sme=SmeConfig(k=1.0, h0=qutrit_config().sme.h0,
                                              dt=1e-3, t_end=steps * 1e-3), stat_stride=1),
], ids=["qubit-bloch", "qutrit-matrix"])
def test_ensemble_rows_match_numpy_seeded_streams(monkeypatch, make):
    # two full noise blocks and a partial one
    cfg = make(2 * qmfc.ensemble.NOISE_BLOCK + 37)
    assert cfg.sme.n_steps == 2 * qmfc.ensemble.NOISE_BLOCK + 37
    checkpoints = [0, 5, qmfc.ensemble.NOISE_BLOCK, cfg.sme.n_steps]
    advance = _advance_chunk
    outputs = []

    def twin(gen):
        bit_generator = np.random.Philox()
        bit_generator.state = gen.bit_generator.state
        return np.random.Generator(bit_generator)

    def recording(cfg, width, gens, kernel=None):
        # collect on twins of the streams the caller passed, then step the caller's own
        gens = list(gens)
        outputs.append(collect(cfg, width, [twin(gen) for gen in gens], checkpoints, kernel))
        return advance(cfg, width, gens, kernel)

    monkeypatch.setattr(qmfc.ensemble, "_advance_chunk", recording)
    run_ensemble(cfg, sweep_index=3)
    ensemble_states(cfg, np.array(checkpoints) * cfg.sme.dt, sweep_index=3)
    want = [collect(cfg, cfg.realizations, numpy_streams(cfg, 3), checkpoints)
            for _ in range(2)]
    assert len(outputs) == 2
    for got_rows, want_rows in zip(outputs, want):
        for got, expected in zip(got_rows, want_rows):
            assert (got is None) == (expected is None)
            if got is not None:
                assert got.tobytes() == expected.tobytes()

    # the noise of each column is sqrt(dt) times its stream's normals, drawn in blocks
    increments = []

    class Spy(_BlochKernel if cfg.rho0.shape == (2, 2) else _MatrixKernel):
        def step(self, target, dw):
            increments.append(dw.copy())
            return super().step(target, dw)

    collect(cfg, cfg.realizations, _trajectory_streams(cfg, 3), kernel=Spy)
    noise = np.array([gen.standard_normal(cfg.sme.n_steps) * np.sqrt(cfg.sme.dt)
                      for gen in numpy_streams(cfg, 3)]).T
    assert np.array(increments).tobytes() == noise.tobytes()


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
    whole = collect(cfg, 40, streams(cfg, range(40)))
    parts = [collect(cfg, 17, streams(cfg, range(17))),
             collect(cfg, 23, streams(cfg, range(17, 40)))]
    for i in range(2):
        assert np.array_equal(whole[i], np.concatenate([p[i] for p in parts]))


def test_noise_blocks_do_not_change_rows(monkeypatch):
    # 200 steps: one block by default, 29 blocks of 7 steps (the last one short)
    cfg = small_config(realizations=12)
    checkpoints = range(0, 201, 20)
    assert cfg.sme.n_steps < qmfc.ensemble.NOISE_BLOCK
    whole = collect(cfg, 12, streams(cfg, range(12)), checkpoints)
    monkeypatch.setattr(qmfc.ensemble, "NOISE_BLOCK", 7)
    blocked = collect(cfg, 12, streams(cfg, range(12)), checkpoints)
    for got, want in zip(blocked, whole):
        assert np.array_equal(got, want)


def oracle_config(policy, mu, rho0, h0=np.pi * SIGMA_Z + 0.5 * SIGMA_X + 0.3 * np.eye(2)):
    # 1000 steps; by default h0 with a trace; start one radian behind the target
    return small_config(
        realizations=16,
        master_seed=0,
        sme=SmeConfig(k=2.0, h0=h0, dephasing_beta=0.4, dt=2.5e-5, t_end=0.025),
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
    # Tr Q = Tr H0 = 0: the kernel's traceless branch
    traceless_h0 = np.pi * SIGMA_Z + 0.5 * SIGMA_X
    traceless = [oracle_config(MeasurementPolicy(mode="relative_angle", theta=theta, phi=0.3),
                               10.0, behind, h0=traceless_h0)
                 for theta in (0.0, np.pi / 2)]
    traceless.append(oracle_config(
        MeasurementPolicy(mode="fixed_observable", observable=0.8 * SIGMA_X + 0.6 * SIGMA_Z),
        0.0, behind, h0=traceless_h0))
    for cfg, _ in cases:
        assert not _BlochKernel(cfg, 1).traceless
    for cfg in traceless:
        assert _BlochKernel(cfg, 1).traceless
    cases += [(cfg, set()) for cfg in traceless]

    checkpoints = range(0, 1001, 10)
    for cfg, fallback_branches in cases:
        branches.clear()
        bloch = collect(cfg, 16, streams(cfg, range(16)), checkpoints, kernel=_BlochKernel)
        # the Bloch kernel sends only second-order rows to optimal_feedback
        assert set(branches) == fallback_branches
        matrix = collect(cfg, 16, streams(cfg, range(16)), checkpoints, kernel=_MatrixKernel)
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
                collect(cfg, 8, streams(cfg, range(8)), kernel=kernel)
            messages.append(str(info.value))
        # the message names the trajectory and the step
        assert messages[0] == messages[1]


def test_step_size_bound_dominates_euler_state():
    """_euler_norm_bound is at least |r_E| for the first-order Euler state.

    The Bloch kernel builds r_E only when the batch maximum of the bound could
    reach the StepRejected threshold, so the bound must hold for every column:
    here against the matrix kernel's first-order eigenvalue, lambda_min =
    (1 - |r_E|) / 2, over 6000 seeded columns at each of four (dt, beta).
    """
    rng = np.random.default_rng(20)
    m = 6000
    h0 = np.pi * SIGMA_Z + 0.5 * SIGMA_X + 0.3 * np.eye(2)
    k, mu = 2.0, 10.0

    def unit(n):
        v = rng.standard_normal((3, n))
        return v / np.sqrt(qmfc.ensemble._dot(v, v))

    # |r| from 0 to 1 - 1e-15, most of them close to the pure states
    r_norm = np.concatenate([[0.0, 1.0 - 1e-15], rng.uniform(0.0, 1.0, m // 4),
                             1.0 - 10.0 ** -rng.uniform(0.0, 15.0, m - 2 - m // 4)])
    r = unit(m) * r_norm
    # a unit q (the relative_angle policy, and sigma observables) or a fixed Q with a trace
    q_fixed = 0.7 * SIGMA_X + 0.3 * SIGMA_Z + 0.2 * np.eye(2)
    q = np.where(np.arange(m) % 2 == 0, unit(m), qmfc.ensemble._pauli(q_fixed)[1][:, None])
    q_op = np.where((np.arange(m) % 2 == 0)[:, None, None],
                    2.0 * qmfc.ensemble._density(q) - np.eye(2), q_fixed)
    # feedback of norm sqrt(mu / 2), the largest either branch gives
    h_fb = unit(m) * np.sqrt(mu / 2)
    h_op = h0 + 2.0 * qmfc.ensemble._density(h_fb) - np.eye(2)
    rho = qmfc.ensemble._density(r)
    for dt in (1e-4, 0.04):
        for beta in (0.0, 0.4):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # dt = 0.04 is coarse
                cfg = small_config(sme=SmeConfig(k=k, h0=h0, dephasing_beta=beta, dt=dt,
                                                 t_end=10 * dt), mu=mu)
            h_scale = _BlochKernel(cfg, 1).h_scale
            # increments up to 8 standard deviations
            dw = rng.uniform(-8.0, 8.0, m) * np.sqrt(dt)
            _, _, lam_min = _kraus_step(rho, q_op, k, h_op, dt, dw, beta=beta)
            exact = 1.0 - 2.0 * lam_min
            rr = qmfc.ensemble._dot(r, r)
            bound = _euler_norm_bound(np.sqrt(rr), rr, qmfc.ensemble._dot(q, r),
                                      qmfc.ensemble._dot(q, q), 2.0 * np.sqrt(2.0 * k) * dw,
                                      k, dt, h_scale)
            # 1e-12 absorbs the eigensolver's rounding where the bound is tight (r = 0)
            assert np.all(bound >= exact - 1e-12), np.max(exact - bound)


def seeded(kernel, r):
    """kernel, started from the Bloch vectors r (3, m) instead of cfg.rho0."""
    def make(cfg, m):
        batch = kernel(cfg, m)
        if kernel is _BlochKernel:
            batch.r = r.copy()
        else:
            batch.rho = qmfc.ensemble._density(r)
        return batch
    return make


def test_bloch_kernel_matches_matrix_kernel_at_the_centre():
    # rows at r = 0 keep the measured axis of the eigenbasis convention while
    # the rest of the batch takes its own.  Five steps only: within 1000 the
    # rows leaving the centre part through the ill-conditioned r/|r|.
    rng = np.random.default_rng(4)
    r = rng.uniform(-0.5, 0.5, (3, 16))
    r[:, ::3] = 0.0
    for mu in (0.0, 10.0):
        cfg = oracle_config(MeasurementPolicy(mode="relative_angle", theta=np.pi / 4, phi=0.3),
                            mu, np.eye(2) / 2)
        runs = [collect(cfg, 16, streams(cfg, range(16)), range(6), kernel=seeded(kernel, r))
                for kernel in (_BlochKernel, _MatrixKernel)]
        for got, want in zip(runs[0][2:4], runs[1][2:4]):
            assert np.max(np.abs(got - want)) <= 1e-12


def test_feedback_branches_agree_at_the_degeneracy_threshold():
    """States just either side of the shared branch threshold, with the
    commutator ||[sigma, rho]||_F at 0.5 and 2 times DEGEN_TOL ||rho||_F:
    the scalar rule, the matrix stack and the Bloch kernel choose the same
    branch, alone and in one batch."""
    psi = np.array([1.0, 0.0], dtype=complex)  # Bloch vector +z
    mu = 10.0
    columns, branches = [], []
    for z, below in ((0.6, "no_op"), (-0.6, "second_order")):
        for factor in (0.5, 2.0):
            # r = (x, 0, z): ||[sigma, rho]||_F = |x|/sqrt(2), ||rho||_F = sqrt((1 + |r|^2)/2)
            x = np.sqrt(2.0) * factor * DEGEN_TOL * np.sqrt((1.0 + z * z) / 2)
            columns.append((x, 0.0, z))
            branches.append("first_order" if factor > 1 else below)
    r = np.array(columns).T
    rho = _density(r)
    decisions = [optimal_feedback(rho_j, psi, mu) for rho_j in rho]
    assert [d.branch for d in decisions] == branches
    want = np.array([d.hamiltonian for d in decisions])
    assert np.max(np.abs(_feedback_stack(rho, psi, mu) - want)) < 1e-12

    cfg = small_config(mu=mu)
    for cols in ([0], [1], [2], [3], [0, 1, 2, 3]):
        bloch = _BlochKernel(cfg, len(cols))
        bloch.r = r[:, cols]
        h = bloch._feedback(bloch.target(psi), np.sqrt(np.sum(bloch.r ** 2, axis=0)))
        assert np.max(np.abs(2.0 * _density(h) - np.eye(2) - want[cols])) < 1e-12


def test_one_bad_column_rejects_a_wide_batch():
    """A step is rejected when a single column of 64 leaves the Bloch ball.

    63 columns sit on eigenstates of the measured sigma_z, where r_E = r; one
    starts on the equator, where k dt = 4 throws r_E far outside the ball.
    Both kernels name that trajectory in the same message.
    """
    bad = 41
    with pytest.warns(UserWarning):
        cfg = small_config(
            realizations=64,
            sme=SmeConfig(k=2.0, h0=np.zeros((2, 2)), dt=2.0, t_end=2.0),
            policy=MeasurementPolicy(mode="fixed_observable", observable=SIGMA_Z),
            mu=0.0,
            stat_stride=1,
        )
    r = np.zeros((3, 64))
    r[2] = np.where(np.arange(64) % 2 == 0, 1.0, -1.0)
    r[:, bad] = (1.0, 0.0, 0.0)
    messages = []
    for kernel in (_BlochKernel, _MatrixKernel):
        with pytest.raises(StepRejected) as info:
            collect(cfg, 64, streams(cfg, range(64)), kernel=seeded(kernel, r))
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith(f"trajectory {bad} (master_seed 123) at step 0:")


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
    # each requested time gets its own slot, in the order given
    again = ensemble_states(cfg, [0.1, 0.05, 0.1, 0.0])
    assert again.shape == (2, 4, 2, 2)
    assert np.array_equal(again[:, 0], states[:, 1])
    assert np.array_equal(again[:, 2], states[:, 1])
    assert np.array_equal(again[:, 3], states[:, 0])
    assert np.array_equal(ensemble_states(cfg, [0.05, 0.05]), again[:, [1, 1]])


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
