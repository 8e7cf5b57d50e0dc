import hashlib
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import qmfc.ensemble
from matrix_reference import MatrixReference
from matrix_reference import euler_state as longhand_euler_state
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
    _centred,
    _default_reject_tol,
    _frobenius,
    _kraus_step,
    _matmul,
    _sigma_parts,
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


def general_n_config(n):
    # N = 3 or 4 from I/N toward the last basis state, 40 rows
    target = np.zeros(n, dtype=complex)
    target[-1] = 1.0
    if n == 3:
        h0 = np.array([[0.2, 0.5, 0.1j], [0.5, -0.4, 0.3], [-0.1j, 0.3, 0.2]])
    else:
        h0 = np.array([[0.3, 0.4, 0.0, 0.2j], [0.4, -0.1, 0.5, 0.0],
                       [0.0, 0.5, -0.3, 0.1], [-0.2j, 0.0, 0.1, 0.1]])
    return EnsembleConfig(
        realizations=40,
        master_seed=7,
        sme=SmeConfig(k=1.0, h0=h0, dt=1e-3, t_end=0.05),
        policy=MeasurementPolicy(mode="fixed_observable",
                                 observable=np.diag(np.linspace(1.0, -1.0, n))),
        mu=5.0,
        rho0=np.eye(n, dtype=complex) / n,
        target_fn=lambda t: target,
        stat_stride=5,
    )


def trajectory_last(stack):
    """A stack of matrices (m, N, N) in the matrix kernel's layout, (N, N, m)."""
    return np.ascontiguousarray(np.moveaxis(stack, 0, -1))


def step_constants(q, h):
    """The run constants a _MatrixKernel passes _kraus_step, for per-row Q and
    H stacks: q_sq = Q^2 and the norms (||H_0||_F, ||Q_0||_F) of each row's
    traceless parts."""
    return _matmul(q, q), (_frobenius(_centred(h)), _frobenius(_centred(q)))


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
    at step 0, and for the feedback when mu = 0).  checkpoint_steps must
    rise from 0; they are kept and built as run_control_trajectory keeps
    and builds its stored steps (the kernels' snapshot and assemble)."""
    stride = cfg.stat_stride
    pur = np.empty((width, cfg.sme.n_steps // stride + 1))
    ovl = np.empty_like(pur)
    checkpoints = set() if checkpoint_steps is None else set(checkpoint_steps)
    assert checkpoint_steps is None or list(checkpoint_steps) == sorted(checkpoints)
    assert checkpoint_steps is None or 0 in checkpoints
    kept = []
    for step, batch, target_t in _advance_chunk(cfg, width, gens, kernel=kernel):
        if step % stride == 0:
            pur[:, step // stride] = batch.purity()
            ovl[:, step // stride] = np.nan if target_t is None else batch.overlap(target_t)
        if step in checkpoints:
            kept.append(batch.snapshot())
    if checkpoint_steps is None:
        return pur, ovl, None, None, None
    states, records, feedback = batch.assemble(kept)
    # step 0 ended no step: its record and feedback are zero
    records = np.concatenate([np.zeros((width, 1)), records], axis=1)
    feedback = np.concatenate([np.zeros_like(states[:, :1]), feedback], axis=1)
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


def test_config_refuses_non_finite_mu():
    for mu in (np.nan, np.inf):
        with pytest.raises(ValueError, match="mu"):
            small_config(mu=mu)


@pytest.mark.parametrize("field, value", [
    ("realizations", 2.5), ("realizations", 8.0), ("realizations", True),
    ("stat_stride", 2.0), ("stat_stride", 10.5), ("stat_stride", True),
])
def test_config_refuses_counts_that_are_not_whole_numbers(field, value):
    # each count is refused by name at construction, not late in run_ensemble
    # by the numpy call it reaches; a numpy integer is a whole number
    with pytest.raises(ValueError, match=re.escape(f"{field} must be a whole number, "
                                                   f"got {value!r}")):
        small_config(**{field: value})
    plain = run_ensemble(small_config(realizations=2))
    numpy_counts = run_ensemble(small_config(realizations=np.int64(2), stat_stride=np.int32(10)))
    for name in vars(plain):
        assert np.array_equal(getattr(numpy_counts, name), getattr(plain, name)), name


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


def test_one_block_streams_may_be_kept():
    """A run of one noise block draws every stream through one reset
    generator (_TrajectoryStreams.drawn_once), but iterating the streams
    still opens each: kept in a list, they are distinct generators that draw
    numpy's streams, and the reset generator draws the same numbers."""
    cfg = small_config(realizations=5)
    assert cfg.sme.n_steps <= qmfc.ensemble.NOISE_BLOCK
    want = [gen.standard_normal(cfg.sme.n_steps) for gen in numpy_streams(cfg, 1)]
    kept = list(_trajectory_streams(cfg, 1))
    assert len({id(gen) for gen in kept}) == cfg.realizations
    assert all(np.array_equal(gen.standard_normal(cfg.sme.n_steps), w)
               for gen, w in zip(kept, want))
    once = [gen.standard_normal(cfg.sme.n_steps)
            for gen in _trajectory_streams(cfg, 1).drawn_once()]
    assert len(once) == cfg.realizations
    assert all(np.array_equal(got, w) for got, w in zip(once, want))


def noise_increments(cfg):
    """The noise increments each step of _advance_chunk hands the kernel, on
    the streams of sweep 3, as a (steps, realizations) array."""
    increments = []

    class Spy(_BlochKernel if cfg.rho0.shape == (2, 2) else _MatrixKernel):
        def step(self, target, dw):
            increments.append(dw.copy())
            return super().step(target, dw)

    collect(cfg, cfg.realizations, _trajectory_streams(cfg, 3), kernel=Spy)
    return np.array(increments)


@pytest.mark.parametrize("extra", [0, 1], ids=["one-block", "one-block-plus-one"])
@pytest.mark.parametrize("make", [
    lambda steps: small_config(sme=SmeConfig(k=2.0, h0=np.pi * SIGMA_Z, dephasing_beta=0.4,
                                             dt=1e-3, t_end=steps * 1e-3), stat_stride=1),
    lambda steps: qutrit_config(sme=SmeConfig(k=1.0, h0=qutrit_config().sme.h0,
                                              dt=1e-3, t_end=steps * 1e-3), stat_stride=1),
], ids=["qubit-bloch", "qutrit-matrix"])
def test_noise_increments_at_the_block_edge(make, extra):
    """At NOISE_BLOCK steps every stream is drawn once, through the reset
    generator; one step more draws two blocks from opened streams.  Either
    way the noise of each column is sqrt(dt) times its stream's normals."""
    cfg = make(qmfc.ensemble.NOISE_BLOCK + extra)
    assert cfg.sme.n_steps == qmfc.ensemble.NOISE_BLOCK + extra
    noise = np.array([gen.standard_normal(cfg.sme.n_steps) * np.sqrt(cfg.sme.dt)
                      for gen in numpy_streams(cfg, 3)]).T
    assert noise_increments(cfg).tobytes() == noise.tobytes()


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
    """A 40-row batch split 17 + 23 gives the same rows in every bit: purity,
    overlap, states, records and feedback, on the Bloch kernel and on the
    matrix kernel for N = 3 and 4."""
    for cfg in (small_config(realizations=40), general_n_config(3), general_n_config(4)):
        checkpoints = range(0, cfg.sme.n_steps + 1, cfg.stat_stride)
        whole = collect(cfg, 40, streams(cfg, range(40)), checkpoints)
        parts = [collect(cfg, 17, streams(cfg, range(17)), checkpoints),
                 collect(cfg, 23, streams(cfg, range(17, 40)), checkpoints)]
        for got, want in zip(zip(*parts), whole):
            assert np.concatenate(got).tobytes() == want.tobytes(), cfg.rho0.shape


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


def behind_target():
    """A pure state on the equator, one radian behind oracle_config's target."""
    return pure_density(np.array([1.0, np.exp(-1j)]) / np.sqrt(2.0))


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


def oracle_cases():
    """(config, the branches optimal_feedback takes) for the kernel
    comparisons: both policies, mu = 0 and 10, traced and traceless Q and H0,
    from oracle_config's equator start, and a -x start whose first step takes
    the second-order feedback branch."""
    behind = behind_target()
    q_fixed = 0.7 * SIGMA_X + 0.3 * SIGMA_Z + 0.2 * np.eye(2)  # Tr Q != 0, Q^2 != I
    policies = [MeasurementPolicy(mode="relative_angle", theta=theta, phi=0.3)
                for theta in (0.0, np.pi / 4, np.pi / 2)]
    policies.append(MeasurementPolicy(mode="fixed_observable", observable=q_fixed))
    cases = [(oracle_config(policy, mu, behind), set())
             for policy in policies for mu in (0.0, 10.0)]
    # antipodal start: the first step takes the second-order feedback branch
    minus_x = pure_density(np.array([1.0, -1.0]) / np.sqrt(2.0))
    cases.append((oracle_config(policies[1], 10.0, minus_x), {"second_order"}))
    # Tr Q = Tr H0 = 0, beside the traced Q and H0 above
    traceless_h0 = np.pi * SIGMA_Z + 0.5 * SIGMA_X
    traceless = [oracle_config(MeasurementPolicy(mode="relative_angle", theta=theta, phi=0.3),
                               10.0, behind, h0=traceless_h0)
                 for theta in (0.0, np.pi / 2)]
    traceless.append(oracle_config(
        MeasurementPolicy(mode="fixed_observable", observable=0.8 * SIGMA_X + 0.6 * SIGMA_Z),
        0.0, behind, h0=traceless_h0))
    return cases + [(cfg, set()) for cfg in traceless]


def test_bloch_kernel_matches_matrix_kernel(monkeypatch):
    """The qubit Bloch kernel against the longhand matrix reference
    (tests/matrix_reference.py) on shared noise.

    Agreement to 1e-12 can hold only away from the closed loop's
    discontinuities, where any two roundings part: the relative_angle axis
    near the south pole of its frame (Theta = pi, where the frame turns with
    the azimuth Phi) and the feedback direction (s x r)/|s x r|
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
    checkpoints = range(0, 1001, 10)
    for cfg, fallback_branches in oracle_cases():
        branches.clear()
        bloch = collect(cfg, 16, streams(cfg, range(16)), checkpoints, kernel=_BlochKernel)
        # the Bloch kernel sends only second-order rows to optimal_feedback
        assert set(branches) == fallback_branches
        matrix = collect(cfg, 16, streams(cfg, range(16)), checkpoints, kernel=MatrixReference)
        # purity, overlap, states and record increments
        for got, want in zip(bloch[:4], matrix[:4]):
            assert np.array_equal(np.isnan(got), np.isnan(want))
            assert np.nanmax(np.abs(got - want)) <= 1e-12
        # the feedback direction (s x r)/|s x r| scales rounding by 1/|s x r|,
        # about 1e3 in the first steps after the antipodal start (3.5e-12 there)
        assert np.max(np.abs(bloch[4] - matrix[4])) <= 1e-9


def test_width_one_trajectory_matches_a_wide_matrix_batch():
    """A width-one qubit trajectory, which the Bloch kernel steps on Python
    floats, agrees within 1e-12 with row 0 of a 16-wide batch of the longhand
    matrix reference on the same stream: states, records and feedback over
    1000 steps from oracle_config's equator start."""
    for theta in (0.0, np.pi / 4, np.pi / 2):
        cfg = oracle_config(MeasurementPolicy(mode="relative_angle", theta=theta, phi=0.3),
                            10.0, behind_target())
        one = run_control_trajectory(cfg.sme, cfg.policy, cfg.rho0, cfg.target_fn, cfg.mu,
                                     trajectory_rng(cfg.master_seed, 0, 0))
        _, _, states, records, feedback = collect(cfg, 16, streams(cfg, range(16)),
                                                  range(cfg.sme.n_steps + 1),
                                                  kernel=MatrixReference)
        assert np.max(np.abs(one.states - states[0])) <= 1e-12
        assert np.max(np.abs(one.records - records[0, 1:])) <= 1e-12
        assert np.max(np.abs(one.fb_hamiltonians - feedback[0, 1:])) <= 1e-12


def test_width_one_trajectory_is_row_zero_of_a_wide_bloch_batch(monkeypatch):
    """A width-one qubit trajectory, which the Bloch kernel steps on Python
    floats, is row 0 of a 16-wide Bloch batch on the same stream in every
    bit: states, records and feedback over 1000 steps, on oracle_cases, and
    it sends the same rows to optimal_feedback."""
    branches = []
    fallback = qmfc.ensemble.optimal_feedback

    def counted(*args):
        decision = fallback(*args)
        branches.append(decision.branch)
        return decision

    monkeypatch.setattr(qmfc.ensemble, "optimal_feedback", counted)
    for cfg, fallback_branches in oracle_cases():
        branches.clear()
        one = run_control_trajectory(cfg.sme, cfg.policy, cfg.rho0, cfg.target_fn, cfg.mu,
                                     trajectory_rng(cfg.master_seed, 0, 0))
        assert set(branches) == fallback_branches
        _, _, states, records, feedback = collect(cfg, 16, streams(cfg, range(16)),
                                                  range(cfg.sme.n_steps + 1), kernel=_BlochKernel)
        assert one.states.tobytes() == states[0].tobytes()
        assert one.records.tobytes() == records[0, 1:].tobytes()
        assert one.fb_hamiltonians.tobytes() == feedback[0, 1:].tobytes()


@pytest.mark.parametrize("mode", ["relative_angle", "fixed_observable"])
def test_width_one_trajectory_builds_its_matrices_once(monkeypatch, mode):
    """A width-one qubit trajectory with feedback keeps its stored steps as
    rows and builds its states and feedback Hamiltonians at the end: the
    number of _density calls does not grow with the number of steps."""
    calls = []
    density = qmfc.ensemble._density

    def counted(r):
        calls.append(np.shape(r))
        return density(r)

    monkeypatch.setattr(qmfc.ensemble, "_density", counted)
    policy = (MeasurementPolicy(mode="relative_angle", theta=np.pi / 4) if mode == "relative_angle"
              else MeasurementPolicy(mode="fixed_observable", observable=SIGMA_X))
    counts = []
    for n_steps in (200, 2000):
        sme = SmeConfig(k=2.0, h0=np.pi * SIGMA_Z, dephasing_beta=0.4, dt=1e-4,
                        t_end=n_steps * 1e-4)
        calls.clear()
        res = run_control_trajectory(sme, policy, plus_x_density(), precessing_plus_x(np.pi),
                                     10.0, np.random.default_rng(5))
        assert res.states.shape == (n_steps + 1, 2, 2)
        assert np.any(res.fb_hamiltonians)
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 2, counts


@pytest.mark.parametrize("mode", ["relative_angle", "fixed_observable"])
def test_open_loop_trajectory_builds_no_target(mode):
    """At mu = 0 nothing reads the target, so a width-one qubit trajectory
    never calls psi_target_fn (it called it once per stored step, 201 times
    over 200 steps).  Its states, records and feedback are, in every bit,
    those of a batch of one that builds the target at every step."""
    calls = []
    target_fn = precessing_plus_x(np.pi)

    def counted(t):
        calls.append(t)
        return target_fn(t)

    policy = (MeasurementPolicy(mode="relative_angle", theta=np.pi / 4) if mode == "relative_angle"
              else MeasurementPolicy(mode="fixed_observable", observable=SIGMA_X))
    cfg = small_config(realizations=1, policy=policy, mu=0.0, target_fn=counted)
    one = run_control_trajectory(cfg.sme, policy, cfg.rho0, counted, 0.0,
                                 trajectory_rng(cfg.master_seed, 0, 0))
    assert calls == []
    _, _, states, records, feedback = collect(cfg, 1, streams(cfg, [0]),
                                              range(cfg.sme.n_steps + 1))
    assert len(calls) == cfg.sme.n_steps + 1
    assert one.states.tobytes() == states[0].tobytes()
    assert one.records.tobytes() == records[0, 1:].tobytes()
    assert one.fb_hamiltonians.tobytes() == feedback[0, 1:].tobytes()


@pytest.mark.parametrize("mu", [0.0, 5.0])
@pytest.mark.parametrize("n", [3, 4])
def test_width_one_general_n_trajectory_is_row_zero_of_a_wide_batch(n, mu):
    """A width-one N > 2 trajectory, which the matrix kernel steps as an
    (N, N, 1) stack, is row 0 of a 16-wide batch on the same stream in every
    bit: states, records and feedback over 1000 steps from I/N."""
    cfg = general_n_config(n)
    cfg = replace(cfg, mu=mu, sme=replace(cfg.sme, t_end=1.0))
    one = run_control_trajectory(cfg.sme, cfg.policy, cfg.rho0, cfg.target_fn, cfg.mu,
                                 trajectory_rng(cfg.master_seed, 0, 0))
    _, _, states, records, feedback = collect(cfg, 16, streams(cfg, range(16)),
                                              range(cfg.sme.n_steps + 1))
    assert one.states.tobytes() == states[0].tobytes()
    assert one.records.tobytes() == records[0, 1:].tobytes()
    assert one.fb_hamiltonians.tobytes() == feedback[0, 1:].tobytes()


def test_kernels_reject_the_same_step():
    for theta in (0.0, np.pi / 4):
        with pytest.warns(UserWarning):
            cfg = small_config(
                sme=SmeConfig(k=2.0, h0=np.pi * SIGMA_Z, dephasing_beta=0.4, dt=0.04, t_end=4.0),
                policy=MeasurementPolicy(mode="relative_angle", theta=theta),
                stat_stride=1,
            )
        messages = []
        for kernel in (_BlochKernel, MatrixReference):
            with pytest.raises(StepRejected) as info:
                collect(cfg, 8, streams(cfg, range(8)), kernel=kernel)
            messages.append(str(info.value))
        # the message names the trajectory and the step
        assert messages[0] == messages[1]


def test_step_size_bound_dominates_euler_state():
    """_euler_norm_bound is at least |r_E| for the first-order Euler state.

    The Bloch kernel builds r_E only when the batch maximum of the bound could
    reach the StepRejected threshold, so the bound must hold for every column:
    here against the smallest eigenvalue lambda_min = (1 - |r_E|) / 2 of the
    longhand Euler state of tests/matrix_reference.py, over 6000 seeded
    columns at each of four (dt, beta).
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
    q = np.where(np.arange(m) % 2 == 0, unit(m), np.array(_sigma_parts(q_fixed)[1:])[:, None])
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
            euler = longhand_euler_state(rho, q_op, h_op, k, beta, dt, dw)
            lam_min = np.linalg.eigvalsh(euler)[:, 0]
            exact = 1.0 - 2.0 * lam_min
            rr = qmfc.ensemble._dot(r, r)
            bound = _euler_norm_bound(np.sqrt(rr), rr, qmfc.ensemble._dot(q, r),
                                      qmfc.ensemble._dot(q, q), 2.0 * np.sqrt(2.0 * k) * dw,
                                      k, dt, h_scale)
            # 1e-12 absorbs the eigensolver's rounding where the bound is tight (r = 0)
            assert np.all(bound >= exact - 1e-12), np.max(exact - bound)


def test_weyl_bound_dominates_general_n_euler_state():
    """For N > 2 the matrix kernel's step-size diagnostic may be the bound
    -c, for the certificate c >= ||euler - rho'||_F of sde._weyl_certificate,
    which needs no Euler state: rho' is positive semidefinite, so by Weyl's
    inequality the bound is at most the Euler state's smallest eigenvalue.
    Checked against the exact eigenvalue for 2000 seeded near-pure N = 3 and
    4 states at each dt, with increments up to 8 standard deviations."""
    rng = np.random.default_rng(21)
    m, k = 2000, 2.0

    def hermitian(n):
        g = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
        h = (g + np.conj(np.swapaxes(g, 1, 2))) / 2
        return h / np.linalg.norm(h, axis=(1, 2), keepdims=True)

    for n in (3, 4):
        psi = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        g = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
        mixed = g @ np.conj(np.swapaxes(g, 1, 2))
        mixed /= np.einsum("mii->m", mixed).real[:, None, None]
        # (1 - eps) |psi><psi| + eps sigma, eps from 1 down to 1e-15
        eps = (10.0 ** -rng.uniform(0.0, 15.0, m))[:, None, None]
        rho = (1.0 - eps) * psi[:, :, None] * np.conj(psi)[:, None, :] + eps * mixed
        q = hermitian(n)
        # a drift and a feedback Hamiltonian of norm sqrt(mu) = sqrt(5)
        h = hermitian(n) + np.sqrt(5.0) * hermitian(n)
        rho, q, h = trajectory_last(rho), trajectory_last(q), trajectory_last(h)
        for dt in (1e-4, 1e-3, 1e-2):
            dw = rng.uniform(-8.0, 8.0, m) * np.sqrt(dt)
            constants = step_constants(q, h)
            new, _, exact = _kraus_step(rho, q, k, h, dt, dw, *constants)
            gated, _, bound = _kraus_step(rho, q, k, h, dt, dw, *constants, tol=np.inf)
            assert np.array_equal(gated, new)
            # 1e-12 absorbs the eigensolver's rounding and rho''s
            assert np.all(bound <= exact + 1e-12), np.max(bound - exact)


def test_weyl_certificate_bounds_the_euler_distance():
    """The N > 2 certificate c of sde._weyl_certificate is at least the
    Frobenius distance from the Kraus state to the Euler state, here written
    out from the SME, and exceeds it by at most twice its bound on the drift
    part, since its noise part is exact.  Checked for 500 seeded near-pure
    N = 3 and 4 states with per-row and shared Q and H, with and without the
    measurement, at each dt, with increments up to 8 standard deviations."""
    rng = np.random.default_rng(23)
    m = 500

    def hermitian(n, rows):
        g = rng.standard_normal((rows, n, n)) + 1j * rng.standard_normal((rows, n, n))
        return (g + np.conj(np.swapaxes(g, 1, 2))) / 2

    def traceless_norm(a):
        n = a.shape[-1]
        trace = np.einsum("...ii->...", a)
        return np.linalg.norm(a - trace[..., None, None] / n * np.eye(n), axis=(-2, -1))

    for n in (3, 4):
        psi = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        g = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
        mixed = g @ np.conj(np.swapaxes(g, 1, 2))
        mixed /= np.einsum("mii->m", mixed).real[:, None, None]
        eps = (10.0 ** -rng.uniform(0.0, 15.0, m))[:, None, None]
        rho = (1.0 - eps) * psi[:, :, None] * np.conj(psi)[:, None, :] + eps * mixed
        for rows, k in ((m, 2.0), (1, 2.0), (m, 0.0)):
            q, h = hermitian(n, rows), 2.0 * hermitian(n, rows)
            for dt in (1e-4, 1e-3, 1e-2):
                dw = rng.uniform(-8.0, 8.0, m) * np.sqrt(dt)
                q_last, h_last = trajectory_last(q), trajectory_last(h)
                new, _, minus_c = _kraus_step(trajectory_last(rho), q_last, k, h_last, dt, dw,
                                              *step_constants(q_last, h_last), tol=np.inf)
                new = np.moveaxis(new, -1, 0)
                q_rho = q @ rho
                exp_q = np.einsum("mii->m", q_rho).real[:, None, None]
                comm = q_rho - rho @ q
                euler = (rho - 1j * dt * (h @ rho - rho @ h) - k * dt * (q @ comm - comm @ q)
                         + np.sqrt(2.0 * k) * dw[:, None, None]
                         * (q_rho + rho @ q - 2.0 * exp_q * rho))
                dist = np.linalg.norm(euler - new, axis=(1, 2))
                drift_bound = 2.0 * dt * (traceless_norm(h) + k * traceless_norm(q)
                                          * np.linalg.norm(comm, axis=(1, 2)))
                assert np.all(-minus_c >= dist - 1e-12), np.max(dist + minus_c)
                assert np.all(-minus_c <= dist + 2.0 * drift_bound + 1e-12)


@pytest.mark.parametrize("mu", [0.0, 5.0])
@pytest.mark.parametrize("n", [3, 4])
def test_general_n_steps_build_no_euler_state(monkeypatch, n, mu):
    """On general_n_config's N = 3 and 4 ensembles, open loop and with
    feedback, sde._weyl_certificate clears the StepRejected threshold at
    every step, so no step builds the Euler state."""
    built, certified = [], []
    euler_state, certificate = qmfc.sde._euler_state, qmfc.sde._weyl_certificate

    def spy(calls, fn):
        return lambda *args: calls.append(1) or fn(*args)

    monkeypatch.setattr(qmfc.sde, "_euler_state", spy(built, euler_state))
    monkeypatch.setattr(qmfc.sde, "_weyl_certificate", spy(certified, certificate))
    cfg = replace(general_n_config(n), mu=mu)
    run_ensemble(cfg)
    assert len(certified) == cfg.sme.n_steps
    assert built == []


@pytest.mark.parametrize("drift", ["shifted", "zero"])
@pytest.mark.parametrize("n", [3, 4])
def test_run_constant_certificate_bounds_every_step(monkeypatch, n, drift):
    """The certificate a _MatrixKernel builds from its run constants, ||Q_0||_F
    and the bound ||H0_0||_F + sqrt(mu) on every row's ||H_0||_F, is at least
    the exact ||E - rho'||_F, E from sde._euler_state, at every step of
    general_n_config's feedback ensembles (mu = 5): with the drift H0 + 2I,
    whose trace the bound must not count, and with H0 = 0, where the
    feedback is all of H.  The certificate reads no Q or H: the Euler state
    takes them from the step that called it."""
    kraus_step = qmfc.ensemble._kraus_step
    certificate, euler_state = qmfc.sde._weyl_certificate, qmfc.sde._euler_state
    operands, gaps = {}, []

    def stepping(rho, q, k, h, *args, **kwargs):
        operands.update(q=q, h=h)
        return kraus_step(rho, q, k, h, *args, **kwargs)

    def checked(rho, new, k, dt, dw, q_rho, exp_q, norms):
        assert norms[0] is not None  # the kernel's run constants
        c = certificate(rho, new, k, dt, dw, q_rho, exp_q, norms)
        euler = euler_state(rho, operands["q"], k, operands["h"], dt, dw, q_rho, exp_q)
        gaps.append(np.min(c - np.linalg.norm(euler - new, axis=(0, 1))))
        return c

    monkeypatch.setattr(qmfc.ensemble, "_kraus_step", stepping)
    monkeypatch.setattr(qmfc.sde, "_weyl_certificate", checked)
    cfg = general_n_config(n)
    h0 = cfg.sme.h0 + 2.0 * np.eye(n) if drift == "shifted" else np.zeros((n, n))
    cfg = replace(cfg, sme=replace(cfg.sme, h0=h0))
    run_ensemble(cfg)
    assert len(gaps) == cfg.sme.n_steps
    assert min(gaps) >= -1e-12, min(gaps)


def test_width_one_trajectory_rejects_the_exact_step(monkeypatch):
    """A width-one closed-loop trajectory at dt = 0.04 raises StepRejected
    with the message of the exact diagnostic, after steps whose diagnostic
    the Bloch kernel's bound on |r_E| certified without an Euler state."""
    with pytest.warns(UserWarning):
        sme = SmeConfig(k=2.0, h0=np.pi * SIGMA_Z, dephasing_beta=0.4, dt=0.04, t_end=4.0)
    policy = MeasurementPolicy(mode="relative_angle", theta=np.pi / 4)
    tol = _default_reject_tol(sme.k, sme.dephasing_beta, sme.dt)
    euler_norm_bound = qmfc.ensemble._euler_norm_bound
    bounds = []

    def recording(*args):
        bounds.append(euler_norm_bound(*args))
        return bounds[-1]

    def message():
        with pytest.raises(StepRejected) as info:
            run_control_trajectory(sme, policy, plus_x_density(), precessing_plus_x(np.pi),
                                   10.0, np.random.default_rng(3))
        return str(info.value)

    monkeypatch.setattr(qmfc.ensemble, "_euler_norm_bound", recording)
    gated = message()
    assert gated.startswith("trajectory 0 (master_seed None) at step ")
    # some steps were certified by the bound alone; the rejected one was not
    limit = 1.0 + 2.0 * tol - 1e-9
    assert any(b <= limit for b in bounds)
    assert bounds[-1] > limit
    # a bound that never certifies builds the Euler state at every step
    monkeypatch.setattr(qmfc.ensemble, "_euler_norm_bound", lambda *args: np.inf)
    assert message() == gated


def test_general_n_batch_rejects_the_exact_step(monkeypatch):
    """A step is rejected when one row of a 40-row N = 3 batch leaves the
    physical states.

    39 rows sit on eigenstates of the measured Q, where the Euler state is
    rho; one starts on a superposition, where k dt = 4 throws it far below
    zero.  The message names that row and step, and is the one the exact
    diagnostic gives."""
    bad, width = 37, 40
    with pytest.warns(UserWarning):
        cfg = qutrit_config(
            realizations=width,
            sme=SmeConfig(k=2.0, h0=np.zeros((3, 3)), dt=2.0, t_end=4.0),
            mu=0.0,
            target_fn=None,
            stat_stride=1,
        )
    rho = np.zeros((width, 3, 3), dtype=complex)
    rho[np.arange(width), np.arange(width) % 3, np.arange(width) % 3] = 1.0
    rho[bad] = pure_density(np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0))

    def make(cfg, m):
        batch = _MatrixKernel(cfg, m)
        batch.rho = trajectory_last(rho)
        return batch

    def message():
        with pytest.raises(StepRejected) as info:
            collect(cfg, width, streams(cfg, range(width)), kernel=make)
        return str(info.value)

    gated = message()
    assert gated.startswith(f"trajectory {bad} (master_seed 5) at step 0:")
    kraus_step = qmfc.ensemble._kraus_step
    monkeypatch.setattr(qmfc.ensemble, "_kraus_step",
                        lambda *args, tol=None, **kwargs: kraus_step(*args, **kwargs))
    assert message() == gated


def test_matrix_kernel_keeps_its_per_run_constants():
    """The in-place step never writes the constants a _MatrixKernel passes
    it every step: after 50 steps, the fixed observable's Q^2 keeps every
    byte, at width one and on a stack of 31 rows."""
    cfg = qutrit_config()
    for m in (1, 31):
        batch = _MatrixKernel(cfg, m)
        q_sq = batch.q_sq
        before = q_sq.tobytes()
        rng = np.random.default_rng(m)
        for step in range(50):
            dw = rng.normal(0.0, np.sqrt(cfg.sme.dt), m)
            batch.step(cfg.target_fn(step * cfg.sme.dt), dw)
        assert q_sq.tobytes() == before


@pytest.mark.parametrize("n", [3, 4])
def test_wide_matrix_rows_do_not_depend_on_the_batch_width(n):
    """Every operation of the trajectory-last kernel runs column by column at
    any width, one included, so the rows of N = 3 and 4 batches of widths 1,
    2, 8, 31, 32 and 4000 on shared streams are byte-identical to the same
    rows of a 40-wide batch: purity, overlap, states, records and feedback."""
    cfg = replace(general_n_config(n), sme=replace(general_n_config(n).sme, t_end=0.02))
    checkpoints = range(0, cfg.sme.n_steps + 1, cfg.stat_stride)

    def run(width):
        return collect(cfg, width, streams(cfg, range(width)), checkpoints)

    reference = run(40)
    for width in (1, 2, 8, 31, 32, 4000):
        rows = min(width, 40)
        for got, want in zip(run(width), reference):
            assert got[:rows].tobytes() == want[:rows].tobytes()


def test_feedback_stack_sends_only_second_order_rows_to_the_scalar_rule(monkeypatch):
    """Rows of a mixed N = 3 stack that fail the first-order test are decided
    in one batch: no-op rows are exactly +0, and optimal_feedback is called
    only for second-order rows and for rows whose gap to the top eigenvalue
    lies between half and all of the no-op threshold."""
    psi = np.array([0.0, 0.0, 1.0], dtype=complex)
    mu = 5.0
    rng = np.random.default_rng(8)
    first_order = []
    for _ in range(4):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        first_order.append(g @ g.conj().T / np.trace(g @ g.conj().T).real)
    # the target's eigenvalue x, and a top eigenvalue 0.75 of the threshold above it
    x = 0.45
    tau = DEGEN_TOL * np.linalg.norm(np.diag([x, 1.0 - 2.0 * x, x]))
    band = np.diag([x + 0.75 * tau, 1.0 - 2.0 * x - 0.75 * tau, x]).astype(complex)
    assert 0.5 < (band[0, 0] - x).real / (DEGEN_TOL * np.linalg.norm(band)) < 1.0
    rows = {  # kind: (states, the scalar rule's branch)
        "first_order": (first_order, "first_order"),
        "mixed": ([np.eye(3, dtype=complex) / 3] * 3, "no_op"),
        "target_on_top": ([np.diag([0.2, 0.1, 0.7]), np.diag([0.45, 0.1, 0.45])], "no_op"),
        "second_order": ([np.diag([0.5, 0.2, 0.3]), np.diag([0.1, 0.6, 0.3])], "second_order"),
        "band": ([band], "no_op"),
    }
    rho = np.array([r for states, _ in rows.values() for r in states], dtype=complex)
    kinds = np.repeat(list(rows), [len(states) for states, _ in rows.values()])
    calls = []
    monkeypatch.setattr(qmfc.ensemble, "optimal_feedback",
                        lambda *args: calls.append(args) or optimal_feedback(*args))
    shuffled = np.random.default_rng(9).permutation(len(rho))
    # a shuffled stack, and one where no row takes the commutator branch
    for pick in (shuffled, shuffled[kinds[shuffled] != "first_order"]):
        decisions = [optimal_feedback(r, psi, mu) for r in rho[pick]]
        assert [d.branch for d in decisions] == [rows[kind][1] for kind in kinds[pick]]
        want = np.array([d.hamiltonian for d in decisions])
        first = kinds[pick] == "first_order"
        calls.clear()
        h = np.moveaxis(_feedback_stack(trajectory_last(rho[pick]), psi, mu), -1, 0)
        # byte for byte, signed zeros included, where the scalar rule decides
        assert h[~first].tobytes() == want[~first].tobytes()
        assert np.max(np.abs(h[first] - want[first]), initial=0.0) < 1e-12
        assert len(calls) == np.isin(kinds[pick], ["second_order", "band"]).sum()


def test_feedback_stack_shortcut_keeps_every_row_bit():
    """Every row of a stack is decided with the bits it gets alone, whether
    or not the stack skips ||rho||_F (when every ||[sigma, rho]||_F exceeds
    2 DEGEN_TOL, which is safe because ||rho||_F <= 1).  Two N = 3 stacks of
    random mixed rows and one edge row: one whose edge row, the stack's
    smallest commutator, lies just above 2 DEGEN_TOL, and one whose edge row
    lies in (DEGEN_TOL ||rho||_F, 2 DEGEN_TOL] beside a no-op row at I/3."""
    psi = np.array([0.0, 0.0, 1.0], dtype=complex)
    mu = 5.0
    rng = np.random.default_rng(12)
    mixed = []
    for _ in range(6):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        mixed.append(g @ g.conj().T / np.trace(g @ g.conj().T).real)

    def edge(comm_norm):  # ||[sigma, rho]||_F = sqrt(2) |rho_02| toward the last basis state
        rho = np.diag([0.3, 0.3, 0.4]).astype(complex)
        rho[0, 2] = rho[2, 0] = comm_norm / np.sqrt(2.0)
        return rho

    def comm_norms(stack):
        sigma = np.outer(psi, psi.conj())
        return np.linalg.norm(sigma @ stack - stack @ sigma, axis=(1, 2))

    above = edge(2.0 * DEGEN_TOL * (1.0 + 1e-6))
    inside = edge(1.5 * DEGEN_TOL * np.linalg.norm(np.diag([0.3, 0.3, 0.4])))
    for extra in ([above], [inside, np.eye(3, dtype=complex) / 3]):
        stack = np.array(mixed + extra)
        norms = comm_norms(stack)
        if len(extra) == 1:
            assert 2.0 * DEGEN_TOL < norms.min() == norms[-1] < 2.0 * DEGEN_TOL * (1.0 + 1e-5)
        else:
            assert DEGEN_TOL * np.linalg.norm(extra[0]) < norms[-2] <= 2.0 * DEGEN_TOL
        h = _feedback_stack(trajectory_last(stack), psi, mu)
        for j in range(len(stack)):
            alone = _feedback_stack(trajectory_last(stack[j:j + 1]), psi, mu)
            assert alone[..., 0].tobytes() == h[..., j].tobytes(), j


def seeded(kernel, r):
    """kernel, the Bloch kernel or the matrix reference, started from the
    Bloch vectors r (3, m) instead of cfg.rho0."""
    def make(cfg, m):
        batch = kernel(cfg, m)
        if kernel is _BlochKernel:
            batch.r = r.copy()
        else:
            batch.rho = qmfc.ensemble._density(r)
        return batch
    return make


def test_bloch_kernel_matches_matrix_kernel_at_the_centre():
    # rows at r = 0 keep the previous frame of the relative_angle axis (the
    # lab frame, at the start) while the rest of the batch takes its own.
    # Five steps only: within 1000 the rows leaving the centre part through
    # the ill-conditioned r/|r|.
    rng = np.random.default_rng(4)
    r = rng.uniform(-0.5, 0.5, (3, 16))
    r[:, ::3] = 0.0
    for mu in (0.0, 10.0):
        cfg = oracle_config(MeasurementPolicy(mode="relative_angle", theta=np.pi / 4, phi=0.3),
                            mu, np.eye(2) / 2)
        runs = [collect(cfg, 16, streams(cfg, range(16)), range(6), kernel=seeded(kernel, r))
                for kernel in (_BlochKernel, MatrixReference)]
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
    h = np.moveaxis(_feedback_stack(trajectory_last(rho), psi, mu), -1, 0)
    assert np.max(np.abs(h - want)) < 1e-12

    cfg = small_config(mu=mu)
    for cols in ([0], [1], [2], [3], [0, 1, 2, 3]):
        # the kernel's rows: Python floats at width one, arrays otherwise
        bloch = _BlochKernel(cfg, len(cols))
        bloch.r = r[:, cols[0]].tolist() if len(cols) == 1 else list(r[:, cols])
        r_norm = np.sqrt(np.sum(r[:, cols] ** 2, axis=0))
        h = bloch._feedback(bloch.target(psi), r_norm[0] if len(cols) == 1 else r_norm)
        assert np.max(np.abs(2.0 * _density(h) - np.eye(2) - want[cols])) < 1e-12


def test_one_bad_column_rejects_a_wide_batch():
    """A step is rejected when a single column of 64 leaves the Bloch ball.

    63 columns sit on eigenstates of the measured sigma_z, where r_E = r; one
    starts on the equator, where k dt = 4 throws r_E far outside the ball.
    The Bloch kernel and the longhand matrix reference name that trajectory
    in the same message.
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
    for kernel in (_BlochKernel, MatrixReference):
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


@pytest.mark.parametrize("r", [2, 3, 17])
@pytest.mark.parametrize("make", [
    lambda **kw: small_config(stat_stride=1, **kw),  # 201 slots: six full STAT_BLOCKs
    qutrit_config,  # 11 slots: one block, narrower than STAT_BLOCK
    # 33 slots: the last block holds one slot
    lambda **kw: small_config(mu=0.0, target_fn=None, stat_stride=2,
                              sme=replace(small_config().sme, t_end=0.064), **kw),
], ids=["bloch", "qutrit", "no_target"])
def test_streamed_statistics_match_the_stored_columns(make, r):
    """run_ensemble's streamed statistics equal, bit for bit, those taken over
    every row's purity and overlap at every slot, kept as (r, slots) arrays:
    per-slot mean and se over the rows, and per-row time averages summed over
    the slots in order."""
    cfg = make(realizations=r)
    pur, ovl = collect(cfg, r, streams(cfg, range(r)))[:2]
    stats = run_ensemble(cfg)
    for x, mean, se, tavg, tavg_se in ((pur, stats.purity_mean, stats.purity_se,
                                        stats.time_avg_purity, stats.time_avg_purity_se),
                                       (ovl, stats.overlap_mean, stats.overlap_se,
                                        stats.time_avg_overlap, stats.time_avg_overlap_se)):
        rows = np.asfortranarray(x).mean(axis=1)
        expected = (x.mean(axis=0), np.std(x, axis=0, ddof=1) / np.sqrt(r),
                    rows.mean(), np.std(rows, ddof=1) / np.sqrt(r))
        for got, want in zip((mean, se, tavg, tavg_se), expected):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_run_ensemble_memory_does_not_grow_with_t_end():
    """At R = 1000 the statistics are streamed: the peak traced allocation of
    a run ten times longer (2640 steps and 331 stat slots, against 264 and
    34) grows by less than 100 kB.  Kept (R, slots) purity and overlap
    arrays would add 4.8 MB.  Both runs span more than one noise block and
    one STAT_BLOCK, so every fixed-size buffer, and the streams kept between
    noise blocks, are at full size in both."""
    peaks = []
    for t_end in (0.264, 2.64):
        cfg = small_config(realizations=1000, stat_stride=8,
                           sme=replace(small_config().sme, t_end=t_end))
        run_ensemble(replace(cfg, realizations=2))
        tracemalloc.start()
        try:
            run_ensemble(cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 100e3, peaks


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


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_non_finite_checkpoint_is_not_on_the_step_grid(t):
    with pytest.raises(ValueError, match="is not on the step grid"):
        ensemble_states(small_config(realizations=2), [0.1, t])


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


# time averages (purity, se, overlap, se) as float.hex, and the SHA-256 of
# the states at t_end, recorded with numpy 2.4.6 on x86-64 before the matrix
# kernel's step-size diagnostic and no-op feedback rows were batched.  The
# N = 4 entry was re-recorded when the kernels began to step the traceless
# part of Q: diag(linspace(1, -1, 4)) has the trace 2.2e-16, and the code
# before that change, given Q - (Tr Q / 4) I, gave the new entry in every bit
GENERAL_N_GOLDEN = {
    3: (("0x1.85cd8f8f59306p-2", "0x1.c4c096b6dbc80p-8",
         "0x1.75f63d0160bd6p-2", "0x1.4526223760022p-6"),
        "af3a537dbd5eb1a085518b1605928973ebf82e225d32237b816dd42ed83d865f"),
    4: (("0x1.1f24d6fc7a522p-2", "0x1.2ceb7c8c44822p-8",
         "0x1.18e6e45c4a4bcp-2", "0x1.f0dfb738a2348p-7"),
        "49489b351ef3735b24afe4aad967be8bd133a7b44af5c1fd8c3d214f5f75b9db"),
}


@pytest.mark.parametrize("n", [3, 4])
def test_general_n_rows_are_pinned(n):
    """Closed-loop N = 3 and 4 ensembles from I/N (mu = 5, R = 40) keep their
    bits: any change to the matrix kernel's rows shows here."""
    cfg = general_n_config(n)
    stats = run_ensemble(cfg)
    averages, digest = GENERAL_N_GOLDEN[n]
    got = (stats.time_avg_purity, stats.time_avg_purity_se,
           stats.time_avg_overlap, stats.time_avg_overlap_se)
    assert tuple(float(x).hex() for x in got) == averages
    states = ensemble_states(cfg, [cfg.sme.t_end])[:, 0]
    assert hashlib.sha256(np.ascontiguousarray(states).tobytes()).hexdigest() == digest


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# the time averages (purity, se, overlap, se) of an 8-row N = 3 batch as
# float.hex with the SHA-256 of its states at t_end, and the SHA-256 of
# (states, records, fb_hamiltonians) of two single qubit trajectories.
# Recorded with numpy 2.4.6 on x86-64.  The qutrit entry was recorded on the
# (m, N, N) matrix kernel, before the kernel stored its stacks
# trajectory-last, and re-recorded when sde._matmul stopped switching to
# np.matmul below 32 matrices: it is the first 8 rows of the same ensemble at
# width 40, which the code before that change gave in every bit.  The two
# trajectory entries were re-recorded when width-one qubit batches moved from
# the matrix kernel's (2, 2) matrices to the Bloch kernel's Python floats,
# whose rows are those of a wide Bloch batch: over the 200 steps, states moved
# by at most 1.9e-15, records by 2.8e-17 and feedback Hamiltonians by 4.8e-14
NARROW_GOLDEN = {
    "qutrit": (("0x1.83877f4e9b96dp-2", "0x1.7d79bc459dae8p-7",
                "0x1.67e148ed7e692p-2", "0x1.95c19b9d872ecp-5"),
               "83783bddb652adece9ef2b693e9db5d2b52f3823f60a3b011bca480a6ee0bddd"),
    "relative_angle": "333c7b89950bdce40f39d88312063ddc68a29d638360f5c8cac18e7899efd2c1",
    "fixed_observable": "a3d3fcdf9415fabab4eb75cb00efb8a9f8d2364292bfe16837f503bb4f3883bb",
}


def test_narrow_matrix_rows_are_pinned():
    """Narrow batches keep their bits: an 8-row N = 3 ensemble on the matrix
    kernel, and width-one closed-loop qubit trajectories on the Bloch kernel
    (beta = 0.4, mu = 10) on the relative_angle policy and on a fixed
    observable from diag(0.8, 0.2)."""
    cfg = qutrit_config()
    stats = run_ensemble(cfg)
    averages, states_digest = NARROW_GOLDEN["qutrit"]
    got = (stats.time_avg_purity, stats.time_avg_purity_se,
           stats.time_avg_overlap, stats.time_avg_overlap_se)
    assert tuple(float(x).hex() for x in got) == averages
    assert digest(ensemble_states(cfg, [cfg.sme.t_end])[:, 0]) == states_digest

    sme = small_config().sme
    runs = {
        "relative_angle": (MeasurementPolicy(mode="relative_angle", theta=np.pi / 4),
                           plus_x_density()),
        "fixed_observable": (MeasurementPolicy(mode="fixed_observable",
                                               observable=0.7 * SIGMA_X + 0.3 * SIGMA_Z),
                             np.diag([0.8, 0.2]).astype(complex)),
    }
    for mode, (policy, rho0) in runs.items():
        res = run_control_trajectory(sme, policy, rho0, precessing_plus_x(np.pi), 10.0,
                                     trajectory_rng(123, 0, 0))
        assert digest(res.states, res.records, res.fb_hamiltonians) == NARROW_GOLDEN[mode]


def dyadic_config(n, q_shift=0.0, h0_shift=0.0):
    """A closed loop (mu = 5) on a fixed observable from a mixed state, with
    traceless dyadic Q and H0 shifted by q_shift I and h0_shift I: every
    entry, and the centring of each shift, is exact."""
    if n == 2:
        q = np.array([[0.5, 0.75], [0.75, -0.5]])
        h0 = np.array([[0.5, 0.25 - 0.5j], [0.25 + 0.5j, -0.5]])
        rho0 = np.array([[0.625, 0.25 - 0.125j], [0.25 + 0.125j, 0.375]])
    else:
        q = np.diag([1.0, 0.0, -1.0] if n == 3 else [1.5, 0.5, -0.5, -1.5]).astype(complex)
        q[0, 1] = q[1, 0] = 0.25
        h0 = np.diag([0.5, 0.0, -0.5] if n == 3 else [0.5, 0.25, -0.25, -0.5]).astype(complex)
        h0[0, -1], h0[-1, 0] = 0.25j, -0.25j
        h0[1, 2] = h0[2, 1] = 0.5
        rho0 = np.full((n, n), 0.0625, dtype=complex) + (1.0 - 0.0625 * n) / n * np.eye(n)
    target = np.zeros(n, dtype=complex)
    target[-1] = 1.0
    return EnsembleConfig(
        realizations=8,
        master_seed=11,
        sme=SmeConfig(k=1.0, h0=h0 + h0_shift * np.eye(n), dephasing_beta=0.25 if n == 2 else 0.0,
                      dt=1e-3, t_end=0.05),
        policy=MeasurementPolicy(mode="fixed_observable", observable=q + q_shift * np.eye(n)),
        mu=5.0,
        rho0=rho0,
        target_fn=lambda t: target,
        stat_stride=5,
    )


@pytest.mark.parametrize("n, kernel", [(2, _BlochKernel), (3, _MatrixKernel),
                                       (4, _MatrixKernel)])
def test_identity_shifts_leave_every_state_bit(n, kernel):
    """The conditioned master equation sees Q only through Q - Tr[Q rho] and
    H0 only through commutators, so on shared noise Q + cI and H0 + cI give
    byte-identical states, purities, overlaps and feedback on both kernels;
    only the record dy = 4k Tr[Q rho] dt + sqrt(2k) dW moves, by 4k c dt."""
    checkpoints = range(0, 51)
    cfg = dyadic_config(n)
    plain = collect(cfg, 8, streams(cfg, range(8)), checkpoints, kernel=kernel)
    for c in (0.5, 2.0):
        for q_shift, h0_shift in ((c, 0.0), (0.0, c)):
            shifted_cfg = dyadic_config(n, q_shift, h0_shift)
            pur, ovl, states, records, feedback = collect(
                shifted_cfg, 8, streams(cfg, range(8)), checkpoints, kernel=kernel)
            for got, want in ((pur, plain[0]), (ovl, plain[1]), (states, plain[2]),
                              (feedback, plain[4])):
                assert got.tobytes() == want.tobytes()
            shift = 4.0 * cfg.sme.k * q_shift * cfg.sme.dt
            assert np.max(np.abs(records[:, 1:] - plain[3][:, 1:] - shift)) <= 1e-15


@pytest.mark.parametrize("n", [3, 4])
def test_closed_loop_is_covariant_under_unitary_conjugation(n):
    """Conjugating rho0, Q, H0 and the target by a seeded random unitary U
    conjugates every row of an N > 2 closed loop (fixed observable, mu = 5,
    R = 40, a mixed start) on shared noise: over the first 100 steps each
    state is U rho U^+ of the plain run's row, and each record is the same,
    within 1e-12.  Later steps part through rounding near the target, so
    over a full run of 2000 steps the time-averaged purity and overlap
    agree within 2 combined se."""
    rng = np.random.default_rng(100 + n)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    mixed = g @ g.conj().T
    mixed /= np.trace(mixed).real
    base = general_n_config(n)
    base = replace(base, rho0=mixed, sme=replace(base.sme, t_end=0.1))
    psi = base.target_fn(0.0)
    psi_u = u @ psi

    def conj(a):
        return u @ a @ u.conj().T

    turned = replace(base, rho0=conj(mixed), sme=replace(base.sme, h0=conj(base.sme.h0)),
                     policy=MeasurementPolicy(mode="fixed_observable",
                                              observable=conj(base.policy.observable)),
                     target_fn=lambda t: psi_u)
    checkpoints = range(0, 101)
    plain = collect(base, 40, streams(base, range(40)), checkpoints)
    rotated = collect(turned, 40, streams(base, range(40)), checkpoints)
    assert np.max(np.abs(rotated[2] - conj(plain[2]))) <= 1e-12
    assert np.max(np.abs(rotated[3] - plain[3])) <= 1e-12
    full = [run_ensemble(replace(cfg, sme=replace(cfg.sme, t_end=2.0))) for cfg in (base, turned)]
    for name in ("purity", "overlap"):
        means = [getattr(stats, f"time_avg_{name}") for stats in full]
        se = np.hypot(*(getattr(stats, f"time_avg_{name}_se") for stats in full))
        assert abs(means[0] - means[1]) <= 2.0 * se
