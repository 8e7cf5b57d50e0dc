import hashlib
import math

import numpy as np
import pytest

import qmfc.metrics
import qmfc.povm
from qmfc.ensemble import EnsembleConfig, ensemble_states
from qmfc.metrics import (
    _fitted_rates,
    disturbance,
    fidelity_bound_check,
    ito_rate_p,
    ito_rate_v,
    printed_rate_p,
    printed_rate_v,
    strength,
    strength_rate_numeric,
    theta_sweep,
    uncertainty_p,
    uncertainty_v,
)
from qmfc.sde import MeasurementPolicy, SmeConfig
from qmfc.povm import (
    EPS_PROB,
    KappaMeasurement,
    MeasurementOperatorSet,
    gaussian_weak_povm,
    kappa_povm,
    nonselective_apply,
    outcome_probabilities,
    random_pure_measurement,
)
from qmfc.states import (
    SIGMA_X,
    SIGMA_Z,
    project_to_physical,
    pure_density,
    purity,
    von_neumann_entropy,
)


def random_density(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def conjugated(mset, u):
    return MeasurementOperatorSet(tuple(u @ om @ u.conj().T for om in mset.ops))


def test_uncertainty_examples():
    mset = kappa_povm(KappaMeasurement(0.75))
    mixed = np.eye(2, dtype=complex) / 2
    # both outcomes leave diag(0.75, 0.25)
    assert uncertainty_v(mset, mixed) == pytest.approx(0.5623351446188083)
    assert uncertainty_p(mset, mixed) == pytest.approx(0.375)
    # projective measurement leaves pure states: zero uncertainty
    proj = kappa_povm(KappaMeasurement(1.0))
    assert uncertainty_v(proj, mixed) == pytest.approx(0.0, abs=1e-12)
    assert uncertainty_p(proj, mixed) == pytest.approx(0.0, abs=1e-12)
    # uninformative measurement leaves the input untouched
    flat = kappa_povm(KappaMeasurement(0.5))
    assert uncertainty_v(flat, mixed) == pytest.approx(math.log(2.0))
    assert uncertainty_p(flat, mixed) == pytest.approx(0.5)


def test_uncertainties_are_nonnegative():
    rng = np.random.default_rng(20)
    for _ in range(50):
        mset = random_pure_measurement(3, 3, rng)
        rho = random_density(rng, 3)
        assert uncertainty_v(mset, rho) >= -1e-12
        u_p = uncertainty_p(mset, rho)
        assert -1e-12 <= u_p <= 1.0 + 1e-12


def test_strength_examples():
    # identity "measurement" has zero strength
    rep = strength(MeasurementOperatorSet((np.eye(2, dtype=complex),)))
    assert rep.s_v == 0.0 and rep.s_p == 0.0
    # projective rank-one measurement has infinite strength
    rep = strength(kappa_povm(KappaMeasurement(1.0)))
    assert rep.s_v == math.inf and rep.s_p == math.inf
    # kappa = 0.75 frozen values: u_p(I/2) = 3/8 so s_p = 2/3
    rep = strength(kappa_povm(KappaMeasurement(0.75)))
    assert rep.s_p == pytest.approx(2.0 / 3.0)
    assert rep.s_v == pytest.approx(1.0 / 0.5623351446188083 - 1.0 / math.log(2.0))
    # kappa = 1/2 gives no information at all
    rep = strength(kappa_povm(KappaMeasurement(0.5)))
    assert rep.s_v == pytest.approx(0.0, abs=1e-12)
    assert rep.s_p == pytest.approx(0.0, abs=1e-12)


def test_strength_infinite_for_rank_one_containing_sets():
    # a set with one rank-one operator among higher-rank ones is still
    # categorically an infinite-strength measurement
    p0 = np.diag([1.0, 0.0]).astype(complex)
    om1 = 0.5 * p0
    om2 = np.diag([np.sqrt(0.75), 1.0]).astype(complex)
    rep = strength(MeasurementOperatorSet((om1, om2)))
    assert rep.u_v > 0  # residual uncertainty is nonzero...
    assert rep.s_v == math.inf and rep.s_p == math.inf  # ...strength still infinite


def test_strength_invariant_under_rotation():
    # kappa family: strength depends on kappa only, not on the Bloch angles
    rng = np.random.default_rng(21)
    base = strength(kappa_povm(KappaMeasurement(0.7)))
    for _ in range(20):
        theta = rng.uniform(0, np.pi)
        phi = rng.uniform(0, 2 * np.pi)
        rep = strength(kappa_povm(KappaMeasurement(0.7, theta, phi)))
        assert rep.s_v == pytest.approx(base.s_v, abs=1e-10)
        assert rep.s_p == pytest.approx(base.s_p, abs=1e-10)


def test_strength_invariant_under_unitary_conjugation():
    rng = np.random.default_rng(22)
    for _ in range(30):
        mset = random_pure_measurement(3, 3, rng)
        u = random_unitary(rng, 3)
        a, b = strength(mset), strength(conjugated(mset, u))
        assert b.s_v == pytest.approx(a.s_v, abs=1e-9)
        assert b.s_p == pytest.approx(a.s_p, abs=1e-9)


def test_disturbance_examples():
    rho = np.diag([0.1, 0.9]).astype(complex)
    # aligned measurement: commutes, no disturbance, purity unchanged
    rep = disturbance(kappa_povm(KappaMeasurement(0.75, 0.0)), rho)
    assert rep.n_e_p == pytest.approx(0.0, abs=1e-12)
    assert rep.n_e_v == pytest.approx(0.0, abs=1e-12)
    assert rep.i_f_p == pytest.approx(0.8392857142857142)
    # transverse measurement: frozen values
    rep = disturbance(kappa_povm(KappaMeasurement(0.75, np.pi / 2)), rho)
    assert rep.i_f_p == pytest.approx(0.865)
    assert rep.n_e_p == pytest.approx(0.08)
    assert rep.n_e_v == pytest.approx(0.10380284296519104)


def test_theta_sweep_shape_and_symmetry():
    grid = np.linspace(0.0, np.pi, 181)
    rows = theta_sweep(0.1, 0.75, grid)
    assert len(rows) == 181
    arr = np.array(rows)
    # symmetric about pi/2 in every column
    assert np.allclose(arr[:, 1:], arr[::-1, 1:], atol=1e-10)
    # information gain peaks exactly transverse to the state
    assert arr[np.argmax(arr[:, 1]), 0] == pytest.approx(np.pi / 2)
    # excess noise vanishes at the aligned endpoints
    assert arr[0, 2] == pytest.approx(0.0, abs=1e-12)
    assert arr[-1, 3] == pytest.approx(0.0, abs=1e-10)
    with pytest.raises(ValueError):
        theta_sweep(0.0, 0.75, grid)


def test_theta_sweep_flat_for_uninformative_measurement():
    rows = theta_sweep(0.3, 0.5, np.linspace(0.0, np.pi, 7))
    for _theta, i_f_p, n_e_p, n_e_v in rows:
        assert i_f_p == pytest.approx(0.58)  # purity of diag(0.3, 0.7), unchanged
        assert n_e_p == pytest.approx(0.0, abs=1e-12)
        assert n_e_v == pytest.approx(0.0, abs=1e-12)


def test_fidelity_bound_check():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        mset = random_pure_measurement(n, 3, rng)
        rho = random_density(rng, n)
        psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        psi /= np.linalg.norm(psi)
        assert fidelity_bound_check(mset, rho, psi)
    # general (non-PSD) sets are out of scope for the bound
    from qmfc.povm import bloch_rotation

    u = bloch_rotation(1.0, 0.0)
    om0 = u @ np.diag([np.sqrt(0.8), np.sqrt(0.2)]).astype(complex)
    om1 = u @ np.diag([np.sqrt(0.2), np.sqrt(0.8)]).astype(complex)
    general = MeasurementOperatorSet((om0, om1))
    with pytest.raises(ValueError):
        fidelity_bound_check(general, np.eye(2) / 2, np.array([1.0, 0.0]))


def test_information_is_one_minus_uncertainty():
    rng = np.random.default_rng(24)
    for _ in range(20):
        mset = random_pure_measurement(2, 3, rng)
        rho = random_density(rng, 2)
        rep = disturbance(mset, rho)
        assert rep.i_f_p == pytest.approx(1.0 - uncertainty_p(mset, rho), abs=1e-10)


def test_closed_form_rates():
    # sigma_z, k = 1: Tr[Q^2] = 2, Tr[Q] = 0
    assert printed_rate_p(SIGMA_Z, 1.0) == pytest.approx(64.0)
    assert ito_rate_p(SIGMA_Z, 1.0) == pytest.approx(16.0)
    assert printed_rate_v(SIGMA_Z, 1.0) == pytest.approx(4.0 / math.log(2.0) ** 2)
    assert ito_rate_v(SIGMA_Z, 1.0) == pytest.approx(printed_rate_v(SIGMA_Z, 1.0))
    # all four are linear in k
    for f in (printed_rate_p, printed_rate_v, ito_rate_p, ito_rate_v):
        assert f(SIGMA_Z, 3.0) == pytest.approx(3.0 * f(SIGMA_Z, 1.0))


def test_strength_rate_numeric_matches_expansion():
    est = strength_rate_numeric(SIGMA_Z, 1.0, seed=0)
    assert est.rate_p_se < 0.05 * abs(est.rate_p)
    assert est.rate_v_se < 0.05 * abs(est.rate_v)
    assert abs(est.rate_p - ito_rate_p(SIGMA_Z, 1.0)) < max(
        4 * est.rate_p_se, 0.05 * ito_rate_p(SIGMA_Z, 1.0)
    )
    assert abs(est.rate_v - ito_rate_v(SIGMA_Z, 1.0)) < max(
        4 * est.rate_v_se, 0.05 * ito_rate_v(SIGMA_Z, 1.0)
    )
    # exact linearity in k by construction of the horizon
    est2 = strength_rate_numeric(SIGMA_Z, 2.0, seed=0)
    assert est2.rate_p == pytest.approx(2.0 * est.rate_p)
    zero = strength_rate_numeric(SIGMA_Z, 0.0)
    assert zero.rate_p == 0.0 and zero.rate_v == 0.0
    with pytest.raises(ValueError):
        strength_rate_numeric(SIGMA_Z, -1.0)
    for n_steps in (0, 4):  # fewer steps than the five sample times
        with pytest.raises(ValueError, match=f"n_steps must be at least 5, got {n_steps}"):
            strength_rate_numeric(SIGMA_Z, 1.0, n_steps=n_steps)
    # the horizon and the number of samples are module constants
    for name in ("horizon", "n_samples"):
        with pytest.raises(TypeError, match=name):
            strength_rate_numeric(SIGMA_Z, 1.0, **{name: 5})


@pytest.mark.parametrize("n_traj, n_batches", [(10, 20), (10, 11), (10, 1), (10, 0)])
def test_strength_rate_numeric_refuses_batch_counts_without_a_spread(n_traj, n_batches):
    # an empty batch has no mean, and one batch no standard error: both read NaN
    with pytest.raises(ValueError, match=f"n_batches={n_batches}, n_traj={n_traj}"):
        strength_rate_numeric(SIGMA_Z, 1.0, n_traj=n_traj, n_batches=n_batches)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("q, k, message", [
    pytest.param(SIGMA_Z, k, "k must be non-negative and finite", id=str(k))
    for k in (-1.0, np.nan, np.inf)
] + [pytest.param(np.eye(1), 1.0, "Q must be at least 2 x 2, got 1 x 1", id="N-1")])
def test_strength_rate_numeric_refuses_a_k_that_is_negative_or_not_finite(q, k, message):
    # a bad k is refused by name, not through the dt it would give, and a
    # 1 x 1 Q, which has no strength (ln N = N - 1 = 0), before any draw
    with pytest.raises(ValueError, match=message):
        strength_rate_numeric(q, k)


@pytest.mark.parametrize("count", ["n_traj", "n_batches", "n_steps"])
def test_strength_rate_numeric_refuses_non_integer_counts(count):
    # each count is refused by name, as a whole number; a numpy integer is
    # one, and a bool is not
    for value in (10.5, 4.0, True):
        with pytest.raises(ValueError, match=f"{count} must be a whole number, got {value!r}"):
            strength_rate_numeric(SIGMA_Z, 1.0, **{count: value})
    whole = {"n_traj": 6, "n_batches": 3, "n_steps": 5}
    plain = strength_rate_numeric(SIGMA_Z, 1.0, seed=2, **whole)
    est = strength_rate_numeric(SIGMA_Z, 1.0, seed=2, **{**whole, count: np.int64(whole[count])})
    assert est == plain


def test_strength_rate_numeric_takes_one_trajectory_per_batch():
    est = strength_rate_numeric(SIGMA_Z, 1.0, n_traj=3, n_batches=3, seed=1)
    assert np.isfinite([est.rate_p, est.rate_p_se, est.rate_v, est.rate_v_se]).all()


@pytest.mark.parametrize("n_steps, want", [
    (5, [1, 2, 3, 4, 5]),
    (7, [1, 3, 4, 6, 7]),
    (50, [10, 20, 30, 40, 50]),
])
def test_strength_rate_numeric_samples_five_times(monkeypatch, n_steps, want):
    # the slope is fitted through the states at exactly five times,
    # round(j n_steps / 5) dt for j = 1..5, the last at the horizon 0.005/k
    times = []
    fit = qmfc.metrics._fitted_rates
    monkeypatch.setattr(qmfc.metrics, "_fitted_rates",
                        lambda lam, t, n_batches: times.append(t) or fit(lam, t, n_batches))
    est = strength_rate_numeric(SIGMA_Z, 1.0, n_traj=80, n_batches=4, n_steps=n_steps, seed=2)
    assert len(times) == 1
    assert np.array_equal(times[0], np.array(want) * (0.005 / n_steps))
    assert np.isfinite([est.rate_p, est.rate_v]).all()


def test_theta_sweep_validates_once(monkeypatch):
    # the sweep validates its fixed state once; each row is disturbance's
    grid = np.linspace(0.0, np.pi, 7)
    rows = theta_sweep(0.7, 0.8, grid)
    rho = np.diag([0.7, 1.0 - 0.7]).astype(complex)
    for (theta, i_f_p, n_e_p, n_e_v), t in zip(rows, grid):
        rep = disturbance(kappa_povm(KappaMeasurement(0.8, t)), rho)
        assert (theta, i_f_p, n_e_p, n_e_v) == (t, rep.i_f_p, rep.n_e_p, rep.n_e_v)
    calls = []
    for module in (qmfc.metrics, qmfc.povm):
        check = module.check_density_matrix
        monkeypatch.setattr(module, "check_density_matrix",
                            lambda rho, check=check: calls.append(1) or check(rho))
    assert theta_sweep(0.7, 0.8, grid) == rows
    assert len(calls) == 1
    # the public calls still validate their inputs
    mset = kappa_povm(KappaMeasurement(0.8, 0.3))
    not_a_state = np.diag([0.7, 0.7]).astype(complex)
    for fn in (disturbance, nonselective_apply, uncertainty_p):
        with pytest.raises(ValueError):
            fn(mset, not_a_state)
    with pytest.raises(ValueError):
        disturbance(mset, np.eye(3, dtype=complex) / 3)


# SHA-256 of the float.hex of every row of sweep_cases(), recorded on the
# theta_sweep that ran one kappa_povm and one disturbance per angle
SWEEP_SHA256 = "64beb98120535ea273ffd989a9e875db0fdf0f4c38dedead463a20fad2d7c9a5"


def sweep_cases():
    """(p, kappa, grid): 20 seeded (p, kappa) on the 181-angle grid, the
    projective and uninformative kappas at the aligned angles, a p so small
    that one outcome falls below EPS_PROB, a one-angle grid and an empty one."""
    rng = np.random.default_rng(15)
    grid = np.linspace(0.0, np.pi, 181)
    cases = [(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0), grid) for _ in range(20)]
    cases += [(0.3, kappa, np.array([0.0, np.pi])) for kappa in (0.0, 0.5, 1.0)]
    cases += [(1e-300, 1.0, np.array([0.0])), (0.6, 0.8, np.array([1.1])),
              (0.6, 0.8, np.array([]))]
    return cases


def test_theta_sweep_equals_per_angle_disturbance():
    # every bit of every row, signed zeros included, is disturbance's for that angle
    digest = hashlib.sha256()
    for p, kappa, grid in sweep_cases():
        rows = [tuple(map(float.hex, row)) for row in theta_sweep(p, kappa, grid)]
        rho = np.diag([p, 1.0 - p]).astype(complex)
        want = []
        for theta in grid:
            rep = disturbance(kappa_povm(KappaMeasurement(kappa, theta)), rho)
            want.append(tuple(map(float.hex, (float(theta), rep.i_f_p, rep.n_e_p, rep.n_e_v))))
        assert rows == want
        digest.update(repr(rows).encode())
    assert digest.hexdigest() == SWEEP_SHA256
    assert theta_sweep(0.6, 0.8, []) == []
    # the p = 1e-300 sweep does drop its first outcome
    rho = np.diag([1e-300, 1.0]).astype(complex)
    assert outcome_probabilities(kappa_povm(KappaMeasurement(1.0)), rho)[0] <= EPS_PROB


def test_theta_sweep_rejects_bad_angles_and_kappas():
    grid = np.linspace(0.0, np.pi, 5)
    for theta in (-1e-9, np.pi + 1e-9, np.nan):
        with pytest.raises(ValueError, match="theta"):
            theta_sweep(0.3, 0.7, np.append(grid, theta))
    for kappa in (-0.1, 1.5, np.nan):
        with pytest.raises(ValueError, match="kappa"):
            theta_sweep(0.3, kappa, grid)


def test_strength_rate_numeric_invariant_under_identity_shift():
    # the conditioned evolution sees Q only through Q - Tr[Q rho], so Q + cI
    # gives the same rates on the same noise; N = 3 and 4 run the matrix kernel
    for diagonal in ([1.0, -1.0], [1.0, 0.0, -1.0], [1.5, 0.5, -0.5, -1.5]):
        q = np.diag(diagonal).astype(complex)
        est = strength_rate_numeric(q, 1.0, seed=3)
        shifted = strength_rate_numeric(q + 0.7 * np.eye(len(q)), 1.0, seed=3)
        assert abs(shifted.rate_p - est.rate_p) < 0.1 * est.rate_p_se
        assert abs(shifted.rate_v - est.rate_v) < 0.1 * est.rate_v_se


def test_strength_rate_numeric_is_bit_equal_under_identity_shift():
    # the step sees only the traceless part of Q, so a dyadic Q + cI, whose
    # centring is exact, gives the same estimate in every bit
    for diagonal in ([1.0, -1.0], [1.0, 0.0, -1.0], [1.5, 0.5, -0.5, -1.5]):
        q = np.diag(diagonal).astype(complex)
        def bits(shift):
            est = strength_rate_numeric(q + shift * np.eye(len(q)), 1.0, n_traj=400, seed=3)
            return [float(x).hex() for x in (est.rate_v, est.rate_v_se, est.rate_p, est.rate_p_se)]

        assert bits(0.5) == bits(0.0)
        assert bits(2.0) == bits(0.0)


def engine_rates(Q, k, n_traj, seed):
    """strength_rate_numeric's estimate at its defaults (20 batches, 50 steps,
    5 samples), with the states taken from the engine instead of the closed
    form: the open-loop ensemble of Q from I/N with H = 0, on the streams
    ensemble_states draws for seed, read at the sample times."""
    n, n_steps, horizon = len(Q), 50, qmfc.metrics.RATE_HORIZON / k
    dt = horizon / n_steps
    t = np.array([10, 20, 30, 40, 50]) * dt
    cfg = EnsembleConfig(
        realizations=n_traj, master_seed=seed,
        sme=SmeConfig(k=k, h0=np.zeros((n, n)), dt=dt, t_end=horizon),
        policy=MeasurementPolicy(mode="fixed_observable", observable=Q),
        mu=0.0, rho0=np.eye(n, dtype=complex) / n, target_fn=None, stat_stride=n_steps)
    lam = np.linalg.eigvalsh(ensemble_states(cfg, t))  # (n_traj, n_samples, N)
    return _fitted_rates(lam.T, t, 20)


# (rate_v, rate_v_se, rate_p, rate_p_se) of the engine's open-loop ensemble
# (engine_rates) for a diagonal Q at N = 3 and 4 (n_traj = 400), as
# float.hex, recorded with numpy 2.4.6 on x86-64 while strength_rate_numeric
# stepped that ensemble itself and every N > 2 step still formed Q rho,
# M rho and (M rho) M^+ as matrix products.  The last Q is not dyadic, so
# its centring rounds
RATES_N_GOLDEN = {
    "qutrit": (([1.0, 0.0, -1.0], 28),
               ("0x1.2fa40e059a096p+1", "0x1.436085f924cb4p-3",
                "0x1.11b4bc1f1b012p+2", "0x1.23d923345427ap-2")),
    "ququart": (([1.5, 0.5, -0.5, -1.5], 29),
                ("0x1.2374fd56aab9fp+1", "0x1.08dfe16ace7b7p-3",
                 "0x1.ed747311be262p+1", "0x1.c213dcee9e555p-3")),
    "qutrit_uneven": (([0.3, -1.1, 0.7], 30),
                      ("0x1.0977eb9f4b254p+1", "0x1.ef0dafec74311p-4",
                       "0x1.dc9bd4fc379ebp+1", "0x1.bcb8a7db46720p-3")),
}


@pytest.mark.parametrize("case", sorted(RATES_N_GOLDEN))
def test_general_n_rates_are_pinned(case):
    """N = 3 and 4 rate estimates through the engine keep their bits: any
    change to the matrix kernel's open-loop steps from I/N shows here."""
    (diagonal, seed), want = RATES_N_GOLDEN[case]
    est = engine_rates(np.diag(diagonal).astype(complex), 1.0, 400, seed)
    got = (est.rate_v, est.rate_v_se, est.rate_p, est.rate_p_se)
    assert tuple(float(x).hex() for x in got) == want


def test_strength_rate_numeric_agrees_with_the_engine():
    """The closed-form sampler and the engine's stepped ensemble (engine_rates)
    estimate the same rates: at N = 2, 3 and 4, 4000 trajectories each, both
    rates agree within 4 combined standard errors.  The N = 4 observable is
    a rotated diagonal, so the engine steps it as a full matrix."""
    u = np.linalg.qr(np.random.default_rng(31).standard_normal((4, 4)))[0]
    observables = [SIGMA_Z, np.diag([1.0, 0.0, -1.0]).astype(complex),
                   u @ np.diag([1.5, 0.5, -0.5, -1.5]) @ u.T]
    for seed, q in enumerate(observables, 40):
        sampled = strength_rate_numeric(q, 1.0, seed=seed)
        stepped = engine_rates(q, 1.0, 4000, seed)
        for rate in ("rate_v", "rate_p"):
            a, b = getattr(sampled, rate), getattr(stepped, rate)
            se = math.hypot(getattr(sampled, rate + "_se"), getattr(stepped, rate + "_se"))
            assert abs(a - b) < 4.0 * se, (len(q), rate, a, b, se)


def test_rank_one_projective_on_pure_state_gives_full_information():
    rep = disturbance(kappa_povm(KappaMeasurement(1.0)), pure_density([1.0, 0.0]))
    assert rep.i_f_p == pytest.approx(1.0)
    assert rep.n_e_p == pytest.approx(0.0, abs=1e-12)


def test_stacked_functionals_match_per_outcome_loops():
    """The operator-stack functionals equal, bit for bit, the same operations
    done one outcome at a time and summed in outcome order."""
    rng = np.random.default_rng(23)
    families = [random_pure_measurement(n, n_ops, rng) for n in (2, 3, 4) for n_ops in (2, 7)]
    families.append(gaussian_weak_povm(0.6 * SIGMA_X + 0.8 * SIGMA_Z, 1.0, 1e-2))
    for mset in families:
        rho = random_density(rng, mset.dim)
        terms = []
        for om in mset.ops:
            raw = om @ rho @ om.conj().T
            p = np.trace(raw).real
            if p > EPS_PROB:
                terms.append((p, raw / p))
        probs = [np.einsum("ij,ji->", om.conj().T @ om, rho).real for om in mset.ops]
        assert outcome_probabilities(mset, rho).tobytes() == np.clip(probs, 0.0, None).tobytes()
        averaged = project_to_physical(sum(om @ rho @ om.conj().T for om in mset.ops))
        assert nonselective_apply(mset, rho).tobytes() == averaged.tobytes()
        assert uncertainty_v(mset, rho) == float(sum(p * von_neumann_entropy(r) for p, r in terms))
        assert uncertainty_p(mset, rho) == float(1.0 - sum(p * purity(r) for p, r in terms))
