import math

import numpy as np
import pytest

import qmfc.metrics
import qmfc.povm
from qmfc.metrics import (
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
    for n_samples in (0, 51):  # more samples than the 50 steps
        with pytest.raises(ValueError):
            strength_rate_numeric(SIGMA_Z, 1.0, n_samples=n_samples)


@pytest.mark.parametrize("n_steps, n_samples, want", [
    (10, 4, [2, 5, 8, 10]),
    (50, 7, [7, 14, 21, 29, 36, 43, 50]),
    (50, 5, [10, 20, 30, 40, 50]),
])
def test_strength_rate_numeric_samples_n_samples_times(monkeypatch, n_steps, n_samples, want):
    # the slope is fitted through the states read at exactly n_samples steps,
    # round(j n_steps / n_samples) for j = 1..n_samples, the last at n_steps
    read = []
    driver = qmfc.metrics._advance_chunk

    class Reads:
        def __init__(self, batch, step):
            self.batch, self.step = batch, step

        def states(self):
            read.append(self.step)
            return self.batch.states()

    def spy(*args, **kwargs):
        for step, batch, target_t in driver(*args, **kwargs):
            yield step, Reads(batch, step), target_t

    monkeypatch.setattr(qmfc.metrics, "_advance_chunk", spy)
    est = strength_rate_numeric(SIGMA_Z, 1.0, n_traj=80, n_batches=4, n_steps=n_steps,
                                n_samples=n_samples, seed=2)
    assert read == want
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


def test_strength_rate_numeric_invariant_under_identity_shift():
    # the conditioned evolution sees Q only through Q - Tr[Q rho], so Q + cI
    # gives the same rates on the same noise; N = 3 and 4 run the matrix kernel
    for diagonal in ([1.0, -1.0], [1.0, 0.0, -1.0], [1.5, 0.5, -0.5, -1.5]):
        q = np.diag(diagonal).astype(complex)
        est = strength_rate_numeric(q, 1.0, seed=3)
        shifted = strength_rate_numeric(q + 0.7 * np.eye(len(q)), 1.0, seed=3)
        assert abs(shifted.rate_p - est.rate_p) < 0.1 * est.rate_p_se
        assert abs(shifted.rate_v - est.rate_v) < 0.1 * est.rate_v_se


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
