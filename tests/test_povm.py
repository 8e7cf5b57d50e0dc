import hashlib
import re
import warnings

import numpy as np
import pytest

import qmfc.povm
from qmfc.povm import (
    EPS_PROB,
    KappaMeasurement,
    MeasurementOperatorSet,
    apply_outcome,
    bloch_rotation,
    default_alpha_grid,
    gaussian_weak_povm,
    kappa_povm,
    nonselective_apply,
    outcome_probabilities,
    poisson_povm,
    polar_split,
    sample_outcome,
)
from qmfc.states import (
    SIGMA_X,
    SIGMA_Z,
    check_density_matrix,
    check_unitary,
    majorizes,
    pure_density,
    purity,
)
from random_measurements import random_pure_measurement


def completeness_residual(mset):
    total = sum(om.conj().T @ om for om in mset.ops)
    return np.max(np.abs(total - np.eye(mset.dim)))


def random_density(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def test_set_validates_completeness():
    with pytest.raises(ValueError):
        MeasurementOperatorSet((0.5 * np.eye(2),))
    with pytest.raises(ValueError):
        MeasurementOperatorSet(())
    with pytest.raises(ValueError):
        MeasurementOperatorSet((np.eye(2), np.eye(3) * 0.0))
    mset = MeasurementOperatorSet((np.eye(2, dtype=complex),))
    assert mset.kind == "projective"
    assert len(mset) == 1
    with pytest.raises(ValueError):
        mset.ops[0][0, 0] = 2.0  # operators are frozen


def test_set_refuses_nan_operators():
    # a NaN residual fails the completeness check instead of passing it
    with pytest.raises(ValueError, match="completeness"):
        MeasurementOperatorSet((np.full((2, 2), np.nan),))


def test_set_names_its_non_finite_operator():
    """An inf or NaN entry is refused with a ValueError naming its operator,
    before Omega^dag Omega is formed: an inf there would raise numpy's
    invalid-value RuntimeWarning, an error under this suite's filter."""
    for bad in (np.inf, -np.inf, np.nan, 1j * np.inf):
        with pytest.raises(ValueError, match="operator 0 has a non-finite entry"):
            MeasurementOperatorSet((np.full((2, 2), bad),))
        op = np.zeros((2, 2), dtype=complex)
        op[0, 1] = bad
        with pytest.raises(ValueError, match="operator 1 has a non-finite entry"):
            MeasurementOperatorSet((np.eye(2), op))
    # the theta sweep's (T, 2, 2, 2) stack of kappa pairs takes the same check
    ops = qmfc.povm._kappa_stack(0.75, np.linspace(0.0, np.pi, 5))
    qmfc.povm._effects(ops)
    for bad in (np.inf, np.nan):
        ops[3, 1, 1, 0] = bad
        with pytest.raises(ValueError, match=r"operator \(3, 1\) has a non-finite entry"):
            qmfc.povm._effects(ops)


def test_kind_classification():
    assert kappa_povm(KappaMeasurement(1.0)).kind == "projective"
    assert kappa_povm(KappaMeasurement(0.75)).kind == "pure"
    u = bloch_rotation(0.3, 1.0)
    om0 = u @ np.diag([np.sqrt(0.7), np.sqrt(0.3)]).astype(complex)  # non-Hermitian
    om1 = u @ np.diag([np.sqrt(0.3), np.sqrt(0.7)]).astype(complex)
    assert MeasurementOperatorSet((om0, om1)).kind == "general"


def test_kappa_parameter_validation():
    with pytest.raises(ValueError):
        KappaMeasurement(1.5)
    with pytest.raises(ValueError):
        KappaMeasurement(0.5, theta=4.0)
    with pytest.raises(ValueError):
        KappaMeasurement(0.5, phi=-0.1)


def test_kappa_povm_examples():
    # kappa = 1/2: both operators proportional to the identity, no information
    mset = kappa_povm(KappaMeasurement(0.5, 0.7, 2.0))
    for om in mset.ops:
        assert np.allclose(om, np.sqrt(0.5) * np.eye(2))
    # kappa = 1, theta = 0: projective in the computational basis
    mset = kappa_povm(KappaMeasurement(1.0))
    assert mset.kind == "projective"
    assert np.allclose(mset.ops[0], np.diag([1.0, 0.0]))
    # completeness holds exactly for arbitrary angles
    mset = kappa_povm(KappaMeasurement(0.75, 0.4, 5.0))
    assert completeness_residual(mset) < 1e-14


def test_bloch_rotation_is_unitary():
    for theta, phi in [(0.0, 0.0), (np.pi / 2, 0.0), (1.1, 4.2), (np.pi, 6.0)]:
        check_unitary(bloch_rotation(theta, phi))
    # takes |0> to the (theta, phi) Bloch direction
    u = bloch_rotation(np.pi / 2, 0.0)
    psi = u @ np.array([1.0, 0.0])
    assert np.allclose(pure_density(psi), (np.eye(2) + SIGMA_X) / 2)


def test_outcome_probabilities_sum_to_one():
    rng = np.random.default_rng(10)
    for _ in range(50):
        mset = random_pure_measurement(3, 4, rng)
        p = outcome_probabilities(mset, random_density(rng, 3))
        assert p.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(p >= 0)


def test_apply_outcome():
    mset = kappa_povm(KappaMeasurement(0.75))
    rho = np.eye(2, dtype=complex) / 2
    out = apply_outcome(mset, rho, 0)
    assert out.index == 0
    assert out.probability == pytest.approx(0.5)
    assert np.allclose(out.post_state, np.diag([0.75, 0.25]))
    check_density_matrix(out.post_state)
    # conditioning on a zero-probability outcome is an error
    proj = kappa_povm(KappaMeasurement(1.0))
    with pytest.raises(ValueError):
        apply_outcome(proj, pure_density([0.0, 1.0]), 0)
    with pytest.raises(ValueError):
        apply_outcome(mset, np.eye(3) / 3, 0)


def test_sample_outcome_deterministic_and_frequencies():
    mset = kappa_povm(KappaMeasurement(0.75))
    rho = np.diag([0.9, 0.1]).astype(complex)
    a = sample_outcome(mset, rho, np.random.default_rng(42))
    b = sample_outcome(mset, rho, np.random.default_rng(42))
    assert a.index == b.index
    assert np.array_equal(a.post_state, b.post_state)

    p0 = outcome_probabilities(mset, rho)[0]
    draws = 30000
    rng = np.random.default_rng(7)
    hits = sum(sample_outcome(mset, rho, rng).index == 0 for _ in range(draws))
    sigma = np.sqrt(p0 * (1 - p0) / draws)
    assert abs(hits / draws - p0) < 4 * sigma


# SHA-256 over (index, probability.hex) and the post-state of 12 chained
# sample_outcome calls on one rng, with the float.hex of its next draw,
# recorded while sample_outcome still validated the state twice, and passing there
SAMPLE_GOLDEN = ("6ec1a9dd55bde6c1c61f8c4e7d0f775b529c54b22fcf250f5e26fff382d09ab8",
                 "0x1.3cdd676268f92p-2")


def test_sample_outcome_validates_once_and_keeps_its_bits(monkeypatch):
    calls = []

    def counted(rho):
        calls.append(1)
        return check_density_matrix(rho)

    monkeypatch.setattr(qmfc.povm, "check_density_matrix", counted)
    weak = gaussian_weak_povm(0.6 * SIGMA_X + 0.8 * SIGMA_Z, 1.0, 1e-2)
    chains = [
        (np.eye(2, dtype=complex) / 2,
         [weak] * 5 + [kappa_povm(KappaMeasurement(0.3, 1.0)),
                       kappa_povm(KappaMeasurement(0.9, 2.0))]),
        (np.diag([0.5, 0.3, 0.2]).astype(complex),
         [random_pure_measurement(3, 4, np.random.default_rng(3))] * 5),
    ]
    rng = np.random.default_rng(99)
    h = hashlib.sha256()
    for rho, msets in chains:
        for mset in msets:
            before = len(calls)
            out = sample_outcome(mset, rho, rng)
            assert len(calls) == before + 1
            rho = out.post_state
            h.update(str((out.index, float(out.probability).hex())).encode())
            h.update(rho.tobytes())
    assert (h.hexdigest(), rng.random().hex()) == SAMPLE_GOLDEN
    # the dimension is still checked
    with pytest.raises(ValueError, match=re.escape(
            "rho has shape (3, 3), measurement operators (2, 2)")):
        sample_outcome(weak, np.eye(3) / 3, rng)


def test_nonselective_apply_examples():
    # operators commuting with rho leave it unchanged
    mset = kappa_povm(KappaMeasurement(0.75))
    rho = np.diag([0.3, 0.7]).astype(complex)
    assert np.allclose(nonselective_apply(mset, rho), rho)
    # maximally mixed state is always a fixed point
    rng = np.random.default_rng(11)
    mixed = np.eye(3, dtype=complex) / 3
    for _ in range(20):
        mset = random_pure_measurement(3, 3, rng)
        assert np.allclose(nonselective_apply(mset, mixed), mixed, atol=1e-9)
    # transverse measurement mixes: purity 0.74 for diag(0.1, 0.9) at kappa 0.75
    mset = kappa_povm(KappaMeasurement(0.75, np.pi / 2))
    rho_f = nonselective_apply(mset, np.diag([0.1, 0.9]).astype(complex))
    assert purity(rho_f) == pytest.approx(0.74)


def test_pure_measurement_cannot_sharpen_the_spectrum():
    # outcome-averaged spectrum is majorized by the input spectrum
    rng = np.random.default_rng(12)
    for n in (2, 3, 4):
        for _ in range(70):
            mset = random_pure_measurement(n, rng.integers(2, 5), rng)
            rho = random_density(rng, n)
            rho_f = nonselective_apply(mset, rho)
            lam = np.linalg.eigvalsh(rho)
            lam_f = np.linalg.eigvalsh(rho_f)
            assert majorizes(lam, lam_f)


def test_gaussian_weak_povm_completeness_and_limits():
    mset = gaussian_weak_povm(SIGMA_Z, 1.0, 0.01)
    assert completeness_residual(mset) < 1e-8
    # a symmetric grid with 0.05 spacing also completes to the identity
    coarse = gaussian_weak_povm(SIGMA_Z, 1.0, 0.01, alpha_grid=np.linspace(-8, 8, 321))
    assert completeness_residual(coarse) < 1e-8
    # weak limit: each operator is nearly proportional to the identity
    rho = np.diag([0.2, 0.8]).astype(complex)
    weak = gaussian_weak_povm(SIGMA_Z, 1.0, 1e-6)
    avg = nonselective_apply(weak, rho)
    assert np.max(np.abs(avg - rho)) < 1e-9
    # operators commute with Q, so any state diagonal in Q is preserved on average
    avg = nonselective_apply(mset, rho)
    assert np.max(np.abs(avg - rho)) < 1e-10


def test_gaussian_weak_povm_rejects_bad_grids():
    # lopsided coverage of the spectrum cannot be fixed by one scalar
    with pytest.raises(ValueError):
        gaussian_weak_povm(SIGMA_Z, 1.0, 0.01, alpha_grid=np.linspace(0.0, 8.0, 161))
    with pytest.raises(ValueError):
        gaussian_weak_povm(SIGMA_Z, 1.0, 0.01, alpha_grid=np.linspace(-1.0, 3.0, 2048))
    with pytest.raises(ValueError):
        gaussian_weak_povm(SIGMA_Z, 1.0, 0.01, alpha_grid=np.array([0.0, 1.0, 3.0]))
    with pytest.raises(ValueError):
        gaussian_weak_povm(SIGMA_Z, 0.0, 0.01)
    grid = default_alpha_grid(SIGMA_Z, 1.0, 0.01)
    assert grid.size == 2048
    assert grid[-1] > 6.0 / np.sqrt(0.02)


@pytest.mark.parametrize("grid, message", [
    pytest.param(np.where(np.arange(321) == 5, np.nan, np.linspace(-8, 8, 321)),
                 "alpha grid point 5 is nan, not finite", id="nan"),
    pytest.param(np.append(np.linspace(-8, 8, 321), np.inf),
                 "alpha grid point 321 is inf, not finite", id="inf"),
    pytest.param(np.linspace(8, -8, 321),
                 r"alpha grid must increase: point 1 \(7.95\) is not above point 0 \(8.0\)",
                 id="descending"),
    pytest.param(np.zeros(321), r"point 1 \(0.0\) is not above point 0 \(0.0\)", id="constant"),
])
def test_gaussian_weak_povm_names_a_grid_that_is_not_finite_and_increasing(grid, message):
    # refused by name before any arithmetic on the grid, which would warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            gaussian_weak_povm(SIGMA_Z, 1.0, 0.01, alpha_grid=grid)


def test_gaussian_weak_povm_strong_limit_sharpens():
    # strong measurement of sigma_z from |+x>: outcomes concentrate near +-1
    strong = gaussian_weak_povm(SIGMA_Z, 1.0, 20.0)
    rho = pure_density(np.array([1.0, 1.0]) / np.sqrt(2.0))
    p = outcome_probabilities(strong, rho)
    grid = default_alpha_grid(SIGMA_Z, 1.0, 20.0)
    mass_near_poles = p[np.abs(np.abs(grid) - 1.0) < 0.5].sum()
    assert mass_near_poles > 0.999


def test_poisson_povm():
    mset = poisson_povm(SIGMA_Z, 1.0, 1e-4)
    assert completeness_residual(mset) < 1e-7
    # a sigma_z eigenstate is dark only for Q with a zero eigenvalue; for
    # sigma_z the jump probability is exactly k dt
    p = outcome_probabilities(mset, pure_density([1.0, 0.0]))
    assert p[1] == pytest.approx(1e-4)
    # jump operator annihilates the kernel of Q
    q = np.diag([1.0, 0.0]).astype(complex)
    mset = poisson_povm(q, 1.0, 1e-4)
    p = outcome_probabilities(mset, pure_density([0.0, 1.0]))
    assert p[1] == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        poisson_povm(SIGMA_Z, 1.0, 10.0)  # no-jump operator goes negative


@pytest.mark.parametrize("build", [gaussian_weak_povm, poisson_povm])
@pytest.mark.parametrize("k, dt", [(np.nan, 0.01), (np.inf, 0.01), (-1.0, 0.01), (1.0, np.nan),
                                   (1.0, np.inf), (1.0, 0.0)])
def test_weak_builders_refuse_bad_k_and_dt_by_name(build, k, dt):
    # NaN passes k <= 0; it must not reach the operators as a non-finite entry
    name, value = ("dt", dt) if 0 < k < np.inf else ("k", k)
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got {value}$"):
        build(SIGMA_Z, k, dt)


def test_polar_split():
    rng = np.random.default_rng(13)
    for n in (2, 3, 5):
        for _ in range(50):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            u, p = polar_split(g)
            check_unitary(u)
            assert np.linalg.eigvalsh(p).min() > -1e-10
            assert np.max(np.abs(u @ p - g)) < 1e-10
    # singular input still yields a unitary factor
    u, p = polar_split(np.diag([1.0, 0.0]).astype(complex))
    check_unitary(u)
    assert np.max(np.abs(u @ p - np.diag([1.0, 0.0]))) < 1e-12


def test_polar_split_refuses_a_matrix_that_is_not_square_and_finite():
    # the square rule is check_square's; an inf entry returned NaN factors
    with pytest.raises(ValueError, match=r"expected a square matrix, got shape \(2, 3\)"):
        polar_split(np.ones((2, 3)))
    with pytest.raises(ValueError, match="matrix has non-finite entries"):
        polar_split(np.diag([np.inf, 1.0]))


def test_some_measurement_has_nontrivial_unitary_part():
    # a rotated two-outcome family decomposes into a measurement part times a
    # unitary far from the identity
    u = bloch_rotation(1.2, 0.4)
    om0 = u @ np.diag([np.sqrt(0.8), np.sqrt(0.2)]).astype(complex)
    om1 = u @ np.diag([np.sqrt(0.2), np.sqrt(0.8)]).astype(complex)
    mset = MeasurementOperatorSet((om0, om1))
    assert mset.kind == "general"
    w, p = polar_split(mset.ops[0])
    assert np.max(np.abs(w - np.eye(2))) > 0.1
    assert np.max(np.abs(w @ p - mset.ops[0])) < 1e-12


def test_random_pure_measurement_is_pure_and_complete():
    rng = np.random.default_rng(14)
    for _ in range(30):
        mset = random_pure_measurement(4, 3, rng)
        assert mset.kind in ("pure", "projective")
        assert completeness_residual(mset) < 1e-10


def test_eps_prob_guard_value():
    assert EPS_PROB == 1e-14
