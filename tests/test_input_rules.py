"""Every public entry point refuses a bad count, rate or Bloch angle by the
argument's name, before any draw, through the three rules of qmfc.states
(_count, _finite and _bloch_angles), and takes numpy integers and floats."""

import re

import numpy as np
import pytest

from qmfc.ensemble import EnsembleConfig
from qmfc.feedback import optimal_feedback
from qmfc.metrics import strength_rate_numeric, theta_sweep
from qmfc.povm import KappaMeasurement, gaussian_weak_povm, poisson_povm
from qmfc.sde import (
    MeasurementPolicy,
    SmeConfig,
    inverse_zeno_successes,
    nonselective_solve,
)
from qmfc.states import SIGMA_X, SIGMA_Z

UP, DOWN = np.array([1.0, 0.0]), np.array([0.0, 1.0])
MIXED = np.eye(2) / 2


def sme_config(**changes):
    return SmeConfig(**{"k": 1.0, "h0": SIGMA_Z, "dt": 1e-3, "t_end": 0.01, **changes})


def ensemble_config(**changes):
    return EnsembleConfig(**{
        "realizations": 2, "master_seed": 0, "sme": sme_config(),
        "policy": MeasurementPolicy("relative_angle", theta=0.5), "mu": 1.0, "rho0": MIXED,
        "target_fn": lambda t: UP, "stat_stride": 10, **changes})


def rates(**changes):
    return strength_rate_numeric(SIGMA_Z, **{"k": 1.0, "n_traj": 6, "n_batches": 2,
                                             "n_steps": 5, **changes})


COUNT, RATE, POSITIVE, THETA, PHI = "count", "rate", "positive", "theta", "phi"

# what each kind refuses: a count is a whole number, not a bool, of at least
# its least (every least here is 0 or more, so -1 is always below it)
INVALID = {
    COUNT: [np.nan, np.inf, -np.inf, -1, 2.5, True],
    RATE: [np.nan, np.inf, -np.inf, -1.0],
    POSITIVE: [np.nan, np.inf, -np.inf, -1.0, 0.0],
    THETA: [np.nan, np.inf, -np.inf, -0.1, 3.5],
    PHI: [np.nan, np.inf, -np.inf, -0.1, 2 * np.pi],
}

# (entry point, argument, kind, a valid value, call(value, rng))
ENTRY_POINTS = [
    ("EnsembleConfig", "realizations", COUNT, 2, lambda x, rng: ensemble_config(realizations=x)),
    ("EnsembleConfig", "stat_stride", COUNT, 10, lambda x, rng: ensemble_config(stat_stride=x)),
    ("EnsembleConfig", "master_seed", COUNT, 0, lambda x, rng: ensemble_config(master_seed=x)),
    ("EnsembleConfig", "mu", RATE, 1.0, lambda x, rng: ensemble_config(mu=x)),
    ("SmeConfig", "dt", POSITIVE, 1e-3, lambda x, rng: sme_config(dt=x)),
    ("SmeConfig", "k", RATE, 1.0, lambda x, rng: sme_config(k=x)),
    ("SmeConfig", "dephasing_beta", RATE, 0.4, lambda x, rng: sme_config(dephasing_beta=x)),
    ("SmeConfig", "t_end", POSITIVE, 0.01, lambda x, rng: sme_config(t_end=x)),
    ("MeasurementPolicy", "theta", THETA, 0.5,
     lambda x, rng: MeasurementPolicy("relative_angle", theta=x)),
    ("MeasurementPolicy", "phi", PHI, 0.5,
     lambda x, rng: MeasurementPolicy("relative_angle", phi=x)),
    ("nonselective_solve", "k", RATE, 1.0,
     lambda x, rng: nonselective_solve(MIXED, SIGMA_Z, x, SIGMA_X, 0.2, [0.0, 0.5])),
    ("nonselective_solve", "beta", RATE, 0.2,
     lambda x, rng: nonselective_solve(MIXED, SIGMA_Z, 1.0, SIGMA_X, x, [0.0, 0.5])),
    ("inverse_zeno_successes", "n_measurements", COUNT, 2,
     lambda x, rng: inverse_zeno_successes(UP, DOWN, x, 3, rng)),
    ("inverse_zeno_successes", "runs", COUNT, 3,
     lambda x, rng: inverse_zeno_successes(UP, DOWN, 2, x, rng)),
    ("strength_rate_numeric", "n_traj", COUNT, 6, lambda x, rng: rates(n_traj=x)),
    ("strength_rate_numeric", "n_batches", COUNT, 2, lambda x, rng: rates(n_batches=x)),
    ("strength_rate_numeric", "n_steps", COUNT, 5, lambda x, rng: rates(n_steps=x)),
    ("strength_rate_numeric", "k", RATE, 1.0, lambda x, rng: rates(k=x)),
    ("KappaMeasurement", "theta", THETA, 0.5, lambda x, rng: KappaMeasurement(0.75, theta=x)),
    ("KappaMeasurement", "phi", PHI, 0.5, lambda x, rng: KappaMeasurement(0.75, phi=x)),
    ("theta_sweep", "theta", THETA, 0.5, lambda x, rng: theta_sweep(0.1, 0.75, [0.0, x])),
    ("gaussian_weak_povm", "k", POSITIVE, 1.0, lambda x, rng: gaussian_weak_povm(SIGMA_Z, x, 0.01)),
    ("gaussian_weak_povm", "dt", POSITIVE, 0.01, lambda x, rng: gaussian_weak_povm(SIGMA_Z, 1.0, x)),
    ("poisson_povm", "k", POSITIVE, 1.0, lambda x, rng: poisson_povm(SIGMA_Z, x, 1e-4)),
    ("poisson_povm", "dt", POSITIVE, 1e-4, lambda x, rng: poisson_povm(SIGMA_Z, 1.0, x)),
    ("optimal_feedback", "mu", RATE, 1.0,
     lambda x, rng: optimal_feedback(np.array([[0.6, 0.2], [0.2, 0.4]]), UP, x)),
]


@pytest.mark.parametrize("call, name, value", [
    pytest.param(call, name, value, id=f"{entry}-{name}-{value!r}")
    for entry, name, kind, _valid, call in ENTRY_POINTS for value in INVALID[kind]
])
def test_every_entry_point_refuses_a_bad_value_by_name(call, name, value):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"^{name} must "):
        call(value, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("call, valid", [
    pytest.param(call, valid, id=f"{entry}-{name}")
    for entry, name, _kind, valid, call in ENTRY_POINTS
])
def test_every_entry_point_takes_numpy_numbers(call, valid):
    # a numpy integer is a count, and a numpy float a rate or an angle
    numpy_value = np.int64(valid) if isinstance(valid, int) else np.float64(valid)
    call(numpy_value, np.random.default_rng(0))


def test_a_count_refusal_prints_the_repr_that_names_the_type():
    # the type is what is wrong with np.float64(2.5), and its repr says so;
    # a count below its least is wrong in value, which prints plain
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=re.escape(
            f"runs must be a whole number, got {np.float64(2.5)!r}")):
        inverse_zeno_successes(UP, DOWN, 2, np.float64(2.5), rng)
    with pytest.raises(ValueError, match=r"^runs must be at least 1, got 0$"):
        inverse_zeno_successes(UP, DOWN, 2, np.int64(0), rng)
