"""Continuous quantum measurement and Hamiltonian feedback control toolkit."""

__version__ = "0.1.0"

from .states import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    eig_hermitian,
    expm_skew,
    majorizes,
    overlap,
    purity,
    trace_distance,
    von_neumann_entropy,
)
from .povm import (
    KappaMeasurement,
    MeasurementOperatorSet,
    apply_outcome,
    gaussian_weak_povm,
    kappa_povm,
    nonselective_apply,
    outcome_probabilities,
    poisson_povm,
    polar_split,
    sample_outcome,
)
from .metrics import (
    disturbance,
    fidelity_bound_check,
    strength,
    strength_rate_numeric,
    theta_sweep,
    uncertainty_p,
    uncertainty_v,
)
from .feedback import first_order_gain, optimal_feedback, optimal_unitary, second_order_gain
from .sde import (
    MeasurementPolicy,
    SmeConfig,
    StepRejected,
    inverse_zeno_successes,
    run_control_trajectory,
)
from .ensemble import EnsembleConfig, ensemble_states, run_ensemble, theta_experiment
