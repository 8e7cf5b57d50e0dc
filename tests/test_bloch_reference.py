"""The Bloch-vector reference (tests/bloch_reference.py) measures the same
spin direction and solves the same conditioned dynamics as the matrix engine."""

import numpy as np

from bloch_reference import bloch_step, measured_axis
from qmfc.ensemble import EnsembleConfig, _BlochKernel, precessing_plus_x
from qmfc.sde import MeasurementPolicy, SmeConfig, _local_axis, _relative_axis
from qmfc.states import SIGMA_X, SIGMA_Y, SIGMA_Z

PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)


def density(r):
    return (np.eye(2) + sum(c * s for c, s in zip(r, PAULIS))) / 2


def engine_axis(r, theta, phi):
    # the engine's measured axis, with no previous frame, for a Bloch vector
    # (3,), passed as Python floats, or for the columns of a (3, m) array
    norm = np.sqrt(np.sum(r * r, axis=0))
    if r.ndim == 1:
        r, norm = r.tolist(), float(norm)
    return _relative_axis(r, norm, _local_axis(theta, phi), (0.0, 0.0))[0]


def random_bloch(rng, lo, hi):
    r = rng.standard_normal(3)
    return r * rng.uniform(lo, hi) / np.linalg.norm(r)


def test_measured_axis_matches_engine_convention():
    # the engine's axis on Python floats, state by state, and on one array of all 100
    rng = np.random.default_rng(11)
    cases = [(random_bloch(rng, 0.05, 1.0), rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
             for _ in range(100)]
    r, theta, phi = (np.array(column) for column in zip(*cases))
    r = r.T
    want = measured_axis(r, theta, phi)
    got = np.array([[float(c) for c in engine_axis(r_j, theta_j, phi_j)]
                    for r_j, theta_j, phi_j in cases]).T
    assert np.max(np.abs(got - want)) < 1e-12
    assert np.max(np.abs(np.array(engine_axis(r, theta, phi)) - want)) < 1e-12


def test_one_step_agrees_with_sme_step():
    # Same state, same dW: the two schemes differ at O(dt^1.5) per step,
    # while the step itself moves r by O(sqrt(dt)) (~ 4e-3 at dt = 1e-6).
    # A wrong sign or factor in any drift term would show at O(dt).  The
    # engine's step is one step of a width-one Bloch kernel, which measures
    # the relative_angle axis and feeds back toward the target at time t.
    rng = np.random.default_rng(12)
    target_fn = precessing_plus_x(np.pi)
    dt = 1e-6
    sme = SmeConfig(k=2.0, h0=np.pi * SIGMA_Z, dephasing_beta=0.4, dt=dt, t_end=dt)
    worst = 0.0
    for _ in range(100):
        r = random_bloch(rng, 0.3, 0.99)
        theta, phi = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
        t = rng.uniform(0, 2)
        cfg = EnsembleConfig(realizations=1, master_seed=None, sme=sme,
                             policy=MeasurementPolicy(mode="relative_angle", theta=theta, phi=phi),
                             mu=10.0, rho0=density(r), target_fn=target_fn, stat_stride=1)
        batch = _BlochKernel(cfg, 1)
        dw = rng.standard_normal() * np.sqrt(dt)
        batch.step(batch.target(target_fn(t)), np.array([dw]))
        ref = bloch_step(r[:, None].copy(), t, np.array([dw]), theta=theta, phi=phi,
                         k=2.0, mu=10.0, beta=0.4, omega=np.pi, dt=dt)[:, 0]
        worst = max(worst, float(np.max(np.abs(np.array(batch.r) - ref))))
    assert worst < 2e-7
