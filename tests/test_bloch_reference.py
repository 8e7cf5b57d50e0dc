"""The Bloch-vector reference (tests/bloch_reference.py) measures the same
spin direction and solves the same conditioned dynamics as the matrix engine."""

import numpy as np

from bloch_reference import bloch_step, measured_axis
from qmfc.ensemble import precessing_plus_x
from qmfc.feedback import optimal_feedback
from qmfc.sde import _kraus_step, qubit_eigenbasis, relative_observable
from qmfc.states import SIGMA_X, SIGMA_Y, SIGMA_Z

PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)


def density(r):
    return (np.eye(2) + sum(c * s for c, s in zip(r, PAULIS))) / 2


def bloch(op):
    # Bloch vector of a state, or (Tr[op s] / 2) of a spin observable n.sigma
    return np.array([np.trace(op @ s).real for s in PAULIS])


def random_bloch(rng, lo, hi):
    r = rng.standard_normal(3)
    return r * rng.uniform(lo, hi) / np.linalg.norm(r)


def test_measured_axis_matches_engine_convention():
    rng = np.random.default_rng(11)
    for _ in range(100):
        r = random_bloch(rng, 0.05, 1.0)
        theta, phi = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
        q = relative_observable(qubit_eigenbasis(density(r)), theta, phi)
        axis = measured_axis(r[:, None], theta, phi)[:, 0]
        assert np.max(np.abs(bloch(q) / 2 - axis)) < 1e-12


def test_one_step_agrees_with_sme_step():
    # Same state, same dW: the two schemes differ at O(dt^1.5) per step,
    # while the step itself moves r by O(sqrt(dt)) (~ 4e-3 at dt = 1e-6).
    # A wrong sign or factor in any drift term would show at O(dt).
    rng = np.random.default_rng(12)
    target_fn = precessing_plus_x(np.pi)
    dt = 1e-6
    worst = 0.0
    for _ in range(100):
        r = random_bloch(rng, 0.3, 0.99)
        theta, phi = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
        t = rng.uniform(0, 2)
        rho = density(r)
        q = relative_observable(qubit_eigenbasis(rho), theta, phi)
        h = np.pi * SIGMA_Z + optimal_feedback(rho, target_fn(t), 10.0).hamiltonian
        dw = rng.standard_normal() * np.sqrt(dt)
        new = _kraus_step(rho, q, 2.0, h, dt, dw, beta=0.4)[0]
        ref = bloch_step(r[:, None].copy(), t, np.array([dw]), theta=theta, phi=phi,
                         k=2.0, mu=10.0, beta=0.4, omega=np.pi, dt=dt)[:, 0]
        worst = max(worst, float(np.max(np.abs(bloch(new) - ref))))
    assert worst < 2e-7
