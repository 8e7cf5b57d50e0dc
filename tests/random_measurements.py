"""Random measurement families for the tests: random_pure_measurement draws
a complete family of PSD operators from a generator, so that the golden pins
(SAMPLE_GOLDEN, PURE_GOLDEN) and the property tests of qmfc.povm and
qmfc.metrics run on reproducible random sets."""

import numpy as np

from qmfc.povm import MeasurementOperatorSet
from qmfc.states import _dagger


def random_pure_measurement(dim, n_ops, rng) -> MeasurementOperatorSet:
    """Random family of PSD operators completing to the identity.

    Draws random PSD effects E_i, normalizes them with T^(-1/2) E_i T^(-1/2)
    where T = sum E_i, and takes Omega_i = sqrt(E_i).
    """
    draws = rng.standard_normal((n_ops, 2, dim, dim))  # each operator's real, then imaginary part
    g = draws[:, 0] + 1j * draws[:, 1]
    effects = g @ _dagger(g)
    vals, vecs = np.linalg.eigh(np.add.reduce(effects, axis=0, initial=0))
    inv_sqrt = (vecs * (1.0 / np.sqrt(vals))) @ vecs.conj().T
    e = inv_sqrt @ effects @ inv_sqrt
    lam, v = np.linalg.eigh((e + _dagger(e)) / 2)
    lam = np.clip(lam, 0.0, None)
    return MeasurementOperatorSet((v * np.sqrt(lam)[:, None, :]) @ _dagger(v))
