"""Golden bits of the scalar experiments: zeno and fig1 CSVs, and the
measurement-family functionals of povm and metrics.

The values were recorded on the code before zeno ran as one batch and before
MeasurementOperatorSet kept its operators as one stack, and passed there.
Both changes keep every bit, so these values never move.
"""

import hashlib

import numpy as np

from qmfc.cli import main
from qmfc.metrics import disturbance, strength, uncertainty_p, uncertainty_v
from qmfc.povm import gaussian_weak_povm, outcome_probabilities, random_pure_measurement
from qmfc.states import SIGMA_X, SIGMA_Y, SIGMA_Z

ZENO_SHA256 = {
    0: "f314e112561c59fabff8fc3f410abcf24683dfb27873c4a6df6d62e8b6b514f8",
    1: "015254084f8604e6f2d2471810a23be5fdee4259d918f8af45f921aef2e909f9",
    2: "fcbee0599c02efd4e307862ca494528e03edb5dd91b416557e1f3d4f44fbc87c",
}
FIG1_SHA256 = "2639b10a7cea105c22eaa1dc0a35a708d2796693e8c00f6055b2f93d65bf8162"

# float.hex of strength (u_v, u_p, s_v, s_p), disturbance (n_e_v, n_e_p,
# i_f_p), uncertainty_v, uncertainty_p, and the SHA-256 of the float.hex of
# every outcome probability
WEAK_GOLDEN = (
    ("0x1.58d9d7b68ea06p-1", "0x1.ec4a226bb1424p-2", "0x1.58198dfc9cfe0p-5",
     "0x1.47fe4a5f02120p-4"),
    ("0x1.a808ca4f66100p-9", "0x1.90d66df9d5300p-9", "0x1.3135685af73d8p-1"),
    "0x1.2fd879a3f2fd0p-1",
    "0x1.9d952f4a11850p-2",
    "6e84fd4b017d4155f7d6d6391e818f640ee3626023c62dfbc46a867faf74126e",
)
PURE_GOLDEN = (
    ("0x1.ac97c5e0ba1a8p-1", "0x1.04bd091d81864p-1", "0x1.233148d62a8c4p-2",
     "0x1.dac81267fe91cp-2"),
    ("0x1.bb4e6c147c6d0p-4", "0x1.f5d9189ed6420p-5", "0x1.5c99335990352p-1"),
    "0x1.195ab5cbe692fp-1",
    "0x1.46cd994cdf95cp-2",
    "b33911d00fa4c8b398c4c4da65bb18653bcbb65f14c83f7013cf3a092a874e71",
)


def zeno_digest(tmp_path, seed):
    out = tmp_path / f"zeno{seed}.csv"
    assert main(["--experiment", "zeno", "--m-list", "2,10,50", "--runs", "1000",
                 "--seed", str(seed), "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def fig1_digest(tmp_path):
    out = tmp_path / "fig1.csv"
    assert main(["--experiment", "fig1", "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def weak_family():
    """A Gaussian weak measurement of a seeded spin axis, and a mixed state."""
    rng = np.random.default_rng(5)
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    q = axis[0] * SIGMA_X + axis[1] * SIGMA_Y + axis[2] * SIGMA_Z
    return gaussian_weak_povm(q, 1.0, 1e-2), np.diag([0.7, 0.3]).astype(complex)


def pure_family():
    """A random three-outcome pure measurement on a qutrit, and a random state."""
    rng = np.random.default_rng(7)
    mset = random_pure_measurement(3, 3, rng)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rho = g @ g.conj().T
    return mset, rho / np.trace(rho).real


def family_values(family):
    mset, rho = family
    s, d = strength(mset), disturbance(mset, rho)
    probs = outcome_probabilities(mset, rho)
    return (
        tuple(float(v).hex() for v in (s.u_v, s.u_p, s.s_v, s.s_p)),
        tuple(float(v).hex() for v in (d.n_e_v, d.n_e_p, d.i_f_p)),
        float(uncertainty_v(mset, rho)).hex(),
        float(uncertainty_p(mset, rho)).hex(),
        hashlib.sha256(" ".join(float(p).hex() for p in probs).encode()).hexdigest(),
    )


def test_zeno_csv_bits(tmp_path):
    assert {s: zeno_digest(tmp_path, s) for s in ZENO_SHA256} == ZENO_SHA256


def test_fig1_csv_bits(tmp_path):
    assert fig1_digest(tmp_path) == FIG1_SHA256


def test_weak_family_bits():
    assert family_values(weak_family()) == WEAK_GOLDEN


def test_pure_family_bits():
    assert family_values(pure_family()) == PURE_GOLDEN
