"""Golden bits of the fig2 qubit ensemble's time averages.

SHA-256 of the CSV of `qmfc --experiment fig2 --realizations 200 --t-end
0.05 --theta-points 3` at seeds 0-2, recorded with numpy 2.4.6 on x86-64
while the matrix kernel still switched to np.matmul below 32 matrices.  fig2
runs on the Bloch kernel, which that switch never reached, so these values
never move with it.

FIG2_ONE_BLOCK_SHA256 pins the same CSV at --t-end 0.02: 200 steps, one
noise block, whose streams are each drawn once through a single reset
generator.  Recorded with numpy 2.4.6 on x86-64 while every stream was still
opened on its own, so the pins hold the draws of the opened streams.
"""

import hashlib

import pytest

from qmfc.cli import main

FIG2_SHA256 = {
    0: "8920e48101f530f2cfcb74ef3c7b11d742a9b277ebf3060757586e24ae866846",
    1: "b887a1c444b8e3e8c57f0acfaced7cbbc8638279a9f8c4ae40dee3e961d6904b",
    2: "e3adc27f87cde1b89e50b9f02c1102e354ed3331dfb8121d739a0f6bb69940a7",
}

FIG2_ONE_BLOCK_SHA256 = {
    0: "7b35e317cb8824c9fad06016ca7eac48512426f0aa8fb2b2a218a146caf2e2ac",
    1: "a59c03dfbb4b7480339ed0baeed57c5713360ca067163ea41076dc1be73757cf",
    2: "7235fa2fb66d7c63320b9138bd3b3c99fe46e3eb86c1652a595810499131661b",
}


@pytest.mark.parametrize("seed", sorted(FIG2_SHA256))
def test_fig2_csv_is_pinned(tmp_path, seed):
    out = tmp_path / f"fig2_{seed}.csv"
    assert main(["--experiment", "fig2", "--realizations", "200", "--t-end", "0.05",
                 "--theta-points", "3", "--seed", str(seed), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FIG2_SHA256[seed]


@pytest.mark.parametrize("seed", sorted(FIG2_ONE_BLOCK_SHA256))
def test_one_block_fig2_csv_is_pinned(tmp_path, seed):
    out = tmp_path / f"fig2_{seed}.csv"
    assert main(["--experiment", "fig2", "--realizations", "200", "--t-end", "0.02",
                 "--theta-points", "3", "--seed", str(seed), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FIG2_ONE_BLOCK_SHA256[seed]
