"""End-to-end acceptance checks, one per shipped claim.

Each test prints a single PASS/FAIL line so the suite output doubles as an
acceptance report.  The fig2-style ensemble checks are statistical and ordinal
(orderings and error-bar consistency), not value-matching.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from bloch_reference import theta_profile
from qmfc.cli import main
from qmfc.ensemble import (
    EnsembleConfig,
    ensemble_states,
    precessing_plus_x,
    theta_experiment,
)
from qmfc.feedback import (
    first_order_gain,
    optimal_feedback,
    optimal_unitary,
    second_order_gain,
)
from qmfc.metrics import strength, theta_sweep
from qmfc.povm import (
    MeasurementOperatorSet,
    nonselective_apply,
    random_pure_measurement,
)
from qmfc.sde import (
    MeasurementPolicy,
    SmeConfig,
    inverse_zeno_run,
    nonselective_solve,
)
from qmfc.states import SIGMA_X, SIGMA_Z, pure_density


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def random_density(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_pure(rng, n):
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return psi / np.linalg.norm(psi)


def random_unitaries(rng, count, n):
    g = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    q, r = np.linalg.qr(g)
    d = np.einsum("mii->mi", r)
    return q * (d / np.abs(d))[:, None, :]


def random_constrained_hamiltonians(rng, count, n, mu):
    g = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    h = (g + np.conj(np.swapaxes(g, 1, 2))) / 2
    norms = np.sqrt(np.einsum("mij,mij->m", h, np.conj(h)).real)
    return h * (np.sqrt(mu) / norms)[:, None, None]


# ---------------------------------------------------------------------------
# shared fuzz corpus for the measurement-averaging criteria


@pytest.fixture(scope="module")
def averaging_corpus():
    rng = np.random.default_rng(2024)
    corpus = []
    for i in range(1000):
        n = (2, 3, 4)[i % 3]
        mset = random_pure_measurement(n, int(rng.integers(2, 5)), rng)
        rho = random_density(rng, n)
        corpus.append((mset, rho, nonselective_apply(mset, rho)))
    return corpus


def test_01_angle_sweep_analytic_values():
    t0 = time.perf_counter()
    grid = np.linspace(0.0, np.pi, 181)
    rows = np.array(theta_sweep(0.1, 0.75, grid))
    elapsed = time.perf_counter() - t0
    i_f_p, n_e_p = rows[:, 1], rows[:, 2]
    ok = (
        n_e_p[0] == 0.0
        and abs(i_f_p[0] - 0.8392857142857142) < 1e-6
        and abs(i_f_p[90] - 0.865) < 1e-6
        and abs(n_e_p[90] - 0.08) < 1e-6
        and np.all(np.diff(i_f_p[:91]) > 0)               # strictly increasing
        and np.allclose(rows[:, 1:], rows[::-1, 1:], atol=1e-10)  # symmetric
        and elapsed < 1.0
    )
    report(1, "angle-sweep analytic values", ok,
           f"(i_f_p(0)={i_f_p[0]:.7f}, i_f_p(pi/2)={i_f_p[90]:.7f}, "
           f"n_e_p(pi/2)={n_e_p[90]:.7f}, {elapsed:.2f}s)")


def test_02_optimal_angle_is_universal():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    grid = np.linspace(0.0, np.pi, 181)
    worst = 0
    for _ in range(100):
        p = rng.uniform(0.05, 0.95)
        kappa = rng.uniform(0.55, 0.95)
        rows = np.array(theta_sweep(p, kappa, grid))
        worst = max(worst, abs(int(np.argmax(rows[:, 1])) - 90))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1 and elapsed < 10.0
    report(2, "information peak at pi/2 for all (p, kappa)", ok,
           f"(max argmax offset {worst} grid steps, {elapsed:.1f}s)")


def test_03_averaging_never_sharpens_spectrum(averaging_corpus):
    t0 = time.perf_counter()
    violations = 0
    for _mset, rho, rho_f in averaging_corpus:
        lam = np.sort(np.linalg.eigvalsh(rho))[::-1]
        lam_f = np.sort(np.linalg.eigvalsh(rho_f))[::-1]
        if not np.all(np.cumsum(lam) >= np.cumsum(lam_f) - 1e-10):
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 30.0
    report(3, "averaged spectrum majorized by input", ok,
           f"({violations} violations in 1000 cases, {elapsed:.1f}s)")


def test_04_fidelity_upper_bound(averaging_corpus):
    rng = np.random.default_rng(4)
    violations = 0
    for _mset, rho, rho_f in averaging_corpus:
        n = rho.shape[0]
        psi = random_pure(rng, n)
        lam_max = np.linalg.eigvalsh(rho).max()
        if np.vdot(psi, rho_f @ psi).real > lam_max + 1e-12:
            violations += 1
    ok = violations == 0
    report(4, "averaged overlap bounded by top eigenvalue", ok,
           f"({violations} violations in 1000 cases)")


def test_05_strength_unitary_invariance():
    rng = np.random.default_rng(5)
    worst = 0.0
    for i in range(200):
        n = int(rng.integers(2, 5))
        if i % 2 == 0:
            mset = random_pure_measurement(n, int(rng.integers(2, 5)), rng)
        else:
            gs = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                  for _ in range(int(rng.integers(2, 5)))]
            total = sum(g.conj().T @ g for g in gs)
            vals, vecs = np.linalg.eigh(total)
            inv_sqrt = (vecs * (1.0 / np.sqrt(vals))) @ vecs.conj().T
            mset = MeasurementOperatorSet(tuple(g @ inv_sqrt for g in gs))
        u = random_unitaries(rng, 1, n)[0]
        rotated = MeasurementOperatorSet(tuple(u @ om @ u.conj().T for om in mset.ops))
        a, b = strength(mset), strength(rotated)
        if math.isinf(a.s_p) or math.isinf(a.s_v):
            continue
        worst = max(worst, abs(a.s_p - b.s_p), abs(a.s_v - b.s_v))
    identity = strength(MeasurementOperatorSet((np.eye(2, dtype=complex),)))
    p0 = np.diag([1.0, 0.0]).astype(complex)
    mixed_rank = strength(MeasurementOperatorSet(
        (0.5 * p0, np.diag([np.sqrt(0.75), 1.0]).astype(complex))
    ))
    ok = (
        worst < 1e-9
        and identity.s_v == 0.0 and identity.s_p == 0.0
        and mixed_rank.s_v == math.inf and mixed_rank.s_p == math.inf
    )
    report(5, "strength invariant under unitary conjugation", ok,
           f"(max |delta s| = {worst:.2e})")


def test_06_feedback_gain_is_optimal():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    mu = 1.0
    margin1 = margin2 = -np.inf
    constraint_dev = 0.0
    done1 = done2 = 0
    while done1 < 200 or done2 < 200:
        n = int(rng.integers(2, 5))
        if done1 < 200:
            rho = random_density(rng, n)
            psi = random_pure(rng, n)
            dec = optimal_feedback(rho, psi, mu)
            if dec.branch == "first_order":
                done1 += 1
                constraint_dev = max(
                    constraint_dev,
                    abs(np.trace(dec.hamiltonian @ dec.hamiltonian).real - mu),
                )
                best = first_order_gain(dec.hamiltonian, rho, psi)
                hs = random_constrained_hamiltonians(rng, 1000, n, mu)
                comms = hs @ rho - rho @ hs
                gains = np.einsum("i,mij,j->m", psi.conj(), -1j * comms, psi).real
                margin1 = max(margin1, float(gains.max() - best))
        if done2 < 200:
            lam = np.sort(rng.dirichlet(np.ones(n)))[::-1]
            rho = np.diag(lam).astype(complex)
            j = int(rng.integers(1, n))
            psi = np.zeros(n, dtype=complex)
            psi[j] = 1.0
            dec = optimal_feedback(rho, psi, mu)
            if dec.branch == "second_order":
                done2 += 1
                constraint_dev = max(
                    constraint_dev,
                    abs(np.trace(dec.hamiltonian @ dec.hamiltonian).real - mu),
                )
                best = second_order_gain(dec.hamiltonian, rho, psi)
                hs = random_constrained_hamiltonians(rng, 1000, n, mu)
                h_psi = np.einsum("mij,j->mi", hs, psi)
                lam_t = lam[j]
                gains = (
                    np.einsum("mi,ij,mj->m", h_psi.conj(), rho, h_psi).real
                    - lam_t * np.einsum("mi,mi->m", h_psi.conj(), h_psi).real
                )
                margin2 = max(margin2, float(gains.max() - best))
    elapsed = time.perf_counter() - t0
    ok = margin1 <= 1e-10 and margin2 <= 1e-10 and constraint_dev < 1e-9 and elapsed < 60
    report(6, "constrained feedback beats random Hamiltonians", ok,
           f"(worst margins {margin1:.2e} / {margin2:.2e}, "
           f"constraint dev {constraint_dev:.2e}, {elapsed:.1f}s)")


def test_07_optimal_unitary_bound():
    rng = np.random.default_rng(7)
    worst_dev = 0.0
    margin = -np.inf
    for _ in range(200):
        n = int(rng.integers(2, 5))
        rho = random_density(rng, n)
        psi = random_pure(rng, n)
        sigma = pure_density(psi)
        u = optimal_unitary(rho, sigma)
        best = np.vdot(psi, u @ rho @ u.conj().T @ psi).real
        lam_max = np.linalg.eigvalsh(rho).max()
        worst_dev = max(worst_dev, abs(best - lam_max))
        vs = random_unitaries(rng, 1000, n)
        after = vs @ rho @ np.conj(np.swapaxes(vs, 1, 2))
        others = np.einsum("i,mij,j->m", psi.conj(), after, psi).real
        margin = max(margin, float(others.max() - best))
    ok = worst_dev < 1e-10 and margin <= 1e-10
    report(7, "best unitary reaches the top eigenvalue", ok,
           f"(max |overlap - lam_max| = {worst_dev:.2e}, margin {margin:.2e})")


def test_08_trajectory_mean_matches_master_equation():
    t0 = time.perf_counter()
    r = 2000
    cfg = EnsembleConfig(
        realizations=r,
        master_seed=77,
        sme=SmeConfig(k=1.0, h0=0.5 * SIGMA_X, dt=5e-4, t_end=1.0),
        policy=MeasurementPolicy(mode="fixed_observable", observable=SIGMA_Z),
        mu=0.0,
        rho0=np.diag([1.0, 0.0]).astype(complex),
        target_fn=None,
        stat_stride=10,
    )
    ts = [0.25, 0.5, 1.0]
    states = ensemble_states(cfg, ts)
    ref = nonselective_solve(cfg.rho0, SIGMA_Z, 1.0, 0.5 * SIGMA_X, 0.0, ts)
    mean = states.mean(axis=0)
    se = states.std(axis=0, ddof=1) / np.sqrt(r)
    z = np.abs(mean - ref) / np.maximum(np.abs(se), 1e-12)
    elapsed = time.perf_counter() - t0
    ok = bool(np.all(z <= 3.0)) and elapsed < 120
    report(8, "trajectory mean tracks the master equation", ok,
           f"(max |z| = {z.max():.2f} over {r} trajectories, {elapsed:.1f}s)")


def test_09_repeated_projection_dragging():
    t0 = time.perf_counter()
    psi0 = np.array([1.0, 0.0])
    psi1 = np.array([0.0, 1.0])
    runs = 10000
    details = []
    ok = True
    for i, m in enumerate((2, 10, 50)):
        rng = np.random.default_rng(900 + i)
        hits = sum(inverse_zeno_run(psi0, psi1, m, rng)[0] for _ in range(runs))
        rate = hits / runs
        p = float(np.cos(np.pi / (2 * m)) ** (2 * m))
        sigma = np.sqrt(p * (1 - p) / runs)
        ok = ok and abs(rate - p) < 4 * sigma
        details.append(f"M={m}: {rate:.4f} vs {p:.4f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30
    report(9, "stepwise projection success rates", ok,
           f"({'; '.join(details)}, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# closed-loop dephasing-control ensembles (the expensive runs, shared)


def fig2_config(realizations, dt, stat_stride):
    return EnsembleConfig(
        realizations=realizations,
        master_seed=0,
        sme=SmeConfig(k=2.0, h0=np.pi * SIGMA_Z, dephasing_beta=0.4, dt=dt, t_end=2.0),
        policy=MeasurementPolicy(mode="relative_angle", theta=0.0),
        mu=10.0,
        rho0=pure_density(np.array([1.0, 1.0]) / np.sqrt(2.0)),
        target_fn=precessing_plus_x(np.pi),
        stat_stride=stat_stride,
    )


THETA_GRID = [0.0, np.pi / 8, np.pi / 4, 3 * np.pi / 8, np.pi / 2]


@pytest.fixture(scope="module")
def closed_loop_runs():
    full = np.array(theta_experiment(fig2_config(1000, 1e-4, 10), THETA_GRID))
    # Companion run at twice the step, on the same 1e-3 statistics grid and at
    # the same cost in trajectory-steps.  For a first-order scheme the shift
    # from 2 dt to dt bounds the shift from dt to dt / 2.
    doubled = np.array(theta_experiment(fig2_config(1000, 2e-4, 5), THETA_GRID))
    return full, doubled


def test_10_control_improves_with_measurement_angle(closed_loop_runs):
    """Information improves with the measurement angle; at these strengths
    control does not follow it (the information trade-off).

    The measured spin's angle theta from the state sets both what a
    measurement step reveals (purity gain, largest at pi/2) and how far it
    kicks the state's direction (angular diffusion 8k sin^2 theta).  At
    k = 2, mu = 10 the feedback turns the state at only sqrt(2 mu) ~ 4.5
    rad/time, so the purest runs (theta = pi/2) hold the target worst.  The
    overlap profile is cross-checked against an independent Bloch-vector
    integration (test_closed_loop_matches_bloch_reference), and the ordering
    the name describes returns for the overlap once the feedback is strong
    (test_strong_feedback_orders_overlap_in_theta).
    """
    full, doubled = closed_loop_runs

    def ordered(vals, ses):
        for i in range(len(vals) - 1):
            combined = np.hypot(ses[i], ses[i + 1])
            if vals[i + 1] < vals[i] - 2 * combined:
                return False
        return True

    # purity: non-decreasing in theta, with its peak at pi/2
    purity, purity_se = full[:, 1], full[:, 2]
    purity_ok = ordered(purity, purity_se) and int(np.argmax(purity)) == len(THETA_GRID) - 1
    # overlap: the information trade-off.  The most informative angle (pi/2)
    # holds the target measurably worse than the best angle on the grid.
    ovl, ovl_se = full[:, 3], full[:, 4]
    best = int(np.argmax(ovl))
    ovl_deficit = (ovl[best] - ovl[-1]) / np.hypot(ovl_se[best], ovl_se[-1])
    ovl_ok = ovl_deficit > 2.0
    # step-size robustness: doubling dt moves no time-average beyond error bars
    shifts = []
    for col_v, col_se in ((1, 2), (3, 4)):
        combined = np.hypot(full[:, col_se], doubled[:, col_se])
        shifts.append(np.abs(full[:, col_v] - doubled[:, col_v]) / combined)
    max_shift = float(np.max(shifts))
    ok = purity_ok and ovl_ok and max_shift <= 2.0
    report(10, "purity peaks at theta = pi/2, overlap pays for it", ok,
           f"(purity {purity[0]:.4f}->{purity[-1]:.4f} ordered with peak at pi/2={purity_ok}, "
           f"overlap at pi/2 {ovl[-1]:.4f} is {ovl_deficit:.1f} se below "
           f"{ovl[best]:.4f} at theta={THETA_GRID[best]:.4f} (need > 2), "
           f"2dt shift {max_shift:.2f} se (need <= 2))")



def test_closed_loop_matches_bloch_reference(closed_loop_runs):
    # Test 10's sweep against the independent Bloch-vector integration
    # (tests/bloch_reference.py: another scheme, other noise streams) at the
    # same strengths, dt and statistics grid, with four times the
    # realizations so that the engine's error bars dominate.  Each of the
    # ten time averages agrees within 3 combined standard errors.
    full, _ = closed_loop_runs
    ref = np.array(theta_profile(THETA_GRID, k=2.0, mu=10.0, beta=0.4, omega=np.pi,
                                 realizations=4000, dt=1e-4, t_end=2.0, stat_stride=10))
    z = np.concatenate([
        np.abs(full[:, v] - ref[:, v]) / np.hypot(full[:, v + 1], ref[:, v + 1])
        for v in (1, 3)
    ])
    print(f"engine vs Bloch reference: max |z| = {z.max():.2f}; reference overlap "
          + ", ".join(f"{v:.4f}" for v in ref[:, 3]))
    assert z.max() <= 3.0


def test_strong_feedback_orders_overlap_in_theta():
    # With a feedback budget 1000 times larger (mu = 1e4, turning the state
    # at sqrt(2 mu) ~ 141 rad/time) the measurement's kicks are undone at once,
    # and the overlap follows the purity: non-decreasing in theta with its
    # peak at pi/2.  The trade-off of test 10 comes from the limited feedback.
    base = fig2_config(200, 1e-4, 10)
    cfg = dataclasses.replace(base, mu=1e4, sme=dataclasses.replace(base.sme, t_end=1.0))
    rows = np.array(theta_experiment(cfg, THETA_GRID))
    ovl, ovl_se = rows[:, 3], rows[:, 4]
    steps_ok = all(ovl[i + 1] > ovl[i] - 2 * np.hypot(ovl_se[i], ovl_se[i + 1])
                   for i in range(len(ovl) - 1))
    print("mu = 1e4 overlap " + ", ".join(f"{v:.4f}" for v in ovl))
    assert steps_ok and int(np.argmax(ovl)) == len(THETA_GRID) - 1


def test_11_rates_report(tmp_path):
    out = tmp_path / "rates.csv"
    code = main(["--experiment", "rates", "--out", str(out), "--seed", "0"])
    lines = out.read_text().strip().split("\n")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    rel_se_p = rows[:, 2] / np.abs(rows[:, 1])
    rel_se_v = rows[:, 4] / np.abs(rows[:, 3])
    ratio_p, ratio_v = rows[:, 7], rows[:, 8]
    ratio_p_se = rows[:, 2] / rows[:, 5]  # se of the printed-form ratios
    ratio_v_se = rows[:, 4] / rows[:, 6]
    spread_ok = True
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            if abs(ratio_p[i] - ratio_p[j]) > 4 * np.hypot(ratio_p_se[i], ratio_p_se[j]):
                spread_ok = False
            if abs(ratio_v[i] - ratio_v[j]) > 4 * np.hypot(ratio_v_se[i], ratio_v_se[j]):
                spread_ok = False
    manifest = (tmp_path / "rates.csv.manifest.txt").read_text()
    ok = (
        code == 0
        and np.all(rel_se_p < 0.05)
        and np.all(rel_se_v < 0.05)
        and spread_ok
        and "mean_ratio_p_numeric_over_printed" in manifest
    )
    report(11, "purification-rate report", ok,
           f"(ratio_p ~ {ratio_p.mean():.3f}, ratio_v ~ {ratio_v.mean():.3f}, "
           f"max rel se {max(rel_se_p.max(), rel_se_v.max()):.3f})")


def test_12_threaded_runs_are_byte_identical(tmp_path):
    args = [
        "--experiment", "fig2", "--seed", "0", "--realizations", "600",
        "--t-end", "0.1", "--dt", "2.5e-4", "--theta-points", "3",
    ]
    a, b = tmp_path / "t1.csv", tmp_path / "t8.csv"
    code_a = main(args + ["--out", str(a), "--threads", "1"])
    code_b = main(args + ["--out", str(b), "--threads", "8"])
    ok = code_a == 0 and code_b == 0 and a.read_bytes() == b.read_bytes()
    report(12, "thread count never changes the numbers", ok,
           f"({a.stat().st_size} byte CSVs compared)")
