"""The three benchmark workloads and the correctness gates on their outputs.

A workload is built from a seed and a scratch directory.  ``run_pass`` makes
one fixed set of calls into qmfc (the same inputs every pass), timing them
through a ``meter.Meter`` when given one, and keeps each call's raw output.
``check`` runs the gates over the kept outputs outside the timed phase
(after every pass, so memory does not grow with the run) and returns the
running (attempted, failed, problems).  An operation is
one call into qmfc: a CLI experiment or a public API call.  It fails on a
``StepRejected``, a non-zero CLI exit, a non-finite output or a failed gate.

Statistical gates use fixed z bounds, set before any run:
  * Z_MEAN = 5 for ensemble means against the master equation and for zeno
    success rates against cos^(2M)(pi/2M) (binomial se);
  * Z_RATE = 6 for the Monte Carlo strength rates against the Ito oracles.
    Over 25 seeds at k = 1 the z of those estimates had a standard
    deviation of 1.27 (the 20-batch se under-reads the scatter) and, at
    N = 4, a mean of -0.94 for the purity rate (finite-horizon bias); the
    worst of the 150 was -4.31.
No gate tests acceptance criterion 10 or the printed-rate ratios.
"""

import contextlib
import csv
import dataclasses
import math
import time
from pathlib import Path

import numpy as np

Z_MEAN = 5.0
Z_RATE = 6.0
TOL = 1e-9


# --------------------------------------------------------------------------
# gates: each returns a list of problems, empty when the output passes


def check_rows_finite(rows, n_rows, n_cols):
    if len(rows) != n_rows:
        return [f"expected {n_rows} rows, got {len(rows)}"]
    arr = np.asarray(rows, dtype=float)
    if arr.shape != (n_rows, n_cols):
        return [f"expected {n_cols} columns, got shape {arr.shape}"]
    if not np.all(np.isfinite(arr)):
        return ["non-finite value in output rows"]
    return []


def check_fig2_rows(rows, theta_points):
    """(theta, purity, se, overlap, se) rows: finite, on the theta grid, physical."""
    problems = check_rows_finite(rows, theta_points, 5)
    if problems:
        return problems
    arr = np.asarray(rows, dtype=float)
    if not np.allclose(arr[:, 0], np.linspace(0.0, np.pi / 2, theta_points), atol=1e-12):
        problems.append("theta column is not the requested grid")
    if np.any(arr[:, 1] < 0.5 - TOL) or np.any(arr[:, 1] > 1.0 + TOL):
        problems.append("qubit purity outside [1/2, 1]")
    if np.any(arr[:, 3] < -TOL) or np.any(arr[:, 3] > 1.0 + TOL):
        problems.append("overlap outside [0, 1]")
    if np.any(arr[:, [2, 4]] < 0.0):
        problems.append("negative standard error")
    return problems


def check_physical_states(states):
    """Every matrix in a (..., N, N) stack is Hermitian, unit-trace and PSD."""
    states = np.asarray(states)
    if not np.all(np.isfinite(states)):
        return ["non-finite state"]
    problems = []
    if np.max(np.abs(states - np.conj(np.swapaxes(states, -1, -2)))) > TOL:
        problems.append("state is not Hermitian")
    if np.max(np.abs(np.trace(states, axis1=-2, axis2=-1) - 1.0)) > TOL:
        problems.append("state trace deviates from 1")
    herm = (states + np.conj(np.swapaxes(states, -1, -2))) / 2
    if np.linalg.eigvalsh(herm).min() < -TOL:
        problems.append("state has a negative eigenvalue")
    return problems


def check_ensemble_stats(stats, n):
    """Mean purity in [1/N, 1], mean overlap in [0, 1], all finite."""
    series = (stats.purity_mean, stats.purity_se, stats.overlap_mean, stats.overlap_se)
    scalars = (stats.time_avg_purity, stats.time_avg_purity_se,
               stats.time_avg_overlap, stats.time_avg_overlap_se)
    if not all(np.all(np.isfinite(s)) for s in series) or not np.all(np.isfinite(scalars)):
        return ["non-finite ensemble statistic"]
    problems = []
    if np.any(stats.purity_mean < 1.0 / n - TOL) or np.any(stats.purity_mean > 1.0 + TOL):
        problems.append(f"mean purity outside [1/{n}, 1]")
    if np.any(stats.overlap_mean < -TOL) or np.any(stats.overlap_mean > 1.0 + TOL):
        problems.append("mean overlap outside [0, 1]")
    return problems


def check_mean_matches_reference(states, reference):
    """Entrywise |mean - reference| <= Z_MEAN se over the trajectories.

    states has shape (R, n_checkpoints, N, N); reference (n_checkpoints, N, N).
    """
    problems = check_physical_states(states)
    if problems:
        return problems
    r = states.shape[0]
    mean = states.mean(axis=0)
    se = states.std(axis=0, ddof=1) / np.sqrt(r)
    z = np.abs(mean - reference) / np.maximum(se, 1e-12)
    if z.max() > Z_MEAN:
        return [f"ensemble mean departs from the master equation by {z.max():.2f} se"]
    return []


def check_rates(rate_p, rate_p_se, rate_v, rate_v_se, oracle_p, oracle_v):
    """Numeric strength rates within Z_RATE se of the Ito oracles."""
    values = (rate_p, rate_p_se, rate_v, rate_v_se)
    if not np.all(np.isfinite(values)) or min(rate_p_se, rate_v_se) <= 0.0:
        return ["non-finite rate or non-positive se"]
    problems = []
    for label, est, se, oracle in (("p", rate_p, rate_p_se, oracle_p),
                                   ("v", rate_v, rate_v_se, oracle_v)):
        z = (est - oracle) / se
        if abs(z) > Z_RATE:
            problems.append(f"rate_{label} {est:.4g} is {z:.2f} se from the Ito oracle {oracle:.4g}")
    return problems


def check_zeno_rows(rows, m_values, runs):
    """Each empirical success rate within Z_MEAN binomial se of cos^(2M)(pi/2M)."""
    problems = check_rows_finite(rows, len(m_values), 5)
    if problems:
        return problems
    for row, m in zip(rows, m_values):
        p = math.cos(math.pi / (2 * m)) ** (2 * m)
        sigma = math.sqrt(p * (1.0 - p) / runs)
        if int(row[0]) != m:
            problems.append(f"row for M={int(row[0])}, expected M={m}")
        elif abs(row[1] - p) > Z_MEAN * sigma:
            problems.append(f"M={m}: rate {row[1]:.4f} is {abs(row[1] - p) / sigma:.2f} se "
                            f"from {p:.4f}")
    return problems


def check_feedback_norms(hamiltonians, mu):
    """Every feedback Hamiltonian is Hermitian with Tr[H^2] = mu, or is exactly 0 (no-op)."""
    h = np.asarray(hamiltonians)
    if not np.all(np.isfinite(h)):
        return ["non-finite feedback Hamiltonian"]
    if np.max(np.abs(h - np.conj(np.swapaxes(h, -1, -2))), initial=0.0) > TOL:
        return ["feedback Hamiltonian is not Hermitian"]
    tr_h2 = np.einsum("tij,tji->t", h, h).real
    zero = ~np.any(h != 0, axis=(1, 2))
    bad = ~zero & (np.abs(tr_h2 - mu) > TOL * max(mu, 1.0))
    if np.any(bad):
        worst = tr_h2[bad][np.argmax(np.abs(tr_h2[bad] - mu))]
        return [f"{int(bad.sum())} feedback Hamiltonians with Tr[H^2] != mu (e.g. {worst:.6g})"]
    return []


def check_unitary(u):
    u = np.asarray(u)
    if not np.all(np.isfinite(u)):
        return ["non-finite unitary"]
    if np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))) > 1e-10:
        return ["optimal_unitary result is not unitary"]
    return []


def read_csv_rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return [[float(v) for v in row] for row in reader]


# --------------------------------------------------------------------------
# workloads


@contextlib.contextmanager
def units_from(module, attr, meter):
    """Make each call of module.attr one metered unit while the context is open."""
    original = getattr(module, attr)

    def metered(*args, **kwargs):
        with meter.unit():
            return original(*args, **kwargs)

    setattr(module, attr, metered)
    try:
        yield
    finally:
        setattr(module, attr, original)


class Workload:
    name = ""
    unit = ""

    def __init__(self, qmfc, seed, workdir):
        self.qmfc = qmfc
        self.seed = int(seed)
        self.workdir = workdir
        self.meter = None    # set by run_pass; None runs the calls unmetered
        self.results = []    # (label, gate, output) per operation, until checked
        self.attempted, self.failed, self.problems = 0, 0, []
        self._files = 0

    def out_path(self, label):
        self._files += 1
        return str(self.workdir / f"{self.name}-{label}-{self._files}.csv")

    def run_pass(self, meter=None):
        self.meter = meter
        try:
            self.calls()
        finally:
            self.meter = None

    def _run(self, fn, *args, unit=False, **kwargs):
        if self.meter is None:
            return fn(*args, **kwargs)
        return self.meter.call(fn, *args, unit=unit, **kwargs)

    def cli(self, argv, label, gate, unit=False):
        """Run a CLI experiment; the gate gets the CSV rows (read at check time)."""
        out = self.out_path(label)
        rc = self._run(self.qmfc.cli.main, argv + ["--out", out], unit=unit)
        self.results.append((label, _cli_gate(gate), (rc, out)))

    def call(self, label, gate, fn, *args, unit=False, **kwargs):
        """Run one API call; a StepRejected is recorded as a failed operation."""
        try:
            output = self._run(fn, *args, unit=unit, **kwargs)
        except self.qmfc.sde.StepRejected as exc:
            self.results.append((label, _rejected, str(exc)))
            return None
        self.results.append((label, gate, output))
        return output

    def check(self):
        """Gate the outputs kept since the last check and drop them; returns the
        running totals (attempted, failed, problems)."""
        for label, gate, output in self.results:
            self.attempted += 1
            found = gate(output)
            if found:
                self.failed += 1
                self.problems.extend(f"{self.name}/{label}: {p}" for p in found)
        self.results.clear()
        return self.attempted, self.failed, self.problems


def _rejected(message):
    return [f"StepRejected: {message}"]


def _cli_gate(gate):
    def run(output):
        rc, path = output
        if rc != 0:
            return [f"CLI exit code {rc}"]
        return gate(read_csv_rows(path))
    return run


class Fig2QubitEnsemble(Workload):
    """The CLI fig2 experiment: default physics, R = 1000, three theta in [0, pi/2]."""

    name = "fig2_qubit_ensemble"
    unit = "theta point"
    theta_points = 3

    def __init__(self, qmfc, seed, workdir, smoke=False):
        super().__init__(qmfc, seed, workdir)
        # 1000 = three full 256-trajectory chunks plus a partial one
        self.realizations = 24 if smoke else 1000
        self.t_end = 0.002 if smoke else 0.02
        self.traj_steps_per_pass = self.theta_points * self.realizations * round(self.t_end / 1e-4)

    def argv(self, threads=1, realizations=None, t_end=None):
        return ["--experiment", "fig2", "--theta-points", str(self.theta_points),
                "--realizations", str(realizations or self.realizations),
                "--t-end", repr(t_end or self.t_end), "--seed", str(self.seed),
                "--threads", str(threads)]

    def warm_up(self):
        self.qmfc.cli.main(self.argv(realizations=16, t_end=0.002)
                           + ["--out", self.out_path("warm")])

    def gate(self, rows):
        return check_fig2_rows(rows, self.theta_points)

    def calls(self):
        if self.meter is None:
            self.cli(self.argv(), "fig2", self.gate)
        else:
            # theta_experiment calls run_ensemble once per theta point
            with units_from(self.qmfc.ensemble, "run_ensemble", self.meter):
                self.cli(self.argv(), "fig2", self.gate)

    def thread_probe(self, threads):
        """Wall time at 1 thread over wall time at `threads`, and whether the
        two runs wrote byte-identical CSVs."""
        walls, texts = [], []
        for n in (1, threads):
            out = self.out_path(f"threads{n}")
            t0 = time.perf_counter()
            rc = self.qmfc.cli.main(self.argv(threads=n) + ["--out", out])
            walls.append(time.perf_counter() - t0)
            texts.append(Path(out).read_bytes() if rc == 0 else None)
        return walls[0] / walls[1], texts[0] is not None and texts[0] == texts[1]


def _observable(n):
    return np.diag(np.linspace(1.0, -1.0, n) * (n - 1) / 2).astype(complex)


def _random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (g + g.conj().T) / 2
    return h / np.linalg.norm(h, 2)


class GeneralN(Workload):
    """N = 3 and 4 ensembles from I/N toward a basis state, and strength rates."""

    name = "general_n"
    unit = "ensemble or rates call"
    dims = (3, 4)
    mu = 5.0
    k = 1.0
    dt = 1e-3

    def __init__(self, qmfc, seed, workdir, smoke=False):
        super().__init__(qmfc, seed, workdir)
        ens, sde = qmfc.ensemble, qmfc.sde
        self.realizations = 12 if smoke else 300
        t_end = 0.01 if smoke else 0.1
        self.checkpoints = (0.005, 0.01) if smoke else (0.02, 0.05, 0.1)
        self.rate_traj = 400 if smoke else 4000
        rng = np.random.default_rng(self.seed)
        self.configs = {}
        for n in self.dims:
            target = np.zeros(n, dtype=complex)
            target[-1] = 1.0
            sme = sde.SmeConfig(k=self.k, h0=_random_hermitian(rng, n), dt=self.dt, t_end=t_end)
            for mu in (0.0, self.mu):
                self.configs[n, mu] = ens.EnsembleConfig(
                    realizations=self.realizations,
                    master_seed=self.seed,
                    sme=sme,
                    policy=sde.MeasurementPolicy("fixed_observable", observable=_observable(n)),
                    mu=mu,
                    rho0=np.eye(n, dtype=complex) / n,
                    target_fn=lambda t, psi=target: psi,
                )
        # run_ensemble and ensemble_states per config; strength_rate_numeric
        # integrates n_traj trajectories over 50 steps (its default), once
        # through the CLI (N = 2, 4000 trajectories) and once per dimension
        self.traj_steps_per_pass = (2 * len(self.configs) * self.realizations
                                    * round(t_end / self.dt)
                                    + (4000 + len(self.dims) * self.rate_traj) * 50)
        self._references = {}

    def reference(self, n):
        """Outcome-averaged states at the checkpoints, by the adaptive ODE solver."""
        if n not in self._references:
            cfg = self.configs[n, 0.0]
            self._references[n] = self.qmfc.sde.nonselective_solve(
                cfg.rho0, cfg.policy.observable, self.k, cfg.sme.h0, 0.0, self.checkpoints)
        return self._references[n]

    def warm_up(self):
        ens, metrics = self.qmfc.ensemble, self.qmfc.metrics
        for n in self.dims:
            for mu in (0.0, self.mu):
                small = dataclasses.replace(self.configs[n, mu], realizations=2)
                ens.run_ensemble(small)
                ens.ensemble_states(small, self.checkpoints)
            self.reference(n)
            metrics.strength_rate_numeric(_observable(n), self.k, n_traj=40, n_batches=4)
        self.qmfc.cli.main(["--experiment", "rates", "--k-list", "0",
                            "--out", self.out_path("warm")])

    def rates_gate(self, q):
        metrics = self.qmfc.metrics

        def gate(est):
            return check_rates(est.rate_p, est.rate_p_se, est.rate_v, est.rate_v_se,
                               metrics.ito_rate_p(q, self.k), metrics.ito_rate_v(q, self.k))
        return gate

    def cli_rates_gate(self, rows):
        problems = check_rows_finite(rows, 1, 9)
        if problems:
            return problems
        q = self.qmfc.states.SIGMA_Z
        k, rate_p, rate_p_se, rate_v, rate_v_se = rows[0][:5]
        metrics = self.qmfc.metrics
        return check_rates(rate_p, rate_p_se, rate_v, rate_v_se,
                           metrics.ito_rate_p(q, k), metrics.ito_rate_v(q, k))

    def calls(self):
        ens, metrics = self.qmfc.ensemble, self.qmfc.metrics
        for n in self.dims:
            for mu in (0.0, self.mu):
                cfg = self.configs[n, mu]
                label = f"N{n}-mu{mu:g}"
                self.call(f"run_ensemble-{label}", lambda s, n=n: check_ensemble_stats(s, n),
                          ens.run_ensemble, cfg, unit=True)
                if mu == 0.0:
                    gate = lambda s, n=n: check_mean_matches_reference(s, self.reference(n))
                else:
                    gate = check_physical_states
                self.call(f"ensemble_states-{label}", gate,
                          ens.ensemble_states, cfg, self.checkpoints, unit=True)
        self.cli(["--experiment", "rates", "--k-list", repr(self.k), "--seed", str(self.seed)],
                 "rates-N2", self.cli_rates_gate, unit=True)
        for n in self.dims:
            q = _observable(n)
            self.call(f"rates-N{n}", self.rates_gate(q), metrics.strength_rate_numeric,
                      q, self.k, n_traj=self.rate_traj, seed=self.seed + n, unit=True)


class ScalarCalls(Workload):
    """Single closed-loop trajectories, zeno, fig1 and the povm/metrics calls."""

    name = "scalar_calls"
    unit = "trajectory"
    mu = 10.0
    thetas = (0.0, np.pi / 6, np.pi / 3, np.pi / 2)
    m_values = (2, 10, 50)

    def __init__(self, qmfc, seed, workdir, smoke=False):
        super().__init__(qmfc, seed, workdir)
        sde, states, ens = qmfc.sde, qmfc.states, qmfc.ensemble
        self.n_steps = 20 if smoke else 200
        self.zeno_runs = 50 if smoke else 1000
        self.fig1_points = 5 if smoke else 181
        self.cfg = sde.SmeConfig(k=2.0, h0=np.pi * states.SIGMA_Z, dephasing_beta=0.4,
                                 dt=1e-4, t_end=self.n_steps * 1e-4)
        self.target_fn = ens.precessing_plus_x(np.pi)
        plus_x = states.pure_density(np.array([1.0, 1.0]) / np.sqrt(2.0))
        self.trajectories = []
        for i, theta in enumerate(self.thetas):
            self.trajectories.append(
                (sde.MeasurementPolicy("relative_angle", theta=float(theta)), plus_x, i))
            self.trajectories.append(
                (sde.MeasurementPolicy("fixed_observable", observable=states.SIGMA_X),
                 np.diag([0.8, 0.2]).astype(complex), len(self.thetas) + i))
        rng = np.random.default_rng(self.seed)
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        self.weak_q = axis[0] * states.SIGMA_X + axis[1] * states.SIGMA_Y + axis[2] * states.SIGMA_Z
        self.kappas = [(float(k), float(th)) for k, th in
                       zip(rng.uniform(0.55, 0.95, 3), rng.uniform(0.0, np.pi, 3))]
        self.unitary_pairs = [(_random_state(rng), _random_state(rng)) for _ in range(3)]
        self.traj_steps_per_pass = len(self.trajectories) * self.n_steps

    def rng(self, stream):
        return np.random.default_rng([self.seed, stream])

    def trajectory_gate(self, result):
        return check_physical_states(result.states) + check_feedback_norms(
            result.fb_hamiltonians, self.mu)

    def zeno_argv(self, runs):
        return ["--experiment", "zeno", "--m-list", ",".join(map(str, self.m_values)),
                "--runs", str(runs), "--seed", str(self.seed)]

    def warm_up(self):
        sde, povm, metrics, cli = (self.qmfc.sde, self.qmfc.povm, self.qmfc.metrics,
                                   self.qmfc.cli)
        short = sde.SmeConfig(k=self.cfg.k, h0=self.cfg.h0, dephasing_beta=self.cfg.dephasing_beta,
                              dt=self.cfg.dt, t_end=5 * self.cfg.dt)
        for policy, rho0, stream in self.trajectories[:2]:
            sde.run_control_trajectory(short, policy, rho0, self.target_fn, self.mu,
                                       self.rng(stream))
        cli.main(self.zeno_argv(10) + ["--out", self.out_path("warm")])
        cli.main(["--experiment", "fig1", "--theta-points", "3", "--out", self.out_path("warm")])
        mset = povm.gaussian_weak_povm(self.weak_q, 1.0, 1e-2)
        mixed = np.eye(2, dtype=complex) / 2
        povm.sample_outcome(mset, mixed, self.rng(99))
        metrics.strength(mset)
        metrics.disturbance(mset, np.diag([0.7, 0.3]).astype(complex))
        povm.kappa_povm(povm.KappaMeasurement(*self.kappas[0]))
        self.qmfc.feedback.optimal_unitary(*self.unitary_pairs[0])

    def calls(self):
        sde, povm, metrics, feedback = (self.qmfc.sde, self.qmfc.povm, self.qmfc.metrics,
                                        self.qmfc.feedback)
        for policy, rho0, stream in self.trajectories:
            self.call(f"trajectory-{policy.mode}-{stream}", self.trajectory_gate,
                      sde.run_control_trajectory, self.cfg, policy, rho0, self.target_fn,
                      self.mu, self.rng(stream), unit=True)
        self.cli(self.zeno_argv(self.zeno_runs), "zeno",
                 lambda rows: check_zeno_rows(rows, self.m_values, self.zeno_runs))
        self.cli(["--experiment", "fig1", "--theta-points", str(self.fig1_points)], "fig1",
                 lambda rows: check_rows_finite(rows, self.fig1_points, 4))

        mset = self.call("gaussian_weak_povm", _finite_ops, povm.gaussian_weak_povm,
                         self.weak_q, 1.0, 1e-2)
        rng = self.rng(99)
        rho = np.eye(2, dtype=complex) / 2
        for i in range(5):
            out = self.call(f"sample_outcome-{i}", _outcome_gate, povm.sample_outcome,
                            mset, rho, rng)
            rho = out.post_state
        self.call("strength", _finite_fields, metrics.strength, mset)
        self.call("disturbance", _finite_fields, metrics.disturbance, mset,
                  np.diag([0.7, 0.3]).astype(complex))
        for kappa, theta in self.kappas:
            kset = self.call(f"kappa_povm-{kappa:.3f}", _finite_ops, povm.kappa_povm,
                             povm.KappaMeasurement(kappa, theta))
            self.call(f"kappa_sample-{kappa:.3f}", _outcome_gate, povm.sample_outcome,
                      kset, rho, rng)
        for i, (rho_a, rho_b) in enumerate(self.unitary_pairs):
            self.call(f"optimal_unitary-{i}", check_unitary, feedback.optimal_unitary,
                      rho_a, rho_b)


def _random_state(rng):
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _finite_ops(mset):
    if not all(np.all(np.isfinite(om)) for om in mset.ops):
        return ["non-finite measurement operator"]
    return []


def _outcome_gate(outcome):
    if not 0.0 < outcome.probability <= 1.0 + TOL:
        return [f"outcome probability {outcome.probability!r} outside (0, 1]"]
    return check_physical_states(outcome.post_state)


def _finite_fields(report):
    values = [getattr(report, f) for f in report.__dataclass_fields__]
    if not all(np.isfinite(v) for v in values):
        return [f"non-finite field in {type(report).__name__}"]
    return []


WORKLOADS = {w.name: w for w in (Fig2QubitEnsemble, GeneralN, ScalarCalls)}
