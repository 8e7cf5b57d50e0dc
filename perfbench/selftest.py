"""Self-test of the benchmark, at smoke size.

    python3 perfbench/selftest.py

For each workload it runs the end-to-end and traced measurements for a few
small passes and asserts that every metric BENCHMARK.json lists is emitted
(plus the printed-only raw seconds, unit_ms_p90 and error_rate), that the clean outputs
pass their gates, and that every gate rejects a deliberately corrupted copy
of each kind of output.  It also checks that the tracer restores qmfc on
exit and that the benchmark refuses to run without the package sources.
Exits non-zero on the first failed check.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import numpy as np

import run
from spans import MODULES, Tracer
from workloads import WORKLOADS, Fig2QubitEnsemble, read_csv_rows

ROOT = run.ROOT
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in BENCH["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCH["per_layer"]]
# raw figures printed beside the gated ones, which are in reference-kernel units
PRINTED_ONLY = ("wall_s", "traj_steps_per_s", "unit_ms_p50", "unit_ms_p90", "error_rate")


def expect(condition, message):
    if not condition:
        raise AssertionError(message)


def corrupt_csv(path, workdir, edit):
    """Copy a CLI output CSV with edit(rows) applied."""
    with open(path) as fh:
        header = fh.readline()
    rows = read_csv_rows(path)
    edit(rows)
    out = Path(tempfile.mkstemp(suffix=".csv", dir=workdir)[1])
    out.write_text(header + "".join(",".join(repr(v) for v in row) + "\n" for row in rows))
    return str(out)


def corruptions(workdir):
    """Label prefix -> function turning a clean output into one its gate must reject."""

    def csv_edit(edit):
        return lambda out: (out[0], corrupt_csv(out[1], workdir, edit))

    def set_cell(r, c, v):
        def edit(rows):
            rows[r][c] = v
        return edit

    def scale_cell(r, c, f):
        def edit(rows):
            rows[r][c] *= f
        return edit

    def off_diagonal_shift(states):
        bad = states.copy()
        bad[..., 0, 1] += 0.05
        bad[..., 1, 0] += 0.05
        return bad

    return {
        "fig2": csv_edit(set_cell(1, 1, 1.5)),                       # purity above 1
        "run_ensemble": lambda s: dataclasses.replace(s, purity_mean=s.purity_mean - 1.0),
        "ensemble_states-N3-mu0": off_diagonal_shift,                # mean off the ODE
        "ensemble_states-N4-mu0": off_diagonal_shift,
        "ensemble_states": lambda s: s - 0.6 * np.eye(s.shape[-1]),  # negative eigenvalue
        "rates-N2": csv_edit(scale_cell(0, 1, 1.5)),                 # rate_p 50% high
        "rates": lambda e: dataclasses.replace(e, rate_v=e.rate_v * 1.5),
        "trajectory": lambda r: dataclasses.replace(
            r, fb_hamiltonians=r.fb_hamiltonians * 1.1),             # Tr[H^2] = 1.21 mu
        "zeno": csv_edit(set_cell(0, 1, 1.0)),                       # M=2 rate 1 vs 0.25
        "fig1": csv_edit(set_cell(3, 2, float("nan"))),
        "gaussian_weak_povm": lambda m: types.SimpleNamespace(
            ops=m.ops[:-1] + (np.full((2, 2), np.nan),)),
        "kappa_povm": lambda m: types.SimpleNamespace(ops=(np.full((2, 2), np.inf),) + m.ops[1:]),
        "sample_outcome": lambda o: dataclasses.replace(o, probability=0.0),
        "kappa_sample": lambda o: dataclasses.replace(o, post_state=2.0 * o.post_state),
        "strength": lambda r: dataclasses.replace(r, u_p=float("nan")),
        "disturbance": lambda r: dataclasses.replace(r, n_e_v=float("inf")),
        "optimal_unitary": lambda u: 1.1 * u,
    }


def corruptor(table, label):
    matches = [k for k in table if label.startswith(k)]
    expect(matches, f"no corruption defined for output {label!r}")
    return table[max(matches, key=len)]


def check_gates_reject_corruption(workload, workdir):
    table = corruptions(workdir)
    checked = set()
    for label, gate, output in workload.results:
        if label in checked:
            continue
        checked.add(label)
        expect(gate(output) == [], f"{workload.name}/{label}: clean output failed its gate")
        expect(gate(corruptor(table, label)(output)),
               f"{workload.name}/{label}: gate accepted a corrupted output")
        if isinstance(output, tuple):  # a CLI run: (exit code, CSV path)
            expect(gate((3, output[1])), f"{workload.name}/{label}: gate accepted exit code 3")

    def reject():
        raise workload.qmfc.sde.StepRejected("deliberate")

    workload.call("rejected", None, reject)
    label, gate, output = workload.results.pop()
    expect(gate(output), f"{workload.name}: a StepRejected did not count as a failure")
    return len(checked)


def check_tracer_restores(qmfc):
    before = {(m, k): v for m in MODULES for k, v in vars(getattr(qmfc, m)).items()}
    commands = dict(qmfc.cli._COMMANDS)
    with Tracer(qmfc):
        for copy in (qmfc.ensemble.optimal_feedback, qmfc.ensemble.trajectory_rng,
                     qmfc.cli._COMMANDS["fig2"]):
            expect(hasattr(copy, "__wrapped__"), f"{copy.__name__} was not wrapped")
    after = {(m, k): v for m in MODULES for k, v in vars(getattr(qmfc, m)).items()}
    expect(before == after, "tracer left qmfc module attributes patched")
    expect(commands == qmfc.cli._COMMANDS, "tracer left the cli command table patched")


def check_refuses_without_sources(workdir):
    bare = Path(tempfile.mkdtemp(dir=workdir))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", "scalar_calls", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    expect(proc.returncode != 0, "benchmark ran without the qmfc sources")
    expect('"correct"' not in proc.stdout, "benchmark printed a result without the sources")


def main():
    out_root = ROOT / ".perfbench_out"
    out_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=out_root))
    try:
        qmfc = run.import_qmfc()
        check_tracer_restores(qmfc)
        probe = Fig2QubitEnsemble(qmfc, 5, workdir, smoke=True)
        for name, cls in WORKLOADS.items():
            workload = cls(qmfc, 5, workdir, smoke=True)
            workload.warm_up()

            metrics, attempted, failed, problems, notes = run.end_to_end(workload, 0.0, [0.1])
            expect(failed == 0 and not problems, f"{name}: clean smoke run failed {problems}")
            expect(list(metrics) == END_TO_END, f"{name}: end-to-end metrics {list(metrics)}")
            for printed in PRINTED_ONLY:
                expect(any(n.startswith(printed) for n in notes), f"{name}: {printed} not printed")
            workload.run_pass()
            n_gated = check_gates_reject_corruption(workload, workdir)
            workload.results.clear()

            metrics, attempted, failed, problems, notes = run.traced(
                qmfc, workload, 0.0, probe, workdir / f"spans-{name}.csv")
            expect(failed == 0 and not problems, f"{name}: clean traced run failed {problems}")
            expect(sorted(metrics) == sorted(PER_LAYER),
                   f"{name}: per-layer metrics differ: "
                   f"{sorted(set(metrics) ^ set(PER_LAYER))}")
            shares = sum(metrics[f"{m}.self_frac"][0] for m in MODULES)
            covered = shares + metrics["trace.uncovered_frac"][0]
            expect(abs(covered - 1.0) < 1e-6, f"{name}: self shares sum to {covered}")
            print(f"selftest: {name} ok ({attempted} operations, "
                  f"{n_gated} kinds of output gated clean and rejected corrupted)")
        check_refuses_without_sources(workdir)
        print("selftest: refuses to run without src/qmfc ok")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
