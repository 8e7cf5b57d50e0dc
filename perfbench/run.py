"""Benchmark of the qmfc simulator: one workload per run, end to end or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig2_qubit_ensemble --seed 1 --seconds 20 --trace 0

The package is imported from ./src.  The timed phase repeats one fixed pass
of the workload until --seconds have elapsed (at least MIN_PASSES passes),
then the correctness gates run over every output.  With --trace 0 the last
stdout line reports the end-to-end metrics; with --trace 1 untraced and
traced passes alternate and it reports the per-layer metrics (see
perfbench/README.md).  Scratch files go to .perfbench_out/ in the checkout.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, before qmfc is imported

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from meter import Meter
from spans import Tracer, layer_metrics, write_spans
from workloads import WORKLOADS, Fig2QubitEnsemble

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_PASSES = 3
SETUP_PROBES = 4        # extra cold set-ups, each in a fresh interpreter
P90_MIN_UNITS = 100     # unit_ms_p90 is reported only from this many units


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time set-up and print it (used by the benchmark itself)")
    return parser.parse_args(argv)


def import_qmfc():
    """Import qmfc from this checkout's src/, never from anywhere else."""
    if not (SRC / "qmfc" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no qmfc package under {SRC}")
    sys.path.insert(0, str(SRC))
    import qmfc
    import qmfc.cli

    if Path(qmfc.__file__).resolve().parent != SRC / "qmfc":
        raise SystemExit(f"perfbench: imported qmfc from {qmfc.__file__}, not {SRC}")
    return qmfc


def set_up(args, workdir):
    """Import, input generation and warm-up; returns (qmfc, workload, seconds since start)."""
    qmfc = import_qmfc()
    workload = WORKLOADS[args.workload](qmfc, args.seed, workdir)
    workload.warm_up()
    return qmfc, workload, time.perf_counter() - _T0


def probe_setups(args):
    """Set-up time of SETUP_PROBES fresh interpreters, one after another."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def one_pass(workload):
    """Run one unmetered pass; returns its (wall, CPU) seconds."""
    c0, t0 = time.process_time(), time.perf_counter()
    workload.run_pass()
    return time.perf_counter() - t0, time.process_time() - c0


def timed_passes(workload, seconds):
    """Repeat the pass under a Meter until `seconds` have elapsed, gating the
    outputs after each pass."""
    meter = Meter()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or meter.passes < MIN_PASSES:
        with meter.timed_pass():
            workload.run_pass(meter)
        workload.check()
    return meter.summary()


def provenance(args):
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "qmfc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    revision = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        revision = proc.stdout.strip() or revision
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "git_revision": revision,
        "qmfc_source_sha256": digest.hexdigest(),
    }


def end_to_end(workload, seconds, setup_times):
    """Untraced timed phase and gates; returns (metrics, attempted, failed, problems, notes).

    Pass and unit times are gated in units of the reference kernel ("ref",
    see meter.py), which cancels most of the host's speed drift; the raw
    seconds are printed alongside.
    """
    passes, units, refs = timed_passes(workload, seconds)
    attempted, failed, problems = workload.check()
    wall, wall_ref = (statistics.median(col) for col in passes.T)
    unit_s, unit_ref = units.T
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_ref": (wall_ref, "ref"),
        "traj_steps_per_ref": (workload.traj_steps_per_pass / wall_ref, "1/ref"),
        "unit_ref_p50": (statistics.median(unit_ref), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    n = len(unit_s)
    notes = [f"passes = {len(passes)}, units = {n} ({workload.unit})",
             f"setup_s samples = {', '.join(f'{t:.4f}' for t in setup_times)}",
             f"ref_ms = {statistics.median(refs) * 1e3:.4f} ms "
             f"(reference kernel, median of {len(refs)} timings)",
             f"wall_s = {wall:.6g} s",
             f"traj_steps_per_s = {workload.traj_steps_per_pass / wall:.6g} 1/s",
             f"unit_ms_p50 = {statistics.median(unit_s) * 1e3:.6g} ms (n = {n})"]
    if n >= P90_MIN_UNITS:
        notes.append(f"unit_ms_p90 = {np.percentile(unit_s, 90) * 1e3:.6g} ms (n = {n})")
    else:
        notes.append(f"unit_ms_p90 = n/a (n = {n} < {P90_MIN_UNITS})")
    notes.append(f"error_rate = {failed / attempted:.6g} ({failed}/{attempted} operations)")
    return metrics, attempted, failed, problems, notes


def traced(qmfc, workload, seconds, probe, spans_path):
    """Alternating untraced and traced passes, then the thread probe on `probe`
    (a fig2 workload); returns (metrics, attempted, failed, problems, notes)."""
    tracer = Tracer(qmfc)
    plain_walls, plain_cpus, traced_walls = [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(traced_walls) < MIN_PASSES:
        wall, cpu = one_pass(workload)
        plain_walls.append(wall)
        plain_cpus.append(cpu)
        with tracer:
            traced_walls.append(one_pass(workload)[0])
        workload.check()
    attempted, failed, problems = workload.check()

    nproc = len(os.sched_getaffinity(0))
    speedup, identical = probe.thread_probe(nproc)
    attempted += 1
    if not identical:
        failed += 1
        problems.append(f"fig2 rows differ between threads=1 and threads={nproc}")

    metrics = layer_metrics(tracer.spans, sum(traced_walls), len(traced_walls))
    metrics["ensemble.thread_speedup"] = (speedup, "x")
    metrics["process.cpu_util"] = (sum(plain_cpus) / sum(plain_walls), "ratio")
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0, "ratio")
    write_spans(spans_path, tracer.spans, start)
    notes = [f"passes = {len(plain_walls)} untraced + {len(traced_walls)} traced, "
             f"spans = {len(tracer.spans)} -> {spans_path}",
             f"thread probe: threads=1 vs threads={nproc} rows byte-identical = {identical}",
             f"error_rate = {failed / attempted:.6g} ({failed}/{attempted} operations)"]
    return metrics, attempted, failed, problems, notes


def main(argv=None):
    args = parse_args(argv)
    out_root = ROOT / ".perfbench_out"
    out_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root))
    try:
        qmfc, workload, setup_main = set_up(args, workdir)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_main}))
            return 0
        print("provenance " + json.dumps(provenance(args), sort_keys=True))
        if args.trace:
            probe = Fig2QubitEnsemble(qmfc, args.seed, workdir)
            spans_path = out_root / f"spans-{args.workload}-seed{args.seed}.csv"
            result = traced(qmfc, workload, args.seconds, probe, spans_path)
        else:
            result = end_to_end(workload, args.seconds, [setup_main] + probe_setups(args))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics, attempted, failed, problems, notes = result
    for note in notes:
        print(f"{args.workload}: {note}")
    for problem in problems[:20]:
        print(f"{args.workload}: GATE FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}: {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
