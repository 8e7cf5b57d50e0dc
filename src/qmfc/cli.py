"""Command-line harness: canonical experiments, CSV emission, run provenance.

Experiments:
  fig1   analytic information/disturbance sweep of a kappa measurement angle
  fig2   closed-loop dephasing-qubit control ensemble over measurement angles
  zeno   repeated slightly-rotated projections dragging a state to a target
  rates  Monte Carlo strength rates vs the printed closed forms

Each experiment returns (header, rows, summary) and writes no file.  main
times it, then writes the CSV (full double precision) and a plain-text
manifest sidecar: experiment, package version, every resolved setting (the
experiment's options in schema order, then seed and threads), duration and
the summary scalars.  A config file key that names no setting of any
experiment, or that is set twice, is refused, and so is a count below 1
(--threads included).  Exit codes: 0 success, 2 config error (nothing is
written), 3 step size too large (StepRejected: the run is refused before
any step, and nothing is written), 4 I/O error.
"""

import argparse
import sys
import time

import numpy as np

from . import __version__
from .ensemble import EnsembleConfig, precessing_plus_x, theta_experiment
from .metrics import (
    ito_rate_p,
    ito_rate_v,
    printed_rate_p,
    printed_rate_v,
    strength_rate_numeric,
    theta_sweep,
)
from .sde import MeasurementPolicy, SmeConfig, StepRejected, inverse_zeno_successes
from .states import SIGMA_Z, _count, pure_density


def format_value(x):
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_value(v) for v in row) + "\n")


def write_manifest(path, entries):
    with open(path, "w") as fh:
        for key, value in entries.items():
            fh.write(f"{key} = {format_value(value)}\n")


def manifest_path(out):
    return out + ".manifest.txt"


def load_config_file(path):
    """Flat key = value document; '#' starts a comment.  A key set twice is refused."""
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = (part.strip() for part in line.split("=", 1))
            key = key.replace(".", "_").replace("-", "_")
            if key in values:
                raise ValueError(f"{path}:{lineno}: key {key!r} is set twice")
            values[key] = raw
    return values


def cmd_fig1(args):
    theta_grid = np.linspace(0.0, np.pi, args.theta_points)
    rows = theta_sweep(args.p, args.kappa, theta_grid)
    best = max(rows, key=lambda row: row[1])
    summary = {"max_i_f_p": best[1], "argmax_theta": best[0]}
    return ("theta", "i_f_p", "n_e_p", "n_e_v"), rows, summary


def cmd_fig2(args):
    theta_grid = np.linspace(0.0, np.pi / 2, args.theta_points)
    sme = SmeConfig(
        k=args.k,
        h0=args.omega * SIGMA_Z,
        dephasing_beta=args.beta,
        dt=args.dt,
        t_end=args.t_end,
    )
    plus_x = np.array([1.0, 1.0]) / np.sqrt(2.0)
    base = EnsembleConfig(
        realizations=args.realizations,
        master_seed=args.seed,
        sme=sme,
        policy=MeasurementPolicy(mode="relative_angle", theta=0.0),
        mu=args.mu,
        rho0=pure_density(plus_x),
        target_fn=precessing_plus_x(args.omega),
    )
    rows = theta_experiment(base, theta_grid)
    summary = {
        "best_theta_by_purity": max(rows, key=lambda r: r[1])[0],
        "best_theta_by_overlap": max(rows, key=lambda r: r[3])[0],
    }
    return ("theta", "purity_mean", "purity_se", "overlap_mean", "overlap_se"), rows, summary


def cmd_zeno(args):
    m_values = [int(v) for v in args.m_list.split(",")]
    psi_start = np.array([1.0, 0.0])
    psi_target = np.array([0.0, 1.0])
    rows = []
    for i, m in enumerate(m_values):
        rng = np.random.Generator(
            np.random.Philox(seed=np.random.SeedSequence(entropy=args.seed, spawn_key=(i,)))
        )
        rate = inverse_zeno_successes(psi_start, psi_target, m, args.runs, rng) / args.runs
        half_width = 1.96 * np.sqrt(max(rate * (1.0 - rate), 1e-12) / args.runs)
        analytic = float(np.cos(np.pi / (2 * m)) ** (2 * m))
        rows.append((m, rate, max(rate - half_width, 0.0), min(rate + half_width, 1.0), analytic))
    return ("M", "empirical_rate", "ci95_low", "ci95_high", "analytic_rate"), rows, {}


def cmd_rates(args):
    k_values = [float(v) for v in args.k_list.split(",")]
    rows = []
    ratios_p, ratios_v = [], []
    for i, k in enumerate(k_values):
        est = strength_rate_numeric(SIGMA_Z, k, seed=args.seed + i)
        printed_p = printed_rate_p(SIGMA_Z, k)
        printed_v = printed_rate_v(SIGMA_Z, k)
        ratio_p = est.rate_p / printed_p if printed_p else 0.0
        ratio_v = est.rate_v / printed_v if printed_v else 0.0
        if k > 0:
            ratios_p.append(ratio_p)
            ratios_v.append(ratio_v)
        rows.append((k, est.rate_p, est.rate_p_se, est.rate_v, est.rate_v_se,
                     printed_p, printed_v, ratio_p, ratio_v))
    header = ("k", "rate_p_numeric", "rate_p_se", "rate_v_numeric", "rate_v_se",
              "rate_p_printed", "rate_v_printed", "ratio_p", "ratio_v")
    summary = {}
    if ratios_p:
        summary["mean_ratio_p_numeric_over_printed"] = float(np.mean(ratios_p))
        summary["mean_ratio_v_numeric_over_printed"] = float(np.mean(ratios_v))
        summary["ito_oracle_rate_p_at_k1"] = float(ito_rate_p(SIGMA_Z, 1.0))
        summary["ito_oracle_rate_v_at_k1"] = float(ito_rate_v(SIGMA_Z, 1.0))
    return header, rows, summary


# per-experiment option schema: dest -> (type, default); every int option is a
# count and must be at least 1, as must --threads
_OPTIONS = {
    "fig1": {"p": (float, 0.1), "kappa": (float, 0.75), "theta_points": (int, 181)},
    "fig2": {
        "omega": (float, np.pi),
        "beta": (float, 0.4),
        "k": (float, 2.0),
        "mu": (float, 10.0),
        "dt": (float, 1e-4),
        "t_end": (float, 2.0),
        "realizations": (int, 1000),
        "theta_points": (int, 9),
    },
    "zeno": {"m_list": (str, "2,10,50,200"), "runs": (int, 10000)},
    "rates": {"k_list": (str, "0.5,1,2")},
}

_COMMANDS = {"fig1": cmd_fig1, "fig2": cmd_fig2, "zeno": cmd_zeno, "rates": cmd_rates}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qmfc",
        description="Continuous quantum measurement and feedback control experiments",
    )
    parser.add_argument("--experiment", required=True, choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="plain key = value config file; flags win")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument(
        "--threads", type=int, default=None,
        help="accepted and recorded but ignored: every ensemble runs as one "
             "lockstep batch on one thread",
    )
    # one flag per distinct dest: fig1 and fig2 share --theta-points
    types = {dest: typ for options in _OPTIONS.values()
             for dest, (typ, _default) in options.items()}
    for dest, typ in types.items():
        parser.add_argument("--" + dest.replace("_", "-"), type=typ, default=None)
    return parser


def resolve_args(args):
    """Apply precedence: built-in defaults < config file < explicit flags."""
    config = load_config_file(args.config) if args.config else {}
    # a key of another experiment is legal, so one file can serve several
    known = {"seed", "threads", "out"}.union(*_OPTIONS.values())
    for key in config:
        if key not in known:
            raise ValueError(f"{args.config}: unknown key {key!r}")
    schema = dict(_OPTIONS[args.experiment])
    schema.update({"seed": (int, 0), "threads": (int, 1), "out": (str, f"{args.experiment}.csv")})
    for dest, (typ, default) in schema.items():
        if getattr(args, dest, None) is None:
            raw = config.get(dest)
            setattr(args, dest, typ(raw) if raw is not None else default)
    counts = [dest for dest, (typ, _default) in _OPTIONS[args.experiment].items() if typ is int]
    for dest in counts + ["threads"]:
        _count("--" + dest.replace("_", "-"), getattr(args, dest))
    return args


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = resolve_args(args)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        t0 = time.perf_counter()
        header, rows, summary = _COMMANDS[args.experiment](args)
        duration = time.perf_counter() - t0
        write_csv(args.out, header, rows)
        settings = [*_OPTIONS[args.experiment], "seed", "threads"]
        write_manifest(manifest_path(args.out), {
            "experiment": args.experiment,
            "version": __version__,
            **{dest: getattr(args, dest) for dest in settings},
            "duration_s": duration,
            **summary,
        })
    except StepRejected as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
