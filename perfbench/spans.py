"""Span tracing of the qmfc modules, installed from outside the package.

A Tracer replaces every public function of the seven qmfc modules with a
wrapper that records one span per call: (name, start, end, parent).  The
replacement is made wherever the function object is bound, so the copies a
module imports by name (``qmfc.ensemble.optimal_feedback``,
``qmfc.cli.theta_experiment``, ...) and the command table in ``qmfc.cli`` are
traced too.  The ``__post_init__`` validators of public dataclasses count as
calls of their class (``povm.MeasurementOperatorSet`` is the completeness
check plus classification).  Spans stay in memory; ``layer_metrics`` reduces
them to per-layer numbers and ``write_spans`` dumps them as CSV.

Private helpers (``_advance_chunk``, ``_feedback_stack``, ...) are not
wrapped: their time is self time of the public caller.  Spans are recorded
on one stack, so a Tracer must not be entered while worker threads call
into qmfc.
"""

import functools
import inspect
import time
import types
from collections import defaultdict
from typing import NamedTuple

MODULES = ("states", "povm", "metrics", "feedback", "sde", "ensemble", "cli")

_ENSEMBLE_CALLS = ("ensemble.run_ensemble", "ensemble.ensemble_states")


class Span(NamedTuple):
    name: str
    module: str
    start: float
    end: float
    parent: int        # index of the calling span, -1 at top level
    work: float        # trajectory-steps (angles for theta_sweep) done, else 0
    tag: str           # feedback branch, or the exception that left the call


def _ensemble_work(args):
    cfg = args["cfg"]
    return cfg.realizations * cfg.sme.n_steps


# per traced name: bound arguments -> work done by the call
_WORK = {
    "ensemble.run_ensemble": _ensemble_work,
    "ensemble.ensemble_states": _ensemble_work,
    "sde.run_control_trajectory": lambda a: a["cfg"].n_steps,
    "metrics.strength_rate_numeric": lambda a: a["n_traj"] * a["n_steps"],
    "metrics.theta_sweep": lambda a: len(a["theta_grid"]),
}


class Tracer:
    """Installs span-recording wrappers into a qmfc package while entered."""

    def __init__(self, package):
        self.spans = []
        self._stack = []
        self._namespaces = [package] + [getattr(package, m) for m in MODULES]
        self._wrappers = {}      # original function -> wrapper
        self._methods = []       # (class, original __post_init__, wrapper)
        for short in MODULES:
            module = getattr(package, short)
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    self._wrappers[obj] = self._wrap(f"{short}.{attr}", short, obj)
                elif isinstance(obj, type) and "__post_init__" in vars(obj):
                    method = vars(obj)["__post_init__"]
                    self._methods.append((obj, method, self._wrap(f"{short}.{attr}", short, method)))
        self._restore = []       # (setter, key, original) undone on exit

    def _wrap(self, name, module, fn):
        spans, stack = self.spans, self._stack
        extractor = _WORK.get(name)
        signature = inspect.signature(fn) if extractor else None
        is_feedback = name == "feedback.optimal_feedback"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            tag = ""
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if is_feedback:
                    tag = result.branch
                return result
            except BaseException as exc:
                # tag an exception once, in the innermost span it leaves
                if not getattr(exc, "_perfbench_seen", False):
                    tag = type(exc).__name__
                    exc._perfbench_seen = True
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                work = 0.0
                if extractor is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    work = float(extractor(bound.arguments))
                spans[index] = Span(name, module, start, end, parent, work, tag)

        return traced

    def _patch(self, setter, key, original, replacement):
        self._restore.append((setter, key, original))
        setter(key, replacement)

    def __enter__(self):
        for namespace in self._namespaces:
            setter = functools.partial(setattr, namespace)
            for key, obj in list(vars(namespace).items()):
                if isinstance(obj, types.FunctionType) and obj in self._wrappers:
                    self._patch(setter, key, obj, self._wrappers[obj])
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        if isinstance(v, types.FunctionType) and v in self._wrappers:
                            self._patch(obj.__setitem__, k, v, self._wrappers[v])
        for cls, method, wrapper in self._methods:
            self._patch(functools.partial(setattr, cls), "__post_init__", method, wrapper)
        return self

    def __exit__(self, *exc_info):
        for setter, key, original in reversed(self._restore):
            setter(key, original)
        self._restore.clear()
        self._stack.clear()
        return False


def write_spans(path, spans, origin):
    """CSV of every span, times in microseconds from origin."""
    with open(path, "w") as fh:
        fh.write("index,name,start_us,end_us,parent,work,tag\n")
        for i, s in enumerate(spans):
            fh.write(f"{i},{s.name},{(s.start - origin) * 1e6:.3f},"
                     f"{(s.end - origin) * 1e6:.3f},{s.parent},{s.work:g},{s.tag}\n")


def layer_metrics(spans, traced_wall, n_passes):
    """Per-layer metrics from the spans of n_passes traced passes.

    traced_wall is the summed wall time of those passes; the share of it no
    span covers is reported as trace.uncovered_frac.  Returns
    {name: (value, unit)}; a per-call figure for a function never called
    reads 0.
    """
    dur = [s.end - s.start for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            child[s.parent] += dur[i]
    calls = defaultdict(int)
    total = defaultdict(float)
    self_time = defaultdict(float)
    work = defaultdict(float)
    module_self = defaultdict(float)
    module_calls = defaultdict(int)
    covered = 0.0
    for i, s in enumerate(spans):
        own = dur[i] - child[i]
        calls[s.name] += 1
        total[s.name] += dur[i]
        self_time[s.name] += own
        work[s.name] += s.work
        module_self[s.module] += own
        module_calls[s.module] += 1
        if s.parent < 0:
            covered += dur[i]

    def mean(name, scale):
        return total[name] / calls[name] * scale if calls[name] else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    def has_ancestor(i, name):
        p = spans[i].parent
        while p >= 0:
            if spans[p].name == name:
                return True
            p = spans[p].parent
        return False

    ens_steps = sum(work[n] for n in _ENSEMBLE_CALLS)
    fallback = sum(1 for s in spans
                   if s.name == "feedback.optimal_feedback" and s.parent >= 0
                   and spans[s.parent].name in _ENSEMBLE_CALLS)
    scalar = "sde.run_control_trajectory"
    checks_in_scalar = sum(1 for i, s in enumerate(spans)
                           if s.name == "states.check_density_matrix" and has_ancestor(i, scalar))
    branches = defaultdict(int)
    for s in spans:
        if s.name == "feedback.optimal_feedback":
            branches[s.tag] += 1
    per_pass = 1.0 / max(n_passes, 1)

    m = {
        "ensemble.kernel_self_us_per_traj_step": (
            ratio(sum(self_time[n] for n in _ENSEMBLE_CALLS), ens_steps) * 1e6, "us"),
        "ensemble.trajectory_rng_us_per_traj": (mean("ensemble.trajectory_rng", 1e6), "us"),
        "ensemble.feedback_fallback_calls_per_traj_step": (ratio(fallback, ens_steps), "ratio"),
        "sde.run_control_trajectory_self_us_per_step": (
            ratio(self_time[scalar], work[scalar]) * 1e6, "us"),
        "sde.sme_step_us_per_call": (mean("sde.sme_step", 1e6), "us"),
        "sde.policy_observable_us_per_call": (mean("sde.policy_observable", 1e6), "us"),
        "sde.inverse_zeno_run_us_per_call": (mean("sde.inverse_zeno_run", 1e6), "us"),
        "sde.step_rejected_count": (sum(1 for s in spans if s.tag == "StepRejected"), "count"),
        "feedback.optimal_feedback_us_per_call": (mean("feedback.optimal_feedback", 1e6), "us"),
        "feedback.optimal_feedback_calls": (calls["feedback.optimal_feedback"] * per_pass, "count"),
        "feedback.branch_first_order": (branches["first_order"] * per_pass, "count"),
        "feedback.branch_second_order": (branches["second_order"] * per_pass, "count"),
        "feedback.branch_no_op": (branches["no_op"] * per_pass, "count"),
        "feedback.optimal_unitary_us_per_call": (mean("feedback.optimal_unitary", 1e6), "us"),
        "states.check_density_matrix_us_per_call": (
            mean("states.check_density_matrix", 1e6), "us"),
        "states.check_density_matrix_calls_per_step": (
            ratio(checks_in_scalar, work[scalar]), "ratio"),
        "states.eig_hermitian_us_per_call": (mean("states.eig_hermitian", 1e6), "us"),
        "povm.measurement_set_build_us": (mean("povm.MeasurementOperatorSet", 1e6), "us"),
        "povm.gaussian_weak_povm_ms_per_call": (mean("povm.gaussian_weak_povm", 1e3), "ms"),
        "povm.sample_outcome_us_per_call": (mean("povm.sample_outcome", 1e6), "us"),
        "povm.kappa_povm_us_per_call": (mean("povm.kappa_povm", 1e6), "us"),
        "metrics.strength_rate_numeric_us_per_traj_step": (
            ratio(total["metrics.strength_rate_numeric"],
                  work["metrics.strength_rate_numeric"]) * 1e6, "us"),
        "metrics.theta_sweep_us_per_angle": (
            ratio(total["metrics.theta_sweep"], work["metrics.theta_sweep"]) * 1e6, "us"),
        "cli.self_ms": (ratio(module_self["cli"], calls["cli.main"]) * 1e3, "ms"),
        "cli.write_csv_ms": (mean("cli.write_csv", 1e3), "ms"),
    }
    for module in MODULES:
        m[f"{module}.self_frac"] = (ratio(module_self[module], traced_wall), "ratio")
        m[f"{module}.calls_per_pass"] = (module_calls[module] * per_pass, "count")
    m["trace.uncovered_frac"] = (ratio(traced_wall - covered, traced_wall), "ratio")
    return m
