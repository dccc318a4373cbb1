"""Traced in-process run of the pcfdr CLI, for the per-layer metrics.

Usage: python3 bench/trace.py SRC_DIR SECONDS OUT_DIR -- CLI_ARGS...

Imports ``pcfdr.cli`` from SRC_DIR (timing the import), runs
``pcfdr.cli.run(CLI_ARGS + ["--out", ...])`` once to warm up, then in
rounds until SECONDS have passed: once untraced and once with every layer
entry point below wrapped. Wrapped names are rebound in every pcfdr module
that imported them. Prints one JSON line: the per-layer metrics (medians
over traced rounds) and the exit code and report path of every run.

Only modules a fresh interpreter has already loaded are imported before
pcfdr, so the import time is what a fresh CLI process pays.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute or "Class.method", layer name) for every wrapped
# entry point. A layer's self time excludes time in other wrapped calls.
WRAPPED = [
    ("cli", "run", "cli.self"),
    ("cli", "read_matrix", "cli.read_matrix"),
    ("cli", "read_weights", "cli.read_weights"),
    ("numerics", "std_normal_cdf", "numerics"),
    ("numerics", "std_normal_quantile", "numerics"),
    ("numerics", "chi_square_survival", "numerics"),
    ("combine", "combine_pvalues", "combine.combine_pvalues"),
    ("partial_conjunction", "pc_pvalue", "partial_conjunction.pc_pvalue"),
    ("procedures", "step_up", "procedures.step_up"),
    ("procedures", "ShapeFunction.__call__", "procedures.shape"),
    ("pc_testing", "GroupLayout.__init__", "pc_testing.group_layout"),
    ("pc_testing", "compute_pc_pvalues", "pc_testing.compute_pc_pvalues"),
    ("pc_testing", "realized_weighted_fdp", "pc_testing.realized_weighted_fdp"),
    ("replicability", "select_features", "replicability.select_features"),
    ("replicability", "khat_bounds", "replicability.khat_bounds"),
    ("simulation", "gen_meta_matrix", "simulation.gen_meta_matrix"),
    ("simulation", "mc_fdr_pc", "simulation.fdr_pc"),
    ("simulation", "mc_replicability_error", "simulation.replicability"),
]


class Tracer:
    """Per-layer call counts, self and inclusive times, and result counts.

    A layer's self time is its duration minus the time its wrapped callees
    took, wrappers included. A wrapper also costs time outside its clock
    reads (the call into it, the return) and inside them (the forwarding
    call). ``calibrate`` measures both per call, and they are taken off the
    caller and the callee, so that tracing a hot callee inflates neither:
    the caller keeps what a direct call costs, the callee its body.
    """

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        # Per active wrapped call: [time its wrapped callees took, wrappers
        # included; their inclusive time, wrappers excluded].
        self._stack: list[list[float]] = []

    def wrap(self, layer: str, fn, costs: tuple[float, float] = (0.0, 0.0)):
        """``costs`` is (caller_s, callee_s) from ``calibrate``."""
        stack = self._stack
        clock = time.perf_counter
        caller_s, callee_s = costs

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_in = clock()
            callees = [0.0, 0.0]
            stack.append(callees)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                own = dt - callees[0] - callee_s
                self.calls[layer] += 1
                self.self_s[layer] += own
                self.incl_s[layer] += own + callees[1]
            self._count(layer, args, result)
            if stack:
                stack[-1][0] += clock() - t_in + caller_s
                stack[-1][1] += own + callees[1]
            return result

        return wrapper

    def _count(self, layer: str, args, result) -> None:
        if layer == "procedures.step_up":
            self.counts["procedures.step_up_iterations"] += result.iterations
        elif layer == "replicability.select_features":
            self.counts["replicability.selected"] += len(result)
        elif layer in ("simulation.fdr_pc", "simulation.replicability"):
            self.counts[layer + ".reps"] += args[0].reps

    def metrics(self) -> dict[str, float]:
        def per_rep_ms(layer):
            reps = self.counts[layer + ".reps"]
            return 1e3 * self.incl_s[layer] / reps if reps else 0.0

        return {
            "cli.read_matrix_s": self.self_s["cli.read_matrix"],
            "cli.read_weights_s": self.self_s["cli.read_weights"],
            "cli.self_s": self.self_s["cli.self"],
            "combine.combine_pvalues_calls": self.calls["combine.combine_pvalues"],
            "combine.combine_pvalues_s": self.self_s["combine.combine_pvalues"],
            "numerics.calls": self.calls["numerics"],
            "numerics.s": self.self_s["numerics"],
            "partial_conjunction.pc_pvalue_calls":
                self.calls["partial_conjunction.pc_pvalue"],
            "partial_conjunction.pc_pvalue_s":
                self.self_s["partial_conjunction.pc_pvalue"],
            "procedures.step_up_calls": self.calls["procedures.step_up"],
            "procedures.step_up_s": self.self_s["procedures.step_up"],
            "procedures.step_up_iterations":
                self.counts["procedures.step_up_iterations"],
            "procedures.shape_calls": self.calls["procedures.shape"],
            "procedures.shape_s": self.self_s["procedures.shape"],
            "pc_testing.group_layout_s": self.self_s["pc_testing.group_layout"],
            "pc_testing.compute_pc_pvalues_s":
                self.self_s["pc_testing.compute_pc_pvalues"],
            "pc_testing.realized_weighted_fdp_s":
                self.self_s["pc_testing.realized_weighted_fdp"],
            "replicability.select_features_s":
                self.self_s["replicability.select_features"],
            "replicability.khat_bounds_s": self.self_s["replicability.khat_bounds"],
            "replicability.selected": self.counts["replicability.selected"],
            "simulation.gen_meta_matrix_s":
                self.self_s["simulation.gen_meta_matrix"],
            "simulation.fdr_pc_ms_per_rep": per_rep_ms("simulation.fdr_pc"),
            "simulation.replicability_ms_per_rep":
                per_rep_ms("simulation.replicability"),
        }


CALIBRATION_CALLS, CALIBRATION_REPEATS = 50_000, 5


def calibrate(method: bool) -> tuple[float, float]:
    """(caller_s, callee_s) per wrapped call: the seconds a wrapper adds
    to its caller's self time beyond a direct call, and to the callee's
    beyond its body. Measured on a no-op with one argument, a function or,
    for ``method``, a class's ``__call__``; median of the repeats."""
    class Noop:
        def __call__(self, x):
            pass

    def noop(x):
        pass

    def loop(fn):
        def run():
            for _ in range(CALIBRATION_CALLS):
                fn(None)
        return run

    caller, callee = [], []
    for _ in range(CALIBRATION_REPEATS):
        tracer = Tracer()
        if method:
            class Wrapped(Noop):
                __call__ = tracer.wrap("child", Noop.__call__)
            direct, wrapped = Noop(), Wrapped()
        else:
            direct, wrapped = noop, tracer.wrap("child", noop)
        tracer.wrap("parent", loop(wrapped))()
        t0 = time.perf_counter()
        loop(direct)()
        direct_s = time.perf_counter() - t0
        caller.append((tracer.self_s["parent"] - direct_s) / CALIBRATION_CALLS)
        callee.append(tracer.self_s["child"] / CALIBRATION_CALLS)
    mid = CALIBRATION_REPEATS // 2
    return sorted(caller)[mid], sorted(callee)[mid]


def unit(metric: str) -> str:
    if metric.endswith(("_calls", ".calls", "_iterations", ".selected")):
        return "count"
    return "ms" if metric.endswith("_ms_per_rep") else "s"


def _targets(pcfdr_modules: dict) -> list[tuple[str, object, str, object]]:
    """(layer, owner, attribute, original) for every wrapped entry point."""
    out = []
    for mod_name, attr, layer in WRAPPED:
        owner = pcfdr_modules[mod_name]
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        out.append((layer, owner, attr, getattr(owner, attr)))
    return out


def _swap(modules: dict, swaps: list[tuple[object, str, object, object]]) -> None:
    """Replace each ``old`` by ``new``: on its class, and under every name
    a pcfdr module binds it to."""
    by_id = {id(old): new for _, _, old, new in swaps}
    for owner, attr, _, new in swaps:
        if isinstance(owner, type):
            setattr(owner, attr, new)
    for mod in modules.values():
        for name, value in list(vars(mod).items()):
            if id(value) in by_id:
                setattr(mod, name, by_id[id(value)])


def traced_run(argv: list[str], modules: dict) -> tuple[int, float, Tracer]:
    # The host's speed drifts, so the wrapper costs are measured afresh
    # just before each traced run.
    costs = {method: calibrate(method) for method in (False, True)}
    tracer = Tracer()
    swaps = [(owner, attr, orig,
              tracer.wrap(layer, orig, costs[isinstance(owner, type)]))
             for layer, owner, attr, orig in _targets(modules)]
    _swap(modules, swaps)
    try:
        t0 = time.perf_counter()
        code = modules["cli"].run(argv)
        elapsed = time.perf_counter() - t0
    finally:
        _swap(modules, [(owner, attr, new, old) for owner, attr, old, new in swaps])
    return code, elapsed, tracer


def main(argv: list[str]) -> int:
    sep = argv.index("--")
    src, seconds, out_dir = Path(argv[0]).resolve(), float(argv[1]), Path(argv[2])
    cli_args = argv[sep + 1:]
    sys.path.insert(0, str(src))

    t0 = time.perf_counter()
    import pcfdr.cli
    import_s = time.perf_counter() - t0
    import json
    import statistics

    if not Path(pcfdr.__file__).resolve().is_relative_to(src):
        print(f"pcfdr imported from {pcfdr.__file__}, not {src}", file=sys.stderr)
        return 2
    modules = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
               if name.startswith("pcfdr.")}
    modules[""] = sys.modules["pcfdr"]

    runs = []

    def argv_for_next_run():
        out = str(out_dir / f"report_{len(runs)}.json")
        runs.append({"out": out})
        return cli_args + ["--out", out]

    def untraced():
        argv = argv_for_next_run()
        t = time.perf_counter()
        runs[-1]["code"] = pcfdr.cli.run(argv)
        return time.perf_counter() - t

    untraced()
    plain_s, traced_s, layers = [], [], []
    start = time.perf_counter()
    while not layers or time.perf_counter() - start < seconds:
        plain_s.append(untraced())
        runs[-1]["code"], elapsed, tracer = traced_run(argv_for_next_run(), modules)
        traced_s.append(elapsed)
        layers.append(tracer.metrics())

    values = {"cli.import_s": import_s}
    for name in layers[0]:
        values[name] = statistics.median(m[name] for m in layers)
    values["trace.overhead_s"] = (statistics.median(traced_s)
                                  - statistics.median(plain_s))
    metrics = {name: {"value": v, "unit": unit(name)} for name, v in values.items()}
    print(json.dumps({"metrics": metrics, "runs": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
