"""Benchmark of the pcfdr command-line tool.

Usage (from the root of a source checkout):

    python3 bench/run.py --workload replicate --seed 1 --seconds 20 --trace 0

Workloads: replicate, pc-family, monte-carlo, or all (each in turn). The
inputs are generated from --seed; the program sees only the files.

--trace 0: one client in a closed loop. Each operation is one CLI
invocation in a fresh interpreter (``from pcfdr.cli import main``, as the
installed ``pcfdr`` script does), from spawn to exit, for --seconds. An
operation fails if it exits non-zero or its report fails the independent
check in check.py. After each invocation a reference process is timed
too, and the run's times are scaled by the host speed it shows (see
REFERENCE). Prints the end-to-end metrics.

--trace 1: the traced in-process run of trace.py, which prints the
per-layer metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import check
import gen

SETUPS = 3
# An invocation still running after this is killed and counts as failed.
INVOKE_TIMEOUT_S = 120.0
# The CLI as the installed ``pcfdr`` script runs it, plus an exit hook that
# writes the process's own peak RSS (VmHWM, in kB; exec resets it) to the
# file named by the first argument. ``ru_maxrss`` from ``wait4`` would not
# do: a child forked from this process inherits this process's high-water
# mark, which holds the generated inputs and the expected answers.
CLI = ["-c", """\
import atexit, sys
def peak_rss(path=sys.argv.pop(1)):
    with open("/proc/self/status") as status:
        kb = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    with open(path, "w") as out:
        out.write(kb)
atexit.register(peak_rss)
from pcfdr.cli import main
main()
"""]
# The host is shared, and its speed drifts by 20-50 % over minutes, alike
# for every fresh process. A fresh interpreter that imports the CLI's
# libraries, and nothing of pcfdr, slows down with it: over 20-40 s windows
# its median time correlated 0.8-0.9 with the median invocation time, where
# a pure-Python loop timed in this process did not track it. So the client
# times this reference after every invocation, and a run's times are
# scaled by REF_S / (mean reference time). They read as on a host where the
# reference takes REF_S, about its mean on the machine of the figures in
# README.md. A change to pcfdr moves the times as before. Means, not
# medians: neither time has outliers here (at most 1.5 times the median),
# and over 20-25 s windows the ratio of means spread 35-45 % less from
# run to run than the ratio of medians.
REFERENCE = ["-c", "import numpy, scipy.special"]
REF_S = 0.6
HERE = Path(__file__).resolve().parent


def work_units(workload: str, info: dict) -> dict[str, int]:
    """Units of work in one invocation, for the throughput metrics: matrix
    rows (features), partial conjunction groups, and data sets analysed
    (one Monte Carlo replicate is one data set)."""
    if workload == "replicate":
        m = info["matrix"].shape[0]
        return {"features": m, "groups": m, "datasets": 1}
    if workload == "pc-family":
        return {"features": sum(len(p) for p in info["p_groups"]),
                "groups": len(info["names"]), "datasets": 1}
    reps = sum(c["scenario"]["reps"] for c in info["checks"])
    rows = sum(c["scenario"]["reps"] * c["scenario"]["m"] for c in info["checks"])
    return {"features": rows, "groups": rows, "datasets": reps}


def expected(workload: str, info: dict):
    if workload == "replicate":
        return check.expected_replicate(info["matrix"], info["ids"], info["q"])
    if workload == "pc-family":
        return check.expected_pc_family(info["p_groups"], info["names"], info["w"],
                                        info["v"], info["alpha"],
                                        info["u_proportion"])
    return check.expected_monte_carlo(info["checks"])


def verdict(workload: str, report: dict, exp, code: int) -> list[str]:
    """The workload's checker applied to one parsed report."""
    if workload == "replicate":
        return check.check_replicate(report, exp)
    if workload == "pc-family":
        return check.check_pc_family(report, exp)
    return check.check_monte_carlo(report, exp, code)


def problems(workload: str, code: int, out: Path, exp) -> list[str]:
    """Why this invocation failed; empty if it succeeded."""
    if workload != "monte-carlo" and code != 0:
        return [f"exit code {code}"]
    try:
        report = json.loads(out.read_text())
    except (OSError, ValueError) as exc:
        return [f"no readable report: {exc}"]
    return verdict(workload, report, exp, code)


class Client:
    """Spawns one CLI process at a time and waits for it."""

    def __init__(self, root: Path, work: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.env, self.root, self.work = env, root, work

    def invoke(self, argv: list[str],
               out: Path) -> tuple[int, float, float | None, str]:
        """Returns exit code, wall seconds, peak RSS in MB (None if the
        child did not reach its exit hook) and stderr."""
        err_path, peak_path = self.work / "stderr.txt", self.work / "peak_rss_kb"
        peak_path.unlink(missing_ok=True)
        with open(err_path, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *CLI, str(peak_path), *argv, "--out", str(out)],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
                env=self.env, cwd=self.root)
            killer = threading.Timer(INVOKE_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                code = proc.wait()
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        try:
            peak_mb = int(peak_path.read_text()) / 1024.0
        except (OSError, ValueError):
            peak_mb = None
        return code, wall, peak_mb, err_path.read_text()

    def reference(self) -> float:
        """Wall seconds of one reference process, spawn to exit."""
        t0 = time.perf_counter()
        subprocess.run([sys.executable, *REFERENCE], stdin=subprocess.DEVNULL,
                       stdout=subprocess.DEVNULL, env=self.env, cwd=self.root,
                       timeout=INVOKE_TIMEOUT_S, check=True)
        return time.perf_counter() - t0


def result(attempted: int, failed: int, wrong: int, metrics: dict) -> dict:
    return {"correct": wrong == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def timed(workload: str, seed: int, seconds: float, root: Path, work: Path) -> dict:
    client = Client(root, work)
    generate = gen.GENERATORS[workload]
    setup_s = []
    for i in range(SETUPS):
        t0 = time.perf_counter()
        info = generate(seed, work / f"setup{i}")
        client.invoke(info["argv"], work / "warmup.json")
        setup_s.append(time.perf_counter() - t0)
    exp = expected(workload, info)

    walls, refs, rss = [], [], []
    attempted = failed = wrong = 0
    out = work / "report.json"
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < seconds:
        out.unlink(missing_ok=True)
        code, wall, peak_mb, err = client.invoke(info["argv"], out)
        refs.append(client.reference())
        attempted += 1
        walls.append(wall)
        if peak_mb is not None:
            rss.append(peak_mb)
        bad = problems(workload, code, out, exp)
        if bad:
            failed += 1
            # A report the program stood by (exit 0) that fails the check is
            # a wrong answer, not only a failed operation.
            wrong += out.exists() and code == 0
            print(f"{workload}: invocation {attempted} failed: {'; '.join(bad)}"
                  f"{' | ' + err.strip()[-500:] if err.strip() else ''}",
                  file=sys.stderr)

    speed = REF_S / statistics.fmean(refs)
    print(f"{workload}: unscaled mean wall {statistics.fmean(walls):.4f} s, "
          f"median set-up {statistics.median(setup_s):.4f} s; mean reference "
          f"{statistics.fmean(refs):.4f} s, scale {speed:.4f}", file=sys.stderr)
    wall_s = statistics.fmean(walls) * speed
    units = work_units(workload, info)
    return result(attempted, failed, wrong, {
        "setup_s": (statistics.median(setup_s) * speed, "s"),
        "wall_s": (wall_s, "s"),
        # Only a child killed before its exit hook leaves no peak figure.
        "peak_rss_mb": (statistics.median(rss) if rss else 0.0, "MB"),
        "features_per_s": (units["features"] / wall_s, "1/s"),
        "groups_per_s": (units["groups"] / wall_s, "1/s"),
        "mc_reps_per_s": (units["datasets"] / wall_s, "1/s"),
    })


def traced(workload: str, seed: int, seconds: float, root: Path, work: Path) -> dict:
    info = gen.GENERATORS[workload](seed, work / "inputs")
    exp = expected(workload, info)
    proc = subprocess.run(
        [sys.executable, str(HERE / "trace.py"), str(root / "src"), str(seconds),
         str(work), "--", *info["argv"]],
        stdin=subprocess.DEVNULL, capture_output=True, text=True, cwd=root,
        timeout=seconds + INVOKE_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"traced run exited {proc.returncode}: {proc.stderr[-2000:]}")
    payload = json.loads(proc.stdout.strip().splitlines()[-1])
    failed = wrong = 0
    for run in payload["runs"]:
        bad = problems(workload, run["code"], Path(run["out"]), exp)
        if bad:
            failed += 1
            wrong += Path(run["out"]).exists() and run["code"] == 0
            print(f"{workload}: traced run failed: {'; '.join(bad)}", file=sys.stderr)
    return result(len(payload["runs"]), failed, wrong,
                  {k: (m["value"], m["unit"]) for k, m in payload["metrics"].items()})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*gen.GENERATORS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "pcfdr" / "cli.py").is_file():
        print(f"error: {root} holds no src/pcfdr/cli.py; run from the root of "
              "a pcfdr source checkout", file=sys.stderr)
        return 2
    workloads = list(gen.GENERATORS) if args.workload == "all" else [args.workload]
    bench = root / ".bench_work"
    bench.mkdir(exist_ok=True)
    for workload in workloads:
        work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=bench))
        try:
            measure = traced if args.trace else timed
            res = measure(workload, args.seed, args.seconds, root, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if args.workload == "all":
            res = {"workload": workload, **res}
        print(json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
