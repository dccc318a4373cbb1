"""Checker self-test: every checker accepts the program's real report and
rejects it after a single corruption.

Usage, from the root of a source checkout:

    python3 bench/selftest.py

Runs each workload's CLI command once on inputs generated from seed 1,
checks the report, then checks corrupted copies of it. Exits 0 when every
clean report passes and every corrupted one is rejected.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
import tempfile
from pathlib import Path

import gen
from run import Client, expected, verdict

SEED = 1


def _bump_khat(r):
    key = sorted(r["khat"])[0]
    r["khat"][key] += 1


def _drop_selected(r):
    r["selected"].pop()


def _shift_threshold(r):
    key = sorted(r["threshold_used"])[0]
    r["threshold_used"][key] *= 1 + 1e-9


def _drop_rejected(r):
    r["rejected_groups"].pop()


def _nudge_pc_pvalue(r):
    r["pc_pvalues"][0] += 1e-9


def _lower_u(r):
    r["u"][-1] -= 1


def _flip_pass(r):
    r["records"][0]["pass"] = False


def _zero_estimate(r):
    r["records"][1]["results"][0]["estimate"] = 0.0


def _estimate_over_bound(r):
    res = r["records"][2]["results"][0]
    res["estimate"] = res["bound"] * 1.01


CORRUPTIONS = {
    "replicate": [_bump_khat, _drop_selected, _shift_threshold],
    "pc-family": [_drop_rejected, _nudge_pc_pvalue, _lower_u],
    "monte-carlo": [_flip_pass, _zero_estimate, _estimate_over_bound],
}


def main() -> int:
    root = Path.cwd()
    (root / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=root / ".bench_work"))
    ok = True
    try:
        client = Client(root, work)
        for workload, corruptions in CORRUPTIONS.items():
            info = gen.GENERATORS[workload](SEED, work / workload)
            exp = expected(workload, info)
            out = work / f"{workload}.json"
            code, _, _, _ = client.invoke(info["argv"], out)
            report = json.loads(out.read_text())
            clean = verdict(workload, report, exp, code)
            print(f"{workload}: real report {'accepted' if not clean else 'REJECTED'}"
                  f"{': ' + '; '.join(clean) if clean else ''}")
            ok = ok and not clean
            for corrupt in corruptions:
                bad = copy.deepcopy(report)
                corrupt(bad)
                found = verdict(workload, bad, exp, code)
                name = corrupt.__name__.lstrip("_")
                print(f"{workload}: {name} {'rejected: ' + found[0] if found else 'NOT CAUGHT'}")
                ok = ok and bool(found)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
