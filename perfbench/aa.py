#!/usr/bin/env python3
"""A/A comparison: the same code measured as two sets of runs.

    python3 perfbench/aa.py

Runs ``perfbench/run.py`` once per (set, seed, workload) for every workload
in ``BENCHMARK.json`` at its ``run_seconds``, each run in its own process and
one at a time; set 1 uses seeds 1-10 and set 2 seeds 11-20.  Prints, per
workload and end-to-end metric, both sets' quartiles, each set's spread
(Q3 - Q1) / median, and the change of the second median against the first,
and says whether the sets agree: each spread within the metric's bound, the
two medians apart by no more than the bound in either direction, and the
same share of failed operations.  The runs and the table are also written
to ``perfbench/out/aa-<unix time>.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10           # runs per set


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def compare(metric, first, second):
    """Quartiles of both sets and whether they agree within the bound."""
    q1, q2 = (statistics.quantiles(v, n=4) for v in (first, second))
    spreads = [(q[2] - q[0]) / q[1] for q in (q1, q2)]
    change = (q2[1] - q1[1]) / q1[1]
    bound = metric["bound"]
    return {
        "set1": q1, "set2": q2, "spread": spreads, "change": change,
        "bound": bound, "agree": bool(max(spreads) <= bound and abs(change) <= bound),
    }


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]

    results = {w: ([], []) for w in workloads}
    for s in range(2):
        for seed in range(1 + s * RUNS, 1 + (s + 1) * RUNS):
            for w in workloads:
                t0 = time.perf_counter()
                out = run_once(w, seed, bench["run_seconds"])
                out["wall_s"] = time.perf_counter() - t0
                results[w][s].append(out)
                print(f"set {s + 1} seed {seed} {w}: {out['wall_s']:.1f} s, "
                      f"{out['failed']}/{out['attempted']} failed", file=sys.stderr, flush=True)

    table, all_agree = {}, True
    for w in workloads:
        sets = results[w]
        shares = [{r["failed"] / r["attempted"] for r in runs} for runs in sets]
        same_failures = len(shares[0] | shares[1]) == 1
        all_agree &= same_failures
        print(f"\n{w}: failed share {sorted(shares[0] | shares[1])} ({'same' if same_failures else 'DIFFERS'})")
        print(f"  {'metric':20s} {'set 1 Q1 / median / Q3':>34s} {'set 2 Q1 / median / Q3':>34s}"
              f" {'spread 1':>8s} {'spread 2':>8s} {'change':>8s} {'bound':>6s}")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            row = compare(metric, *([r["metrics"][name]["value"] for r in runs] for runs in sets))
            table[f"{w}/{name}"] = row
            all_agree &= row["agree"]
            fmt = lambda q: " / ".join(f"{v:.4g}" for v in q)  # noqa: E731
            print(f"  {name:20s} {fmt(row['set1']):>34s} {fmt(row['set2']):>34s}"
                  f" {row['spread'][0]:8.3f} {row['spread'][1]:8.3f} {row['change']:+8.3f}"
                  f" {row['bound']:6.2f} {'agree' if row['agree'] else 'DISAGREE'}")
    print(f"\nA/A: {'all metrics agree' if all_agree else 'some metrics disagree'}")

    out = HERE / "out" / f"aa-{int(time.time())}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"runs": results, "table": table, "agree": all_agree}, indent=1))
    print(f"written to {out.relative_to(ROOT)}")
    return 0 if all_agree else 1


if __name__ == "__main__":
    sys.exit(main())
