#!/usr/bin/env python3
"""Steadiness check: runs every workload ten times, each with another seed,
and prints for each end-to-end metric the median and the distance between
the first and third quartile as a share of the median, beside the metric's
bound. A spread above a third of the bound is marked: the acceptance run
rejects a spread above the bound itself.

    python3 bench/spread.py [first_seed] [workload ...]
"""
import json
import statistics
import subprocess
import sys
import time

spec = json.load(open("BENCHMARK.json"))
first = int(sys.argv[1]) if len(sys.argv) > 1 else 1
names = sys.argv[2:] or [w["name"] for w in spec["workloads"]]
worst = 0.0
for name in names:
    runs, walls = [], []
    for seed in range(first, first + 10):
        cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        t0 = time.time()
        out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
        walls.append(time.time() - t0)
        res = json.loads(out.strip().splitlines()[-1])
        assert res["correct"] and res["failed"] == 0, (name, seed, res)
        runs.append(res)
    print(f"{name}: wall per run median {statistics.median(walls):.1f}s max {max(walls):.1f}s, "
          f"attempted median {statistics.median(r['attempted'] for r in runs):.0f}")
    for m in spec["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in runs]
        q = statistics.quantiles(vals, n=4)
        spread = (q[2] - q[0]) / statistics.median(vals)
        mark = "" if spread <= m["bound"] / 3 else "  <-- above a third of the bound"
        if m["name"] != "setup_s":
            worst = max(worst, spread / m["bound"])
        print(f"  {m['name']:<14} median {statistics.median(vals):12.4f} {m['unit']:<6} "
              f"spread {spread:6.3f}  bound {m['bound']:.2f}{mark}")
print(f"worst spread/bound outside setup_s: {worst:.2f}")
