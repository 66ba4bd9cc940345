#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs the benchmark command from BENCHMARK.json for two sets of runs of the
same code, each run with another seed, and prints for every workload and
end-to-end metric each set's median and quartiles, the spread (distance
between the quartiles as a share of the median), and whether the two sets
agree within the metric's bound. Run it from the repository root:

    python3 perfbench/steady.py                      # every workload
    python3 perfbench/steady.py --workload fuzz      # one workload again

Each workload gets two sets of ten runs; the first set uses seeds 1-10 and
the second seeds 11-20. Agreement means: in every set each spread is
within the metric's bound, the second set's median is not worse than the
first's by more than the bound, and the share of failed operations is the
same in every run of both sets.
The raw results are appended to .bench_build/perfbench/steady.jsonl.
Exits 1 when the sets disagree or a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d exited %d: %s" % (workload, seed, proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


SETS = 2
RUNS = 10


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", help="workload to run (repeatable; default all)")
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = opts.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    log_path = os.path.join(".bench_build", "perfbench", "steady.jsonl")
    os.makedirs(os.path.dirname(log_path), exist_ok=True)

    ok = True
    results = {}  # (set, workload) -> [result]
    with open(log_path, "a") as log:
        for s in range(SETS):
            for w in workloads:
                for i in range(RUNS):
                    seed = 1 + s * RUNS + i
                    try:
                        r = run_once(spec["command"], w, seed, spec["run_seconds"])
                    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
                        print("run failed: %s" % e, file=sys.stderr)
                        return 1
                    log.write(json.dumps({"set": s, "workload": w, "seed": seed, "result": r}) + "\n")
                    log.flush()
                    if not r["correct"]:
                        print("%s seed %d: incorrect output" % (w, seed), file=sys.stderr)
                        ok = False
                    results.setdefault((s, w), []).append(r)

    for w in workloads:
        print("== %s" % w)
        shares = []
        for s in range(SETS):
            rs = results[(s, w)]
            shares.append((sum(r["failed"] for r in rs), sum(r["attempted"] for r in rs),
                           {r["failed"] * 1.0 / r["attempted"] for r in rs}))
        for s, (failed, attempted, per_run) in enumerate(shares):
            print("  set %d: %d of %d ops failed; per-run shares %s" % (s + 1, failed, attempted, sorted(per_run)))
            if len(per_run) != 1:
                ok = False
                print("  FAIL: failed share differs between runs of set %d" % (s + 1))
        if len({tuple(sorted(x[2])) for x in shares}) > 1:
            ok = False
            print("  FAIL: failed share differs between sets")
        for m in metrics:
            name, bound, better = m["name"], m["bound"], m["better"]
            meds = []
            for s in range(SETS):
                vals = [r["metrics"][name]["value"] for r in results[(s, w)]]
                q1, q2, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / q2 if q2 else float("inf")
                meds.append(q2)
                flag = ""
                if spread > bound:
                    flag = "  SPREAD ABOVE BOUND"
                    ok = False
                elif spread > bound / 3:
                    flag = "  (spread above a third of the bound)"
                print("  %-12s set %d: median %-12.6g q1 %-12.6g q3 %-12.6g spread %5.1f%% (bound %g)%s"
                      % (name, s + 1, q2, q1, q3, 100 * spread, 100 * bound, flag))
            for s in range(1, len(meds)):
                worse = (meds[s] - meds[0]) / meds[0] if better == "lower" else (meds[0] - meds[s]) / meds[0]
                verdict = "agree" if worse <= bound else "DISAGREE"
                if worse > bound:
                    ok = False
                print("  %-12s set %d vs set 1: %+.1f%% worse -> %s" % (name, s + 1, 100 * worse, verdict))
    print("steady: %s" % ("yes" if ok else "NO"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
