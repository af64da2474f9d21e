#!/usr/bin/env python3
"""Runs and summarises same-code run sets of the benchmark.

    python3 e2ebench/runset.py run TAG SEED...      # every workload, trace 0
    python3 e2ebench/runset.py summary TAG1 TAG2    # writes runs/SUMMARY.md

`run` executes e2ebench/run.sh once per workload and seed, sequentially,
from the checkout root, and stores the result lines in runs/TAG-<workload>.json.
`summary` reports, per workload and end-to-end metric, each set's median and
spread ((Q3 - Q1) / median by statistics.quantiles(n=4)), the shift of the
second median against the first, and whether both stay within the bound
declared in BENCHMARK.json (spread of setup_s excepted).
"""
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = os.path.join(HERE, "runs")


def layout():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(tag, seeds):
    b = layout()
    os.makedirs(RUNS, exist_ok=True)
    for wl in [w["name"] for w in b["workloads"]]:
        rows = []
        for seed in seeds:
            t0 = time.time()
            p = subprocess.run(
                ["bash", "e2ebench/run.sh", "--workload", wl, "--seed", seed,
                 "--seconds", str(b["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            if not lines:
                sys.exit(f"{wl} seed {seed}: exit {p.returncode}, no result\n{p.stderr[-2000:]}")
            r = json.loads(lines[-1])
            r.update(seed=int(seed), wall_s=round(time.time() - t0, 1), exit=p.returncode)
            rows.append(r)
            print(wl, seed, p.returncode, {k: round(v["value"], 4) for k, v in r["metrics"].items()}, flush=True)
        with open(os.path.join(RUNS, f"{tag}-{wl}.json"), "w") as f:
            json.dump(rows, f, indent=1)
            f.write("\n")


def spread(vals):
    q = statistics.quantiles(vals, n=4)
    return (q[2] - q[0]) / statistics.median(vals)


def summary(tag1, tag2):
    b = layout()
    out = [f"# Same-code run sets `{tag1}` and `{tag2}`", "",
           "Spread is (Q3 - Q1) / median over the set's runs; shift is the second set's median",
           "over the first's, minus one. A metric passes when both spreads (setup_s excepted)",
           "and the shift stay within its bound.", ""]
    ok = True
    for wl in [w["name"] for w in b["workloads"]]:
        sets = []
        for tag in (tag1, tag2):
            with open(os.path.join(RUNS, f"{tag}-{wl}.json")) as f:
                sets.append(json.load(f))
        seeds = ", ".join(f"{[r['seed'] for r in s][0]}–{[r['seed'] for r in s][-1]}" for s in sets)
        out += [f"## {wl} (seeds {seeds}; all runs correct: "
                f"{all(r['correct'] and r['exit'] == 0 for s in sets for r in s)})", "",
                "| metric | bound | median 1 | spread 1 | median 2 | spread 2 | shift | pass |",
                "|---|---|---|---|---|---|---|---|"]
        for m in b["end_to_end"]:
            name, bound = m["name"], m["bound"]
            v = [[r["metrics"][name]["value"] for r in s] for s in sets]
            med = [statistics.median(x) for x in v]
            sp = [spread(x) for x in v]
            shift = med[1] / med[0] - 1
            passed = shift <= bound and (name == "setup_s" or max(sp) <= bound)
            ok = ok and passed
            out.append(f"| {name} | {bound} | {med[0]:.4f} | {sp[0]:.3f} | {med[1]:.4f} | {sp[1]:.3f} "
                       f"| {shift:+.3f} | {'yes' if passed else 'NO'} |")
        out.append("")
    with open(os.path.join(RUNS, "SUMMARY.md"), "w") as f:
        f.write("\n".join(out))
    print("\n".join(out))
    return ok


if __name__ == "__main__":
    if len(sys.argv) >= 4 and sys.argv[1] == "run":
        run(sys.argv[2], sys.argv[3:])
    elif len(sys.argv) == 4 and sys.argv[1] == "summary":
        sys.exit(0 if summary(sys.argv[2], sys.argv[3]) else 1)
    else:
        sys.exit(__doc__)
