"""Run the benchmark several times on the same code and report how steady
each end-to-end metric is.

    python3 bench/steady.py [--workloads a,b] [--seeds 1-10] [--save FILE]
                            [--against FILE]

Each run is `bench/run.py` with its own seed, one after another, for the
`run_seconds` of BENCHMARK.json, the run length its bounds were set for. For
every workload and metric it prints the median, the first and third
quartiles (`statistics.quantiles(values, n=4)`), the spread
(q3 - q1) / median and that spread as a share of the metric's bound. With --against it
also compares the medians with an earlier saved set of runs: a median that
is worse than the earlier one by more than the bound is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--save")
    parser.add_argument("--against")
    args = parser.parse_args()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    earlier = None
    if args.against:
        with open(args.against) as fh:
            earlier = json.load(fh)

    runs = {}
    worst = 0.0
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in parse_seeds(args.seeds):
            out = run_once(workload, seed, spec["run_seconds"])
            runs[workload].append(out)
            print(f"{workload} seed {seed}: correct={out['correct']} "
                  f"attempted={out['attempted']} failed={out['failed']} " +
                  " ".join(f"{k}={v['value']:.5g}" for k, v in out["metrics"].items()),
                  flush=True)
        shares = {r["failed"] / r["attempted"] for r in runs[workload]}
        print(f"{workload}: failed share {sorted(shares)}"
              f"{'' if len(shares) == 1 else '  NOT CONSTANT'}")
        for name, m in bounds.items():
            s = summarize([r["metrics"][name]["value"] for r in runs[workload]])
            line = (f"  {name:15s} median {s['median']:10.5g}  q1 {s['q1']:10.5g}  "
                    f"q3 {s['q3']:10.5g}  spread {100 * s['spread']:5.2f}%  "
                    f"= {s['spread'] / m['bound']:.2f} of bound {m['bound']}")
            if name != "setup_s":
                worst = max(worst, s["spread"] / m["bound"])
            if earlier is not None:
                old = summarize([r["metrics"][name]["value"]
                                 for r in earlier[workload]])["median"]
                change = (s["median"] - old) / old
                worse = change if m["better"] == "lower" else -change
                line += f"  vs earlier {100 * change:+.2f}%" + \
                    ("  WORSE THAN BOUND" if worse > m["bound"] else "")
            print(line, flush=True)
    print(f"largest spread, setup_s aside: {worst:.2f} of its bound")
    if args.save:
        with open(args.save, "w") as fh:
            json.dump(runs, fh)


if __name__ == "__main__":
    main()
