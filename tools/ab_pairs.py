#!/usr/bin/env python3
"""A/B comparison of two source trees on one end-to-end benchmark workload.

    python3 tools/ab_pairs.py PARENT_TREE CHANGE_TREE --workload suite-fsai -k 10

Runs each tree's `python3 bench/e2e/run.py --workload W` k times, in ABBA
order (pair i runs A first when i is even, B first when i is odd), so that
neither tree always runs second. The end-to-end metric names, units and
directions come from BENCHMARK.json of tree A. Any run that exits non-zero or
prints `"correct": false` stops the comparison with exit code 1.

Prints every run's values, then per metric: each side's median and
IQR/median, the B/A ratio of the medians, and how many pairs B won (ties
count for neither side).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(tree, workload, seed):
    cmd = [sys.executable, "bench/e2e/run.py", "--workload", workload]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    doc = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or doc.get("correct") is not True:
        fails = [l for l in lines if l.startswith("FAIL")]
        sys.exit(f"ab_pairs: {tree} {workload}: run not correct "
                 f"(exit {proc.returncode}) {fails[:5]}")
    return {k: v["value"] for k, v in doc["metrics"].items()}


def spread(values):
    """(median, IQR/median) of the samples."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / abs(med)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tree_a", type=Path, help="baseline source tree (A)")
    ap.add_argument("tree_b", type=Path, help="changed source tree (B)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("-k", type=int, default=10, help="pairs to run")
    ap.add_argument("--seed", type=int,
                    help="workload seed passed to run.py (default: its own)")
    args = ap.parse_args()

    spec = json.loads((args.tree_a / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    runs = {"A": [], "B": []}
    for i in range(args.k):
        for side in ("AB" if i % 2 == 0 else "BA"):
            tree = args.tree_a if side == "A" else args.tree_b
            values = run_once(tree, args.workload, args.seed)
            runs[side].append(values)
            print(f"pair {i} {side} " + " ".join(
                f"{m['name']}={values[m['name']]:.6g}" for m in metrics),
                flush=True)

    print(f"# {args.workload}: {args.k} ABBA pairs, A={args.tree_a} "
          f"B={args.tree_b}")
    print(f"{'metric':<20} {'A median':>12} {'A iqr/med':>10} "
          f"{'B median':>12} {'B iqr/med':>10} {'B/A':>7} {'B won':>7}")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        a = [r[name] for r in runs["A"]]
        b = [r[name] for r in runs["B"]]
        (a_med, a_iqr), (b_med, b_iqr) = spread(a), spread(b)
        won = sum(1 for x, y in zip(a, b) if (y < x if lower else y > x))
        ratio = f"{b_med / a_med:.3f}" if a_med else "n/a"
        print(f"{name + ' (' + m['unit'] + ')':<20} {a_med:>12.6g} "
              f"{a_iqr:>10.3f} {b_med:>12.6g} {b_iqr:>10.3f} {ratio:>7} "
              f"{won:>3}/{len(a):<3}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
