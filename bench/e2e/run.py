#!/usr/bin/env python3
"""End-to-end benchmark of fsaic: builds the driver, runs workloads, checks
the answers, prints every metric with its unit.

    python3 bench/e2e/run.py                      # all four workloads
    python3 bench/e2e/run.py --workload suite-comm --seed 7
    python3 bench/e2e/run.py --trace 1            # per-layer metrics + trace
    python3 bench/e2e/run.py --smoke              # harness check, < 30 s

The metric names and units, and the seconds each solve workload fills with
passes (run_seconds), come from BENCHMARK.json at the repository root;
bench/e2e/README.md defines them. The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}: end-to-end metrics, or with
--trace 1 the per-layer metrics. The exit code is non-zero when any answer
is wrong, a pinned exact counter drifted or is missing, or the trace is
malformed.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent
BUILD = ROOT / "build-e2e"
DRIVER = BUILD / "fsaic_e2e"
PINS = HERE / "pins.json"
WORKLOADS = ["suite-fsai", "suite-comm", "stencil-1m", "serve-mix"]
# The executor threads and service workers already occupy the 4 cores. The
# library's OpenMP loops run inside them, and with the default team size
# each of the 4 threads opens its own team of 4 (16 threads on 4 cores),
# whose size would also follow the host's core count. The driver refuses
# any other setting.
OMP_THREADS = "1"
DRIVER_TIMEOUT_S = 170

# Layer calls each workload's traced run must show as balanced spans.
SETUP_CALLS = ["dist.use_kernel", "core.build_fsai_preconditioner",
               "core.make_factorized_preconditioner", "solver.pcg_solve",
               "dist.spmv", "solver.precond_apply", "exec.dist_dot",
               "exec.dist_axpy"]
SUITE_CALLS = ["graph.partition_system", "dist.distribute"]
GEN_CALLS = ["wgen.generate_dist", "dist.to_global"]
REQUIRED_SPANS = {
    "suite-fsai": SETUP_CALLS + SUITE_CALLS,
    "suite-comm": SETUP_CALLS + SUITE_CALLS,
    "stencil-1m": SETUP_CALLS + GEN_CALLS,
    "serve-mix": SETUP_CALLS + SUITE_CALLS + GEN_CALLS +
                 ["service.submit", "service.callback"],
}
# Exact counters pinned per operator; the seed-dependent ones only hold at
# the pinned seed.
STRUCTURAL = ["g_nnz", "halo_bytes_per_iter", "halo_msgs_per_iter"]
SEEDED = ["iterations", "solve_supersteps"]


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then rebuild incrementally (a no-op when current)."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} is not an fsaic source tree (no CMakeLists.txt or src/)")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD)],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "fsaic_e2e",
                    "-j", "4"], stdout=sys.stderr, check=True)


def quantiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[2]


def nearest_rank(v, q):
    s = sorted(v)
    return s[max(1, math.ceil(q * len(s))) - 1]


def end_to_end(samples):
    """{metric: (value, q1, q3, n)} from the driver's raw samples."""
    out = {}
    for name, v in samples.items():
        if name == "latency_ms":
            out["serve_p50_ms"] = (nearest_rank(v, 0.50), None, None, len(v))
            out["serve_p95_ms"] = (nearest_rank(v, 0.95), None, None, len(v))
        else:
            q1, q3 = quantiles(v)
            out[name] = (statistics.median(v), q1, q3, len(v))
    return out


def check_trace(path, workload):
    """Every required layer call appears as a complete ('X') slice, slices
    nest on every track, and every parent link names a recorded span."""
    problems = []
    spans = [e for e in json.loads(Path(path).read_text())["traceEvents"]
             if e["ph"] == "X"]
    ids = {e["args"]["span"] for e in spans} | {0}
    tracks = {}
    for e in spans:
        if e["dur"] < 0:
            problems.append(f"{e['name']} ends before it starts")
        if e["args"]["parent"] not in ids:
            problems.append(f"{e['name']} names an unrecorded parent")
        tracks.setdefault(e["tid"], []).append(e)
    # ts and dur are printed to 1 ns each, so a child's end may pass its
    # parent's by up to 1 ns.
    eps = 2e-3
    for track in tracks.values():
        track.sort(key=lambda e: (e["ts"], -e["dur"]))
        ends = []  # ends of the slices enclosing the current one
        for e in track:
            while ends and ends[-1] <= e["ts"] + eps:
                ends.pop()
            end = e["ts"] + e["dur"]
            if ends and end > ends[-1] + eps:
                problems.append(f"{e['name']} overlaps its enclosing slice")
            ends.append(end)
    names = {e["name"] for e in spans}
    problems += [f"no span for {n}" for n in REQUIRED_SPANS[workload]
                 if n not in names]
    return problems[:10]


def check_pins(doc, pins, smoke):
    """Exact counters must match bench/e2e/pins.json. A full run of a solve
    workload must cover exactly the pinned operators; a smoke run checks
    the operators it shares with the pins."""
    problems = []
    pinned = pins["workloads"].get(doc["workload"], {})
    if not smoke and doc["workload"] != "serve-mix":
        problems += [f"{op}: no pinned counters" for op in doc["exact"]
                     if op not in pinned]
        problems += [f"{op}: pinned but not run" for op in pinned
                     if op not in doc["exact"]]
    for op, got in doc["exact"].items():
        want = pinned.get(op)
        if want is None:
            continue
        keys = STRUCTURAL + (SEEDED if doc["seed"] == pins["seed"] else [])
        for k in keys:
            if got[k] != want[k]:
                problems.append(f"{op}: {k} {got[k]} != pinned {want[k]}")
    return problems


def run_workload(workload, args, spec):
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(spec["run_seconds"])]
    trace_path = None
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        (BUILD / "traces").mkdir(exist_ok=True)
        trace_path = BUILD / "traces" / f"{workload}-seed{args.seed}.json"
        cmd += ["--trace-out", str(trace_path)]
    env = dict(os.environ, OMP_NUM_THREADS=OMP_THREADS)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s on {workload}")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"driver failed on {workload} (exit {proc.returncode})")
    doc = json.loads(lines[-1])
    print(f"# {workload}: seed {args.seed}, {doc['passes']} passes, "
          f"{time.monotonic() - t0:.1f} s")

    problems = [f"{workload}: {e}" for e in doc["errors"]]
    if proc.returncode != 0 and not problems:
        problems.append(f"{workload}: driver reported a failure")
    if not args.pin:
        problems += [f"{workload}: {p}"
                     for p in check_pins(doc, args.pins, args.smoke)]
    if trace_path is not None:
        problems += [f"{workload} trace: {p}"
                     for p in check_trace(trace_path, workload)]
        print(f"# trace -> {trace_path}")

    e2e = end_to_end(doc["samples"])
    metrics = {}
    for m in spec["end_to_end"]:
        value, q1, q3, n = e2e[m["name"]]
        spread = f"(q1 {q1:.6g}, q3 {q3:.6g}, n={n})" if q1 is not None \
            else f"(nearest rank of n={n})"
        print(f"{workload} {m['name']} {value:.6g} {m['unit']} {spread}")
        if not args.trace:
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if args.trace:
        for m in spec["per_layer"]:
            value = doc["layers"][m["name"]]
            print(f"{workload} {m['name']} {value:.6g} {m['unit']}")
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    problems += [f"{workload}: {k} is not a finite number"
                 for k, v in metrics.items() if not math.isfinite(v["value"])]
    fail_frac = doc["failed"] / max(1, doc["attempted"])
    print(f"{workload} fail_frac {fail_frac:.6g} fraction "
          f"({doc['failed']} of {doc['attempted']})")
    for p in problems:
        print(f"FAIL {p}")
    return doc, metrics, problems


def write_pins(docs, seed):
    pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
    pins["seed"] = seed
    for doc in (d for d in docs if d["exact"]):
        pins.setdefault("workloads", {})[doc["workload"]] = {
            op: {k: c[k] for k in STRUCTURAL + SEEDED}
            for op, c in doc["exact"].items()}
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"# pinned exact counters -> {PINS}")


def main():
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the repository root")
    spec = json.loads(spec_path.read_text())

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run one workload (default: all)")
    ap.add_argument("--seed", type=int, default=2022)
    ap.add_argument("--seconds", type=float,
                    help="accepted only as BENCHMARK.json run_seconds, "
                         "which fixes the workloads")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0,
                    help="1: traced run, report per-layer metrics")
    ap.add_argument("--smoke", action="store_true",
                    help="1 pass, 2 suite operators, small stencil, "
                         "24 serve requests, traced and untraced")
    ap.add_argument("--pin", action="store_true",
                    help="record this run's exact counters in pins.json")
    args = ap.parse_args()
    if any(k.startswith("FSAIC_") for k in os.environ):
        fail("unset every FSAIC_* environment variable first")
    if args.seconds is not None and args.seconds != spec["run_seconds"]:
        fail(f"--seconds must be BENCHMARK.json run_seconds "
             f"({spec['run_seconds']}); the workloads are fixed")
    if args.pin and (args.smoke or args.seed != 2022):
        fail("--pin records full runs at seed 2022 only")
    # Re-pinning replaces the old counters instead of checking them.
    if not args.pin:
        if not PINS.is_file():
            fail(f"{PINS} is missing; record it with --pin")
        args.pins = json.loads(PINS.read_text())

    try:
        build()
    except subprocess.CalledProcessError as e:
        fail(f"build failed: {e}")
    workloads = [args.workload] if args.workload else WORKLOADS
    modes = [0, 1] if args.smoke else [args.trace]
    docs, metrics, problems = [], {}, []
    attempted = failed = 0
    for trace in modes:
        args.trace = trace
        for w in workloads:
            doc, m, p = run_workload(w, args, spec)
            docs.append(doc)
            problems += p
            attempted += doc["attempted"]
            failed += doc["failed"]
            if len(workloads) == 1 and not args.smoke:
                metrics = m
            else:
                metrics.update({f"{w}:{k}": v for k, v in m.items()})
    if args.pin:
        write_pins(docs, args.seed)

    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
