#!/usr/bin/env python3
"""End-to-end benchmark runner (see README.md in this directory).

Builds bench_e2e from source, runs workloads, checks their outputs and prints
every metric as `<workload> <metric> <value> <unit>`, followed by one JSON
result line per workload:

  python3 bench/e2e/run.py [--workload W]... [--seed N] [--seconds S]
                           [--trace 0|1] [--quick] [--build DIR] [--save FILE]
  python3 bench/e2e/run.py compare A.jsonl B.jsonl

Without --workload every workload named in BENCHMARK.json runs. --save
appends each workload's full record (host stamp, metrics, deterministic
outputs) to a JSON-lines file; `compare` judges two such files against the
bounds in BENCHMARK.json. Exits non-zero when a check fails, a metric is
missing, or the build fails.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent.parent
SPEC_PATH = REPO / "BENCHMARK.json"
GOLDENS_PATH = BENCH_DIR / "goldens.json"

# bench_e2e must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170
# Host-stamp fields that must match before two results are compared.
STAMP_KEYS = ("cpus", "cpu_list", "compiler", "build_type", "cxx_flags",
              "executor_threads", "pinning", "wait_strategy")
# Outputs that depend only on the seed and the routing code.
DETERMINISTIC = ("core.imbalance", "core.state_entries_per_key",
                 "core.head_fraction", "core.head_choices")
CANARY_DRIFT = 0.05


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def build(build_dir):
    """Configures (once) and builds bench_e2e; returns the binary path."""
    try:
        if not (build_dir / "CMakeCache.txt").exists():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                            *generator], check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", str(build_dir), "--target",
                        "bench_e2e", "-j", str(min(4, os.cpu_count() or 1))],
                       check=True, stdout=sys.stderr)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")
    return build_dir / "bench_e2e"


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(REPO), "describe", "--always",
                              "--dirty"], capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def derive(raw):
    """Turns bench_e2e's raw reps and probes into named metrics.

    Returns (end_to_end, per_layer, samples) dicts. Only reps that passed
    their checks count; raises StatisticsError when a metric has none.
    """
    median = statistics.median
    reps = [r for r in raw["reps"] if not r["warmup"] and r["ok"]]
    threads = raw["host"]["executor_threads"]
    main = [r for r in reps if r["threads"] == threads and not r["traced"]]
    traced = [r for r in reps if r["traced"]]

    def rate(r):
        return r["units"] / r["makespan_s"]

    engine_setup = [r["build_s"] + r["wall_s"] - r["makespan_s"] for r in main]
    e2e = {"throughput_tps": median([rate(r) for r in main]),
           "latency_p50_ms": median([r["latency_p50_ms"] for r in main]),
           "latency_p99_ms": median([r["latency_p99_ms"] for r in main]),
           "setup_s": median(raw["setup_s"]) + median(engine_setup),
           "peak_rss_mb": raw["peak_rss_mb"]}
    samples = {"throughput_tps": len(main),
               "latency": sum(int(r["latency_samples"]) for r in main),
               "setup_s": len(raw["setup_s"]) + len(engine_setup)}

    layers = {
        "core.imbalance": main[0]["imbalance"],
        "core.state_entries_per_key": main[0]["state_entries_per_key"],
        "core.head_fraction": raw["head"].get("head_fraction", 0.0),
        "core.head_choices": raw["head"].get("head_choices", 0.0),
        "analysis.calls_per_mtuple": raw["head"].get("calls_per_mtuple", 0.0),
        "host.calib_ns": 0.5 * (raw["host"]["calib_ns_before"] +
                                raw["host"]["calib_ns_after"]),
    }
    if not raw["traced"]:
        return e2e, layers, samples

    layers.update(raw["probes"])
    untraced_tps = e2e["throughput_tps"]
    layers["trace.overhead"] = 1.0 - median([rate(r) for r in traced]) / untraced_tps

    def busy(r):  # executor-ns available in a rep
        return threads * r["makespan_s"] * 1e9

    layers["dspe.execute_share"] = median([r["execute_ns"] / busy(r) for r in traced])
    layers["dspe.spout_share"] = median([r["spout_ns"] / busy(r) for r in traced])
    layers["dspe.other_share"] = median(
        [1.0 - (r["execute_ns"] + r["spout_ns"] + r["idle_s"] * 1e9) / busy(r)
         for r in traced])
    layers["dspe.idle_share"] = median([r["idle_s"] * 1e9 / busy(r) for r in main])
    layers["dspe.park_share"] = median([r["park_s"] * 1e9 / busy(r) for r in main])
    layers["dspe.parks_per_mtuple"] = median(
        [r["parks"] / r["tuples"] * 1e6 for r in main])
    layers["dspe.tps_1t"] = median([rate(r) for r in reps if r["threads"] == 1])
    layers["dspe.tps_2t"] = median([rate(r) for r in reps if r["threads"] == 2])
    layers["dspe.scaling_eff"] = untraced_tps / (threads * layers["dspe.tps_1t"])
    # Item-1 budget: one-thread ns/root minus the per-root cost of each layer
    # on the tuple's path (one D-C route and one ring hop per root).
    per_root_spout = median([r["spout_ns"] / r["units"] for r in traced])
    per_root_execute = median([r["execute_ns"] / r["units"] for r in traced])
    layers["budget.residual_ns"] = (
        1e9 / layers["dspe.tps_1t"] - per_root_spout - layers["core.route_ns.dc"]
        - layers["dspe.ring_ns"] - per_root_execute)
    return e2e, layers, samples


def check_reps(raw):
    """Counts failed reps: errors bench_e2e reported and reps whose
    deterministic outputs differ from the first rep of the same size."""
    errors = []
    failed = 0
    first_by_size = {}
    for i, r in enumerate(raw["reps"]):
        bad = False
        if not r["ok"]:
            errors.append(f"rep {i}: {r['error']}")
            bad = True
        else:
            outputs = (r["imbalance"], r["state_entries_per_key"])
            first = first_by_size.setdefault(r["units"], outputs)
            if outputs != first:
                errors.append(f"rep {i}: deterministic outputs {outputs} != {first}")
                bad = True
        failed += bad
    return failed, errors


def check_goldens(raw, layers, seed, goldens):
    """At the golden seed and full size, the deterministic outputs must equal
    goldens.json; returns the mismatches."""
    golden = goldens["workloads"].get(raw["workload"])
    if not golden or seed != goldens["seed"] or raw["quick"]:
        return []
    return [f"{name} = {layers.get(name)}, golden {want}"
            for name, want in golden.items()
            if not math.isclose(layers.get(name, math.nan), want, rel_tol=1e-9)]


def check_trace(path):
    """The trace must parse and hold the probe, spout and bolt spans."""
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
    except (OSError, ValueError, KeyError) as e:
        return f"trace {path} does not parse: {e}"
    names = {e["name"] for e in events}
    needed = {"hash.worker2", "sketch.update", "core.route.dc",
              "dspe.execute_topology", "spout.next_tuple", "bolt.execute"}
    missing = needed - names
    return f"trace {path} lacks spans {sorted(missing)}" if missing else None


def fmt(value):
    return f"{value:.6g}"


def run_workload(binary, workload, args, spec, goldens):
    """Runs one workload; prints its metric lines and result JSON. Returns
    True when the run was correct and reported every metric."""
    trace_path = None
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        trace_path = args.build / f"trace-{workload}-seed{args.seed}.json"
        cmd += ["--trace", str(trace_path)]
    if args.quick:
        cmd.append("--quick")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        raw = json.loads(proc.stdout.strip().splitlines()[-1])
    except (OSError, subprocess.TimeoutExpired, ValueError, IndexError) as e:
        print(f"error: {workload}: bench_e2e failed: {e}", file=sys.stderr)
        return False

    attempted = len(raw["reps"])
    failed, errors = check_reps(raw)
    try:
        e2e, layers, samples = derive(raw)
    except (statistics.StatisticsError, IndexError, ZeroDivisionError) as e:
        for message in errors + [f"no metrics without successful reps: {e}"]:
            print(f"error: {workload}: {message}", file=sys.stderr)
        return False
    golden_errors = check_goldens(raw, layers, args.seed, goldens)
    if golden_errors:
        failed = attempted  # every rep ran the deviating routing
    errors += golden_errors
    for message in errors:
        print(f"error: {workload}: {message}", file=sys.stderr)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    reported = layers if args.trace else e2e
    missing = [m["name"] for m in wanted if m["name"] not in reported]
    if trace_path is not None:
        problem = check_trace(trace_path)
        if problem:
            errors.append(problem)
            print(f"error: {workload}: {problem}", file=sys.stderr)
    if missing:
        print(f"error: {workload}: metrics missing: {missing}", file=sys.stderr)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for m in spec["end_to_end"]:
        name = m["name"]
        n = samples.get("latency" if name.startswith("latency") else name)
        suffix = f" n={n}" if n is not None else ""
        print(f"{workload} {name} {fmt(e2e[name])} {m['unit']}{suffix}")
    print(f"{workload} error_rate {fmt(failed / attempted)} 1 n={attempted}")
    for name in sorted(layers):
        if args.trace or name in DETERMINISTIC or name == "host.calib_ns":
            print(f"{workload} {name} {fmt(layers[name])} {units.get(name, '1')}")
    if trace_path is not None:
        print(f"{workload} trace {trace_path}")

    correct = failed == 0 and not errors
    metrics = {m["name"]: {"value": reported[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in reported}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.stdout.flush()

    if args.save:
        host = dict(raw["host"], git_commit=git_commit())
        record = {"workload": workload, "seed": args.seed, "trace": args.trace,
                  "quick": args.quick, "host": host, "correct": correct,
                  "metrics": {**e2e, **layers}, "samples": samples}
        with open(args.save, "a") as f:
            f.write(json.dumps(record) + "\n")
    return correct and not missing


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a, b, bound, lower_is_better):
    """Judges side B against side A for one metric."""
    q1a, ma, q3a = quartiles(a)
    q1b, mb, q3b = quartiles(b)
    sign = 1.0 if lower_is_better else -1.0
    worse_by = sign * (mb - ma) / ma if ma else 0.0
    spread = max((q3a - q1a) / ma if ma else 0.0, (q3b - q1b) / mb if mb else 0.0)
    b_always_better = all(sign * (y - x) < 0 for x in a for y in b)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    if spread > bound:
        return "better" if b_always_better else "unresolved", worse_by, spread
    if worse_by > bound:
        return "worse", worse_by, spread
    if -worse_by > (q3a - q1a) / ma and wins >= 0.9 * len(pairs):
        return "better", worse_by, spread
    return "within bound", worse_by, spread


def load_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def compare(path_a, path_b, spec):
    """Compares two sets of saved invocations (run alternately, >= 5 each)."""
    side_a = [r for r in load_records(path_a) if not r["trace"] and not r["quick"]]
    side_b = [r for r in load_records(path_b) if not r["trace"] and not r["quick"]]
    status = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        a = [r for r in side_a if r["workload"] == workload]
        b = [r for r in side_b if r["workload"] == workload]
        if not a and not b:
            continue
        stamps = {tuple(str(r["host"].get(k)) for k in STAMP_KEYS) for r in a + b}
        if len(stamps) > 1:
            print(f"{workload}: refusing to compare, host stamps differ:",
                  file=sys.stderr)
            for stamp in sorted(stamps):
                print("  " + ", ".join(f"{k}={v}" for k, v in zip(STAMP_KEYS, stamp)),
                      file=sys.stderr)
            return 2
        if len(a) < 5 or len(b) < 5:
            print(f"{workload}: need >= 5 invocations per side "
                  f"(have {len(a)} and {len(b)})", file=sys.stderr)
            return 2

        def canary(r):
            return 0.5 * (r["host"]["calib_ns_before"] + r["host"]["calib_ns_after"])

        drifted = sum(
            1 for x, y in zip(a, b)
            if abs(canary(y) / canary(x) - 1) > CANARY_DRIFT
            or any(abs(r["host"]["calib_ns_after"] / r["host"]["calib_ns_before"] - 1)
                   > CANARY_DRIFT for r in (x, y)))
        print(f"{workload}: {len(a)} vs {len(b)} invocations, "
              f"{drifted} drifted pair(s) (canary moved > {CANARY_DRIFT:.0%})")
        for m in spec["end_to_end"]:
            va = [r["metrics"][m["name"]] for r in a]
            vb = [r["metrics"][m["name"]] for r in b]
            result, worse_by, spread = verdict(va, vb, m["bound"],
                                               m["better"] == "lower")
            if result == "worse":
                status = 1
            qa, qb = quartiles(va), quartiles(vb)
            note = f" drifted={drifted}" if result == "unresolved" else ""
            print(f"  {m['name']:<16} A {fmt(qa[1])} [{fmt(qa[0])}, {fmt(qa[2])}]"
                  f"  B {fmt(qb[1])} [{fmt(qb[0])}, {fmt(qb[2])}] {m['unit']}"
                  f"  worse_by={worse_by:+.1%} spread={spread:.1%}"
                  f" bound={m['bound']:.0%}: {result}{note}")
        for name in DETERMINISTIC:
            by_seed = {}
            for r in a + b:
                by_seed.setdefault(r["seed"], set()).add(r["metrics"][name])
            same = all(len(values) == 1 for values in by_seed.values())
            if not same:
                status = 1
            print(f"  {name:<28} {'identical' if same else 'DIFFERENT'} "
                  f"across {len(a) + len(b)} invocations")
    return status


def main():
    spec = load_spec()
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            fail("usage: run.py compare A.jsonl B.jsonl")
        sys.exit(compare(sys.argv[2], sys.argv[3], spec))

    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="1/50 input sizes, one rep (smoke test)")
    parser.add_argument("--build", type=Path, default=REPO / ".bench_build",
                        help="build directory for bench_e2e")
    parser.add_argument("--save", type=Path,
                        help="append each workload's record to this JSONL file")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    args.build = args.build.resolve()

    binary = build(args.build)
    with open(GOLDENS_PATH) as f:
        goldens = json.load(f)
    ok = True
    for workload in args.workload or names:
        ok = run_workload(binary, workload, args, spec, goldens) and ok
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
