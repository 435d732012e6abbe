#!/usr/bin/env python3
"""cxlmemo benchmark: build it, run one workload, check, report.

    python3 cxlbench/run.py --workload bw_sweep --seed 42 --seconds 20 --trace 0
    python3 cxlbench/run.py --workload all          # all three, one table
    python3 cxlbench/run.py --write-expected        # refresh expected.json
    python3 cxlbench/run.py --self-check            # determinism, held-out seed

The benchmark binary is built from this checkout's sources into
$CARGO_TARGET_DIR (default .bench_build), relative to the checkout root.
The last line of stdout is one JSON object: correct, attempted, failed
and the metrics (end-to-end with --trace 0, per-layer with --trace 1).
See README.md beside this file for what each metric means.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bw_sweep", "latency_chase", "pool_fabric")
DEFAULT_SEED = 42
DEFAULT_SECONDS = 20  # BENCHMARK.json's run_seconds
RUN_TIMEOUT_S = 170


def fail(msg):
    print("cxlbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure and build the benchmark binary; return its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no cxlmemo sources under %s/src" % ROOT)
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target_dir, "cxlbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", build_dir, "--target", "cxlbench",
              "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "cxlbench"), build_dir


def run_binary(binary, build_dir, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", os.path.join(
            build_dir, "spans-%s-%d.json" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    if proc.returncode:
        fail("%s exited with %d" % (workload, proc.returncode))
    return json.loads(proc.stdout)


def load(name):
    with open(os.path.join(HERE, name)) as f:
        return json.load(f)


def point_values(raw):
    return {"%s.%s" % (p["name"], k): v
            for p in raw["points"] for k, v in p["values"].items()}


def sim_value(expr, values):
    op, args = expr[0], [values[a] for a in expr[1:]]
    if op == "value":
        return args[0]
    if op == "ratio":
        return args[0] / args[1]
    if op == "max":
        return max(args)
    raise ValueError("unknown reference expression " + op)


def model_error(workload, values):
    """Mean |sim/paper - 1| in percent over the workload's references
    (None when it has none), and the per-reference rows."""
    rows = []
    for ref in load("refs.json")["refs"]:
        if ref["workload"] != workload:
            continue
        sim = sim_value(ref["sim"], values)
        rows.append((ref, sim, abs(sim / ref["value"] - 1.0) * 100.0))
    if not rows:
        return None, rows
    return statistics.mean(r[2] for r in rows), rows


def check(raw, seed):
    """Count attempted and failed point runs; list why any failed."""
    expected = load("expected.json")
    digests = expected["digests"].get(raw["workload"], {})
    attempted = failed = 0
    errors = []
    for p in raw["points"]:
        attempted += p["attempted"]
        bad = p["failed"]
        errors += ["%s: %s" % (p["name"], e) for e in p["errors"]]
        if seed == expected["seed"] and digests.get(p["name"]) != p["digest"]:
            bad = p["attempted"]
            errors.append("%s: digest %s, expected %s" % (
                p["name"], p["digest"], digests.get(p["name"])))
        failed += bad
    return attempted, failed, errors


def med(xs):
    return statistics.median(xs) if xs else 0.0


def total(raw, key):
    return sum(p["counts"][key] for p in raw["points"])


def end_to_end(raw):
    wall = sum(med(p["times"]) for p in raw["points"])
    setup = sum(med(p["setup_times"]) for p in raw["points"])
    return {
        "wall_s": (wall, "s"),
        "setup_s": (setup, "s"),
        "sim_events_per_s": (total(raw, "events") / (wall - setup),
                             "events/s"),
        "sim_accesses_per_s": (total(raw, "accesses") / wall,
                               "accesses/s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MiB"),
    }


def ratio(a, b):
    return a / b if b else 0.0


def per_layer(raw):
    parts = raw["setup_parts"]
    layers = raw["layers"]
    points = raw["points"]
    dark = sum(med(p["times"]) for p in points)
    traced_each = [med(p["traced_times"]) for p in points]
    llc = total(raw, "llc_lookups")
    rows = total(raw, "row_hits") + total(raw, "row_misses")
    m = {
        "system.build_s": (med(parts.get("system.build", [])), "s"),
        "numa.alloc_s": (med(parts.get("numa.alloc", [])), "s"),
        "numa.pages": (raw["numa_pages"], "count"),
        "cpu.stream_build_s": (med(parts.get("cpu.stream_build", [])), "s"),
        "cache.build_s": (med(parts.get("cache.build", [])), "s"),
        "cache.l1_lookups": (total(raw, "l1_lookups"), "count"),
        "cache.l2_lookups": (total(raw, "l2_lookups"), "count"),
        "cache.llc_lookups": (llc, "count"),
        "cache.llc_hit_rate": (ratio(total(raw, "llc_hits"), llc), "ratio"),
        "cache.evictions": (total(raw, "evictions"), "count"),
        "cache.llc_probe_ns": (layers["cache.llc_probe_ns"], "ns"),
        "sim.events": (total(raw, "events"), "count"),
        "sim.events_per_access": (ratio(total(raw, "events"),
                                        total(raw, "accesses")), "ratio"),
        "sim.event_ns": (layers["sim.event_ns"], "ns"),
        "mem.dram_reads": (total(raw, "dram_reads"), "count"),
        "mem.dram_writes": (total(raw, "dram_writes"), "count"),
        "mem.row_hit_ratio": (ratio(total(raw, "row_hits"), rows), "ratio"),
        "mem.access_ns": (layers["mem.access_ns"], "ns"),
        "cxl.reads": (total(raw, "cxl_reads"), "count"),
        "cxl.writes": (total(raw, "cxl_writes"), "count"),
        "cxl.bytes_down": (total(raw, "cxl_bytes_down"), "bytes"),
        "cxl.bytes_up": (total(raw, "cxl_bytes_up"), "bytes"),
        "cxl.read_stall_ns": (total(raw, "read_stall_ticks") / 1000.0, "ns"),
        "cxl.write_stall_ns": (total(raw, "write_stall_ticks") / 1000.0,
                               "ns"),
        "cxl.wbuf_high_water": (max(p["counts"]["wbuf_high_water"]
                                    for p in points), "count"),
        "cxl.access_ns": (layers["cxl.access_ns"], "ns"),
        "interconnect.sw_ops": (total(raw, "sw_ops"), "count"),
        "interconnect.sw_credit_stalls": (total(raw, "sw_credit_stalls"),
                                          "count"),
        "interconnect.fabric_events": (total(raw, "fabric_events"), "count"),
        "interconnect.cluster_build_s": (
            med(parts.get("interconnect.cluster_build", [])), "s"),
        "memo.point_s_p50": (med(traced_each), "s"),
        "memo.point_s_max": (max(traced_each), "s"),
        "bench.trace_overhead_pct": ((sum(traced_each) / dark - 1.0) * 100.0,
                                     "%"),
    }
    for name in ("obs.machine_armed_overhead_pct",
                 "obs.pool_armed_overhead_pct"):
        m[name] = (layers[name], "%")
    for name in ("obs.decomp_exact", "obs.little_ok"):
        m[name] = (layers[name], "bool")
    return m


def report(raw, seed, trace):
    """Print the human report; return the result object."""
    attempted, failed, errors = check(raw, seed)
    values = point_values(raw)
    err, refs = model_error(raw["workload"], values)
    metrics = per_layer(raw) if trace else end_to_end(raw)

    print("cxlbench %s seed=%d rounds=%d points=%d" % (
        raw["workload"], seed, raw["rounds"], len(raw["points"])))
    for name, (v, unit) in metrics.items():
        print("  %-32s %14.6g %s" % (name, v, unit))
    if err is None:
        print("  %-32s %14s %%  (no paper reference)" % ("model_err_pct",
                                                        "n/a"))
    else:
        print("  %-32s %14.6g %%  (%d paper references)" % (
            "model_err_pct", err, len(refs)))
        for ref, sim, e in refs:
            print("    %-9s %-26s paper %-26s sim %10.4g  err %5.1f%%" % (
                ref["exhibit"], ref["row"], ref["paper"], sim, e))
    print("  %-32s %14.6g ratio  (%d/%d point runs)" % (
        "failed_frac", failed / attempted, failed, attempted))
    for e in errors:
        print("  FAILED " + e)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }


def write_expected(binary, build_dir):
    digests = {}
    for w in WORKLOADS:
        raw = run_binary(binary, build_dir, w, DEFAULT_SEED, 1, 0)
        for p in raw["points"]:
            if p["failed"]:
                fail("%s/%s failed: %s" % (w, p["name"], p["errors"]))
        digests[w] = {p["name"]: p["digest"] for p in raw["points"]}
    with open(os.path.join(HERE, "expected.json"), "w") as f:
        json.dump({"seed": DEFAULT_SEED, "digests": digests}, f, indent=2)
        f.write("\n")


# Per-layer counts that must repeat bit for bit at one seed.
EXACT_COUNTS = (
    "numa.pages", "cache.l1_lookups", "cache.l2_lookups",
    "cache.llc_lookups", "cache.evictions", "sim.events", "mem.dram_reads",
    "mem.dram_writes", "cxl.reads", "cxl.writes", "cxl.bytes_down",
    "cxl.bytes_up", "cxl.read_stall_ns", "cxl.write_stall_ns",
    "cxl.wbuf_high_water", "interconnect.sw_ops",
    "interconnect.sw_credit_stalls", "interconnect.fabric_events")


def self_check(binary, build_dir):
    """Two traced runs at the default seed must give identical counts;
    a held-out seed must change them and break no invariant."""
    ok = True
    seeds = (DEFAULT_SEED, DEFAULT_SEED, DEFAULT_SEED + 1)
    for w in WORKLOADS:
        raws = [run_binary(binary, build_dir, w, s, 1, 1) for s in seeds]
        first, again, other = [per_layer(r) for r in raws]
        differ = [k for k in EXACT_COUNTS if first[k] != again[k]]
        moved = [k for k in EXACT_COUNTS if first[k] != other[k]]
        failed = sum(check(r, s)[1] for r, s in zip(raws, seeds))
        good = not differ and moved and not failed
        ok = ok and good
        print("%-14s %s  repeat: %s  seed %d moved %d/%d counts  failed %d"
              % (w, "OK  " if good else "FAIL",
                 "identical" if not differ else "differs in " + ",".join(differ),
                 seeds[2], len(moved), len(EXACT_COUNTS), failed))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-expected", action="store_true")
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not (args.workload or args.write_expected or args.self_check):
        ap.error("--workload is required")

    check_traceable(load("refs.json")["refs"])
    binary, build_dir = build()
    if args.write_expected:
        write_expected(binary, build_dir)
        return 0
    if args.self_check:
        return 0 if self_check(binary, build_dir) else 1

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [report(run_binary(binary, build_dir, w, args.seed,
                                 args.seconds, args.trace),
                      args.seed, args.trace)
               for w in workloads]
    if args.workload != "all":
        print(json.dumps(results[0]))
        return 0
    return 0 if all(r["correct"] for r in results) else 1


def check_traceable(refs):
    """Warn when a reference's quoted paper value is no longer in
    EXPERIMENTS.md (it is the record the table was copied from)."""
    path = os.path.join(ROOT, "EXPERIMENTS.md")
    if not os.path.isfile(path):
        return
    with open(path) as f:
        text = f.read()
    for ref in refs:
        if "| %s | %s |" % (ref["row"], ref["paper"]) not in text:
            print("cxlbench: reference '%s' = '%s' not found in "
                  "EXPERIMENTS.md" % (ref["row"], ref["paper"]),
                  file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
