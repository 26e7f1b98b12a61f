#!/usr/bin/env python3
"""Paper-pipeline benchmark: build the harness from source, run one workload.

    python3 perfbench/run.py --workload congest_dense --seed 1 --seconds 55 \
        --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The harness (perfbench/pipeline.cpp) is built
with CMake into .bench_build/perfbench, times the pipeline pass by pass and
checks every pass; this script turns its samples into metrics. The last line
of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 adds a traced pass and
reports the per-layer metrics, including sim.* read from the engine's
FL_SIM_TRACE profile JSONL. See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench_pipeline")
HARNESS_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ next to perfbench/; run from a full checkout")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = [["cmake", "--build", BUILD, "-j", "4",
              "--target", "perfbench_pipeline"]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                         "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))


def run_harness(args):
    """The harness's "<key> <value>..." lines as {key: [values]}."""
    try:
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              text=True, timeout=HARNESS_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {HARNESS_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"harness exited with {proc.returncode}")
    raw = {}
    for line in proc.stdout.splitlines():
        if line.startswith("fingerprint "):
            print(line)
            continue
        key, *values = line.split()
        raw[key] = [float(v) for v in values]
    return raw


def profile_rounds(path):
    """Per-round records of one Network's profile JSONL."""
    with open(path + ".jsonl") as f:
        return [r for r in map(json.loads, f) if "round" in r]


def engine_split(prefix, rounds, stage_s, metrics):
    """Engine phase totals of one stage, and its time outside engine rounds."""
    inside = 0.0
    for phase in ("step", "merge", "admit", "quiesce"):
        s = sum(r[phase + "_ns"] for r in rounds) / 1e9
        metrics[f"{prefix}.{phase}_s"] = (s, "s")
        inside += s
    metrics[f"{prefix}.outside_s"] = (stage_s - inside, "s")


def per_layer(med, trace_dir):
    """Per-layer metrics from the per-key medians and the profile JSONL."""
    m = {}
    m["graph.check_s"] = (med["check_s"], "s")
    m["graph.edges_checked"] = (med["edges_checked"], "count")
    m["core.sampler_s"] = (med["sampler_s"], "s")
    for key in ("sampler_messages", "query_msgs", "tree_msgs",
                "sampler_rounds"):
        m["core." + key] = (med[key], "count")
    m["core.sampler_words"] = (med["sampler_words"], "words")
    m["core.max_message_words"] = (med["max_message_words"], "words")
    m["localsim.transform_s"] = (med["transform_s"], "s")
    m["localsim.broadcast_s"] = (med["broadcast_s"], "s")
    m["localsim.eval_s"] = (med["transform_s"] - med["broadcast_s"], "s")
    m["localsim.broadcast_messages"] = (med["broadcast_messages"], "count")
    m["localsim.broadcast_rounds"] = (med["broadcast_rounds"], "count")
    m["localsim.broadcast_words"] = (med["broadcast_words"], "words")
    m["localsim.ball_entries"] = (med["ball_entries"], "count")
    m["localsim.reference_s"] = (med["reference_s"], "s")

    sampler = profile_rounds(os.path.join(trace_dir, "sampler.json"))
    transform = profile_rounds(os.path.join(trace_dir, "transform.json"))
    broadcast = profile_rounds(os.path.join(trace_dir, "broadcast.json"))
    engine_split("sim.sampler", sampler, med["traced.sampler_s"], m)
    engine_split("sim.broadcast", broadcast, med["traced.broadcast_s"], m)
    pass_rounds = sampler + transform
    deferrals = sum(r["deferrals"] for r in pass_rounds)
    m["sim.deferrals"] = (deferrals, "count")
    m["sim.carry_peak"] = (max(r["carry_depth"] for r in pass_rounds),
                           "count")
    busy = [r["max_over_avg_busy"] for r in pass_rounds
            if r["max_over_avg_busy"] > 0]
    m["sim.lane_imbalance"] = (statistics.fmean(busy) if busy else 1.0,
                               "ratio")
    m["trace.overhead_s"] = (med["traced.wall_s"] - med["wall_s"], "s")
    # The profile's deferrals must agree with the engine's Metrics.
    consistent = (med["traced.ok"] == 1
                  and deferrals == med["traced.deferrals"])
    return m, consistent


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", help="a name from BENCHMARK.json")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check that broken spanners and outputs are caught")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    build()
    if args.self_test:
        ok = run_harness(["--self-test"])["self_test"] == [1]
        print(json.dumps({"self_test": ok}))
        sys.exit(0 if ok else 1)

    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    trace_dir = os.path.join(BUILD, "trace", f"{args.workload}-{args.seed}")
    if args.trace:
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
        cmd += ["--trace-dir", trace_dir]
    raw = run_harness(cmd)
    attempted = int(raw["attempted"][0])
    failed = int(raw["failed"][0])

    med = {k: statistics.median(v) for k, v in raw.items()}

    correct = raw["self_test"] == [1] and failed == 0
    if args.trace:
        metrics, consistent = per_layer(med, trace_dir)
        correct = correct and consistent
    else:
        metrics = {
            "wall_s": (med["wall_s"], "s"),
            "setup_s": (med["setup_s"], "s"),
            "peak_rss_mib": (med["peak_rss_mib"], "MiB"),
            "messages": (med["messages"], "count"),
            "rounds": (med["rounds"], "count"),
            "spanner_edges": (med["spanner_edges"], "count"),
            "pass_rate": ((attempted - failed) / attempted, "ratio"),
        }
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
