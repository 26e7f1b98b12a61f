#!/usr/bin/env bash
# Single entry point for CI and the tier-1 verify:
#   configure -> build -> ctest -> perfbench self-test -> quick bench smoke.
# Usage: scripts/check.sh [build-dir]   (default: build)
# Extra configure flags (e.g. -DFL_WERROR=ON) can be passed via the
# FL_CMAKE_ARGS environment variable; FL_SIM_THREADS=N runs everything on
# the parallel round engine (results are bit-identical by contract).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

# Determinism-contract lint: first prove every violation class still fires
# (the self-test fixtures), then lint src/ against the tracked allowlist.
python3 scripts/fl_lint.py --self-test
python3 scripts/fl_lint.py

# shellcheck disable=SC2086  # FL_CMAKE_ARGS is intentionally word-split
cmake -B "$BUILD_DIR" -S . ${FL_CMAKE_ARGS:-}
cmake --build "$BUILD_DIR" -j
ctest --test-dir "$BUILD_DIR" --output-on-failure -j

# Pipeline-harness smoke: perfbench/run.py builds perfbench/ against the
# current library into the git-ignored .bench_build/ and runs the
# harness's own self-test, so an API change that breaks the pipeline
# benchmark fails here rather than at benchmark time.
python3 perfbench/run.py --self-test

# Bench smoke: the delivery-throughput sweep at quick sizes plus the
# CONGEST budget sweep (LOCAL vs budgeted rounds under a binding per-edge
# word budget), JSON teed into the per-PR trajectory snapshot at the repo
# root. Exits nonzero if the sequential and parallel engines ever disagree
# on RunStats, or if a finite budget fails to stretch the schedule, so CI
# catches semantic drift, not just crashes. The committed
# BENCH_micro_perf.json is this same quick record, so bench_diff below has
# a matching baseline; FL_BENCH_FULL=1 additionally refreshes the tracked
# full-sweep record (adds the n=100k rows — a couple of minutes).
"$BUILD_DIR"/bench/bench_micro_perf --quick --congest --json | tee BENCH_micro_perf.json

# End-to-end bit-identity gate: the quickstart example's whole output,
# byte-diffed between the sequential engine and four execution lanes. The
# deterministic shard-merge contract says FL_SIM_THREADS is a wall-clock
# knob only, so any difference is an engine bug.
diff <(FL_SIM_THREADS=1 "$BUILD_DIR"/examples/quickstart) \
     <(FL_SIM_THREADS=4 "$BUILD_DIR"/examples/quickstart) \
  || { echo "check.sh: quickstart output differs across thread counts"; exit 1; }
echo "check.sh: quickstart byte-identical at 1 and 4 threads"
# The quickstart never runs the transformer; the message-reduction demo
# does, so this diff also covers ball evaluation, which runs on the lanes.
diff <(FL_SIM_THREADS=1 "$BUILD_DIR"/examples/message_reduction_demo) \
     <(FL_SIM_THREADS=4 "$BUILD_DIR"/examples/message_reduction_demo) \
  || { echo "check.sh: message_reduction_demo output differs across thread counts"; exit 1; }
echo "check.sh: message_reduction_demo byte-identical at 1 and 4 threads"
if [ -n "${FL_BENCH_FULL:-}" ]; then
  "$BUILD_DIR"/bench/bench_micro_perf --delivery --congest --json | tee BENCH_micro_perf_full.json
fi
# FL_BENCH_CAPACITY=1 refreshes the tracked capacity record: the n=1M
# sparse flood with its peak-RSS ceiling (~half a minute, ~0.5 GiB). Run
# at one lane — the row meters the engine, not the scheduler, and peak RSS
# is a process high-water mark, so capacity must be its own process run.
if [ -n "${FL_BENCH_CAPACITY:-}" ]; then
  "$BUILD_DIR"/bench/bench_micro_perf --capacity --quick --threads=1 --json | tee BENCH_capacity.json
fi
# FL_BENCH_PROFILE=1 runs the traced flood: tracing ON, per-round phase
# timeline teed into BENCH_profile.json, and the Perfetto-loadable
# TRACE_micro_perf.json (+ .jsonl profile dump) dropped at the repo root,
# then lint-checked for well-formedness. Exits nonzero if the trace
# artifact is missing per-lane step spans or busy data. The timings are
# advisory (never diffed) — the committed BENCH_profile.json is a shape
# record, refreshed only under this gate.
if [ -n "${FL_BENCH_PROFILE:-}" ]; then
  "$BUILD_DIR"/bench/bench_micro_perf --profile --quick --threads=2 --json | tee BENCH_profile.json
  python3 scripts/trace_lint.py TRACE_micro_perf.json TRACE_micro_perf.json.jsonl
fi

# Trajectory snapshots: every experiment's --quick --json record lands in a
# tracked BENCH_e<N>.json at the repo root, then bench_diff.py compares the
# fresh snapshots against the committed ones. Model quantities (rounds,
# messages, sizes) are deterministic per seed, so they must match exactly
# and any change is a genuine behaviour change; wall-clock fields are
# flagged only past 10% drift and marked as noisy. The schema lint first
# checks every snapshot's shape (and the profile table's model columns);
# the diff then warns by default (pass --strict to fail).
# E6 and E9 additionally run their --congest sections (the Sampler and the
# payload broadcasts under an enforced per-edge word budget), so the
# LOCAL-vs-budgeted round tables are part of the tracked trajectory.
for bench in e1_hierarchy e2_light_heavy e3_spanner_size e4_stretch \
             e5_rounds e6_messages e7_baselines e8_tlocal_broadcast \
             e9_message_reduction e10_two_stage; do
  id="${bench%%_*}"
  extra=""
  case "$bench" in
    e6_messages|e9_message_reduction) extra="--congest" ;;
  esac
  # shellcheck disable=SC2086  # $extra is intentionally word-split
  "$BUILD_DIR"/bench/"bench_$bench" --quick $extra --json > "BENCH_$id.json"
  echo "snapshot: BENCH_$id.json"
done
python3 scripts/bench_diff.py --lint-schema
python3 scripts/bench_diff.py

# A snapshot outside the repository has no committed baseline: bench_diff
# must say so and go on, not abort the whole diff.
outside="$(mktemp -d)"
cp BENCH_e1.json "$outside/"
out="$(python3 scripts/bench_diff.py "$outside/BENCH_e1.json")" \
  || { echo "check.sh: bench_diff failed on a snapshot outside the repo"; rm -rf "$outside"; exit 1; }
rm -rf "$outside"
grep -qF "BENCH_e1.json: not committed yet, no baseline" <<<"$out" \
  || { echo "check.sh: bench_diff printed no no-baseline line for a snapshot outside the repo"; exit 1; }
echo "check.sh: bench_diff reports no baseline for a snapshot outside the repo"

echo "check.sh: all green"
