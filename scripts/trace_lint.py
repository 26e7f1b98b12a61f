#!/usr/bin/env python3
"""Validate trace artifacts emitted by the fl::obs tracing layer.

Two artifact kinds, distinguished by filename:

  *.json        Chrome-trace-event file (Perfetto-loadable): one top-level
                object with "traceEvents". Checked: parses as JSON; has the
                displayTimeUnit hint; every event is an object with a
                string "name" and a "ph" in {M, X, C}; complete (X) events
                carry numeric ts >= 0, dur >= 0, integer tid, and an
                integer args.round; X-event timestamps are non-decreasing
                in file order (the exporter sorts globally, so a single
                linear pass proves chronological well-formedness); at
                least one "step:lane" span exists (the per-lane evidence
                the acceptance contract promises).

  *.jsonl       Round-profile dump: one flat JSON object per line — the
                per-round rows first (each with the model fields round /
                messages / words / deferrals / carry_depth / stepped,
                rounds strictly ascending, deferrals == carry_depth — a
                round's deferrals are the messages still parked after it —
                stepped <= n, busy_ns a list), then histogram lines (each
                with "histogram", "count", and a "buckets" list whose
                entries carry lo <= hi and n >= 1). n is the node_sends
                histogram's count: it holds one sample per node.

Usage:  scripts/trace_lint.py FILE [FILE...]
Exit status: 0 when every file is well-formed, 1 otherwise. Never run this
on a trace written by several concurrent Networks (e.g. a whole ctest suite
sharing one FL_SIM_TRACE path): finalize() truncates, so the file is
whichever Network died last — fine for neutrality smoke, not lintable.
"""

import json
import sys
from pathlib import Path

REQUIRED_ROUND_FIELDS = ("round", "messages", "words", "deferrals",
                         "carry_depth", "stepped")
VALID_PHASES = {"M", "X", "C"}


def lint_chrome(path: Path, problems: list) -> None:
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        problems.append(f"{path.name}: unparseable JSON ({e})")
        return
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        problems.append(f"{path.name}: no top-level 'traceEvents' list")
        return
    if doc.get("displayTimeUnit") not in ("ms", "ns"):
        problems.append(f"{path.name}: missing/odd displayTimeUnit")
    events = doc["traceEvents"]
    if not isinstance(events, list) or not events:
        problems.append(f"{path.name}: traceEvents empty or not a list")
        return
    last_ts = None
    step_lane_spans = 0
    x_events = 0
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"{path.name} event {i}: not an object")
            continue
        name = ev.get("name")
        ph = ev.get("ph")
        if not isinstance(name, str) or not name:
            problems.append(f"{path.name} event {i}: no string 'name'")
            continue
        if ph not in VALID_PHASES:
            problems.append(
                f"{path.name} event {i} ({name}): ph {ph!r} not in "
                f"{sorted(VALID_PHASES)}")
            continue
        if ph != "X":
            continue
        x_events += 1
        ts, dur, tid = ev.get("ts"), ev.get("dur"), ev.get("tid")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{path.name} event {i} ({name}): bad ts {ts!r}")
            continue
        if not isinstance(dur, (int, float)) or dur < 0:
            problems.append(f"{path.name} event {i} ({name}): bad dur {dur!r}")
        if not isinstance(tid, int):
            problems.append(f"{path.name} event {i} ({name}): bad tid {tid!r}")
        args = ev.get("args")
        if not isinstance(args, dict) or not isinstance(
                args.get("round"), int):
            problems.append(
                f"{path.name} event {i} ({name}): args.round missing or "
                f"not an integer")
        if last_ts is not None and ts < last_ts:
            problems.append(
                f"{path.name} event {i} ({name}): ts {ts} precedes the "
                f"previous X event ({last_ts}) — file is not "
                f"chronologically sorted")
        last_ts = ts
        if name == "step:lane":
            step_lane_spans += 1
    if x_events == 0:
        problems.append(f"{path.name}: no complete (X) span events at all")
    elif step_lane_spans == 0:
        problems.append(
            f"{path.name}: no 'step:lane' spans — the per-lane timeline "
            f"the trace exists for is absent")


def lint_profile_jsonl(path: Path, problems: list) -> None:
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    if not lines:
        problems.append(f"{path.name}: empty profile dump")
        return
    prev_round = None
    saw_round = False
    saw_histogram = False
    max_stepped = None  # (line, round, stepped) of the largest count
    nodes = None
    for i, line in enumerate(lines):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            problems.append(f"{path.name} line {i}: unparseable ({e})")
            continue
        if not isinstance(obj, dict):
            problems.append(f"{path.name} line {i}: not an object")
            continue
        if "histogram" in obj:
            saw_histogram = True
            if obj.get("histogram") == "node_sends":
                nodes = obj.get("count")
            if not isinstance(obj.get("count"), int):
                problems.append(
                    f"{path.name} line {i} (histogram "
                    f"{obj.get('histogram')!r}): no integer 'count'")
            buckets = obj.get("buckets")
            if not isinstance(buckets, list):
                problems.append(
                    f"{path.name} line {i} (histogram "
                    f"{obj.get('histogram')!r}): no 'buckets' list")
                continue
            for j, b in enumerate(buckets):
                if (not isinstance(b, dict)
                        or not isinstance(b.get("lo"), int)
                        or not isinstance(b.get("hi"), int)
                        or not isinstance(b.get("n"), int)
                        or b["lo"] > b["hi"] or b["n"] < 1):
                    problems.append(
                        f"{path.name} line {i} bucket {j}: malformed "
                        f"(need integer lo <= hi, n >= 1)")
            continue
        saw_round = True
        missing = [f for f in REQUIRED_ROUND_FIELDS
                   if not isinstance(obj.get(f), int)]
        if missing:
            problems.append(
                f"{path.name} line {i}: round row lacks integer model "
                f"field(s) {missing}")
            continue
        if saw_histogram:
            problems.append(
                f"{path.name} line {i}: round row after histogram lines "
                f"(rounds must come first)")
        if prev_round is not None and obj["round"] <= prev_round:
            problems.append(
                f"{path.name} line {i}: round {obj['round']} does not "
                f"ascend past {prev_round}")
        prev_round = obj["round"]
        if obj["deferrals"] != obj["carry_depth"]:
            problems.append(
                f"{path.name} line {i}: round {obj['round']} has "
                f"deferrals {obj['deferrals']} != carry_depth "
                f"{obj['carry_depth']} (every parked message is deferred "
                f"by the round it is parked after)")
        if max_stepped is None or obj["stepped"] > max_stepped[2]:
            max_stepped = (i, obj["round"], obj["stepped"])
        busy = obj.get("busy_ns")
        if not isinstance(busy, list) or not all(
                isinstance(b, int) and b >= 0 for b in busy):
            problems.append(
                f"{path.name} line {i}: busy_ns missing or not a list of "
                f"non-negative integers")
    if max_stepped is not None and isinstance(nodes, int) \
            and max_stepped[2] > nodes:
        problems.append(
            f"{path.name} line {max_stepped[0]}: round {max_stepped[1]} "
            f"stepped {max_stepped[2]} nodes, more than the network's "
            f"{nodes}")
    if not saw_round:
        problems.append(f"{path.name}: no round-profile rows")
    if not saw_histogram:
        problems.append(f"{path.name}: no histogram lines")


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__)
        return 2
    problems = []
    for arg in sys.argv[1:]:
        path = Path(arg)
        if not path.exists():
            problems.append(f"{path.name}: missing")
            continue
        if path.name.endswith(".jsonl"):
            lint_profile_jsonl(path, problems)
        else:
            lint_chrome(path, problems)
    for line in problems:
        print(f"trace_lint: {line}")
    if not problems:
        print(f"trace_lint: {len(sys.argv) - 1} artifact(s) well-formed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
