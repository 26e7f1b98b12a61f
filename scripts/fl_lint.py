#!/usr/bin/env python3
"""fl_lint — determinism-contract lint for the fl source tree.

The simulator's whole value proposition is bit-identical runs at every
thread count and (non-binding) congest budget. The contracts
that guarantee it are structural, repo-specific, and invisible to a generic
linter, so this pass checks them directly over ``src/``:

  FL001 banned-rng        std::rand / srand / random_device in engine or
                          protocol code — all randomness must flow through
                          the seeded per-node util::Xoshiro256 streams.
  FL002 wall-clock        time() / std::chrono / clock_gettime — round
                          logic must never observe wall-clock time. The one
                          sanctioned reader is the observability layer:
                          files under src/obs/ are exempt (obs::Clock is
                          the single door the ban leaves open), and FL009
                          polices the other side of that door.
  FL003 unordered-iter    range-for over a std::unordered_{map,set}
                          declared in the same file: hash-order iteration
                          feeding sends, metrics, or outputs is the classic
                          silent determinism leak.
  FL004 pointer-ordered   std::map/std::set keyed on a pointer type —
                          address order varies run to run (ASLR, allocator).
  FL005 pointer-hash      std::hash over a pointer type, same failure mode.
  FL006 size-hint-zero    a literal 0 passed as size_hint_words to send():
                          words accounting treats the hint as the message's
                          CONGEST width, and no message is 0 words wide —
                          Network::enqueue silently clamps a 0 hint to 1
                          word, so a literal 0 states a width the run never
                          bills.
  FL008 message-aos       a std::vector of MessageHeader / Payload declared
                          outside sim/message.hpp: bulk message storage must
                          be a MessagePlanes (the structure-of-arrays plane
                          container), never a hand-rolled array — parallel
                          planes that drift apart break the zipped-view
                          contract and the sticky-capacity accounting.
  FL009 obs-feedback      code under src/{sim,core,baseline,localsim}
                          consumes an fl::obs timing value (obs::Clock,
                          RoundProfile's *_ns fields, busy times, the
                          imbalance ratio): observability is one-way by
                          contract (CONTRACTS.md C12) — the engine opens
                          spans and reports model counters, but a timing
                          fed back into a scheduling or protocol decision
                          would make wall-clock an input again, undoing
                          everything FL002 protects.
  FL010 schedule-length   code under src/ outside core/distributed_sampler.*
                          consumes Schedule::total_rounds. The paper's
                          timetable length is the run length only in plain
                          LOCAL; under an enforced budget the sampler runs
                          event-driven phase barriers (CONTRACTS.md C13)
                          and advances on the network-silence fact, so it
                          may finish in far fewer (or, mid-phase, more)
                          rounds. Sizing a loop, cap, or buffer from
                          total_rounds outside the sampler driver silently
                          couples callers to the LOCAL-only timetable.
  FL012 oracle-read       code under src/{core,localsim,baseline} calls
                          network_silent() or all_delivered(): both read a
                          global drain fact no real node can observe, so
                          every protocol that advances on one has
                          oracle-assisted round counts (CONTRACTS.md C13).
                          Each reader is an allowlisted, justified entry;
                          a deployable synchronizer empties the list.
  FL013 local-read        code in src/localsim/algorithms.hpp or under
                          src/localsim/algorithms/ calls a graph
                          topology accessor (incident, degree, endpoints,
                          other_endpoint, has_edge, find_edge, edges()):
                          a LOCAL algorithm is a one-hop round rule that
                          reads only its own state and its neighbours'
                          previous states (CONTRACTS.md C15), so B_G(v, t)
                          fixes its t-round output by construction. A rule
                          that walks the graph itself can read past its
                          ball, and run_reference would then agree with a
                          wrong transform.

Retired IDs, never reused: FL007 (payload-assert, which required a
static_assert(Payload::stores_inline<T>) beside every braced send — the
Payload constructor now accepts only inline types, so the compiler checks
every send) and FL011 (raw-transport, which fenced the socket API inside
the deleted TCP delivery backend).

Violations that are understood and accepted live in the tracked allowlist
(``scripts/fl_lint_allowlist.txt``); everything else fails the build. So
does an allowlist entry that suppresses no finding: a fixed violation must
take its exemption with it.

Usage:
  fl_lint.py [--root REPO] [--allowlist FILE]   lint src/, exit 1 on findings
                                                or stale allowlist entries
  fl_lint.py --self-test                        prove each check still fires
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import re
import sys
import tempfile

CHECK_IDS = (
    "FL001", "FL002", "FL003", "FL004", "FL005", "FL006", "FL008", "FL009",
    "FL010", "FL012", "FL013",
)


def is_digit_separator(text: str, i: int) -> bool:
    """True when the quote at text[i] separates digits of a number literal
    (1'000'000, 0xFF'FF) rather than opening a char literal (u8'a')."""
    j = i
    while j > 0 and (text[j - 1].isalnum() or text[j - 1] == "'"):
        j -= 1
    return j < i and text[j].isdigit() and i + 1 < len(text) and \
        text[i + 1].isalnum()


def strip_comments(text: str) -> str:
    """Blank out // and /* */ comments and string/char literals, preserving
    line structure so reported line numbers stay exact."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c == "'" and is_digit_separator(text, i):
            out.append(c)
            i += 1
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(quote + " " * (j - i - 2) + (quote if j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


class Finding:
    def __init__(self, path: str, line: int, check: str, message: str):
        self.path = path
        self.line = line
        self.check = check
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.check} {self.message}"


def line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


# --------------------------------------------------------------- FL001/2/4/5

PATTERN_CHECKS = [
    ("FL001", re.compile(r"\bstd::rand\b|\bsrand\s*\(|\bstd::random_device\b"),
     "banned RNG source; use the seeded per-node util::Xoshiro256 stream"),
    ("FL002", re.compile(
        r"\bstd::chrono\b|\bgettimeofday\s*\(|\bclock_gettime\s*\(|"
        r"(?<![\w.:])time\s*\(\s*(?:NULL|nullptr|0|&|\))"),
     "wall-clock observation in deterministic code"),
    ("FL004", re.compile(r"\bstd::(?:multi)?(?:map|set)\s*<[^<>,;]*\*"),
     "ordered container keyed on a pointer (address order is not stable)"),
    ("FL005", re.compile(r"\bstd::hash\s*<[^<>;]*\*"),
     "std::hash of a pointer (hash of an address is not stable)"),
]


# The sanctioned-clock carve-out: src/obs/ is the observability layer, the
# one place allowed to read steady_clock (obs::Clock). FL009 below checks
# the other direction — nothing outside obs may consume what it measures.
OBS_DIR = re.compile(r"(?:^|/)src/obs/")


def check_patterns(path: str, code: str) -> list:
    in_obs = OBS_DIR.search(path.replace("\\", "/")) is not None
    findings = []
    for check, rx, msg in PATTERN_CHECKS:
        if check == "FL002" and in_obs:
            continue
        for m in rx.finditer(code):
            findings.append(Finding(path, line_of(code, m.start()), check, msg))
    return findings


# --------------------------------------------------------------------- FL003

UNORDERED_DECL = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<[^;{]*?>\s*"
    r"(\w+)\s*[;({=]")
RANGE_FOR = re.compile(r"\bfor\s*\(\s*(?:const\s+)?[\w:<>,&*\s]+?[&\s]"
                       r"(?:\[[^\]]*\]|\w+)\s*:\s*(\w+)\s*\)")


def check_unordered_iteration(path: str, code: str) -> list:
    names = set(UNORDERED_DECL.findall(code))
    if not names:
        return []
    findings = []
    for m in RANGE_FOR.finditer(code):
        if m.group(1) in names:
            findings.append(Finding(
                path, line_of(code, m.start()), "FL003",
                f"iteration over unordered container '{m.group(1)}' "
                "(hash order must not feed sends, metrics, or outputs)"))
    return findings


# --------------------------------------------------------------------- FL006

SEND_CALL = re.compile(r"\bsend\s*\(")


def split_call(code: str, open_paren: int):
    """Return (args, end) for the call whose '(' is at open_paren, with args
    split at top-level commas. None if the parenthesis never closes."""
    depth, i, n = 0, open_paren, len(code)
    args, start = [], open_paren + 1
    while i < n:
        c = code[i]
        if c in "([{<":
            # '<' is only a bracket in template-ish position; treating every
            # '<' as one would desync on comparisons, so only track ([{.
            if c != "<":
                depth += 1
        elif c in ")]}":
            depth -= 1
            if depth == 0:
                args.append(code[start:i])
                return args, i
        elif c == "," and depth == 1:
            args.append(code[start:i])
            start = i + 1
        i += 1
    return None, n


def check_send_sites(path: str, code: str) -> list:
    findings = []
    for m in SEND_CALL.finditer(code):
        args, _ = split_call(code, m.end() - 1)
        if args is None or len(args) < 3 or args[-1].strip() != "0":
            continue
        findings.append(Finding(
            path, line_of(code, m.start()), "FL006",
            "literal 0 passed as size_hint_words (a message is never "
            "0 CONGEST words; Network::enqueue clamps the hint to 1)"))
    return findings


# --------------------------------------------------------------------- FL008

MESSAGE_VECTOR = re.compile(
    r"\bstd::vector\s*<\s*(?:fl::)?(?:sim::)?(?:MessageHeader|Payload)\s*>")


def check_message_planes(path: str, code: str) -> list:
    # sim/message.hpp IS the plane container — its two vectors are the one
    # legal declaration site.
    if path.replace("\\", "/").endswith("sim/message.hpp"):
        return []
    findings = []
    for m in MESSAGE_VECTOR.finditer(code):
        findings.append(Finding(
            path, line_of(code, m.start()), "FL008",
            "raw vector of message headers/payloads; bulk message storage "
            "must be a sim::MessagePlanes (structure-of-arrays planes)"))
    return findings


# --------------------------------------------------------------------- FL009

# Decision-path code: the engine and every protocol layer. src/obs itself,
# src/util (Timer is bench/example reporting) and src/graph are out of
# scope — nothing there makes round-engine decisions.
FL009_SCOPE = re.compile(r"(?:^|/)src/(?:sim|core|baseline|localsim)/")

# What "consuming a timing" looks like at the token level: the sanctioned
# clock itself, or any of the advisory wall-clock fields/accessors the
# tracer exposes. Engine code legitimately *constructs* scopes and calls
# end_round with model counters — none of those tokens appear here.
FL009_TOKENS = re.compile(
    r"\bobs::Clock\b|\bnow_ns\s*\(|"
    r"\b(?:quiesce_ns|step_ns|merge_ns|admit_ns|end_ns|elapsed_ns|"
    r"lane_busy_ns|busy_ns|max_over_avg_busy)\b")


def check_obs_feedback(path: str, code: str) -> list:
    if not FL009_SCOPE.search(path.replace("\\", "/")):
        return []
    findings = []
    for m in FL009_TOKENS.finditer(code):
        findings.append(Finding(
            path, line_of(code, m.start()), "FL009",
            "engine/protocol code consumes an obs timing value — "
            "observability is one-way (CONTRACTS.md C12): wall-clock data "
            "must never feed a scheduling or protocol decision"))
    return findings


# --------------------------------------------------------------------- FL010

# The sampler driver and its Schedule definition are the one legal consumer:
# the driver derives the LOCAL (fixed-timetable) stall cap from the
# timetable length.
FL010_EXEMPT = re.compile(r"(?:^|/)src/core/distributed_sampler\.[a-z]+$")
FL010_TOKEN = re.compile(r"\btotal_rounds\b")


def check_schedule_length(path: str, code: str) -> list:
    if FL010_EXEMPT.search(path.replace("\\", "/")):
        return []
    findings = []
    for m in FL010_TOKEN.finditer(code):
        findings.append(Finding(
            path, line_of(code, m.start()), "FL010",
            "Schedule::total_rounds consumed outside the sampler driver — "
            "the timetable length is a provisioning model under "
            "event-driven barriers (CONTRACTS.md C13), not a run-length "
            "promise"))
    return findings


# --------------------------------------------------------------------- FL012

# Protocol code only: the engine (src/sim) defines the accessors and reads
# round_silent() itself to decide which nodes step.
FL012_SCOPE = re.compile(r"(?:^|/)src/(?:core|localsim|baseline)/")
FL012_CALL = re.compile(r"\b(?:network_silent|all_delivered)\s*\(")


def check_oracle_reads(path: str, code: str) -> list:
    if not FL012_SCOPE.search(path.replace("\\", "/")):
        return []
    findings = []
    for m in FL012_CALL.finditer(code):
        findings.append(Finding(
            path, line_of(code, m.start()), "FL012",
            "protocol reads a global drain fact — its round counts are "
            "oracle-assisted (CONTRACTS.md C13); allowlist it with a "
            "justification or use a synchronizer nodes can run"))
    return findings


# --------------------------------------------------------------------- FL013

FL013_SCOPE = re.compile(r"(?:^|/)src/localsim/algorithms(?:/|\.hpp$)")
FL013_CALL = re.compile(
    r"\b(?:incident|degree|endpoints|other_endpoint|has_edge|find_edge)"
    r"\s*\(|\bedges\s*\(\s*\)")


def check_local_reads(path: str, code: str) -> list:
    if not FL013_SCOPE.search(path.replace("\\", "/")):
        return []
    findings = []
    for m in FL013_CALL.finditer(code):
        findings.append(Finding(
            path, line_of(code, m.start()), "FL013",
            "LOCAL algorithm reads the graph — a round rule reads only its "
            "own state and its neighbours' previous states (CONTRACTS.md "
            "C15)"))
    return findings


# ----------------------------------------------------------------- allowlist

def load_allowlist(path: str) -> list:
    """Each entry: (check_id, file_glob-ish path, optional substring). A
    finding is suppressed when the check matches, the finding's path ends
    with the entry path, and (if given) the substring occurs in the
    finding's source line."""
    entries = []
    if not os.path.exists(path):
        return entries
    with open(path, encoding="utf-8") as f:
        for raw in f:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(None, 2)
            if len(parts) < 2 or parts[0] not in CHECK_IDS:
                print(f"fl_lint: malformed allowlist entry: {line!r}",
                      file=sys.stderr)
                sys.exit(2)
            entries.append((parts[0], parts[1],
                            parts[2] if len(parts) > 2 else None))
    return entries


def suppressed(finding: Finding, source_lines: list, allow: list,
               used: set) -> bool:
    """True when an allowlist entry covers the finding; the first such
    entry's index goes into `used`."""
    for i, (check, path_suffix, substr) in enumerate(allow):
        if check != finding.check:
            continue
        if not finding.path.endswith(path_suffix):
            continue
        if substr is not None:
            text = (source_lines[finding.line - 1]
                    if finding.line <= len(source_lines) else "")
            if substr not in text:
                continue
        used.add(i)
        return True
    return False


# ---------------------------------------------------------------------- main

def lint_file(path: str, rel: str, allow: list, used=None) -> list:
    with open(path, encoding="utf-8") as f:
        text = f.read()
    code = strip_comments(text)
    findings = []
    findings += check_patterns(rel, code)
    findings += check_unordered_iteration(rel, code)
    findings += check_send_sites(rel, code)
    findings += check_message_planes(rel, code)
    findings += check_obs_feedback(rel, code)
    findings += check_schedule_length(rel, code)
    findings += check_oracle_reads(rel, code)
    findings += check_local_reads(rel, code)
    lines = text.split("\n")
    used = set() if used is None else used
    return [f for f in findings if not suppressed(f, lines, allow, used)]


def lint_tree(root: str, allowlist_path: str) -> int:
    allow = load_allowlist(allowlist_path)
    src = os.path.join(root, "src")
    if not os.path.isdir(src):
        print(f"fl_lint: no src/ under {root}", file=sys.stderr)
        return 2
    findings = []
    used = set()
    for dirpath, _, files in os.walk(src):
        for name in sorted(files):
            if not name.endswith((".hpp", ".cpp", ".h", ".cc")):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root)
            findings += lint_file(path, rel, allow, used)
    findings.sort(key=lambda f: (f.path, f.line))
    for f in findings:
        print(f)
    # An entry that suppressed nothing is a dead exemption: the violation
    # it excused is gone, and the allowlist no longer records the tree.
    stale = [e for i, e in enumerate(allow) if i not in used]
    for check, path_suffix, substr in stale:
        print(f"{allowlist_path}: stale allowlist entry suppresses no "
              f"finding: {check} {path_suffix}"
              + (f" {substr!r}" if substr is not None else ""))
    if findings:
        counts = {}
        for f in findings:
            counts[f.check] = counts.get(f.check, 0) + 1
        summary = ", ".join(f"{k}: {v}" for k, v in sorted(counts.items()))
        print(f"fl_lint: {len(findings)} finding(s) ({summary})",
              file=sys.stderr)
    if stale:
        print(f"fl_lint: {len(stale)} stale allowlist entr"
              f"{'y' if len(stale) == 1 else 'ies'}", file=sys.stderr)
    return 1 if findings or stale else 0


# ------------------------------------------------------------------ selftest

# Each fixture is (repo-relative path, body): path-scoped rules (the FL002
# obs exemption, FL009's decision-path scope) are exercised with the same
# paths the tree lint would report.
FIXTURES = {
    # one fixture per violation class; each must trip exactly its check
    "FL001": ("src/fixture_fl001.cpp",
              "int f() { return std::rand(); }\n"),
    "FL002": ("src/fixture_fl002.cpp",
              "#include <chrono>\ndouble f() { return"
              " std::chrono::steady_clock::now().time_since_epoch().count();"
              " }\n"),
    "FL003": ("src/fixture_fl003.cpp",
              "#include <unordered_map>\nvoid f(Ctx& ctx) {\n"
              "  std::unordered_map<int, int> acc;\n"
              "  for (const auto& [k, v] : acc) ctx.send(k, v, 1);\n}\n"),
    "FL004": ("src/fixture_fl004.cpp",
              "#include <map>\nstd::map<Node*, int> rank_;\n"),
    "FL005": ("src/fixture_fl005.cpp",
              "#include <functional>\nstd::size_t h(Node* p) {"
              " return std::hash<Node*>{}(p); }\n"),
    "FL006": ("src/fixture_fl006.cpp",
              "void f(Ctx& ctx) { ctx.send(e, MsgPing{}, 0); }\n"),
    "FL008": ("src/fixture_fl008.cpp",
              "#include <vector>\n"
              "std::vector<sim::MessageHeader> headers_;\n"
              "std::vector<fl::sim::Payload> payloads_;\n"),
    # A scheduling decision fed by a RoundProfile timing — exactly the
    # adaptive-sharding shortcut C12 forbids until it is designed for.
    "FL009": ("src/sim/fixture_fl009.cpp",
              "#include \"obs/trace.hpp\"\n"
              "void rebalance(const obs::RoundProfile& p, Plan& plan) {\n"
              "  if (p.step_ns > plan.budget_ns) plan.shrink_hot_shard();\n"
              "}\n"),
    # A run cap derived from the timetable length outside the sampler
    # driver — exactly the fixed-schedule coupling C13 retires.
    "FL010": ("src/sim/fixture_fl010.cpp",
              "#include \"core/distributed_sampler.hpp\"\n"
              "std::size_t cap(const core::Schedule& s) {\n"
              "  return s.total_rounds * 64 + 4096;\n"
              "}\n"),
    # A protocol phase advancing on the global drain fact — the oracle
    # C13 names, outside the allowlisted readers.
    "FL012": ("src/localsim/fixture_fl012.cpp",
              "void Node::on_round(sim::Context& ctx, sim::InboxView in) {\n"
              "  if (ctx.all_delivered()) advance_phase(ctx);\n"
              "}\n"),
    # A round rule walking the graph past its one-hop neighbour view.
    "FL013": ("src/localsim/algorithms/fixture_fl013.cpp",
              "std::uint64_t Rule::step(unsigned r, NodeId v, std::uint64_t s,\n"
              "                         const Neighbours& nbrs) const {\n"
              "  for (const auto& inc : g_->incident(v)) s += g_->degree(inc.to);\n"
              "  return s;\n"
              "}\n"),
}

# Files that must produce no findings: a compliant protocol, the obs layer
# reading the clock it is sanctioned to read (FL002's carve-out), and
# engine code that *constructs* trace scopes without consuming timings
# (the write-only side FL009 must not flag).
CLEAN_FIXTURES = [
    ("src/fixture_clean.cpp",
     "// a compliant protocol file\n"
     "struct MsgPing { int x; };\n"
     "static_assert(sim::Payload::trivially_relocatable<MsgPing>);\n"
     "void f(Ctx& ctx) {\n"
     "  for (const EdgeId e : ctx.incident_edges())\n"
     "    ctx.send(e, MsgPing{1}, 1);  // std::rand() in a comment is fine\n"
     "}\n"),
    ("src/obs/fixture_clean_obs.cpp",
     "#include <chrono>\n"
     "std::uint64_t sanctioned_now() {\n"
     "  return std::chrono::steady_clock::now().time_since_epoch().count();\n"
     "}\n"),
    ("src/sim/fixture_clean_sim.cpp",
     "#include \"obs/trace.hpp\"\n"
     "void phase(obs::Tracer* trace, unsigned s, std::size_t round) {\n"
     "  const obs::SpanScope span(trace, obs::SpanKind::StepLane, s, round);\n"
     "}\n"),
    # FL013's scope: a round rule reading its neighbour view only.
    ("src/localsim/algorithms/fixture_clean_rule.cpp",
     "std::uint64_t Rule::step(unsigned, NodeId, std::uint64_t s,\n"
     "                         const Neighbours& neighbours) const {\n"
     "  for (const Neighbour nb : neighbours) s = std::max(s, nb.edge);\n"
     "  return s;\n"
     "}\n"),
    # FL010's carve-out: the sampler driver is the one legal consumer of
    # the timetable length (the LOCAL fixed-timetable stall cap).
    ("src/core/distributed_sampler.cpp",
     "std::size_t fixed_cap(const Schedule& s) {\n"
     "  return s.total_rounds + 4;\n"
     "}\n"),
]


def self_test() -> int:
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        def write_fixture(rel, body):
            path = os.path.join(tmp, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(body)
            return path

        for check, (rel, body) in FIXTURES.items():
            path = write_fixture(rel, body)
            got = lint_file(path, rel, allow=[])
            if not any(f.check == check for f in got):
                failures.append(f"{check}: fixture did not trip its check "
                                f"(got: {[str(f) for f in got]})")
            os.remove(path)
        for rel, body in CLEAN_FIXTURES:
            path = write_fixture(rel, body)
            got = lint_file(path, rel, allow=[])
            if got:
                failures.append(
                    f"clean fixture {rel} tripped: {[str(f) for f in got]}")
            os.remove(path)
        # A digit separator does not open a char literal: the code after
        # it stays visible, at its own line.
        rel = "src/digits.cpp"
        path = write_fixture(rel, "constexpr int kBig = 1'000;\n"
                                  "char c = u8'x';\n"
                                  + FIXTURES["FL001"][1])
        got = [(f.check, f.line) for f in lint_file(path, rel, allow=[])]
        if got != [("FL001", 3)]:
            failures.append(f"digit separator hid code: got {got}")
        os.remove(path)
        # The allowlist mechanism itself: a suppressed finding must vanish.
        rel = "src/allowed.cpp"
        path = write_fixture(rel, FIXTURES["FL001"][1])
        got = lint_file(path, rel, allow=[("FL001", "allowed.cpp", None)])
        if got:
            failures.append(f"allowlist did not suppress: "
                            f"{[str(f) for f in got]}")
        # An entry that suppresses nothing fails the tree and is named; the
        # live entry beside it is not.
        allowlist = write_fixture(
            "allowlist.txt",
            "FL001 src/allowed.cpp\n"
            "FL003 src/allowed.cpp per_cluster\n")
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = lint_tree(tmp, allowlist)
        report = out.getvalue()
        if rc != 1 or "FL003 src/allowed.cpp 'per_cluster'" not in report \
                or "FL001" in report:
            failures.append(f"stale allowlist entry not reported alone: "
                            f"rc={rc}, output {report!r}")
    for msg in failures:
        print(f"fl_lint self-test FAILED: {msg}", file=sys.stderr)
    if not failures:
        print(f"fl_lint self-test OK: {len(FIXTURES)} violation classes "
              f"fire, {len(CLEAN_FIXTURES)} clean fixtures pass, allowlist "
              "suppresses, stale entries fail")
    return 1 if failures else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: this script's parent's parent)")
    ap.add_argument("--allowlist", default=None,
                    help="allowlist file (default: scripts/fl_lint_allowlist"
                         ".txt under --root)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the violation-class fixtures instead of "
                         "linting the tree")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    allowlist = args.allowlist or os.path.join(
        args.root, "scripts", "fl_lint_allowlist.txt")
    return lint_tree(args.root, allowlist)


if __name__ == "__main__":
    sys.exit(main())
