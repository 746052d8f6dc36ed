#!/usr/bin/env python3
"""Repo-local determinism lint.

Every result this repo produces is supposed to be a pure function of
its inputs; these rules fence off the C++ constructs that historically
break that promise. Rules:

  rand       libc rand()/srand() and std::random_device in result
             paths (src/, bench/, tools/) — seeded engines from
             common/random.h only.
  wallclock  time(NULL)/time(nullptr) in result paths — wall-clock
             reads belong in Stopwatch timings, never in results.
  unordered  std::unordered_map / std::unordered_set anywhere in src/:
             iteration order is implementation-defined, and sooner or
             later somebody iterates. std::map/std::set are ordered.
  mutex      a naked std::mutex in src/simmpi (the transport hot
             path): every lock there must carry a
             `repo-lint: allow(mutex): <reason>` annotation within the
             two lines above the declaration saying why it is not a
             scalability hazard.
  condvar    a std::condition_variable in src/ outside
             src/simmpi/mailbox.h: every blocking wait between node
             threads is a Mailbox wait, which the transport log
             records, so the happens-before analysis in src/check
             sees every synchronization of a run.
  benchkey   string keys fed to bench::JsonReport::add(...) or to the
             obs::MetricRegistry (counter) must be
             schema-clean: [A-Za-z0-9_/.:+%-]+, not the reserved
             top-level keys "bench"/"metrics"/"timeline", and registry
             metric names must not end in `_s` (seconds belong to
             JsonReport timing keys, registry counters are
             dimensionless).
  timelinekey  string keys fed to obs::Timeline::Sample(...) or
             resolved by obs::Timeline::Series(...) must match the
             flight-recorder grammar
             <subsystem>/<name>[/unit] — lowercase [a-z][a-z0-9_]*
             subsystem, then one or two [A-Za-z0-9_.+-]+ segments
             (src/obs/timeline.h; tools/trace_check.py enforces the
             same grammar on exported counter tracks).
  numparse   strtod/strtof/strtol/strtoll/strtoul/strtoull, std::sto*
             and atoi/atof/atol calls in src/, tools/ and examples/
             outside src/common/numparse.h: every number read from
             text goes through that header's ParseDouble/ParseInt/
             ParseU64, so one grammar (no leading space or '+', no
             hex, finite doubles) holds for every flag, spec field,
             knob and example argument.
  malloc     tuning the process's allocator in src/, tools/ or
             examples/: mallopt, malloc_trim, M_TRIM_THRESHOLD,
             M_MMAP_THRESHOLD, GLIBC_TUNABLES, or a definition of
             global operator new/delete (one that starts its line;
             class-scoped ones are indented). The library keeps the memory
             it reuses itself (common/block_cache.h) and leaves malloc
             as every embedding process configured it.
  pricing    a use of one of CostModel's six per-node stage prices
             (map_seconds, pack_seconds, encode_seconds,
             unpack_seconds, decode_seconds, reduce_seconds) outside
             src/analytics/: NodeStagePrice (analytics/report.h) is
             the one map from a stage name to its price, so
             SimulateRun and the scenario engine cannot drift apart.
  codecfront a use of the codec's packet-object front-end
             (CodedPacket, EncodePacket, DecodePacket, DecodedSegment,
             MergeSegments) in src/ outside src/coding/: every engine
             encodes and decodes with the kernels (EncodeInto,
             DecodeGroupInto), and the object front-end stays the
             tests' reference decoder and the benches' timing subject.
  codegen    a create_groups call in src/ outside src/simmpi/ and
             src/driver/cluster.cc: CreateGroups (driver/cluster.h)
             is CodeGen for every coded engine, so no engine keeps a
             group-creation loop of its own.
  isa        ISA selection in src/, tools/ or examples/ outside
             src/keyvalue/teragen.cc: a target or target_clones
             attribute, __builtin_cpu_supports/__builtin_cpu_init,
             `#pragma GCC target`, <immintrin.h> or <x86intrin.h>.
             TeraGen's record kernels are the one place the code picks
             an instruction set from the CPU, so every other module
             builds and behaves the same on every x86-64 host.
  stagelabel a set_stage( call in src/, tools/ or examples/ outside
             src/simmpi/traffic.h and src/driver/cluster.h: only a
             node's own StageRunner labels that node's traffic, right
             after the barrier that opens the stage.
  arena      BufferArena in src/, tools/ or examples/ outside
             src/common/buffer.h: the class is an empty shim kept
             only for ctbench's transport pass until the next
             benchmark change deletes it, so nothing may adopt it.

Any rule is suppressed for a line by `repo-lint: allow(<rule>)` on the
line itself or within the two lines above it.

Usage: repo_lint.py [--root DIR] [--self-test]
Exit status 0 when clean, 1 on findings (or self-test failure).
"""

import argparse
import pathlib
import re
import sys

CPP_GLOBS = ("*.h", "*.cc", "*.cpp")

ALLOW_RE = re.compile(r"repo-lint:\s*allow\((\w+)\)")

RAND_RE = re.compile(r"\b(?:srand|rand)\s*\(|std::random_device")
WALLCLOCK_RE = re.compile(r"\btime\s*\(\s*(?:NULL|nullptr)\s*\)")
UNORDERED_RE = re.compile(r"std::unordered_(?:map|set)\b")
MUTEX_RE = re.compile(r"\bstd::mutex\b")
CONDVAR_RE = re.compile(r"\bstd::condition_variable")
CONDVAR_HOME = "src/simmpi/mailbox.h"
ADD_KEY_RE = re.compile(r"\.add\(\s*\"([^\"]*)\"")
REGISTRY_KEY_RE = re.compile(r"\bcounter\(\s*\"([^\"]*)\"")
KEY_OK_RE = re.compile(r"[A-Za-z0-9_/.:+%-]+\Z")
RESERVED_KEYS = {"bench", "metrics", "timeline"}
SAMPLE_KEY_RE = re.compile(r"(?:\.|->)(?:Sample|Series)\(\s*\"([^\"]*)\"")
TIMELINE_KEY_RE = re.compile(r"[a-z][a-z0-9_]*(/[A-Za-z0-9_.+-]+){1,2}\Z")
NUMPARSE_RE = re.compile(
    r"(?:\bstrto(?:d|f|l|ll|ul|ull|ld)|\bato(?:i|f|l|ll)"
    r"|\bstd::sto(?:i|l|ll|ul|ull|f|d|ld))\s*\(")
NUMPARSE_HOME = "src/common/numparse.h"
MALLOC_RE = re.compile(
    r"\b(?:mallopt|malloc_trim|M_TRIM_THRESHOLD|M_MMAP_THRESHOLD"
    r"|GLIBC_TUNABLES)\b"
    r"|^(?:\[\[\w+\]\]\s*)?(?:void\s*\*|void)\s+(?:::\s*)?"
    r"operator\s+(?:new|delete)\b")
PRICING_RE = re.compile(
    r"(?:\.|->|::)\s*(?:map|pack|encode|unpack|decode|reduce)_seconds\b")
PRICING_HOME = "src/analytics/"
CODECFRONT_RE = re.compile(
    r"\b(?:CodedPacket|EncodePacket|DecodePacket|DecodedSegment"
    r"|MergeSegments)\b")
CODECFRONT_HOME = "src/coding/"
CODEGEN_RE = re.compile(r"(?:\.|->)\s*create_groups\s*\(")
CODEGEN_HOMES = ("src/simmpi/", "src/driver/cluster.cc")
ISA_RE = re.compile(
    r"__attribute__\s*\(\(\s*target\s*\(|\bgnu::target\s*\("
    r"|\btarget_clones\b|\b__builtin_cpu_(?:supports|init)\b"
    r"|#\s*pragma\s+GCC\s+target\b|<(?:immintrin|x86intrin)\.h>")
ISA_HOME = "src/keyvalue/teragen.cc"
STAGELABEL_RE = re.compile(r"\bset_stage\s*\(")
STAGELABEL_HOMES = ("src/simmpi/traffic.h", "src/driver/cluster.h")
ARENA_RE = re.compile(r"\bBufferArena\b")
ARENA_HOME = "src/common/buffer.h"


def allowed(lines, i, rule):
    """True when line i (0-based) carries or inherits an allow marker."""
    for j in range(max(0, i - 2), i + 1):
        m = ALLOW_RE.search(lines[j])
        if m and m.group(1) == rule:
            return True
    return False


def lint_lines(relpath, lines):
    """Lints one file's lines; yields (line_number, rule, message)."""
    path = relpath.replace("\\", "/")
    in_src = path.startswith("src/")
    in_simmpi = path.startswith("src/simmpi/")
    numparse_scope = (in_src or path.startswith(("tools/", "examples/"))) \
        and path != NUMPARSE_HOME
    pricing_scope = not path.startswith(PRICING_HOME)
    malloc_scope = in_src or path.startswith(("tools/", "examples/"))
    codecfront_scope = in_src and not path.startswith(CODECFRONT_HOME)
    codegen_scope = in_src and not path.startswith(CODEGEN_HOMES)
    isa_scope = malloc_scope and path != ISA_HOME
    stagelabel_scope = malloc_scope and path not in STAGELABEL_HOMES
    arena_scope = malloc_scope and path != ARENA_HOME
    for i, line in enumerate(lines):
        # Comments still count for key rules (they would be copied),
        # but pure comment lines are a poor place to flag rand: strip
        # nothing — the repo treats a forbidden token in a comment as
        # a forbidden example. Keep the scan literal and predictable.
        if RAND_RE.search(line) and not allowed(lines, i, "rand"):
            yield (i + 1, "rand",
                   "libc rand()/std::random_device in a result path; "
                   "use the seeded engines in common/random.h")
        if WALLCLOCK_RE.search(line) and not allowed(lines, i, "wallclock"):
            yield (i + 1, "wallclock",
                   "wall-clock read in a result path; results must be "
                   "pure functions of their inputs")
        if in_src and UNORDERED_RE.search(line) \
                and not allowed(lines, i, "unordered"):
            yield (i + 1, "unordered",
                   "unordered container in src/: iteration order is "
                   "implementation-defined; use std::map/std::set")
        if in_simmpi and MUTEX_RE.search(line) \
                and not allowed(lines, i, "mutex"):
            yield (i + 1, "mutex",
                   "naked std::mutex in src/simmpi: annotate "
                   "`repo-lint: allow(mutex): <why it is not a "
                   "scalability hazard>` within the two lines above")
        if in_src and path != CONDVAR_HOME and CONDVAR_RE.search(line) \
                and not allowed(lines, i, "condvar"):
            yield (i + 1, "condvar",
                   "condition variable outside %s: wait on a Mailbox, "
                   "whose events the transport log records" % CONDVAR_HOME)
        if numparse_scope and NUMPARSE_RE.search(line) \
                and not allowed(lines, i, "numparse"):
            yield (i + 1, "numparse",
                   "C/std number parser outside %s; use its "
                   "ParseDouble/ParseInt/ParseU64" % NUMPARSE_HOME)
        if malloc_scope and MALLOC_RE.search(line) \
                and not allowed(lines, i, "malloc"):
            yield (i + 1, "malloc",
                   "allocator tuning in library or tool code; keep "
                   "reusable memory in common/block_cache.h instead")
        if pricing_scope and PRICING_RE.search(line) \
                and not allowed(lines, i, "pricing"):
            yield (i + 1, "pricing",
                   "per-node CostModel price outside %s; take it from "
                   "NodeStagePrice (analytics/report.h)" % PRICING_HOME)
        if codecfront_scope and CODECFRONT_RE.search(line) \
                and not allowed(lines, i, "codecfront"):
            yield (i + 1, "codecfront",
                   "packet-object codec front-end outside %s; encode and "
                   "decode with the kernels (EncodeInto, DecodeGroupInto)"
                   % CODECFRONT_HOME)
        if codegen_scope and CODEGEN_RE.search(line) \
                and not allowed(lines, i, "codegen"):
            yield (i + 1, "codegen",
                   "group creation outside src/simmpi/ and "
                   "src/driver/cluster.cc; call CreateGroups "
                   "(driver/cluster.h) with the job's CodeGenMode")
        if isa_scope and ISA_RE.search(line) \
                and not allowed(lines, i, "isa"):
            yield (i + 1, "isa",
                   "instruction-set selection outside %s; TeraGen's "
                   "record kernels are the one CPU-dispatched code"
                   % ISA_HOME)
        if stagelabel_scope and STAGELABEL_RE.search(line) \
                and not allowed(lines, i, "stagelabel"):
            yield (i + 1, "stagelabel",
                   "stage label set outside %s; a node's own StageRunner "
                   "labels its traffic" % " and ".join(STAGELABEL_HOMES))
        if arena_scope and ARENA_RE.search(line) \
                and not allowed(lines, i, "arena"):
            yield (i + 1, "arena",
                   "BufferArena outside %s; it is an empty shim awaiting "
                   "deletion" % ARENA_HOME)
        for m in ADD_KEY_RE.finditer(line):
            key = m.group(1)
            if (not KEY_OK_RE.fullmatch(key) or key in RESERVED_KEYS) \
                    and not allowed(lines, i, "benchkey"):
                yield (i + 1, "benchkey",
                       "bench JSON key %r is not schema-clean" % key)
        for m in REGISTRY_KEY_RE.finditer(line):
            key = m.group(1)
            bad = (not KEY_OK_RE.fullmatch(key) or key in RESERVED_KEYS
                   or key.endswith("_s"))
            if bad and not allowed(lines, i, "benchkey"):
                yield (i + 1, "benchkey",
                       "registry metric name %r is not schema-clean "
                       "(charset, reserved, or a `_s` seconds suffix)"
                       % key)
        for m in SAMPLE_KEY_RE.finditer(line):
            key = m.group(1)
            if not TIMELINE_KEY_RE.fullmatch(key) \
                    and not allowed(lines, i, "timelinekey"):
                yield (i + 1, "timelinekey",
                       "timeline series key %r violates "
                       "<subsystem>/<name>[/unit]" % key)


def iter_files(root):
    for top in ("src", "bench", "tools", "examples"):
        base = root / top
        if not base.is_dir():
            continue
        for glob in CPP_GLOBS:
            yield from sorted(base.rglob(glob))


def run(root):
    findings = []
    for path in iter_files(root):
        rel = path.relative_to(root).as_posix()
        lines = path.read_text(encoding="utf-8").splitlines()
        for lineno, rule, msg in lint_lines(rel, lines):
            findings.append("%s:%d: [%s] %s" % (rel, lineno, rule, msg))
    return findings


# ---- self-test ----

def expect(name, relpath, text, rules):
    got = sorted({rule for _, rule, _ in
                  lint_lines(relpath, text.splitlines())})
    want = sorted(rules)
    if got != want:
        print("self-test %s: expected %s, got %s" % (name, want, got))
        return False
    return True


def self_test():
    ok = True
    ok &= expect("clean", "src/x.cc",
                 'std::map<int, int> m;\nreg.counter("a/b").add(1);\n',
                 [])
    ok &= expect("rand", "src/x.cc", "int x = rand();", ["rand"])
    ok &= expect("rand-named-fn-ok", "src/x.cc",
                 "int quickrand2 = myrand(3);", [])
    ok &= expect("random-device", "bench/x.cpp",
                 "std::random_device rd;", ["rand"])
    ok &= expect("wallclock", "tools/x.cpp",
                 "auto t = time(NULL);", ["wallclock"])
    ok &= expect("unordered", "src/x.h",
                 "std::unordered_map<int, int> m;", ["unordered"])
    ok &= expect("unordered-outside-src-ok", "tools/x.cpp",
                 "std::unordered_map<int, int> m;", [])
    ok &= expect("mutex", "src/simmpi/x.h",
                 "std::mutex mu_;", ["mutex"])
    ok &= expect("mutex-annotated-ok", "src/simmpi/x.h",
                 "// repo-lint: allow(mutex): cold path\n"
                 "std::mutex mu_;", [])
    ok &= expect("mutex-outside-simmpi-ok", "src/driver/x.h",
                 "std::mutex mu_;", [])
    ok &= expect("condvar", "src/simmpi/world.h",
                 "std::condition_variable cv;", ["condvar"])
    ok &= expect("condvar-mailbox-ok", "src/simmpi/mailbox.h",
                 "std::condition_variable cv_;", [])
    ok &= expect("benchkey-space", "bench/x.cpp",
                 'report.add("total s", 1.0);', ["benchkey"])
    ok &= expect("benchkey-reserved", "bench/x.cpp",
                 'report.add("bench", 1.0);', ["benchkey"])
    ok &= expect("benchkey-ok", "bench/x.cpp",
                 'report.add("check/total_s", 1.0);', [])
    ok &= expect("registry-seconds", "src/x.cc",
                 'reg.counter("job/wait_s").add(1);', ["benchkey"])
    ok &= expect("benchkey-timeline-reserved", "bench/x.cpp",
                 'report.add("timeline", 1.0);', ["benchkey"])
    ok &= expect("timelinekey-ok", "src/x.cc",
                 'tl.Sample("des/inflight_flows", t, v);\n'
                 'probe.timeline->Sample("live/shuffle_bytes/bytes", t, v);',
                 [])
    ok &= expect("timelinekey-no-subsystem", "src/x.cc",
                 'tl.Sample("inflight", t, v);', ["timelinekey"])
    ok &= expect("timelinekey-upper-subsystem", "src/x.cc",
                 'tl.Sample("DES/inflight", t, v);', ["timelinekey"])
    ok &= expect("timelinekey-too-deep", "src/x.cc",
                 'tl.Sample("a/b/c/d", t, v);', ["timelinekey"])
    ok &= expect("timelinekey-series-ok", "src/x.cc",
                 'auto& s = probe.timeline->Series("des/requeue_depth");',
                 [])
    ok &= expect("timelinekey-series-bad", "src/x.cc",
                 'auto& s = tl.Series("Des/requeue_depth");',
                 ["timelinekey"])
    ok &= expect("timelinekey-allow", "src/x.cc",
                 "// repo-lint: allow(timelinekey)\n"
                 'tl.Sample("LEGACY", t, v);', [])
    ok &= expect("numparse", "tools/x.cpp",
                 "const double v = std::strtod(s.c_str(), &end);",
                 ["numparse"])
    ok &= expect("numparse-allow", "src/x.cc",
                 "// repo-lint: allow(numparse): grammar checked above\n"
                 "const double v = std::strtod(p, &end);", [])
    ok &= expect("numparse-examples", "examples/x.cpp",
                 "const int k = argc > 1 ? std::atoi(argv[1]) : 16;",
                 ["numparse"])
    ok &= expect("numparse-outside-scope-ok", "bench/x.cpp",
                 "const auto n = std::stoull(text);", [])
    ok &= expect("pricing", "src/simscen/x.cc",
                 "st.push_back(model.reduce_seconds(w, scale, r));",
                 ["pricing"])
    ok &= expect("pricing-analytics-ok", "src/analytics/x.cc",
                 "return m.map_seconds(w, s);", [])
    ok &= expect("codecfront", "src/cmr/x.cc",
                 "const CodedPacket packet = EncodePacket(g, self, iv);",
                 ["codecfront"])
    ok &= expect("codecfront-coding-ok", "src/coding/x.cc",
                 "segments.push_back(DecodePacket(g, k, u, packet, iv));",
                 [])
    ok &= expect("codegen", "src/cmr/x.cc",
                 "mine.merge(comm.create_groups({g}));", ["codegen"])
    ok &= expect("codegen-driver-ok", "src/driver/cluster.cc",
                 "if (batched) return comm.create_groups(groups);", [])
    ok &= expect("isa-target", "src/coding/x.cc",
                 '__attribute__((target("avx2"))) void Xor(u8* a);',
                 ["isa"])
    ok &= expect("isa-intrinsics", "tools/x.cpp",
                 "#include <immintrin.h>", ["isa"])
    ok &= expect("isa-pragma", "examples/x.cpp",
                 "#pragma GCC target(\"avx512f\")", ["isa"])
    ok &= expect("isa-teragen-ok", "src/keyvalue/teragen.cc",
                 "__builtin_cpu_init();\n"
                 'if (!__builtin_cpu_supports("avx512f")) return "avx512f";',
                 [])
    ok &= expect("stagelabel", "src/job/x.cc",
                 'world.stats().set_stage(0, "Map");', ["stagelabel"])
    ok &= expect("stagelabel-runner-ok", "src/driver/cluster.h",
                 "comm_.world().stats().set_stage(self, name);", [])
    ok &= expect("arena", "src/simmpi/x.cc",
                 "(void)BufferArena::Local().acquire(0);", ["arena"])
    ok &= expect("arena-shim-ok", "src/common/buffer.h",
                 "class BufferArena {", [])
    ok &= expect("malloc", "src/x.cc",
                 "mallopt(M_TRIM_THRESHOLD, 1 << 30);", ["malloc"])
    ok &= expect("malloc-operator-new", "tools/x.cpp",
                 "void* operator new(std::size_t n) { return grab(n); }",
                 ["malloc"])
    ok &= expect("malloc-clean", "src/x.cc",
                 "std::uint8_t* p = static_cast<std::uint8_t*>("
                 "::operator new(n));\n::operator delete(p, n);", [])
    ok &= expect("allow-suppresses", "src/x.cc",
                 "// repo-lint: allow(rand)\nint x = rand();", [])
    ok &= expect("allow-wrong-rule", "src/x.cc",
                 "// repo-lint: allow(mutex)\nint x = rand();", ["rand"])
    print("repo_lint self-test: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=None,
                    help="repo root (default: this script's parent)")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    root = pathlib.Path(args.root) if args.root \
        else pathlib.Path(__file__).resolve().parent.parent
    findings = run(root)
    for f in findings:
        print(f)
    if findings:
        print("repo_lint: %d finding(s)" % len(findings))
        return 1
    print("repo_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
