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
             path): locks there must be striped (LockStripe) or carry
             a `repo-lint: allow(mutex): <reason>` annotation within
             the two lines above the declaration explaining why this
             one is not a scalability hazard.
  benchkey   string keys fed to bench::JsonReport::add(...) or to the
             obs::MetricRegistry (counter/gauge/histogram) must be
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
ADD_KEY_RE = re.compile(r"\.add\(\s*\"([^\"]*)\"")
REGISTRY_KEY_RE = re.compile(
    r"\b(?:counter|gauge|histogram)\(\s*\"([^\"]*)\"")
KEY_OK_RE = re.compile(r"[A-Za-z0-9_/.:+%-]+\Z")
RESERVED_KEYS = {"bench", "metrics", "timeline"}
SAMPLE_KEY_RE = re.compile(r"(?:\.|->)(?:Sample|Series)\(\s*\"([^\"]*)\"")
TIMELINE_KEY_RE = re.compile(r"[a-z][a-z0-9_]*(/[A-Za-z0-9_.+-]+){1,2}\Z")


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
                   "naked std::mutex in src/simmpi: stripe it "
                   "(LockStripe) or annotate "
                   "`repo-lint: allow(mutex): <reason>` within the two "
                   "lines above")
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
    for top in ("src", "bench", "tools"):
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
