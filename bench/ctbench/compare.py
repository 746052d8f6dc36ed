#!/usr/bin/env python3
"""Compares sets of ctbench result files (standard library only).

  compare.py SET                 one set: per workload and metric, the
                                 median, quartiles and run-to-run spread
                                 ((q3 - q1) / median) against a third of
                                 the metric's bound
  compare.py SET_A SET_B         two sets of the same code: every timed
                                 median of B within its bound of A's,
                                 exact metrics identical run for run,
                                 error_rate 0 everywhere
  compare.py PARENT CHANGE --pairs
                                 a claimed gain: runs paired by seed
                                 (at least 10), the change must win at
                                 least 9 in 10 pairs and move the median
                                 by more than the parent's interquartile
                                 range

A SET is a directory of result files — what `run.py --save FILE`
writes, or ctbench's last stdout line — or a list of such files
separated by commas; a .jsonl file holds one result per line. Runs are
grouped by (workload, traced); each metric carries its unit, direction
and, for end-to-end metrics, its bound (0 = exact, null = reported
only). Bounds apply to untraced runs only: traced runs also carry the
layer pass, so their timings and memory are reported, and only their
exact counts are checked.

Exit status: 0 when every verdict holds (--pairs: when every workload
has at least 10 pairs; gains are reported per metric), 1 otherwise,
2 on bad input.
"""

import argparse
import json
import pathlib
import statistics
import sys

# Layer metrics that count work rather than time it: they must repeat
# exactly for a given seed.
EXACT_LAYER = {
    "coding.xor_MB", "coding.useful_ratio", "coding.groups",
    "simmpi.shuffle_msgs", "simscen.flows_started",
    "simscen.flows_requeued", "simscen.maxmin_recomputations",
}


def load(spec):
    """{(workload, traced): {seed: result}} for one set."""
    paths = []
    for part in spec.split(","):
        p = pathlib.Path(part)
        paths += sorted(p.glob("*.json*")) if p.is_dir() else [p]
    runs = {}
    for path in paths:
        try:
            with open(path, encoding="utf-8") as f:
                text = f.read()
            results = ([json.loads(line) for line in text.splitlines() if line]
                       if path.suffix == ".jsonl" else [json.loads(text)])
            for r in results:
                key = (r["workload"], bool(r["traced"]))
                runs.setdefault(key, {})[r["seed"]] = r
        except (OSError, ValueError, KeyError) as e:
            print(f"compare.py: cannot read {path}: {e}", file=sys.stderr)
            sys.exit(2)
    if not runs:
        print(f"compare.py: no result files in {spec}", file=sys.stderr)
        sys.exit(2)
    return runs


def is_exact(name, meta):
    if meta["kind"] == "end_to_end":
        return meta.get("bound", 0) == 0
    return name in EXACT_LAYER


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def worse_by(meta, base, new):
    """Signed share by which `new` is worse than `base` (> 0 = worse)."""
    if base == 0:
        return 0.0 if new == 0 else float("inf")
    change = (new - base) / abs(base)
    return change if meta["better"] == "lower" else -change


def metrics_of(runs):
    first = next(iter(runs.values()))
    return first["metrics"]


def series(runs, name):
    return [runs[s]["metrics"][name]["value"] for s in sorted(runs)]


def fmt(v):
    return f"{v:.6g}"


def one_set(sets):
    ok = True
    print(f"{'workload':22} {'metric':30} {'n':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>8} {'bound/3':>8}  verdict")
    for (workload, traced), runs in sorted(sets.items()):
        for name, meta in metrics_of(runs).items():
            if meta["kind"] != "end_to_end" and not traced:
                continue
            values = series(runs, name)
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = meta.get("bound")
            verdict = ""
            if meta["kind"] == "end_to_end" and bound and not traced:
                verdict = "steady" if spread < bound / 3 else "NOISY"
                if spread > bound and name != "setup_s":
                    ok = False
            label = workload + (" (traced)" if traced else "")
            print(f"{label:22} {name:30} {len(values):3} {fmt(med):>12} "
                  f"{fmt(q1):>12} {fmt(q3):>12} {spread:8.4f} "
                  f"{(bound or 0) / 3:8.4f}  {verdict}")
        ok &= all(r["correct"] for r in runs.values())
    return ok


def two_sets(a_sets, b_sets):
    ok = True
    print(f"{'workload':22} {'metric':30} {'A median':>12} {'B median':>12} "
          f"{'worse by':>9} {'bound':>6}  verdict")
    for key in sorted(set(a_sets) | set(b_sets)):
        workload, traced = key
        if key not in a_sets or key not in b_sets:
            print(f"{workload:22} present in one set only")
            ok = False
            continue
        a, b = a_sets[key], b_sets[key]
        for name, meta in metrics_of(a).items():
            if meta["kind"] != "end_to_end" and not traced:
                continue
            a_med = statistics.median(series(a, name))
            b_med = statistics.median(series(b, name))
            worse = worse_by(meta, a_med, b_med)
            bound = meta.get("bound", 0)
            if name == "error_rate":
                verdict = "zero" if a_med == 0 and b_med == 0 else "ERRORS"
            elif is_exact(name, meta):
                common = sorted(set(a) & set(b))
                same = all(a[s]["metrics"][name]["value"] ==
                           b[s]["metrics"][name]["value"] for s in common)
                verdict = ("identical" if common and same else
                           "DIFFERS" if common else "no common seeds")
            elif bound and not traced:
                verdict = "within" if worse <= bound else "REGRESSED"
            else:
                verdict = ""
            ok &= verdict not in ("ERRORS", "DIFFERS", "REGRESSED",
                                  "no common seeds")
            label = workload + (" (traced)" if traced else "")
            print(f"{label:22} {name:30} {fmt(a_med):>12} {fmt(b_med):>12} "
                  f"{worse:9.4f} {bound if bound else '-':>6}  {verdict}")
        ok &= all(r["correct"] for r in list(a.values()) + list(b.values()))
    return ok


def pairs(parent_sets, change_sets):
    ok = True
    print(f"{'workload':22} {'metric':30} {'pairs':>5} {'wins':>5} "
          f"{'parent':>12} {'change':>12} {'parent IQR':>11}  verdict")
    for key in sorted(set(parent_sets) & set(change_sets)):
        workload, traced = key
        parent, change = parent_sets[key], change_sets[key]
        seeds = sorted(set(parent) & set(change))
        if len(seeds) < 10:
            print(f"{workload:22} only {len(seeds)} paired seeds (need 10)")
            ok = False
            continue
        for name, meta in metrics_of(parent).items():
            if meta["kind"] != "end_to_end" or is_exact(name, meta):
                continue
            p = [parent[s]["metrics"][name]["value"] for s in seeds]
            c = [change[s]["metrics"][name]["value"] for s in seeds]
            wins = sum(1 for x, y in zip(p, c) if worse_by(meta, x, y) < 0)
            q1, p_med, q3 = quartiles(p)
            c_med = statistics.median(c)
            gain = wins >= 0.9 * len(seeds) and abs(c_med - p_med) > q3 - q1
            print(f"{workload:22} {name:30} {len(seeds):5} {wins:5} "
                  f"{fmt(p_med):>12} {fmt(c_med):>12} {fmt(q3 - q1):>11}  "
                  f"{'gain' if gain else 'no gain'}")
    return ok


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[2:]))
    ap.add_argument("sets", nargs="+", metavar="SET")
    ap.add_argument("--pairs", action="store_true",
                    help="SET_A is the parent, SET_B the change")
    args = ap.parse_args()
    if len(args.sets) > 2 or (args.pairs and len(args.sets) != 2):
        ap.error("pass one set, two sets, or two sets with --pairs")
    loaded = [load(s) for s in args.sets]
    if args.pairs:
        ok = pairs(*loaded)
    elif len(loaded) == 2:
        ok = two_sets(*loaded)
    else:
        ok = one_set(loaded[0])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
