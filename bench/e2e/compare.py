#!/usr/bin/env python3
"""Compares two sets of citbench results (cit.e2e.v1) by the benchmark's rules.

    python3 bench/e2e/compare.py BASE CHANGE   # e.g. parent vs. change
    python3 bench/e2e/compare.py --spread SET  # one set's run-to-run spread

A set is a directory of result files (citbench writes one per run) or a
list of files joined with commas. Only untraced results (--trace 0) of
full-size runs (not --smoke) are read.

For every workload x end-to-end metric it reports each side's median and
quartiles and, when comparing:
  * gain: with at least ten pairs (the i-th run of each side, in start
    order), the change wins at least 9/10 of them (ties count for neither)
    and the medians differ by more than the base's interquartile range;
    with fewer pairs no gain is claimed and the workload is marked
    "insufficient pairs";
  * regressed: the change's median is worse than the base's by more than
    the metric's bound in BENCHMARK.json;
  * unresolved: the spread (interquartile range over median) of a side
    exceeds the bound, unless every change run beats every base run;
  * same: none of the above.
Output digests of runs with the same workload and seed must be equal, and
the failure fraction must not rise. Results from hosts or builds with
different fingerprints (anything but the git SHA) are refused.

Exit status: 0 no regression and all checks hold, 1 otherwise, 2 refused.
"""
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
MIN_PAIRS = 10  # fewer alternating pairs than this never show a gain


def load_set(spec):
    paths = []
    for part in spec.split(","):
        if os.path.isdir(part):
            paths += sorted(os.path.join(part, f) for f in os.listdir(part)
                            if f.endswith(".json"))
        else:
            paths.append(part)
    runs = []
    for p in paths:
        with open(p) as f:
            try:
                r = json.load(f)
            except ValueError:
                continue
        if r.get("schema") == "cit.e2e.v1" and r.get("trace") == 0 and \
                not r.get("smoke"):
            runs.append(r)
    return runs


def fingerprint(run):
    fp = dict(run["fingerprint"])
    fp.pop("git_sha", None)
    return json.dumps(fp, sort_keys=True)


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def by_workload(runs):
    out = {}
    for r in sorted(runs, key=lambda r: r["started_unix_us"]):
        out.setdefault(r["workload"], []).append(r)
    return out


def fail_frac(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def alternation(a, b):
    """Whether the runs of two sides interleave in start order."""
    order = sorted([(r["started_unix_us"], 0) for r in a] +
                   [(r["started_unix_us"], 1) for r in b])
    switches = sum(order[i][1] != order[i - 1][1] for i in range(1, len(order)))
    return switches >= 2 * min(len(a), len(b)) - 1


def main(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]

    if len(args) == 2 and args[0] == "--spread":
        return report_spread(load_set(args[1]), metrics)
    if len(args) != 2 or args[0].startswith("-"):
        sys.stderr.write(__doc__)
        return 2
    base, change = load_set(args[0]), load_set(args[1])
    if not base or not change:
        sys.stderr.write("compare.py: a result set is empty\n")
        return 2
    prints = {fingerprint(r) for r in base + change}
    if len(prints) != 1:
        sys.stderr.write("compare.py: refusing to compare results with "
                         "different fingerprints:\n")
        for p in sorted(prints):
            sys.stderr.write("  " + p + "\n")
        return 2
    return report_compare(base, change, metrics)


def report_spread(runs, metrics):
    ok = True
    print("%-12s %-18s %3s %12s %12s %12s %7s %6s" %
          ("workload", "metric", "n", "q1", "median", "q3", "spread", "bound"))
    for workload, wruns in sorted(by_workload(runs).items()):
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in wruns]
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            s = spread(vals)
            # setup_s is gated on its median only, not on its spread.
            flag = "" if m["name"] == "setup_s" or s <= m["bound"] / 3 else \
                ("  > bound/3" if s <= m["bound"] else "  > BOUND")
            ok = ok and (m["name"] == "setup_s" or s <= m["bound"])
            print("%-12s %-18s %3d %12.6g %12.6g %12.6g %6.1f%% %5.0f%%%s" %
                  (workload, m["name"], len(vals), q1, med, q3, 100 * s,
                   100 * m["bound"], flag))
        digests = {(r["seed"], r["output_digest"]) for r in wruns}
        seeds = {r["seed"] for r in wruns}
        print("%-12s runs %d, fail_frac %.3g, digests %s" %
              (workload, len(wruns), fail_frac(wruns),
               "consistent" if len(digests) == len(seeds) else "DIFFER"))
        ok = ok and len(digests) == len(seeds) and fail_frac(wruns) == 0
    return 0 if ok else 1


def judge(av, bv, higher, bound):
    """Verdict on one workload x metric and the change's wins: av and bv are
    the base's and the change's values, both in start order."""
    better = (lambda x, y: x > y) if higher else (lambda x, y: x < y)
    pairs = min(len(av), len(bv))
    wins = sum(better(bv[i], av[i]) for i in range(pairs))
    aq1, amed, aq3 = quartiles(av)
    bmed = quartiles(bv)[1]
    worse_by = (amed - bmed) / amed if higher else (bmed - amed) / amed
    all_better = all(better(x, y) for x in bv for y in av)
    if pairs >= MIN_PAIRS and wins >= 0.9 * pairs and \
            abs(bmed - amed) > aq3 - aq1 and better(bmed, amed):
        return "gain", wins
    if max(spread(av), spread(bv)) > bound and not all_better:
        return "unresolved", wins
    if worse_by > bound:
        return "REGRESSED", wins
    return "same", wins


def report_compare(base, change, metrics):
    ok = True
    print("%-12s %-18s %26s %26s %6s %-10s" %
          ("workload", "metric", "base q1/median/q3", "change q1/median/q3",
           "wins", "verdict"))
    base_w, change_w = by_workload(base), by_workload(change)
    for workload in sorted(set(base_w) | set(change_w)):
        a = base_w.get(workload, [])
        b = change_w.get(workload, [])
        if not a or not b:
            print("%-12s missing on one side" % workload)
            ok = False
            continue
        pairs = min(len(a), len(b))
        if pairs < MIN_PAIRS:
            print("%-12s insufficient pairs: %d < %d, no gain is claimed" %
                  (workload, pairs, MIN_PAIRS))
        if not alternation(a, b):
            print("%-12s warning: runs did not alternate between the sides; "
                  "pairs are not matched in time" % workload)
        for m in metrics:
            name = m["name"]
            av = [r["metrics"][name]["value"] for r in a]
            bv = [r["metrics"][name]["value"] for r in b]
            verdict, wins = judge(av, bv, m["better"] == "higher", m["bound"])
            ok = ok and verdict != "REGRESSED"
            aq1, amed, aq3 = quartiles(av)
            bq1, bmed, bq3 = quartiles(bv)
            print("%-12s %-18s %8.4g/%8.4g/%8.4g %8.4g/%8.4g/%8.4g %2d/%-3d "
                  "%s" % (workload, name, aq1, amed, aq3, bq1, bmed, bq3, wins,
                          pairs, verdict))
        digest_ok = True
        seen = {}
        for r in a + b:
            digest_ok &= seen.setdefault(r["seed"], r["output_digest"]) == \
                r["output_digest"]
        fa, fb = fail_frac(a), fail_frac(b)
        print("%-12s digests %s; fail_frac %.3g -> %.3g%s" %
              (workload, "equal" if digest_ok else "DIFFER", fa, fb,
               " ROSE" if fb > fa else ""))
        ok = ok and digest_ok and fb <= fa
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
