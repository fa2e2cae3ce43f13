"""Compare two result sets written by runset.py, under BENCHMARK.json's bounds.

    python3 perfbench/compare.py perfbench/out/base.jsonl perfbench/out/new.jsonl

One row per workload x end-to-end metric, plus fail_frac (failed /
attempted, which may not rise at all).  Runs are paired by seed.  Verdicts:

  worse       the new median is worse than the base median by more than the bound
  better      the new side wins at least 9/10 of the pairs and the medians differ
              by more than the base's own quartile spread
  unresolved  not worse, not better, and a side's quartile spread as a share
              of its median exceeds the bound
  unchanged   otherwise

Exits 1 when any row is worse.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path) -> dict:
    """{workload: {seed: record}} for untraced runs."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["trace"] == 0:
                out.setdefault(rec["workload"], {})[rec["seed"]] = rec
    return out


def value(rec, metric):
    res = rec["result"]
    if metric == "fail_frac":
        return res["failed"] / res["attempted"]
    return res["metrics"][metric]["value"]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(base, new, better, bound) -> tuple[str, int, int]:
    sign = 1 if better == "lower" else -1   # positive delta = worse
    pairs = list(zip(base, new))
    wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    if bm == 0:
        worse = sign * (nm - bm) > 0
    else:
        worse = sign * (nm - bm) / abs(bm) > bound
    if worse:
        return "worse", wins, len(pairs)
    if pairs and wins >= 0.9 * len(pairs) and abs(nm - bm) > (b3 - b1) \
            and sign * (nm - bm) < 0:
        return "better", wins, len(pairs)
    spread = max((b3 - b1) / abs(bm) if bm else 0, (n3 - n1) / abs(nm) if nm else 0)
    if spread > bound:
        all_better = all(sign * (b - a) < 0 for a in base for b in new)
        return ("better" if all_better else "unresolved"), wins, len(pairs)
    return "unchanged", wins, len(pairs)


def main(argv) -> int:
    if len(argv) != 2:
        sys.stderr.write("usage: compare.py BASE.jsonl NEW.jsonl\n")
        return 2
    bench = json.loads(BENCHMARK.read_text())
    metrics = [(m["name"], m["better"], m["bound"]) for m in bench["end_to_end"]]
    metrics.append(("fail_frac", "lower", 0.0))
    base, new = load(argv[0]), load(argv[1])
    header = (f"{'workload':12s} {'metric':12s} {'base median [q1, q3]':>32s} "
              f"{'new median [q1, q3]':>32s} {'wins':>6s}  verdict")
    print(header)
    print("-" * len(header))
    n_worse = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        if workload not in base or workload not in new:
            print(f"{workload:12s} (missing from {'base' if workload not in base else 'new'})")
            continue
        seeds = sorted(set(base[workload]) & set(new[workload]))
        if seeds:
            pa = [base[workload][s] for s in seeds]
            pb = [new[workload][s] for s in seeds]
        else:  # no common seed: pair in file order
            pa, pb = list(base[workload].values()), list(new[workload].values())
        for name, better, bound in metrics:
            a = [value(r, name) for r in pa]
            b = [value(r, name) for r in pb]
            v, wins, n = verdict(a, b, better, bound)
            n_worse += v == "worse"
            qa, qb = quartiles(a), quartiles(b)
            print(f"{workload:12s} {name:12s} "
                  f"{qa[1]:>12.5g} [{qa[0]:.4g}, {qa[2]:.4g}]".ljust(58)
                  + f"{qb[1]:>12.5g} [{qb[0]:.4g}, {qb[2]:.4g}]".ljust(33)
                  + f"{wins:>3d}/{n:<3d} {v}")
    return 1 if n_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
