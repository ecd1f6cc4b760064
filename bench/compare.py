"""Compare the result files of two commits, metric by metric and workload
by workload, and print a verdict for each:

    python3 bench/compare.py PARENT.json CHANGE.json

Runs are paired by seed. The rule, meant for a small and noisy machine:

* improved — the change wins at least nine tenths of the pairs (ties count
  for neither side) and the medians differ by more than the parent's own
  spread, the distance between its first and third quartiles;
* unresolved — otherwise, when the parent's spread is wider than the
  metric's bound, unless every change run reads better than every parent
  run;
* worse — the change's median is worse than the parent's by more than the
  bound;
* no worse — everything else.

A workload on which the change failed more operations than the parent,
or on which any change run was not correct (an output check or a
reference digest failed), gets the verdict "failed" on every metric.
Bounds and directions of the end-to-end metrics come from BENCHMARK.json;
a workload's named metric takes the bound of the end-to-end metric with
its unit (1/s: work_per_s, s and h: call_s_p50, MB: peak_rss_mb).
"""

import argparse
import json
import sys
from pathlib import Path

from measure import quartiles

ROOT = Path(__file__).resolve().parent.parent
UNIT_PROXY = {"1/s": "work_per_s", "s": "call_s_p50", "h": "call_s_p50", "MB": "peak_rss_mb"}


def verdict(parent, change, higher_better, bound):
    sign = 1.0 if higher_better else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    spread = p3 - p1
    gain = sign * (cm - pm)
    if wins >= 0.9 * len(parent) and gain > spread:
        return "improved", wins
    all_better = min(change) > max(parent) if higher_better else max(change) < min(parent)
    if spread > bound * abs(pm) and not all_better:
        return "unresolved", wins
    if -gain > bound * abs(pm):
        return "worse", wins
    return "no worse", wins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    a = json.loads(Path(args.parent).read_text())
    b = json.loads(Path(args.change).read_text())
    spec = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}

    print(f"parent {a['env']['git_sha']}  change {b['env']['git_sha']}")
    print(f"{'workload':<14} {'metric':<24} {'unit':<5} {'parent median [q1, q3]':<36} "
          f"{'change median [q1, q3]':<36} {'ratio':>6} {'wins':>6}  verdict")
    worst = 0
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        ra = {r["seed"]: r for r in a["workloads"][workload]["runs"]}
        rb = {r["seed"]: r for r in b["workloads"][workload]["runs"]}
        seeds = sorted(set(ra) & set(rb))
        failed_a = sum(ra[s]["failed"] for s in seeds)
        failed_b = sum(rb[s]["failed"] for s in seeds)
        broken = failed_b > failed_a or not all(rb[s]["correct"] for s in seeds)
        for section in ("end_to_end", "named"):
            for name, meta in a["workloads"][workload][section].items():
                if name not in b["workloads"][workload][section]:
                    continue
                ref = spec[name] if section == "end_to_end" else spec[UNIT_PROXY[meta["unit"]]]
                pa = [ra[s][section][name]["value"] for s in seeds]
                pb = [rb[s][section][name]["value"] for s in seeds]
                v, wins = verdict(pa, pb, ref["better"] == "higher", ref["bound"])
                if broken:
                    v = "failed"
                worst = max(worst, v in ("worse", "unresolved", "failed"))
                qa, qb = quartiles(pa), quartiles(pb)
                cols = [f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]" for q in (qa, qb)]
                print(f"{workload:<14} {name:<24} {meta['unit']:<5} {cols[0]:<36} {cols[1]:<36} "
                      f"{qb[1] / qa[1]:>6.3f} {wins:>3}/{len(seeds):<2}  {v}")
        if broken:
            print(f"{workload:<14} failed: {failed_b} operations failed against {failed_a} "
                  f"at the parent, or a change run was not correct")
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main())
