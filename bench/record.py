"""Record a result file: every workload of BENCHMARK.json run RUNS times
for its run_seconds, one process per run, each with its own seed, plus
TRACED traced runs.

    python3 bench/record.py --out .bench_run/BENCH_mine.json
    python3 bench/record.py --out bench/BENCH_baseline.json --label baseline

With ``--other DIR --other-out FILE`` the same runs are also made on a
second checkout (for example the parent commit), alternating per seed
which side runs first, so that the two files can be compared pair by
pair with ``bench/compare.py``.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from measure import quartiles

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SECONDS = SPEC["run_seconds"]
RUNS = 10  # untraced runs per workload
TRACED = 1  # traced runs per workload


def run_once(checkout: Path, workload, seed, trace) -> dict:
    tmp = checkout / ".bench_run" / f"record-{os.getpid()}-{workload}-{seed}-{trace}.json"
    tmp.parent.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace), "--json-out", str(tmp)]
    try:
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0 or not tmp.exists():
            raise RuntimeError(f"{' '.join(cmd)} in {checkout} failed:\n{proc.stderr}")
        return json.loads(tmp.read_text())
    finally:
        tmp.unlink(missing_ok=True)


def summarize(runs: list[dict], section: str) -> dict:
    names = runs[0][section]
    out = {}
    for name, first in names.items():
        values = [r[section][name]["value"] for r in runs]
        q1, q2, q3 = quartiles(values)
        out[name] = {"unit": first["unit"], "median": q2, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / q2 if q2 else None, "n": len(values)}
    return out


def record(results, workload, runs, traced):
    e2e = summarize(runs, "end_to_end")
    results["workloads"][workload] = {
        "runs": [
            {key: r[key] for key in ("seed", "correct", "attempted", "failed",
                                     "end_to_end", "named", "program_s_p50")}
            for r in runs
        ],
        "end_to_end": e2e,
        "named": summarize(runs, "named"),
        "traced": [
            {"seed": t["seed"], "correct": t["correct"], "per_layer": t["metrics"],
             "spans_by_parent": t["spans_by_parent"][:25]}
            for t in traced
        ],
    }
    for name, s in e2e.items():
        print(f"  {workload:<14} {name:<12} median {s['median']:.6g} {s['unit']} "
              f"spread {s['spread']:.3f} (n={s['n']})", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="result file to write")
    parser.add_argument("--label", default=None)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--other", type=Path, help="second checkout to run alternately")
    parser.add_argument("--other-out", help="result file for the second checkout")
    args = parser.parse_args(argv)
    if bool(args.other) != bool(args.other_out):
        parser.error("--other and --other-out go together")

    sides = [(ROOT, args.out)] + ([(args.other.resolve(), args.other_out)] if args.other else [])
    results = {}
    for checkout, out in sides:
        results[out] = {"label": args.label or Path(out).stem,
                        "settings": {"runs": RUNS, "traced": TRACED,
                                     "seconds": SECONDS, "first_seed": args.first_seed},
                        "env": None, "workloads": {}}
    for workload in WORKLOADS:
        runs = {out: [] for _, out in sides}
        for i in range(RUNS):
            order = sides if i % 2 == 0 else sides[::-1]
            for checkout, out in order:
                r = run_once(checkout, workload, args.first_seed + i, 0)
                results[out]["env"] = results[out]["env"] or r["env"]
                runs[out].append(r)
        for checkout, out in sides:
            traced = [run_once(checkout, workload, args.first_seed + i, 1)
                      for i in range(TRACED)]
            print(f"{out}:")
            record(results[out], workload, runs[out], traced)
    for _, out in sides:
        Path(out).write_text(json.dumps(results[out], indent=1) + "\n")
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
