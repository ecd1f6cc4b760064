"""Run one benchmark workload against the dc_optlab sources of this checkout.

    python3 bench/run.py --workload sgd-protocol --seed 1 --trace 0

Prints one line per metric (name, value, unit, what it was measured on),
then, as the last line, a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, the per-layer ones with ``--trace 1``.
``--json-out FILE`` also writes the full result (with the environment
block) to FILE. ``--write-reference`` records the output digest of the
reference cycle (seed 0, cycle 0) in bench/reference.json instead.

See bench/README.md for the metrics and how to read them.
"""

import os

# One BLAS/OpenMP thread: set before numpy (imported by measure) loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
# dc_optlab's own thread-count default: unset, so sweeps run on one thread
os.environ.pop("DC_OPTLAB_THREADS", None)

import argparse
import contextlib
import importlib
import json
import shutil
import sys
import time
from pathlib import Path

import measure
from tracer import SPANS, SUBSET_SPAN, Tracer
from workloads import WORKLOADS, Cycle

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
REFERENCE_FILE = BENCH_DIR / "reference.json"
REFERENCE_SEED = 0
SETUP_REPS = 5
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


class Program:
    """Handles on the dc_optlab modules the workloads call."""

    def __init__(self):
        self.cli = importlib.import_module("dc_optlab.cli")
        self.sweep = importlib.import_module("dc_optlab.sweep")
        self.convergence = importlib.import_module("dc_optlab.convergence")


def import_program() -> Program:
    """Fresh import of dc_optlab (numpy and the standard library stay
    loaded, so set-up time is the package's own import)."""
    for name in [n for n in sys.modules if n == "dc_optlab" or n.startswith("dc_optlab.")]:
        del sys.modules[name]
    return Program()


def set_up(workload, seed, out_dir, clock):
    """Import the program and generate the workload's inputs SETUP_REPS
    times; the last import is the one the run uses."""
    times = []
    for _ in range(SETUP_REPS):
        mark, t0 = clock.mark(), clock.now()
        dc = import_program()
        state = workload.setup(dc, seed, out_dir)
        times.append((clock.now() - t0) * clock.scale_since(mark, "small"))
    return dc, state, times


def run_cycles(workload, dc, state, seconds, clock, first_k=0):
    """Cycles until ``seconds`` have passed and a whole number of passes
    over the workload's inputs is done."""
    cycles = []
    end = time.perf_counter() + seconds
    k = first_k
    while True:
        mark = clock.mark()
        cyc = Cycle(clock)
        workload.cycle(dc, state, k, cyc)
        cyc.normalize(workload.PROFILE, mark)
        cycles.append(cyc)
        k += 1
        if time.perf_counter() >= end and len(cycles) % workload.PASS == 0:
            return cycles


def reference_cycle(workload, dc, state):
    cyc = Cycle(measure.Clock())  # not entered: no sampling
    workload.cycle(dc, state, 0, cyc)
    return cyc


def check_reference(workload, dc, seed, state, out_dir):
    """Rerun cycle 0 at the reference seed and compare its output digest
    with the one recorded in reference.json."""
    ref_state = state if seed == REFERENCE_SEED else workload.setup(dc, REFERENCE_SEED, out_dir)
    cyc = reference_cycle(workload, dc, ref_state)
    expected = json.loads(REFERENCE_FILE.read_text()).get(workload.name, {}).get("sha256")
    cyc.check(cyc.digest == expected,
              f"reference digest {cyc.digest} != recorded {expected}")
    return cyc


def per_layer(totals, setup_totals, cycles, untraced, failed_ratio):
    """Per-layer metrics per traced cycle. Span times are program seconds,
    not host-normalized: one span can hold work of several calibration
    profiles."""
    n = len(cycles)

    def calls(name):
        return totals.total(name, 0)

    def self_s(name):
        return totals.total(name, 2)

    def counter(name, what):
        return totals.counters.get((name, what), 0.0)

    out = {}
    for name in list(SPANS) + [SUBSET_SPAN]:
        out[f"{name}.self_s"] = (self_s(name) / n, "s")
    for name in ("data.subset", "neuron.loss_gradient", "neuron.gd_step",
                 "dc_loss.loss_derivative", "lambert_w.w0"):
        out[f"{name}.calls"] = (calls(name) / n, "count")
    out["data.subset.us_per_call"] = (
        self_s("data.subset") / calls("data.subset") * 1e6 if calls("data.subset") else 0.0, "us")
    for name in ("dc_loss.loss_derivative", "lambert_w.w0"):
        elements = counter(name, "elements")
        out[f"{name}.elements"] = (elements / n, "count")
        out[f"{name}.ns_per_element"] = (self_s(name) / elements * 1e9 if elements else 0.0, "ns")
    out["convergence.verify_theorem.pairs"] = (counter("convergence.verify_theorem", "pairs") / n, "count")
    runs = counter("sweep.run_sweep", "runs")
    excluded = counter("sweep.run_sweep", "runs_excluded")
    out["sweep.runs"] = (runs / n, "count")
    out["sweep.runs_excluded"] = (excluded / n, "count")
    out["sweep.useful_run_ratio"] = ((runs - excluded) / runs if runs else 0.0, "ratio")
    for name in ("sweep.build_grid", "sweep.sample_grid"):
        out[f"setup.{name}.self_s"] = (setup_totals.total(name, 2), "s")
    out["failed_op_ratio"] = (failed_ratio, "ratio")
    traced_s = measure.median([c.seconds() for c in cycles])
    untraced_s = measure.median([c.seconds() for c in untraced])
    out["trace.overhead_share"] = (traced_s / untraced_s - 1.0, "ratio")
    raw_op_s = sum(sum(sum(times) for times in c.ops.values()) for c in cycles)
    out["trace.unaccounted_share"] = ((raw_op_s - totals.self_time()) / raw_op_s, "ratio")
    out["trace.cycles"] = (float(n), "count")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json-out", help="also write the full result here")
    parser.add_argument("--write-reference", action="store_true",
                        help="record the reference digest for this workload and exit")
    args = parser.parse_args(argv)

    if not (SRC / "dc_optlab" / "__init__.py").is_file():
        print(f"error: no dc_optlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    out_dir = ROOT / ".bench_run" / f"{workload.name}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, workload, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            out_dir.parent.rmdir()


def run(args, workload, out_dir) -> int:
    if args.write_reference:
        dc = import_program()
        cyc = reference_cycle(workload, dc, workload.setup(dc, REFERENCE_SEED, out_dir))
        if cyc.failures:
            print("error: reference cycle failed: " + "; ".join(cyc.failures), file=sys.stderr)
            return 1
        refs = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.exists() else {}
        refs[workload.name] = {"seed": REFERENCE_SEED, "cycle": 0, "sha256": cyc.digest}
        REFERENCE_FILE.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
        print(f"{workload.name}: reference digest {cyc.digest}")
        return 0

    with measure.Clock() as clock:
        dc, state, setup_times = set_up(workload, args.seed, out_dir, clock)
        if not Path(sys.modules["dc_optlab"].__file__).resolve().is_relative_to(SRC):
            print("error: dc_optlab was not imported from this checkout", file=sys.stderr)
            return 2
        if args.trace:
            # first half untraced, second half traced: the difference of
            # the two is the tracing overhead
            untraced = run_cycles(workload, dc, state, args.seconds / 2, clock)
            tracer = Tracer(clock.now)
            tracer.install()
            cycles = run_cycles(workload, dc, state, args.seconds / 2, clock, len(untraced))
            totals = tracer.snapshot()
            tracer.reset()
            mark = clock.mark()
            workload.setup(dc, args.seed, out_dir)  # traced again, not re-imported
            setup_totals = tracer.snapshot()
        else:
            cycles = run_cycles(workload, dc, state, args.seconds, clock)
    ref = check_reference(workload, dc, args.seed, state, out_dir)

    attempted = sum(c.attempted for c in cycles) + ref.attempted
    failures = [f for c in cycles for f in c.failures] + ref.failures
    failed = sum(len(c.failed_ops) for c in cycles) + len(ref.failed_ops)
    named = workload.summarize(cycles)
    rss = measure.peak_rss_mb()
    e2e = {
        "setup_s": (measure.median(setup_times), "s", f"import + inputs, median of {SETUP_REPS}"),
        "peak_rss_mb": (rss, "MB", "ru_maxrss of this process"),
    }
    for gated, name in workload.gated.items():
        e2e[gated] = (named[name][0], END_TO_END_UNITS[gated], f"= {name}")

    if args.trace:
        metrics = per_layer(totals, setup_totals, cycles, untraced, failed / attempted)
    else:
        metrics = {k: v[:2] for k, v in e2e.items()}

    print(f"workload={workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} cycles={len(cycles)} attempted={attempted} failed={failed}")
    for name, (value, unit, note) in {**e2e, **named}.items():
        print(f"  {name:<26} {value:>14.6g} {unit:<6} {note}")
    print(f"  {'failed_op_ratio':<26} {failed / attempted:>14.6g} {'ratio':<6} "
          f"ops that raised or failed a check / ops attempted")
    for failure in failures[:5]:
        print(f"  FAILED: {failure}")
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"  {name:<40} {value:>14.6g} {unit}")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    }
    if args.json_out:
        full = {
            "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **result,
            "env": measure.env_block(ROOT, THREAD_VARS + ("DC_OPTLAB_THREADS",)),
            "end_to_end": {k: {"value": v[0], "unit": v[1]} for k, v in e2e.items()},
            "named": {k: {"value": v[0], "unit": v[1], "note": v[2]} for k, v in named.items()},
            "failed_op_ratio": failed / attempted,
            "failures": failures,
            "setup_s_samples": setup_times,
            "program_s_p50": {kind: measure.median([t for c in cycles for t in c.ops.get(kind, ())])
                              for kind in cycles[0].ops},
            "calibration": {"samples": len(clock.samples),
                            "kernel_s_quartiles": clock.kernel_quartiles(),
                            "nominal_s": measure.CAL_NOMINAL_S},
        }
        if args.trace:
            full["spans_by_parent"] = totals.by_parent()
        Path(args.json_out).write_text(json.dumps(full, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
