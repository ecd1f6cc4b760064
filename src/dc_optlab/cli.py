"""Command-line surface: dataset generation, loss-shape and rate-curve CSV
emission, bound verification, training, sweeping, and SVG plotting.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O or
format error. Every command is deterministic given its flags and seeds.
A flag that feeds a config field (``SyntheticSpec``, ``TrainConfig``,
``GridSpec``) takes its default from that class; defaults that mirror the
experiment protocol are annotated "(protocol default)" in --help.
"""

import argparse
import json
import math
import sys
from dataclasses import fields, replace

import numpy as np

from . import __version__
from .convergence import bracket_curves, rate_curve, rate_onset
from .dc_loss import (
    DCParams,
    loss_derivative,
    margin_transform,
    per_sample_loss,
    response_probability,
)
from .data import (
    SyntheticSpec,
    csv_text,
    dataset_csv,
    generate,
    load_csv,
    read_csv,
    split,
    write_text,
)
from .errors import DCOptLabError, FormatError, ValidationError, check_number
from .neuron import (
    Init,
    TRACE_HEADER,
    Mode,
    TrainConfig,
    save_trace_csv,
    train_with_weights,
    weights_json,
)
from .svgplot import Series, render_line_chart
from .sweep import (
    ACCURACY_THRESHOLD,
    SWEEP_HEADER,
    GridSpec,
    build_grid,
    run_sweep,
    sample_grid,
)
from .verification import GRADIENT_SEED, SUITES, run_suites

PROTO = "(protocol default)"

PRESETS = {
    "no-dc": dict(r=1.0, c=0.0, d=0.0, p_d=0.5),
    "growing-dc": dict(r=3.0, c=0.0, d=0.0, p_d=0.5),
    "decaying-dc": dict(r=1.0, c=2.0, d=0.0, p_d=0.5),
    "grow-decay-dc": dict(r=3.0, c=2.0, d=0.0, p_d=0.5),
}

# the desk profile: a reduced grid and fewer epochs than the protocol
DESK_GRID = dict(d_steps=2, p_steps=2, r_steps=4, c_steps=4, pick_fraction=0.125, runs=3)
DESK_EPOCHS = 300

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _add_params_flags(p: argparse.ArgumentParser, with_preset: bool = True,
                      p_d: float = PRESETS["no-dc"]["p_d"]):
    if with_preset:
        p.add_argument(
            "--preset",
            choices=sorted(PRESETS),
            help="named loss configuration; overrides --r/--c/--d/--p-d",
        )
    no_dc = PRESETS["no-dc"]
    p.add_argument("--r", type=float, default=no_dc["r"], help="growth rate (default %(default)s)")
    p.add_argument("--c", type=float, default=no_dc["c"], help="decay rate (default %(default)s)")
    p.add_argument("--d", type=float, default=no_dc["d"], help="difficulty (default %(default)s)")
    p.add_argument("--p-d", type=float, default=p_d,
                   help="response probability at t=d (default %(default)s)")


def _add_data_flags(p: argparse.ArgumentParser, seed_flag: str):
    """The synthetic-data and split flags that gen-data and train share."""
    p.add_argument("--m", type=int, default=SyntheticSpec.m,
                   help=f"synthetic samples, default %(default)s {PROTO}")
    p.add_argument("--center-distance", type=float, default=SyntheticSpec.center_distance,
                   help="synthetic blob center (default %(default)s)")
    p.add_argument("--noise-sigma", type=float, default=SyntheticSpec.noise_sigma,
                   help="synthetic noise sigma (default %(default)s)")
    p.add_argument(seed_flag, type=int, default=SyntheticSpec.seed,
                   help="synthetic data seed (default %(default)s)")
    p.add_argument("--split-fraction", type=float, default=SyntheticSpec.split_fraction,
                   help=f"train fraction, default %(default)s {PROTO}")
    p.add_argument("--split-seed", type=int, default=0, help="split seed (default %(default)s)")


def _synthetic_spec(args, **own) -> SyntheticSpec:
    """The SyntheticSpec of ``_add_data_flags``' flags and a command's ``own`` fields."""
    shared = ("m", "center_distance", "noise_sigma", "split_fraction")
    return SyntheticSpec(**{name: getattr(args, name) for name in shared}, **own)


def _params_from_args(args) -> DCParams:
    if getattr(args, "preset", None):
        return DCParams(**PRESETS[args.preset])
    return DCParams(r=args.r, c=args.c, d=args.d, p_d=args.p_d)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dc-optlab",
        description="Differential-capability loss laboratory",
    )
    parser.add_argument("--version", action="version", version=f"dc-optlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # gen-data
    p = sub.add_parser("gen-data", help="generate a synthetic blob dataset CSV")
    p.add_argument("--out", required=True, help="output CSV path")
    _add_data_flags(p, "--seed")
    p.add_argument("--n", type=int, default=SyntheticSpec.n,
                   help=f"features, default %(default)s {PROTO}")
    p.add_argument("--train-out", help="also write the train split to this CSV")
    p.add_argument("--test-out", help="also write the test split to this CSV")

    # curves
    p = sub.add_parser("curves", help="emit loss-shape curves as CSV")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument(
        "--preset", action="append", choices=sorted(PRESETS) + ["all"], default=None,
        help="named configuration(s); 'all' expands to the four kinds; repeatable",
    )
    p.add_argument(
        "--params", action="append", default=None, metavar="R,C,D,P_D",
        help="explicit configuration as four comma-separated values; repeatable",
    )
    t_min, t_max, samples = CURVES_GRID
    p.add_argument("--t-min", type=float, default=t_min,
                   help=f"left end of the margin grid (default {t_min:g})")
    p.add_argument("--t-max", type=float, default=t_max,
                   help=f"right end of the margin grid (default {t_max:g})")
    p.add_argument("--samples", type=int, default=samples,
                   help=f"grid points, >= 2 (default {samples})")

    # rates
    p = sub.add_parser("rates", help="emit convergence-rate curves as CSV")
    p.add_argument("--out", required=True, help="output CSV path")
    _add_params_flags(p, with_preset=False, p_d=math.exp(-1.0))  # b = -1 at c = 0
    p.add_argument("--z-min", type=float, default=1.1, help="left end of the z grid (default 1.1)")
    p.add_argument("--z-max", type=float, default=10.0, help="right end of the z grid (default 10)")
    p.add_argument("--samples", type=int, default=200, help="grid points, >= 2 (default 200)")

    # verify
    p = sub.add_parser("verify", help="run numerical property suites")
    p.add_argument(
        "--suite", action="append", required=True,
        choices=[*SUITES, "all"],
        help="suite to run; repeatable",
    )
    p.add_argument("--seed", type=int, default=GRADIENT_SEED,
                   help="seed for the gradient suite's random triples (default %(default)s)")
    p.add_argument("--json-out", help="write the JSON report here (default stdout)")

    # train
    p = sub.add_parser("train", help="train the single neuron and emit a trace CSV")
    p.add_argument("--trace-out", required=True, help="output trace CSV path")
    p.add_argument("--weights-out", help="optional JSON path for the final weights")
    _add_params_flags(p)
    p.add_argument("--data", help="input dataset CSV; omitted = generate synthetic data")
    _add_data_flags(p, "--data-seed")
    p.add_argument("--eta", type=float, default=TrainConfig.eta,
                   help="step size (default %(default)s)")
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size,
                   help=f"minibatch size, default %(default)s {PROTO}")
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs,
                   help=f"epochs, default %(default)s {PROTO}")
    p.add_argument("--seed", type=int, default=TrainConfig.seed,
                   help="training seed (default %(default)s)")
    p.add_argument("--mode", choices=[m.value for m in Mode], default=TrainConfig.mode.value,
                   help=f"optimizer mode, default %(default)s {PROTO}")
    p.add_argument("--init", choices=[i.value for i in Init], default=TrainConfig.init.value,
                   help="weight initialization (default %(default)s)")

    # sweep
    p = sub.add_parser("sweep", help="run the hyperparameter sweep protocol")
    p.add_argument("--json-out", help="write the aggregated JSON result here")
    p.add_argument("--csv-out", help="write the flat per-run CSV here")
    desk_steps = ",".join(str(DESK_GRID[f"{axis}_steps"]) for axis in "dprc")
    p.add_argument(
        "--profile", choices=["paper", "desk"], default="paper",
        help=f"paper: full grid, {GridSpec.runs} runs, {TrainConfig.epochs} epochs; desk: "
             f"reduced grid ({desk_steps} steps), {100 * DESK_GRID['pick_fraction']:g}%% pick, "
             f"{DESK_GRID['runs']} runs, {DESK_EPOCHS} epochs (default %(default)s)",
    )
    p.add_argument("--grid-spec", help="JSON file with GridSpec fields; "
                   "step/pick/runs/seed flags still override it")
    p.add_argument("--d-steps", type=int, help="override grid points on the d axis")
    p.add_argument("--p-steps", type=int, help="override grid points on the p_d axis")
    p.add_argument("--r-steps", type=int, help="override grid points on the r axis")
    p.add_argument("--c-steps", type=int, help="override grid points on the c axis")
    p.add_argument("--pick-fraction", type=float,
                   help=f"grid fraction to sample, default {GridSpec.pick_fraction} {PROTO}")
    p.add_argument("--runs", type=int, help=f"runs per config, default {GridSpec.runs} {PROTO}")
    p.add_argument("--epochs", type=int,
                   help=f"epochs per run, default {TrainConfig.epochs} {PROTO}")
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size,
                   help=f"minibatch size, default %(default)s {PROTO}")
    p.add_argument("--eta", type=float, default=TrainConfig.eta,
                   help="step size (default %(default)s)")
    p.add_argument("--m", type=int, default=SyntheticSpec.m,
                   help=f"samples per dataset, default %(default)s {PROTO}")
    p.add_argument("--split-fraction", type=float, default=SyntheticSpec.split_fraction,
                   help=f"train fraction, default %(default)s {PROTO}")
    p.add_argument("--accuracy-threshold", type=float, default=ACCURACY_THRESHOLD,
                   help="epochs-to-threshold accuracy level (default %(default)s)")
    p.add_argument("--seed", type=int, default=None,
                   help=f"sweep seed; overrides --grid-spec (default {GridSpec.seed})")

    # plot
    p = sub.add_parser("plot", help="render a CSV emitted by this tool as SVG")
    p.add_argument("--kind", required=True, choices=["curves", "rates", "trace", "sweep"],
                   help="schema of the input CSV")
    p.add_argument("--in", dest="infile", required=True, help="input CSV path")
    p.add_argument("--out", required=True, help="output SVG path")

    return parser


def _cmd_gen_data(args) -> int:
    spec = _synthetic_spec(args, n=args.n, seed=args.seed)
    if bool(args.train_out) != bool(args.test_out):
        raise ValidationError("--train-out and --test-out must be given together")
    data = generate(spec)
    outputs = [(data, args.out)]
    if args.train_out:
        train_set, test_set = split(data, args.split_fraction, args.split_seed)
        outputs += [(train_set, args.train_out), (test_set, args.test_out)]
    for dataset, path in outputs:
        write_text(path, dataset_csv(dataset))
    return EXIT_OK


def _parse_params_csv(text: str) -> DCParams:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValidationError(f"--params needs R,C,D,P_D, got {text!r}")
    try:
        r, c, d, p_d = (float(v) for v in parts)
    except ValueError:
        raise ValidationError(f"--params values must be numbers, got {text!r}") from None
    return DCParams(r=r, c=c, d=d, p_d=p_d)


CURVES_HEADER = ("config", "t", "prob", "loss", "derivative", "f")
CURVES_GRID = (-6.0, 6.0, 241)  # the default margin grid: t_min, t_max, samples


def _cmd_curves(args) -> int:
    check_number("--samples", args.samples, 2, math.inf, "[)", integer=True)
    if not (math.isfinite(args.t_min) and math.isfinite(args.t_max)) or args.t_min >= args.t_max:
        raise ValidationError("need finite --t-min < --t-max")
    if not math.isfinite(args.t_max - args.t_min):
        raise ValidationError("--t-max - --t-min must be finite")

    # neither --preset nor --params: all four presets
    presets = args.preset or ([] if args.params else ["all"])
    if "all" in presets:
        presets = sorted(PRESETS)
    # a repeated name is one curve, where it is first given
    configs = [(name, DCParams(**PRESETS[name])) for name in dict.fromkeys(presets)]
    configs += [(f"custom{i}", _parse_params_csv(text)) for i, text in enumerate(args.params or [])]

    t = np.linspace(args.t_min, args.t_max, args.samples)
    rows = []
    for name, params in configs:
        columns = (
            t,
            response_probability(params, t),
            per_sample_loss(params, t),
            loss_derivative(params, t),
            margin_transform(params, t),
        )
        rows.extend((name, *vals) for vals in zip(*columns))
    write_text(args.out, csv_text(CURVES_HEADER, rows))
    return EXIT_OK


RATES_HEADER = ("z", "g_dc", "g_default", "lower", "upper", "z_min")


def _cmd_rates(args) -> int:
    check_number("--samples", args.samples, 2, math.inf, "[)", integer=True)
    if not (math.isfinite(args.z_min) and math.isfinite(args.z_max)):
        raise ValidationError("need finite --z-min and --z-max")
    if not math.isfinite(args.z_max - args.z_min):
        raise ValidationError("--z-max - --z-min must be finite")
    params = _params_from_args(args)
    try:
        # DomainError if no z of the grid is valid
        z, g = rate_curve(params, np.linspace(args.z_min, args.z_max, args.samples))
    except ValidationError as exc:
        raise ValidationError(f"{exc}: set --z-max below it") from None
    lower, upper = bracket_curves(params, z)
    onset = rate_onset(params)
    rows = ((zv, gv, zv, lo, up, onset) for zv, gv, lo, up in zip(z, g, lower, upper))
    write_text(args.out, csv_text(RATES_HEADER, rows))
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = run_suites(args.suite, gradient_seed=args.seed)
    text = json.dumps(report, indent=2)
    if args.json_out:
        write_text(args.json_out, text + "\n")
    else:
        print(text)
    for suite in report["suites"]:
        for check in suite["checks"]:
            status = "PASS" if check["passed"] else "FAIL"
            print(f"[{status}] {suite['suite']}: {check['name']}", file=sys.stderr)
    return EXIT_OK if report["passed"] else EXIT_VERIFY_FAILED


def _cmd_train(args) -> int:
    params = _params_from_args(args)
    if args.data:
        data = load_csv(args.data)
    else:
        data = generate(_synthetic_spec(args, seed=args.data_seed))
    train_set, test_set = split(data, args.split_fraction, args.split_seed)
    cfg = TrainConfig(**{f.name: getattr(args, f.name) for f in fields(TrainConfig)})
    theta, traces = train_with_weights(params, train_set, test_set, cfg)
    save_trace_csv(traces, args.trace_out)
    if args.weights_out:
        write_text(args.weights_out, weights_json(theta) + "\n")
    last = traces[-1]
    print(
        f"trained {cfg.epochs} epochs: train_loss={last.train_loss:.6g} "
        f"test_accuracy={last.test_accuracy:.4f}"
    )
    return EXIT_OK


def _load_grid_spec(path) -> GridSpec:
    with open(path, "rb") as fh:  # json detects the UTF encoding, not the locale
        try:
            obj = json.load(fh)
        except (ValueError, RecursionError) as exc:  # also not UTF-8, or nested too deep
            raise FormatError(f"grid spec is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ValidationError(f"grid spec must be a JSON object, got {obj!r}")
    try:
        return GridSpec(**obj)
    except TypeError as exc:
        raise ValidationError(f"bad grid spec field: {exc}") from None


def _cmd_sweep(args) -> int:
    desk = args.profile == "desk"
    if args.grid_spec:
        spec = _load_grid_spec(args.grid_spec)
    else:
        spec = GridSpec(**DESK_GRID) if desk else GridSpec()
    flags = ("d_steps", "p_steps", "r_steps", "c_steps", "pick_fraction", "runs", "seed")
    spec = replace(spec, **{k: getattr(args, k) for k in flags if getattr(args, k) is not None})
    default_epochs = DESK_EPOCHS if desk else TrainConfig.epochs
    epochs = default_epochs if args.epochs is None else args.epochs

    grid = build_grid(spec)
    configs = sample_grid(grid, spec.pick_fraction, spec.seed)
    data_spec = SyntheticSpec(m=args.m, split_fraction=args.split_fraction)
    train_cfg = TrainConfig(eta=args.eta, batch_size=args.batch_size, epochs=epochs)
    result = run_sweep(
        configs,
        data_spec,
        train_cfg,
        runs=spec.runs,
        seed=spec.seed,
        accuracy_threshold=args.accuracy_threshold,
    )

    if args.json_out:
        write_text(args.json_out, result.to_json() + "\n")
    if args.csv_out:
        write_text(args.csv_out, result.to_csv())

    print(f"sweep: |grid|={len(grid)}, sampled={len(configs)}, runs={spec.runs}, "
          f"epochs={epochs}, excluded_runs={result.excluded_runs}")
    print(f"{'family':<16}{'configs':>8}{'best_id':>9}{'best_acc':>10}{'avg_acc':>10}")
    for row in result.family_table():
        best = "-" if row["best_config_id"] is None else str(row["best_config_id"])
        bacc = "-" if row["best_mean_accuracy"] is None else f"{row['best_mean_accuracy']:.4f}"
        aacc = "-" if row["avg_mean_accuracy"] is None else f"{row['avg_mean_accuracy']:.4f}"
        print(f"{row['family']:<16}{row['n_configs']:>8}{best:>9}{bacc:>10}{aacc:>10}")
    return EXIT_OK


# kind: (the columns a file must start with, the x column and then the y
# columns plot reads, title, y label)
_PLOTS = {
    "curves": (CURVES_HEADER[:3], CURVES_HEADER[1:3], "response probability", CURVES_HEADER[2]),
    "rates": (RATES_HEADER[:5], RATES_HEADER[:5], "convergence rate", "g"),
    "trace": (TRACE_HEADER[:3], TRACE_HEADER, "training trace", "value"),
    "sweep": (SWEEP_HEADER[:6], (SWEEP_HEADER[0], SWEEP_HEADER[-1]), "sweep outcome", "accuracy"),
}


def _cmd_plot(args) -> int:
    prefix, columns, title, y_label = _PLOTS[args.kind]
    header, rows = read_csv(args.infile, prefix)
    # the y columns the file has; beyond the prefix a column may be missing
    names = [columns[0]] + [name for name in columns[1:] if name in header]
    if len(names) == 1:
        raise FormatError(f"header {header!r} has no column {columns[1]!r}", line=1)
    index = [header.index(name) for name in names]
    values: list[list[float]] = [[] for _ in names]
    for line, row in rows:
        for col, name, i in zip(values, names, index):
            try:
                col.append(float(row[i]))
            except (ValueError, IndexError):
                raise FormatError(f"bad value in column {name!r}", line=line) from None
    x, *ys = values

    if args.kind == "curves":
        # one line per config label, in the order the labels first appear
        points: dict[str, list[tuple[float, float]]] = {}
        for (_, row), xv, yv in zip(rows, x, ys[0]):
            points.setdefault(row[0], []).append((xv, yv))
        series = [Series.of(label, *zip(*pts)) for label, pts in points.items()]
    elif args.kind == "sweep":
        # the mean of each config's finite accuracies
        runs: dict[float, list[float]] = {}
        for xv, yv in zip(x, ys[0]):
            runs.setdefault(xv, []).append(yv)
        ids = sorted(runs)
        means = [
            float(np.mean([a for a in runs[i] if math.isfinite(a)] or [math.nan])) for i in ids
        ]
        series = [Series.of(f"mean_{names[1]}", ids, means)]
    else:
        series = [Series.of(name, x, y) for name, y in zip(names[1:], ys)]
    svg = render_line_chart(series, title=title, x_label=names[0], y_label=y_label)
    write_text(args.out, svg)
    return EXIT_OK


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "curves": _cmd_curves,
    "rates": _cmd_rates,
    "verify": _cmd_verify,
    "train": _cmd_train,
    "sweep": _cmd_sweep,
    "plot": _cmd_plot,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # every seed flag, also one the chosen suites or command never read
        for name, value in vars(args).items():
            if name.endswith("seed") and value is not None:
                check_number(f"--{name.replace('_', '-')}", value, 0, math.inf, "[)", integer=True)
        return _COMMANDS[args.command](args)
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DCOptLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # an input too large for this machine: numpy fails at the request
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
