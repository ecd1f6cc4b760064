"""Command-line surface: dataset generation, loss-shape and rate-curve CSV
emission, bound verification, training, sweeping, and SVG plotting.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O or
format error. Every command is deterministic given its flags and seeds.
Defaults that mirror the experiment protocol (m=1000, 80/20 split, batch
75, 1500 epochs, 10 runs, 2.5% pick) are annotated "(protocol default)"
in --help.
"""

import argparse
import csv
import json
import math
import sys
from dataclasses import replace

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
    generate,
    load_csv,
    save_csv,
    split,
)
from .errors import (
    DCOptLabError,
    DomainError,
    FormatError,
    ValidationError,
    check_number,
)
from .neuron import (
    Init,
    TRACE_HEADER,
    Mode,
    TrainConfig,
    save_trace_csv,
    train_with_weights,
    weights_json,
)
from .svgplot import Series, render_line_chart, save_svg
from .sweep import GridSpec, build_grid, run_sweep, sample_grid
from .verification import run_suites

PROTO = "(protocol default)"

PRESETS = {
    "no-dc": dict(r=1.0, c=0.0, d=0.0, p_d=0.5),
    "growing-dc": dict(r=3.0, c=0.0, d=0.0, p_d=0.5),
    "decaying-dc": dict(r=1.0, c=2.0, d=0.0, p_d=0.5),
    "grow-decay-dc": dict(r=3.0, c=2.0, d=0.0, p_d=0.5),
}

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _add_params_flags(p: argparse.ArgumentParser, with_preset: bool = True):
    if with_preset:
        p.add_argument(
            "--preset",
            choices=sorted(PRESETS),
            help="named loss configuration; overrides --r/--c/--d/--p-d",
        )
    p.add_argument("--r", type=float, default=1.0, help="growth rate (default 1.0)")
    p.add_argument("--c", type=float, default=0.0, help="decay rate (default 0.0)")
    p.add_argument("--d", type=float, default=0.0, help="difficulty (default 0.0)")
    p.add_argument(
        "--p-d", type=float, default=0.5, dest="p_d",
        help="response probability at t=d (default 0.5)",
    )


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
    p.add_argument("--m", type=int, default=1000, help=f"samples, default 1000 {PROTO}")
    p.add_argument("--n", type=int, default=2, help=f"features, default 2 {PROTO}")
    p.add_argument("--center-distance", type=float, default=1.5,
                   help="blob center per coordinate (default 1.5)")
    p.add_argument("--noise-sigma", type=float, default=1.0,
                   help="per-coordinate std dev (default 1.0)")
    p.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    p.add_argument("--train-out", help="also write the train split to this CSV")
    p.add_argument("--test-out", help="also write the test split to this CSV")
    p.add_argument("--split-fraction", type=float, default=0.8,
                   help=f"train fraction, default 0.8 {PROTO}")
    p.add_argument("--split-seed", type=int, default=0,
                   help="seed for the split permutation (default 0)")

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
    p.add_argument("--t-min", type=float, default=-6.0, help="left end of the margin grid (default -6)")
    p.add_argument("--t-max", type=float, default=6.0, help="right end of the margin grid (default 6)")
    p.add_argument("--samples", type=int, default=241, help="grid points, >= 2 (default 241)")

    # rates
    p = sub.add_parser("rates", help="emit convergence-rate curves as CSV")
    p.add_argument("--out", required=True, help="output CSV path")
    _add_params_flags(p, with_preset=False)
    p.set_defaults(p_d=math.exp(-1.0))
    p.add_argument("--z-min", type=float, default=1.1, help="left end of the z grid (default 1.1)")
    p.add_argument("--z-max", type=float, default=10.0, help="right end of the z grid (default 10)")
    p.add_argument("--samples", type=int, default=200, help="grid points, >= 2 (default 200)")

    # verify
    p = sub.add_parser("verify", help="run numerical property suites")
    p.add_argument(
        "--suite", action="append", required=True,
        choices=["lambert", "theorem", "corollary", "gradient", "all"],
        help="suite to run; repeatable",
    )
    p.add_argument("--seed", type=int, default=20240801,
                   help="seed for the gradient suite's random triples (default 20240801)")
    p.add_argument("--json-out", help="write the JSON report here (default stdout)")

    # train
    p = sub.add_parser("train", help="train the single neuron and emit a trace CSV")
    p.add_argument("--trace-out", required=True, help="output trace CSV path")
    p.add_argument("--weights-out", help="optional JSON path for the final weights")
    _add_params_flags(p)
    p.add_argument("--data", help="input dataset CSV; omitted = generate synthetic data")
    p.add_argument("--m", type=int, default=1000, help=f"synthetic samples, default 1000 {PROTO}")
    p.add_argument("--center-distance", type=float, default=1.5,
                   help="synthetic blob center (default 1.5)")
    p.add_argument("--noise-sigma", type=float, default=1.0,
                   help="synthetic noise sigma (default 1.0)")
    p.add_argument("--data-seed", type=int, default=0, help="synthetic data seed (default 0)")
    p.add_argument("--split-fraction", type=float, default=0.8,
                   help=f"train fraction, default 0.8 {PROTO}")
    p.add_argument("--split-seed", type=int, default=0, help="split seed (default 0)")
    p.add_argument("--eta", type=float, default=0.01, help="step size (default 0.01)")
    p.add_argument("--batch-size", type=int, default=75, help=f"minibatch size, default 75 {PROTO}")
    p.add_argument("--epochs", type=int, default=1500, help=f"epochs, default 1500 {PROTO}")
    p.add_argument("--seed", type=int, default=0, help="training seed (default 0)")
    p.add_argument("--mode", choices=[m.value for m in Mode], default=Mode.SGD.value,
                   help=f"optimizer mode, default sgd {PROTO}")
    p.add_argument("--init", choices=[i.value for i in Init], default=Init.ZEROS.value,
                   help="weight initialization (default zeros)")

    # sweep
    p = sub.add_parser("sweep", help="run the hyperparameter sweep protocol")
    p.add_argument("--json-out", help="write the aggregated JSON result here")
    p.add_argument("--csv-out", help="write the flat per-run CSV here")
    p.add_argument(
        "--profile", choices=["paper", "desk"], default="paper",
        help="paper: full grid, 10 runs, 1500 epochs; desk: reduced grid "
             "(2,2,4,4 steps), 12.5%% pick, 3 runs, 300 epochs (default paper)",
    )
    p.add_argument("--grid-spec", help="JSON file with GridSpec fields; "
                   "step/pick/runs/seed flags still override it")
    p.add_argument("--d-steps", type=int, help="override grid points on the d axis")
    p.add_argument("--p-steps", type=int, help="override grid points on the p_d axis")
    p.add_argument("--r-steps", type=int, help="override grid points on the r axis")
    p.add_argument("--c-steps", type=int, help="override grid points on the c axis")
    p.add_argument("--pick-fraction", type=float,
                   help=f"grid fraction to sample, default 0.025 {PROTO}")
    p.add_argument("--runs", type=int, help=f"runs per config, default 10 {PROTO}")
    p.add_argument("--epochs", type=int, help=f"epochs per run, default 1500 {PROTO}")
    p.add_argument("--batch-size", type=int, default=75,
                   help=f"minibatch size, default 75 {PROTO}")
    p.add_argument("--eta", type=float, default=0.01, help="step size (default 0.01)")
    p.add_argument("--m", type=int, default=1000, help=f"samples per dataset, default 1000 {PROTO}")
    p.add_argument("--split-fraction", type=float, default=0.8,
                   help=f"train fraction, default 0.8 {PROTO}")
    p.add_argument("--accuracy-threshold", type=float, default=0.95,
                   help="epochs-to-threshold accuracy level (default 0.95)")
    p.add_argument("--seed", type=int, default=None,
                   help="sweep seed; overrides --grid-spec (default 0)")

    # plot
    p = sub.add_parser("plot", help="render a CSV emitted by this tool as SVG")
    p.add_argument("--kind", required=True, choices=["curves", "rates", "trace", "sweep"],
                   help="schema of the input CSV")
    p.add_argument("--in", dest="infile", required=True, help="input CSV path")
    p.add_argument("--out", required=True, help="output SVG path")

    return parser


def _cmd_gen_data(args) -> int:
    spec = SyntheticSpec(
        m=args.m,
        n=args.n,
        center_distance=args.center_distance,
        noise_sigma=args.noise_sigma,
        split_fraction=args.split_fraction,
        seed=args.seed,
    )
    if bool(args.train_out) != bool(args.test_out):
        raise ValidationError("--train-out and --test-out must be given together")
    data = generate(spec)
    outputs = [(data, args.out)]
    if args.train_out:
        train_set, test_set = split(data, args.split_fraction, args.split_seed)
        outputs += [(train_set, args.train_out), (test_set, args.test_out)]
    for dataset, path in outputs:
        save_csv(dataset, path)
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


def _cmd_curves(args) -> int:
    check_number("--samples", args.samples, 2, math.inf, "[)", integer=True)
    if not (math.isfinite(args.t_min) and math.isfinite(args.t_max)) or args.t_min >= args.t_max:
        raise ValidationError("need finite --t-min < --t-max")
    if not math.isfinite(args.t_max - args.t_min):
        raise ValidationError("--t-max - --t-min must be finite")

    configs: list[tuple[str, DCParams]] = []
    presets = args.preset or []
    if "all" in presets:
        presets = sorted(PRESETS)
    for name in presets:
        configs.append((name, DCParams(**PRESETS[name])))
    for idx, text in enumerate(args.params or []):
        configs.append((f"custom{idx}", _parse_params_csv(text)))
    if not configs:
        configs = [(name, DCParams(**PRESETS[name])) for name in sorted(PRESETS)]

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
    with open(args.out, "w", newline="") as fh:
        fh.write(csv_text(("config", "t", "prob", "loss", "derivative", "f"), rows))
    return EXIT_OK


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
    with open(args.out, "w", newline="") as fh:
        fh.write(csv_text(("z", "g_dc", "g_default", "lower", "upper", "z_min"), rows))
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = run_suites(args.suite, gradient_seed=args.seed)
    text = json.dumps(report, indent=2)
    if args.json_out:
        with open(args.json_out, "w", newline="") as fh:
            fh.write(text + "\n")
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
        data = generate(
            SyntheticSpec(
                m=args.m,
                n=2,
                center_distance=args.center_distance,
                noise_sigma=args.noise_sigma,
                split_fraction=args.split_fraction,
                seed=args.data_seed,
            )
        )
    train_set, test_set = split(data, args.split_fraction, args.split_seed)
    cfg = TrainConfig(
        eta=args.eta,
        batch_size=args.batch_size,
        epochs=args.epochs,
        seed=args.seed,
        mode=Mode(args.mode),
        init=Init(args.init),
    )
    theta, traces = train_with_weights(params, train_set, test_set, cfg)
    save_trace_csv(traces, args.trace_out)
    if args.weights_out:
        with open(args.weights_out, "w", newline="") as fh:
            fh.write(weights_json(theta) + "\n")
    last = traces[-1]
    print(
        f"trained {cfg.epochs} epochs: train_loss={last.train_loss:.6g} "
        f"test_accuracy={last.test_accuracy:.4f}"
    )
    return EXIT_OK


DESK_GRID = dict(d_steps=2, p_steps=2, r_steps=4, c_steps=4, pick_fraction=0.125, runs=3)
DESK_EPOCHS = 300


def _load_grid_spec(path) -> GridSpec:
    with open(path, "r") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
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
    epochs = args.epochs if args.epochs is not None else (DESK_EPOCHS if desk else 1500)

    grid = build_grid(spec)
    configs = sample_grid(grid, spec.pick_fraction, spec.seed)
    data_spec = SyntheticSpec(m=args.m, n=2, split_fraction=args.split_fraction, seed=0)
    train_cfg = TrainConfig(
        eta=args.eta, batch_size=args.batch_size, epochs=epochs, seed=0
    )
    result = run_sweep(
        configs,
        data_spec,
        train_cfg,
        runs=spec.runs,
        seed=spec.seed,
        accuracy_threshold=args.accuracy_threshold,
    )

    if args.json_out:
        with open(args.json_out, "w", newline="") as fh:
            fh.write(result.to_json() + "\n")
    if args.csv_out:
        with open(args.csv_out, "w", newline="") as fh:
            fh.write(result.to_csv())

    print(f"sweep: |grid|={len(grid)}, sampled={len(configs)}, runs={spec.runs}, "
          f"epochs={epochs}, excluded_runs={result.excluded_runs}")
    print(f"{'family':<16}{'configs':>8}{'best_id':>9}{'best_acc':>10}{'avg_acc':>10}")
    for row in result.family_table():
        best = "-" if row["best_config_id"] is None else str(row["best_config_id"])
        bacc = "-" if row["best_mean_accuracy"] is None else f"{row['best_mean_accuracy']:.4f}"
        aacc = "-" if row["avg_mean_accuracy"] is None else f"{row['avg_mean_accuracy']:.4f}"
        print(f"{row['family']:<16}{row['n_configs']:>8}{best:>9}{bacc:>10}{aacc:>10}")
    return EXIT_OK


def _read_csv(path, expected_prefix: list[str]) -> tuple[list[str], list[list[str]]]:
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError("missing header row", line=1) from None
        if header[: len(expected_prefix)] != expected_prefix:
            raise FormatError(
                f"bad header {header!r}, expected it to start with {expected_prefix!r}",
                line=1,
            )
        rows = [row for row in reader if row]
    return header, rows


def _float_col(rows, header, name, lineno_base=2):
    i = header.index(name)
    out = []
    for k, row in enumerate(rows):
        try:
            out.append(float(row[i]))
        except (ValueError, IndexError):
            raise FormatError(f"bad value in column {name!r}", line=lineno_base + k) from None
    return out


def _cmd_plot(args) -> int:
    if args.kind == "curves":
        header, rows = _read_csv(args.infile, ["config", "t", "prob"])
        labels = []
        for row in rows:
            if row[0] not in labels:
                labels.append(row[0])
        series = []
        for label in labels:
            sub = [row for row in rows if row[0] == label]
            series.append(
                Series.of(
                    label,
                    _float_col(sub, header, "t"),
                    _float_col(sub, header, "prob"),
                )
            )
        svg = render_line_chart(series, title="response probability",
                                x_label="t", y_label="prob")
    elif args.kind == "rates":
        header, rows = _read_csv(args.infile, ["z", "g_dc", "g_default", "lower", "upper"])
        z = _float_col(rows, header, "z")
        series = [
            Series.of(name, z, _float_col(rows, header, name))
            for name in ("g_dc", "g_default", "lower", "upper")
        ]
        svg = render_line_chart(series, title="convergence rate", x_label="z", y_label="g")
    elif args.kind == "trace":
        header, rows = _read_csv(args.infile, ["epoch", "train_loss", "test_accuracy"])
        epoch = _float_col(rows, header, "epoch")
        series = [
            Series.of(name, epoch, _float_col(rows, header, name))
            for name in TRACE_HEADER[1:]
            if name in header
        ]
        svg = render_line_chart(series, title="training trace", x_label="epoch", y_label="value")
    else:  # sweep
        header, rows = _read_csv(args.infile, ["config_id", "r", "c", "d", "p_d", "kind"])
        acc_by_config: dict[int, list[float]] = {}
        for k, row in enumerate(rows):
            try:
                cid = int(row[0])
                acc = float(row[header.index("final_accuracy")])
            except (ValueError, IndexError):
                raise FormatError("bad sweep row", line=2 + k) from None
            acc_by_config.setdefault(cid, []).append(acc)
        ids = sorted(acc_by_config)
        means = [
            float(np.mean([a for a in acc_by_config[i] if math.isfinite(a)] or [math.nan]))
            for i in ids
        ]
        series = [Series.of("mean_final_accuracy", [float(i) for i in ids], means)]
        svg = render_line_chart(series, title="sweep outcome", x_label="config_id",
                                y_label="accuracy")
    save_svg(svg, args.out)
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
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValidationError, DomainError, DCOptLabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # an input too large for this machine: numpy fails at the request
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
