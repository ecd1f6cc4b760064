#!/usr/bin/env python3
"""Train the single neuron on mirrored Gaussian blobs, one run per loss kind.

Shows the per-epoch trace (loss, test accuracy, weight norm, normalized
margin) and how the loss configuration changes the optimization path on
identical data.
"""

from pathlib import Path

from dc_optlab import (
    DCParams,
    SyntheticSpec,
    TrainConfig,
    cli,
    generate,
    save_trace_csv,
    split,
    train,
)
from dc_optlab.data import write_text
from dc_optlab.svgplot import Series, render_line_chart

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

spec = SyntheticSpec(seed=7)  # the protocol's m, n and blobs, at another seed
data = generate(spec)
train_set, test_set = split(data, spec.split_fraction, seed=7)
print(f"dataset: {data.m} samples, {data.n} features; "
      f"split {train_set.m}/{test_set.m}\n")

cfg = TrainConfig(epochs=300, seed=7)  # the protocol's step size and batch
CONFIGS = {
    name: DCParams(**cli.PRESETS[name]) for name in ("no-dc", "growing-dc", "grow-decay-dc")
}

acc_series = []
margin_series = []
print(f"{'config':<16}{'final loss':>14}{'final acc':>11}{'|theta|':>10}{'margin':>10}")
for name, params in CONFIGS.items():
    traces = train(params, train_set, test_set, cfg)
    last = traces[-1]
    print(f"{name:<16}{last.train_loss:>14.3f}{last.test_accuracy:>11.4f}"
          f"{last.theta_norm:>10.4f}{last.min_normalized_margin:>10.4f}")
    epochs = [t.epoch for t in traces]
    acc_series.append(Series.of(name, epochs, [t.test_accuracy for t in traces]))
    margin_series.append(
        Series.of(name, epochs, [t.min_normalized_margin for t in traces])
    )
    save_trace_csv(traces, OUT / f"trace_{name}.csv")

write_text(
    OUT / "train_accuracy.svg",
    render_line_chart(acc_series, title="test accuracy by epoch",
                      x_label="epoch", y_label="accuracy"),
)
write_text(
    OUT / "train_margin.svg",
    render_line_chart(margin_series, title="min normalized margin by epoch",
                      x_label="epoch", y_label="margin"),
)

print("\nthe normalized margin tracks how far the weight direction has")
print("pushed every training point past the boundary; growing-r configs")
print("take larger effective steps and move it faster.")
print(f"\nwrote per-config traces and SVGs under {OUT}")
