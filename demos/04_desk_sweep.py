#!/usr/bin/env python3
"""Desk-scale hyperparameter sweep: grid, random pick, repeated runs.

The full protocol spans a 59,400-point grid with a 2.5% random pick and 10
runs of 1500 epochs per config. The CLI's desk profile shrinks the grid,
the runs and the epochs so the same machinery finishes in seconds; this
demo runs `dc-optlab sweep --profile desk --seed 6`, which prints the
per-family comparison.
"""

from pathlib import Path

from dc_optlab import GridSpec, build_grid, cli, sample_grid

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

full = GridSpec()
grid = build_grid(full)
steps = "*".join(str(getattr(full, f"{axis}_steps")) for axis in "dprc")
print(f"full protocol grid: {steps} = {len(grid)} configs; {100 * full.pick_fraction:g}% "
      f"pick = {len(sample_grid(grid, full.pick_fraction, full.seed))} sampled\n")

cli.main(["sweep", "--profile", "desk", "--seed", "6",
          "--json-out", str(OUT / "desk_sweep.json"), "--csv-out", str(OUT / "desk_sweep.csv")])

print(f"\nwrote {OUT / 'desk_sweep.json'}")
print(f"wrote {OUT / 'desk_sweep.csv'}")
print("\nthe comparison is reported, not asserted: which family wins")
print("depends on the sampled configs and the run budget.")
