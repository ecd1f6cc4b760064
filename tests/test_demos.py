"""Golden outputs: the demos rebuild the files tracked in demos/out byte
for byte, so a change to training or sweeping that moves a single bit of
their results fails here."""

import runpy
import shutil
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script, golden", [
    ("03_train_single_neuron.py",
     {"trace_no-dc.csv", "trace_growing-dc.csv", "trace_grow-decay-dc.csv"}),
    ("04_desk_sweep.py", {"desk_sweep.json", "desk_sweep.csv"}),
])
def test_demo_rebuilds_tracked_outputs(script, golden, tmp_path, capsys):
    # a copy of the demo writes next to itself, under tmp_path/out
    shutil.copy(DEMOS / script, tmp_path / script)
    runpy.run_path(str(tmp_path / script), run_name="__main__")
    written = {path.name: path.read_bytes() for path in (tmp_path / "out").iterdir()}
    assert golden <= set(written)
    for name, data in written.items():
        assert data == (DEMOS / "out" / name).read_bytes(), name
