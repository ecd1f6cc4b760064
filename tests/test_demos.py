"""Golden outputs: the four demos rebuild the files tracked in demos/out
byte for byte, so a change that moves a single bit of their results, or
drops a name they import from ``dc_optlab``, fails here. The README's
library quick start runs as written, and its file schemas are the
writers' headers."""

import runpy
import shutil
from pathlib import Path

import pytest

from dc_optlab.cli import CURVES_HEADER, RATES_HEADER
from dc_optlab.neuron import TRACE_HEADER
from dc_optlab.sweep import SWEEP_HEADER

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


@pytest.mark.parametrize("script, golden", [
    ("03_train_single_neuron.py",
     {"trace_no-dc.csv", "trace_growing-dc.csv", "trace_grow-decay-dc.csv",
      "train_accuracy.svg", "train_margin.svg"}),
    ("04_desk_sweep.py", {"desk_sweep.json", "desk_sweep.csv"}),
    ("01_loss_shapes.py",
     {"loss_shapes.csv", "loss_shapes_prob.svg", "loss_shapes_derivative.svg"}),
    ("02_rate_bounds.py", {"theorem_report.json", "rate_bounds.svg"}),
])
def test_demo_rebuilds_tracked_outputs(script, golden, tmp_path, capsys):
    # a copy of the demo writes next to itself, under tmp_path/out
    shutil.copy(DEMOS / script, tmp_path / script)
    runpy.run_path(str(tmp_path / script), run_name="__main__")
    written = {path.name: path.read_bytes() for path in (tmp_path / "out").iterdir()}
    assert golden == set(written)
    for name, data in written.items():
        assert data == (DEMOS / "out" / name).read_bytes(), name


def test_readme_quick_start_runs(capsys):
    section = (ROOT / "README.md").read_text().split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {"__name__": "__main__"})
    assert 0.9 < float(capsys.readouterr().out) <= 1.0


def test_readme_file_schemas_match_the_writers():
    section = (ROOT / "README.md").read_text().split("### File schemas", 1)[1]
    rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| `")]
    table = {producer.strip(): header.strip() for producer, header in rows}
    for producer, header in [("curves", CURVES_HEADER), ("rates", RATES_HEADER),
                             ("train", TRACE_HEADER), ("sweep --csv-out", SWEEP_HEADER)]:
        assert table[f"`{producer}`"] == f"`{','.join(header)}`", producer
