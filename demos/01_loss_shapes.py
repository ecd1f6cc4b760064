#!/usr/bin/env python3
"""Tour of the DC loss family: the four configuration kinds and their curves.

Walks through the parameter bundle (r, c, d, p_d) and the derived constants
(eps, a, b), checks the anchor p(d) = p_d, and renders the response curves
side by side. Artifacts land in demos/out/.
"""

from pathlib import Path

import numpy as np

from dc_optlab import DCParams, classify_config, cli, loss_derivative, response_probability
from dc_optlab.data import write_text
from dc_optlab.svgplot import Series, render_line_chart

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

CONFIGS = {name: DCParams(**values) for name, values in cli.PRESETS.items()}

print("The response curve is a * exp(b * exp(-r*(t-d))) with a = e^(c/r),")
print("b = ln(p_d) - c/r. Four (r, c) corners give the four kinds:\n")
print(f"{'name':<16}{'r':>5}{'c':>5}{'kind':>16}{'a':>9}{'b':>9}{'p(d)':>8}")
for name, p in CONFIGS.items():
    kind = classify_config(p).value
    print(
        f"{name:<16}{p.r:>5.1f}{p.c:>5.1f}{kind:>16}{p.a:>9.4f}{p.b:>9.4f}"
        f"{response_probability(p, p.d):>8.4f}"
    )

print("\nEvery curve passes through p_d at t = d and rises toward its")
print("plateau a = e^(c/r). Note the curve is strictly increasing for all")
print("valid parameters: a growing decay rate c lifts the plateau above 1")
print("and pushes b down, it does not bend the shape downward.\n")

# the margin grid that `curves` samples by default
t = np.linspace(*cli.CURVES_GRID)
prob_series = [
    Series.of(name, t, response_probability(p, t)) for name, p in CONFIGS.items()
]
write_text(
    OUT / "loss_shapes_prob.svg",
    render_line_chart(prob_series, title="response probability by configuration",
                      x_label="t", y_label="prob"),
)

deriv_series = [
    Series.of(name, t, loss_derivative(p, t)) for name, p in CONFIGS.items()
]
write_text(
    OUT / "loss_shapes_derivative.svg",
    render_line_chart(deriv_series, title="loss derivative by configuration",
                      x_label="t", y_label="d loss / dt"),
)

presets = [arg for name in CONFIGS for arg in ("--preset", name)]
cli.main(["curves", "--out", str(OUT / "loss_shapes.csv"), *presets])

print(f"wrote {OUT / 'loss_shapes_prob.svg'}")
print(f"wrote {OUT / 'loss_shapes_derivative.svg'}")
print(f"wrote {OUT / 'loss_shapes.csv'}")
