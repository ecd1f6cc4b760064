#!/usr/bin/env python3
"""Convergence rate of the DC loss and its dynamic bounds.

The rate dc_rate(z) = d + (W0(b*e^-z) + z)/r inverts the margin transform
f(t) = r*(t-d) - b*e^(-r*(t-d)). For b < 0 the Lambert term is negative,
so the rate sits below the identity baseline g(z) = z, and for z >= e it
is enclosed by two explicit curves that squeeze onto z. This script checks
the enclosure on a dense grid and plots everything.
"""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from dc_optlab import (
    DCParams,
    bracket_curves,
    dc_rate,
    margin_transform,
    rate_curve,
    rate_onset,
    theorem_bracket,
    verify_theorem,
)
from dc_optlab.data import write_text
from dc_optlab.svgplot import Series, render_line_chart
from dc_optlab.verification import THEOREM_B_GRID, THEOREM_Z_GRID

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

params = DCParams(r=1.0, c=0.0, d=0.0, p_d=math.exp(-1.0))  # b = -1
print(f"configuration r={params.r} c={params.c} d={params.d} p_d={params.p_d:.5f}")
print(f"b = {params.b:.5f}, real-valued onset z_min = ln(-b)+1 = {rate_onset(params):.5f}\n")

print("the rate inverts the margin transform: f(dc_rate(z)) == z")
for z in (1.5, 3.0, 7.0):
    g = dc_rate(params, z)
    back = margin_transform(params, g)
    print(f"  z={z:<4} dc_rate={g:.10f}  f(dc_rate)={back:.10f}")

print("\nbracket at sample points (lower <= value <= upper, straddling z):")
for z in (3.0, 5.0, 10.0, 25.0):
    br = theorem_bracket(params.b, z)
    print(
        f"  z={z:<5} lower={br.lower:.6f} value={br.value:.6f} "
        f"upper={br.upper:.6f} contains={br.contains_value()} "
        f"straddles={br.straddles_default()}"
    )

# the grid that `verify --suite theorem` certifies
report = verify_theorem(THEOREM_B_GRID, THEOREM_Z_GRID)
print(f"\ncertificate over {report.checked} admissible (b, z) pairs "
      f"({report.filtered_out} below the onset filter):")
for ineq in report.inequalities:
    print(f"  {ineq.name:<20} failed={ineq.failed} "
          f"worst_margin={ineq.worst_margin:.3e} at (b, z)={ineq.worst_pair}")
write_text(OUT / "theorem_report.json", report.to_json() + "\n")

z, g = rate_curve(params, np.linspace(1.1, 12.0, 240))
lower, upper = bracket_curves(params, z)
series = [
    Series.of("g_dc", z, g),
    Series.of("g_default", z, z),
    Series.of("lower", z, lower),
    Series.of("upper", z, upper),
]
write_text(
    OUT / "rate_bounds.svg",
    render_line_chart(series, title="DC rate vs default rate with bounds",
                      x_label="z", y_label="g"),
)
print(f"\nwrote {OUT / 'theorem_report.json'}")
print(f"wrote {OUT / 'rate_bounds.svg'}")

print("\nshift directions: larger r contracts the rate toward d,")
print("larger d translates it up additively:")
for r in (0.5, 1.0, 2.0, 4.0):
    print(f"  r={r:<4} dc_rate(5) = {dc_rate(replace(params, r=r), 5.0):.6f}")
for d in (0.0, 1.0, 2.0):
    print(f"  d={d:<4} dc_rate(5) = {dc_rate(replace(params, d=d), 5.0):.6f}")
