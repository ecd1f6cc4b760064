"""Span tracer for the traced run: wraps public dc_optlab functions from
outside the package and attributes wall time to layers.

dc_optlab modules import each other by name (``from .neuron import
train``), so a function is wrapped wherever a module binds it: every
``dc_optlab.*`` module attribute that *is* the original function object is
replaced by the wrapper. ``Dataset.subset`` is wrapped on the class.

Spans are aggregated in memory per (name, parent) rather than kept one by
one: the SGD step alone opens four spans, about 60,000 per protocol run.
A span's self time is its duration minus the durations of the spans it
directly encloses.
"""

import sys
from collections import defaultdict

# span name -> (module, attribute) of the function it wraps. Several
# functions may share one span name (the per-epoch metrics).
SPANS = {
    "cli.main": [("dc_optlab.cli", "main")],
    "sweep.build_grid": [("dc_optlab.sweep", "build_grid")],
    "sweep.sample_grid": [("dc_optlab.sweep", "sample_grid")],
    "sweep.run_sweep": [("dc_optlab.sweep", "run_sweep")],
    "data.generate": [("dc_optlab.data", "generate")],
    "data.split": [("dc_optlab.data", "split")],
    "neuron.train": [("dc_optlab.neuron", "train_with_weights")],
    "neuron.loss_gradient": [("dc_optlab.neuron", "loss_gradient")],
    "neuron.gd_step": [("dc_optlab.neuron", "gd_step")],
    "neuron.epoch_metrics": [
        ("dc_optlab.neuron", "empirical_loss"),
        ("dc_optlab.neuron", "accuracy"),
        ("dc_optlab.neuron", "min_normalized_margin"),
    ],
    "dc_loss.loss_derivative": [("dc_optlab.dc_loss", "loss_derivative")],
    "dc_loss.per_sample_loss": [("dc_optlab.dc_loss", "per_sample_loss")],
    "lambert_w.w0": [("dc_optlab.lambert_w", "w0")],
    "convergence.rate_curve": [("dc_optlab.convergence", "rate_curve")],
    "convergence.bracket_curves": [("dc_optlab.convergence", "bracket_curves")],
    "convergence.verify_theorem": [("dc_optlab.convergence", "verify_theorem")],
    "verification.lambert": [("dc_optlab.verification", "lambert_suite")],
    "verification.theorem": [("dc_optlab.verification", "theorem_suite")],
    "verification.corollary": [("dc_optlab.verification", "corollary_suite")],
    "verification.gradient": [("dc_optlab.verification", "gradient_suite")],
}
SUBSET_SPAN = "data.subset"


def _size(value) -> int:
    return int(getattr(value, "size", 1))


# span name -> [(counter name, function of the span's return value)]
COUNTERS = {
    "dc_loss.loss_derivative": [("elements", _size)],
    "lambert_w.w0": [("elements", _size)],
    "convergence.verify_theorem": [("pairs", lambda res: res.checked)],
    "sweep.run_sweep": [
        ("runs", lambda res: sum(len(c.runs) for c in res.per_config)),
        ("runs_excluded", lambda res: res.excluded_runs),
    ],
}


class Tracer:
    """Aggregating span recorder; ``reset`` starts a new phase."""

    def __init__(self, clock):
        self._clock = clock  # the program-time clock
        self._stack: list[list] = []  # [name, time covered by children]
        # (name, parent) -> [calls, total_s, self_s]
        self.spans: dict[tuple[str, str | None], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[tuple[str, str], float] = defaultdict(float)

    def wrap(self, name, fn):
        counted = COUNTERS.get(name, ())
        stack, spans, counters = self._stack, self.spans, self.counters
        clock = self._clock

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                rec = spans[(name, parent)]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
            for counter, amount in counted:
                counters[(name, counter)] += amount(result)
            return result

        return traced

    def install(self):
        """Wrap every binding of every traced function in dc_optlab."""
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "dc_optlab" or n.startswith("dc_optlab.")) and m is not None]
        for name, targets in SPANS.items():
            for mod_name, attr in targets:
                original = getattr(sys.modules[mod_name], attr)
                wrapper = self.wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
        dataset = sys.modules["dc_optlab.data"].Dataset
        dataset.subset = self.wrap(SUBSET_SPAN, dataset.subset)

    def reset(self):
        self.spans.clear()
        self.counters.clear()

    def snapshot(self) -> "Totals":
        return Totals({k: list(v) for k, v in self.spans.items()}, dict(self.counters))


class Totals:
    """Frozen span and counter totals of one traced phase."""

    def __init__(self, spans, counters):
        self.spans = spans
        self.counters = counters

    def total(self, name: str, field: int) -> float:
        return sum(rec[field] for (n, _), rec in self.spans.items() if n == name)

    def self_time(self) -> float:
        return sum(rec[2] for rec in self.spans.values())

    def by_parent(self) -> list[dict]:
        rows = [
            {"span": n, "parent": p, "calls": rec[0], "total_s": rec[1], "self_s": rec[2]}
            for (n, p), rec in self.spans.items()
        ]
        return sorted(rows, key=lambda r: -r["self_s"])

