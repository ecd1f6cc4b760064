"""The benchmark's traced run wraps dc_optlab functions by name: each must
exist, or the traced run stops at an AttributeError."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def traced_functions() -> list[tuple[str, str]]:
    """Every (module, attribute) of ``SPANS`` in bench/tracer.py, read from
    its source: importing it would write bytecode under bench/."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SPANS"]:
            spans = ast.literal_eval(node.value)
            return [target for targets in spans.values() for target in targets]
    raise AssertionError("bench/tracer.py assigns no SPANS")


def test_every_traced_function_exists():
    targets = traced_functions()
    assert targets
    missing = [
        f"{module}.{attr}" for module, attr in targets
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing, f"bench/tracer.py traces functions dc_optlab no longer has: {missing}"
