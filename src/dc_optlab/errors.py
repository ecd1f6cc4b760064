"""Exception hierarchy shared across the package.

I/O failures are reported with the builtin ``OSError``; everything else
raises one of the semantic classes below so callers can branch on intent
rather than on message text.
"""

import math
import sys

import numpy as np


class DCOptLabError(Exception):
    """Base class for every error raised by dc_optlab."""


class ValidationError(DCOptLabError, ValueError):
    """A parameter or configuration violates a stated bound."""


class DomainError(DCOptLabError, ValueError):
    """A mathematical function was evaluated outside its real domain."""


class DimensionError(DCOptLabError, ValueError):
    """Array shapes do not agree."""


class NumericalError(DCOptLabError, ArithmeticError):
    """A computation produced non-finite values."""


class FormatError(DCOptLabError, ValueError):
    """A file does not conform to its schema.

    ``line`` is the 1-based line number of the offending row when known.
    """

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class EmptyDatasetError(DCOptLabError, ValueError):
    """An operation that needs at least one sample received none."""


_INTEGER = (int, np.integer)
_REAL = (int, float, np.integer, np.floating)


def check_number(name: str, value, low, high, ends: str = "()", integer: bool = False) -> None:
    """Raise ``ValidationError`` unless value is a finite real number (an
    integer if ``integer``), not a bool, between low and high.

    ``ends`` gives the interval's brackets: "()" excludes both ends, "[)"
    includes low, and so on. Python and numpy scalars are accepted alike.
    The first test takes Python numbers strictly inside the interval, the
    common case, without the type and end checks that follow.
    """
    if type(value) is (int if integer else float) and low < value < high:
        return
    if (
        isinstance(value, _INTEGER if integer else _REAL)
        and not isinstance(value, bool)
        and (low <= value if ends[0] == "[" else low < value)
        and (value <= high if ends[1] == "]" else value < high)
        and abs(value) <= sys.float_info.max
    ):
        return
    if high < math.inf:
        rule = f"in {ends[0]}{low!r}, {high!r}{ends[1]}"
    else:
        rule = f"{'>=' if ends[0] == '[' else '>'} {low!r}"
    if integer:
        rule = f"an integer {rule}"
    elif high == math.inf:
        rule = "finite" if low == -math.inf else f"finite and {rule}"
    raise ValidationError(f"{name} must be {rule}, got {value!r}")
