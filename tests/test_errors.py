"""The one number validator behind every config field, seed and count."""

import math

import numpy as np
import pytest

from dc_optlab.errors import ValidationError, check_number

INF = math.inf


@pytest.mark.parametrize("args, message", [
    (("r", 0.0, 0, INF), "r must be finite and > 0, got 0.0"),
    (("r", INF, 0, INF), "r must be finite and > 0, got inf"),
    (("c", -1, 0, INF, "[)"), "c must be finite and >= 0, got -1"),
    (("p_d", np.float64(1.0), 0, 1), "p_d must be in (0, 1), got np.float64(1.0)"),
    (("pick_fraction", 0, 0, 1, "(]"), "pick_fraction must be in (0, 1], got 0"),
    (("accuracy_threshold", math.nan, 0, 1, "[]"),
     "accuracy_threshold must be in [0, 1], got nan"),
    (("d_range lo", "a", -INF, INF), "d_range lo must be finite, got 'a'"),
    (("seed", -1, 0, INF, "[)", True), "seed must be an integer >= 0, got -1"),
    (("seed", 1.0, 0, INF, "[)", True), "seed must be an integer >= 0, got 1.0"),
    (("runs", True, 1, INF, "[)", True), "runs must be an integer >= 1, got True"),
    (("eta", 10**400, 0, INF), f"eta must be finite and > 0, got {10**400!r}"),
])
def test_rejection_names_the_bound(args, message):
    with pytest.raises(ValidationError) as exc:
        check_number(*args)
    assert str(exc.value) == message


@pytest.mark.parametrize("args", [
    ("c", 0.0, 0, INF, "[)"),
    ("r", 3, 0, INF),
    ("r", np.float64(2.5), 0, INF),
    ("r", np.int32(2), 0, INF),
    ("pick_fraction", 1.0, 0, 1, "(]"),
    ("accuracy_threshold", 0, 0, 1, "[]"),
    ("seed", 0, 0, INF, "[)", True),
    ("seed", np.int64(2**62), 0, INF, "[)", True),
    ("d_range hi", 5.0, 5.0, INF, "[)"),
])
def test_accepts_python_and_numpy_scalars(args):
    check_number(*args)
