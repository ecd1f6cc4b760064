"""Synthetic 2-D binary classification data: two Gaussian blobs mirrored
through the origin, so a homogeneous linear model can separate them.

All randomness flows through numpy's PCG64 (``np.random.default_rng``);
identical seeds give identical datasets on every platform. CSV output uses
17-significant-digit decimals, which round-trip float64 exactly.
"""

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ValidationError, check_number

FLOAT_FMT = "{:.17g}"


def csv_text(header, rows) -> str:
    """CSV with a header line: floats as FLOAT_FMT, anything else via str."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(FLOAT_FMT.format(v) if isinstance(v, float) else str(v) for v in row)
        )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature matrix (m x n) paired with labels in {-1, +1}."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        labs = np.asarray(self.labels, dtype=int)
        if feats.ndim != 2:
            raise ValidationError(f"features must be 2-D, got ndim={feats.ndim}")
        if labs.shape != (feats.shape[0],):
            raise ValidationError(
                f"labels shape {labs.shape} does not match {feats.shape[0]} rows"
            )
        if not np.all(np.isfinite(feats)):
            raise ValidationError("features must be finite")
        if labs.size and not np.all(np.isin(labs, (-1, 1))):
            raise ValidationError("labels must be -1 or +1")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    @property
    def m(self) -> int:
        return self.features.shape[0]

    @property
    def n(self) -> int:
        return self.features.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return np.array_equal(self.features, other.features) and np.array_equal(
            self.labels, other.labels
        )

    def subset(self, indices) -> "Dataset":
        return Dataset(features=self.features[indices], labels=self.labels[indices])


@dataclass(frozen=True)
class SyntheticSpec:
    """Blob-generation settings; defaults give m=1000, n=2 and an 80/20 split."""

    m: int = 1000
    n: int = 2
    center_distance: float = 1.5
    noise_sigma: float = 1.0
    split_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self):
        check_number("m", self.m, 1, math.inf, "[)", integer=True)
        check_number("n", self.n, 1, math.inf, "[)", integer=True)
        check_number("center_distance", self.center_distance, 0, math.inf)
        check_number("noise_sigma", self.noise_sigma, 0, math.inf)
        check_number("split_fraction", self.split_fraction, 0, 1)
        check_number("seed", self.seed, 0, math.inf, "[)", integer=True)
        # numpy cannot make an (m, n) float64 array of more bytes than intp holds
        size, limit = int(self.m) * int(self.n), int(np.iinfo(np.intp).max) // 8
        if size > limit:
            raise ValidationError(f"m * n must be <= {limit}, got {size}")


def generate(spec: SyntheticSpec) -> Dataset:
    """Draw ceil(m/2) positives around +c*(1,..,1) and floor(m/2) negatives
    around the mirrored center, sigma per coordinate, then shuffle.

    Draw order is pinned (positives, negatives, permutation) so a seed maps
    to exactly one dataset.
    """
    rng = np.random.default_rng(spec.seed)
    n_pos = (spec.m + 1) // 2
    n_neg = spec.m // 2
    center = spec.center_distance * np.ones(spec.n)

    # a sigma or center near the float64 limit overflows: Dataset rejects it
    with np.errstate(over="ignore"):
        pos = center + spec.noise_sigma * rng.standard_normal((n_pos, spec.n))
        neg = -center + spec.noise_sigma * rng.standard_normal((n_neg, spec.n))
    feats = np.vstack([pos, neg])
    labs = np.concatenate([np.ones(n_pos, dtype=int), -np.ones(n_neg, dtype=int)])

    perm = rng.permutation(spec.m)
    return Dataset(features=feats[perm], labels=labs[perm])


def split(data: Dataset, fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded-permutation split: train gets ceil(fraction*m) samples."""
    check_number("fraction", fraction, 0, 1)
    check_number("seed", seed, 0, math.inf, "[)", integer=True)
    if data.m < 2:
        raise ValidationError(f"need m >= 2 to split, got m={data.m}")
    perm = np.random.default_rng(seed).permutation(data.m)
    k = math.ceil(fraction * data.m)
    return data.subset(perm[:k]), data.subset(perm[k:])


def dataset_csv(data: Dataset) -> str:
    """Render as CSV with header x1,...,xn,y."""
    header = [f"x{j + 1}" for j in range(data.n)] + ["y"]
    return csv_text(header, ([*row, y] for row, y in zip(data.features, data.labels)))


def save_csv(data: Dataset, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(dataset_csv(data))


def read_csv(path, header_prefix) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """Read a CSV file whose header starts with ``header_prefix``.

    Returns the header and the non-blank rows, each with its 1-based line
    number in the file. A mismatched header, bytes that are not UTF-8 and
    rows the csv module rejects, such as a field over its size limit, raise
    ``FormatError`` with the line number; I/O problems raise ``OSError``.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"not UTF-8 text: {exc.reason}", line=line) from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, [])  # an empty file has an empty header
        if header[: len(header_prefix)] != list(header_prefix):
            raise FormatError(
                f"bad header {header!r}, expected it to start with {list(header_prefix)!r}",
                line=1,
            )
        rows = [(reader.line_num, row) for row in reader if row]
    except csv.Error as exc:
        raise FormatError(str(exc), line=reader.line_num) from None
    return header, rows


def load_csv(path) -> Dataset:
    """Load a dataset written by ``save_csv``; exact round trip.

    Raises ``FormatError`` (with line number) on malformed rows or labels
    outside {-1, +1}; I/O problems surface as ``OSError``.
    """
    header, rows = read_csv(path, ())
    expected = [f"x{j + 1}" for j in range(max(len(header) - 1, 1))] + ["y"]
    if header != expected:
        raise FormatError(f"bad header {header!r}, expected {expected!r}", line=1)
    n = len(header) - 1

    feats: list[list[float]] = []
    labs: list[int] = []
    for lineno, row in rows:
        if len(row) != n + 1:
            raise FormatError(f"expected {n + 1} fields, got {len(row)}", line=lineno)
        try:
            values = [float(v) for v in row[:n]]
            label = int(row[n])
        except ValueError as exc:
            raise FormatError(str(exc), line=lineno) from None
        if label not in (-1, 1):
            raise FormatError(f"label must be -1 or +1, got {label}", line=lineno)
        if not all(math.isfinite(v) for v in values):
            raise FormatError("non-finite feature value", line=lineno)
        feats.append(values)
        labs.append(label)

    features = np.array(feats, dtype=float).reshape(len(feats), n)
    return Dataset(features=features, labels=np.array(labs, dtype=int))
