"""Synthetic blobs: generation, split, CSV round trip."""

import numpy as np
import pytest

from dc_optlab import FormatError, SyntheticSpec, ValidationError, generate, split
from dc_optlab.data import Dataset, csv_text, dataset_csv, load_csv, write_text


class TestDataset:
    def test_rejects_bad_labels(self):
        with pytest.raises(ValidationError):
            Dataset(features=np.zeros((2, 2)), labels=np.array([0, 1]))

    def test_rejects_nonfinite_features(self):
        with pytest.raises(ValidationError):
            Dataset(features=np.array([[np.inf, 0.0]]), labels=np.array([1]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValidationError):
            Dataset(features=np.zeros((3, 2)), labels=np.array([1, -1]))

    def test_empty_is_allowed(self):
        d = Dataset(features=np.zeros((0, 2)), labels=np.zeros(0, dtype=int))
        assert d.m == 0 and d.n == 2


class TestGenerate:
    def test_degenerate_noise_pins_points_to_centers(self):
        spec = SyntheticSpec(m=4, n=2, noise_sigma=1e-12, seed=3)
        data = generate(spec)
        for row, y in zip(data.features, data.labels):
            assert np.allclose(row, y * 1.5 * np.ones(2), atol=1e-9)

    def test_deterministic_bytes(self):
        a = dataset_csv(generate(SyntheticSpec(seed=42)))
        b = dataset_csv(generate(SyntheticSpec(seed=42)))
        assert a == b

    def test_different_seed_differs(self):
        assert generate(SyntheticSpec(seed=1)) != generate(SyntheticSpec(seed=2))

    def test_class_counts_split_evenly(self):
        # ceil(m/2) positives, floor(m/2) negatives
        for m, positives in ((1000, 500), (5, 3)):
            labels = generate(SyntheticSpec(m=m, seed=9)).labels
            assert np.count_nonzero(labels == 1) == positives
            assert np.count_nonzero(labels == -1) == m - positives

    def test_separability_witness(self):
        # all-ones direction classifies the default blobs well
        data = generate(SyntheticSpec(seed=17))
        scores = data.features @ np.ones(2)
        pred = np.where(scores >= 0, 1, -1)
        assert np.mean(pred == data.labels) >= 0.9

    def test_invalid_spec(self):
        with pytest.raises(ValidationError):
            SyntheticSpec(m=0)
        with pytest.raises(ValidationError, match="m \\* n must be"):
            SyntheticSpec(m=np.int64(2**62), n=np.int64(2))  # the product overflows int64
        with pytest.raises(ValidationError):
            SyntheticSpec(noise_sigma=0.0)
        with pytest.raises(ValidationError):
            SyntheticSpec(split_fraction=1.0)
        with pytest.raises(ValidationError):
            SyntheticSpec(m=2.5)
        with pytest.raises(ValidationError):
            SyntheticSpec(center_distance=np.inf)
        with pytest.raises(ValidationError):
            SyntheticSpec(seed=-1)

    def test_numpy_scalars_accepted(self):
        spec = SyntheticSpec(m=np.int64(30), center_distance=np.float64(1.5), seed=np.int64(4))
        assert generate(spec) == generate(SyntheticSpec(m=30, seed=4))


class TestSplit:
    @pytest.mark.parametrize("m, fraction, sizes", [(10, 0.8, (8, 2)), (1000, 0.8, (800, 200)), (5, 0.5, (3, 2))])
    def test_sizes(self, m, fraction, sizes):
        data = generate(SyntheticSpec(m=m, seed=0))
        tr, te = split(data, fraction, seed=1)
        assert (tr.m, te.m) == sizes

    def test_deterministic(self):
        data = generate(SyntheticSpec(seed=5))
        a = split(data, 0.8, seed=7)
        b = split(data, 0.8, seed=7)
        assert a[0] == b[0] and a[1] == b[1]

    def test_partition(self):
        data = generate(SyntheticSpec(m=50, seed=5))
        tr, te = split(data, 0.8, seed=7)
        merged = np.vstack([tr.features, te.features])
        assert merged.shape == data.features.shape
        # multiset equality via lexicographic sort of rows
        assert np.array_equal(
            np.sort(merged, axis=0), np.sort(data.features, axis=0)
        )

    def test_bad_fraction(self):
        data = generate(SyntheticSpec(m=10, seed=0))
        with pytest.raises(ValidationError):
            split(data, 0.0, seed=0)
        with pytest.raises(ValidationError):
            split(data, 1.0, seed=0)


    def test_negative_seed_rejected(self):
        data = generate(SyntheticSpec(m=10, seed=0))
        with pytest.raises(ValidationError, match="seed must be an integer >= 0"):
            split(data, 0.5, -1)


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        data = generate(SyntheticSpec(m=37, seed=23))
        path = tmp_path / "data.csv"
        write_text(path, dataset_csv(data))
        assert load_csv(path) == data

    def test_header(self, tmp_path):
        data = generate(SyntheticSpec(m=3, seed=0))
        path = tmp_path / "data.csv"
        write_text(path, dataset_csv(data))
        assert path.read_text().splitlines()[0] == "x1,x2,y"

    def test_zero_label_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2,y\n0.5,0.5,1\n0.1,0.2,0\n")
        with pytest.raises(FormatError, match="line 3"):
            load_csv(path)

    def test_malformed_float_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2,y\nabc,0.2,1\n")
        with pytest.raises(FormatError, match="line 2"):
            load_csv(path)

    def test_wrong_field_count_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2,y\n0.1,1\n")
        with pytest.raises(FormatError, match="line 2"):
            load_csv(path)

    def test_header_only_gives_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x1,x2,y\n")
        data = load_csv(path)
        assert data.m == 0 and data.n == 2

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n0.1,0.2,1\n")
        with pytest.raises(FormatError, match="line 1"):
            load_csv(path)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(tmp_path / "nope.csv")


class TestCsvText:
    def test_floats_take_17_digits_everything_else_str(self):
        text = csv_text(("a", "b", "c", "d"), [(0.1, np.float64(1 / 3), 7, "kind"),
                                               (float("nan"), 2.0, np.int64(-1), "x")])
        assert text == "a,b,c,d\n0.10000000000000001,0.33333333333333331,7,kind\nnan,2,-1,x\n"

    def test_header_only(self):
        assert csv_text(("z",), []) == "z\n"
