"""File formats, benchmark construction, normalization, synthetic data."""

import struct

import numpy as np
import pytest

from cance.data import (
    Dataset,
    load_recipe_dataset,
    Normalizer,
    SplitSpec,
    load_csv,
    load_embeddings,
    load_idx,
    make_multimodal,
    split_labeled_benchmark,
    split_train_val,
    synth_generate,
    write_csv,
    write_embeddings,
)
from cance.errors import DataFormatError, ShapeError
from cance.rng import RunRng


class TestCsv:
    def test_basic_load_with_labels(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,label\n1,2,0\n3,4,1\n5,6,0\n")
        ds = load_csv(path, label_column="label")
        assert ds.n == 3 and ds.dim == 2
        np.testing.assert_array_equal(ds.labels, [0, 1, 0])

    def test_non_numeric_cell_cites_row_and_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n3,oops\n")
        with pytest.raises(DataFormatError, match=r"row 3.*'b'"):
            load_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(DataFormatError, match="row 3"):
            load_csv(path)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DataFormatError, match="label"):
            load_csv(path, label_column="label")

    def test_round_trip_preserves_full_precision(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.standard_normal((20, 3)) * 1e-7,
                     labels=rng.integers(0, 2, 20))
        path = tmp_path / "rt.csv"
        write_csv(path, ds)
        back = load_csv(path, label_column="label")
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)


class TestIdx:
    def write_pair(self, tmp_path, n=2, rows=28, cols=28, label_count=None):
        images = tmp_path / "imgs"
        labels = tmp_path / "labs"
        pixels = np.arange(n * rows * cols, dtype=np.uint8)
        with open(images, "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
            fh.write(pixels.tobytes())
        with open(labels, "wb") as fh:
            count = n if label_count is None else label_count
            fh.write(struct.pack(">II", 0x00000801, count))
            fh.write(bytes(range(count)))
        return images, labels

    def test_load_shapes_and_scaling(self, tmp_path):
        images, labels = self.write_pair(tmp_path)
        ds = load_idx(images, labels)
        assert ds.n == 2 and ds.dim == 784
        assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0
        np.testing.assert_array_equal(ds.class_ids, [0, 1])

    def test_count_mismatch_rejected(self, tmp_path):
        images, labels = self.write_pair(tmp_path, label_count=3)
        with pytest.raises(DataFormatError, match="count"):
            load_idx(images, labels)

    def test_bad_magic_rejected(self, tmp_path):
        images, labels = self.write_pair(tmp_path)
        raw = bytearray(images.read_bytes())
        raw[3] = 0x99
        images.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="magic"):
            load_idx(images, labels)

    def test_all_zero_image(self, tmp_path):
        images = tmp_path / "imgs"
        labels = tmp_path / "labs"
        with open(images, "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000803, 1, 2, 2))
            fh.write(bytes(4))
        with open(labels, "wb") as fh:
            fh.write(struct.pack(">II", 0x00000801, 1))
            fh.write(bytes([7]))
        ds = load_idx(images, labels)
        np.testing.assert_array_equal(ds.features, np.zeros((1, 4)))
        assert ds.class_ids[0] == 7


class TestEmbeddings:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        ds = Dataset(rng.standard_normal((2, 4)),
                     class_ids=np.array([3, 9]))
        path = tmp_path / "e.emb"
        write_embeddings(path, ds)
        back = load_embeddings(path)
        assert back.features.tobytes() == ds.features.tobytes()
        np.testing.assert_array_equal(back.class_ids, ds.class_ids)

    def test_truncated_payload_rejected(self, tmp_path):
        rng = np.random.default_rng(2)
        ds = Dataset(rng.standard_normal((4, 4)))
        path = tmp_path / "e.emb"
        write_embeddings(path, ds)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(DataFormatError):
            load_embeddings(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "e.emb"
        path.write_bytes(b"NOPE" + bytes(32))
        with pytest.raises(DataFormatError):
            load_embeddings(path)


@pytest.fixture
def toy_classes():
    rng = np.random.default_rng(3)
    features = rng.standard_normal((90, 2))
    class_ids = np.repeat([0, 1, 2], 30)
    return Dataset(features, class_ids=class_ids, name="toy")


class TestBenchmarks:
    def test_unimodal_filters_train_and_labels_test(self, toy_classes):
        train, test = make_multimodal(toy_classes, [0],
                                      rng=np.random.default_rng(4))
        assert np.all(train.class_ids == 0)
        np.testing.assert_array_equal(test.labels, (test.class_ids != 0))

    def test_partition_counts_sum(self, toy_classes):
        train, test = make_multimodal(toy_classes, [0], test_fraction=0.25,
                                      rng=np.random.default_rng(5))
        # train keeps only class-0 rows from the non-test side; totals add up
        assert test.n == round(90 * 0.25)
        non_test = 90 - test.n
        class0_in_train_side = train.n
        assert 0 < class0_in_train_side <= non_test

    def test_absent_class_rejected(self, toy_classes):
        with pytest.raises(ValueError, match="absent"):
            make_multimodal(toy_classes, [9], rng=np.random.default_rng(6))

    def test_normal_class_with_no_training_rows_rejected(self, toy_classes):
        # a test fraction this large sends every row to the test side
        with pytest.raises(ValueError, match="no training rows"):
            make_multimodal(toy_classes, [0], test_fraction=0.999,
                            rng=np.random.default_rng(7))

    def test_multimodal_anomalies_are_complement(self, toy_classes):
        train, test = make_multimodal(toy_classes, [0, 1],
                                      rng=np.random.default_rng(7))
        assert set(np.unique(train.class_ids)) <= {0, 1}
        np.testing.assert_array_equal(test.labels, (test.class_ids == 2))

    def test_all_classes_normal_warns(self, toy_classes):
        with pytest.warns(UserWarning, match="all-normal"):
            _, test = make_multimodal(toy_classes, [0, 1, 2],
                                      rng=np.random.default_rng(8))
        assert test.labels.sum() == 0

    def test_empty_normal_set_rejected(self, toy_classes):
        with pytest.raises(ValueError):
            make_multimodal(toy_classes, [], rng=np.random.default_rng(9))

    def test_separate_test_dataset(self, toy_classes):
        other = Dataset(np.zeros((10, 2)),
                        class_ids=np.array([0] * 5 + [2] * 5))
        train, test = make_multimodal(toy_classes, [0], test_dataset=other)
        assert train.n == 30  # all class-0 rows of the full training set
        assert test.n == 10
        np.testing.assert_array_equal(test.labels, [0] * 5 + [1] * 5)

    def test_labeled_split_keeps_anomalies_out_of_train(self):
        rng = np.random.default_rng(10)
        ds = Dataset(rng.standard_normal((100, 2)),
                     labels=np.array([0] * 80 + [1] * 20))
        train, test = split_labeled_benchmark(ds, 0.25, rng)
        assert train.labels.sum() == 0
        assert test.labels.sum() == 20
        assert train.n + test.n == 100


class TestSplitsAndNormalize:
    def test_split_deterministic(self):
        ds = Dataset(np.arange(40, dtype=float).reshape(20, 2))
        a = split_train_val(ds, SplitSpec(0.2, 0), RunRng(5).stream("s"))
        b = split_train_val(ds, SplitSpec(0.2, 0), RunRng(5).stream("s"))
        np.testing.assert_array_equal(a[0].features, b[0].features)
        np.testing.assert_array_equal(a[1].features, b[1].features)
        assert a[1].n == 4

    def test_zscore_two_point_column(self):
        ds = Dataset(np.array([[0.0], [2.0]]))
        out = Normalizer("zscore").fit(ds).transform(ds)
        np.testing.assert_allclose(out.features[:, 0], [-1.0, 1.0])

    def test_constant_column_centered_not_divided(self):
        ds = Dataset(np.array([[5.0, 1.0], [5.0, 3.0]]))
        out = Normalizer("zscore").fit(ds).transform(ds)
        np.testing.assert_array_equal(out.features[:, 0], [0.0, 0.0])

    def test_minmax_range(self):
        ds = Dataset(np.array([[1.0], [3.0]]))
        out = Normalizer("minmax").fit(ds).transform(ds)
        np.testing.assert_allclose(out.features[:, 0], [0.0, 1.0])

    def test_test_rows_use_train_statistics(self):
        train = Dataset(np.array([[0.0], [2.0]]))
        test = Dataset(np.array([[4.0]]))
        norm = Normalizer("zscore").fit(train)
        np.testing.assert_allclose(norm.transform(test).features, [[3.0]])

    def test_unfitted_transform_rejected(self):
        with pytest.raises(RuntimeError):
            Normalizer("zscore").transform(Dataset(np.zeros((2, 1))))


class TestSynth:
    def test_ring_radii_concentrated(self):
        ds = synth_generate("ring(n=1000, radius=1, noise=0.05)",
                            RunRng(0).stream("synth"))
        radii = np.linalg.norm(ds.features, axis=1)
        assert np.all((radii > 0.8) & (radii < 1.2))

    def test_same_seed_identical_bytes(self):
        spec = "ring(n=500) + box(n=100, low=-2, high=2)"
        a = synth_generate(spec, RunRng(7).stream("synth"))
        b = synth_generate(spec, RunRng(7).stream("synth"))
        assert a.features.tobytes() == b.features.tobytes()
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_box_anomalies_inside_declared_box(self):
        ds = synth_generate("ring(n=100) + box(n=400, low=-1.5, high=1.5)",
                            RunRng(1).stream("synth"))
        anomalies = ds.features[ds.labels == 1]
        assert anomalies.shape == (400, 2)
        assert anomalies.min() >= -1.5 and anomalies.max() <= 1.5

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError, match="unknown synthetic kind"):
            synth_generate("blob(n=10)", RunRng(0).stream("synth"))

    def test_two_moons_and_mixture_generate(self):
        for spec in ("two-moons(n=50, noise=0.1)",
                     "gaussian-mixture(n=50, k=2, dim=3)"):
            ds = synth_generate(spec, RunRng(2).stream("synth"))
            assert ds.n == 50
            assert ds.labels.sum() == 0

    def test_offplane_anomaly_geometry(self):
        ds = synth_generate(
            "offplane(n=400, anomalies=100, dim=6, latent=2, noise=0.01, "
            "offset=1.0)",
            RunRng(3).stream("synth"),
        )
        assert ds.n == 500
        assert ds.labels.sum() == 100
        # anomalies sit roughly one unit off the plane spanned by normals
        normals = ds.features[ds.labels == 0]
        anomalies = ds.features[ds.labels == 1]
        mean = normals.mean(axis=0)
        _, _, vt = np.linalg.svd(normals - mean)
        plane = vt[:2]
        residual_n = normals - mean - (normals - mean) @ plane.T @ plane
        residual_a = anomalies - mean - (anomalies - mean) @ plane.T @ plane
        assert np.linalg.norm(residual_a, axis=1).min() > 0.5
        assert np.linalg.norm(residual_n, axis=1).max() < 0.2

    def test_mismatched_part_dims_rejected(self):
        with pytest.raises(ValueError, match="mismatched dims"):
            synth_generate("ring(n=10) + box(n=10, dim=3)",
                           RunRng(0).stream("synth"))

    def test_nonfinite_dataset_rejected(self):
        with pytest.raises(DataFormatError):
            Dataset(np.array([[np.nan, 1.0]]))

    def test_label_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            Dataset(np.zeros((3, 2)), labels=np.zeros(2))


class TestRecipe:
    def write_recipe(self, tmp_path):
        recipe = tmp_path / "r.ini"
        recipe.write_text(
            "[recipe]\nname = mini\nlabel_column = 2\n"
            "normal_values = 1, 2\nanomaly_values = 9\n"
            "[categorical]\n0 = A:0, B:1\n"
        )
        return recipe

    def test_selects_and_labels_rows(self, tmp_path):
        recipe = self.write_recipe(tmp_path)
        raw = tmp_path / "raw.csv"
        raw.write_text("A,0.5,1\nB,0.6,9\nA,0.7,5\nB,0.8,2\n")
        ds = load_recipe_dataset(recipe, raw)
        assert ds.n == 3  # the rings=5 row is dropped
        np.testing.assert_array_equal(ds.labels, [0, 1, 0])
        np.testing.assert_array_equal(ds.features[:, 0], [0, 1, 1])
        assert ds.dim == 2  # label column removed

    def test_unmapped_category_cites_position(self, tmp_path):
        recipe = self.write_recipe(tmp_path)
        raw = tmp_path / "raw.csv"
        raw.write_text("C,0.5,1\n")
        with pytest.raises(DataFormatError, match="row 1, column 0"):
            load_recipe_dataset(recipe, raw)

    def test_no_matching_rows_rejected(self, tmp_path):
        recipe = self.write_recipe(tmp_path)
        raw = tmp_path / "raw.csv"
        raw.write_text("A,0.5,7\n")
        with pytest.raises(DataFormatError, match="no rows matched"):
            load_recipe_dataset(recipe, raw)

    def test_shipped_abalone_recipe_parses(self, tmp_path):
        import pathlib

        shipped = pathlib.Path(__file__).parent.parent / "recipes" / "abalone.ini"
        raw = tmp_path / "abalone.data"
        raw.write_text(
            "M,0.455,0.365,0.095,0.514,0.2245,0.101,0.15,9\n"
            "F,0.53,0.42,0.135,0.677,0.2565,0.1415,0.21,3\n"
            "I,0.33,0.255,0.08,0.205,0.0895,0.0395,0.055,15\n"
        )
        ds = load_recipe_dataset(shipped, raw)
        assert ds.n == 2
        np.testing.assert_array_equal(ds.labels, [0, 1])
        assert ds.dim == 8
