"""File formats, benchmark construction, normalization, synthetic data."""

import csv
import hashlib
import inspect
import os
import re
import struct
import sys
import tempfile
import threading
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cance.data as data_module
from cance import machine
from cance._rows import text_blocks
from cance.data import (
    EMBEDDINGS_MAGIC,
    EMBEDDINGS_VERSION,
    SYNTH_KINDS,
    Dataset,
    DatasetConfig,
    load_benchmark,
    load_recipe_dataset,
    Normalizer,
    load_csv,
    load_embeddings,
    load_idx,
    make_multimodal,
    split_labeled_benchmark,
    split_train_val,
    synth_generate,
    write_csv,
    write_embeddings,
    write_table,
)
from cance.errors import ConfigError, DataFormatError, NonFiniteError, ShapeError
from cance.rng import RunRng

# shortest round-trip text switches to an exponent below 1e-4 and from
# 1e16 on; the neighbours of each switch, the float64 extremes and the
# non-finite values
EDGE_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324,
               1e16, 9999999999999998.0, 1e-5, 0.0001, 0.1]


def reference_load_csv(path, label_column=None, class_column=None,
                       ignore_columns=()):
    """Row-at-a-time reader: the loader's semantics on valid files."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        skip = {label_column, class_column, *(c.strip() for c in ignore_columns)}
        feature_columns = [h for h in header if h not in skip]
        index = {h: i for i, h in enumerate(header)}
        rows, labels, classes = [], [], []
        for row in reader:
            rows.append([float(row[index[c]]) for c in feature_columns])
            if label_column:
                labels.append(int(float(row[index[label_column]])))
            if class_column:
                classes.append(int(float(row[index[class_column]])))
    return (np.array(rows, dtype=np.float64),
            np.array(labels, dtype=np.int64) if label_column else None,
            np.array(classes, dtype=np.int64) if class_column else None)


def reference_write_csv(path, dataset):
    """Cell-at-a-time csv.writer loop: the byte layout of `write_csv`."""
    header = [f"f{i}" for i in range(dataset.dim)]
    if dataset.labels is not None:
        header.append("label")
    if dataset.class_ids is not None:
        header.append("class")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i in range(dataset.n):
            row = [repr(float(v)) for v in dataset.features[i]]
            if dataset.labels is not None:
                row.append(str(int(dataset.labels[i])))
            if dataset.class_ids is not None:
                row.append(str(int(dataset.class_ids[i])))
            writer.writerow(row)


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

    @pytest.mark.parametrize("cell", ["0.5", "inf", "nan", "1e300"])
    @pytest.mark.parametrize("column", ["label", "class"])
    def test_non_integer_label_or_class_rejected(self, tmp_path, column, cell):
        path = tmp_path / "d.csv"
        path.write_text(f"a,{column}\n1,0\n2,{cell}\n3,1\n")
        kwargs = {f"{column}_column": column}
        with pytest.raises(DataFormatError,
                           match=rf"row 3, column '{column}'.*'{cell}'"):
            load_csv(path, **kwargs)

    @pytest.mark.parametrize("text, kwargs", [
        ('a,b,label\n"1.5","-2",0\n" 3 ",4e-3,"1"\n', {"label_column": "label"}),
        ("a,b\n 1.5 , 2\n1_000,-0.0\n", {}),
        ("a\n1\n2.5\n", {}),
        ("a,b,c,label,class\n1,2,3,1.0,7\n4,5,6,-0.0,8\n",
         {"ignore_columns": [" b", "absent"], "label_column": "label",
          "class_column": "class"}),
    ])
    def test_matches_reference_reader(self, tmp_path, text, kwargs):
        path = tmp_path / "d.csv"
        path.write_text(text)
        ds = load_csv(path, **kwargs)
        features, labels, classes = reference_load_csv(path, **kwargs)
        assert ds.features.tobytes() == features.tobytes()
        assert ds.features.shape == features.shape
        assert ds.features.flags.c_contiguous
        for got, want in ((ds.labels, labels), (ds.class_ids, classes)):
            if want is None:
                assert got is None
            else:
                np.testing.assert_array_equal(got, want)
                assert got.dtype == np.int64

    @pytest.mark.parametrize("header", ["a,a,b", "a, a ,b", "b,a,a"])
    def test_repeated_column_name_rejected(self, tmp_path, header):
        path = tmp_path / "dup.csv"
        path.write_text(f"{header}\n1,2,3\n4,5,6\n")
        with pytest.raises(DataFormatError, match=r"dup.csv: column 'a' appears twice"):
            load_csv(path)

    @pytest.mark.parametrize("raw", [b"a,\xff\n1,2\n",
                                     b"a,b\n" + b"1,2\n" * 5000 + b"3,\xff\n",
                                     b"a,b\n" + b"\n" * 10000 + b"\xff\n"])
    def test_undecodable_bytes_cite_file(self, tmp_path, raw):
        # in the header, far enough on that only the rescan decodes them, or
        # after a run of blank lines
        path = tmp_path / "d.csv"
        path.write_bytes(raw)
        with pytest.raises(DataFormatError, match="d.csv: .*can't decode byte 0xff"):
            load_csv(path)

    def test_csv_error_cites_the_file_line(self, tmp_path):
        # the header spans two lines, and the rescan starts after them
        path = tmp_path / "d.csv"
        path.write_text('"a\nb",c\n1,2\n3,' + "x" * 140_000 + "\n")
        with pytest.raises(DataFormatError, match="d.csv: line 4: field larger"):
            load_csv(path)

    def test_header_only_file_rejected(self, tmp_path):
        # load_csv reads it as no rows; a benchmark cannot be built from none
        path = tmp_path / "d.csv"
        path.write_text("a,b\n")
        dc = DatasetConfig(kind="csv", path=str(path), label_column="b")
        with pytest.raises(DataFormatError, match="d.csv: no data rows"):
            load_benchmark(dc, RunRng(0))

    @pytest.mark.parametrize("body", ["", "\n", " \t\n\r\n\x0c", "\n" * 5000])
    def test_blank_body_gives_no_rows(self, tmp_path, body):
        path = tmp_path / "d.csv"
        path.write_text(f"a,b,label\n{body}")
        ds = load_csv(path, label_column="label", ignore_columns=["b"])
        assert ds.features.shape == (0, 1) and ds.labels.shape == (0,)

    @pytest.mark.parametrize("body", ["", " \n\n", "1,2,0\n3,4,1\n" * 3000])
    def test_pipe_reads_as_the_file(self, tmp_path, body):
        path, fifo = tmp_path / "d.csv", tmp_path / "in.csv"
        path.write_text(f"a,b,label\n{body}")
        os.mkfifo(fifo)
        writer = threading.Thread(target=lambda: fifo.write_bytes(path.read_bytes()),
                                  daemon=True)
        writer.start()
        try:
            piped = load_csv(fifo, label_column="label")
        finally:
            writer.join(30)
        assert not writer.is_alive()
        ds = load_csv(path, label_column="label")
        assert piped.features.tobytes() == ds.features.tobytes()
        assert piped.features.shape == ds.features.shape == (len(ds.labels), 2)
        np.testing.assert_array_equal(piped.labels, ds.labels)

    @pytest.mark.parametrize("body, match", [
        (",,\n", "row 2, column 'a': cannot parse ''"),
        ('""\n', "row 2 has 1 fields"),
        ("\n\n1,2\n", "row 2 has 0 fields"),
        (" \n" * 5000 + "1,2,3\n", "row 2 has 1 fields"),
    ])
    def test_a_body_not_all_blank_is_read(self, tmp_path, body, match):
        # a line of commas or quotes is not blank, nor a blank line before a row
        path = tmp_path / "d.csv"
        path.write_text(f"a,b,c\n{body}")
        with pytest.raises(DataFormatError, match=re.escape(match)):
            load_csv(path)

    @pytest.mark.parametrize("text", ["\n", "\n\n", " \n1\n", ",\n1,2\n"])
    def test_header_naming_no_column_rejected(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(DataFormatError, match="d.csv: the header names no column"):
            load_csv(path)

    def test_bad_cell_reported_before_later_ragged_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n3,x\n5,6\n7\n")
        with pytest.raises(DataFormatError, match=r"row 3, column 'b'.*'x'"):
            load_csv(path)

    def test_bad_label_reported_before_later_bad_feature(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,label\n1,0\n2,0.5\nbad,1\n")
        with pytest.raises(DataFormatError, match=r"row 3, column 'label'"):
            load_csv(path, label_column="label")

    def test_bad_feature_reported_before_bad_label_in_same_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("label,a\n0,1\nnan,bad\n")
        with pytest.raises(DataFormatError, match=r"row 3, column 'a'"):
            load_csv(path, label_column="label")

    @pytest.mark.parametrize("labels, class_ids", [
        (None, None), ([0, 1, 0, 1], None), (None, [3, 9, 3, 0]),
        ([0, 1, 0, 1], [3, 9, 3, 0]),
    ])
    def test_write_matches_reference_writer(self, tmp_path, labels, class_ids):
        rng = np.random.default_rng(4)
        features = np.concatenate([
            rng.standard_normal((2, 3)) * 1e7,
            np.array([[-0.0, 5e-324, 1e16], [9999999999999998.0, 1e-5, 0.1]]),
        ])
        ds = Dataset(features, labels=labels, class_ids=class_ids)
        write_csv(tmp_path / "new.csv", ds)
        reference_write_csv(tmp_path / "ref.csv", ds)
        assert (tmp_path / "new.csv").read_bytes() == \
            (tmp_path / "ref.csv").read_bytes()

    def test_write_edge_floats_match_reference_writer(self, tmp_path):
        # Dataset rejects non-finite features, so build one past that check
        ds = Dataset(np.zeros((len(EDGE_FLOATS), 1)))
        ds.features = np.array(EDGE_FLOATS).reshape(-1, 1)
        write_csv(tmp_path / "new.csv", ds)
        reference_write_csv(tmp_path / "ref.csv", ds)
        text = (tmp_path / "new.csv").read_text()
        assert text == (tmp_path / "ref.csv").read_text()
        assert text.splitlines()[1:] == [repr(v) for v in EDGE_FLOATS]

    def test_write_empty_dataset_is_header_only(self, tmp_path):
        ds = Dataset(np.empty((0, 2)), labels=np.empty(0, dtype=np.int64))
        write_csv(tmp_path / "e.csv", ds)
        assert (tmp_path / "e.csv").read_text() == "f0,f1,label\n"


NUMPY_ROWS = data_module._numpy_rows


def no_numpy(*args):
    """`data._numpy_rows` rejecting every block, so that the rescan reads it."""
    return None


class TestCsvBlocks:
    """load_csv reads PARSE_BLOCK_ROWS lines at a time; here 2 lines, with
    numpy's reader off so that valid blocks take the rescan too."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(data_module, "PARSE_BLOCK_ROWS", 2)
        monkeypatch.setattr(data_module, "_numpy_rows", no_numpy)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_reference_reader(self, tmp_path, n):
        path = tmp_path / "d.csv"
        rng = np.random.default_rng(n)
        rows = [f"{a!r},{b!r},{i % 2},{i}" for i, (a, b) in
                enumerate(rng.standard_normal((n, 2)).tolist())]
        path.write_text("a,b,label,class\n" + "\n".join(rows) + "\n")
        kwargs = {"label_column": "label", "class_column": "class"}
        ds = load_csv(path, **kwargs)
        features, labels, classes = reference_load_csv(path, **kwargs)
        assert ds.features.tobytes() == features.tobytes()
        assert ds.features.shape == (n, 2) and ds.features.flags.c_contiguous
        np.testing.assert_array_equal(ds.labels, labels)
        np.testing.assert_array_equal(ds.class_ids, classes)

    @pytest.mark.parametrize("text, match", [
        # a bad cell in the second and third block keeps its row number
        ("a,b\n1,2\n3,4\n5,x\n7,8\n", r"row 4, column 'b'.*'x'"),
        ("a,b\n1,2\n3,4\n5,6\n7,8\ny,0\n", r"row 6, column 'a'.*'y'"),
        # a bad cell is reported before a ragged row of a later block
        ("a,b\n1,x\n3,4\n5\n", r"row 2, column 'b'.*'x'"),
        # ... and before a later ragged row of its own block
        ("a,b\n1,2\n3,4\n5,x\n7\n", r"row 4, column 'b'.*'x'"),
        # a ragged row that starts a block
        ("a,b\n1,2\n3,4\n5\n", r"row 4 has 1 fields"),
    ])
    def test_first_fault_in_file_order(self, tmp_path, text, match):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(DataFormatError, match=match):
            load_csv(path)

    @pytest.mark.parametrize("numpy_on", [False, True])
    @pytest.mark.parametrize("text", [
        'a,b\n1,2\n3,"4\n"\n5,6\n7,8\n',     # the field opens on a block's last line
        'a,b\n"1\n\n\n",2\n3,4\n5,6\n',       # ... and spans two more blocks
        'a,b\n1,2\n3,4\n"\n5",6\n7,8\n9,1\n',  # ... or opens and closes in one
    ])
    def test_quoted_field_across_a_block_end(self, tmp_path, monkeypatch, text,
                                             numpy_on):
        if numpy_on:  # the blocks after the field are numpy's
            monkeypatch.setattr(data_module, "_numpy_rows", NUMPY_ROWS)
        path = tmp_path / "d.csv"
        path.write_text(text)
        ds = load_csv(path)
        features, _, _ = reference_load_csv(path)
        assert ds.features.tobytes() == features.tobytes()
        assert ds.features.shape == features.shape
        # a fault after the field is numbered by rows, not lines
        path.write_text(text + "x,0\n")
        with pytest.raises(DataFormatError, match=rf"row {len(features) + 2}, column 'a'"):
            load_csv(path)

    def test_non_integer_label_in_a_later_block(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,label\n1,0\n2,1\n3,0.5\nbad,1\n")
        with pytest.raises(DataFormatError, match=r"row 4, column 'label'.*'0.5'"):
            load_csv(path, label_column="label")


# cells float() and numpy's reader treat differently, or that fail both
EDGE_CELLS = ["1_0", "\u0661\u0662", '"4"', '"1,5"', " 3 ", "\xa02", "", "x",
              "#1", "1e", "0x10", "+7", "1e400", "-1e400", "1e-400", "nan",
              "-nan", "inf", "-Infinity", "0.5", "2.0", "-0.0"]
CELL = st.one_of(st.integers(-3, 3).map(str), st.sampled_from(EDGE_CELLS),
                 st.floats(allow_nan=False, allow_infinity=False).map(repr))
# a row as its cells, or a line that is not a row of `width` cells
LINE_KINDS = ("row", "row", "row", "row", "blank", "spaces", "comment",
              "extra", "short")


@st.composite
def csv_files(draw):
    """(text, load_csv keyword arguments) of a small CSV, often clean."""
    width = draw(st.integers(1, 4))
    header = [f"c{i}" for i in range(width)]
    roles = draw(st.permutations(header + [None, None]))
    lines = []
    for kind in draw(st.lists(st.sampled_from(LINE_KINDS), min_size=1, max_size=6)):
        cells = draw(st.lists(CELL, min_size=width, max_size=width))
        lines.append({"row": cells, "blank": [], "spaces": ["  "],
                      "comment": ["#", *cells[1:]], "extra": cells + ["1"],
                      "short": cells[:-1]}[kind])
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(",".join(line) for line in [header, *lines])
    if draw(st.booleans()):
        text += newline
    return text, {"label_column": roles[0], "class_column": roles[1]}


def load_outcome(path, **kwargs):
    """load_csv's arrays as bytes, or its DataFormatError message."""
    try:
        ds = load_csv(path, **kwargs)
    except DataFormatError as exc:
        return str(exc)
    return [None if a is None else (a.dtype.str, a.shape, a.tobytes())
            for a in (ds.features, ds.labels, ds.class_ids)]


class TestCsvFastPath:
    """numpy's C reader gives what the csv rescan gives, or no answer."""

    @settings(derandomize=True, max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=csv_files())
    def test_reader_and_rescan_agree(self, tmp_path, case):
        text, kwargs = case
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        fast = load_outcome(path, **kwargs)
        with mock.patch.object(data_module, "_numpy_rows", no_numpy):
            assert load_outcome(path, **kwargs) == fast

    @pytest.mark.filterwarnings("error")  # numpy warns when it finds no row
    @pytest.mark.parametrize("text, numpy_answers", [
        ("a,b\n1,2\n\n3,4\n", False),    # an empty line numpy skips
        ("a,b\n1,2\r3,4\n\n", False),    # ... after a lone CR: equal "\n" counts
        ("a,b\n\n", False),              # no row but an empty line
        ("a,b\n1,2,3\n4,5,6\n", False),   # every row one field too long
        ("a\n1\n2", True),               # no final newline
        ("a,b\r\n1,2\r\n", True),        # CRLF
    ])
    def test_reader_answers_only_where_it_agrees(self, tmp_path, text, numpy_answers):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode("ascii"))
        width = len(text.splitlines()[0].split(","))
        with open(path, newline="") as fh:  # the lines load_csv reads
            lines = fh.readlines()[1:]
        values = data_module._numpy_rows(lines, width, list(range(width)), width)
        assert (values is not None) == numpy_answers
        fast = load_outcome(path)
        with mock.patch.object(data_module, "_numpy_rows", no_numpy):
            assert load_outcome(path) == fast

    def test_clean_file_never_reaches_the_rescan(self, tmp_path, monkeypatch):
        # a silent fallback to the slow parser would lose the fast path's gain;
        # 3300 rows in blocks of 1024 lines, as written, with a header name
        # holding a quoted newline, with CRLF line ends and through a pipe
        spec = "ring(n=3000, radius=1, noise=0.05) + box(n=300, low=-2.5, high=2.5)"
        ds = synth_generate(spec, RunRng(0).stream("score-input"))
        path, fifo = tmp_path / "input.csv", tmp_path / "pipe.csv"
        write_csv(path, ds)
        text = path.read_text()
        inputs = [path, tmp_path / "quoted.csv", tmp_path / "crlf.csv", fifo]
        inputs[1].write_text('"f\n0"' + text[2:])
        inputs[2].write_bytes(text.replace("\n", "\r\n").encode("ascii"))
        os.mkfifo(fifo)
        writer = threading.Thread(target=lambda: fifo.write_text(text), daemon=True)
        writer.start()

        def no_rescan(*args):
            raise AssertionError("the rescan ran on a clean file")

        monkeypatch.setattr(data_module, "_parse_cells", no_rescan)
        monkeypatch.setattr(data_module, "PARSE_BLOCK_ROWS", 1024)
        for source in inputs:
            back = load_csv(source, label_column="label")
            assert back.features.tobytes() == ds.features.tobytes()
            np.testing.assert_array_equal(back.labels, ds.labels)
        writer.join(30)
        assert not writer.is_alive()


def fixed_dataset(n=40_000):
    """Features of exactly rounded arithmetic, so equal on every platform."""
    k = np.arange(3 * n, dtype=np.float64).reshape(n, 3)
    features = (k * 1.1 - 7e4) / 3.0 * np.array([1.0, 1e-9, 1e15])
    rows = np.arange(n)
    return Dataset(features, labels=(rows % 7 == 0).astype(np.int64),
                   class_ids=rows % 10 - 3)


# the bytes of write_csv(fixed_dataset()) from the formatting loop that
# write_table replaced
FIXED_DATASET_SHA256 = (
    "c15e7ad3186f370bcc886845eb3aec99f0a84e707d9f6f2ba8d800dd5032b81b")


class TestTableWriter:
    """write_table formats chunks of a large table in formatter children."""

    HEADER = ["i", "e", "x", "q"]

    @pytest.fixture
    def child_on(self, monkeypatch):
        monkeypatch.setattr(data_module, "FORMAT_CHILD_MIN_ROWS", 0)
        monkeypatch.setattr(machine, "usable_cpus", lambda: 2)

    @pytest.fixture
    def small_chunks(self, monkeypatch, child_on):
        monkeypatch.setattr(data_module, "FORMAT_CHUNK_ROWS", 1000)

    @staticmethod
    def columns(n):
        rng = np.random.default_rng(n)
        floats = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
        edge = min(n, len(EDGE_FLOATS))
        floats[:edge] = EDGE_FLOATS[:edge]
        return [np.arange(n), None, floats, rng.integers(-2**63, 2**63 - 1, n)]

    def write_both(self, tmp_path, monkeypatch, n):
        """The bytes written with the child as set up, then without it."""
        write_table(tmp_path / "a.csv", self.HEADER, self.columns(n), n)
        monkeypatch.setattr(data_module, "FORMAT_CHILD_MIN_ROWS", 10**9)
        write_table(tmp_path / "b.csv", self.HEADER, self.columns(n), n)
        return (tmp_path / "a.csv").read_bytes(), (tmp_path / "b.csv").read_bytes()

    def test_child_text_equals_in_process_text(self):
        # two chunks at their offsets in the data file, one text file
        columns = self.columns(9000)
        chunks = [range(0, 4000), range(4000, 9000)]
        with ExitStack() as stack:
            data = stack.enter_context(tempfile.TemporaryFile())
            child = data_module._Formatter(stack, data)
            for rows in chunks:
                child.send(data, columns, "q-dq", rows)
            done = child.finish()
            assert child.proc.returncode == 0
            child.text.seek(0)
            out = child.text.read().decode("ascii")
        want = ["".join(text_blocks(columns, rows)) for rows in chunks]
        assert out == "".join(want)
        assert done == {0: (child.text, 0, len(want[0])),
                        4000: (child.text, len(want[0]), len(want[1]))}

    @pytest.mark.parametrize("n", [1, 2, 4097, 9000])
    def test_child_and_in_process_files_are_equal(self, tmp_path, monkeypatch,
                                                  child_on, n):
        with_child, alone = self.write_both(tmp_path, monkeypatch, n)
        assert with_child == alone

    @pytest.mark.parametrize("script", [
        None,                                  # the interpreter does not exist
        "#!/bin/sh\nexit 1\n",                 # it fails before reading
        "#!/bin/sh\ncat >/dev/null\nexit 1\n",  # ... after reading
        "#!/bin/sh\ncat >/dev/null\necho 0,,0.5,1\n",  # a garbled acknowledgement
        # 2500 lines, but a failed exit
        "#!/bin/sh\ncat >/dev/null\nyes 0,,0.5,1 | head -n 2500\nexit 1\n",
        # the real formatter, run by the script in place of the interpreter
        '#!/bin/sh\nhead -n 1 | "{python}" "$@"\n',  # exits after its first chunk
        '#!/bin/sh\n"{python}" "$@" | while read n; do echo $((n - 1)); done\n',
        '#!/bin/sh\n"{python}" "$@" >/dev/null\n',  # acknowledges nothing, exits 0
        # its text has the right sizes and line counts, but a wrong first cell
        '#!/bin/sh\n"{python}" "$@"\n'
        'printf 9 | dd of=/proc/self/fd/$5 conv=notrunc 2>/dev/null\nexit 1\n',
    ])
    def test_failed_child_gives_the_same_bytes(self, tmp_path, monkeypatch, small_chunks,
                                               formatter_popens, script):
        interpreter = tmp_path / "python"
        if script is not None:
            interpreter.write_text(script.format(python=sys.executable))
            interpreter.chmod(0o755)
        monkeypatch.setattr(data_module.sys, "executable", str(interpreter))
        with_child, alone = self.write_both(tmp_path, monkeypatch, 5000)
        assert with_child == alone
        assert len(formatter_popens) == (script is not None)
        assert all(proc.returncode is not None for proc in formatter_popens)

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("n", [1, 999, 1000, 1001, 4999, 5000, 5001])
    def test_files_are_equal_for_any_chunk_count(self, tmp_path, monkeypatch, small_chunks,
                                                 formatter_popens, cpus, n):
        monkeypatch.setattr(machine, "usable_cpus", lambda: cpus)
        with_child, alone = self.write_both(tmp_path, monkeypatch, n)
        want = "".join(text_blocks(self.columns(n), range(n)))
        assert with_child == alone == f"{','.join(self.HEADER)}\n{want}".encode("ascii")
        assert len(formatter_popens) == min(cpus - 1, -(-n // 1000))
        assert all(proc.returncode == 0 for proc in formatter_popens)

    def test_chunks_are_filled_as_they_are_written(self, tmp_path, small_chunks):
        # each chunk is read only once `fill` reports its rows filled
        n, full = 4500, self.columns(4500)
        columns = [np.zeros_like(col) if col is not None else None for col in full]

        def fill(filled):
            for stop in range(500, n + 500, 500):
                for col, src in zip(columns, full):
                    if col is not None:
                        col[stop - 500:stop] = src[stop - 500:stop]
                filled(stop)

        write_table(tmp_path / "a.csv", self.HEADER, columns, n, fill)
        write_table(tmp_path / "b.csv", self.HEADER, full, n)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_error_while_filling_leaves_no_file_and_no_child(self, tmp_path,
                                                              small_chunks,
                                                              formatter_popens):
        def fill(filled):
            for stop in range(1000, 5000, 1000):
                filled(stop)
            raise NonFiniteError("late chunk")

        with pytest.raises(NonFiniteError, match="late chunk"):
            write_table(tmp_path / "t.csv", self.HEADER, self.columns(5000), 5000, fill)
        assert not (tmp_path / "t.csv").exists()
        assert [proc.returncode is not None for proc in formatter_popens] == [True]

    @pytest.mark.parametrize("child", [False, True])
    def test_write_csv_bytes_are_pinned(self, tmp_path, monkeypatch, child):
        monkeypatch.setattr(data_module, "FORMAT_CHILD_MIN_ROWS",
                            0 if child else 10**9)
        monkeypatch.setattr(machine, "usable_cpus", lambda: 2)
        write_csv(tmp_path / "d.csv", fixed_dataset())
        digest = hashlib.sha256((tmp_path / "d.csv").read_bytes()).hexdigest()
        assert digest == FIXED_DATASET_SHA256

    def test_columns_of_unequal_length_rejected(self, tmp_path):
        with pytest.raises(ShapeError, match="equal length"):
            write_table(tmp_path / "t.csv", ["a", "b"], [np.zeros(3), np.zeros(4)], 3)


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

    @pytest.mark.parametrize("file, cut, held, declared", [
        ("imgs", -1, 1567, 1568), ("labs", -1, 1, 2), ("labs", 1, 3, 2),
    ], ids=["short-images", "short-labels", "long-labels"])
    def test_payload_of_another_size_names_both(self, tmp_path, file, cut, held,
                                                declared):
        images, labels = self.write_pair(tmp_path)
        path = tmp_path / file
        raw = path.read_bytes()
        path.write_bytes(raw[:cut] if cut < 0 else raw + bytes(cut))
        with pytest.raises(DataFormatError) as info:
            load_idx(images, labels)
        assert str(info.value) == (f"{path}: payload holds {held} bytes, "
                                   f"header declares {declared}")

    @pytest.mark.parametrize("file, size, field", [
        ("imgs", 6, "count"), ("imgs", 14, "cols"), ("labs", 7, "count")])
    def test_header_cut_in_a_size_field_names_it(self, tmp_path, file, size, field):
        images, labels = self.write_pair(tmp_path)
        path = tmp_path / file
        path.write_bytes(path.read_bytes()[:size])
        with pytest.raises(DataFormatError) as info:
            load_idx(images, labels)
        assert str(info.value) == f"{path}: truncated {field}"

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

    def test_header_sizes_checked_before_reading(self, tmp_path):
        # a read of the declared 2**63 bytes could neither be sized nor held
        path = tmp_path / "e.emb"
        path.write_bytes(EMBEDDINGS_MAGIC + struct.pack("<I", EMBEDDINGS_VERSION)
                         + struct.pack("<QQB", 2**40, 2**20, 0) + bytes(24))
        with pytest.raises(DataFormatError,
                           match=f"payload holds 24 bytes, header declares {2**63}"):
            load_embeddings(path)

    def test_labels_counted_in_declared_size(self, tmp_path):
        path = tmp_path / "e.emb"
        write_embeddings(path, Dataset(np.ones((2, 3)), class_ids=np.array([0, 1])))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataFormatError,
                           match="payload holds 56 bytes, header declares 64"):
            load_embeddings(path)

    def test_trailing_bytes_allowed(self, tmp_path):
        path = tmp_path / "e.emb"
        write_embeddings(path, Dataset(np.ones((2, 3))))
        path.write_bytes(path.read_bytes() + b"tail")
        assert load_embeddings(path).features.tobytes() == np.ones((2, 3)).tobytes()

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "e.emb"
        path.write_bytes(b"NOPE" + bytes(32))
        with pytest.raises(DataFormatError):
            load_embeddings(path)

    @pytest.mark.parametrize("cut", [2, 6, 12])
    def test_truncated_header_rejected(self, tmp_path, cut):
        path = tmp_path / "e.emb"
        write_embeddings(path, Dataset(np.ones((2, 3))))
        path.write_bytes(path.read_bytes()[:cut])
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
        with pytest.raises(ConfigError, match="0.999 of 90 rows leaves no training rows"):
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

    @pytest.mark.parametrize("classes", [[0.7], [0, 1.5], [float("nan")]])
    def test_fractional_normal_class_rejected(self, toy_classes, classes):
        with pytest.raises(ValueError, match=r"class\(es\) \[.*\] are not integers"):
            make_multimodal(toy_classes, classes, rng=np.random.default_rng(9))

    def test_integral_float_class_accepted(self, toy_classes):
        by_float = make_multimodal(toy_classes, [1.0], rng=np.random.default_rng(9))
        by_int = make_multimodal(toy_classes, [1], rng=np.random.default_rng(9))
        assert by_float[0].features.tobytes() == by_int[0].features.tobytes()

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
        a = split_train_val(ds, 0.2, RunRng(5).stream("s"))
        b = split_train_val(ds, 0.2, RunRng(5).stream("s"))
        np.testing.assert_array_equal(a[0].features, b[0].features)
        np.testing.assert_array_equal(a[1].features, b[1].features)
        assert a[1].n == 4

    @pytest.mark.parametrize("fraction, problem", [
        (0.9, "holdout fraction 0.9 of 4 rows leaves no training rows"),
        (0.0, r"holdout fraction must be in \(0,1\), got 0.0"),
        (1.0, r"holdout fraction must be in \(0,1\), got 1.0"),
    ])
    def test_bad_holdout_fraction_is_config_error(self, fraction, problem):
        # each split names the config key that sets its fraction
        ds = Dataset(np.zeros((5, 1)), labels=[0, 0, 0, 0, 1], class_ids=[0, 0, 1, 1, 1])
        splits = [
            ("eval.val_fraction",
             lambda rng: split_train_val(ds.take(np.arange(4)), fraction, rng)),
            ("dataset.test_fraction",
             lambda rng: split_labeled_benchmark(ds, fraction, rng)),
            ("dataset.test_fraction",
             lambda rng: make_multimodal(ds.take(np.arange(4)), [0],
                                         test_fraction=fraction, rng=rng))]
        for key, split in splits:
            with pytest.raises(ConfigError, match=f"^{key}: {problem}"):
                split(np.random.default_rng(0))

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("fraction", [0.1, 0.25, 0.5])
    def test_splits_cut_one_permutation(self, seed, fraction):
        # each split holds out the first max(1, round(n * fraction)) rows of
        # one rng.permutation(n), in permutation order
        def cut(n):
            order = np.random.default_rng(seed).permutation(n)
            k = max(1, int(round(n * fraction)))
            return order[:k], order[k:]

        def same(part, idx):
            return part.features.tobytes() == ds.features[idx].tobytes()

        rng = np.random.default_rng(100 + seed)
        ds = Dataset(rng.standard_normal((41, 3)), labels=np.arange(41) % 4 == 3,
                     class_ids=np.arange(41) % 3)
        held, kept = cut(ds.n)
        train, val = split_train_val(ds, fraction, np.random.default_rng(seed))
        assert same(train, kept) and same(val, held)
        np.testing.assert_array_equal(val.class_ids, ds.class_ids[held])

        normal, anomalous = np.flatnonzero(ds.labels == 0), np.flatnonzero(ds.labels)
        held, kept = cut(normal.size)
        train, test = split_labeled_benchmark(ds, fraction, np.random.default_rng(seed))
        test_idx = np.concatenate([normal[held], anomalous])
        assert same(train, normal[kept]) and same(test, test_idx)
        np.testing.assert_array_equal(test.labels, ds.labels[test_idx])

        held, kept = cut(ds.n)
        train, test = make_multimodal(ds, [0, 2], test_fraction=fraction,
                                      rng=np.random.default_rng(seed))
        kept = kept[ds.class_ids[kept] != 1]
        assert same(train, kept) and same(test, held)
        np.testing.assert_array_equal(train.class_ids, ds.class_ids[kept])
        np.testing.assert_array_equal(test.labels, ds.class_ids[held] == 1)

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method, column", [
        ("zscore", [1e300, -1e300]),  # the variance overflows
        ("zscore", [1.5e308, 1.5e308]),  # the mean's sum overflows
        ("minmax", [1e308, -1e308]),  # the range overflows
    ])
    def test_overflowing_column_named(self, method, column):
        x = np.column_stack([[0.0, 1.0], column])
        with pytest.raises(DataFormatError, match=rf"dataset 'big': column 1: "
                           rf"its {method} shift or scale overflows"):
            Normalizer(method).fit(Dataset(x, name="big"))

    @pytest.mark.parametrize("method", ["zscore", "minmax"])
    def test_finite_fit_keeps_its_bits(self, method):
        x = np.random.default_rng(2).standard_normal((50, 3)) * [1.0, 1e150, 1e-300]
        norm = Normalizer(method).fit(Dataset(x))
        if method == "zscore":
            shift, scale = x.mean(axis=0), x.std(axis=0)
        else:
            shift, scale = x.min(axis=0), x.max(axis=0) - x.min(axis=0)
        _, _, arrays = norm.to_container()
        assert arrays["shift"].tobytes() == shift.tobytes()
        assert arrays["scale"].tobytes() == np.where(scale > 0, scale, 1.0).tobytes()


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

    @pytest.mark.parametrize("kind", SYNTH_KINDS)
    def test_unknown_argument_rejected(self, kind):
        # a misspelt argument must not fall back silently to its default
        with pytest.raises(ValueError, match=f"unknown {kind} argument.*radus"):
            synth_generate(f"ring(n=20) + {kind}(n=20, radus=3)",
                           RunRng(0).stream("synth"))

    COUNT_ARGS = {"ring": ("n",), "gaussian-mixture": ("n", "k", "dim"),
                  "two-moons": ("n",), "box": ("n", "dim"),
                  "offplane": ("n", "anomalies", "dim", "latent")}

    def test_count_arguments_cover_every_kind(self):
        # a count is an argument whose default is an integer
        assert {kind: {key for key, value in defaults.items() if type(value) is int}
                for kind, (_, defaults) in SYNTH_KINDS.items()} == {
            kind: set(keys) for kind, keys in self.COUNT_ARGS.items()}

    @pytest.mark.parametrize("kind", SYNTH_KINDS)
    def test_generator_takes_exactly_the_default_arguments(self, kind):
        generator, defaults = SYNTH_KINDS[kind]
        rng, *names = inspect.signature(generator).parameters
        assert rng == "rng" and names == list(defaults)

    def test_argument_of_another_kind_is_unknown(self):
        with pytest.raises(ValueError) as info:
            synth_generate("ring(k=2.5)", RunRng(0).stream("synth"))
        assert str(info.value) == "unknown ring argument 'k' in 'ring(k=2.5)'"

    def test_every_part_is_parsed_before_any_is_generated(self, monkeypatch):
        calls = []
        generator, defaults = SYNTH_KINDS["ring"]
        monkeypatch.setitem(SYNTH_KINDS, "ring", (
            lambda *args, **kwargs: calls.append(1) or generator(*args, **kwargs),
            defaults))
        with pytest.raises(ValueError, match="unknown box argument 'radus'"):
            synth_generate("ring(n=20) + box(n=5, radus=1)", RunRng(0).stream("synth"))
        assert calls == []
        synth_generate("ring(n=20) + box(n=5)", RunRng(0).stream("synth"))
        assert calls == [1]

    @pytest.mark.parametrize("kind", SYNTH_KINDS)
    @pytest.mark.parametrize("args, problem", [
        ("n=20, n=30", "is repeated"),
        ("n=abc", "must be a number, got 'abc'"),
        ("n=", "must be a number, got ''"),
    ])
    def test_bad_argument_names_part_and_argument(self, kind, args, problem):
        with pytest.raises(ValueError) as info:
            synth_generate(f"ring(n=5) + {kind}({args})", RunRng(0).stream("synth"))
        assert str(info.value) == f"{kind} argument 'n' in '{kind}({args})' {problem}"

    @pytest.mark.parametrize("kind, key", [
        (kind, key) for kind, keys in COUNT_ARGS.items() for key in keys])
    @pytest.mark.parametrize("value", ["2.5", "-5", "-1e-300", "inf", "nan"])
    def test_count_must_be_a_non_negative_integer(self, kind, key, value):
        part = f"{kind}({key}={value})"
        with pytest.raises(ValueError) as info:
            synth_generate(part, RunRng(0).stream("synth"))
        assert str(info.value) == (f"{kind} argument {key!r} in {part!r} must be "
                                   f"a non-negative integer, got {value!r}")

    @pytest.mark.parametrize("kind", SYNTH_KINDS)
    def test_integer_valued_counts_accepted(self, kind):
        ds = synth_generate(f"{kind}(n=1e1)", RunRng(0).stream("synth"))
        assert (ds.labels == 0).sum() == 10 or kind == "box" and ds.n == 10

    def test_two_moons_and_mixture_generate(self):
        for spec, shape in [("two-moons(n=50, noise=0.1)", (50, 2)),
                            ("two-moons(n=51)", (51, 2)),
                            ("gaussian-mixture(n=50, k=2, dim=3)", (50, 3)),
                            ("gaussian-mixture(n=7, k=1, dim=1)", (7, 1))]:
            ds = synth_generate(spec, RunRng(2).stream("synth"))
            assert ds.features.shape == shape
            assert ds.labels.tolist() == [0] * shape[0]
            again = synth_generate(spec, RunRng(2).stream("synth"))
            other = synth_generate(spec, RunRng(3).stream("synth"))
            assert ds.features.tobytes() == again.features.tobytes()
            assert ds.features.tobytes() != other.features.tobytes()

    @pytest.mark.parametrize("args", ["k=0", "dim=0", "k=0, dim=0"])
    def test_mixture_needs_a_component_and_a_dimension(self, args, tmp_path, capsys):
        from cance.cli import main

        spec = f"gaussian-mixture(n=10, {args})"
        with pytest.raises(ValueError, match="gaussian-mixture needs k >= 1 and dim >= 1"):
            synth_generate(spec, RunRng(0).stream("synth"))
        assert main(["synth", "--spec", spec, "-o", str(tmp_path / "x.csv")]) == 1
        assert "needs k >= 1 and dim >= 1" in capsys.readouterr().err

    def test_box_needs_a_dimension(self, tmp_path, capsys):
        from cance.cli import main

        spec = "box(n=3, dim=0)"
        with pytest.raises(ValueError, match="box needs dim >= 1"):
            synth_generate(spec, RunRng(0).stream("synth"))
        out = tmp_path / "x.csv"
        assert main(["synth", "--spec", spec, "-o", str(out)]) == 1
        assert "box needs dim >= 1" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("attr", ["labels", "class_ids"])
    @pytest.mark.parametrize("value", [0.5, 1.7, np.nan, np.inf, 1e300])
    def test_non_integer_labels_rejected(self, attr, value):
        with pytest.raises(DataFormatError, match=attr):
            Dataset(np.zeros((2, 1)), **{attr: np.array([0.0, value])})

    def test_integer_valued_float_labels_allowed(self):
        ds = Dataset(np.zeros((2, 1)), labels=np.array([0.0, 1.0]),
                     class_ids=[3.0, -2.0])
        assert ds.labels.dtype == np.int64 and ds.class_ids.dtype == np.int64
        np.testing.assert_array_equal(ds.labels, [0, 1])
        np.testing.assert_array_equal(ds.class_ids, [3, -2])


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

    def test_row_without_label_column_cites_row(self, tmp_path):
        recipe = self.write_recipe(tmp_path)
        raw = tmp_path / "raw.csv"
        raw.write_text("A,0.5,1\nB,0.6\n")
        with pytest.raises(DataFormatError, match="row 2 has 2 columns"):
            load_recipe_dataset(recipe, raw)

    def test_ragged_kept_rows_cite_both_widths(self, tmp_path, capsys):
        from cance.cli import main

        recipe = self.write_recipe(tmp_path)
        raw = tmp_path / "raw.csv"
        # the first row is dropped (label 5), so its width does not count
        raw.write_text("A,0.5,5,7,7\nA,0.5,1\nB,0.6,9\nA,0.7,2,5\n")
        with pytest.raises(DataFormatError,
                           match="raw.csv: row 4 has 4 columns, row 2 has 3"):
            load_recipe_dataset(recipe, raw)
        assert main(["train", "-o", str(tmp_path / "out"),
                     "--set", "dataset.kind=recipe", "--set", f"dataset.path={raw}",
                     "--set", f"dataset.recipe={recipe}"]) == 2
        assert "row 4 has 4 columns, row 2 has 3" in capsys.readouterr().err

    def test_field_over_csv_limit_cites_file(self, tmp_path):
        recipe = self.write_recipe(tmp_path)
        raw = tmp_path / "raw.csv"
        raw.write_text("A,0.5,1\nB," + "9" * 140_000 + ",9\n")
        with pytest.raises(DataFormatError, match="raw.csv: line 2: field larger"):
            load_recipe_dataset(recipe, raw)

    def test_missing_label_column_rejected(self, tmp_path):
        recipe = tmp_path / "r.ini"
        recipe.write_text("[recipe]\nnormal_values = 1\nanomaly_values = 9\n")
        raw = tmp_path / "raw.csv"
        raw.write_text("0.5,1\n")
        with pytest.raises(DataFormatError, match="label_column"):
            load_recipe_dataset(recipe, raw)

    def test_undecodable_recipe_cites_file(self, tmp_path):
        recipe = self.write_recipe(tmp_path)
        recipe.write_bytes(recipe.read_bytes().replace(b"mini", b"m\xffni"))
        raw = tmp_path / "raw.csv"
        raw.write_text("A,0.5,1\n")
        with pytest.raises(DataFormatError,
                           match="cannot read recipe .*r.ini: .*can't decode byte 0xff"):
            load_recipe_dataset(recipe, raw)

    @pytest.mark.parametrize("entries, entry", [
        ({"label_column": "x"}, "label_column: cannot parse 'x'"),
        ({"normal_values": "1, $1"}, "normal_values: cannot parse '1, $1'"),
        ({"anomaly_values": "9, ?"}, "anomaly_values: cannot parse '9, ?'"),
        ({"[categorical]\n1": "a"}, "[categorical] 1: cannot parse 'a'"),
        ({"[categorical]\none": "A:0"}, "[categorical] one: cannot parse 'one'"),
        ({"[categorical]\n0": "A:zero"}, "[categorical] 0: cannot parse 'A:zero'"),
    ])
    def test_malformed_entry_cites_recipe_and_entry(self, tmp_path, capsys, entries,
                                                    entry):
        from cance.cli import main

        recipe = tmp_path / "r.ini"
        entries = {"label_column": "2", "normal_values": "1", "anomaly_values": "9",
                   **entries}
        recipe.write_text("[recipe]\n" + "".join(f"{k} = {v}\n"
                                                 for k, v in entries.items()))
        raw = tmp_path / "raw.csv"
        raw.write_text("A,0.5,1\n")
        with pytest.raises(DataFormatError, match=re.escape(f"r.ini: {entry}: ")):
            load_recipe_dataset(recipe, raw)
        assert main(["train", "-o", str(tmp_path / "out"),
                     "--set", "dataset.kind=recipe", "--set", f"dataset.path={raw}",
                     "--set", f"dataset.recipe={recipe}"]) == 2
        assert f"r.ini: {entry}: " in capsys.readouterr().err

    @pytest.mark.parametrize("column, rows, problem", [
        ("-1", "A,0.5,1\n", "column must be >= 0"),
        ("3", "0.4,0.5,1\n0.6,0.5,9\n", "no such column in 3-column rows"),
    ])
    def test_categorical_column_outside_the_rows_cites_recipe_entry(
            self, tmp_path, capsys, column, rows, problem):
        from cance.cli import main

        recipe = tmp_path / "r.ini"
        recipe.write_text("[recipe]\nlabel_column = 2\nnormal_values = 1\n"
                          f"anomaly_values = 9\n[categorical]\n{column} = A:0\n")
        raw = tmp_path / "raw.csv"
        raw.write_text(rows)
        entry = f"r.ini: [categorical] {column}: {problem}"
        with pytest.raises(DataFormatError, match=re.escape(entry)):
            load_recipe_dataset(recipe, raw)
        assert main(["train", "-o", str(tmp_path / "out"),
                     "--set", "dataset.kind=recipe", "--set", f"dataset.path={raw}",
                     "--set", f"dataset.recipe={recipe}"]) == 2
        assert entry in capsys.readouterr().err

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
