"""Dataset ingestion, benchmark construction, synthetic generators, and the
[dataset] config section that selects among them.

All splits and generators are deterministic given a seed; no statistic
computed on test rows ever reaches a fitted transform.
"""

import csv
import os
import re
import struct
import subprocess
import sys
import tempfile
import warnings
from collections import deque
from contextlib import ExitStack
from dataclasses import dataclass
from itertools import accumulate, chain, islice

import numpy as np

from cance import _rows
from cance.errors import ConfigError, DataFormatError, ShapeError
from cance.machine import spare_cpus
from cance.rng import RunRng

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
EMBEDDINGS_MAGIC = b"CEMB"
EMBEDDINGS_VERSION = 1
PARSE_BLOCK_ROWS = 1 << 14  # lines load_csv holds as text at a time
# a formatter child costs about 25 ms (14 of them to start) on 2 CPUs
FORMAT_CHILD_MIN_ROWS = 1 << 15
FORMAT_CHUNK_ROWS = 1 << 14  # a multiple of pipeline.SCORE_BLOCK: chunks end with a block


@dataclass
class Dataset:
    features: np.ndarray
    labels: np.ndarray | None = None
    class_ids: np.ndarray | None = None
    name: str = ""

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise ShapeError("features must be a 2-D matrix")
        if not np.all(np.isfinite(self.features)):
            raise DataFormatError(f"dataset {self.name!r} contains non-finite values")
        for attr in ("labels", "class_ids"):
            vec = getattr(self, attr)
            if vec is not None:
                vec = np.asarray(vec)
                if vec.dtype.kind == "f" and not np.all(_integral(vec)):
                    raise DataFormatError(
                        f"dataset {self.name!r}: {attr} must be integers"
                    )
                vec = vec.astype(np.int64, copy=False)
                if vec.shape != (self.features.shape[0],):
                    raise ShapeError(f"{attr} length != number of rows")
                setattr(self, attr, vec)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def take(self, idx: np.ndarray) -> "Dataset":
        return Dataset(
            self.features[idx],
            None if self.labels is None else self.labels[idx],
            None if self.class_ids is None else self.class_ids[idx],
            self.name,
        )


def _holdout(n: int, fraction: float, rng, key="dataset.test_fraction"):
    """(held-out, kept) row indices: the first max(1, round(n * fraction))
    entries of `rng.permutation(n)`, then the rest, which must not be empty.
    `key` names the config key of the fraction in the ConfigError."""
    if not 0.0 < fraction < 1.0:
        raise ConfigError(f"{key}: holdout fraction must be in (0,1), got {fraction}")
    order = rng.permutation(n)
    cut = max(1, int(round(n * fraction)))
    if cut >= n:
        raise ConfigError(f"{key}: holdout fraction {fraction} of {n} rows "
                          "leaves no training rows")
    return order[:cut], order[cut:]


def split_train_val(dataset: Dataset, val_fraction: float,
                    rng: np.random.Generator):
    """Deterministic partition into (train, val); val gets the stated fraction."""
    val, train = _holdout(dataset.n, val_fraction, rng, "eval.val_fraction")
    return dataset.take(train), dataset.take(val)


# --------------------------------------------------------------------------
# file formats


def _integral(values):
    """True where a float is an integer that int64 can hold."""
    return (np.trunc(values) == values) & (np.abs(values) < 2.0**63)


def csv_rows(path, reader, start=0):
    """The rows of `reader`, a `csv.reader` whose first line is line
    `start + 1` of `path`; a csv.Error (a field over the reader's size
    limit, say) or undecodable text raises DataFormatError naming `path`."""
    try:
        yield from reader
    except csv.Error as exc:
        raise DataFormatError(f"{path}: line {start + reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def _parse_cells(path, cells, columns, n_features, rows: range):
    """Data rows `rows` (0-based), one cell per column in turn, as a float64
    matrix. The first cell, in file order, that is not a number, or not an
    integer in a label or class column, raises DataFormatError."""
    try:
        values = np.fromiter(map(float, cells), np.float64, count=len(cells))
        values = values.reshape(len(rows), len(columns))
        if np.all(_integral(values[:, n_features:])):
            return values
    except ValueError:
        pass
    for k, raw in enumerate(cells):
        try:
            value = float(raw)
        except ValueError:
            problem = f"cannot parse {raw!r}"
        else:
            if k % len(columns) < n_features or _integral(value):
                continue
            problem = f"expected an integer, got {raw!r}"
        row, col = divmod(k, len(columns))
        raise DataFormatError(f"{path}: row {rows.start + row + 2}, "
                              f"column {columns[col]!r}: {problem}")
    raise AssertionError("the fast path rejected only valid cells")


def _numpy_rows(lines, width, positions, n_features):
    """Columns `positions` of `lines`, rows of `width` fields, parsed by
    numpy's C reader, or None where it and the rescan could disagree. It
    rejects more cells than `float` (quotes, `1_0`, non-ASCII digits), but
    it skips empty lines and reads any number in a label or class column
    (`positions[n_features:]`)."""
    if not lines[0].strip():
        return None  # numpy warns if it finds no row
    try:
        values = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if (values.shape == (len(lines), width)
            and np.all(_integral(values[:, positions[n_features:]]))):
        return values[:, positions]
    return None


def load_csv(path, label_column=None, class_column=None, ignore_columns=(),
             name=None) -> Dataset:
    """Read a numeric CSV with a header row.

    Column roles are given by name. Every other column is a feature, in file
    order, except those named in `ignore_columns`, which need not exist;
    names are compared after `str.strip`, as the header's are. A header
    followed only by lines that are empty after `str.strip` gives no rows.
    Non-numeric cells, and label or class cells that are not integers, are
    errors that cite the row and column; the first such cell in file order
    is reported. The lines after the header are parsed PARSE_BLOCK_ROWS at
    a time by numpy's C reader; a block it rejects is rescanned with `csv`
    and `float`, on past the block's end while a quoted field is open.
    Values are always those of `float`.
    """
    with open(path, newline="") as fh:
        head = csv.reader(fh)
        header = next(csv_rows(path, head), None)
        if header is None:
            raise DataFormatError(f"{path}: empty file")
        header = [h.strip() for h in header]
        if not any(header):
            raise DataFormatError(f"{path}: the header names no column")
        if len(set(header)) < len(header):
            repeated = next(h for i, h in enumerate(header) if h in header[:i])
            raise DataFormatError(f"{path}: column {repeated!r} appears twice")
        roles = [*filter(None, (label_column, class_column))]
        if missing := [col for col in roles if col not in header]:
            raise DataFormatError(f"{path}: missing column {missing[0]!r}")
        skip = {*roles, *map(str.strip, ignore_columns)}
        columns = [*(h for h in header if h not in skip), *roles]
        n_features = len(columns) - len(roles)
        positions = [header.index(c) for c in columns]
        blocks, first, line_num = [np.empty((0, len(columns)))], 0, head.line_num
        try:
            body = []  # the lines after the header up to the first that is not blank
            for line in fh:
                body.append(line)
                if line.strip():
                    break
            else:
                body = []
            lines = chain(body, fh)
            while block := [*islice(lines, PARSE_BLOCK_ROWS)]:
                values = _numpy_rows(block, len(header), positions, n_features)
                if values is None:
                    reader = csv.reader(chain(block, lines))
                    cells, n_rows = [], 0
                    for n_rows, row in enumerate(csv_rows(path, reader, line_num), 1):
                        if len(row) != len(header):
                            _parse_cells(path, cells, columns, n_features,
                                         range(first, first + n_rows - 1))
                            raise DataFormatError(
                                f"{path}: row {first + n_rows + 1} has {len(row)} "
                                f"fields, expected {len(header)}")
                        cells += [row[i] for i in positions]
                        if reader.line_num >= len(block):
                            break  # the last row that starts in this block
                    values = _parse_cells(path, cells, columns, n_features,
                                          range(first, first + n_rows))
                    line_num += reader.line_num - len(block)
                blocks.append(values)
                first, line_num = first + len(values), line_num + len(block)
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}: {exc}") from None
    values = np.concatenate(blocks)
    # Dataset takes the label and class columns as integers
    return Dataset(np.ascontiguousarray(values[:, :n_features]),
                   values[:, n_features] if label_column else None,
                   values[:, -1] if class_column else None, name or str(path))


class _Formatter:
    """A `_rows.py` child, stopped when `stack` closes, and its text file."""

    def __init__(self, stack, data):
        self.text = stack.enter_context(tempfile.TemporaryFile())
        self.chunks, self.acks = [], b""
        fds = (data.fileno(), self.text.fileno())
        self.proc = stack.enter_context(subprocess.Popen(
            [sys.executable, "-I", "-S", _rows.__file__, *map(str, fds)], bufsize=0,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            pass_fds=fds))
        stack.callback(self.proc.kill)
        os.set_blocking(self.proc.stdout.fileno(), False)

    def busy(self) -> bool:
        """Whether it holds two unacknowledged chunks or takes no more."""
        self.acks += self.proc.stdout.read() or b""
        return self.proc.stdin.closed or len(self.chunks) - self.acks.count(b"\n") > 1

    def send(self, data, columns, kinds, chunk):
        offset = data.tell()
        data.writelines(np.ascontiguousarray(col[chunk.start:chunk.stop], kind)
                        for col, kind in zip(columns, kinds) if col is not None)
        data.flush()
        self.chunks.append(chunk)
        try:
            self.proc.stdin.write(f"{offset} {len(chunk)} {kinds}\n".encode("ascii"))
        except OSError:  # it exited: this chunk goes unacknowledged
            self.proc.stdin.close()

    def finish(self) -> dict:
        """Wait for it to exit: {chunk start: (text file, offset, size)} of
        the chunks sent, or {} if it exited non-zero or its text does not
        hold one line per row of each chunk."""
        self.proc.stdin.close()
        os.set_blocking(self.proc.stdout.fileno(), True)
        acks = (self.acks + self.proc.stdout.read()).split()
        sizes = [int(ack) for ack in acks if ack.isdigit()]
        places = {chunk.start: (self.text, at, size) for chunk, at, size
                  in zip(self.chunks, accumulate(sizes, initial=0), sizes)
                  if len(text := os.pread(self.text.fileno(), size, at)) == size
                  and text.count(b"\n") == len(chunk)}
        ok = self.proc.wait() == 0 and len(places) == len(acks) == len(self.chunks)
        return places if ok else {}


def write_table(path, header, columns, n_rows, fill=None) -> None:
    """Write a CSV: the header, then a line per row of `columns`, each a
    float64 array (cells are the `repr` of each float), an int64 array or
    None (empty cells). `fill`, if given, fills the columns in row order and
    calls its argument with the number of rows filled so far.

    Rows are formatted in chunks of FORMAT_CHUNK_ROWS once filled. From
    FORMAT_CHILD_MIN_ROWS rows on, a `_rows.py` child per CPU that
    `spare_cpus` holds for the call takes up to two chunks at a time; the
    others wait, and once all are filled they are formatted here from the
    back. A child that cannot start, exits non-zero or returns the wrong
    line count has its chunks formatted here, so the bytes never depend on
    it. The file is opened last.
    """
    if any(col is not None and len(col) != n_rows for col in columns):
        raise ShapeError("table columns must have equal length")
    kinds = "".join("-" if col is None else "dq"[col.dtype.kind != "f"]
                    for col in columns)
    chunks = deque(range(start, min(start + FORMAT_CHUNK_ROWS, n_rows))
                   for start in range(0, n_rows, FORMAT_CHUNK_ROWS))
    places = {}  # chunk start -> (text file, offset, size)
    with ExitStack() as stack:
        data, own = (stack.enter_context(tempfile.TemporaryFile()) for _ in range(2))
        spare = stack.enter_context(
            spare_cpus(len(chunks) if n_rows >= FORMAT_CHILD_MIN_ROWS else 0))
        try:
            children = [_Formatter(stack, data) for _ in range(spare)]
        except OSError:  # the interpreter does not start
            children = []

        def filled(rows):
            for child in children:
                while chunks and chunks[0].stop <= rows and not child.busy():
                    child.send(data, columns, kinds, chunks.popleft())

        def format_here(chunk):
            text = "".join(_rows.text_blocks(columns, chunk)).encode("ascii")
            places[chunk.start] = (own, own.tell(), len(text))
            own.write(text)

        if fill:
            fill(filled)
        filled(n_rows)
        while chunks:
            format_here(chunks.pop())
            filled(n_rows)
        for child in children:
            done = child.finish()
            places.update(done)
            for chunk in [] if done else child.chunks:
                format_here(chunk)
        own.flush()
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerow(header)
            fh.flush()
            for text, offset, size in map(places.get, sorted(places)):
                fh.buffer.write(os.pread(text.fileno(), size, offset))


def write_csv(path, dataset: Dataset) -> None:
    """Write a dataset with full float round-trip precision: features f0,
    f1, ... as the `repr` of each float64, each label and class id its integer."""
    header = [f"f{i}" for i in range(dataset.dim)]
    columns = list(dataset.features.T)
    for name, ints in (("label", dataset.labels), ("class", dataset.class_ids)):
        if ints is not None:
            header.append(name)
            columns.append(ints)
    write_table(path, header, columns, dataset.n)


def _read_exact(fh, size, path, what) -> bytes:
    raw = fh.read(size)
    if len(raw) != size:
        raise DataFormatError(f"{path}: truncated {what}")
    return raw


def _read_be_u32(fh, path, what) -> int:
    return struct.unpack(">I", _read_exact(fh, 4, path, what))[0]


def load_idx(images_path, labels_path, name=None) -> Dataset:
    """Read big-endian IDX image/label pairs; pixels scaled to [0, 1]."""
    with open(images_path, "rb") as fh:
        magic = _read_be_u32(fh, images_path, "magic")
        if magic != IDX_IMAGES_MAGIC:
            raise DataFormatError(
                f"{images_path}: image magic {magic:#010x}, "
                f"expected {IDX_IMAGES_MAGIC:#010x}"
            )
        count = _read_be_u32(fh, images_path, "count")
        rows = _read_be_u32(fh, images_path, "rows")
        cols = _read_be_u32(fh, images_path, "cols")
        payload = fh.read()
    if len(payload) != count * rows * cols:
        raise DataFormatError(
            f"{images_path}: payload holds {len(payload)} bytes, header "
            f"declares {count * rows * cols}"
        )
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(count, rows * cols)
    with open(labels_path, "rb") as fh:
        magic = _read_be_u32(fh, labels_path, "magic")
        if magic != IDX_LABELS_MAGIC:
            raise DataFormatError(
                f"{labels_path}: label magic {magic:#010x}, "
                f"expected {IDX_LABELS_MAGIC:#010x}"
            )
        label_count = _read_be_u32(fh, labels_path, "count")
        label_payload = fh.read()
    if label_count != count:
        raise DataFormatError(
            f"label count {label_count} != image count {count}"
        )
    if len(label_payload) != label_count:
        raise DataFormatError(f"{labels_path}: truncated labels")
    return Dataset(
        pixels.astype(np.float64) / 255.0,
        class_ids=np.frombuffer(label_payload, dtype=np.uint8).astype(np.int64),
        name=name or str(images_path),
    )


def write_embeddings(path, dataset: Dataset) -> None:
    """Binary embedding container: header then little-endian float64 rows."""
    has_labels = dataset.class_ids is not None
    with open(path, "wb") as fh:
        fh.write(EMBEDDINGS_MAGIC)
        fh.write(struct.pack("<I", EMBEDDINGS_VERSION))
        fh.write(struct.pack("<QQB", dataset.n, dataset.dim, int(has_labels)))
        fh.write(np.ascontiguousarray(dataset.features, dtype="<f8").tobytes())
        if has_labels:
            fh.write(dataset.class_ids.astype("<i8").tobytes())


def load_embeddings(path, name=None) -> Dataset:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != EMBEDDINGS_MAGIC:
            raise DataFormatError(f"{path}: not an embedding container")
        version = struct.unpack("<I", _read_exact(fh, 4, path, "version"))[0]
        if version != EMBEDDINGS_VERSION:
            raise DataFormatError(f"{path}: embedding format version {version}")
        n, dim, has_labels = struct.unpack(
            "<QQB", _read_exact(fh, 17, path, "header")
        )
        # the sizes are checked against the file before a read allocates them
        declared = (n * dim + (n if has_labels else 0)) * 8
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if left < declared:
            raise DataFormatError(
                f"{path}: payload holds {left} bytes, header declares {declared}"
            )
        features = np.frombuffer(fh.read(n * dim * 8), dtype="<f8").reshape(n, dim)
        class_ids = None
        if has_labels:
            class_ids = np.frombuffer(fh.read(n * 8), dtype="<i8").astype(np.int64)
    return Dataset(features.astype(np.float64), class_ids=class_ids,
                   name=name or str(path))


# --------------------------------------------------------------------------
# benchmark construction


def make_multimodal(dataset: Dataset, normal_classes,
                    test_dataset: Dataset | None = None,
                    test_fraction: float = 0.2,
                    rng: np.random.Generator | None = None):
    """The given classes are normal, everything else an anomaly.

    With a separate `test_dataset`, its rows are labeled against the normal
    classes; otherwise `dataset` is deterministically partitioned and the
    train side is filtered to the normal classes. One normal class gives
    the unimodal benchmark.
    """
    fractional = [c for c in normal_classes if not _integral(float(c))]
    if fractional:
        raise ValueError(f"normal class(es) {fractional} are not integers")
    normal_classes = sorted(set(int(c) for c in normal_classes))
    if not normal_classes:
        raise ValueError("need at least one normal class")
    if dataset.class_ids is None:
        raise ShapeError("dataset has no class ids")
    present = set(np.unique(dataset.class_ids).tolist())
    missing = [c for c in normal_classes if c not in present]
    if missing:
        raise ValueError(f"class(es) {missing} absent from {dataset.name!r}")
    if set(present) <= set(normal_classes):
        warnings.warn(
            "every class is declared normal; test labels will be all-normal",
            stacklevel=2,
        )

    if test_dataset is None:
        if rng is None:
            raise ValueError("need an rng to partition a single dataset")
        test_part, train_part = map(dataset.take, _holdout(dataset.n, test_fraction, rng))
    else:
        if test_dataset.class_ids is None:
            raise ShapeError("test dataset has no class ids")
        train_part, test_part = dataset, test_dataset

    normal_mask = np.isin(train_part.class_ids, normal_classes)
    train = Dataset(train_part.features[normal_mask],
                    class_ids=train_part.class_ids[normal_mask], name=dataset.name)
    if train.n == 0:
        raise ValueError(f"no training rows in class(es) {normal_classes}")
    test = Dataset(
        test_part.features,
        labels=(~np.isin(test_part.class_ids, normal_classes)).astype(np.int64),
        class_ids=test_part.class_ids,
        name=dataset.name,
    )
    return train, test


# --------------------------------------------------------------------------
# normalization


class Normalizer:
    """Column transform (zscore or minmax) fitted on training rows only."""

    def __init__(self, method: str = "zscore"):
        if method not in ("zscore", "minmax"):
            raise ValueError(f"unknown normalization {method!r}")
        self.method = method
        self._shift = None
        self._scale = None

    def fit(self, dataset: Dataset) -> "Normalizer":
        x = dataset.features
        with np.errstate(over="ignore", invalid="ignore"):
            if self.method == "zscore":
                shift, scale = x.mean(axis=0), x.std(axis=0)
            else:
                shift, scale = x.min(axis=0), x.max(axis=0) - x.min(axis=0)
        bad = np.flatnonzero(~(np.isfinite(shift) & np.isfinite(scale)))
        if bad.size:
            raise DataFormatError(f"dataset {dataset.name!r}: column {bad[0]}: its "
                                  f"{self.method} shift or scale overflows float64")
        # constant columns are centered but not divided
        self._shift, self._scale = shift, np.where(scale > 0.0, scale, 1.0)
        return self

    def transform(self, dataset: Dataset) -> Dataset:
        if self._shift is None:
            raise RuntimeError("normalizer not fitted")
        return Dataset(
            (dataset.features - self._shift) / self._scale,
            dataset.labels,
            dataset.class_ids,
            dataset.name,
        )

    def to_container(self):
        arrays = {"shift": self._shift, "scale": self._scale}
        return "normalizer", {"method": self.method}, arrays

    @classmethod
    def from_container(cls, meta: dict, arrays: dict) -> "Normalizer":
        normalizer = cls(meta["method"])
        shift, scale = arrays["shift"], arrays["scale"]
        if shift.ndim != 1 or shift.shape != scale.shape:
            raise ValueError(
                f"shift {shift.shape} and scale {scale.shape} are not "
                "vectors of one length"
            )
        normalizer._shift, normalizer._scale = shift, scale
        return normalizer

    @property
    def dim(self) -> int:
        return self._shift.size


# --------------------------------------------------------------------------
# synthetic data

_PART_RE = re.compile(r"^\s*([a-z-]+)\s*(?:\(([^)]*)\))?\s*$")

SYNTH_KINDS = ("ring", "gaussian-mixture", "two-moons", "box", "offplane")
_COUNT_ARGS = ("n", "k", "dim", "latent", "anomalies")  # non-negative integers


def _parse_part(text: str):
    m = _PART_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse synthetic part {text!r}")
    kind, args = m.group(1), {}
    if kind not in SYNTH_KINDS:
        raise ValueError(
            f"unknown synthetic kind {kind!r}; expected one of {SYNTH_KINDS}"
        )
    for piece in filter(None, (m.group(2) or "").split(",")):
        if "=" not in piece:
            raise ValueError(f"bad argument {piece!r} in {text!r}")
        key, value = (t.strip() for t in piece.split("=", 1))
        where = f"{kind} argument {key!r} in {text.strip()!r}"
        if key in args:
            raise ValueError(f"{where} is repeated")
        try:
            args[key] = float(value)
        except ValueError:
            raise ValueError(f"{where} must be a number, got {value!r}") from None
        if key in _COUNT_ARGS and not (args[key] >= 0 and args[key].is_integer()):
            raise ValueError(f"{where} must be a non-negative integer, got {value!r}")
        if not np.isfinite(args[key]):
            raise ValueError(f"{where} must be a finite number, got {value!r}")
    return kind, args


def _gen_ring(args, rng):
    n = int(args.pop("n", 1000))
    radius = args.pop("radius", 1.0)
    noise = args.pop("noise", 0.05)
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    r = radius + noise * rng.standard_normal(n)
    x = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    return x, np.zeros(n, dtype=np.int64)


def _gen_gaussian_mixture(args, rng):
    n = int(args.pop("n", 1000))
    k = int(args.pop("k", 3))
    dim = int(args.pop("dim", 2))
    spread = args.pop("spread", 3.0)
    std = args.pop("std", 0.5)
    if k < 1 or dim < 1:
        raise ValueError("gaussian-mixture needs k >= 1 and dim >= 1")
    centers = rng.uniform(-spread, spread, size=(k, dim))
    which = rng.integers(0, k, n)
    x = centers[which] + std * rng.standard_normal((n, dim))
    return x, np.zeros(n, dtype=np.int64)


def _gen_two_moons(args, rng):
    n = int(args.pop("n", 1000))
    noise = args.pop("noise", 0.05)
    n1 = n // 2
    t1 = rng.uniform(0.0, np.pi, n1)
    t2 = rng.uniform(0.0, np.pi, n - n1)
    upper = np.column_stack([np.cos(t1), np.sin(t1)])
    lower = np.column_stack([1.0 - np.cos(t2), 0.5 - np.sin(t2)])
    x = np.vstack([upper, lower]) + noise * rng.standard_normal((n, 2))
    return x, np.zeros(n, dtype=np.int64)


def _gen_box(args, rng):
    n = int(args.pop("n", 200))
    low = args.pop("low", -1.5)
    high = args.pop("high", 1.5)
    dim = int(args.pop("dim", 2))
    if high <= low:
        raise ValueError("box needs high > low")
    if dim < 1:
        raise ValueError("box needs dim >= 1")
    x = rng.uniform(low, high, size=(n, dim))
    return x, np.ones(n, dtype=np.int64)


def _gen_offplane(args, rng):
    """Points near a low-dimensional affine subspace, plus anomalies that
    share the in-plane distribution but carry an orthogonal offset."""
    n = int(args.pop("n", 1000))
    n_anom = int(args.pop("anomalies", 200))
    dim = int(args.pop("dim", 8))
    latent = int(args.pop("latent", 2))
    noise = args.pop("noise", 0.02)
    offset = args.pop("offset", 1.0)
    if latent >= dim:
        raise ValueError("offplane needs latent < dim")
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    plane, ortho = basis[:, :latent], basis[:, latent:]
    center = rng.uniform(-1.0, 1.0, dim)

    def embed(k, with_offset):
        z = rng.standard_normal((k, latent))
        x = center + z @ plane.T + noise * rng.standard_normal((k, dim))
        if with_offset:
            direction = rng.standard_normal((k, dim - latent))
            direction /= np.linalg.norm(direction, axis=1, keepdims=True)
            x = x + offset * direction @ ortho.T
        return x

    x = np.vstack([embed(n, False), embed(n_anom, True)])
    labels = np.concatenate(
        [np.zeros(n, dtype=np.int64), np.ones(n_anom, dtype=np.int64)]
    )
    return x, labels


_GENERATORS = {
    "ring": _gen_ring,
    "gaussian-mixture": _gen_gaussian_mixture,
    "two-moons": _gen_two_moons,
    "box": _gen_box,
    "offplane": _gen_offplane,
}


def synth_generate(spec: str, rng: np.random.Generator, name=None) -> Dataset:
    """Generate a labeled dataset from a spec like
    "ring(n=2000, radius=1, noise=0.05) + box(n=500, low=-1.5, high=1.5)".

    Parts after the first are forced to anomaly label 1.
    """
    if not spec.strip():
        raise ValueError("empty synthetic spec")
    features, labels = [], []
    for i, text in enumerate(spec.split("+")):
        kind, args = _parse_part(text)
        try:
            x, lab = _GENERATORS[kind](args, rng)  # pops the arguments it knows
        except OverflowError as exc:  # numpy's, e.g. a range past float64
            raise ValueError(f"{kind} in {text.strip()!r}: {exc}") from None
        if args:
            raise ValueError(f"unknown {kind} argument(s) {', '.join(args)} "
                             f"in {text.strip()!r}")
        if i > 0:
            lab = np.ones(len(lab), dtype=np.int64)
        features.append(x)
        labels.append(lab)
    dims = {f.shape[1] for f in features}
    if len(dims) != 1:
        raise ValueError(f"synthetic parts have mismatched dims {sorted(dims)}")
    return Dataset(
        np.vstack(features), labels=np.concatenate(labels),
        name=name or spec.replace(" ", ""),
    )


def load_recipe_dataset(recipe_path, data_path) -> Dataset:
    """Build a labeled tabular benchmark from a versioned recipe file.

    The recipe names the label column, the values that count as normal and
    as anomalous (all other rows are dropped), and optional categorical
    encodings per column index. The raw file is headerless CSV. An entry
    that does not parse raises DataFormatError naming it.
    """
    import configparser

    def read(entry, convert, text):
        try:
            return convert(text)
        except ValueError as exc:
            raise DataFormatError(
                f"{recipe_path}: {entry}: cannot parse {text!r}: {exc}") from None

    def numbers(text):
        return {float(v) for v in text.split(",") if v.strip()}

    def table(mapping):
        pairs = [pair.split(":") for pair in mapping.split(",")]
        return {token.strip(): float(value) for token, value in pairs}

    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(recipe_path) as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        raise DataFormatError(f"cannot read recipe {recipe_path}: {exc}") from exc
    if "recipe" not in parser:
        raise DataFormatError(f"{recipe_path}: missing [recipe] section")
    section = parser["recipe"]
    label_col = read("label_column", int, section.get("label_column", "-1"))
    if label_col < 0:
        raise DataFormatError(f"{recipe_path}: needs a label_column >= 0")
    normal, anomaly = (read(key, numbers, section.get(key, ""))
                       for key in ("normal_values", "anomaly_values"))
    if not normal or not anomaly:
        raise DataFormatError(f"{recipe_path}: needs normal and anomaly values")
    categorical = {}
    for col, mapping in parser.items("categorical") if "categorical" in parser else ():
        entry = f"[categorical] {col}"
        if (column := read(entry, int, col)) < 0:
            raise DataFormatError(f"{recipe_path}: {entry}: column must be >= 0")
        categorical[column] = read(entry, table, mapping)

    features, labels, first = [], [], None  # (columns, row) of the first kept row
    with open(data_path, newline="") as fh:
        for lineno, row in enumerate(csv_rows(data_path, csv.reader(fh)), start=1):
            if not row:
                continue
            values = []
            for col, raw in enumerate(row):
                raw = raw.strip()
                if col in categorical:
                    if raw not in categorical[col]:
                        raise DataFormatError(
                            f"{data_path}: row {lineno}, column {col}: "
                            f"unmapped category {raw!r}"
                        )
                    values.append(categorical[col][raw])
                    continue
                try:
                    values.append(float(raw))
                except ValueError:
                    raise DataFormatError(
                        f"{data_path}: row {lineno}, column {col}: "
                        f"cannot parse {raw!r}"
                    ) from None
            if label_col >= len(values):
                raise DataFormatError(
                    f"{data_path}: row {lineno} has {len(values)} columns, "
                    f"no label column {label_col}"
                )
            label_value = values[label_col]
            if label_value in normal:
                labels.append(0)
            elif label_value in anomaly:
                labels.append(1)
            else:
                continue
            first = first or (len(values), lineno)
            if len(values) != first[0]:
                raise DataFormatError(f"{data_path}: row {lineno} has {len(values)} "
                                      f"columns, row {first[1]} has {first[0]}")
            features.append(
                [v for c, v in enumerate(values) if c != label_col]
            )
    if not features:
        raise DataFormatError(f"{data_path}: no rows matched the recipe")
    if max(categorical, default=-1) >= first[0]:
        raise DataFormatError(f"{recipe_path}: [categorical] {max(categorical)}: no "
                              f"such column in {first[0]}-column rows")
    return Dataset(
        np.array(features, dtype=np.float64),
        labels=np.array(labels, dtype=np.int64),
        name=section.get("name", str(data_path)),
    )


def split_labeled_benchmark(dataset: Dataset, test_fraction: float,
                            rng: np.random.Generator):
    """Split a labeled set so training sees only normal rows.

    Test receives the stated fraction of the normal rows plus every
    anomaly; train gets the remaining normals.
    """
    if dataset.labels is None:
        raise ShapeError("benchmark split needs binary labels")
    normal_idx = np.flatnonzero(dataset.labels == 0)
    anom_idx = np.flatnonzero(dataset.labels == 1)
    if normal_idx.size == 0:
        raise ValueError("no normal rows to train on")
    test_normals, train_normals = _holdout(normal_idx.size, test_fraction, rng)
    test_idx = np.concatenate([normal_idx[test_normals], anom_idx])
    return dataset.take(normal_idx[train_normals]), dataset.take(test_idx)


# --------------------------------------------------------------------------
# the [dataset] config section

_IDX_FILES = ("train_images", "train_labels", "test_images", "test_labels")

# kind -> {benchmark mode the kind runs: config keys that pair requires}
DATASET_KINDS = {
    "synth": {"labels": ()},
    "recipe": {"labels": ("path", "recipe")},
    "csv": {
        "labels": ("path", "label_column"),
        "unimodal": ("path", "class_column", "normal_classes"),
        "multimodal": ("path", "class_column", "normal_classes"),
    },
    "idx": dict.fromkeys(("unimodal", "multimodal"), (*_IDX_FILES, "normal_classes")),
    "embeddings": dict.fromkeys(("unimodal", "multimodal"), ("path", "normal_classes")),
}


@dataclass
class DatasetConfig:
    """The [dataset] config section; `DATASET_KINDS` lists its kinds."""

    kind: str = "synth"
    name: str = ""
    synth: str = "ring(n=2000) + box(n=500)"
    path: str = ""
    recipe: str = ""
    label_column: str = ""
    class_column: str = ""
    train_images: str = ""
    train_labels: str = ""
    test_images: str = ""
    test_labels: str = ""
    benchmark: str = "labels"  # labels | unimodal | multimodal
    normal_classes: tuple = ()
    test_fraction: float = 0.2

    def validate(self):
        if self.kind not in DATASET_KINDS:
            raise ConfigError(f"dataset.kind: unknown kind {self.kind!r}; "
                              f"expected one of {', '.join(DATASET_KINDS)}")
        modes = DATASET_KINDS[self.kind]
        if self.benchmark not in modes:
            raise ConfigError(f"dataset.benchmark={self.benchmark} is not run on "
                              f"{self.kind} data, which takes {' or '.join(modes)}")
        for key in modes[self.benchmark]:
            if not getattr(self, key):
                raise ConfigError(f"dataset.{key} required for {self.kind} data "
                                  f"with benchmark={self.benchmark}")
        if not all(isinstance(c, (int, np.integer)) and not isinstance(c, bool)
                   for c in self.normal_classes):
            raise ConfigError(f"dataset.normal_classes: class ids must be integers, "
                              f"got {self.normal_classes!r}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError("dataset.test_fraction must be in (0,1)")


def load_benchmark(dc: DatasetConfig, rng: RunRng):
    """Return (train Dataset of normals only, labeled test Dataset)."""
    if dc.benchmark == "unimodal" and len(dc.normal_classes) > 1:
        raise ConfigError(
            "a single run takes one normal class; several unimodal classes "
            "are swept by evaluation.run_unimodal_sweep"
        )
    name = dc.name or None
    if dc.kind == "idx":
        train_ds = load_idx(dc.train_images, dc.train_labels, name=name)
        test_ds = load_idx(dc.test_images, dc.test_labels)
        return make_multimodal(train_ds, dc.normal_classes, test_dataset=test_ds)
    if dc.kind == "synth":
        full = synth_generate(dc.synth, rng.stream("synth"), name=name)
    elif dc.kind == "recipe":
        full = load_recipe_dataset(dc.recipe, dc.path)
    elif dc.kind == "csv":
        full = load_csv(dc.path, label_column=dc.label_column or None,
                        class_column=dc.class_column or None, name=name)
        if full.n == 0:
            raise DataFormatError(f"{dc.path}: no data rows")
    else:
        full = load_embeddings(dc.path, name=name)
    if dc.benchmark == "labels":
        return split_labeled_benchmark(full, dc.test_fraction,
                                       rng.stream("benchmark-split"))
    return make_multimodal(full, dc.normal_classes, test_fraction=dc.test_fraction,
                           rng=rng.stream("benchmark-split"))
