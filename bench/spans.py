"""Per-layer tracing for the benchmark's traced run.

Spans are recorded from the benchmark's own files: each public function
or method below is wrapped for the duration of the traced pass and
restored afterwards, so the program itself carries no tracing code.

A function is patched at every binding site, that is at every loaded
``cance`` module attribute that holds the same object (for example both
``cance.pipeline.train_estimator`` and ``cance.evaluation.train_estimator``).
A method is patched on its class. A span's self time is its duration minus
the time of the spans nested inside it.
"""

import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass


def _rows_arg(i):
    """Row count of positional argument ``i`` (``self`` is argument 0)."""
    return lambda args, kwargs, out: len(args[i])


def _rows_count_arg(i):
    return lambda args, kwargs, out: int(args[i])


def _rows_dataset_arg(i):
    return lambda args, kwargs, out: args[i].n


def _rows_out(args, kwargs, out):
    return len(out)


def _rows_out_dataset(args, kwargs, out):
    return out.n


# name, defining module, qualified attribute names, row counter (or None)
SPANS = (
    ("nn.dense.forward", "cance.nn.layers", ("DenseLayer.forward",), _rows_arg(1)),
    ("nn.dense.backward", "cance.nn.layers", ("DenseLayer.backward",), _rows_arg(1)),
    ("nn.batchnorm.forward", "cance.nn.layers", ("BatchNormLayer.forward",), _rows_arg(1)),
    ("nn.batchnorm.backward", "cance.nn.layers", ("BatchNormLayer.backward",), _rows_arg(1)),
    ("nn.adamw.step", "cance.nn.optim", ("AdamW.step",), None),
    ("nce.classifier_step", "cance.nce", ("nce_loss_and_grads",), None),
    ("nce.psi_step", "cance.nce", ("adnce_psi_grad",), None),
    ("nce.augment_batch", "cance.nce", ("augment_batch",), _rows_arg(0)),
    ("nce.validation", "cance.nce", ("nce_loss",), None),
    ("nce.train_estimator", "cance.nce", ("train_estimator",), None),
    ("nce.score", "cance.nce", ("EstimatorModel.score",), _rows_out),
    ("stats.gaussian.sample", "cance.stats", ("GaussianModel.sample",), _rows_count_arg(1)),
    ("stats.truncnorm.sample", "cance.stats", ("TruncatedNormalParams.sample",),
     _rows_count_arg(1)),
    ("stats.gaussian.logpdf", "cance.stats", ("GaussianModel.logpdf",), _rows_arg(1)),
    ("compress.train_autoencoder", "cance.compress", ("train_autoencoder",), None),
    ("compress.fit_pca", "cance.compress", ("fit_pca",), None),
    ("compress.composite", "cance.compress",
     ("AutoencoderModel.composite", "PcaModel.composite"), _rows_out),
    ("data.load_csv", "cance.data", ("load_csv",), _rows_out_dataset),
    ("data.synth_generate", "cance.data", ("synth_generate",), _rows_out_dataset),
    ("data.write_csv", "cance.data", ("write_csv",), _rows_dataset_arg(1)),
    ("data.normalizer.transform", "cance.data", ("Normalizer.transform",),
     _rows_out_dataset),
    ("cli.write_scores", "cance.cli", ("write_scores",), _rows_arg(1)),
    ("pipeline.run_pipeline", "cance.pipeline", ("run_pipeline",), None),
    ("pipeline.load_run", "cance.pipeline", ("load_run",), None),
    ("evaluation.run_ablation", "cance.evaluation", ("run_ablation",), None),
    ("evaluation.auroc", "cance.evaluation", ("auroc",), None),
)

SPAN_NAMES = tuple(name for name, *_ in SPANS)
HAS_ROWS = frozenset(name for name, _, _, rows in SPANS if rows is not None)


def per_layer_units() -> dict:
    """Metric name -> unit for every per-layer metric the traced run prints."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if name in HAS_ROWS:
            units[f"{name}.rows"] = "rows"
    units["trace.overhead"] = "ratio"
    units["trace.base_op_s"] = "s"
    return units


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    rows: int = 0


class Tracer:
    """Self time, call and row counts per span, kept in memory."""

    def __init__(self):
        self.stats = {name: SpanStats() for name in SPAN_NAMES}
        self._child_time = []

    def _wrap(self, name, fn, rows):
        stats = self.stats[name]
        child_time = self._child_time

        def traced(*args, **kwargs):
            child_time.append(0.0)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                nested = child_time.pop()
                if child_time:
                    child_time[-1] += elapsed
                stats.calls += 1
                stats.self_s += elapsed - nested
            if rows is not None:
                stats.rows += rows(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @contextmanager
    def installed(self):
        """Patch every span's binding sites; restore them on exit."""
        patches = []
        try:
            for name, module_name, attrs, rows in SPANS:
                module = importlib.import_module(module_name)
                for attr in attrs:
                    patches.extend(self._patch(name, module, attr, rows))
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def _patch(self, name, module, attr, rows):
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, self._wrap(name, original, rows))
            return [(cls, method, original)]
        original = getattr(module, attr)
        wrapper = self._wrap(name, original, rows)
        sites = []
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "cance" or mod_name.startswith("cance.")) \
                    and getattr(mod, attr, None) is original:
                sites.append((mod, attr, original))
                setattr(mod, attr, wrapper)
        return sites

    def metrics(self) -> dict:
        out = {}
        for name in SPAN_NAMES:
            s = self.stats[name]
            out[f"{name}.calls"] = s.calls
            out[f"{name}.self_s"] = s.self_s
            if name in HAS_ROWS:
                out[f"{name}.rows"] = s.rows
        return out
