"""Command-line interface.

Subcommands: train, score, eval, ablate, synth, inspect. Exit codes:
0 success, 1 configuration error or other ValueError, 2 any other package
error or an OS error, 3 a report written with some fits failed by a
package error, 130 interrupted (Ctrl-C). Any other exception propagates.
"""

import argparse
import json
import logging
import os
import sys
from contextlib import contextmanager, suppress

import numpy as np

from cance import evaluation
from cance.config import RunConfig, load_config
from cance.data import (
    load_csv,
    load_embeddings,
    synth_generate,
    write_csv,
    write_table,
)
from cance.errors import CanceError, ConfigError, ModelFormatError
from cance.machine import blas_summary
from cance.pipeline import (REPORT_FILE, SCORE_BLOCK, load_run, run_pipeline, save_run,
                            score_blocks)
from cance.rng import RunRng

log = logging.getLogger(__name__)

OUTPUT_ROOT_ENV = "CANCE_OUTPUT_ROOT"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_PARTIAL = 3
EXIT_INTERRUPTED = 130  # the shell's code for SIGINT


def _resolve_outdir(explicit: str, config: RunConfig) -> str:
    if explicit:
        return explicit
    root = os.environ.get(OUTPUT_ROOT_ENV, "cance-runs")
    name = config.dataset.name or config.dataset.kind
    return os.path.join(root, f"{name}-{config.hash()}")


def write_scores(path, scores, z_e=None, z_c=None, fill=None) -> None:
    """Deterministic score CSV: id, z_e, z_c, score.

    Each float is written as the `repr` of its float64 (the shortest text
    that round-trips), and an absent z_e or z_c column as empty fields, so
    the same scores always give the same bytes. `fill`, if given, fills the
    columns while they are written (see `data.write_table`).
    """
    n = len(scores)
    columns = [None if v is None else np.asarray(v, dtype=np.float64)
               for v in (z_e, z_c, scores)]
    write_table(path, ["id", "z_e", "z_c", "score"], [np.arange(n), *columns], n,
                fill)


def cmd_train(args) -> int:
    config = load_config(args.config, args.set or ())
    outdir = _resolve_outdir(args.outdir, config)
    artifacts = run_pipeline(config, config.eval.seed)
    save_run(outdir, config, artifacts)
    est = artifacts.estimator_history
    print(f"artifacts written to {outdir}")
    print(f"config hash      {artifacts.config_hash}")
    comp = artifacts.compression_history
    if comp.get("method") == "ae":
        # the loss of each stage's kept checkpoint; "-" if it kept no epoch
        print("ae val loss      " + "  ".join(
            f"{stage} {'-' if i is None else format(comp[stage + '_val'][i], '.6g')}"
            for stage, i in comp["best_epoch"].items()))
    print(f"nce best val     {est['best_val_loss']:.6g}")
    return EXIT_OK


def cmd_score(args) -> int:
    compression, estimator, normalizer, _, _ = load_run(args.model_dir)
    ignore = [c for c in args.ignore_columns.split(",") if c.strip()]
    dataset = (load_embeddings(args.input) if args.input.endswith(".emb")
               else load_csv(args.input, ignore_columns=ignore))
    if dataset.dim != compression.input_dim:
        raise ConfigError(f"input has {dataset.dim} features, model expects "
                          f"{compression.input_dim}")
    if dataset.n == 0:
        write_scores(args.output, np.empty(0))
        print(f"0 rows scored -> {args.output}")
        return EXIT_OK
    print(f"scoring on {blas_summary()}; blocks of {SCORE_BLOCK} rows", file=sys.stderr)
    x, n = normalizer.transform(dataset).features, dataset.n
    del dataset  # the rows are held once, normalized
    z, scores = np.empty((n, 2)), np.empty(n)  # z_e and z_c; no latents
    # rows are scored while earlier ones are formatted
    write_scores(args.output, scores, z_e=z[:, 0], z_c=z[:, 1], fill=lambda filled:
                 score_blocks(compression, estimator, x, out=(z, scores),
                              on_block=filled))
    print(f"{n} rows scored -> {args.output}")
    return EXIT_OK


def _print_report(report_summary: dict) -> None:
    mean = report_summary["mean"]
    std = report_summary["std"]
    keys = sorted(mean)
    name = report_summary["name"]
    print(f"{name}: " + "  ".join(
        f"{k} {mean[k]:.4f} +/- {std[k]:.4f}" for k in keys
    ))


def _score_persister(outdir, prefix=""):
    def persist(seed, artifacts):
        z = artifacts.z_test
        write_scores(os.path.join(outdir, f"scores-{prefix}seed{seed}.csv"),
                     artifacts.test_scores, z_e=z[:, -2], z_c=z[:, -1])

    return persist


def _write_report(path, summary, reports) -> int:
    """Write a report's JSON; exit 3 if any run failed with a package error."""
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"report written to {path}")
    return EXIT_PARTIAL if any(r.partial for r in reports) else EXIT_OK


@contextmanager
def _output_dir(path):
    """Make a run's output directory up front, so a bad path fails before
    any fit; if the run raises, a directory this made is removed while empty."""
    made = not os.path.isdir(path)
    os.makedirs(path, exist_ok=True)
    try:
        yield path
    except BaseException:
        if made:
            with suppress(OSError):  # not empty
                os.rmdir(path)
        raise


def cmd_eval(args) -> int:
    config = load_config(args.config, args.set or ())
    with _output_dir(_resolve_outdir(args.outdir, config)) as outdir:
        path = os.path.join(outdir, "report.json")
        if config.dataset.sweep:
            reports = evaluation.run_unimodal_sweep(
                config,
                on_run_factory=lambda cls: _score_persister(outdir, f"class{cls}-"),
            )
            summary = {str(cls): r.summary() for cls, r in reports.items()}
            for cls in sorted(reports):
                _print_report(summary[str(cls)])
            aurocs = [r.mean("auroc") for r in reports.values()]
            print(f"average auroc over classes: {np.mean(aurocs):.4f}")
            return _write_report(path, summary, reports.values())
        report = evaluation.run_experiment(config, on_run=_score_persister(outdir))
        print(f"seeds: {', '.join(str(s) for s in report.seeds)}")
        summary = report.summary()
        _print_report(summary)
        return _write_report(path, summary, [report])


def cmd_ablate(args) -> int:
    config = load_config(args.config, args.set or ())
    with _output_dir(_resolve_outdir(args.outdir, config)) as outdir:
        reports = evaluation.run_ablation(config)
        summaries = {variant: r.summary() for variant, r in reports.items()}
        for variant in evaluation.ABLATION_VARIANTS:
            _print_report(summaries[variant])
        return _write_report(os.path.join(outdir, "ablation.json"), summaries,
                             reports.values())


def cmd_synth(args) -> int:
    if args.seed < 0:
        raise ConfigError("--seed must be >= 0")
    rng = RunRng(args.seed)
    dataset = synth_generate(args.spec, rng.stream("synth"))
    write_csv(args.output, dataset)
    anomalies = int(dataset.labels.sum()) if dataset.labels is not None else 0
    print(f"{dataset.n} rows ({anomalies} anomalies) -> {args.output}")
    return EXIT_OK


def cmd_inspect(args) -> int:
    compression, estimator, normalizer, config_hash, est_meta = load_run(
        args.model_dir
    )
    print(f"config hash      {config_hash}")
    print(f"compression      {type(compression).__name__} "
          f"{compression.input_dim} -> {compression.latent_dim}")
    print(f"normalization    {normalizer.method}")
    noise = estimator.noise
    with np.printoptions(precision=4, suppress=True):
        print(f"noise-sample ratio  {noise.nu}")
        print(f"noise mean       {noise.base.mean}")
        print(f"noise cov diag   {np.diag(noise.base.cov)}")
        print(f"K diagonal       {noise.k_diag()}")
    if est_meta.get("augmentation"):
        print(f"mode estimates   {est_meta['augmentation']}")
    report_path = os.path.join(args.model_dir, REPORT_FILE)
    if os.path.exists(report_path):
        try:
            with open(report_path) as fh:
                report = json.load(fh)
        except ValueError as exc:  # not UTF-8 text or not JSON
            raise ModelFormatError(f"{report_path}: {exc}") from None
        est = report.get("estimator", {}) if isinstance(report, dict) else None
        if not isinstance(est, dict):
            raise ModelFormatError(f"{report_path}: not a train report object")
        prop = est.get("augmentation_margins")
        if prop:
            print(f"augmentation margins  {prop}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cance",
        description="Anomaly detection by contrastive density estimation "
        "over compression features.",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p):
        p.add_argument("-c", "--config", help="INI config file")
        p.add_argument(
            "--set", action="append", metavar="SECTION.KEY=VALUE",
            help="override a config value",
        )
        p.add_argument("-o", "--outdir", default="", help="output directory")

    p = sub.add_parser("train", help="fit compression and estimator, persist")
    add_config_args(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", help="score rows with persisted models")
    p.add_argument("-m", "--model-dir", required=True)
    p.add_argument("-i", "--input", required=True, help="csv or .emb file")
    p.add_argument("-o", "--output", required=True, help="score csv to write")
    p.add_argument("--ignore-columns", default="label,class")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("eval", help="repeated-run experiment with a report")
    add_config_args(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="run the four-variant ablation")
    add_config_args(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("synth", help="generate a synthetic dataset csv")
    p.add_argument("--spec", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("inspect", help="print fitted model diagnostics")
    p.add_argument("-m", "--model-dir", required=True)
    p.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CanceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
