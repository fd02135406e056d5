"""Metrics against brute-force oracles; experiment and ablation harness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cance.config import load_config
from cance.evaluation import (
    ABLATION_VARIANTS,
    ScoredSet,
    auroc,
    f1_at_contamination,
    run_ablation,
    run_experiment,
)


def auroc_pair_counting(scores, labels):
    """O(n^2) oracle: wins + half ties over anomaly/normal pairs."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = sum(float(p > n) + 0.5 * float(p == n) for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def f1_confusion_oracle(scores, labels, rate):
    threshold = np.quantile(scores, 1 - rate)
    pred = scores > threshold
    tp = np.sum(pred & (labels == 1))
    fp = np.sum(pred & (labels == 0))
    fn = np.sum(~pred & (labels == 1))
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


class TestAuroc:
    def test_perfect_separation(self):
        scored = ScoredSet([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0])
        assert auroc(scored) == 1.0

    def test_all_ties_give_half(self):
        scored = ScoredSet([1.0] * 6, [1, 1, 0, 0, 0, 0])
        assert auroc(scored) == 0.5

    def test_one_win_one_loss(self):
        scored = ScoredSet([1.0, 3.0, 2.0], [0, 0, 1])
        assert auroc(scored) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auroc(ScoredSet([1.0, 2.0], [1, 1]))

    @given(st.integers(min_value=0, max_value=2**31 - 1),
           st.integers(min_value=2, max_value=30))
    @settings(max_examples=100, deadline=None)
    def test_matches_pair_counting_oracle(self, seed, n):
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, 6, n).astype(float)  # force ties
        labels = np.zeros(n, dtype=int)
        labels[rng.choice(n, max(1, n // 3), replace=False)] = 1
        if labels.sum() == n:
            labels[0] = 0
        scored = ScoredSet(scores, labels)
        assert auroc(scored) == pytest.approx(
            auroc_pair_counting(scores, labels), abs=1e-12
        )

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(1)
        scores = rng.standard_normal(100)
        labels = (rng.random(100) < 0.3).astype(int)
        scored = ScoredSet(scores, labels)
        warped = ScoredSet(np.exp(3 * scores) + 7, labels)
        assert auroc(scored) == pytest.approx(auroc(warped), abs=1e-12)

    def test_negation_complements_for_tie_free_scores(self):
        rng = np.random.default_rng(2)
        scores = rng.permutation(50).astype(float)
        labels = np.array([0] * 30 + [1] * 20)
        a = auroc(ScoredSet(scores, labels))
        b = auroc(ScoredSet(-scores, labels))
        assert a + b == pytest.approx(1.0, abs=1e-12)


class TestF1:
    def test_perfect_at_true_rate(self):
        scores = np.array([5.0, 4.0, 1.0, 0.5, 0.2, 0.1])
        labels = np.array([1, 1, 0, 0, 0, 0])
        assert f1_at_contamination(ScoredSet(scores, labels), 2 / 6) == 1.0

    def test_zero_true_positives_gives_zero(self):
        scores = np.array([1.0, 2.0, 3.0, 4.0])
        labels = np.array([1, 1, 0, 0])  # anomalies score lowest
        assert f1_at_contamination(ScoredSet(scores, labels), 0.5) == 0.0

    def test_hand_built_confusion_matrix_case(self):
        scores = np.array([9.0, 8.0, 7.0, 3.0, 2.0, 1.0])
        labels = np.array([1, 0, 1, 0, 1, 0])
        rate = 1 / 3
        got = f1_at_contamination(ScoredSet(scores, labels), rate)
        # threshold at the 2/3 quantile keeps the top two scores: one true
        # positive of three anomalies -> precision 1/2, recall 1/3
        assert got == pytest.approx(f1_confusion_oracle(scores, labels, rate))
        assert got == pytest.approx(2 * 0.5 * (1 / 3) / (0.5 + 1 / 3))

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            f1_at_contamination(ScoredSet([1.0], [1]), 0.0)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_matches_confusion_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = 40
        scores = rng.standard_normal(n)
        labels = (rng.random(n) < 0.25).astype(int)
        rate = 0.25
        got = f1_at_contamination(ScoredSet(scores, labels), rate)
        assert got == pytest.approx(f1_confusion_oracle(scores, labels, rate))

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(3)
        scores = rng.standard_normal(60)
        labels = (rng.random(60) < 0.3).astype(int)
        a = f1_at_contamination(ScoredSet(scores, labels), 0.3)
        b = f1_at_contamination(ScoredSet(np.tanh(scores) * 5, labels), 0.3)
        assert a == pytest.approx(b)


def tiny_config(**overrides):
    pairs = [
        "dataset.kind=synth",
        "dataset.synth=ring(n=220, radius=1, noise=0.05) + "
        "box(n=60, low=-2, high=2)",
        "dataset.name=tiny",
        "compress.method=pca",
        "compress.latent_dim=2",
        "nce.widths=16",
        "nce.epochs=4",
        "nce.lr=2e-3",
        "nce.batch_size=64",
        "eval.repeats=2",
        "eval.seed=0",
    ]
    pairs += [f"{k}={v}" for k, v in overrides.items()]
    return load_config(None, pairs)


class TestRunExperiment:
    def test_single_repeat_has_zero_std(self):
        report = run_experiment(tiny_config(), repeats=1)
        assert not report.partial
        assert report.std("auroc") == 0.0

    def test_identical_seeds_identical_reports(self):
        a = run_experiment(tiny_config(), repeats=2).summary()
        b = run_experiment(tiny_config(), repeats=2).summary()
        assert a == b

    def test_mean_std_consistent_with_per_run_values(self):
        report = run_experiment(tiny_config(), repeats=2)
        values = report.metric_values("auroc")
        assert report.mean("auroc") == pytest.approx(values.mean())
        assert report.std("auroc") == pytest.approx(values.std())
        assert report.seeds == [0, 1]

    def test_failures_mark_partial(self, monkeypatch):
        import cance.evaluation as evaluation_module

        calls = {"n": 0}
        original = evaluation_module.run_pipeline

        def flaky(config, seed, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("synthetic failure")
            return original(config, seed, **kwargs)

        monkeypatch.setattr(evaluation_module, "run_pipeline", flaky)
        report = run_experiment(tiny_config(), repeats=2)
        assert report.partial
        assert report.records[0].error
        assert not report.records[1].error


@pytest.fixture(scope="module")
def reports():
    return run_ablation(tiny_config(), repeats=1)


class TestRunAblation:
    def test_emits_exactly_four_variants(self, reports):
        assert tuple(reports) == ABLATION_VARIANTS

    def test_all_variants_have_metrics(self, reports):
        for variant, report in reports.items():
            assert not report.partial, variant
            assert 0.0 <= report.mean("auroc") <= 1.0

    def test_variants_share_one_compression_fit(self, monkeypatch):
        import cance.pipeline as pipeline_module

        count = {"fits": 0}
        original = pipeline_module.fit_compression

        def counting(config, train_x, val_x, rng):
            count["fits"] += 1
            return original(config, train_x, val_x, rng)

        monkeypatch.setattr(pipeline_module, "fit_compression", counting)
        run_ablation(tiny_config(), repeats=2)
        assert count["fits"] == 2  # one per seed, shared across variants

    def test_variant_feature_dims(self, monkeypatch):
        import cance.evaluation as evaluation_module

        dims = {}
        original = evaluation_module.train_estimator

        def recording(train_z, val_z, cfg, *rngs, **kwargs):
            dims[train_z.shape[1]] = dims.get(train_z.shape[1], 0) + 1
            return original(train_z, val_z, cfg, *rngs, **kwargs)

        monkeypatch.setattr(evaluation_module, "train_estimator", recording)
        run_ablation(tiny_config(), repeats=1)
        # LatNCE trains on latent dim 2; CNCE and CANCE on 2+2
        assert dims == {2: 1, 4: 2}
