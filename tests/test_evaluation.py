"""Metrics against brute-force oracles; experiment and ablation harness."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cance import machine, pipeline
from cance.config import load_config
from cance.errors import CanceError, DegenerateFeatureError, NonFiniteError
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
        with pytest.raises(DegenerateFeatureError):
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
        # the rate comes from the test labels, so one outside (0, 1) is a
        # caller's bug, not a config error
        for rate in (0.0, 1.0, -0.5):
            with pytest.raises(RuntimeError, match="contamination rate"):
                f1_at_contamination(ScoredSet([1.0], [1]), rate)

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

        original = evaluation_module.run_pipeline

        def flaky(config, seed, **kwargs):
            if seed == 0:
                raise NonFiniteError("synthetic failure")
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

    def test_one_composite_pass_per_row_set(self, monkeypatch):
        from cance.compress import PcaModel

        rows = []
        original = PcaModel.composite

        def counting(model, x, **kwargs):
            rows.append(len(x))
            return original(model, x, **kwargs)

        monkeypatch.setattr(PcaModel, "composite", counting)
        run_ablation(tiny_config(), repeats=1)
        # training, validation and test rows, one padded block each; the four
        # variants read the test composite that the seed's run holds
        assert rows == [pipeline.SCORE_BLOCK] * 3

    def test_variant_feature_dims(self, monkeypatch):
        dims = {}
        original = pipeline.train_estimator

        def recording(train_z, val_z, cfg, *rngs, **kwargs):
            dims[train_z.shape[1]] = dims.get(train_z.shape[1], 0) + 1
            return original(train_z, val_z, cfg, *rngs, **kwargs)

        monkeypatch.setattr(pipeline, "train_estimator", recording)
        run_ablation(tiny_config(), repeats=1)
        # LatNCE trains on latent dim 2; CNCE and CANCE on 2+2
        assert dims == {2: 1, 4: 2}


class TestAblationFanOut:
    def summary_text(self, reports):
        return json.dumps(
            {variant: report.summary() for variant, report in reports.items()},
            sort_keys=True,
        )

    def run_with_workers(self, monkeypatch, workers):
        monkeypatch.setattr(machine, "usable_cpus", lambda: workers)
        return run_ablation(tiny_config(), repeats=1)

    def test_summary_independent_of_worker_count(self, monkeypatch, reports):
        serial = self.run_with_workers(monkeypatch, 1)
        pooled = self.run_with_workers(monkeypatch, 2)
        assert self.summary_text(serial) == self.summary_text(pooled)
        assert self.summary_text(pooled) == self.summary_text(reports)

    @pytest.mark.skipif(not machine.openblas_config(),
                        reason="no fit takes a helper on an unpinned BLAS")
    def test_on_four_cpus_one_of_the_three_fits_takes_a_helper(self, monkeypatch,
                                                                reports):
        import cance.nce as nce_module

        # Error fits nothing and takes no CPU: the three fits' run holds two
        # of the three CPUs beside the caller's, and one fit takes the third
        started = []

        class Recording(machine.Helper):
            def __init__(self):
                super().__init__()
                started.append(self)

        monkeypatch.setattr(nce_module, "Helper", Recording)
        helped = self.run_with_workers(monkeypatch, 4)
        assert len(started) == 1 and machine._cpus_taken == 0
        assert self.summary_text(helped) == self.summary_text(reports)

    def test_failed_variant_leaves_the_others_complete(self, monkeypatch, pooled):
        original = pipeline.train_estimator

        def failing_cnce(train_z, val_z, cfg, *rngs):
            if train_z.shape[1] == 4 and not cfg.augmentation:
                raise NonFiniteError("synthetic CNCE failure")
            return original(train_z, val_z, cfg, *rngs)

        monkeypatch.setattr(pipeline, "train_estimator", failing_cnce)
        result = run_ablation(tiny_config(), repeats=1)
        assert result["CNCE"].partial
        assert "synthetic CNCE failure" in result["CNCE"].records[0].error
        assert not any(result[v].partial for v in ("Error", "LatNCE", "CANCE"))

    def test_without_blas_symbol_fits_run_one_at_a_time(self, monkeypatch,
                                                        reports):
        import threading

        monkeypatch.setattr(machine, "openblas_config", lambda: None)
        original = pipeline.train_estimator
        lock = threading.Lock()
        active = {"now": 0, "max": 0}

        def counting(*args):
            with lock:
                active["now"] += 1
                active["max"] = max(active["max"], active["now"])
            try:
                return original(*args)
            finally:
                with lock:
                    active["now"] -= 1

        monkeypatch.setattr(pipeline, "train_estimator", counting)
        result = self.run_with_workers(monkeypatch, 3)
        assert active["max"] == 1
        assert self.summary_text(result) == self.summary_text(reports)


@pytest.fixture
def pooled(monkeypatch):
    """Two workers, and a pinned OpenBLAS faked in `openblas_config`, so
    `run_jobs` pools on any platform."""
    monkeypatch.setattr(machine, "usable_cpus", lambda: 2)
    monkeypatch.setattr(machine, "openblas_config", lambda: "fake")


def sleep_jobs(count, seconds):
    """`count` jobs that sleep `seconds`, and the log each appends to at its
    start: (job, jobs running then, itself included)."""
    import threading
    import time

    lock, running, starts = threading.Lock(), [0], []

    def job(i):
        def run():
            with lock:
                running[0] += 1
                starts.append((i, running[0]))
            time.sleep(seconds)
            with lock:
                running[0] -= 1
        return run

    return [(i, job(i)) for i in range(count)], starts


class TestRunJobs:
    def test_three_jobs_on_two_workers_run_at_once(self, pooled):
        from cance.evaluation import run_jobs

        jobs, starts = sleep_jobs(3, 0.5)
        run_jobs(jobs)
        assert max(running for _, running in starts) == 3

    @pytest.mark.parametrize("count", [4, 20])
    def test_the_first_three_jobs_start_together(self, pooled, count):
        from cance.evaluation import run_jobs

        jobs, starts = sleep_jobs(count, 0.25)
        run_jobs(jobs)
        assert sorted(i for i, _ in starts) == list(range(count))
        assert max(running for _, running in starts) <= 3
        # the first three start together, before any job ends
        assert {i for i, _ in starts[:3]} == {0, 1, 2}
        assert [running for _, running in starts[:3]] == [1, 2, 3]

    def test_outcomes_come_back_in_job_order(self, pooled):
        import time

        from cance.evaluation import run_jobs

        def job(i):
            def run():
                time.sleep(0.02 * (4 - i))  # later jobs finish first
                return i * i
            return run

        outcomes = run_jobs((f"job{i}", job(i)) for i in range(5))
        assert list(outcomes.items()) == [(f"job{i}", i * i) for i in range(5)]

    def test_more_workers_than_cores_keep_job_order(self, pooled, monkeypatch):
        import sys
        from functools import partial

        from cance.evaluation import run_jobs

        monkeypatch.setattr(machine, "usable_cpus", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            outcomes = run_jobs((i, partial(sum, range(i))) for i in range(400))
        finally:
            sys.setswitchinterval(interval)
        assert list(outcomes.items()) == [(i, sum(range(i))) for i in range(400)]

    def test_package_error_is_the_jobs_outcome(self, pooled):
        from cance.evaluation import run_jobs

        def fail():
            raise NonFiniteError("synthetic")

        outcomes = run_jobs([("a", lambda: 1), ("b", fail), ("c", lambda: 3)])
        assert outcomes["a"] == 1 and outcomes["c"] == 3
        assert isinstance(outcomes["b"], CanceError)
        assert str(outcomes["b"]) == "synthetic"

    def test_other_error_cancels_pending_jobs_and_propagates(self, pooled):
        import threading
        import time

        from cance.evaluation import run_jobs

        lock = threading.Lock()
        started, finished = set(), set()

        def job(i):
            def run():
                with lock:
                    started.add(i)
                if i == 0:
                    raise TypeError("synthetic bug")
                time.sleep(0.05)
                with lock:
                    finished.add(i)
            return run

        with pytest.raises(TypeError, match="synthetic bug"):
            run_jobs((i, job(i)) for i in range(20))
        # the running jobs ended before the error left; the rest never began
        assert started - {0} == finished
        assert len(started) < 20

    def test_error_cancels_the_last_job_before_it_starts(self, pooled):
        import threading
        import time

        from cance.evaluation import run_jobs

        jobs, starts = sleep_jobs(5, 1.0)

        def fail():
            raise TypeError("synthetic bug")

        jobs[0] = (0, fail)
        before, raised = set(threading.enumerate()), []

        def call():
            try:
                run_jobs(jobs)
            except TypeError as exc:
                raised.append(exc)

        caller = threading.Thread(target=call, daemon=True)
        began = time.perf_counter()
        caller.start()
        caller.join(10)
        assert not caller.is_alive() and time.perf_counter() - began < 5
        assert len(raised) == 1
        # job 0's thread may take job 3 before the cancel; job 4 waits for
        # a job that sleeps past it
        assert 4 not in {i for i, _ in starts}
        assert set(threading.enumerate()) <= before

    def test_interrupted_wait_cancels_pending_jobs(self, pooled, monkeypatch):
        import time

        import cance.evaluation as evaluation_module
        from cance.evaluation import run_jobs

        started = []

        def interrupted(futures, return_when):
            time.sleep(0.01)
            raise KeyboardInterrupt

        def job(i):
            def run():
                started.append(i)
                time.sleep(0.05)
            return run

        monkeypatch.setattr(evaluation_module, "wait", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_jobs((i, job(i)) for i in range(20))
        assert len(started) < 20

    def test_one_worker_runs_in_the_calling_thread_unpinned(self, pooled,
                                                            monkeypatch):
        import threading

        from cance.evaluation import run_jobs

        monkeypatch.setattr(machine, "usable_cpus", lambda: 1)
        seen = run_jobs([(i, threading.current_thread) for i in range(3)])
        assert set(seen.values()) == {threading.current_thread()}


class TestProgrammingErrorsPropagate:
    def test_type_error_leaves_run_experiment(self, pooled, monkeypatch):
        import cance.evaluation as evaluation_module

        original = evaluation_module.run_pipeline

        def buggy(config, seed):
            if seed == 1:
                raise TypeError("synthetic bug")
            return original(config, seed)

        monkeypatch.setattr(evaluation_module, "run_pipeline", buggy)
        with pytest.raises(TypeError, match="synthetic bug"):
            run_experiment(tiny_config(), repeats=2)

    @pytest.mark.parametrize("stage", ["prepare_features", "train_estimator"])
    def test_type_error_leaves_run_ablation(self, pooled, monkeypatch, stage):
        import cance.evaluation as evaluation_module

        # each stage is patched where the ablation looks it up
        module = evaluation_module if stage == "prepare_features" else pipeline
        original = getattr(module, stage)

        def buggy(*args):
            if stage == "prepare_features" and args[1] == 1:
                raise TypeError("synthetic bug")
            if stage == "train_estimator" and args[2].augmentation:
                raise TypeError("synthetic bug")
            return original(*args)

        monkeypatch.setattr(module, stage, buggy)
        with pytest.raises(TypeError, match="synthetic bug"):
            run_ablation(tiny_config(), repeats=2)
