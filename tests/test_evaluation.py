"""Metric, report, and sweep tests."""

import numpy as np
import pytest

from cachedlstm.data import Document, build_vocab, synth_needle
from cachedlstm.evaluation import (
    DecileReport,
    accuracy,
    convergence_log,
    evaluate,
    length_decile_report,
    length_deciles,
    mse,
)
from cachedlstm.model import ModelConfig, build_model
from cachedlstm.training import EpochStats, TrainConfig, TrainReport, fit, group_sweep


class TestMetrics:
    def test_known_values(self):
        assert accuracy([1, 2, 3], [1, 2, 4]) == pytest.approx(2.0 / 3.0)
        assert mse([1, 2, 3], [1, 2, 4]) == pytest.approx(1.0 / 3.0)

    def test_mse_offset_invariance(self):
        # Squared error on 0-based class indices equals squared error on the
        # 1-based rating scale.
        preds0 = np.array([0, 4, 2])
        gold0 = np.array([1, 1, 2])
        assert mse(preds0, gold0) == mse(preds0 + 1, gold0 + 1)

    def test_mse_extremes(self):
        assert mse([0] * 4, [4] * 4) == 16.0

    def test_perfect_and_empty(self):
        assert accuracy([1, 1], [1, 1]) == 1.0
        assert mse([3, 0], [3, 0]) == 0.0
        with pytest.raises(ValueError):
            accuracy([], [])
        with pytest.raises(ValueError):
            mse([1], [1, 2])


class TestConvergenceLog:
    def test_roundtrip_is_exact(self):
        stats = [
            EpochStats(1, 1.0986122886681098, 1 / 3, 2.6666666666666665, 0.73125),
            EpochStats(2, 0.9314718055994531, 0.5, 1.25, 0.6981),
        ]
        report = TrainReport(epochs=stats, best_epoch=2, best_dev_acc=0.5,
                             best_dev_mse=1.25, best_tensors={})
        lines = convergence_log(report).splitlines()
        assert lines[0] == "epoch,train_loss,dev_acc,dev_mse,seconds"
        back = []
        for line in lines[1:]:
            epoch, *floats = line.split(",")
            back.append(EpochStats(int(epoch), *map(float, floats)))
        assert back == stats


class TestDeciles:
    def test_21_docs_gives_one_bucket_of_three(self):
        sizes = [len(b) for b in length_deciles(np.arange(21))]
        assert sizes == [3] + [2] * 9
        assert max(sizes) - min(sizes) <= 1

    def test_exact_multiples(self):
        sizes = [len(b) for b in length_deciles(np.arange(40))]
        assert sizes == [4] * 10

    def test_buckets_ordered_by_length(self):
        rng = np.random.default_rng(3)
        lengths = rng.integers(1, 500, size=37)
        buckets = length_deciles(lengths)
        prev_max = -1
        for b in buckets:
            assert lengths[b].min() >= prev_max
            prev_max = lengths[b].max()

    def test_too_few_docs(self):
        with pytest.raises(ValueError, match="at least 10"):
            length_deciles(np.arange(9))

    @staticmethod
    def _reference_deciles(lengths):
        # Reference: bucket sizes counted out one by one.
        order = np.argsort(lengths, kind="stable")
        base, extra = divmod(len(lengths), 10)
        buckets, lo = [], 0
        for i in range(10):
            size = base + (1 if i < extra else 0)
            buckets.append(order[lo:lo + size])
            lo += size
        return buckets

    def test_matches_the_bucket_loop(self):
        rng = np.random.default_rng(11)
        cases = [np.arange(n) for n in range(10, 501)]
        cases += [rng.integers(1, 8, size=n) for n in rng.integers(10, 501, size=200)]
        for lengths in cases:
            got, want = length_deciles(lengths), self._reference_deciles(lengths)
            assert len(got) == 10
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)

    def test_report_over_model(self):
        docs = [Document(i % 2, ["tok"] * (i + 1)) for i in range(21)]
        vocab = build_vocab(docs)
        model = build_model(ModelConfig(kind="cbow", d=4, C=2), vocab, seed=0)
        report = length_decile_report(model, docs)
        assert len(report.buckets) == 10
        assert sum(b.n for b in report.buckets) == 21
        assert report.buckets[0].min_len == 1
        assert report.buckets[-1].max_len == 21
        csv = report.to_csv()
        assert csv.startswith("decile,min_len,max_len,n,accuracy\n")
        assert len(csv.strip().splitlines()) == 11


class TestEvaluate:
    def test_matches_manual_metrics(self):
        docs = [Document(i % 3, [f"w{i}", "c"]) for i in range(9)]
        vocab = build_vocab(docs)
        model = build_model(ModelConfig(kind="cbow", d=4, C=3), vocab, seed=1)
        m = evaluate(model, docs)
        preds = model.predict(docs)
        gold = np.array([d.label for d in docs])
        assert m.accuracy == accuracy(preds, gold)
        assert m.mse == mse(preds, gold)
        assert m.n == 9


class TestGroupSweep:
    def test_sweep_trains_each_k_and_skips_bad(self):
        train, dev = synth_needle(60, 12, 2, noise_vocab_size=20, seed=4)
        base = ModelConfig(kind="clstm", d=6, H=6, K=1, C=2)
        cfg = TrainConfig(learning_rate=0.05, batch_size=10, max_epochs=1, seed=2)
        report = group_sweep(base, [1, 2, 3, 4, 6], train, dev, cfg,
                             vocab=build_vocab(train))
        assert [e.n_groups for e in report.entries] == [1, 2, 3, 6]
        assert report.skipped == ((4, "H=6 not divisible by 4"),)
        for e in report.entries:
            assert 0.0 <= e.best_dev_acc <= 1.0
        csv = report.to_csv()
        assert csv.startswith("k,best_dev_acc")
        assert len(csv.strip().splitlines()) == 5

    def test_requires_clstm(self):
        with pytest.raises(ValueError, match="clstm"):
            group_sweep(ModelConfig(kind="lstm", d=4, H=6, C=2), [1],
                        [], [], TrainConfig(), vocab=build_vocab([]))

    def test_shared_embedding_not_mutated(self):
        from cachedlstm.data import init_embeddings

        train, dev = synth_needle(40, 12, 2, noise_vocab_size=10, seed=5)
        vocab = build_vocab(train)
        emb = init_embeddings(vocab, 6, seed=1)
        before = emb.vectors.copy()
        base = ModelConfig(kind="clstm", d=6, H=6, K=1, C=2)
        group_sweep(base, [1, 2], train, dev,
                    TrainConfig(learning_rate=0.05, batch_size=10,
                                max_epochs=1, seed=2),
                    vocab=vocab, embedding=emb)
        np.testing.assert_array_equal(emb.vectors, before)
