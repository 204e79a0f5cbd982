"""Objective, Adagrad, and training loop tests."""

import os
import tracemalloc

import numpy as np
import pytest

from cachedlstm import cells, training
from cachedlstm.autodiff import Tape, backward, softmax_rows
from cachedlstm.data import Document, build_vocab, make_batches, pad_batch, synth_needle
from cachedlstm.model import ModelConfig, build_model
from cachedlstm.training import (
    AdagradState,
    TrainConfig,
    TrainingDiverged,
    adagrad_update,
    fit,
    objective,
    train_epoch,
)


class TestObjective:
    def test_uniform_probabilities_give_log_c(self):
        tape = Tape()
        probs = tape.leaf(np.full((4, 5), 0.2))
        loss = objective(probs, np.array([0, 1, 2, 3]))
        assert loss.value[0, 0] == pytest.approx(np.log(5.0))

    def test_perfect_prediction_is_zero(self):
        tape = Tape()
        p = np.zeros((2, 3))
        p[0, 1] = 1.0
        p[1, 0] = 1.0
        loss = objective(tape.leaf(p), np.array([1, 0]))
        assert loss.value[0, 0] == 0.0

    def test_floor_prevents_infinity(self):
        tape = Tape()
        p = np.zeros((1, 2))
        p[0, 1] = 1.0
        loss = objective(tape.leaf(p), np.array([0]))
        assert loss.value[0, 0] == pytest.approx(-np.log(1e-12))

    def test_l2_term_value(self):
        tape = Tape()
        probs = tape.leaf(np.full((1, 2), 0.5))
        theta = tape.leaf(np.array([[3.0]]))
        loss = objective(probs, np.array([0]), [theta], weight_decay=2.0)
        assert loss.value[0, 0] == pytest.approx(np.log(2.0) + 9.0)

    def test_mean_over_batch(self):
        tape = Tape()
        p = np.array([[0.5, 0.5], [0.25, 0.75]])
        loss = objective(tape.leaf(p), np.array([0, 1]))
        want = -(np.log(0.5) + np.log(0.75)) / 2
        assert loss.value[0, 0] == pytest.approx(want)

    def test_rejects_bad_labels(self):
        tape = Tape()
        probs = tape.leaf(np.full((2, 3), 1 / 3))
        with pytest.raises(ValueError):
            objective(probs, np.array([0, 3]))
        with pytest.raises(ValueError):
            objective(probs, np.array([0]))

    def test_gradient_matches_softmax_identity(self):
        # d/dz of -log softmax(z)[gold] is (p - onehot); check through the
        # tape against the closed form.
        rng = np.random.default_rng(14)
        z_arr = rng.normal(size=(3, 4))
        gold = np.array([1, 3, 0])
        tape = Tape()
        z = tape.leaf(z_arr)
        loss = objective(softmax_rows(z), gold)
        grads = backward(tape, loss)
        p = np.exp(z_arr - z_arr.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        onehot = np.zeros_like(p)
        onehot[np.arange(3), gold] = 1.0
        np.testing.assert_allclose(grads[z.nid], (p - onehot) / 3, atol=1e-12)


class TestAdagrad:
    def test_first_step_closed_form(self):
        theta = np.array([[1.0]])
        acc = np.zeros((1, 1))
        adagrad_update(theta, np.array([[2.0]]), acc, lr=0.01)
        assert acc[0, 0] == 4.0
        assert theta[0, 0] == pytest.approx(1.0 - 0.01 * 2.0 / (2.0 + 1e-6))

    def test_accumulation_shrinks_steps(self):
        theta = np.zeros((1, 1))
        acc = np.zeros((1, 1))
        g = np.array([[1.0]])
        adagrad_update(theta, g, acc, lr=0.1)
        first = -theta[0, 0]
        before = theta[0, 0]
        adagrad_update(theta, g, acc, lr=0.1)
        second = before - theta[0, 0]
        assert 0 < second < first
        assert acc[0, 0] == 2.0

    def test_state_keyed_by_name(self):
        opt = AdagradState()
        a = np.zeros((2, 2))
        opt.update("a", a, np.ones((2, 2)), lr=0.1)
        opt.update("a", a, np.ones((2, 2)), lr=0.1)
        assert set(opt.accumulators) == {"a"}
        np.testing.assert_allclose(opt.accumulators["a"], 2.0)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(weight_decay=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(gradient_clip_norm=0.0)

    @pytest.mark.parametrize("name", ["learning_rate", "weight_decay", "gradient_clip_norm",
                                      "target_dev_acc"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_scalars_rejected(self, name, value):
        # NaN passes every range comparison; a NaN weight_decay used to drop the L2 term.
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            TrainConfig(**{name: value})


def _separable_docs(n=24):
    docs = []
    for i in range(n):
        tok = "good" if i % 2 == 0 else "bad"
        docs.append(Document(i % 2, [tok, f"filler{i % 5}"]))
    return docs


class TestTrainEpoch:
    def test_loss_decreases_on_separable_data(self):
        docs = _separable_docs()
        vocab = build_vocab(docs)
        model = build_model(ModelConfig(kind="cbow", d=8, C=2), vocab, seed=1)
        cfg = TrainConfig(learning_rate=0.1, batch_size=8, seed=0)
        opt = AdagradState()
        batches = make_batches(docs, vocab, 8, seed=0)
        first = train_epoch(model, batches, cfg, opt)
        for _ in range(8):
            last = train_epoch(model, batches, cfg, opt)
        assert last < first * 0.5

    def test_pad_row_never_moves(self):
        docs = _separable_docs()
        vocab = build_vocab(docs)
        model = build_model(ModelConfig(kind="lstm", d=4, H=5, C=2), vocab, seed=2)
        cfg = TrainConfig(learning_rate=0.05, batch_size=5, seed=0,
                          weight_decay=1e-3)
        opt = AdagradState()
        for _ in range(3):
            train_epoch(model, make_batches(docs, vocab, 5, seed=1), cfg, opt)
        assert (model.embedding.vectors[0] == 0.0).all()

    def test_untouched_rows_skip_weight_decay(self):
        # Only rows that appear in a batch should shrink under L2.
        docs = [Document(0, ["alpha"]), Document(1, ["beta"])]
        vocab = build_vocab(docs + [Document(0, ["ghost"])])
        model = build_model(ModelConfig(kind="cbow", d=4, C=2), vocab, seed=3)
        ghost_row = vocab.id_for("ghost")
        ghost_before = model.embedding.vectors[ghost_row].copy()
        alpha_row = vocab.id_for("alpha")
        cfg = TrainConfig(learning_rate=0.01, batch_size=2, seed=0,
                          weight_decay=0.5)
        train_epoch(model, make_batches(docs, vocab, 2, seed=0), cfg,
                    AdagradState())
        np.testing.assert_array_equal(model.embedding.vectors[ghost_row],
                                      ghost_before)
        assert (model.embedding.vectors[alpha_row] != 0.0).any()

    def test_frozen_embeddings_stay_put(self):
        docs = _separable_docs()
        vocab = build_vocab(docs)
        model = build_model(ModelConfig(kind="cbow", d=4, C=2), vocab, seed=4)
        model.embedding.trainable = False
        before = model.embedding.vectors.copy()
        cfg = TrainConfig(learning_rate=0.1, batch_size=6, seed=0)
        train_epoch(model, make_batches(docs, vocab, 6, seed=0), cfg,
                    AdagradState())
        np.testing.assert_array_equal(model.embedding.vectors, before)
        # the classifier still learned
        assert (model.clf.w != build_model(ModelConfig(kind="cbow", d=4, C=2),
                                           vocab, seed=4).clf.w).any()

    def test_divergence_aborts_with_batch_index(self):
        docs = _separable_docs(8)
        vocab = build_vocab(docs)
        model = build_model(ModelConfig(kind="cbow", d=4, C=2), vocab, seed=5)
        model.clf.w[:] = np.nan
        cfg = TrainConfig(learning_rate=0.1, batch_size=4, seed=0)
        with pytest.raises(TrainingDiverged, match="batch 0"):
            train_epoch(model, make_batches(docs, vocab, 4, seed=0), cfg,
                        AdagradState())

    def test_non_finite_dev_scores_abort_as_divergence(self):
        # Scoring dev with NaN weights is a diverged run (exit 3 in the
        # CLI), not bad input.
        docs = _separable_docs(8)
        vocab = build_vocab(docs)
        model = build_model(ModelConfig(kind="cbow", d=4, C=2), vocab, seed=5)
        model.clf.w[:] = np.nan
        cfg = TrainConfig(learning_rate=0.1, batch_size=4, seed=0)
        with pytest.raises(TrainingDiverged, match="non-finite"):
            fit(model, docs[:6], docs[6:], cfg)

    def test_gradient_clip_bounds_update(self):
        docs = _separable_docs(8)
        vocab = build_vocab(docs)
        cfg_clip = TrainConfig(learning_rate=0.5, batch_size=8, seed=0,
                               gradient_clip_norm=1e-4)
        model = build_model(ModelConfig(kind="cbow", d=4, C=2), vocab, seed=6)
        before = {n: t.copy() for n, t in model.named_tensors().items()}
        train_epoch(model, make_batches(docs, vocab, 8, seed=0), cfg_clip,
                    AdagradState())
        # With a tiny clip norm the Adagrad step is bounded by lr per entry,
        # and the total parameter movement stays tiny relative to unclipped.
        moved = sum(np.abs(model.named_tensors()[n] - before[n]).sum()
                    for n in before)
        model2 = build_model(ModelConfig(kind="cbow", d=4, C=2), vocab, seed=6)
        train_epoch(model2, make_batches(docs, vocab, 8, seed=0),
                    TrainConfig(learning_rate=0.5, batch_size=8, seed=0),
                    AdagradState())
        moved2 = sum(np.abs(model2.named_tensors()[n] - before[n]).sum()
                     for n in before)
        assert moved < moved2


class TestRowSparseTraining:
    """Row-sparse embedding updates against the all-rows dense Adagrad step."""

    @pytest.mark.parametrize("extra", [{"weight_decay": 1e-2},
                                       {"gradient_clip_norm": 0.05}])
    def test_matches_dense_gradient_reference(self, monkeypatch, extra):
        docs = _separable_docs(12)
        vocab = build_vocab(docs + [Document(0, [f"ghost{i}", "good"])
                                    for i in range(4)])
        config = ModelConfig(kind="lstm", d=4, H=5, C=2)
        cfg = TrainConfig(learning_rate=0.1, batch_size=4, seed=0, **extra)
        batches = make_batches(docs, vocab, 4, seed=3)
        start = build_model(config, vocab, seed=2).named_tensors()

        def run(densify):
            if densify:
                real = training.backward
                monkeypatch.setattr(training, "backward", lambda tape, loss: {
                    k: np.asarray(g) for k, g in real(tape, loss).items()})
            model = build_model(config, vocab, seed=2)
            opt = AdagradState()
            for _ in range(2):
                train_epoch(model, batches, cfg, opt)
            monkeypatch.undo()
            return model.named_tensors(), opt.accumulators

        sparse, sparse_acc = run(densify=False)
        dense, dense_acc = run(densify=True)
        for name in dense:
            scale = np.abs(dense[name]).max()
            assert np.abs(sparse[name] - dense[name]).max() <= 1e-12 * scale, name
        untouched = [vocab.id_for(f"ghost{i}") for i in range(4)]
        assert (sparse["embedding"][untouched].tobytes()
                == start["embedding"][untouched].tobytes())
        assert (sparse_acc["embedding"][untouched].tobytes()
                == dense_acc["embedding"][untouched].tobytes())
        assert (sparse_acc["embedding"][untouched] == 0.0).all()


def test_needle_step_memory_bound():
    # One bidirectional clstm training step at the needle shape (d=20, H=30,
    # K=3, B=32, T=200, V=505).  A recurrence node holds only its final
    # state, so backward builds no B x T*S gradient per direction, and its
    # VJP reads each step's input from the tape instead of a T x B x d copy
    # (d * 8 bytes per token position and direction).  Traced peaks: ~5,080
    # bytes per token position for nodes that hold every step's state,
    # ~4,130 for final-state nodes, ~3,600 with the weight gradients summed
    # step by step, and ~3,280 without the input copy.  The bound lies
    # between the last two.
    train, _ = synth_needle(40, 200, 3, seed=0)
    vocab = build_vocab(train)
    model = build_model(ModelConfig(kind="clstm", d=20, H=30, K=3, C=3, bidirectional=True),
                        vocab, seed=0)
    batch = pad_batch(train[:32], vocab)
    assert len(vocab) == 505 and batch.ids.shape == (32, 200)
    tracemalloc.start()
    try:
        train_epoch(model, [batch], TrainConfig(learning_rate=0.05), AdagradState())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3440 * batch.ids.size, f"traced peak {peak} bytes"


def _preset_batch(seed=0):
    # The preset shape: bidirectional clstm, d=50, H=120, K=3, B=128,
    # padded to T=100.
    rng = np.random.default_rng(seed)
    docs = [Document(int(rng.integers(10)), [f"w{i}" for i in rng.integers(0, 3000, n)])
            for n in rng.integers(1, 101, 128)]
    docs[0] = Document(0, [f"w{i}" for i in rng.integers(0, 3000, 100)])
    vocab = build_vocab(docs)
    model = build_model(ModelConfig(kind="clstm", d=50, H=120, K=3, C=10, bidirectional=True),
                        vocab, seed=0)
    batch = pad_batch(docs, vocab)
    assert batch.ids.shape == (128, 100) and not batch.uniform_length
    return model, batch


def test_preset_step_memory_bound():
    # One training step at the preset shape.  The VJP sums the weight
    # gradients step by step instead of copying the T x G*H x B activations
    # into one T*B x G*H matrix.  The bound lies between the traced peaks of
    # the two designs: ~16,340 bytes per token position with the copy,
    # ~14,650 without it (both directions' VJPs running at once).
    model, batch = _preset_batch()
    tracemalloc.start()
    try:
        train_epoch(model, [batch], TrainConfig(learning_rate=0.05, weight_decay=1e-4),
                    AdagradState())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 15500 * batch.ids.size, f"traced peak {peak} bytes"


def test_preset_training_is_deterministic_on_two_threads(monkeypatch):
    # The preset shape runs each direction on its own thread; criterion 8
    # runs at shapes that stay on one.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert 120 * 128 >= cells.THREAD_MIN_WORK
    runs = []
    for _ in range(2):
        model, batch = _preset_batch(seed=1)
        cfg = TrainConfig(learning_rate=0.05, weight_decay=1e-4)
        opt = AdagradState()
        losses = [train_epoch(model, [batch], cfg, opt) for _ in range(2)]
        runs.append((losses, {k: v.tobytes() for k, v in model.named_tensors().items()}))
    assert runs[0] == runs[1]


class TestFit:
    def test_deterministic_runs(self):
        docs = _separable_docs(20)
        dev = [Document(0, ["good", "extra"]), Document(1, ["bad", "extra"])]
        vocab = build_vocab(docs)

        def run():
            model = build_model(ModelConfig(kind="lstm", d=4, H=5, C=2),
                                vocab, seed=7)
            report = fit(model, docs, dev, TrainConfig(
                learning_rate=0.05, batch_size=4, max_epochs=3, seed=7))
            return model, report

        m1, r1 = run()
        m2, r2 = run()
        for name, t in m1.named_tensors().items():
            assert t.tobytes() == m2.named_tensors()[name].tobytes()
        assert [e.train_loss for e in r1.epochs] == [e.train_loss for e in r2.epochs]
        assert [e.dev_acc for e in r1.epochs] == [e.dev_acc for e in r2.epochs]

    def test_best_snapshot_restored(self):
        docs = _separable_docs(20)
        dev = [Document(0, ["good", "x"]), Document(1, ["bad", "x"])]
        vocab = build_vocab(docs)
        model = build_model(ModelConfig(kind="cbow", d=6, C=2), vocab, seed=8)
        report = fit(model, docs, dev, TrainConfig(
            learning_rate=0.2, batch_size=5, max_epochs=6, seed=1))
        # The held weights are exactly the recorded best snapshot.
        for name, t in model.named_tensors().items():
            assert t.tobytes() == report.best_tensors[name].tobytes()
        accs = [e.dev_acc for e in report.epochs]
        assert report.best_dev_acc == max(accs + [report.best_dev_acc])

    def test_early_stop_on_target(self):
        docs = _separable_docs(20)
        dev = [Document(0, ["good", "x"]), Document(1, ["bad", "x"])]
        vocab = build_vocab(docs)
        model = build_model(ModelConfig(kind="cbow", d=6, C=2), vocab, seed=9)
        report = fit(model, docs, dev, TrainConfig(
            learning_rate=0.3, batch_size=5, max_epochs=50, seed=1,
            target_dev_acc=1.0))
        assert len(report.epochs) < 50
        assert report.epochs[-1].dev_acc == 1.0

    def test_overlap_rejected(self):
        docs = _separable_docs(6)
        vocab = build_vocab(docs)
        model = build_model(ModelConfig(kind="cbow", d=4, C=2), vocab, seed=0)
        with pytest.raises(ValueError, match="overlap"):
            fit(model, docs, [docs[0]], TrainConfig(max_epochs=1))

    def test_zero_epochs_reports_initial_state(self):
        docs = _separable_docs(6)
        dev = [Document(0, ["good", "y"]), Document(1, ["bad", "y"])]
        vocab = build_vocab(docs)
        model = build_model(ModelConfig(kind="cbow", d=4, C=2), vocab, seed=0)
        before = {n: t.copy() for n, t in model.named_tensors().items()}
        report = fit(model, docs, dev, TrainConfig(max_epochs=0))
        assert report.epochs == []
        assert report.best_epoch == 0
        for name, t in model.named_tensors().items():
            assert t.tobytes() == before[name].tobytes()
