"""Objective, Adagrad, and training loop tests."""

import os
import tracemalloc

import numpy as np
import pytest

from cachedlstm import cells, training
from cachedlstm.autodiff import RowSparse, Tape, backward
from cachedlstm.data import Document, build_vocab, make_batches, pad_batch, synth_needle
from cachedlstm.model import ModelConfig, build_model
from cachedlstm.training import (
    AdagradState,
    TrainConfig,
    TrainingDiverged,
    adagrad_update,
    apply_weight_decay,
    fit,
    objective,
    train_epoch,
)
from tape_ops import softmax_rows


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
        # (decay/2)·Σθ² over the dense tensors and the given embedding rows
        # only; decay·θ added to each gradient, the embedding's penalty rows
        # listed before the batch's own.
        emb = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        tensors = {"embedding": emb, "w": np.array([[3.0]])}
        value, add_decay = apply_weight_decay(np.log(2.0), tensors, 2.0, rows=np.array([0, 2]))
        assert value == pytest.approx(np.log(2.0) + 9.0 + (1 + 4 + 25 + 36))
        grads = {"embedding": RowSparse([2, 1], [[0.5, 0.5], [0.25, 0.25]], emb.shape),
                 "w": np.array([[0.5]])}
        add_decay(grads)
        np.testing.assert_array_equal(grads["w"], [[6.5]])
        g = grads["embedding"]
        assert isinstance(g, RowSparse)
        np.testing.assert_array_equal(g.ids, [0, 2, 2, 1])
        np.testing.assert_array_equal(g.rows, [[2.0, 4.0], [10.0, 12.0], [0.5, 0.5],
                                               [0.25, 0.25]])

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

    def test_negative_seed_rejected_by_name(self):
        # numpy's own message for a negative seed names no parameter.
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            TrainConfig(seed=-1)


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
        ghost_row = vocab.ids(["ghost"])[0]
        ghost_before = model.embedding.vectors[ghost_row].copy()
        alpha_row = vocab.ids(["alpha"])[0]
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

    def test_overflowing_dev_scores_abort_as_divergence(self):
        # Products that overflow still give finite probabilities through the
        # squashing gates, so the overflow itself must abort the run.
        docs = _separable_docs(8)
        vocab = build_vocab(docs)
        model = build_model(ModelConfig(kind="lstm", d=4, H=4, C=2), vocab, seed=5)
        model.embedding.vectors[:] = 1.0
        model.cells[0].w[:] = 1e308
        with pytest.raises(TrainingDiverged, match="dev scoring failed: overflow"):
            fit(model, docs[:6], docs[6:], TrainConfig(batch_size=4))

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
        untouched = [vocab.ids([f"ghost{i}"])[0] for i in range(4)]
        assert (sparse["embedding"][untouched].tobytes()
                == start["embedding"][untouched].tobytes())
        assert (sparse_acc["embedding"][untouched].tobytes()
                == dense_acc["embedding"][untouched].tobytes())
        assert (sparse_acc["embedding"][untouched] == 0.0).all()


def _needle_peak(n_batches):
    """Traced peak per token position of one batch, over an epoch of n_batches.

    On two CPUs the helper process traces too, and its peak is added.
    """
    train, _ = synth_needle(40, 200, 3, seed=0)
    vocab = build_vocab(train)
    model = build_model(ModelConfig(kind="clstm", d=20, H=30, K=3, C=3, bidirectional=True),
                        vocab, seed=0)
    batch = pad_batch(train[:32], vocab)
    assert len(vocab) == 505 and batch.ids.shape == (32, 200)
    tracemalloc.start()
    try:
        train_epoch(model, [batch] * n_batches, TrainConfig(learning_rate=0.05),
                    AdagradState())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak + cells._helper_memory()[0]) / batch.ids.size


def test_needle_step_memory_bound():
    # One bidirectional clstm training step at the needle shape (d=20, H=30,
    # K=3, B=32, T=200, V=505).  A recurrence node holds only its final
    # state, so backward builds no B x T*S gradient per direction, and its
    # VJP gathers each step's input rows again instead of keeping a T x B x d
    # copy (d * 8 bytes per token position and direction).  Traced peaks: ~5,080
    # bytes per token position for nodes that hold every step's state,
    # ~4,130 for final-state nodes, ~3,600 with the weight gradients summed
    # step by step, ~3,280 without the input copy, ~3,258 with the batch
    # gathered once as a T x B x d input, ~3,098 with the kernel gathering
    # its own rows from the embedding, ~2,003 with a kernel that keeps only
    # each step's activations and carried c and rebuilds tanh(c') and the h
    # each step starts from in its VJP, and ~1,595 with one that keeps c
    # only every ceil(sqrt(T)) steps and rebuilds the rest.  Since the
    # second direction runs in a helper process on two CPUs, the figure is
    # this process's traced peak plus the helper's: ~824 + ~817 = ~1,641
    # (~1,579 with both directions here, on one CPU; each process holds its
    # own VJP temporaries at its peak).  With the encoders' runs from the
    # kernel's own zero state, no zero leaves, the VJP's scratch grown to
    # the widest step met so far and one representation node: ~796 + ~808
    # = ~1,604 (~1,537 on one CPU).  The bound lies just above.
    assert _needle_peak(1) < 1680


def test_epoch_frees_each_batch_before_the_next():
    # The second step may not start while the first one's tape, with the
    # kernel's per-step buffers, is still alive: an epoch that kept it
    # traced ~4,660-4,940 bytes per token position of one batch here.  Two
    # freed batches trace ~3,282 with a T x B x d input per batch, ~3,122
    # without one, ~2,026 with a kernel that keeps only activations and
    # carried c, ~1,619 with one that keeps c only every ceil(sqrt(T))
    # steps, ~848 + ~816 = ~1,664 here and in the helper process (~1,603
    # on one CPU), and ~820 + ~808 = ~1,628 (~1,562 on one CPU) with no
    # zero leaves, VJP scratch grown to the steps it meets and one
    # representation node.
    assert _needle_peak(2) < 1680


def _preset_batch(seed=0, n_steps=100):
    # The preset shape: bidirectional clstm, d=50, H=120, K=3, B=128,
    # padded to T=n_steps, with row lengths uniform in 1..n_steps.
    rng = np.random.default_rng(seed)
    docs = [Document(int(rng.integers(10)), [f"w{i}" for i in rng.integers(0, 3000, n)])
            for n in rng.integers(1, n_steps + 1, 128)]
    docs[0] = Document(0, [f"w{i}" for i in rng.integers(0, 3000, n_steps)])
    vocab = build_vocab(docs)
    model = build_model(ModelConfig(kind="clstm", d=50, H=120, K=3, C=10, bidirectional=True),
                        vocab, seed=0)
    batch = pad_batch(docs, vocab)
    assert batch.ids.shape == (128, n_steps) and not (batch.lengths == batch.n_steps).all()
    return model, batch


def _preset_peak(n_steps):
    """Traced peaks per padded position of one preset-shape training step.

    Returns (this process's, the helper process's): on one CPU no helper
    runs and the second is 0.  An untraced step on a model built apart runs
    first, so that what the first step of a process imports or caches
    lazily is not traced, and the peak does not depend on what ran before
    in the process.
    """
    cfg = TrainConfig(learning_rate=0.05, weight_decay=1e-4)
    warm_model, warm_batch = _preset_batch(n_steps=n_steps)
    train_epoch(warm_model, [warm_batch], cfg, AdagradState())
    del warm_model, warm_batch
    model, batch = _preset_batch(n_steps=n_steps)
    tracemalloc.start()
    try:
        train_epoch(model, [batch], cfg, AdagradState())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / batch.ids.size, cells._helper_memory()[0] / batch.ids.size


def test_preset_step_memory_bound():
    # One training step at the preset shape.  The peak sits where the
    # two-direction VJP starts and both directions' per-step history is
    # alive.  Traced peaks in bytes per token position: ~16,340 with the
    # T x G*H x B activations copied into one T*B x G*H matrix, ~14,650
    # with the weight gradients summed step by step, ~13,850 without a
    # stacked T x B x d copy of the inputs, ~13,839 with the batch gathered
    # once as a T x B x d input, ~13,439 with the kernel gathering its own
    # rows from the embedding, ~8,880 (~8,682 with the two directions on
    # one thread) with a kernel that keeps only each step's activations and
    # carried c, and ~4,990-5,050 (~4,810 on one thread) with a kernel that
    # runs each step on the rows real there, so that this batch, 48% padding,
    # keeps no history for its padded positions, ~4,560 with a kernel that
    # keeps c only every ceil(sqrt(T)) steps and rebuilds the rest in its
    # VJP, and ~4,060-4,085 (measured after an untraced warm-up step)
    # with weight decay applied in the update, so that the tape holds no
    # squared copies of the weights and no penalty gradients while the
    # kernel's VJP runs.  With the second direction in a helper process
    # instead of a thread: ~2,007 here + ~2,134 in the helper = ~4,141
    # (~3,598 on one CPU, where the two VJPs do not run at once), and
    # ~1,980 + ~2,111 = ~4,091 (~3,544) by the next measurement.  With the
    # encoders' runs from the kernel's own zero state (no zero leaves, no
    # initial-state columns or gradients), the VJP's segment buffer and
    # gate scratch grown to the widest step met so far, and one
    # representation node in place of the pair's five slice and
    # concatenation nodes: ~1,762 + ~2,092 = ~3,854 (~3,307 on one CPU).
    # Each process has its own bound, just above its figure, so that a
    # regression in one cannot hide behind a gain in the other.
    mine, helper = _preset_peak(100)
    if helper:
        assert mine < 1850, f"traced peak {mine:.0f} bytes per position here"
        assert helper < 2200, f"traced peak {helper:.0f} bytes per position in the helper"
    else:
        assert mine < 3450, f"traced peak {mine:.0f} bytes per position on one CPU"


def test_long_document_step_memory_bound():
    # The preset step above on 400-step documents, where the kernel's
    # history, not the rest of the step, sets the peak.  Traced peaks in
    # bytes per token position: ~4,219 with a kernel that keeps each step's
    # activations and carried c, ~3,473 with one that keeps c only every
    # ceil(sqrt(T)) = 20 steps, ~3,355 with weight decay applied in the
    # update instead of on the tape, ~1,651 here + ~1,707 in the helper
    # process = ~3,357 with the second direction there (~3,173 on one CPU;
    # ~1,638 + ~1,698 = ~3,336 and ~3,148 by the next measurement), and
    # ~1,564 + ~1,693 = ~3,257 (~3,069) with no zero leaves, VJP scratch
    # grown to the steps it meets and one representation node.
    peak = sum(_preset_peak(400))
    assert peak < 3380, f"traced peak {peak:.0f} bytes per position"


def test_preset_training_is_deterministic_on_two_processes(monkeypatch):
    # On two CPUs each batch's second direction runs in the helper process;
    # criterion 8 checks determinism at its own shapes.  Two such runs give
    # the same bits, and so does a run on one CPU, which runs both
    # directions here.
    runs = []
    for cpus in ({0, 1}, {0, 1}, {0}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        model, batch = _preset_batch(seed=1)
        cfg = TrainConfig(learning_rate=0.05, weight_decay=1e-4)
        opt = AdagradState()
        losses = [train_epoch(model, [batch], cfg, opt) for _ in range(2)]
        runs.append((losses, {k: v.tobytes() for k, v in model.named_tensors().items()}))
    assert runs[0] == runs[1] == runs[2]


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

    def test_overlap_check_holds_no_copy_of_train(self):
        # Keying every training document held ~9 B per training token here;
        # the check keys the dev set and scans train instead.
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(50)]
        train = [Document(i % 2, [words[j] for j in rng.integers(0, 50, size=200)])
                 for i in range(2000)]
        dev = [Document(0, ["w1", "w2"]), Document(1, ["w3"])]
        model = build_model(ModelConfig(kind="cbow", d=4, C=2), build_vocab(train), seed=0)
        tracemalloc.start()
        try:
            fit(model, train, dev, TrainConfig(max_epochs=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (2000 * 200) < 1.0

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
