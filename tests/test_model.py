"""Model assembly tests: config validation, tensor naming, prediction, and
gradient flow through the whole pipeline."""

import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from cachedlstm import cells
from cachedlstm.autodiff import Tape, backward, take_rows
from cachedlstm.cells import bind_params
from cachedlstm.data import Batch, Document, build_vocab, pad_batch
from cachedlstm.encoder import classify, doc_representation, encode_bidirectional
from cachedlstm.evaluation import evaluate, length_decile_report
from cachedlstm.model import DocModel, ModelConfig, build_model
from cachedlstm.schema import build_section
from cachedlstm.training import apply_weight_decay, objective


def _toy_vocab():
    return build_vocab([Document(0, [f"t{i}" for i in range(8)])])


class TestModelConfig:
    def test_cbow_rejects_groups_and_direction(self):
        with pytest.raises(ValueError, match="K"):
            ModelConfig(kind="cbow", d=4, K=2)
        with pytest.raises(ValueError, match="bidirectional"):
            ModelConfig(kind="cbow", d=4, bidirectional=True)

    def test_rep_width(self):
        assert ModelConfig(kind="cbow", d=7, C=3).rep_width == 7
        assert ModelConfig(kind="clstm", d=4, H=12, K=3, C=3).rep_width == 4
        assert ModelConfig(kind="clstm", d=4, H=12, K=3, C=3,
                           bidirectional=True).rep_width == 8
        assert ModelConfig(kind="lstm", d=4, H=9, C=2).rep_width == 9

    def test_dict_roundtrip(self):
        cfg = ModelConfig(kind="clstm", d=5, H=8, K=2, C=4,
                          bidirectional=True, use_bias=True)
        assert build_section(ModelConfig, dataclasses.asdict(cfg), "config") == cfg

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            ModelConfig(kind="clstm", d=4, H=10, K=3)


class TestDirections:
    @pytest.mark.parametrize("use_bias", [False, True])
    @pytest.mark.parametrize("kind,extra,bidirectional,want", [
        ("cbow", {}, False, ()),
        ("lstm", {"H": 4}, False, ("fwd.",)),
        ("clstm", {"H": 6, "K": 3}, True, ("fwd.", "bwd.")),
    ])
    def test_directions_order_the_cells(self, kind, extra, bidirectional, want, use_bias):
        cfg = ModelConfig(kind=kind, d=4, C=3, bidirectional=bidirectional,
                          use_bias=use_bias, **extra)
        assert cfg.directions == want
        v = _toy_vocab()
        parts = "wub" if use_bias else "wu"
        cell_names = [n for n in cfg.tensor_shapes(len(v)) if n[:4] in ("fwd.", "bwd.")]
        assert cell_names == [prefix + part for prefix in want for part in parts]
        model = build_model(cfg, v, seed=0)
        table = model.named_tensors()
        assert len(model.cells) == len(want)
        for prefix, cell in zip(want, model.cells):
            assert all(getattr(cell, part) is table[prefix + part] for part in parts)

    def test_directions_is_not_a_field(self):
        # A property, so a saved config (dataclasses.asdict) does not change.
        cfg = ModelConfig(kind="lstm", d=4, H=4, bidirectional=True)
        assert "directions" not in {f.name for f in dataclasses.fields(cfg)}
        assert "directions" not in dataclasses.asdict(cfg)


class TestBuildModel:
    def test_seed_determinism(self):
        v = _toy_vocab()
        cfg = ModelConfig(kind="clstm", d=4, H=6, K=2, C=3, bidirectional=True)
        a = build_model(cfg, v, seed=5)
        b = build_model(cfg, v, seed=5)
        for name, t in a.named_tensors().items():
            assert t.tobytes() == b.named_tensors()[name].tobytes()
        c = build_model(cfg, v, seed=6)
        assert any(t.tobytes() != c.named_tensors()[n].tobytes()
                   for n, t in a.named_tensors().items())

    def test_tensor_names(self):
        v = _toy_vocab()
        cfg = ModelConfig(kind="clstm", d=4, H=6, K=2, C=3, bidirectional=True)
        names = set(build_model(cfg, v, seed=0).named_tensors())
        assert "embedding" in names
        assert {"fwd.w", "fwd.u", "bwd.w", "bwd.u"} <= names
        assert "fwd.b" not in names  # biases are off by default
        assert "clf.w" in names and "clf.b" in names
        cbow_names = set(build_model(ModelConfig(kind="cbow", d=4, C=3),
                                     v, seed=0).named_tensors())
        assert cbow_names == {"embedding", "clf.w", "clf.b"}

    def test_set_named_tensors_roundtrip(self):
        v = _toy_vocab()
        cfg = ModelConfig(kind="lstm", d=3, H=4, C=2)
        a = build_model(cfg, v, seed=1)
        b = build_model(cfg, v, seed=2)
        b.set_named_tensors({n: t.copy() for n, t in a.named_tensors().items()})
        for name, t in a.named_tensors().items():
            assert t.tobytes() == b.named_tensors()[name].tobytes()

    def test_set_rejects_unknown_and_wrong_shape(self):
        v = _toy_vocab()
        model = build_model(ModelConfig(kind="cbow", d=3, C=2), v, seed=0)
        before = {n: t.copy() for n, t in model.named_tensors().items()}
        with pytest.raises(ValueError, match="unknown tensor 'nope'"):
            model.set_named_tensors({**before, "nope": np.zeros((1, 1))})
        with pytest.raises(ValueError, match=r"clf\.w has shape \(5, 5\)"):
            model.set_named_tensors({**before, "clf.w": np.zeros((5, 5))})
        with pytest.raises(ValueError, match=r"missing tensor clf\.b"):
            model.set_named_tensors({n: t for n, t in before.items() if n != "clf.b"})
        for name, t in model.named_tensors().items():
            assert t.tobytes() == before[name].tobytes()

    def test_classifier_width_checked(self):
        v = _toy_vocab()
        cfg = ModelConfig(kind="clstm", d=4, H=6, K=2, C=3)
        tensors = build_model(cfg, v, seed=0).named_tensors()
        with pytest.raises(ValueError, match="width"):
            DocModel(cfg, v, {**tensors, "clf.w": np.zeros((3, 7))}, True)


SCORING_KINDS = [("cbow", {}), ("rnn", {"H": 12}), ("lstm", {"H": 12}), ("cifg", {"H": 12}),
                 ("clstm", {"H": 12, "K": 1}), ("clstm", {"H": 12, "K": 2}),
                 ("clstm", {"H": 12, "K": 3})]
SCORING_CASES = [(kind, extra, bidirectional) for kind, extra in SCORING_KINDS
                 for bidirectional in ((False,) if kind == "cbow" else (False, True))]


class TestPartsMatchConfig:
    """``DocModel`` holds exactly the tensors ``ModelConfig.tensor_shapes`` lists."""

    @pytest.mark.parametrize("use_bias", [False, True])
    @pytest.mark.parametrize("kind,extra,bidirectional", SCORING_CASES)
    def test_table_lists_the_built_tensors_in_order(self, kind, extra, bidirectional,
                                                    use_bias):
        v = _toy_vocab()
        cfg = ModelConfig(kind=kind, d=4, C=3, bidirectional=bidirectional,
                          use_bias=use_bias, **extra)
        tensors = build_model(cfg, v, seed=0).named_tensors()
        assert [(name, t.shape) for name, t in tensors.items()] == list(
            cfg.tensor_shapes(len(v)).items())

    @staticmethod
    def _table(cfg):
        return build_model(cfg, _toy_vocab(), seed=0).named_tensors()

    def test_forward_cell_that_disagrees_is_rejected(self):
        cfg = ModelConfig(kind="lstm", d=4, H=4, C=3)
        biased = self._table(ModelConfig(kind="lstm", d=4, H=4, C=3, use_bias=True))
        with pytest.raises(ValueError, match="unknown tensor 'fwd.b'"):
            DocModel(cfg, _toy_vocab(), biased, True)

    def test_backward_cell_in_a_unidirectional_model_is_rejected(self):
        cfg = ModelConfig(kind="clstm", d=4, H=6, K=3, C=3)
        tensors = self._table(cfg)
        with pytest.raises(ValueError, match="unknown tensor 'bwd.w'"):
            DocModel(cfg, _toy_vocab(),
                     {**tensors, "bwd.w": tensors["fwd.w"], "bwd.u": tensors["fwd.u"]}, True)

    def test_missing_and_misshapen_tensors_are_named(self):
        cfg = ModelConfig(kind="lstm", d=4, H=4, C=3, bidirectional=True)
        tensors = self._table(cfg)
        v = _toy_vocab()
        with pytest.raises(ValueError, match="missing tensor bwd.w"):
            DocModel(cfg, v, {n: t for n, t in tensors.items() if not n.startswith("bwd.")},
                     True)
        with pytest.raises(ValueError, match="tensor embedding has shape .* vocabulary"):
            DocModel(cfg, build_vocab([Document(0, ["t0"])]), tensors, True)
        wider = self._table(ModelConfig(kind="lstm", d=4, H=5, C=3, bidirectional=True))
        with pytest.raises(ValueError, match="tensor bwd.w has shape"):
            DocModel(cfg, v, {**tensors, "bwd.w": wider["bwd.w"]}, True)

    def test_parts_are_views_of_the_table(self):
        cfg = ModelConfig(kind="clstm", d=4, H=6, K=3, C=3, bidirectional=True,
                          use_bias=True)
        model = build_model(cfg, _toy_vocab(), seed=0)
        table = model.named_tensors()
        assert model.embedding.vectors is table["embedding"]
        assert model.clf.w is table["clf.w"] and model.clf.b is table["clf.b"]
        assert len(model.cells) == 2
        for prefix, cell in zip(("fwd.", "bwd."), model.cells):
            for name in "wub":
                assert getattr(cell, name) is table[prefix + name]

    @pytest.mark.parametrize("use_bias", [False, True])
    @pytest.mark.parametrize("kind,extra,bidirectional", SCORING_CASES)
    def test_no_second_weight_store(self, kind, extra, bidirectional, use_bias):
        # Every array the model or one of its parts holds is a table array.
        cfg = ModelConfig(kind=kind, d=4, C=3, bidirectional=bidirectional,
                          use_bias=use_bias, **extra)
        model = build_model(cfg, _toy_vocab(), seed=0)
        table = list(model.named_tensors().values())

        def held(value):
            if dataclasses.is_dataclass(value):
                return [getattr(value, f.name) for f in dataclasses.fields(value)]
            if isinstance(value, dict):
                return list(value.values())
            if isinstance(value, tuple):  # the cells
                return [x for part in value for x in held(part)]
            return [value]

        arrays = [x for value in vars(model).values() for x in held(value)
                  if isinstance(x, np.ndarray)]
        # The table itself, then one view of each of its arrays.
        assert len(arrays) == 2 * len(table)
        assert all(any(x is t for t in table) for x in arrays)

    def test_table_is_kept_in_tensor_shapes_order(self):
        cfg = ModelConfig(kind="lstm", d=4, H=4, C=3, bidirectional=True, use_bias=True)
        v = _toy_vocab()
        tensors = self._table(cfg)
        model = DocModel(cfg, v, dict(reversed(tensors.items())), True)
        assert list(model.named_tensors()) == list(cfg.tensor_shapes(len(v)))

    @pytest.mark.parametrize("kind,extra,bidirectional", SCORING_CASES)
    def test_model_rebuilt_from_its_table_scores_the_same(self, kind, extra, bidirectional):
        v = _toy_vocab()
        m = _scoring_model(kind, extra, bidirectional, True, 4, v, seed=3)
        again = DocModel(m.config, m.vocab, m.named_tensors(), True)
        batch = pad_batch([Document(0, ["t0", "t1", "t2"]), Document(1, ["t3"])], v)
        assert again.probabilities(batch).tobytes() == m.probabilities(batch).tobytes()
        assert (again.forward_batch(Tape(), batch)[0].value.tobytes()
                == m.forward_batch(Tape(), batch)[0].value.tobytes())


class TestForwardAndPredict:
    def test_probability_rows_sum_to_one(self):
        v = _toy_vocab()
        for kind, extra in [("cbow", {}), ("rnn", {"H": 5}),
                            ("lstm", {"H": 5}), ("cifg", {"H": 5}),
                            ("clstm", {"H": 6, "K": 3})]:
            cfg = ModelConfig(kind=kind, d=4, C=3, **extra)
            model = build_model(cfg, v, seed=2)
            docs = [Document(0, ["t0", "t1", "t2"]), Document(1, ["t3"]),
                    Document(2, ["t4", "t5"])]
            probs, leaves = model.forward_batch(Tape(), pad_batch(docs, v))
            assert probs.shape == (3, 3)
            assert np.abs(probs.value.sum(axis=1) - 1.0).max() < 1e-12
            assert "embedding" in leaves

    @pytest.mark.parametrize("kind,extra,message", [
        ("cbow", {}, "cbow_encode: empty sequence"),
        ("clstm", {"H": 6, "K": 3}, "recurrence: empty sequence"),
        ("clstm", {"H": 6, "K": 3, "bidirectional": True}, "recurrence: empty sequence"),
    ])
    def test_batch_with_no_steps_is_rejected(self, kind, extra, message):
        # A 0-step batch has 0 x B ids, which each encoder rejects.
        model = build_model(ModelConfig(kind=kind, d=4, C=3, **extra), _toy_vocab(), seed=2)
        batch = Batch(ids=np.zeros((2, 0), dtype=np.int64), mask=np.zeros((2, 0)),
                      lengths=np.zeros(2, dtype=np.int64), labels=np.zeros(2, dtype=np.int64))
        with pytest.raises(ValueError, match=message):
            model.forward_batch(Tape(), batch)

    def test_predict_tie_goes_to_lower_index(self):
        v = _toy_vocab()
        model = build_model(ModelConfig(kind="cbow", d=3, C=4), v, seed=0)
        # Zero classifier makes every class equally likely for any input.
        model.clf.w[:] = 0.0
        model.clf.b[:] = 0.0
        preds = model.predict([Document(2, ["t0", "t1"]), Document(1, ["t2"])])
        assert (preds == 0).all()

    def test_predict_spans_batches(self):
        v = _toy_vocab()
        model = build_model(ModelConfig(kind="lstm", d=3, H=4, C=2), v, seed=3)
        docs = [Document(i % 2, [f"t{i % 8}", f"t{(i + 1) % 8}"]) for i in range(11)]
        small = model.predict(docs, batch_size=3)
        big = model.predict(docs, batch_size=64)
        np.testing.assert_array_equal(small, big)

    def test_padding_does_not_change_predictions(self):
        # The same document must score identically alone and inside a padded
        # batch; this is the user-facing consequence of mask neutrality.
        v = _toy_vocab()
        model = build_model(ModelConfig(kind="clstm", d=4, H=6, K=2, C=3),
                            v, seed=4)
        short = Document(0, ["t1", "t2"])
        longer = Document(1, [f"t{i % 8}" for i in range(9)])
        alone, _ = model.forward_batch(Tape(), pad_batch([short], v))
        together, _ = model.forward_batch(Tape(), pad_batch([short, longer], v))
        np.testing.assert_allclose(together.value[0], alone.value[0], atol=1e-12)

    def test_bidirectional_uses_backward_cell(self):
        v = _toy_vocab()
        cfg = ModelConfig(kind="lstm", d=3, H=4, C=2, bidirectional=True)
        model = build_model(cfg, v, seed=5)
        doc = Document(0, ["t0", "t1", "t2"])
        before, _ = model.forward_batch(Tape(), pad_batch([doc], v))
        model.cells[1].w_c[:] += 0.05
        after, _ = model.forward_batch(Tape(), pad_batch([doc], v))
        assert np.abs(before.value - after.value).max() > 0.0


def _scoring_model(kind, extra, bidirectional, use_bias, d, vocab, seed):
    cfg = ModelConfig(kind=kind, d=d, C=3, bidirectional=bidirectional,
                      use_bias=use_bias, **extra)
    model = build_model(cfg, vocab, seed=seed)
    # Weights well above their initial scale, so that a last-bit difference
    # anywhere in the recurrence reaches the probabilities.
    rng = np.random.default_rng(seed)
    model.embedding.vectors[:] = rng.normal(size=model.embedding.vectors.shape)
    for cell in model.cells:
        cell.w[:] = rng.uniform(-1.0, 1.0, cell.w.shape)
        cell.u[:] = rng.uniform(-1.0, 1.0, cell.u.shape)
        if cell.b is not None:
            cell.b[:] = rng.normal(scale=0.5, size=cell.b.shape)
    model.clf.w[:] = rng.normal(size=model.clf.w.shape)
    model.clf.b[:] = rng.normal(size=model.clf.b.shape)
    return model


class TestTapeFreeScoring:
    """``probabilities`` against the taped forward pass it replaced."""

    @pytest.mark.parametrize("padded", [False, True])
    @pytest.mark.parametrize("use_bias", [False, True])
    @pytest.mark.parametrize("kind,extra,bidirectional", SCORING_CASES)
    def test_bit_identical_to_taped_forward(self, kind, extra, bidirectional,
                                            use_bias, padded):
        v = _toy_vocab()
        model = _scoring_model(kind, extra, bidirectional, use_bias, 50, v, seed=6)
        lengths = [9, 2, 5, 1, 9] if padded else [9] * 5
        docs = [Document(i % 3, [f"t{(3 * i + j) % 9}" for j in range(n)])
                for i, n in enumerate(lengths)]
        batch = pad_batch(docs, v)
        assert (batch.lengths == batch.n_steps).all() != padded
        taped = model.forward_batch(Tape(), batch)[0].value
        np.testing.assert_array_equal(model.probabilities(batch), taped)

    @pytest.mark.parametrize("rows", [1, 3, 64, 128])
    def test_bit_identical_at_preset_width(self, rows):
        v = build_vocab([Document(0, [f"w{i}" for i in range(300)])])
        model = _scoring_model("clstm", {"H": 12, "K": 3}, True, True, 50, v, seed=7)
        rng = np.random.default_rng(rows)
        docs = [Document(0, [f"w{i}" for i in rng.integers(0, 320, rng.integers(1, 30))])
                for _ in range(rows)]
        batch = pad_batch(docs, v)
        taped = model.forward_batch(Tape(), batch)[0].value
        np.testing.assert_array_equal(model.probabilities(batch), taped)

    @pytest.mark.parametrize("d,H,rows,n_steps,padded", [
        (20, 30, 32, 200, False),  # the needle shape of criterion 6
        (50, 120, 128, 40, True),  # the preset shape
    ])
    def test_bit_identical_at_benchmark_shapes(self, d, H, rows, n_steps, padded):
        # OpenBLAS results depend on the call shape, so check these shapes.
        v = build_vocab([Document(0, [f"w{i}" for i in range(500)])])
        model = _scoring_model("clstm", {"H": H, "K": 3}, True, False, d, v, seed=9)
        rng = np.random.default_rng(rows)
        lengths = rng.integers(1, n_steps + 1, rows) if padded else np.full(rows, n_steps)
        docs = [Document(0, [f"w{i}" for i in rng.integers(0, 520, n)]) for n in lengths]
        batch = pad_batch(docs, v)
        assert batch.ids.shape == (rows, max(lengths))
        taped = model.forward_batch(Tape(), batch)[0].value
        np.testing.assert_array_equal(model.probabilities(batch), taped)

    def test_memory_does_not_grow_with_document_length(self):
        # B=64, T=200 at the preset shape.  The taped forward kept every
        # step's inputs, activations and tanh(c): ~160 MB here.  Scoring
        # keeps each direction's carried state, so its peak stays within a
        # few steps' working set of B x G*H doubles.  On two CPUs the
        # backward direction runs in the helper process, whose traced peak
        # (it also holds the batch's rows, ids and mask) counts too.
        B, T, d, H = 64, 200, 50, 120
        v = build_vocab([Document(0, [f"w{i}" for i in range(500)])])
        model = build_model(ModelConfig(kind="clstm", d=d, H=H, K=3, C=5,
                                        bidirectional=True), v, seed=0)
        rng = np.random.default_rng(0)
        lengths = np.where(np.arange(B) % 3 == 0, T // 2, T)
        mask = (np.arange(T)[None, :] < lengths[:, None]).astype(float)
        ids = rng.integers(1, len(v), size=(B, T)) * mask.astype(np.int64)
        batch = Batch(ids=ids, mask=mask, lengths=lengths,
                      labels=np.zeros(B, dtype=np.int64))
        tracemalloc.start()
        try:
            model.predict_batch(batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak + cells._helper_memory()[0] < 16 * B * 3 * H * 8

    @pytest.mark.parametrize("size", [0, -5])
    def test_batch_size_must_be_positive(self, size):
        v = _toy_vocab()
        model = build_model(ModelConfig(kind="lstm", d=3, H=4, C=2), v, seed=3)
        docs = [Document(0, ["t0", "t1"])]
        with pytest.raises(ValueError, match=f"batch_size must be >= 1, got {size}"):
            model.predict(docs, batch_size=size)
        with pytest.raises(ValueError, match="batch_size"):
            evaluate(model, docs, batch_size=size)
        with pytest.raises(ValueError, match="batch_size"):
            length_decile_report(model, docs * 10, batch_size=size)


# Mixed lengths with repeats; 13 documents, so no batch size above 1 divides it.
MIXED_LENGTHS = [7, 2, 9, 2, 5, 11, 1, 7, 3, 9, 2, 6, 4]
LENGTH_ORDER_CASES = [("clstm", {"H": 12, "K": 3}, True), ("lstm", {"H": 12}, False),
                      ("cbow", {}, False)]


def _mixed_corpus(lengths, seed=0):
    # Labels are the input positions, so a chunk's labels name its documents;
    # t8 and t9 are not in the toy vocabulary and score as unknown.
    rng = np.random.default_rng(seed)
    return [Document(i, [f"t{j}" for j in rng.integers(0, 10, n)])
            for i, n in enumerate(lengths)]


def _chunked_probabilities(model, docs, order, batch_size):
    """Probability rows in input order, scoring ``order`` batch_size at a time."""
    out = np.empty((len(docs), model.config.C))
    for lo in range(0, len(order), batch_size):
        chunk = order[lo:lo + batch_size]
        out[chunk] = model.probabilities(pad_batch([docs[i] for i in chunk], model.vocab))
    return out


def _padded_positions(lengths, batch_size):
    return sum(len(c) * max(c) for c in (lengths[lo:lo + batch_size]
                                         for lo in range(0, len(lengths), batch_size)))


class TestLengthOrderedPredict:
    """``predict`` scores in length order and answers in input order.

    A row's probabilities can differ in their last bits with its chunk: a
    padded chunk runs each step on the rows real there, so a row's products
    have widths set by its chunk-mates' lengths, and BLAS kernels compute
    the rows past the last full register tile of a product apart.
    Input-order scoring already varies that way with ``batch_size``.
    Unpadded chunks (``batch_size`` 1) are bit-identical.
    """

    @pytest.mark.parametrize("batch_size", [1, 3, 7, 13, 20])
    @pytest.mark.parametrize("kind,extra,bidirectional", LENGTH_ORDER_CASES)
    def test_same_as_input_order(self, kind, extra, bidirectional, batch_size):
        model = _scoring_model(kind, extra, bidirectional, True, 50, _toy_vocab(), seed=11)
        docs = _mixed_corpus(MIXED_LENGTHS)
        by_input = _chunked_probabilities(model, docs, list(range(len(docs))), batch_size)
        by_length = _chunked_probabilities(
            model, docs, sorted(range(len(docs)), key=lambda i: docs[i].length), batch_size)
        if batch_size == 1:
            assert by_length.tobytes() == by_input.tobytes()
        np.testing.assert_allclose(by_length, by_input, rtol=1e-14, atol=0)
        preds = model.predict(docs, batch_size=batch_size)
        assert preds.dtype == np.int64
        np.testing.assert_array_equal(preds, by_input.argmax(axis=1))
        assert len(set(preds.tolist())) > 1

    @pytest.mark.parametrize("n_docs", [128, 131])
    def test_full_chunks_agree_to_rtol_at_preset_shape(self, n_docs):
        # The review_eval job scores 128 documents in two full chunks of 64.
        # A padded row's step widths depend on its chunk-mates, so only its
        # last bits may change with the order.
        v = build_vocab([Document(0, [f"w{i}" for i in range(500)])])
        model = _scoring_model("clstm", {"H": 120, "K": 3}, True, True, 50, v, seed=12)
        rng = np.random.default_rng(12)
        docs = [Document(0, [f"w{i}" for i in rng.integers(0, 520, n)])
                for n in rng.integers(1, 30, n_docs)]
        order = sorted(range(n_docs), key=lambda i: docs[i].length)
        by_input = _chunked_probabilities(model, docs, list(range(n_docs)), 64)
        by_length = _chunked_probabilities(model, docs, order, 64)
        np.testing.assert_allclose(by_length, by_input, rtol=1e-14, atol=0)
        np.testing.assert_array_equal(model.predict(docs), by_input.argmax(axis=1))

    def test_no_documents(self):
        model = build_model(ModelConfig(kind="lstm", d=3, H=4, C=2), _toy_vocab(), seed=3)
        preds = model.predict([])
        assert preds.shape == (0,) and preds.dtype == np.int64

    @pytest.mark.parametrize("batch_size", [3, 4, 7])
    def test_chunks_are_length_ordered(self, monkeypatch, batch_size):
        # Guards the speed-up without a clock: the batches predict scores
        # must hold fewer padded positions than input-order chunks.
        model = build_model(ModelConfig(kind="lstm", d=3, H=4, C=2), _toy_vocab(), seed=3)
        docs = _mixed_corpus(MIXED_LENGTHS)
        scored = []
        predict_batch = DocModel.predict_batch

        def spy(self, batch):
            scored.append(batch)
            return predict_batch(self, batch)

        monkeypatch.setattr(DocModel, "predict_batch", spy)
        model.predict(docs, batch_size=batch_size)
        lengths = np.concatenate([b.lengths for b in scored])
        assert (np.diff(lengths) >= 0).all()
        # Stable: documents of equal length keep their input order.
        expect = sorted(range(len(docs)), key=lambda i: docs[i].length)
        assert np.concatenate([b.labels for b in scored]).tolist() == expect
        assert [b.size for b in scored] == [len(c) for c in np.array_split(
            expect, range(batch_size, len(docs), batch_size))]
        positions = sum(b.ids.size for b in scored)
        assert positions == _padded_positions(sorted(MIXED_LENGTHS), batch_size)
        assert positions < _padded_positions(MIXED_LENGTHS, batch_size)


class TestPipelineGradients:
    def test_cbow_pipeline_gradcheck(self):
        from cachedlstm.gradcheck import pipeline_gradcheck

        assert pipeline_gradcheck("cbow", width=6, seed=0, eps=1e-5) < 1e-6

    def test_recurrent_pipeline_gradcheck_loose(self):
        # Through embedding lookup, lstm encoder, softmax, and the objective.
        # The objective's magnitude (~ln C) puts the finite-difference noise
        # floor near 1e-11, so parameters whose true gradient is ~1e-7 show
        # relative errors around 1e-4 without being wrong; the strict 1e-6
        # bound is enforced by the encoder-level checks where every path is
        # well conditioned.
        from cachedlstm.gradcheck import pipeline_gradcheck

        assert pipeline_gradcheck("lstm", width=5, seed=11, eps=1e-5) < 1e-3

    def test_embedding_rows_share_gradient_through_repeats(self):
        v = _toy_vocab()
        model = build_model(ModelConfig(kind="cbow", d=3, C=2), v, seed=1)
        doc = Document(0, ["t0", "t0", "t0"])
        tape = Tape()
        probs, leaves = model.forward_batch(tape, pad_batch([doc], v))
        loss = objective(probs, np.array([0]))
        grads = backward(tape, loss)
        g_emb = np.asarray(grads[leaves["embedding"].nid])
        row = v.ids(["t0"])[0]
        other = v.ids(["t5"])[0]
        assert np.abs(g_emb[row]).max() > 0.0
        assert (g_emb[other] == 0.0).all()
        assert (g_emb[0] == 0.0).all()  # pad row untouched


def test_one_gather_equals_per_step_gathers():
    # A padded bi-clstm batch with weight decay, once through forward_batch's
    # one gather and mask array, and once through T per-step gathers fed to
    # encode_bidirectional as lists.  Every gradient must be byte-equal: the
    # one gather's RowSparse lists its rows in the order in which backward
    # meets the per-step gathers.
    rng = np.random.default_rng(14)
    words = [f"w{i}" for i in range(12)]
    docs = [Document(int(rng.integers(3)), list(rng.choice(words, n))) for n in (7, 3, 5, 1)]
    vocab = build_vocab(docs)
    model = build_model(ModelConfig(kind="clstm", d=4, H=6, K=3, C=3, bidirectional=True,
                                    use_bias=True), vocab, seed=3)
    batch = pad_batch(docs, vocab)
    assert not (batch.lengths == batch.n_steps).all()

    def gradients(probs, leaves, tape):
        loss = objective(probs, batch.labels)
        _, add_decay = apply_weight_decay(float(loss.value[0, 0]), model.named_tensors(), 1e-3,
                                          np.unique(batch.ids))
        grads = backward(tape, loss)
        named = {name: grads[v.nid] for name, v in leaves.items()}
        add_decay(named)
        return {name: np.asarray(g).tobytes() for name, g in named.items()}

    tape = Tape()
    whole = gradients(*model.forward_batch(tape, batch), tape)

    tape = Tape()
    emb = tape.leaf(model.embedding.vectors)
    bound_f, leaves_f = bind_params(tape, model.cells[0])
    bound_b, leaves_b = bind_params(tape, model.cells[1])
    xs = [take_rows(emb, batch.ids[:, t]) for t in range(batch.n_steps)]
    mask = [tape.leaf(batch.mask[:, t:t + 1]) for t in range(batch.n_steps)]
    enc = encode_bidirectional(model.config.encoder_config(), bound_f, bound_b, xs, mask)
    bound_c, leaves_c = bind_params(tape, model.clf)
    leaves = {"embedding": emb, **{f"fwd.{n}": v for n, v in leaves_f.items()},
              **{f"bwd.{n}": v for n, v in leaves_b.items()},
              **{f"clf.{n}": v for n, v in leaves_c.items()}}
    per_step = gradients(classify(doc_representation(enc), bound_c), leaves, tape)
    assert whole == per_step


class TestTapeLifetime:
    def test_tape_freed_without_cycle_collector(self):
        v = _toy_vocab()
        model = build_model(ModelConfig(kind="clstm", d=3, H=4, K=2, C=2,
                                        bidirectional=True), v, seed=2)
        batch = pad_batch([Document(0, ["t0", "t1", "t2"]), Document(1, ["t3"])], v)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            tape = Tape()
            probs, leaves = model.forward_batch(tape, batch)
            backward(tape, objective(probs, batch.labels))
            ref = weakref.ref(tape)
            del tape, probs, leaves
            assert ref() is None
        finally:
            if was_enabled:
                gc.enable()
