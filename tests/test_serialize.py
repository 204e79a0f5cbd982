"""Container format tests: exact roundtrips, determinism, corruption
handling, and whole-model save/load."""

import json
import pathlib
import struct
import tracemalloc

import numpy as np
import pytest

from cachedlstm.autodiff import Tape
from cachedlstm.data import Document, build_vocab, pad_batch
from cachedlstm.model import ModelConfig, build_model
from cachedlstm.serialize import (
    MAGIC,
    load_container,
    load_model,
    save_container,
    save_model,
)


class TestContainer:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(17)
        tensors = {
            "a": rng.normal(size=(3, 4)),
            "deep.nested.name": rng.normal(size=(1, 1)),
            "b": np.array([[np.pi, -0.0], [1e-300, 1e300]]),
        }
        meta = {"classes": 5, "note": "héllo"}
        path = tmp_path / "m.bin"
        save_container(str(path), tensors, meta)
        back, meta2 = load_container(str(path))
        assert meta2 == meta
        assert list(back) == list(tensors)  # order preserved
        for name, t in tensors.items():
            assert back[name].tobytes() == t.tobytes()

    def test_same_input_same_bytes(self, tmp_path):
        tensors = {"w": np.arange(6.0).reshape(2, 3)}
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_container(str(p1), tensors, {"x": 1, "y": [1, 2]})
        save_container(str(p2), tensors, {"y": [1, 2], "x": 1})
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_save_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "m.bin"
        save_container(str(path), {"w": np.ones((2, 2))}, {"v": 1})
        before = path.read_bytes()
        # "a" is written before "b" fails its 2-D check.
        with pytest.raises(ValueError, match="'b' must be 2-D"):
            save_container(str(path), {"a": np.zeros((3, 3)), "b": np.zeros(4)}, {"v": 2})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.bin"]

    def test_empty_meta_and_tensors(self, tmp_path):
        path = tmp_path / "m.bin"
        save_container(str(path), {})
        back, meta = load_container(str(path))
        assert back == {} and meta == {}

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(ValueError, match="magic"):
            load_container(str(path))

    def test_bad_version(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(MAGIC + struct.pack("<I", 99) + struct.pack("<I", 2) + b"{}")
        with pytest.raises(ValueError, match="version"):
            load_container(str(path))

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "m.bin"
        save_container(str(path), {"w": np.ones((4, 4))})
        data = path.read_bytes()
        path.write_bytes(data[:-7])
        with pytest.raises(ValueError, match="truncated"):
            load_container(str(path))

    def test_oversized_shape_is_truncation(self, tmp_path):
        # A header claiming more data than the file holds is rejected before
        # the tensor is allocated.
        path = tmp_path / "m.bin"
        save_container(str(path), {"w": np.ones((2, 2))})
        data = path.read_bytes()
        at = data.index(b"w") + 1
        path.write_bytes(data[:at] + struct.pack("<II", 2 ** 31, 2 ** 31) + data[at + 8:])
        with pytest.raises(ValueError, match="truncated"):
            load_container(str(path))

    def test_oversized_meta_is_truncation_without_allocating(self, tmp_path):
        # 14 bytes whose header claims 64 MiB of meta.
        path = tmp_path / "m.bin"
        path.write_bytes(MAGIC + struct.pack("<II", 1, 64 << 20) + b"{}")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="truncated container"):
                load_container(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"traced peak {peak} bytes"

    def test_empty_tensors_roundtrip(self, tmp_path):
        path = tmp_path / "m.bin"
        save_container(str(path), {"a": np.zeros((0, 3)), "b": np.ones((1, 1))})
        back, _ = load_container(str(path))
        assert back["a"].shape == (0, 3) and back["b"].tolist() == [[1.0]]

    def test_trailing_garbage_detected(self, tmp_path):
        path = tmp_path / "m.bin"
        save_container(str(path), {"w": np.ones((2, 2))})
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(ValueError, match="trailing"):
            load_container(str(path))

    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(ValueError, match="2-D"):
            save_container(str(tmp_path / "m.bin"), {"v": np.zeros(3)})


class TestModelRoundtrip:
    @pytest.mark.parametrize("kind,extra", [
        ("cbow", {}),
        ("lstm", {"H": 5}),
        ("clstm", {"H": 6, "K": 3, "bidirectional": True, "use_bias": True}),
    ])
    def test_save_load_preserves_predictions(self, tmp_path, kind, extra):
        docs = [Document(i % 2, [f"w{i}", f"w{i + 1}", "shared"])
                for i in range(6)]
        vocab = build_vocab(docs)
        cfg = ModelConfig(kind=kind, d=4, C=2, **extra)
        model = build_model(cfg, vocab, seed=21)
        path = tmp_path / "model.bin"
        save_model(str(path), model)
        loaded = load_model(str(path))
        assert loaded.config == model.config
        assert loaded.vocab.tokens == model.vocab.tokens
        for name, t in model.named_tensors().items():
            assert loaded.named_tensors()[name].tobytes() == t.tobytes()
        batch = pad_batch(docs, vocab)
        p1, _ = model.forward_batch(__import__("cachedlstm").Tape(), batch)
        p2, _ = loaded.forward_batch(__import__("cachedlstm").Tape(), batch)
        assert p1.value.tobytes() == p2.value.tobytes()

    @pytest.mark.parametrize("use_bias", [False, True])
    @pytest.mark.parametrize("kind,extra,bidirectional", [
        ("cbow", {}, False),
        *[(kind, {"H": 6}, bi) for kind in ("rnn", "lstm", "cifg") for bi in (False, True)],
        *[("clstm", {"H": 6, "K": 3}, bi) for bi in (False, True)],
    ])
    def test_every_layout_roundtrips_bit_exact(self, tmp_path, kind, extra,
                                               bidirectional, use_bias):
        docs = [Document(i % 2, [f"w{j}" for j in range(i + 1)]) for i in range(5)]
        vocab = build_vocab(docs)
        cfg = ModelConfig(kind=kind, d=4, C=2, bidirectional=bidirectional,
                          use_bias=use_bias, **extra)
        model = build_model(cfg, vocab, seed=3)
        rng = np.random.default_rng(3)
        for t in model.named_tensors().values():
            t[...] = rng.normal(size=t.shape)
        model.embedding.vectors[0] = 0.0
        path = tmp_path / "model.bin"
        save_model(str(path), model)
        loaded = load_model(str(path))
        assert loaded.config == cfg
        assert {n: t.tobytes() for n, t in loaded.named_tensors().items()} == {
            n: t.tobytes() for n, t in model.named_tensors().items()}
        batch = pad_batch(docs, vocab)
        assert loaded.probabilities(batch).tobytes() == model.probabilities(batch).tobytes()

    @pytest.mark.parametrize("name,shape,message", [
        ("fwd.u", (12, 4), "tensor fwd.u has shape \\(12, 4\\)"),
        ("clf.b", (3, 1), "tensor clf.b has shape \\(3, 1\\)"),
        ("embedding", (0, 3), "tensor embedding has shape \\(0, 3\\)"),
    ], ids=["fwd.u", "clf.b", "empty-embedding"])
    def test_misshapen_tensor_exits_2_naming_it(self, tmp_path, capsys, name, shape,
                                                message):
        from cachedlstm.cli import main

        docs = [Document(0, ["a", "b"]), Document(1, ["b", "c"])]
        model = build_model(ModelConfig(kind="lstm", d=3, H=3, C=2), build_vocab(docs),
                            seed=0)
        path = tmp_path / "model.bin"
        save_model(str(path), model)
        tensors, meta = load_container(str(path))
        tensors[name] = np.zeros(shape)
        save_container(str(path), tensors, meta)
        with pytest.raises(ValueError, match=message):
            load_model(str(path))
        corpus = tmp_path / "c.tsv"
        corpus.write_text("0\ta b\n1\tb c\n")
        assert main(["eval", str(path), str(corpus)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: tensor {name} has shape") and "Traceback" not in err

    def test_missing_tensor_detected(self, tmp_path):
        docs = [Document(0, ["a", "b"])]
        vocab = build_vocab(docs)
        model = build_model(ModelConfig(kind="lstm", d=3, H=4, C=2), vocab, seed=0)
        path = tmp_path / "model.bin"
        save_model(str(path), model)
        tensors, meta = load_container(str(path))
        del tensors["fwd.u"]
        save_container(str(path), tensors, meta)
        with pytest.raises(ValueError, match="fwd.u"):
            load_model(str(path))

    def test_unknown_tensor_rejected(self, tmp_path):
        from cachedlstm.cli import main

        docs = [Document(0, ["a", "b"]), Document(1, ["b", "c"])]
        vocab = build_vocab(docs)
        model = build_model(ModelConfig(kind="lstm", d=3, H=4, C=2), vocab, seed=0)
        path = tmp_path / "model.bin"
        save_model(str(path), model)
        tensors, meta = load_container(str(path))
        tensors["fwd.bogus"] = np.ones((2, 2))
        save_container(str(path), tensors, meta)
        with pytest.raises(ValueError, match="fwd.bogus"):
            load_model(str(path))
        corpus = tmp_path / "c.tsv"
        corpus.write_text("0\ta b\n1\tb c\n")
        assert main(["eval", str(path), str(corpus)]) == 2

    def test_not_a_model(self, tmp_path):
        path = tmp_path / "m.bin"
        save_container(str(path), {"w": np.ones((1, 1))}, {"format": "other"})
        with pytest.raises(ValueError, match="not a saved model"):
            load_model(str(path))

    def test_embedding_vocab_size_mismatch(self, tmp_path):
        docs = [Document(0, ["a", "b"])]
        vocab = build_vocab(docs)
        model = build_model(ModelConfig(kind="cbow", d=3, C=2), vocab, seed=0)
        path = tmp_path / "model.bin"
        save_model(str(path), model)
        tensors, meta = load_container(str(path))
        tensors["embedding"] = tensors["embedding"][:-1]
        save_container(str(path), tensors, meta)
        with pytest.raises(ValueError, match="vocabulary"):
            load_model(str(path))


def _unknown_key(meta):
    meta["config"]["bogus"] = 1


def _string_width(meta):
    meta["config"]["d"] = "3"


def _config_list(meta):
    meta["config"] = [meta["config"]]


def _tokens_string(meta):
    meta["vocab_tokens"] = "a b c"


def _token_list(meta):
    meta["vocab_tokens"] = [["a"], "b"]


def _numeric_tokens(meta):
    meta["vocab_tokens"] = [3, 4.5, "a"]


def _trainable_string(meta):
    meta["embedding_trainable"] = "no"


class TestMalformedMeta:
    """A container whose meta block is malformed is rejected with exit 2."""

    def _save(self, tmp_path, edit=None, meta_override=None):
        docs = [Document(0, ["a", "b"]), Document(1, ["b", "c"])]
        model = build_model(ModelConfig(kind="lstm", d=3, H=4, C=2), build_vocab(docs), seed=0)
        path = tmp_path / "model.bin"
        save_model(str(path), model)
        tensors, meta = load_container(str(path))
        if edit is not None:
            edit(meta)
        save_container(str(path), tensors, meta if meta_override is None else meta_override)
        corpus = tmp_path / "c.tsv"
        corpus.write_text("0\ta b\n1\tb c\n")
        return path, corpus

    def _assert_rejected(self, path, corpus, message, capsys):
        from cachedlstm.cli import main

        with pytest.raises(ValueError, match=message):
            load_model(str(path))
        assert main(["eval", str(path), str(corpus)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("edit,message", [
        (_unknown_key, "unknown key config.bogus"),
        (_string_width, "config.d must be an integer, got '3'"),
        (_config_list, "config must be a JSON object"),
        (_tokens_string, "vocab_tokens must be a list, got str"),
        (_token_list, "vocab_tokens must hold strings"),
        (_numeric_tokens, "vocab_tokens must hold strings"),
        (_trainable_string, "meta.embedding_trainable must be true or false"),
    ])
    def test_bad_meta_field(self, tmp_path, capsys, edit, message):
        self._assert_rejected(*self._save(tmp_path, edit), message, capsys)

    def test_meta_that_is_an_array(self, tmp_path, capsys):
        path, corpus = self._save(tmp_path, meta_override=["doc-classifier"])
        self._assert_rejected(path, corpus, "container meta must be a JSON object", capsys)


class TestLegacyFiles:
    """Files that name each gate's tensor (fwd.w_i, fwd.u_r, ...) still load.

    The fixtures in tests/data were saved with per-gate names, together
    with the class probabilities that model gave for three documents.
    """

    DATA = pathlib.Path(__file__).resolve().parent / "data"

    @pytest.mark.parametrize("kind", ["lstm", "cifg", "clstm"])
    def test_same_predictions(self, kind):
        expected = json.loads((self.DATA / "legacy_probs.json").read_text())
        tensors, _ = load_container(str(self.DATA / f"legacy_{kind}.bin"))
        assert any(name.startswith("fwd.w_") for name in tensors)
        model = load_model(str(self.DATA / f"legacy_{kind}.bin"))
        docs = [Document(0, tokens) for tokens in expected["docs"]]
        batch = pad_batch(docs, model.vocab)
        probs = model.forward_batch(Tape(), batch)[0].value
        scored = model.probabilities(batch)
        want = np.array(expected["models"][kind])
        for got in (probs, scored):
            assert np.abs(got - want).max() <= 1e-12
            np.testing.assert_array_equal(got.argmax(axis=1), want.argmax(axis=1))
        # Lengths 4, 2, 5: length order scores the second document first.
        assert [d.length for d in docs] == [4, 2, 5]
        np.testing.assert_array_equal(model.predict(docs, batch_size=2),
                                      want.argmax(axis=1))
        assert set(model.named_tensors()) >= {"fwd.w", "fwd.u"}

    def test_partial_gate_set_is_missing_a_tensor(self, tmp_path):
        tensors, meta = load_container(str(self.DATA / "legacy_lstm.bin"))
        del tensors["fwd.u_o"]
        path = tmp_path / "model.bin"
        save_container(str(path), tensors, meta)
        with pytest.raises(ValueError, match="fwd.u"):
            load_model(str(path))


def test_container_config_without_a_required_key_names_it(tmp_path, capsys):
    from cachedlstm.cli import main

    model = build_model(ModelConfig(kind="lstm", d=3, H=4, C=2),
                        build_vocab([Document(0, ["a", "b"])]), seed=0)
    path = tmp_path / "model.bin"
    save_model(str(path), model)
    tensors, meta = load_container(str(path))
    del meta["config"]["kind"]
    save_container(str(path), tensors, meta)
    with pytest.raises(ValueError, match="^config is missing 'kind'$"):
        load_model(str(path))
    corpus = tmp_path / "c.tsv"
    corpus.write_text("0\ta b\n")
    assert main(["eval", str(path), str(corpus)]) == 2
    assert capsys.readouterr().err == "error: config is missing 'kind'\n"
