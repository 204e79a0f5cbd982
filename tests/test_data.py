"""Corpus pipeline tests: tokenization, vocabulary ids, embeddings, batch
padding, corpus files, the external importer, and the synthetic needle task."""

import numpy as np
import pytest

from cachedlstm.data import (
    PAD_ID,
    UNK_ID,
    Document,
    EmbeddingMatrix,
    Vocab,
    build_vocab,
    convert_external,
    init_embeddings,
    load_embeddings,
    make_batches,
    pad_batch,
    read_corpus,
    synth_needle,
    tokenize,
    write_corpus,
)


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert tokenize("The Movie  WAS great") == ["the", "movie", "was", "great"]

    def test_drops_sentence_separator(self):
        assert tokenize("good <sssss> bad <SSSSS> ugly") == ["good", "bad", "ugly"]

    def test_empty(self):
        assert tokenize("   ") == []


class TestVocab:
    def test_reserved_ids(self):
        v = build_vocab([Document(0, ["b", "a", "b"])])
        assert len(v) == 4
        assert v.id_for("b") == 2  # most frequent first
        assert v.id_for("a") == 3
        assert v.id_for("zzz") == UNK_ID
        assert v.token_for(PAD_ID) == "<pad>"

    def test_frequency_then_lexicographic(self):
        docs = [Document(0, ["pear", "apple", "pear", "kiwi", "apple", "fig"])]
        v = build_vocab(docs)
        # apple and pear both occur twice: alphabetical between them.
        assert v.ids(["apple", "pear", "fig", "kiwi"]) == [2, 3, 4, 5]

    def test_min_count_filters(self):
        docs = [Document(0, ["a", "a", "b"])]
        v = build_vocab(docs, min_count=2)
        assert "a" in v and "b" not in v
        assert v.id_for("b") == UNK_ID

    def test_determinism(self):
        docs = [Document(0, list("the quick brown fox the lazy dog the".split()))]
        assert build_vocab(docs).tokens == build_vocab(docs).tokens

    def test_reserved_tokens_in_a_corpus_are_left_out(self):
        v = build_vocab([Document(0, ["<unk>", "a", "<pad>", "<pad>", "a"])])
        assert v.tokens == ["a"]
        assert v.ids(["<pad>", "<unk>", "a"]) == [UNK_ID, UNK_ID, 2]

    def test_literal_pad_token_is_not_padding(self):
        # "<pad>" that is not in the corpus the vocabulary came from.
        v = build_vocab([Document(0, ["a", "b"])])
        docs = [Document(0, ["a", "<pad>", "b"]), Document(1, ["<pad>"])]
        b = pad_batch(docs, v)
        inside = np.arange(b.ids.shape[1])[None, :] < b.lengths[:, None]
        assert (b.ids[inside] != PAD_ID).all()
        assert b.ids[0, 1] == b.ids[1, 0] == UNK_ID
        assert b.ids[1, 1:].tolist() == [PAD_ID, PAD_ID]

    def test_bad_min_count(self):
        with pytest.raises(ValueError):
            build_vocab([], min_count=0)


class TestDocument:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Document(0, [])

    def test_rejects_negative_label(self):
        with pytest.raises(ValueError):
            Document(-1, ["x"])


class TestEmbeddings:
    def test_pad_row_pinned_to_zero(self):
        m = init_embeddings(build_vocab([Document(0, ["a", "b"])]), 4, seed=1)
        assert (m.vectors[PAD_ID] == 0.0).all()
        assert (m.vectors[1:] != 0.0).any()

    def test_constructor_zeroes_pad_row(self):
        m = EmbeddingMatrix(vectors=np.ones((3, 2)))
        assert (m.vectors[PAD_ID] == 0.0).all()
        assert (m.vectors[1:] == 1.0).all()

    def test_seeded(self):
        v = build_vocab([Document(0, ["a", "b", "c"])])
        a = init_embeddings(v, 5, seed=3).vectors
        b = init_embeddings(v, 5, seed=3).vectors
        assert a.tobytes() == b.tobytes()

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("apple 1.0 2.0\nmissingtok 9.0 9.0\npear -1.5 0.25\n")
        v = build_vocab([Document(0, ["apple", "pear", "plum"])])
        m = load_embeddings(str(path), v, 2, seed=0)
        np.testing.assert_array_equal(m.vectors[v.id_for("apple")], [1.0, 2.0])
        np.testing.assert_array_equal(m.vectors[v.id_for("pear")], [-1.5, 0.25])
        # plum is missing from the file: random but within the init range.
        assert (np.abs(m.vectors[v.id_for("plum")]) <= 0.1).all()
        assert (m.vectors[PAD_ID] == 0.0).all()

    def test_load_is_independent_of_file_order(self, tmp_path):
        v = build_vocab([Document(0, ["a", "b", "c"])])
        p1 = tmp_path / "one.txt"
        p2 = tmp_path / "two.txt"
        p1.write_text("a 1.0\nb 2.0\n")
        p2.write_text("b 2.0\na 1.0\n")
        m1 = load_embeddings(str(p1), v, 1, seed=5)
        m2 = load_embeddings(str(p2), v, 1, seed=5)
        assert m1.vectors.tobytes() == m2.vectors.tobytes()

    def test_load_wrong_width_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("ok 1.0 2.0\nbroken 1.0\n")
        v = build_vocab([Document(0, ["ok"])])
        with pytest.raises(ValueError, match="bad.txt:2"):
            load_embeddings(str(path), v, 2)

    def test_load_bad_float_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("tok abc 2.0\n")
        v = build_vocab([Document(0, ["tok"])])
        with pytest.raises(ValueError, match="bad.txt:1"):
            load_embeddings(str(path), v, 2)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    def test_load_non_finite_names_line(self, tmp_path, value):
        path = tmp_path / "bad.txt"
        path.write_text(f"ok 1.0 2.0\ntok 1.0 {value}\n")
        v = build_vocab([Document(0, ["ok", "tok"])])
        with pytest.raises(ValueError, match="bad.txt:2"):
            load_embeddings(str(path), v, 2)


class TestBatching:
    def _docs(self):
        return [Document(0, ["a", "b", "c"]), Document(1, ["d"]),
                Document(2, ["e", "f"])]

    def test_pad_batch_geometry(self):
        docs = self._docs()
        v = build_vocab(docs)
        b = pad_batch(docs, v)
        assert b.ids.shape == (3, 3)
        assert b.mask.shape == (3, 3)
        np.testing.assert_array_equal(b.lengths, [3, 1, 2])
        np.testing.assert_array_equal(b.labels, [0, 1, 2])
        np.testing.assert_array_equal(b.mask,
                                      [[1, 1, 1], [1, 0, 0], [1, 1, 0]])
        assert (b.ids[1, 1:] == PAD_ID).all()
        assert not b.uniform_length

    def test_uniform_length_flag(self):
        docs = [Document(0, ["a", "b"]), Document(1, ["c", "d"])]
        v = build_vocab(docs)
        assert pad_batch(docs, v).uniform_length

    def test_make_batches_covers_every_doc_once(self):
        docs = [Document(i % 3, [f"t{i}", "x"]) for i in range(10)]
        v = build_vocab(docs)
        batches = make_batches(docs, v, batch_size=3, seed=1)
        assert [b.size for b in batches] == [3, 3, 3, 1]
        seen = sorted(v.token_for(b.ids[i, 0])
                      for b in batches for i in range(b.size))
        assert seen == sorted(f"t{i}" for i in range(10))

    def test_make_batches_seeded(self):
        docs = [Document(0, [f"t{i}"]) for i in range(20)]
        v = build_vocab(docs)
        a = make_batches(docs, v, 4, seed=9)
        b = make_batches(docs, v, 4, seed=9)
        for x, y in zip(a, b):
            assert x.ids.tobytes() == y.ids.tobytes()
        c = make_batches(docs, v, 4, seed=10)
        assert any(x.ids.tobytes() != y.ids.tobytes() for x, y in zip(a, c))

    def test_sort_bucket_reduces_padding(self):
        rng = np.random.default_rng(2)
        docs = [Document(0, ["w"] * int(rng.integers(1, 40))) for _ in range(64)]
        v = build_vocab(docs)
        plain = make_batches(docs, v, 8, seed=3)
        bucketed = make_batches(docs, v, 8, seed=3, sort_bucket=True)

        def padding(batches):
            return sum(b.ids.size - b.lengths.sum() for b in batches)

        assert padding(bucketed) < padding(plain)
        assert sum(b.size for b in bucketed) == 64

    def test_empty_and_bad_size(self):
        v = build_vocab([Document(0, ["a"])])
        assert make_batches([], v, 4) == []
        with pytest.raises(ValueError):
            make_batches([Document(0, ["a"])], v, 0)
        with pytest.raises(ValueError):
            pad_batch([], v)


class TestCorpusIO:
    def test_roundtrip(self, tmp_path):
        docs = [Document(2, ["hello", "world"]), Document(0, ["one"])]
        path = tmp_path / "c.tsv"
        write_corpus(str(path), docs)
        back = read_corpus(str(path), n_classes=3)
        assert [(d.label, d.tokens) for d in back] == \
            [(d.label, d.tokens) for d in docs]

    def test_read_applies_tokenization(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("1\tGood <sssss> Film\n")
        docs = read_corpus(str(path), 2)
        assert docs[0].tokens == ["good", "film"]

    def test_label_out_of_range_names_line(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("0\tok text\n5\ttoo big\n")
        with pytest.raises(ValueError, match="c.tsv:2"):
            read_corpus(str(path), 3)

    def test_missing_tab_names_line(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("no separator here\n")
        with pytest.raises(ValueError, match="c.tsv:1"):
            read_corpus(str(path), 2)

    def test_non_integer_label(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("x\ttext\n")
        with pytest.raises(ValueError, match="not an integer"):
            read_corpus(str(path), 2)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("0\ta\n\n1\tb\n")
        assert len(read_corpus(str(path), 2)) == 2


class TestConvert:
    def test_double_tab_fields_with_offset(self, tmp_path):
        path = tmp_path / "raw.txt"
        path.write_text(
            "u1\t\tmovie1\t\t4\t\tLoved it <sssss> really\n"
            "u2\t\tmovie2\t\t1\t\tawful\n"
        )
        docs = convert_external(str(path), "\t\t", label_index=2, text_index=3,
                                label_offset=-1, n_classes=5)
        assert [d.label for d in docs] == [3, 0]
        assert docs[0].tokens == ["loved", "it", "really"]

    def test_field_count_error_names_line(self, tmp_path):
        path = tmp_path / "raw.txt"
        path.write_text("only\t\ttwo\n")
        with pytest.raises(ValueError, match="raw.txt:1"):
            convert_external(str(path), "\t\t", label_index=2, text_index=3)

    def test_offset_below_zero_rejected(self, tmp_path):
        path = tmp_path / "raw.txt"
        path.write_text("0\t\tsome text\n")
        with pytest.raises(ValueError, match="raw.txt:1"):
            convert_external(str(path), "\t\t", label_index=0, text_index=1,
                             label_offset=-1, n_classes=5)


class TestSynthNeedle:
    def test_shapes_and_balance(self):
        train, dev = synth_needle(100, 20, 4, noise_vocab_size=30, seed=5)
        assert len(train) + len(dev) == 100
        all_docs = train + dev
        counts = np.bincount([d.label for d in all_docs], minlength=4)
        assert counts.max() - counts.min() <= 1
        assert all(d.length == 20 for d in all_docs)

    def test_cue_token_in_first_tenth(self):
        train, dev = synth_needle(60, 50, 3, seed=8)
        for d in train + dev:
            hits = [i for i, t in enumerate(d.tokens) if t.startswith("cue")]
            assert len(hits) == 1
            assert hits[0] < 5  # first tenth of 50 positions
            assert d.tokens[hits[0]] == f"cue{d.label}"

    def test_split_disjoint_and_stratified(self):
        train, dev = synth_needle(200, 15, 2, seed=3)
        train_keys = {(d.label, tuple(d.tokens)) for d in train}
        assert not any((d.label, tuple(d.tokens)) in train_keys for d in dev)
        dev_counts = np.bincount([d.label for d in dev], minlength=2)
        assert dev_counts.max() - dev_counts.min() <= 1
        assert len(dev) == 20

    def test_deterministic(self):
        a_train, a_dev = synth_needle(50, 12, 3, seed=7)
        b_train, b_dev = synth_needle(50, 12, 3, seed=7)
        assert [(d.label, d.tokens) for d in a_train] == \
            [(d.label, d.tokens) for d in b_train]
        assert [(d.label, d.tokens) for d in a_dev] == \
            [(d.label, d.tokens) for d in b_dev]

    def test_validation(self):
        with pytest.raises(ValueError):
            synth_needle(50, 5, 3)  # too short
        with pytest.raises(ValueError):
            synth_needle(50, 20, 1)  # one class
        with pytest.raises(ValueError):
            synth_needle(3, 20, 3)  # too few docs
