"""Corpus pipeline tests: tokenization, vocabulary ids, embeddings, batch
padding, corpus files, the external importer, and the synthetic needle task."""

import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachedlstm.data import (
    PAD_ID,
    SEPARATOR_TOKEN,
    UNK_ID,
    Document,
    EmbeddingMatrix,
    Vocab,
    atomic_write,
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


PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)

# Pieces of review text: separators in either case, glued to words, in runs
# and at the edges, between every kind of whitespace str.split knows.
PIECES = st.sampled_from(["<sssss>", "<SSSSS>", "<SsSsS>", "x<sssss>", "<sssss>y",
                          "<sssss><sssss>", "<sssss", "sssss>", "good", "BAD", "a", "É"])
GAPS = st.one_of(st.just(" "),  # most often: the one gap the fast path replaces
                 st.sampled_from(["  ", "\t", "\n", "\x0b", "\xa0", "\u3000", " \t "]))


@st.composite
def review_texts(draw):
    pieces = draw(st.lists(PIECES, max_size=10))
    gaps = draw(st.lists(GAPS, min_size=len(pieces) + 1, max_size=len(pieces) + 1))
    edges = draw(st.sampled_from(["", " ", "\t"])), draw(st.sampled_from(["", " ", "\n"]))
    body = "".join(g + p for g, p in zip(gaps, pieces)) + gaps[-1]
    return edges[0] + (body if draw(st.booleans()) else body.strip()) + edges[1]


class TestTokenizeProperties:
    @PROPERTY
    @given(review_texts())
    def test_drops_exactly_the_separator_tokens(self, text):
        assert tokenize(text) == [t for t in text.lower().split() if t != SEPARATOR_TOKEN]


class TestVocabProperties:
    @PROPERTY
    @given(st.lists(st.lists(st.sampled_from(["a", "b", "B", "ab", "é", "z", "<unk>", "<pad>"]),
                             min_size=1, max_size=8), min_size=1, max_size=6),
           st.integers(1, 3))
    def test_order_is_descending_count_then_code_points(self, corpus, min_count):
        docs = [Document(0, tokens) for tokens in corpus]
        counts = Counter(t for tokens in corpus for t in tokens)
        kept = [t for t, c in counts.items() if c >= min_count and t not in ("<pad>", "<unk>")]
        assert build_vocab(docs, min_count).tokens == sorted(kept,
                                                             key=lambda t: (-counts[t], t))


class TestVocab:
    def test_reserved_ids(self):
        v = build_vocab([Document(0, ["b", "a", "b"])])
        assert len(v) == 4
        assert v.ids(["b"])[0] == 2  # most frequent first
        assert v.ids(["a"])[0] == 3
        assert v.ids(["zzz"])[0] == UNK_ID
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
        assert v.ids(["b"])[0] == UNK_ID

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
        np.testing.assert_array_equal(m.vectors[v.ids(["apple"])[0]], [1.0, 2.0])
        np.testing.assert_array_equal(m.vectors[v.ids(["pear"])[0]], [-1.5, 0.25])
        # plum is missing from the file: random but within the init range.
        assert (np.abs(m.vectors[v.ids(["plum"])[0]]) <= 0.1).all()
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
        assert not (b.lengths == b.n_steps).all()

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

    def test_failed_write_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "c.tsv"
        write_corpus(str(path), [Document(1, ["old"])])
        before = path.read_bytes()
        # The second item fails after the first line is written.
        with pytest.raises(AttributeError):
            write_corpus(str(path), [Document(0, ["new"]), None])
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["c.tsv"]

    @pytest.mark.parametrize("binary", [False, True])
    def test_atomic_write_replaces_whole_or_not_at_all(self, tmp_path, binary):
        path = tmp_path / "out"
        path.write_bytes(b"previous\n")
        text = "naïve\n"
        data = text.encode("utf-8") if binary else text
        with pytest.raises(KeyboardInterrupt):
            with atomic_write(str(path), binary=binary) as fh:
                fh.write(data)
                raise KeyboardInterrupt
        assert path.read_bytes() == b"previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        with atomic_write(str(path), binary=binary) as fh:
            fh.write(data)
        assert path.read_bytes() == text.encode("utf-8")
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_atomic_write_into_a_missing_directory_fails_cleanly(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            with atomic_write(str(tmp_path / "absent" / "out")) as fh:
                fh.write("x")
        assert list(tmp_path.iterdir()) == []


class TestLineErrors:
    """Every reader names the file and line of a bad line, also of a byte
    that is not UTF-8."""

    def _read(self, reader, path):
        if reader == "read_corpus":
            return read_corpus(str(path), 2)
        if reader == "convert_external":
            return convert_external(str(path), "\t", label_index=0, text_index=1)
        return load_embeddings(str(path), build_vocab([Document(0, ["a"])]), 1)

    @pytest.mark.parametrize("reader", ["read_corpus", "convert_external", "load_embeddings"])
    @pytest.mark.parametrize("bad_line", [1, 3, 5000])
    def test_non_utf8_byte_names_its_line(self, tmp_path, reader, bad_line):
        # Line 5000 lies many decoder chunks into the file.
        good = "a 1\n" if reader == "load_embeddings" else "0\ta\n"
        path = tmp_path / "f.txt"
        path.write_bytes(good.encode() * (bad_line - 1) + b"\xff" + good.encode() * 3)
        message = f"{path}:{bad_line}: not UTF-8 text"
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            self._read(reader, path)

    @pytest.mark.parametrize("reader,text,message", [
        ("read_corpus", "0\ta\n\n2\tb\n", "3: label 2 outside 0..1"),
        ("read_corpus", "0\t <sssss> \n", "1: document has no tokens"),
        ("convert_external", "0\ta\nx\tb\n", "2: label 'x' is not an integer"),
        ("convert_external", "0\ta\n1\n", "2: only 1 fields, need index 1"),
        ("load_embeddings", "a 1\nb\n", "2: vector has 0 values, expected 1"),
        ("load_embeddings", "a nan\n", "1: vector holds nan or inf"),
    ])
    def test_error_starts_with_path_and_line(self, tmp_path, reader, text, message):
        path = tmp_path / "f.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}:{message}") + "$"):
            self._read(reader, path)

    def test_text_is_everything_after_the_first_tab(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("1\tone\ttwo\n")
        assert read_corpus(str(path), 2)[0].tokens == ["one", "two"]

    def test_only_a_newline_ends_a_line(self, tmp_path):
        # A bare \r is whitespace inside the text, not the start of a second document.
        path = tmp_path / "c.tsv"
        path.write_bytes(b"0\tgood\r1\tbad movie\n")
        docs = read_corpus(str(path), 2)
        assert [(d.label, d.tokens) for d in docs] == [(0, ["good", "1", "bad", "movie"])]

    @pytest.mark.parametrize("reader,text", [
        ("read_corpus", "0\ta b\n\n1\tc\n"),
        ("convert_external", "1\tx y\n0\tz\n"),
        ("load_embeddings", "a 0.5\nzz 1\n"),
    ])
    def test_crlf_file_reads_as_its_lf_copy(self, tmp_path, reader, text):
        lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
        lf.write_bytes(text.encode())
        crlf.write_bytes(text.replace("\n", "\r\n").encode())
        got = [self._read(reader, path) for path in (lf, crlf)]
        if reader == "load_embeddings":
            assert got[0].vectors.tobytes() == got[1].vectors.tobytes()
        else:
            assert got[0] == got[1] and len(got[0]) == 2

    @pytest.mark.parametrize("reader,text,message", [
        ("read_corpus", "0\ta\n\n2\tb\n", "3: label 2 outside 0..1"),
        ("convert_external", "0\ta\nx\tb\n", "2: label 'x' is not an integer"),
        ("load_embeddings", "a 1\nb\n", "2: vector has 0 values, expected 1"),
    ])
    def test_crlf_errors_name_the_same_line(self, tmp_path, reader, text, message):
        path = tmp_path / "f.txt"
        path.write_bytes(text.replace("\n", "\r\n").encode())
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}:{message}") + "$"):
            self._read(reader, path)


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
