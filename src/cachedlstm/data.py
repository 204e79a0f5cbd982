"""Corpus handling: tokenization, vocabulary, embeddings, batching, and the
synthetic needle-retrieval task.

The canonical corpus format is one document per line, ``label<TAB>text``,
with 0-based integer labels.  Tokenization lowercases, splits on whitespace,
and drops the sentence separator marker "<sssss>" that review corpora use.

Vocabulary ids are stable: 0 is padding, 1 is the unknown token (also for
a literal "<pad>" or "<unk>" in a document), and the remaining tokens are
numbered by descending frequency with ties broken lexicographically.  The
padding embedding row is pinned to zero.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

PAD_ID = 0
UNK_ID = 1
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
SEPARATOR_TOKEN = "<sssss>"


@dataclass
class Document:
    """One labeled document; label is a 0-based class index."""

    label: int
    tokens: list

    def __post_init__(self):
        if self.label < 0:
            raise ValueError(f"label must be >= 0, got {self.label}")
        if not self.tokens:
            raise ValueError("document has no tokens")

    @property
    def length(self) -> int:
        return len(self.tokens)


def tokenize(text: str) -> list:
    """Lowercased whitespace tokens with sentence separators removed."""
    return [t for t in text.lower().split() if t != SEPARATOR_TOKEN]


class Vocab:
    """Token/id bijection with reserved padding and unknown entries."""

    def __init__(self, tokens: list):
        """tokens: the non-reserved vocabulary, already ordered; ids from 2."""
        self._id_to_token = [PAD_TOKEN, UNK_TOKEN, *tokens]
        self._token_to_id = {t: i for i, t in enumerate(self._id_to_token)}
        if len(self._token_to_id) != len(self._id_to_token):
            raise ValueError("duplicate tokens in vocabulary")
        self._token_to_id[PAD_TOKEN] = UNK_ID  # a "<pad>" in a document is a word

    def __len__(self) -> int:
        return len(self._id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def id_for(self, token: str) -> int:
        """The token's id, or the unknown id for out-of-vocabulary tokens."""
        return self._token_to_id.get(token, UNK_ID)

    def token_for(self, idx: int) -> str:
        return self._id_to_token[idx]

    def ids(self, tokens: list) -> list:
        return [self._token_to_id.get(t, UNK_ID) for t in tokens]

    @property
    def tokens(self) -> list:
        """Non-reserved tokens in id order (for serialization)."""
        return self._id_to_token[2:]


def build_vocab(docs: list, min_count: int = 1) -> Vocab:
    """Vocabulary over the documents' tokens.

    Tokens seen fewer than min_count times, and the reserved ``<pad>`` and
    ``<unk>``, are left out (they map to the unknown id).  Ordering is by
    descending count, then lexicographic, so the same corpus always yields
    the same ids.
    """
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    counts = Counter()
    for doc in docs:
        counts.update(doc.tokens)
    kept = [t for t, c in counts.items()
            if c >= min_count and t not in (PAD_TOKEN, UNK_TOKEN)]
    kept.sort(key=lambda t: (-counts[t], t))
    return Vocab(kept)


@dataclass
class EmbeddingMatrix:
    """Token vectors, one row per vocabulary id; row 0 (padding) is zero.

    ``trainable`` controls whether gradient updates are applied.  The
    padding row receives no gradient regardless, because padded steps are
    masked out of every forward pass.
    """

    vectors: np.ndarray
    trainable: bool = True

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=np.float64)
        if v.ndim != 2:
            raise ValueError(f"embedding matrix must be 2-D, got {v.ndim}-D")
        v[PAD_ID, :] = 0.0
        self.vectors = v

    @property
    def width(self) -> int:
        return self.vectors.shape[1]


def init_embeddings(vocab: Vocab, width: int, seed=0) -> EmbeddingMatrix:
    """Random uniform [-0.1, 0.1] vectors, padding row zero, seeded."""
    rng = np.random.default_rng(seed)
    v = rng.uniform(-0.1, 0.1, size=(len(vocab), width))
    return EmbeddingMatrix(vectors=v)


def load_embeddings(path: str, vocab: Vocab, width: int, seed=0) -> EmbeddingMatrix:
    """Text-format vectors: each line is ``token v1 ... vd``.

    Vocabulary tokens present in the file get its vector; missing ones are
    drawn uniform [-0.1, 0.1] from the seed, in vocabulary id order, so the
    result does not depend on the file's line order.  Malformed lines,
    width mismatches and nan or inf values raise ValueError naming the line
    number.
    """
    found: dict[str, np.ndarray] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split(" ")
            if len(parts) < 2:
                raise ValueError(f"{path}:{lineno}: expected 'token v1 ... vd'")
            token = parts[0]
            if len(parts) - 1 != width:
                raise ValueError(
                    f"{path}:{lineno}: vector has {len(parts) - 1} values, expected {width}"
                )
            try:
                vec = np.array([float(p) for p in parts[1:]], dtype=np.float64)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad float ({exc})") from None
            if not np.isfinite(vec).all():
                raise ValueError(f"{path}:{lineno}: vector holds nan or inf")
            if token in vocab:
                found[token] = vec
    rng = np.random.default_rng(seed)
    v = np.empty((len(vocab), width))
    for idx in range(len(vocab)):
        token = vocab.token_for(idx)
        if token in found:
            v[idx] = found[token]
        else:
            v[idx] = rng.uniform(-0.1, 0.1, size=width)
    return EmbeddingMatrix(vectors=v)


@dataclass
class Batch:
    """Right-padded id matrix with its mask.

    ids: B x T int array (padding id 0 past each row's length).
    mask: B x T float array, 1.0 at real tokens and 0.0 at padding.
    lengths: true token count per row.  labels: gold class per row.
    """

    ids: np.ndarray
    mask: np.ndarray
    lengths: np.ndarray
    labels: np.ndarray

    @property
    def size(self) -> int:
        return self.ids.shape[0]

    @property
    def n_steps(self) -> int:
        return self.ids.shape[1]

    @property
    def uniform_length(self) -> bool:
        """True when no row is padded, so the mask can be skipped."""
        return bool((self.lengths == self.n_steps).all())


def pad_batch(docs: list, vocab: Vocab) -> Batch:
    """Pack documents into one right-padded batch."""
    if not docs:
        raise ValueError("cannot pad an empty batch")
    lengths = np.array([d.length for d in docs], dtype=np.int64)
    t_max = int(lengths.max())
    ids = np.full((len(docs), t_max), PAD_ID, dtype=np.int64)
    mask = np.zeros((len(docs), t_max))
    for i, doc in enumerate(docs):
        ids[i, :doc.length] = vocab.ids(doc.tokens)
        mask[i, :doc.length] = 1.0
    labels = np.array([d.label for d in docs], dtype=np.int64)
    return Batch(ids=ids, mask=mask, lengths=lengths, labels=labels)


def make_batches(docs: list, vocab: Vocab, batch_size: int, seed=0,
                 shuffle: bool = True, sort_bucket: bool = False) -> list:
    """Split documents into padded batches.

    shuffle permutes document order from the seed.  sort_bucket additionally
    sorts the shuffled order by length before chunking (less padding per
    batch) and then shuffles the chunk order, so length statistics stay
    deterministic for a given seed.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if not docs:
        return []
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(docs)) if shuffle else np.arange(len(docs))
    if sort_bucket:
        order = order[np.argsort([docs[i].length for i in order], kind="stable")]
    chunks = [order[i:i + batch_size] for i in range(0, len(order), batch_size)]
    if sort_bucket and shuffle and len(chunks) > 1:
        chunks = [chunks[i] for i in rng.permutation(len(chunks))]
    return [pad_batch([docs[i] for i in chunk], vocab) for chunk in chunks]


def read_corpus(path: str, n_classes: int) -> list:
    """Parse a canonical ``label<TAB>text`` file.

    Blank lines are skipped.  A bad label, out-of-range class, or empty text
    raises ValueError naming the line number.
    """
    docs = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            head, sep, text = line.rstrip("\n").partition("\t")
            if not sep:
                raise ValueError(f"{path}:{lineno}: missing tab separator")
            try:
                label = int(head)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: label {head!r} is not an integer") from None
            if not 0 <= label < n_classes:
                raise ValueError(
                    f"{path}:{lineno}: label {label} outside 0..{n_classes - 1}"
                )
            tokens = tokenize(text)
            if not tokens:
                raise ValueError(f"{path}:{lineno}: document has no tokens")
            docs.append(Document(label=label, tokens=tokens))
    return docs


def write_corpus(path: str, docs: list) -> None:
    """Write documents in the canonical format, one per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(f"{doc.label}\t{' '.join(doc.tokens)}\n")


def convert_external(path: str, field_sep: str, label_index: int, text_index: int,
                     label_offset: int = 0, n_classes: int | None = None) -> list:
    """Import a delimited corpus into canonical documents.

    Each line is split on field_sep; the label field is parsed as an integer
    and shifted by label_offset (use -1 for 1-based ratings).  Errors name
    the offending line.
    """
    for name, index in (("label_index", label_index), ("text_index", text_index)):
        if index < 0:
            raise ValueError(f"{name} must be >= 0, got {index}")
    docs = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            fields = line.rstrip("\n").split(field_sep)
            hi = max(label_index, text_index)
            if len(fields) <= hi:
                raise ValueError(
                    f"{path}:{lineno}: only {len(fields)} fields, need index {hi}"
                )
            try:
                label = int(fields[label_index]) + label_offset
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: label {fields[label_index]!r} is not an integer"
                ) from None
            if label < 0 or (n_classes is not None and label >= n_classes):
                hi_txt = n_classes - 1 if n_classes is not None else "inf"
                raise ValueError(
                    f"{path}:{lineno}: shifted label {label} outside 0..{hi_txt}"
                )
            tokens = tokenize(fields[text_index])
            if not tokens:
                raise ValueError(f"{path}:{lineno}: document has no tokens")
            docs.append(Document(label=label, tokens=tokens))
    return docs


def synth_needle(n_docs: int, length: int, n_classes: int,
                 noise_vocab_size: int = 500, seed=0) -> tuple:
    """Label-early, noise-late synthetic corpus for long-range memory tests.

    Every document is `length` noise tokens except for one class-revealing
    cue token placed uniformly at random within the first tenth of the
    positions.  A classifier therefore has to carry information across the
    other nine tenths of the document.  Labels are balanced to within one
    document per class.  Returns a (train, dev) pair from a stratified
    90/10 split; both halves are deterministic in the seed.
    """
    if length < 10:
        raise ValueError(f"length must be >= 10, got {length}")
    if n_classes < 2:
        raise ValueError(f"n_classes must be >= 2, got {n_classes}")
    if n_docs < 2 * n_classes:
        raise ValueError(f"need at least {2 * n_classes} docs, got {n_docs}")
    rng = np.random.default_rng(seed)
    docs = []
    head = max(1, length // 10)
    for i in range(n_docs):
        label = i % n_classes
        tokens = [f"w{rng.integers(noise_vocab_size)}" for _ in range(length)]
        tokens[int(rng.integers(head))] = f"cue{label}"
        docs.append(Document(label=label, tokens=tokens))
    train, dev = [], []
    for c in range(n_classes):
        members = [d for d in docs if d.label == c]
        order = rng.permutation(len(members))
        n_dev = max(1, len(members) // 10)
        dev.extend(members[i] for i in order[:n_dev])
        train.extend(members[i] for i in order[n_dev:])
    train = [train[i] for i in rng.permutation(len(train))]
    dev = [dev[i] for i in rng.permutation(len(dev))]
    return train, dev
