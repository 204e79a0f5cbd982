"""Document classifier assembly: embeddings + encoder + softmax head.

A DocModel stores its weights once, as the name -> array table that
``ModelConfig.tensor_shapes`` lays out; its embedding, its cells (one per
entry of ``ModelConfig.directions``, which alone names the recurrent runs
and their tensor prefixes) and its classifier are views of that table's
arrays.  Each training forward pass binds the table to a fresh tape, so
training steps can mutate the arrays in place between passes without
holding stale graph state.  Scoring records no tape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tape
# Not called here: perfbench's tracer patches this name in this module.
from .autodiff import take_rows  # noqa: F401
from .cells import CELL_KINDS, GATES, CellParams, final_states, init_params, named_tensors
from .data import Batch, EmbeddingMatrix, Vocab, init_embeddings, pad_batch
from .encoder import (
    ClassifierParams,
    EncoderConfig,
    cbow_encode,
    cbow_vector,
    class_probabilities,
    classify,
    doc_representation,
    encode_bidirectional,
    encode_forward,
    init_classifier,
)

MODEL_KINDS = ("cbow",) + CELL_KINDS


@dataclass(frozen=True)
class ModelConfig:
    """Architecture description, serialized alongside the weights.

    kind 'cbow' ignores H and K (the representation is the d-wide token-sum
    vector); recurrent kinds use an H-unit cell, K memory groups for clstm.
    """

    kind: str
    d: int
    H: int = 1
    K: int = 1
    C: int = 2
    bidirectional: bool = False
    use_bias: bool = False

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"kind must be one of {MODEL_KINDS}, got {self.kind!r}")
        if self.kind == "cbow":
            if self.bidirectional:
                raise ValueError("cbow has no direction; bidirectional must be False")
            if self.K != 1:
                raise ValueError("cbow has no memory groups; K must be 1")
        else:
            # Delegate the recurrent validity rules to EncoderConfig.
            self.encoder_config()
        if self.d < 1:
            raise ValueError(f"d must be positive, got {self.d}")
        if self.C < 2:
            raise ValueError(f"C must be >= 2, got {self.C}")

    def encoder_config(self) -> EncoderConfig:
        if self.kind == "cbow":
            raise ValueError("cbow has no recurrent encoder")
        return EncoderConfig(
            cell_kind=self.kind, d=self.d, H=self.H, K=self.K, C=self.C,
            bidirectional=self.bidirectional,
        )

    @property
    def directions(self) -> tuple:
        """Tensor-name prefix of each recurrent run, in run order: none for
        cbow, then the forward run, then the backward one."""
        return () if self.kind == "cbow" else ("fwd.", "bwd.")[:1 + self.bidirectional]

    @property
    def rep_width(self) -> int:
        if self.kind == "cbow":
            return self.d
        return self.encoder_config().rep_width

    def tensor_shapes(self, vocab_size: int) -> dict:
        """Name -> shape of every tensor a model of this config holds.

        The names are those of ``DocModel.named_tensors``, in its order: the
        embedding, each direction's stacked cell tensors, then the classifier.
        """
        shapes = {"embedding": (vocab_size, self.d)}
        for prefix in self.directions:
            rows = len(GATES[self.kind]) * self.H
            shapes[prefix + "w"] = (rows, self.d)
            shapes[prefix + "u"] = (rows, self.H)
            if self.use_bias:
                shapes[prefix + "b"] = (rows, 1)
        shapes["clf.w"] = (self.C, self.rep_width)
        shapes["clf.b"] = (self.C, 1)
        return shapes

    def check_tensors(self, tensors: dict, vocab_size: int) -> None:
        """Raise ValueError, naming the tensor, unless ``tensors`` holds
        exactly the names and shapes that ``tensor_shapes`` lists."""
        want = self.tensor_shapes(vocab_size)
        for name, shape in want.items():
            if name not in tensors:
                raise ValueError(f"missing tensor {name}")
            got = tuple(tensors[name].shape)
            if got != shape:
                raise ValueError(f"tensor {name} has shape {got}; the config and its "
                                 f"{vocab_size}-entry vocabulary need {shape} (rows, width)")
        for name in tensors:
            if name not in want:
                raise ValueError(f"unknown tensor {name!r}; "
                                 f"its config holds {', '.join(want)}")


def _views(config: ModelConfig, tensors: dict) -> tuple:
    """(cells, clf) over a checked table of arrays or of Vars: one cell per
    entry of ``config.directions``, in its order."""
    cells = tuple(CellParams(config.kind, config.K, tensors[prefix + "w"],
                             tensors[prefix + "u"], tensors.get(prefix + "b"))
                  for prefix in config.directions)
    return cells, ClassifierParams(w=tensors["clf.w"], b=tensors["clf.b"])


class DocModel:
    """A complete classifier: weights, vocabulary, and the forward pass.

    The weights live in one name -> array table, in ``tensor_shapes`` order;
    ``embedding``, ``cells`` (one per entry of ``config.directions``) and
    ``clf`` are views of its arrays.
    """

    def __init__(self, config: ModelConfig, vocab: Vocab, tensors: dict,
                 embedding_trainable: bool):
        config.check_tensors(tensors, len(vocab))
        self.config = config
        self.vocab = vocab
        self.embedding = EmbeddingMatrix(tensors["embedding"], embedding_trainable)
        # EmbeddingMatrix may convert its array, so the table holds its result.
        self._tensors = {name: tensors[name] for name in config.tensor_shapes(len(vocab))}
        self._tensors["embedding"] = self.embedding.vectors
        self.cells, self.clf = _views(config, self._tensors)

    def named_tensors(self) -> dict:
        """All parameter arrays keyed by stable dotted names."""
        return dict(self._tensors)

    def set_named_tensors(self, tensors: dict) -> None:
        """Copy a full table of values into the model's arrays; raises
        ValueError, naming the tensor, unless it matches ``named_tensors``."""
        self.config.check_tensors(tensors, len(self.vocab))
        for name, own in self._tensors.items():
            own[...] = tensors[name]

    def forward_batch(self, tape: Tape, batch: Batch):
        """Class probabilities for one padded batch.

        Returns (probs, leaves): a B x C Var and the name -> leaf Var map
        for every parameter that entered the graph.  The encoder reads the
        embedding leaf, the T x B ids and the batch's mask, also when no
        row is padded, and gathers each step's rows itself, so the tape's
        size does not depend on T.
        """
        cfg = self.config
        leaves = {name: tape.leaf(t) for name, t in self._tensors.items()}
        cells, clf = _views(cfg, leaves)
        emb, ids, mask = leaves["embedding"], batch.ids.T, batch.mask
        if cfg.kind == "cbow":
            rep = cbow_encode(emb, ids, mask)
        else:
            encode = encode_bidirectional if cfg.bidirectional else encode_forward
            rep = doc_representation(encode(cfg.encoder_config(), *cells, (emb, ids), mask))
        probs = classify(rep, clf)
        return probs, leaves

    def probabilities(self, batch: Batch) -> np.ndarray:
        """Class probabilities for one padded batch, B x C, without a tape.

        The encoders read the same (embedding, T x B ids, mask) as in
        ``forward_batch`` and keep only each direction's carried state.  A
        bidirectional model's second direction runs in the helper process
        while this one runs the first, when the process may use two CPUs
        (``cells.final_states``).  The result equals
        ``forward_batch(Tape(), batch)[0].value`` bit for bit.
        """
        cfg = self.config
        if batch.n_steps == 0:
            raise ValueError("cannot score a batch of empty documents")
        emb, ids, mask = self.embedding.vectors, batch.ids.T, batch.mask
        if cfg.kind == "cbow":
            rep = cbow_vector(emb, ids, mask)
        else:
            width = cfg.H // cfg.K  # the slowest group of the final h, the last H columns
            rep = np.concatenate([v[:, -cfg.H:][:, :width]
                                  for v in final_states(self.cells, emb, ids, mask)], axis=1)
        return class_probabilities(rep, self.clf.w, self.clf.b)

    def predict_batch(self, batch: Batch) -> np.ndarray:
        """Most probable class per row; ties resolve to the lower index.

        Raises ValueError if scoring overflows, or if a probability is NaN
        or infinite, which a model holding non-finite weights produces.
        """
        try:
            with np.errstate(over="raise", invalid="raise"):
                probs = self.probabilities(batch)
        except FloatingPointError as exc:
            raise ValueError(f"{exc} while scoring (the model's weights are too "
                             "large for float64)") from None
        if not np.isfinite(probs).all():
            raise ValueError("model gives non-finite class probabilities "
                             "(its weights hold NaN or inf)")
        return np.argmax(probs, axis=1)

    def predict(self, docs: list, batch_size: int = 64) -> np.ndarray:
        """Predictions for a document list, in input order.

        Documents are scored in length order (a stable sort, so equal
        lengths keep their input order), ``batch_size`` at a time, so a
        document pads only to the longest of similar-length neighbours.
        On review-shape documents at B=64 this cut the padded share of
        scored positions from 31-33% to 17-20% (128 documents) and from
        35% to 3.3% (1,000 documents).  Padded positions are not computed,
        so a document's probabilities are those of input-order scoring up
        to their last bits: a padded row's step widths depend on its
        chunk-mates' lengths, and BLAS kernels treat the rows past their
        last full tile apart.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        order = np.argsort([d.length for d in docs], kind="stable")
        preds = np.empty(len(docs), dtype=np.int64)
        for lo in range(0, len(docs), batch_size):
            chunk = order[lo:lo + batch_size]
            preds[chunk] = self.predict_batch(pad_batch([docs[i] for i in chunk], self.vocab))
        return preds


def build_model(config: ModelConfig, vocab: Vocab, seed=0,
                embedding: EmbeddingMatrix | None = None) -> DocModel:
    """Fresh model with seeded initialization.

    Independent sub-seeds are derived for the embedding, each direction's
    cell, and the classifier, so the same seed always produces the same
    model regardless of which pieces are overridden.
    """
    ss = np.random.SeedSequence(seed)
    s_emb, s_fwd, s_bwd, s_clf = ss.spawn(4)
    if embedding is None:
        embedding = init_embeddings(vocab, config.d, seed=s_emb)
    tensors = {"embedding": embedding.vectors}
    for prefix, s_dir in zip(config.directions, (s_fwd, s_bwd)):
        cell = init_params(config.kind, config.d, config.H, n_groups=config.K,
                           seed=s_dir, use_bias=config.use_bias)
        tensors.update({prefix + name: t for name, t in named_tensors(cell).items()})
    clf = init_classifier(config.rep_width, config.C, seed=s_clf)
    tensors.update({"clf.w": clf.w, "clf.b": clf.b})
    return DocModel(config, vocab, tensors, embedding.trainable)
