"""Document classifier assembly: embeddings + encoder + softmax head.

A DocModel owns the numpy parameter arrays.  Each training forward pass
binds them to a fresh tape, so training steps can mutate the arrays in place
between passes without holding stale graph state.  Scoring records no tape.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, Var, bounded_tanh, softmax, take_rows
from .cells import CELL_KINDS, bind_params, final_state, init_params, named_tensors
from .data import Batch, EmbeddingMatrix, Vocab, init_embeddings, pad_batch
from .encoder import (
    ClassifierParams,
    EncoderConfig,
    cbow_encode,
    classify,
    doc_representation,
    encode_bidirectional,
    encode_forward,
    init_classifier,
)
from .schema import build_section

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
    def rep_width(self) -> int:
        if self.kind == "cbow":
            return self.d
        return self.encoder_config().rep_width

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "ModelConfig":
        """Inverse of ``to_dict``; raises ConfigError naming a malformed key."""
        return build_section(cls, raw, "config")


class DocModel:
    """A complete classifier: weights, vocabulary, and the forward pass."""

    def __init__(self, config: ModelConfig, vocab: Vocab,
                 embedding: EmbeddingMatrix, cell_fwd, cell_bwd,
                 clf: ClassifierParams):
        if embedding.width != config.d:
            raise ValueError(
                f"embedding width {embedding.width} != config d {config.d}"
            )
        if config.kind != "cbow" and cell_fwd is None:
            raise ValueError("recurrent model needs cell parameters")
        if config.bidirectional and cell_bwd is None:
            raise ValueError("bidirectional model needs backward cell parameters")
        if clf.n_classes != config.C:
            raise ValueError(f"classifier has {clf.n_classes} classes, config {config.C}")
        if clf.w.shape[1] != config.rep_width:
            raise ValueError(
                f"classifier width {clf.w.shape[1]} != representation width {config.rep_width}"
            )
        self.config = config
        self.vocab = vocab
        self.embedding = embedding
        self.cell_fwd = cell_fwd
        self.cell_bwd = cell_bwd
        self.clf = clf

    def named_tensors(self) -> dict:
        """All parameter arrays keyed by stable dotted names."""
        out = {"embedding": self.embedding.vectors}
        if self.cell_fwd is not None:
            for name, t in named_tensors(self.cell_fwd).items():
                out[f"fwd.{name}"] = t
        if self.cell_bwd is not None:
            for name, t in named_tensors(self.cell_bwd).items():
                out[f"bwd.{name}"] = t
        for name, t in named_tensors(self.clf).items():
            out[f"clf.{name}"] = t
        return out

    def set_named_tensors(self, tensors: dict) -> None:
        """Copy values into the model's arrays (shapes must match)."""
        own = self.named_tensors()
        for name, value in tensors.items():
            if name not in own:
                raise KeyError(f"model has no tensor named {name!r}")
            if own[name].shape != value.shape:
                raise ValueError(
                    f"tensor {name}: shape {value.shape} != expected {own[name].shape}"
                )
            own[name][...] = value

    def forward_batch(self, tape: Tape, batch: Batch):
        """Class probabilities for one padded batch.

        Returns (probs, leaves): a B x C Var and the name -> leaf Var map
        for every parameter that entered the graph.  The embeddings are
        gathered once, as one T x B x d Var, so the tape's size does not
        depend on T.  The mask path is skipped when no row is padded.
        """
        cfg = self.config
        leaves: dict[str, Var] = {}
        emb = tape.leaf(self.embedding.vectors)
        leaves["embedding"] = emb
        X = take_rows(emb, batch.ids.T)
        mask = None if batch.uniform_length else batch.mask
        if cfg.kind == "cbow":
            rep = cbow_encode(X, mask)
        else:
            enc_cfg = cfg.encoder_config()
            bound_f, leaves_f = bind_params(tape, self.cell_fwd)
            for name, v in leaves_f.items():
                leaves[f"fwd.{name}"] = v
            if cfg.bidirectional:
                bound_b, leaves_b = bind_params(tape, self.cell_bwd)
                for name, v in leaves_b.items():
                    leaves[f"bwd.{name}"] = v
                enc = encode_bidirectional(enc_cfg, bound_f, bound_b, X, mask)
            else:
                enc = encode_forward(enc_cfg, bound_f, X, mask)
            rep = doc_representation(enc)
        bound_clf, leaves_c = bind_params(tape, self.clf)
        for name, v in leaves_c.items():
            leaves[f"clf.{name}"] = v
        probs = classify(rep, bound_clf)
        return probs, leaves

    def probabilities(self, batch: Batch) -> np.ndarray:
        """Class probabilities for one padded batch, B x C, without a tape.

        Each step gathers its embedding rows and updates each direction's
        carried state; no per-step history is kept.  The result equals
        ``forward_batch(Tape(), batch)[0].value`` bit for bit.
        """
        cfg = self.config
        if batch.n_steps == 0:
            raise ValueError("cannot score a batch of empty documents")
        emb, ids = self.embedding.vectors, batch.ids
        mask = None if batch.uniform_length else batch.mask

        def steps(order):
            for t in order:
                yield emb[ids[:, t]], None if mask is None else mask[:, t:t + 1]

        forward = range(batch.n_steps)
        if cfg.kind == "cbow":
            total = None
            for x, m in steps(forward):
                term = x if m is None else x * m
                total = term if total is None else total + term
            rep = bounded_tanh(total)
        else:
            width = cfg.H // cfg.K  # the slowest group of the final h
            runs = [(self.cell_fwd, forward)]
            if cfg.bidirectional:
                runs.append((self.cell_bwd, reversed(forward)))
            rep = np.concatenate([final_state(cell, steps(order), batch.size)[1][:, :width]
                                  for cell, order in runs], axis=1)
        return softmax(rep @ self.clf.w.T + self.clf.b.T)

    def predict_batch(self, batch: Batch) -> np.ndarray:
        """Most probable class per row; ties resolve to the lower index.

        Raises ValueError if a probability is NaN or infinite, which a
        model holding non-finite weights produces.
        """
        probs = self.probabilities(batch)
        if not np.isfinite(probs).all():
            raise ValueError("model gives non-finite class probabilities "
                             "(its weights hold NaN or inf)")
        return np.argmax(probs, axis=1)

    def predict(self, docs: list, batch_size: int = 64) -> np.ndarray:
        """Predictions for a document list, in input order."""
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        preds = np.empty(len(docs), dtype=np.int64)
        for lo in range(0, len(docs), batch_size):
            chunk = docs[lo:lo + batch_size]
            preds[lo:lo + len(chunk)] = self.predict_batch(pad_batch(chunk, self.vocab))
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
    cell_fwd = cell_bwd = None
    if config.kind != "cbow":
        cell_fwd = init_params(config.kind, config.d, config.H,
                               n_groups=config.K, seed=s_fwd,
                               use_bias=config.use_bias)
        if config.bidirectional:
            cell_bwd = init_params(config.kind, config.d, config.H,
                                   n_groups=config.K, seed=s_bwd,
                                   use_bias=config.use_bias)
    clf = init_classifier(config.rep_width, config.C, seed=s_clf)
    return DocModel(config, vocab, embedding, cell_fwd, cell_bwd, clf)
