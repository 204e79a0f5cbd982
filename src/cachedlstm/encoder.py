"""Sequence encoders and the document classification head.

A document is a sequence of embedded token vectors.  The recurrent encoders
run a cell over the steps (optionally in both directions) and the document
representation is the final hidden state of the slowest group: for a K-group
cell that is h_1 at the last step, of width H/K, and for bidirectional runs
the backward pass's h_1 at the first step is concatenated on.  Group 1 has
the lowest update rate, so it is the part of the state that accumulates
document-scale evidence rather than recent-token detail.

A unidirectional run is one ``cells.recurrence`` tape node whose value is
its final carried state; a bidirectional run is one
``cells.recurrence_pair`` node holding both directions' final states.
Variable-length batches are handled with a per-step {0,1} mask: a row's
state passes its masked steps unchanged, so padding steps are bit-neutral
to the final state.

The bag-of-words encoder (tanh of the sum of token vectors) shares the same
classifier head and serves as the non-recurrent baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    ShapeError,
    Var,
    add,
    add_rowvec,
    concat_cols,
    matmul,
    mul_colvec,
    slice_cols,
    softmax_rows,
    tanh_,
    transpose,
)
from .cells import CELL_KINDS, recurrence, recurrence_pair, zero_state
# Not called here: perfbench's tracer patches these names in this module.
from .cells import clstm_step, lstm_step  # noqa: F401


@dataclass(frozen=True)
class EncoderConfig:
    """Static description of one recurrent encoder.

    cell_kind: one of 'rnn', 'lstm', 'cifg', 'clstm'.
    d: token vector width.  H: total hidden units.  K: memory groups
    (1 unless clstm).  C: number of output classes.
    """

    cell_kind: str
    d: int
    H: int
    K: int = 1
    C: int = 2
    bidirectional: bool = False

    def __post_init__(self):
        if self.cell_kind not in CELL_KINDS:
            raise ValueError(
                f"cell_kind must be one of {CELL_KINDS}, got {self.cell_kind!r}"
            )
        if self.d < 1 or self.H < 1:
            raise ValueError(f"d and H must be positive, got d={self.d}, H={self.H}")
        if self.K < 1:
            raise ValueError(f"K must be >= 1, got {self.K}")
        if self.cell_kind != "clstm" and self.K != 1:
            raise ValueError(f"K={self.K} only makes sense for clstm cells")
        if self.H % self.K != 0:
            raise ValueError(f"H={self.H} is not divisible by K={self.K}")
        if self.C < 2:
            raise ValueError(f"C must be >= 2, got {self.C}")

    @property
    def group_size(self) -> int:
        return self.H // self.K

    @property
    def rep_width(self) -> int:
        """Width of the document representation fed to the classifier."""
        return (2 if self.bidirectional else 1) * self.group_size


@dataclass
class EncodedSequence:
    """The final states of an encoder run over T steps.

    ``fwd`` is the final state after the last token, B x S: [c_T | h_T],
    or h_T alone for rnn, so h_T is its last H columns.  ``bwd`` is the
    reverse run's final state, which has read the tokens last to first, or
    None for unidirectional runs; bidirectional, both are column slices of
    one two-direction node.
    """

    cfg: EncoderConfig
    fwd: Var
    bwd: Var | None = None


def _args(cfg: EncoderConfig, params, xs: list, mask: list | None) -> tuple:
    """The arguments of ``cells.recurrence`` for one run over xs from the zero state."""
    if not xs:
        raise ValueError("encode_forward: empty sequence")
    if mask is not None and len(mask) != len(xs):
        raise ShapeError(f"mask has {len(mask)} steps, inputs have {len(xs)}")
    st = zero_state(xs[0].tape, xs[0].rows, cfg.H, n_groups=cfg.K,
                    with_memory=cfg.cell_kind != "rnn")
    m = None if mask is None else np.hstack([v.value for v in mask])
    return params, xs, st.c, st.h, m


def encode_forward(cfg: EncoderConfig, params, xs: list,
                   mask: list | None = None) -> EncodedSequence:
    """Run the cell left to right over xs (a list of B x d Vars).

    mask, when given, is a list of B x 1 Vars with entries in {0, 1}; a zero
    carries that row's state through the step unchanged.
    """
    return EncodedSequence(cfg=cfg, fwd=recurrence(*_args(cfg, params, xs, mask)))


def encode_bidirectional(cfg: EncoderConfig, fwd_params, bwd_params, xs: list,
                         mask: list | None = None) -> EncodedSequence:
    """Forward and reverse runs over the same steps.

    The reverse run consumes tokens last to first; with a mask the padded
    tail of each row is skipped exactly as in the forward direction, so the
    reverse final state reflects the row's first real token.  Both runs are
    one ``cells.recurrence_pair`` node, which runs them on two threads at
    large shapes; ``fwd`` and ``bwd`` are its two halves.
    """
    rev_mask = None if mask is None else mask[::-1]
    both = recurrence_pair(_args(cfg, fwd_params, xs, mask),
                           _args(cfg, bwd_params, xs[::-1], rev_mask))
    S = both.cols // 2
    return EncodedSequence(cfg=cfg, fwd=slice_cols(both, 0, S), bwd=slice_cols(both, S, 2 * S))


def doc_representation(enc: EncodedSequence) -> Var:
    """Slowest-group final hidden state; both directions when bidirectional.

    Width H/K, or 2H/K bidirectional.  With K = 1 this is the whole final
    hidden state, matching the usual last-state representation.
    """
    cfg = enc.cfg

    def first_group(run: Var) -> Var:
        start = run.cols - cfg.H  # h_T
        return slice_cols(run, start, start + cfg.group_size)

    if enc.bwd is None:
        return first_group(enc.fwd)
    return concat_cols([first_group(enc.fwd), first_group(enc.bwd)])


@dataclass
class ClassifierParams:
    """Softmax head: p = softmax(W z + b) with W of C x rep_width, b of C x 1."""

    w: object
    b: object

    def __post_init__(self):
        c = self.w.shape[0]
        if tuple(self.b.shape) != (c, 1):
            raise ShapeError(
                f"ClassifierParams: b must be {c}x1, got {tuple(self.b.shape)}"
            )

    @property
    def n_classes(self) -> int:
        return self.w.shape[0]


def init_classifier(rep_width: int, n_classes: int, seed=0) -> ClassifierParams:
    """Uniform [-0.1, 0.1] weights, zero bias, seeded."""
    if n_classes < 2:
        raise ValueError(f"n_classes must be >= 2, got {n_classes}")
    rng = np.random.default_rng(seed)
    return ClassifierParams(
        w=rng.uniform(-0.1, 0.1, size=(n_classes, rep_width)),
        b=np.zeros((n_classes, 1)),
    )


def classify(rep: Var, clf: ClassifierParams) -> Var:
    """Class probabilities, one row per document; rows sum to 1."""
    logits = add_rowvec(matmul(rep, transpose(clf.w)), transpose(clf.b))
    return softmax_rows(logits)


def cbow_encode(xs: list, mask: list | None = None) -> Var:
    """Order-free document vector: tanh of the sum of token vectors.

    Masked steps contribute nothing.  Width equals the token vector width.
    """
    if not xs:
        raise ValueError("cbow_encode: empty sequence")
    if mask is not None and len(mask) != len(xs):
        raise ShapeError(f"mask has {len(mask)} steps, inputs have {len(xs)}")
    total = None
    for t, x in enumerate(xs):
        term = x if mask is None else mul_colvec(x, mask[t])
        total = term if total is None else add(total, term)
    return tanh_(total)
