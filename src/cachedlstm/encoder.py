"""Sequence encoders and the document classification head.

A document is a sequence of embedded token vectors.  The recurrent encoders
run a cell over the steps (optionally in both directions) and the document
representation is the final hidden state of the slowest group: for a K-group
cell that is h_1 at the last step, of width H/K, and for bidirectional runs
the backward pass's h_1 at the first step is concatenated on.  Group 1 has
the lowest update rate, so it is the part of the state that accumulates
document-scale evidence rather than recent-token detail.

Each encoder is one tape node over one T x B x d input Var, X, and a {0,1}
B x T mask array; the recurrent ones also take a list of B x d step Vars,
joined by ``autodiff.stack_steps``, and a list of B x 1 mask Vars.  A unidirectional run is a ``cells.recurrence`` node whose
value is its final carried state; a bidirectional run is a
``cells.recurrence_pair`` node holding both directions' final states, and
X gets the sum of their gradients.  A row's state passes its masked steps
unchanged, so padding steps are bit-neutral to the final state.

The bag-of-words encoder (tanh of the sum of token vectors) shares the same
classifier head and serves as the non-recurrent baseline.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .autodiff import (
    ShapeError,
    Var,
    add_rowvec,
    bounded_tanh,
    concat_cols,
    matmul,
    record,
    slice_cols,
    softmax_rows,
    stack_steps,
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


def _steps(xs, mask) -> tuple:
    """(X, mask) as the kernel takes them, from lists of B x d and B x 1 Vars or as given."""
    X = xs if isinstance(xs, Var) else stack_steps(xs)
    if isinstance(mask, list):
        if len(mask) != X.shape[0]:
            raise ShapeError(f"mask has {len(mask)} steps, inputs have {X.shape[0]}")
        mask = np.hstack([v.value for v in mask])
    return X, mask


def _zero(cfg: EncoderConfig, X: Var) -> tuple:
    """(c0, h0), the zero initial state of one run over X."""
    st = zero_state(X.tape, X.shape[1], cfg.H, n_groups=cfg.K,
                    with_memory=cfg.cell_kind != "rnn")
    return st.c, st.h


def encode_forward(cfg: EncoderConfig, params, xs, mask=None) -> EncodedSequence:
    """Run the cell left to right over xs.

    xs is a T x B x d Var or a list of T B x d Vars.  mask, when given, is
    a B x T array or a list of B x 1 Vars, with entries in {0, 1}; a zero
    carries that row's state through the step unchanged.
    """
    X, mask = _steps(xs, mask)
    return EncodedSequence(cfg=cfg, fwd=recurrence(params, X, *_zero(cfg, X), mask))


def encode_bidirectional(cfg: EncoderConfig, fwd_params, bwd_params, xs,
                         mask=None) -> EncodedSequence:
    """Forward and reverse runs over the same steps; xs and mask as in ``encode_forward``.

    The reverse run consumes tokens last to first; with a mask the padded
    tail of each row is skipped exactly as in the forward direction, so the
    reverse final state reflects the row's first real token.  Both runs are
    one ``cells.recurrence_pair`` node, which runs them on two threads at
    large shapes; ``fwd`` and ``bwd`` are its two halves.
    """
    X, mask = _steps(xs, mask)
    both = recurrence_pair(X, mask, (fwd_params, *_zero(cfg, X)), (bwd_params, *_zero(cfg, X)))
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


def cbow_encode(X: Var, mask=None) -> Var:
    """Order-free document vector: tanh of the sum of token vectors, one tape node.

    X is a T x B x d Var and mask, when given, a B x T {0, 1} array; masked
    steps contribute nothing.  The steps are summed in order, as
    ``DocModel.probabilities`` does.  Width equals the token vector width.
    """
    if X.shape[0] == 0:
        raise ValueError("cbow_encode: empty sequence")
    M = None if mask is None else np.asarray(mask).T[:, :, None]  # T x B x 1
    out = bounded_tanh(functools.reduce(np.add, X.value if M is None else X.value * M))

    def vjp(g):
        g = g * (1.0 - out * out)
        return (np.broadcast_to(g, X.shape) if M is None else g * M,)

    return record(out, [X], vjp)
