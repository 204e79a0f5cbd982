"""Sequence encoders and the document classification head.

A document is a sequence of embedded token vectors.  The recurrent encoders
run a cell over the steps (optionally in both directions) and the document
representation is the final hidden state of the slowest group: for a K-group
cell that is h_1 at the last step, of width H/K, and for bidirectional runs
the backward pass's h_1 at the first step is concatenated on.  Group 1 has
the lowest update rate, so it is the part of the state that accumulates
document-scale evidence rather than recent-token detail.

Each encoder is one tape node over a row source E and a T x B array of
its row ids, whose step t reads the rows E[ids[t]], and a {0,1} B x T mask
array laid out as ``data.pad_batch`` lays it out, each row's real steps
first.  A batch passes (embedding, ids.T, mask), also when no row is
padded; scoring passes the same three to ``cells.final_states``, which
runs a bidirectional model's two directions in two processes when it may
use two CPUs, as ``cells.recurrence_pair`` does, and to ``cbow_vector``.
The recurrent encoders also take a list of B x d step Vars, which
``autodiff.stack_steps`` joins into a (T*B) x d source read with ids
arange(T*B).reshape(T, B), and a list of B x 1 mask Vars.  A
unidirectional run is a ``cells.recurrence`` node whose value is its final
carried state; a bidirectional run is a ``cells.recurrence_pair`` node
holding both directions' final states, and E gets the sum of their
gradients.  Each run starts from the zero state, which the kernel makes
itself (no kernel entry takes an initial state), so the tape holds no
zero leaves and the node no initial-state parents.  An encoder hands back
that one node.  ``representation`` cuts each direction's slowest group of
h out of the final states, for scoring from ``cells.final_states``'
arrays and, as one more node over the encoder's node
(``doc_representation``), for training.  Padded positions are not
computed: a row's state passes its masked steps unchanged, so padding
steps are bit-neutral to the final state.

The bag-of-words encoder (tanh of the sum of token vectors) shares the same
classifier head and serves as the non-recurrent baseline.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .autodiff import (
    RowSparse,
    ShapeError,
    Var,
    bounded_tanh,
    record,
    row_ids,
    softmax,
    stack_steps,
)
from .cells import CELL_KINDS, recurrence, recurrence_pair
# Not called here: perfbench's tracer patches these names in this module.
from .cells import clstm_step, lstm_step  # noqa: F401
from .data import INIT_SCALE


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

    ``final`` is the run's one tape node.  Its value is the final state
    after the last token, B x S: [c_T | h_T], or h_T alone for rnn, so h_T
    is its last H columns; bidirectional, it is [final_fwd | final_bwd],
    B x 2S, where final_bwd is the reverse run's final state, which has read
    the tokens last to first.
    """

    cfg: EncoderConfig
    final: Var


def _inputs(xs, mask) -> tuple:
    """(E, ids, mask) as the kernel takes them, from xs and mask as in ``encode_forward``."""
    if isinstance(xs, list):  # step t's B rows are rows t*B .. (t+1)*B - 1 of the stack
        xs = stack_steps(xs), np.arange(len(xs) * xs[0].rows).reshape(len(xs), -1)
    E, ids = xs
    if isinstance(mask, list):
        if len(mask) != len(ids):
            raise ShapeError(f"mask has {len(mask)} steps, inputs have {len(ids)}")
        mask = np.hstack([v.value for v in mask])
    return E, ids, mask


def _check(cfg: EncoderConfig, p) -> None:
    """ValueError, naming the field, if cell p's kind, H or K is not cfg's."""
    for field, got in (("cell_kind", p.kind), ("H", p.hidden_size), ("K", p.n_groups)):
        if got != (want := getattr(cfg, field)):
            raise ValueError(f"encoder config has {field}={want!r}, its cell weights {got!r}")


def encode_forward(cfg: EncoderConfig, params, xs, mask=None) -> EncodedSequence:
    """Run the cell left to right over xs, from the zero state.

    xs is a pair (E, ids), a row source Var and a T x B array of its row
    ids, or a list of T B x d Vars.  mask, when given, is a B x T array or
    a list of B x 1 Vars, with entries in {0, 1} and each row's real steps
    first, as ``data.pad_batch`` lays them out; a zero carries that row's
    state through the step unchanged.
    """
    E, ids, mask = _inputs(xs, mask)
    _check(cfg, params)
    return EncodedSequence(cfg, recurrence(params, E, ids, mask))


def encode_bidirectional(cfg: EncoderConfig, fwd_params, bwd_params, xs,
                         mask=None) -> EncodedSequence:
    """Forward and reverse runs over the same steps; xs and mask as in ``encode_forward``.

    The reverse run consumes tokens last to first, from the same mask: each
    row's padded tail comes first there and is skipped exactly as in the
    forward direction, so the reverse final state reflects the row's first
    real token.  Both runs, from the zero state, are one
    ``cells.recurrence_pair`` node, which runs the reverse one in a helper
    process when the process may use two CPUs.
    """
    E, ids, mask = _inputs(xs, mask)
    _check(cfg, fwd_params)
    _check(cfg, bwd_params)
    return EncodedSequence(cfg, recurrence_pair(E, ids, mask, fwd_params, bwd_params))


def representation(cfg: EncoderConfig, finals) -> np.ndarray:
    """The document representation, B x rep_width, from each direction's final state.

    ``finals`` lists the directions' B x S final states, [c_T | h_T] or h_T
    alone for rnn, so h_T is each one's last H columns.  The representation
    is the slowest group of each h_T, its first H/K columns, side by side.
    """
    return np.concatenate([v[:, -cfg.H:][:, :cfg.group_size] for v in finals], axis=1)


def doc_representation(enc: EncodedSequence) -> Var:
    """``representation`` of an encoder's final state, as one tape node over it.

    Width H/K, or 2H/K bidirectional.  With K = 1 this is the whole final
    hidden state, matching the usual last-state representation.  Its VJP
    writes the gradient into one zero array of the final state's shape,
    each entry plus 0.0, as the sum of the two directions' slice gradients
    made it for a pair, so a -0.0 arrives as 0.0 for one direction or two.
    """
    cfg, final = enc.cfg, enc.final
    runs = final.cols // ((1 + (cfg.cell_kind != "rnn")) * cfg.H)  # S = 2H, or H for rnn
    # The representation's columns of the final state, as ``representation`` cuts them.
    cols = representation(cfg, np.split(np.arange(final.cols)[None], runs, axis=1))[0]
    shape = final.shape

    def vjp(g):
        full = np.zeros(shape)
        full[:, cols] = g + 0.0
        return (full,)

    return record(representation(cfg, np.split(final.value, runs, axis=1)), [final], vjp)


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
    """Uniform [-INIT_SCALE, INIT_SCALE] weights, zero bias, seeded."""
    if n_classes < 2:
        raise ValueError(f"n_classes must be >= 2, got {n_classes}")
    rng = np.random.default_rng(seed)
    return ClassifierParams(
        w=rng.uniform(-INIT_SCALE, INIT_SCALE, size=(n_classes, rep_width)),
        b=np.zeros((n_classes, 1)),
    )


def class_probabilities(rep: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """softmax(rep W^T + b^T), one row of class probabilities per document, without a tape."""
    return softmax(rep @ w.T + b.T)


def classify(rep: Var, clf: ClassifierParams) -> Var:
    """``class_probabilities`` of rep and the head's Vars as one tape node; rows sum to 1."""
    z, w = rep.value, clf.w.value  # a closure over a Var would tie the tape into a cycle
    out = class_probabilities(z, w, clf.b.value)

    def vjp(g):
        dz = out * (g - (g * out).sum(axis=1, keepdims=True))  # through the softmax
        return dz @ w, (z.T @ dz).T, dz.sum(axis=0, keepdims=True).T

    return record(out, [rep, clf.w, clf.b], vjp)


def cbow_vector(source: np.ndarray, ids, mask) -> np.ndarray:
    """tanh of the sum over steps t of the rows source[ids[t]], B x d, without a tape.

    ``ids`` is a T x B array of row ids and ``mask`` a B x T {0, 1} array;
    masked steps contribute nothing, and x * 1.0 keeps every bit of a real
    step's x.  The steps are summed in order.
    """
    ids = row_ids(ids, len(source), ndim=2)
    if len(ids) == 0:
        raise ValueError("cbow_encode: empty sequence")
    steps = (source[i] * m[:, None] for i, m in zip(ids, np.asarray(mask).T))
    return bounded_tanh(functools.reduce(np.add, steps))


def cbow_encode(E: Var, ids, mask) -> Var:
    """Order-free document vector, ``cbow_vector`` of (E, ids, mask), as one tape node.

    E gets one ``RowSparse`` gradient over ``ids[::-1].ravel()``, listed
    last step first as in ``cells.recurrence``.  Width equals E's width.
    """
    out, shape = cbow_vector(E.value, ids, mask), E.shape
    M = np.asarray(mask).T[::-1, :, None]  # step t's mask column, last step first

    def vjp(g):
        rows = (g * (1.0 - out * out) * M).reshape(-1, shape[1])
        return (RowSparse(np.asarray(ids)[::-1].ravel(), rows, shape),)

    return record(out, [E], vjp)
