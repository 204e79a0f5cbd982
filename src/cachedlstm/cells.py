"""Recurrent cells: one stacked-gate layout and one kernel for four kinds.

rnn, lstm, cifg and clstm are one unit with different gate sets.  Inputs
are row-batched (B x d) and states are B x H.  A kind with G gates stores
them stacked along rows in the order of ``GATES``: ``w`` is G*H x d, ``u``
is G*H x H and ``b`` is G*H x 1 or None.  With a_g = W_g x + U_g h + b_g,
i, f, o = sigmoid(a) and c~ = tanh(a_c):

    rnn    (h)          h' = tanh(a_h)
    lstm   (i, f, o, c) c' = f c + i c~,        h' = o tanh(c')
    cifg   (f, o, c)    c' = f c + (1 - f) c~,  h' = o tanh(c')
    clstm  (r, o, c)    c' = (1 - r) c + r c~,  h' = o tanh(c')

The clstm cell partitions its H units into K equal groups.  Group k's
update rate r = sigmoid(a_r)/K + (k-1)/K lies strictly inside
((k-1)/K, k/K), so group 1 changes slowest (long-term memory) and group K
fastest (cache-like short-term memory).  Small r means long retention: the
candidate is blended in at rate r.  Within each gate's block the rows of
group k hold W^k, and their columns of group j in ``u`` hold the
cross-group matrix U^{j->k}, so one product evaluates all K^2 cross-group
terms.

``recurrence`` runs a cell over T steps and records one tape node whose
value is the final state [c_T | h_T], with a hand-written VJP that keeps
each step's gate activations and, every ceil(sqrt(T)) steps, the carried
c.  Its input is a row source E, such as the embedding matrix, and a T x B
array of row ids: step t reads the rows E[ids[t]], which it gathers
itself.  Its mask is a B x T {0, 1} array laid out as ``data.pad_batch``
lays it out, the only layout it takes: each row's real steps come first,
then its padding.  It starts from the zero state, as ``recurrence_pair``
and ``final_state`` do; only the single-step functions, which run the
kernel at T = 1 through ``_recurrence``, carry a state into it.  A reverse
run, which only the second direction of a pair makes (``_second``), reads
the steps last first, so its rows' real steps start late and all end at
its last step; the kernel builds that from the same mask.

One kernel, ``_run``, runs every recurrent pass on arrays, and it alone
calls the step function, ``_step``: ``recurrence`` runs it on the values
of its Vars and keeps the history its VJP needs; ``final_state`` runs it
without a tape or history, and keeps only the carried state, for scoring
(``final_states`` runs it for each direction of a model); and the helper
process (below) runs it on the arrays it receives.
So training and scoring make the same products in the same column order
and at the same widths.

Inside the kernel the batch runs along columns: a step's activations are
G*H x b (``W x_t^T``) and the carried state is one contiguous 2H x b array,
[c; h] (h alone, H x b, for rnn), so each gate block, c and h are each one
contiguous slab of rows.  A padded batch's columns are its rows in a stable
order of real-step counts, longest first, so the rows real at step i of the
run are its first b_i columns, and the carried state holds those alone:
when a step is narrower than the one before, the ended rows' columns are
copied out and set aside, and when it is wider (at a run's first step, and
as a reverse run's rows start), the starting rows' columns of the initial
state are appended.  ``_step`` gathers its own b_i x d input rows and drops
them once ``W x`` is made, so they are not alive while ``U h`` is made;
``W x``, ``U h``, the gates and the blend are b_i wide, and it writes
(c', h') over the whole of its (c, h).  So no step computes on a strided
view, which numpy copies for ``U h`` (a preset-shape clstm scoring
direction, B = 64, T = 100, rows ending at 64 distinct steps, traced
705.9 kB instead of 823.8 with a full-width H x B state, and 556.8 kB once
the band was one array and the input rows were freed before ``U h``: one
step's working set, whose peak is the ``U h`` product), and padded
positions are never computed, so nothing masks them out.  An unpadded batch
runs the same way: its order is the identity and every step is B wide.
The zero start, which scoring and the encoders use, is a read-only
broadcast of 0.0, not an initial state: 2H x B zeros would add 123 kB at
B = 64, H = 120.  ``_step`` writes write * c~, then tanh(c'), into
``write``, a fresh array except for lstm, whose write is a view of ``a``
and so takes one H x b temporary.  The bias is added as its G*H x 1
column.  clstm's z/K is clamped to two scalar bounds, which ``_band``
derives from K alone, and then gets its group's offset (k-1)/K from one
H x B array built once per run, of which a step reads its first b_i
columns; the offset and two clamps of r as three such arrays were 184 kB of
that scoring peak.  Step i reads its b_i ids from its row of ``ids``
through perm[:b_i], in the forward pass and again in the VJP, so no T x B
run-order copy of the ids is made.

The per-step history is kept for the VJP (``_vjp``) in this layout: each
step's G*H x b_i activations, one slab per step in a list, and, for the
gated kinds, a checkpoint of the c carried into every S-th step, as an
H x b slab, with S = ceil(sqrt(T)).  The VJP walks back through the steps
in segments of S steps, and rebuilds the rest bit for bit from the
activations of the steps before step i, which are still intact when it
reaches step i.  At a segment's last step it reruns ``_step``'s blend,
c' = keep * c + write * c~, from the segment's checkpoint over the
segment's stored activations, into one buffer of S*H*b floats that every
segment reuses, and keeps each step's keep and write for the gate
gradients.  Like the gate gradients' scratch, the buffer is as wide as the
widest step met so far, b, and grows when a wider one comes: a forward
run's VJP meets its narrowest steps first, so both are small while all the
history is alive (a reverse run meets its widest first).
Then, step by step, it takes tanh(c') of the rebuilt c in place, and the h
the step starts from as o tanh(c') of step i-1, or as h0 for the rows
whose real steps start at step i (see ``_vjp``).  So c costs the
checkpoints and the buffer, at most about 2 sqrt(T) H x B slabs, instead
of T.
The activations stay stored: rebuilding them too would rerun the whole
forward pass, measured at +42% kernel time at the needle shape and +36% at
the preset shape.  The VJP's products run b_i wide too; its dh and dc stay
B wide, and step i changes only their first b_i columns.  It drops each
step's slabs once read, so the history shrinks as the gradient rows grow.
No T x B x d copy of the inputs is kept: the VJP gathers x_t = E[ids[t]]
again.  Tape values, gradients and the results of ``final_state`` stay
row-batched, in input order.  The VJP sums the weight gradients inside its
step loop, last step first (``dW += a @ x_t``, ``dU += a @ h_prev.T`` with
the rebuilt h, ``db += a.sum(1)``), so it makes no T*B x G*H copy of the
step gradients.  E's gradient is one ``RowSparse`` over the real
positions: step t's rows ``a.T @ W`` are listed last step first, the order
in which ``backward`` would meet T gathers of one step, each step's in the
kernel's column order.  For an unpadded batch that is
``ids[::-1].ravel()``.

``recurrence_pair`` records the two directions of a bidirectional encoder
as one node whose value is their final states side by side.  Both start
from the zero state and read one (E, ids); the second runs with
``reverse``, from ids[T-1] to ids[0], in the same column order, and lists
the same real positions in the same order as the first.  The node lists E
once, with the second direction's rows added into the first's, so nothing
is copied in reverse.  ``_second`` runs every second direction, of
training and of scoring: when the process may use two CPUs, in a helper
process while the caller runs the first, else after it, here.  The
helper is one child Python per process, started by the first pair or
scoring call that needs it, and it exits when the caller closes its
socket or dies.  It answers three requests: ``memory`` (its traced
peak), ``run`` and ``vjp``.  A run request carries six entries, the same
for training and scoring: the batch's distinct rows of E, the ids
renumbered into them, the second direction's w, u and b, and its mask
(as bools); and the caller's numpy error state.  The helper runs the
reverse kernel from zero and sends back its value.  A training request
carries a call id, under which the helper keeps the direction's history;
a scoring request's id is None, and the helper keeps nothing.  The VJP
request sends the gradient and gets back E's rows, dW, dU and db.
Arrays cross the socket as raw bytes, read into place, so neither side
holds a pickled copy, and E's rows are gathered as they are written, a
few at a time, so the caller never holds a copy of them while it runs
its own direction.  A read or write of the caller's socket that waits
600 s (``_ANSWER_TIMEOUT``) stops the helper and raises
``HelperError``, so a helper that stops answering ends the run instead
of hanging it.
The renumbered ids are gathered the same way, from a table with one entry
per row of E that ``_distinct_rows`` fills: the ids mark their rows, the
marked rows are the distinct ids, sorted, and each gets its place among
them.  The table is int32 for fewer than 2^31 rows, and the helper's kernel
indexes with the int32 ids it receives.
``np.unique(ids, return_inverse=True)`` held ~41 bytes per position in the
caller, most of its peak at T = 2000.  Both processes run the same code on
equal values, so the bits are those of a serial run.
Two *threads* were measured before: serial over threaded time was
1.72-1.86x at H*B = 15,360 (the preset shape) but 0.61-0.66x at the
needle shape's 960, where the GIL made them wait on each other.  A
process shares no GIL: with the helper, a padded needle-shape bi-clstm
training step ran 1.8x faster than serial, and the needle benchmark,
whose lstm model has one direction, trained 1.33x more tokens per second.

Scoring a bidirectional model (``final_states``) splits its directions
the same way: the helper sends back the second direction's value,
[c_T | h_T] (h_T for rnn), the array a training node holds, and keeps
nothing.  Two threads had doubled the calling process's per-step
temporaries, which are most of scoring's memory; the helper holds its
own, so the caller's peak does not grow, and the review scoring
benchmark scored ~1.8x more documents per second.
"""

from __future__ import annotations

import atexit
import collections
import dataclasses
import functools
import itertools
import math
import os
import pickle
import signal
import socket
import subprocess
import sys
import threading
import tracemalloc
import weakref
from dataclasses import dataclass

import numpy as np

from .autodiff import (RowSparse, ShapeError, Tape, Var, bounded_tanh, logistic, record,
                       row_ids, slice_cols, stack_steps)
from .data import INIT_SCALE

CELL_KINDS = ("rnn", "lstm", "cifg", "clstm")
GATES = {"rnn": "h", "lstm": "ifoc", "cifg": "foc", "clstm": "roc"}

@dataclass
class CellParams:
    """Stacked weights of one cell; see the module docstring for the layout.

    ``w_g``, ``u_g`` and ``b_g`` (for a gate letter g of the kind, such as
    ``p.w_c`` or ``p.u_r``) are views of gate g's row block.
    """

    kind: str
    n_groups: int
    w: object  # (G*H, d)
    u: object  # (G*H, H)
    b: object | None = None  # (G*H, 1)

    def __post_init__(self):
        if self.kind not in CELL_KINDS:
            raise ValueError(f"unknown cell kind {self.kind!r}; expected one of {CELL_KINDS}")
        if self.n_groups < 1 or (self.kind != "clstm" and self.n_groups != 1):
            raise ValueError(f"{self.kind}: invalid group count {self.n_groups}")
        n_gates = len(GATES[self.kind])
        rows, width = tuple(self.w.shape)
        hidden = rows // n_gates
        for name, want in (("w", (n_gates * hidden, width)), ("u", (rows, hidden)),
                           ("b", (rows, 1))):
            t = getattr(self, name)
            if t is not None and tuple(t.shape) != want:
                raise ShapeError(f"{self.kind}: {name} must be {want[0]}x{want[1]}, "
                                 f"got {tuple(t.shape)}")
        if hidden % self.n_groups != 0:
            raise ValueError(f"hidden size {hidden} not divisible by {self.n_groups} groups")

    @property
    def hidden_size(self) -> int:
        return self.u.shape[1]

    def __getattr__(self, name: str):
        tensor, _, gate = name.partition("_")
        gates = GATES.get(self.__dict__.get("kind"), "")
        if tensor not in ("w", "u", "b") or len(gate) != 1 or gate not in gates:
            raise AttributeError(name)
        full = getattr(self, tensor)
        if full is None:
            return None
        h = self.hidden_size
        i = gates.index(gate)
        return full[i * h:(i + 1) * h]


def _stacked(kind: str, n_groups: int, ws, us, bs) -> CellParams:
    """CellParams from per-gate tensors; missing biases are zero if any is given."""
    b = None
    if any(t is not None for t in bs):
        b = np.vstack([np.zeros((len(u), 1)) if t is None else t for t, u in zip(bs, us)])
    return CellParams(kind, n_groups, np.vstack(ws), np.vstack(us), b)


def CifgParams(w_f, w_o, w_c, u_f, u_o, u_c, b_f=None, b_o=None, b_c=None) -> CellParams:
    """cifg parameters stacked from per-gate tensors; the input gate is 1 - f."""
    return _stacked("cifg", 1, (w_f, w_o, w_c), (u_f, u_o, u_c), (b_f, b_o, b_c))


def ClstmParams(n_groups, w_r, w_o, w_c, u_r, u_o, u_c, b_r=None, b_o=None,
                b_c=None) -> CellParams:
    """clstm parameters stacked from per-gate, group-concatenated tensors."""
    return _stacked("clstm", n_groups, (w_r, w_o, w_c), (u_r, u_o, u_c), (b_r, b_o, b_c))


@dataclass
class CellState:
    """Memory and hidden state of a gated cell, B x H each.

    Group k (1-based) of a K-group state occupies columns
    [(k-1)*H/K, k*H/K).
    """

    c: Var
    h: Var
    n_groups: int = 1


@dataclass
class ForgetRates:
    """Update rates of one clstm step, B x H, group k inside ((k-1)/K, k/K).

    ``r`` is recorded as a tape constant: no gradient flows through it.
    """

    r: Var
    n_groups: int


def zero_state(tape: Tape, batch: int, hidden: int, n_groups: int = 1) -> CellState:
    """All-zero initial state at t=0, as two leaves of ``tape``."""
    h = tape.leaf(np.zeros((batch, hidden)))
    return CellState(c=tape.leaf(np.zeros((batch, hidden))), h=h, n_groups=n_groups)


def _band(hidden: int, n_groups: int, batch: int) -> tuple:
    """(1/K, lo, hi, off): the scale, the scalar bounds of z/K, and the offset (k-1)/K.

    ``off`` is H x B, each column the same, so the per-step rate arithmetic
    runs on contiguous arrays without broadcasting.  For K >= 2 the bounds
    are [2^-52, fl(1/K) - 2^-52].  A z/K within them stays as it is, so r
    has the bits of the unclamped sum; since an offset below 1 has an ulp
    of at most 2^-53, a clamped one gives a rate strictly inside
    ((k-1)/K, k/K), 2^-52 above its lower edge or within 2^-51 of its upper
    one.  For K = 1 they never bite: r is z, which ``logistic`` keeps
    inside (0, 1).
    """
    scale = 1.0 / n_groups
    lo, hi = (0.0, 1.0) if n_groups == 1 else (2.0 ** -52, scale - 2.0 ** -52)
    off = np.repeat(np.arange(n_groups) / n_groups, hidden // n_groups)
    return scale, lo, hi, np.repeat(off[:, None], batch, axis=1)


def _rates(z: np.ndarray, band: tuple) -> np.ndarray:
    """r = z/K + (k-1)/K, with z/K clamped so that a saturated z cannot reach a band edge.

    A z of b columns reads the first b columns of the band's offset.
    """
    scale, lo, hi, off = band
    b = z.shape[1]
    if b != off.shape[1]:  # slicing at full width cost ~5% of a needle-shape run
        off = off[:, :b]
    r = z * scale
    np.maximum(r, lo, out=r)
    np.minimum(r, hi, out=r)
    r += off
    return r


def _keep_write(kind: str, a: np.ndarray, hidden: int, band) -> tuple:
    """(keep, write) of c' = keep * c + write * c~ from one step's activations."""
    if kind == "lstm":
        return a[hidden:2 * hidden], a[:hidden]
    if kind == "cifg":
        f = a[:hidden]
        return f, 1.0 - f
    r = _rates(a[:hidden], band)
    return 1.0 - r, r


def _step(kind: str, source: np.ndarray, ids: np.ndarray, W: np.ndarray, c, h: np.ndarray,
          U: np.ndarray, bias, band, out: np.ndarray | None = None) -> None:
    """One cell step over the b input rows x_t = source[ids], written over its H x b (c, h).

    States are H x b, one column per row real at the step, so each gate
    block ``a[g*H:(g+1)*H]`` is one contiguous slab.  Gathers x_t, projects
    a = W x_t^T, G*H x b, into ``out`` (a new array when None) and drops
    x_t, so that it is not alive while U h is made; adds U h, then the
    G*H x 1 bias, and overwrites ``a`` with the gate activations (sigmoids,
    then tanh(a_c)).  Then it overwrites c with c' and h with h' (for rnn,
    a copy of ``a``; c is None there).
    """
    H = U.shape[1]
    a = np.matmul(W, source[ids].T, out=out)
    a += U @ h
    if bias is not None:
        a += bias
    if kind == "rnn":
        h[...] = bounded_tanh(a, out=a)
        return
    logistic(a[:-H], out=a[:-H])
    bounded_tanh(a[-H:], out=a[-H:])
    keep, write = _keep_write(kind, a, H, band)
    # write * c~, then tanh(c'), into one H x b array: write itself, unless
    # it is lstm's i, a view of ``a``, which the VJP reads.
    blend = np.multiply(write, a[-H:], out=None if kind == "lstm" else write)
    c *= keep
    c += blend
    np.multiply(a[-2 * H:-H], bounded_tanh(c, out=blend), out=h)


def _gate_grads(kind: str, a: np.ndarray, tc: np.ndarray, c_prev: np.ndarray,
                keep: np.ndarray, write: np.ndarray, dh: np.ndarray, dc: np.ndarray, band,
                up: np.ndarray) -> None:
    """Backward through one gated step; overwrites ``a`` with dLoss/dpre.

    ``a`` holds the step's gate activations (G*H x b), ``tc`` its tanh(c'),
    ``c_prev`` the c it starts from, and ``keep`` and ``write`` its blend
    weights as ``_keep_write`` gives them (keep None for clstm, which makes
    it here); ``dh`` and ``dc`` are the gradients of its h' and c' (dc
    without the path through h').  ``up`` is G*H - H x b scratch.
    Overwrites ``dc`` with the part of dc' that the blend carries back to
    c, dc' * keep.  Every product is written into an existing array where
    that keeps its bits.
    """
    H = tc.shape[0]
    sig, o, ctil = a[:-H], a[-2 * H:-H], a[-H:]
    scratch = up[-H:]
    np.multiply(tc, tc, out=scratch)
    np.subtract(1.0, scratch, out=scratch)
    via_h = dh * o
    via_h *= scratch
    dc += via_h  # dc', now with the path through h'
    dwrite = dc * ctil
    dkeep = np.multiply(dc, c_prev, out=via_h)
    np.multiply(ctil, ctil, out=scratch)
    np.subtract(1.0, scratch, out=scratch)
    np.multiply(dc, write, out=ctil)
    ctil *= scratch
    if keep is None:  # clstm's 1 - r, into the scratch that is free again
        keep = np.subtract(1.0, write, out=scratch)
    dc *= keep
    # Each sigmoid gate s with upstream gradient u gets u s (1 - s).
    np.multiply(dh, tc, out=up[-H:])
    if kind == "lstm":
        up[:H], up[H:2 * H] = dwrite, dkeep
    elif kind == "cifg":
        np.subtract(dkeep, dwrite, out=up[:H])
    else:
        np.subtract(dwrite, dkeep, out=up[:H])
        up[:H] *= band[0]
    up *= sig
    np.subtract(1.0, sig, out=sig)
    sig *= up


def _order(mask, T: int, B: int, reverse: bool) -> tuple:
    """(perm, widths): the column order of a run over T x B ids, and its step widths.

    ``mask`` is None or B x T with each row's real (nonzero) steps first,
    as ``data.pad_batch`` lays it out.  ``perm`` is the stable argsort of
    the rows' real-step counts, longest first, and ``widths[i]`` the number
    of rows real at step i of the run, which are perm's first ``widths[i]``
    rows.  Without a mask, or when every position is real, that is the
    identity and every width is B.  Raises ShapeError for a mask of another
    shape and ValueError, naming the row, for a row with a real step after
    a padded one.
    """
    if mask is None:
        return np.arange(B), [B] * T
    real = np.asarray(mask) != 0
    if real.shape != (B, T):
        raise ShapeError(f"mask must be {B}x{T} (batch x steps), got "
                         f"{'x'.join(map(str, real.shape))}")
    bad = np.flatnonzero((real[:, 1:] > real[:, :-1]).any(axis=1))
    if bad.size:
        raise ValueError(f"recurrence: mask row {bad[0]} has a real step after a padded "
                         "one; each row's real steps must come first")
    n = real.sum(axis=1)
    # The rows real at step t have more than t real steps; a reverse run
    # meets the steps, and so the widths, last first.
    widths = B - np.cumsum(np.bincount(n, minlength=T + 1)[:T])
    return np.argsort(-n, kind="stable"), (widths[::-1] if reverse else widths).tolist()


def _cols(rows: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """A B x H state as H x B C-contiguous columns, in ``perm`` order."""
    return np.ascontiguousarray(rows[perm].T)


def _rows(cols: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """H x B columns in ``perm`` order as C-contiguous B x H rows in input order."""
    return cols.T[np.argsort(perm)]


def _started(prev: np.ndarray, init: np.ndarray, b: int) -> np.ndarray:
    """The state a step of width b starts from.

    ``prev`` holds the previous step's carried columns, at most b of them;
    the rows whose real steps start at this step take ``init``'s columns.
    """
    n = prev.shape[1]
    return prev if n == b else np.concatenate([prev, init[:, n:b]], axis=1)


def _run(p: CellParams, source: np.ndarray, ids, c0, h0, mask=None, reverse: bool = False,
         history: bool = False) -> tuple:
    """(value, vjp, acts): the cell run over the rows source[ids[t]], on arrays.

    ``p`` holds arrays, ``ids`` is T x B and ``mask`` is as in
    ``recurrence``.  (c0, h0) are both None for the zero state, or B x H
    arrays, which only the single-step functions give (through
    ``_recurrence``); c0 is None for rnn.  With ``reverse`` the run reads
    ids[T-1] first, and so each row's padding before its real steps; only
    ``_second`` runs one.  The value is the final state, row-batched in
    input order: [c_T | h_T], B x 2H, or h_T, B x H, for rnn.  With
    ``history`` the run keeps ``acts``, the list
    of its G*H x b activation slabs, first step of the run first, and a
    checkpoint of the carried c every S = ceil(sqrt(T)) steps, and ``vjp``
    maps the value's gradient to those of source (one ``RowSparse``), w, u,
    b (when p has one) and, when the run was given its initial state, c0
    (not for rnn) and h0.  Without it both are None and the run keeps only
    the carried state.  See the module docstring.
    """
    kind, H, W, U, bias = p.kind, p.hidden_size, p.w, p.u, p.b
    gated = kind != "rnn"
    ids = row_ids(ids, len(source), ndim=2)
    (T, B), (GH, d) = ids.shape, W.shape
    if source.shape[1] != d:
        raise ShapeError(f"input width {source.shape[1]}, expected {d}")
    if T == 0:
        raise ValueError("recurrence: empty sequence")
    perm, widths = _order(mask, T, B, reverse)
    band = _band(H, p.n_groups, B) if kind == "clstm" else None
    # Step i reads run_ids[i][perm[:b]]: a T x B copy of the ids in run
    # order would add 8 bytes per position.
    run_ids = ids[::-1] if reverse else ids
    if h0 is None:  # a zeros array would add 2H x B floats to the peak
        if c0 is not None:
            raise ValueError(f"{kind}: an initial c needs an initial h")
        init = np.broadcast_to(0.0, ((1 + gated) * H, B))
    elif gated and c0 is None:
        raise ShapeError(f"{kind}: the initial state needs a memory c")
    else:  # [c0; h0] (h0 for rnn) as columns in perm order
        init = _cols(np.hstack([c0, h0]) if gated else h0, perm)
    S = math.isqrt(T - 1) + 1  # segment length, ceil(sqrt(T))
    acts = []  # acts[i]: step i's activations, written by its ``_step``
    # checkpoints[s]: the c that step s*S-1 carries out, c0 for s = 0
    checkpoints = [init[:H]] if history else None
    live = np.empty((len(init), 0))  # [c; h] (h for rnn) of the rows real at the step
    ended = []  # the columns of rows whose real steps have ended, in the order they ended
    for i, b in enumerate(widths):
        if history and gated and i and i % S == 0:
            checkpoints.append(live[:H].copy())
        if b < live.shape[1]:
            ended.append(live[:, b:].copy())
            live = live[:, :b].copy()
        live = _started(live, init, b)
        if history:
            acts.append(np.empty((GH, b)))
        _step(kind, source, run_ids[i][perm[:b]], W, live[:H] if gated else None, live[-H:],
              U, bias, band, out=acts[i] if history else None)
    # All B columns in perm order; rows with no real step keep their initial state.
    value = _rows(np.concatenate([live, *ended[::-1], init[:, max(widths):]], axis=1), perm)
    if not history:
        return value, None, None
    return value, _vjp(p, source, run_ids, perm, widths, init, h0 is not None, band, reverse,
                       acts, checkpoints), acts


def _vjp(p: CellParams, source, run_ids, perm, widths, init, given: bool, band, reverse, acts,
         checkpoints):
    """The VJP of one ``_run`` with history, from the arrays of that run.

    ``given`` says whether the run was given its initial state; only then
    does the VJP return its gradients.  A function apart from ``_run``, not
    a closure in it: the cells of a closure's variables are made at every
    call, also a scoring call that makes no VJP, which added ~1 kB to a
    scoring pass's traced peak.
    """
    kind, H, W, U, bias = p.kind, p.hidden_size, p.w, p.u, p.b
    gated = kind != "rnn"
    (T, B), (GH, d) = (len(widths), len(perm)), W.shape
    S = math.isqrt(T - 1) + 1  # segment length, as in ``_run``

    def vjp(g):
        # Walks back through the steps and drops each step's activations once
        # read, so the history shrinks as E's gradient rows grow.  Step i of
        # width b computes only on the first b columns; dh and dc stay B wide,
        # and the columns past b carry their gradients past the step
        # unchanged.  Step i's activations are overwritten with the gradients
        # of its pre-activations, so the VJP can run only once.  The rest of
        # step i is rebuilt, bit for bit, while the activations of the steps
        # before it are intact:
        # - at the last step of each segment of S steps, the c that each of
        #   the segment's steps carries out, from the segment's checkpoint
        #   with ``_step``'s own blend; keep and write stay for
        #   ``_gate_grads``;
        # - tanh(c') of step i-1 in place of its c, once step i has read
        #   that c as the one it starts from;
        # - the h the step starts from is step i-1's o tanh(c'), the product
        #   ``_step`` made (for rnn, step i-1's ``a`` itself), and h0 for the
        #   rows whose real steps start at step i.
        nonlocal acts, checkpoints
        if acts is None:
            raise RuntimeError("recurrence: the VJP of this node has already run")
        steps, saved, acts, checkpoints = acts, checkpoints, None, None
        c0_cols, h0_cols = init[:H], init[-H:]
        # Scratch as wide as the widest step met so far: the upstream
        # gradients of the sigmoid gates, and one segment's rebuilt c's, each
        # H x b and contiguous, which every segment reuses.  A forward run
        # meets its narrowest steps first, while all its history is alive.
        up, seg = np.empty((GH - H, 0)), np.empty((S, 0))
        rows, listed = [], []  # E's gradient rows and their ids per step, last step first
        dW, dU = np.zeros((GH, d)), np.zeros((GH, H))
        db = None if bias is None else np.zeros((GH, 1))
        dh = _cols(g[:, -H:], perm)
        dc = _cols(g[:, :H], perm) if gated else None
        UT = U.T
        for i in reversed(range(T)):
            a, b = steps.pop(), widths[i]
            if b > up.shape[1]:
                up = np.empty((GH - H, b))
            # Views of all the columns cost ~1.5% of a needle-shape run.
            up_b = up if b == up.shape[1] else up[:, :b]
            if b == B:
                dh_b, dc_b = dh, dc
            else:
                dh_b = dh[:, :b]
                dc_b = dc[:, :b] if gated else None
            k = i % S  # step i's place in its segment
            if gated and (k == S - 1 or i == T - 1):
                wide = H * max(widths[i - k], b)  # widths are monotone in i
                if wide > seg.shape[1]:
                    seg = np.empty((S, wide))
                # cs[j]: the c that step i-k+j-1 carries out; blends[j]: the
                # (c, keep, write) of step i-k+j's blend, as ``_step`` made it
                # (keep None for clstm).
                cs, blends = [saved.pop()], []
                for j, a_j in enumerate(steps[i - k:] + [a]):
                    b_j, c_from = widths[i - k + j], cs[-1]
                    if c_from.shape[1] != b_j:  # likewise, no view at full width
                        c_from = _started(c_from[:, :b_j], c0_cols, b_j)
                    keep, write = _keep_write(kind, a_j, H, band)
                    c_new = np.multiply(c_from, keep, out=seg[j, :H * b_j].reshape(H, b_j))
                    c_new += write * a_j[-H:]
                    cs.append(c_new)
                    # clstm's keep, 1 - r, is made again in ``_gate_grads``:
                    # a segment's worth of them added S*H*B floats to the
                    # VJP's peak.
                    blends.append((c_from, None if kind == "clstm" else keep, write))
                bounded_tanh(c_new, out=c_new)
            if gated:
                # cs[-1] holds step i's tanh(c'), cs[-2] the c step i-1 carries out.
                _gate_grads(kind, a, cs.pop(), *blends.pop(), dh_b, dc_b, band, up_b)
            else:
                np.multiply(a, a, out=a)
                np.subtract(1.0, a, out=a)
                a *= dh_b
            if i == 0:  # zeros as an array, not a broadcast, so that BLAS makes dU's product
                h_prev = h0_cols[:, :b] if given else np.zeros((H, b))
            elif gated:
                tc_prev = bounded_tanh(cs[-1], out=cs[-1])
                h_prev = _started(steps[-1][-2 * H:-H, :b] * tc_prev[:, :b], h0_cols, b)
            else:
                h_prev = _started(steps[-1][:, :b], h0_cols, b)
            np.matmul(UT, a, out=dh_b)  # the columns past b pass the step
            # The weight gradients are summed over the steps as they go, last
            # step of the run first, so no T*B x G*H copy of the step
            # gradients is made.  Their last bits differ from those of one
            # product over all T*B rows.
            x_ids = run_ids[i][perm[:b]]
            dW += a @ source[x_ids]
            dU += a @ h_prev.T
            if db is not None:
                db += a.sum(axis=1, keepdims=True)
            rows.append(a.T @ W)
            listed.append(x_ids)
        if reverse:  # list step t's rows at T-1-t, as ids[::-1] does
            rows.reverse()
            listed.reverse()
        dE = RowSparse(np.concatenate(listed), np.concatenate(rows), source.shape)
        return ([dE, dW, dU] + ([] if db is None else [db])
                + ([_rows(dc, perm)] if gated and given else [])
                + ([_rows(dh, perm)] if given else []))

    return vjp


def final_state(p: CellParams, source: np.ndarray, ids, mask=None) -> np.ndarray:
    """The final state of the cell over E[ids[t]], without a tape: [c_T | h_T], or h_T for rnn.

    ``source`` is the row source E as an array, ``ids`` a T x B array of its
    row ids and ``mask`` None or a B x T {0, 1} array with each row's real
    steps first, as in ``recurrence``.  It is the kernel of ``recurrence``
    from the zero state, which keeps only the carried state, so memory does
    not grow with T.  The value, B x 2H (B x H for rnn) in input order,
    equals the value of ``recurrence`` bit for bit.  An empty sequence
    (T = 0) raises ValueError.
    """
    return _run(p, source, ids, None, None, mask)[0]


def _recurrence(p: CellParams, E: Var, ids, c0: Var | None, h0: Var | None,
                mask: np.ndarray | None = None) -> tuple:
    """The kernel behind ``recurrence`` and the single-step functions: ``_run`` with
    history on the Vars' values.

    Returns (value, parents, vjp, acts): the final state B x 2H (B x H for
    rnn), the Vars it depends on, the VJP from its gradient to one gradient
    per parent, and the list of the run's G*H x b activation slabs.  It
    records nothing.  (None, None) is the zero state, which is no parent;
    only the single-step functions pass a state.
    """
    states = [None if v is None else v.value for v in (c0, h0)]
    value, vjp, acts = _run(_values(p), E.value, ids, *states, mask, history=True)
    return value, [E] + _parents(p, c0, h0), vjp, acts


def _values(p: CellParams) -> CellParams:
    """The cell of the values of ``p``'s Vars."""
    arrays = (None if v is None else v.value for v in (p.w, p.u, p.b))
    return CellParams(p.kind, p.n_groups, *arrays)


def _parents(p: CellParams, c0: Var | None = None, h0: Var | None = None) -> list:
    """A run's parents after E, in the order of its VJP's gradients."""
    state = [] if h0 is None else ([c0] if p.kind != "rnn" else []) + [h0]
    return [p.w, p.u] + ([p.b] if p.b is not None else []) + state


class HelperError(RuntimeError):
    """The helper process that runs a second direction could not start, or died."""


class _Helper:
    """A child Python that runs ``_serve`` on one end of a socket pair.

    ``lock`` keeps one round trip at a time on ``sock``, the other end,
    whose reads and writes give up after ``_ANSWER_TIMEOUT`` seconds.
    """

    def __init__(self):
        ours, theirs = socket.socketpair()
        # The child imports this package from where this process found it.
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "from cachedlstm.cells import _serve; _serve(int(sys.argv[2]))")
        try:
            with theirs:
                self.proc = subprocess.Popen(
                    [sys.executable, "-c", code, root, str(theirs.fileno())],
                    stdin=subprocess.DEVNULL, pass_fds=[theirs.fileno()])
        except BaseException:
            ours.close()
            raise
        ours.settimeout(_ANSWER_TIMEOUT)
        self.sock, self.lock = ours, threading.Lock()


# Seconds a read or write of the helper's socket may wait before the helper is
# taken as stopped: far above any step this package runs (seconds at T = 1,600).
_ANSWER_TIMEOUT = 600.0
_helper = None  # this process's _Helper, started by the first call that uses one
_helper_lock = threading.Lock()
_calls = itertools.count()  # ids that key the helper's histories
_freed = collections.deque()  # ids of pair nodes freed before their VJP ran


def _two_cpus() -> bool:
    """Whether this process may use two CPUs, so that pairs and scoring use the helper.

    Only on POSIX, where the helper is handed its socket as a file descriptor.
    """
    if os.name != "posix":
        return False
    cpus = getattr(os, "sched_getaffinity", None)  # not on every platform
    return len(cpus(0)) >= 2 if cpus else (os.cpu_count() or 1) >= 2


def _started_helper() -> _Helper:
    """This process's helper, started on first use."""
    global _helper
    with _helper_lock:
        if _helper is None:
            try:
                _helper = _Helper()
            except OSError as exc:
                raise HelperError(f"cannot start the helper process: {exc}") from exc
        return _helper


def _stop_helper(helper: _Helper, timeout: float = 10.0) -> None:
    """Close ``helper``'s socket, on which it exits, and reap it; kill it after ``timeout`` s.

    The next pair that needs a helper starts a new one.
    """
    global _helper
    with _helper_lock:
        if _helper is helper:
            _helper = None
    helper.sock.close()
    try:
        helper.proc.wait(timeout)
    except subprocess.TimeoutExpired:
        helper.proc.kill()
        helper.proc.wait()


def _forget_helper() -> None:
    """In a forked child: drop the parent's helper, whose socket only the parent may use."""
    global _helper, _helper_lock
    if _helper is not None:
        _helper.sock.close()
    _helper, _helper_lock = None, threading.Lock()
    _freed.clear()


atexit.register(lambda: _helper is not None and _stop_helper(_helper))
if hasattr(os, "register_at_fork"):  # POSIX
    os.register_at_fork(after_in_child=_forget_helper)


_ROWS_PER_WRITE = 128  # rows of a gathered entry that ``_send`` copies at a time


def _send(sock: socket.socket, header, arrays=()) -> None:
    """One message: a pickled header, then each array's bytes as they lie in memory.

    An entry of ``arrays`` may be None, an array, or a gathered entry
    (source, index), which arrives as the array source[index] but is
    gathered and written ``_ROWS_PER_WRITE`` rows of ``index`` at a time,
    so the sender never holds the whole gather.  Arrays are not pickled,
    so no second copy of one is made on either side.
    """
    def meta(a):
        if isinstance(a, tuple):
            source, index = a
            return (*index.shape, *source.shape[1:]), source.dtype.str
        return None if a is None else (a.shape, a.dtype.str)

    blob = pickle.dumps((header, [meta(a) for a in arrays]))
    sock.sendall(len(blob).to_bytes(8, "little") + blob)
    for a in arrays:
        if isinstance(a, tuple):
            source, index = a
            parts = (source[index[lo:lo + _ROWS_PER_WRITE]]
                     for lo in range(0, len(index), _ROWS_PER_WRITE))
        else:
            parts = () if a is None else (a,)
        for part in parts:
            sock.sendall(np.ascontiguousarray(part).reshape(-1).view(np.uint8))


def _read_into(sock: socket.socket, buf):
    """Fill ``buf`` from ``sock``; EOFError if the socket closes first."""
    view, done = memoryview(buf), 0
    while done < len(view):
        n = sock.recv_into(view[done:])
        if not n:
            raise EOFError("the helper's socket closed")
        done += n
    return buf


def _recv_header(sock: socket.socket) -> tuple:
    """(header, what ``_recv_arrays`` reads) of one ``_send`` message."""
    size = int.from_bytes(_read_into(sock, bytearray(8)), "little")
    return pickle.loads(_read_into(sock, bytearray(size)))


def _recv_arrays(sock: socket.socket, metas: list) -> list:
    """The arrays of a message whose header has been read; each is read into place."""
    arrays = [None if m is None else np.empty(*m) for m in metas]
    for a in arrays:
        if a is not None:
            _read_into(sock, a.reshape(-1).view(np.uint8))
    return arrays


def _recv(sock: socket.socket) -> tuple:
    """(header, arrays) of one ``_send`` message."""
    header, metas = _recv_header(sock)
    return header, _recv_arrays(sock, metas)


def _io(helper: _Helper, fn, *args):
    """fn(helper.sock, *args); a failure leaves the socket mid-message, so it stops the helper."""
    try:
        return fn(helper.sock, *args)
    except BaseException as exc:
        _stop_helper(helper, timeout=1.0)
        if isinstance(exc, (OSError, EOFError)):
            how = "stopped answering" if isinstance(exc, socket.timeout) else "ended"
            raise HelperError(f"the helper process running a second direction {how} "
                              f"(exit status {helper.proc.returncode}): {exc}") from exc
        raise


def _overlap(header: tuple, arrays: list, local, helper: _Helper | None = None) -> tuple:
    """(local(), the helper's reply arrays): one request, with ``local`` run meanwhile.

    The request goes to ``helper``, by default this process's helper,
    started if none runs.  It carries this thread's numpy error state,
    whether this process traces memory, and the ids of pair nodes freed
    since the last request.  ``arrays`` is emptied once sent, so this
    process holds none of the request's own arrays while ``local`` runs.
    Both sides finish before an error of either is raised: local's first,
    then the helper's, with its own type.
    """
    if helper is None:
        helper = _started_helper()
    with helper.lock:
        freed = [_freed.popleft() for _ in range(len(_freed))]
        _io(helper, _send, (*header, np.geterr(), tracemalloc.is_tracing(), freed), arrays)
        arrays.clear()
        try:
            mine = local()
        finally:
            error, out = _io(helper, _recv)
    if error is not None:
        raise error
    return mine, out


def _helper_memory() -> tuple:
    """(traced peak in bytes, pair histories held) of the helper; stops its tracing.

    The helper traces while this process does, from the first request
    that finds it tracing, so a test that traces a training step or a
    scoring pass adds the peak to its own.  (0, 0) when no helper runs.
    """
    if _helper is None:
        return 0, 0
    return tuple(_overlap(("memory", None, None), [], lambda: None)[1][0].tolist())


def _serve(fd: int) -> None:
    """The helper's loop: answer requests on socket ``fd`` until the caller's end closes.

    A run request runs the second direction in reverse from zero.  With a
    call id it keeps the run's VJP under that id until the VJP request for
    it, or until the caller lists the id as freed; with None, for scoring,
    it keeps nothing.  Errors go back to the caller.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller's exit ends this loop
    sock = socket.socket(fileno=fd)
    vjps = {}
    while True:
        out = None  # the last reply's arrays go before the next request's arrive
        try:
            (op, call, cell, err, tracing, freed), metas = _recv_header(sock)
            for i in freed:
                vjps.pop(i, None)
            if op != "memory" and tracing != tracemalloc.is_tracing():
                tracemalloc.start() if tracing else tracemalloc.stop()  # before the arrays
            arrays = _recv_arrays(sock, metas)
        except (EOFError, OSError):
            return
        try:
            with np.errstate(**err):
                error, out = None, _answer(op, call, cell, arrays, vjps)
        except Exception as exc:  # raised again in the caller
            error, out = exc, []
        del arrays
        try:
            _send(sock, error, out)
        except OSError:
            return


def _answer(op: str, call: int, cell, arrays: list, vjps: dict) -> list:
    """The helper's reply arrays to one request."""
    if op == "memory":
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return [np.array([peak, len(vjps)])]
    if op == "vjp":
        vjp = vjps.pop(call, None)
        if vjp is None:
            raise RuntimeError("recurrence: the VJP of this node has already run")
        dE, *rest = vjp(arrays[0])
        return [dE.rows, *rest]
    rows, ids, w, u, b, mask = arrays
    value, vjp, _ = _run(CellParams(*cell, w, u, b), rows, ids, None, None, mask, reverse=True,
                         history=call is not None)
    if vjp is not None:
        vjps[call] = vjp
    return [value]


def recurrence(p: CellParams, E: Var, ids, mask: np.ndarray | None = None) -> Var:
    """Run the cell over the rows E[ids[t]], t = 0 .. T-1, from the zero state, as one tape node.

    E is a row source Var of width d and ``ids`` a T x B array of its row
    ids; an id outside E's rows raises IndexError.  The node's value is the
    final state: [c_T | h_T], B x 2H, or h_T alone, B x H, for rnn.  The
    per-step states stay private to the node's VJP.  With ``mask``, a
    B x T array of {0, 1}, only the real (one) positions are computed, and
    a row's state passes its zero steps unchanged, bit for bit.  The mask
    must be laid out as ``data.pad_batch`` lays it out: each row ones, then
    zeros.  A mask of another shape raises ShapeError, and one with a row
    of another layout ValueError, naming the row.  A full mask gives the
    bits of no mask.  The kernel runs a padded batch's rows longest first,
    each step on the rows real there (see the module docstring), and
    answers in input order.  Gradients flow to E as one ``RowSparse`` over
    the real positions, last step first (``ids[::-1].ravel()`` when no row
    is padded), and to w, u and b.  The zero state is a read-only
    broadcast of 0.0 that the kernel makes: the node lists no initial state
    among its parents, and its VJP makes no gradient for one, with the bits
    of a run from zero leaves otherwise.  The node's VJP overwrites the
    activations that the kernel keeps with their gradients, so a second
    backward pass through it raises RuntimeError.
    """
    return record(*_recurrence(p, E, ids, None, None, mask)[:3])


def recurrence_pair(E: Var, ids, mask, first: CellParams, second: CellParams) -> Var:
    """The two directions of a bidirectional encoder over one (E, ids) as one tape node.

    E, ids and mask are as in ``recurrence``; ``first`` and ``second`` are
    each direction's cell, and both start from the zero state.  ``second``
    reads ids last step first, so its rows' real steps start late and all
    end at its last step.  The value, [final_1 | final_2], and the
    gradients equal those of a ``recurrence`` over (ids, mask) and of the
    kernel, ``_run``, with ``reverse``, bit for bit; E gets one
    ``RowSparse`` whose rows are the sums of the two directions'.  When the
    process may use two CPUs, the second direction's kernel, and later its
    VJP, run in the helper process while this one runs the first's; this
    process records the node.  A helper that dies raises ``HelperError``.
    """
    (v1, par1, _, _), v2, both = _second(_values(second), E.value, ids, mask, functools.partial(
        _recurrence, first, E, ids, None, None, mask), history=True)
    S = v1.shape[1]

    def vjp(g):
        g1, (rows2, *rest2) = both(g[:, :S], g[:, S:])
        g1[0].rows += rows2  # E, each run's first parent, is listed once
        return g1 + rest2

    return record(np.concatenate([v1, v2], axis=1), par1 + _parents(second), vjp)


def _second(cell: CellParams, source: np.ndarray, ids, mask, local, history: bool) -> tuple:
    """(local(), value, both): ``cell``'s reverse run from zero, beside ``local``.

    ``cell`` holds arrays.  On one CPU this process runs local(), then the
    reverse ``_run``.  On two, the helper runs it on the batch's distinct
    rows of ``source`` with the ids renumbered into them, while this
    process runs local(); gathering from equal rows gives equal bits.  The
    value is the run's final state, B x S.  With ``history``, local()
    returns what ``_recurrence`` returns, and ``both(g1, g2)`` runs its VJP
    on g1 and the second run's on g2 and returns the first's gradients and
    the second's [E's rows, w, u, b] (b when the cell has one); the helper
    keeps the run's history until then, or until the node is freed without
    a VJP.  Without it ``both`` is None and nothing is kept.  ``both`` is
    built outside this function, so that a scoring call makes no closure
    cells, which show in its traced peak.
    """
    if not _two_cpus():
        mine = local()
        value, vjp, _ = _run(cell, source, ids, None, None, mask, reverse=True, history=history)
        return mine, value, functools.partial(_both_here, mine[2], vjp) if history else None
    call = next(_calls) if history else None
    arrays = [*_distinct_rows(source, ids), cell.w, cell.u, cell.b,
              None if mask is None else np.asarray(mask) != 0]
    helper = _started_helper()
    try:
        mine, (value,) = _overlap(("run", call, (cell.kind, cell.n_groups)), arrays, local,
                                  helper)
    except BaseException:
        _freed.append(call)  # the helper may hold its history (None names none)
        raise
    return mine, value, _both_remote(mine[2], helper, call) if history else None


def _both_here(vjp1, vjp2, g1, g2) -> tuple:
    """``both`` of a pair whose second run, with VJP ``vjp2``, ran here."""
    out = vjp1(g1)
    dE, *rest = vjp2(g2)
    return out, [dE.rows, *rest]


def _both_remote(vjp1, helper: _Helper, call: int):
    """``both`` of a pair whose second run ran in ``helper`` under ``call``.

    Once that helper has ended, ``both`` raises ``HelperError`` and sends
    nothing: a helper started since holds no history of this node.
    """
    def both(g1, g2):
        release.detach()  # the helper drops the history as it runs the VJP
        if _helper is not helper:
            raise HelperError("the helper process that ran this pair's second direction "
                              f"has ended (exit status {helper.proc.returncode})")
        return _overlap(("vjp", call, None), [g2], lambda: vjp1(g1), helper)

    release = weakref.finalize(both, _freed.append, call)
    return both


def _distinct_rows(source: np.ndarray, ids) -> list:
    """[(source, distinct), (table, ids)]: the request entries of a batch's rows of E.

    ``distinct`` lists the distinct ids of the T x B array ``ids``, sorted,
    and ``table`` maps each of them to its place in that list, so the
    second entry arrives as ``ids`` renumbered into the first, as
    ``np.unique(ids, return_inverse=True)`` would give them, as int32 when
    ``source`` has fewer than 2^31 rows.  ``_send`` gathers both as it
    writes them, so this process holds neither the rows nor the T x B
    renumbered ids, only the table, one entry per row of ``source``.
    Gathering from equal rows gives equal bits.
    """
    ids = row_ids(ids, len(source), ndim=2)
    table = np.zeros(len(source), np.int32 if len(source) < 2 ** 31 else np.intp)
    table[ids] = 1
    distinct = np.flatnonzero(table)
    table[distinct] = np.arange(len(distinct))
    return [(source, distinct), (table, ids)]


def final_states(cells: tuple, source: np.ndarray, ids, mask=None) -> list:
    """Each direction's ``final_state`` over one (source, ids, mask), for scoring.

    ``cells`` holds one or two CellParams of arrays; the second direction
    reads ids last step first (``_run``'s ``reverse``), and runs in the helper
    process while this one runs the first when the process may use two
    CPUs (``_second``); the helper keeps nothing once it has answered.
    Each value is the direction's B x S final state, [c_T | h_T] or h_T,
    as ``final_state`` gives it, bit for bit: joining them would add a
    B x 2S copy to the peak.  A helper that dies raises ``HelperError``.
    """
    first = functools.partial(final_state, cells[0], source, ids, mask)
    if len(cells) == 1:
        return [first()]
    return list(_second(cells[1], source, ids, mask, first, history=False)[:2])


def _gated_step(kind: str, p: CellParams, x: Var, prev: CellState) -> tuple:
    if p.kind != kind:
        raise ValueError(f"{kind} step given {p.kind} parameters")
    *node, acts = _recurrence(p, stack_steps([x]), [np.arange(x.rows)], prev.c, prev.h)
    out = record(*node)
    H = p.hidden_size
    state = CellState(c=slice_cols(out, 0, H), h=slice_cols(out, H, 2 * H),
                      n_groups=p.n_groups)
    return state, acts[0]


def lstm_step(p: CellParams, x: Var, prev: CellState) -> CellState:
    """One lstm transition: the kernel at T = 1."""
    return _gated_step("lstm", p, x, prev)[0]


def cifg_step(p: CellParams, x: Var, prev: CellState) -> CellState:
    """One coupled-gate transition, input gate 1 - f: the kernel at T = 1."""
    return _gated_step("cifg", p, x, prev)[0]


def clstm_step(p: CellParams, x: Var, prev: CellState) -> tuple[CellState, ForgetRates]:
    """One grouped-memory transition and its update rates: the kernel at T = 1."""
    if prev.n_groups != p.n_groups:
        raise ShapeError(
            f"clstm_step: state has {prev.n_groups} groups, params {p.n_groups}"
        )
    state, acts = _gated_step("clstm", p, x, prev)
    H = p.hidden_size
    r = _rates(acts[:H], _band(H, p.n_groups, acts.shape[1]))
    return state, ForgetRates(r=x.tape.leaf(r.T), n_groups=p.n_groups)


def init_params(kind: str, d: int, hidden: int, n_groups: int = 1, seed=0,
                use_bias: bool = False) -> CellParams:
    """Seeded parameters with every weight entry i.i.d. uniform [-INIT_SCALE, INIT_SCALE].

    Biases, when enabled, start at zero.  ``w`` is drawn before ``u``, both
    row-major in gate order, so a seed fully determines the parameters.
    ``n_groups`` must be at least 1 and is ignored for kinds other than clstm;
    ``CellParams`` checks that it divides ``hidden``.
    """
    if kind not in CELL_KINDS:
        raise ValueError(f"unknown cell kind {kind!r}; expected one of {CELL_KINDS}")
    if n_groups < 1:
        raise ValueError(f"n_groups must be >= 1, got {n_groups}")
    rows = len(GATES[kind]) * hidden
    rng = np.random.default_rng(seed)
    w = rng.uniform(-INIT_SCALE, INIT_SCALE, size=(rows, d))
    u = rng.uniform(-INIT_SCALE, INIT_SCALE, size=(rows, hidden))
    b = np.zeros((rows, 1)) if use_bias else None
    return CellParams(kind, n_groups if kind == "clstm" else 1, w, u, b)


def bind_params(tape: Tape, params):
    """Register a parameter container's tensors as tape leaves.

    Returns (bound, leaves): a copy of the container whose tensor fields are
    Vars, and a name -> Var map for gradient lookup after backward.
    """
    leaves = {name: tape.leaf(t) for name, t in named_tensors(params).items()}
    return dataclasses.replace(params, **leaves), leaves


def named_tensors(params) -> dict[str, np.ndarray]:
    """The container's tensor fields by name, in declaration order."""
    out = {}
    for field in dataclasses.fields(params):
        t = getattr(params, field.name)
        if isinstance(t, np.ndarray):
            out[field.name] = t
    return out
