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
the gate activations and each step's carried state.  The single-step
functions run it at T = 1.  ``final_state`` runs the same step function,
``_step``, without a tape and keeps only the carried state, for scoring.
``_step`` projects its own B x d input rows, so both make the same products.

Inside the kernel the batch runs along columns: a step's activations are
G*H x B (``W x_t^T``) and its carried c and h are H x B, so each gate block
is one contiguous slab of rows and every elementwise gate operation reads
contiguous memory.  The bias is added as its G*H x 1 column, a step's
mask is a 1 x B row, and the clstm band offsets and clamps are H x B
arrays built once per run.  The per-step history is private to the VJP
and kept in this layout: the T x G*H x B activations, and tanh(c') and
the carried c and h as T x H x B buffers; each x_t is read from the array
the tape holds for it.  Tape values and the results of ``final_state``
stay row-batched.  The VJP sums the weight gradients inside its step
loop, last step first (``dW += a @ x_t``, ``dU += a @ Hs[t].T``,
``db += a.sum(1)``, ``dx_t = a.T @ W``), so it makes no T*B x G*H copy of
the step gradients.

``recurrence_pair`` records two recurrences of one shape, the directions
of a bidirectional encoder, as one node whose value is their final states
side by side.  From H*B = ``THREAD_MIN_WORK`` on, and when the process may
use two CPUs, the second kernel, and later the second VJP, run on a helper
thread started and joined per call while the calling thread runs the
first; numpy lets the two overlap inside BLAS calls and large elementwise
loops.  Measured with one BLAS thread (bi-clstm, d=50, T=100, padded;
serial over threaded time, forward and backward): 1.55x and 1.52x at
H*B = 15,360 (H=120, B=128), 1.23-1.34x and 1.30-1.31x at 7,680,
0.99-1.37x at 5,760, 0.87-1.27x at 3,840, and 0.73x and 0.64x at the
needle shape's 960, where the GIL makes the threads wait on each other.
The helper only computes; the calling thread records every node.  Each
direction runs the same code on its own buffers, so threaded and serial
runs give the same bits.  Scoring (``final_state``) stays on one thread:
two directions at once doubled its per-step temporaries, which are most
of its memory.
"""

from __future__ import annotations

import dataclasses
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .autodiff import ShapeError, Tape, Var, bounded_tanh, logistic, record, slice_cols

CELL_KINDS = ("rnn", "lstm", "cifg", "clstm")
GATES = {"rnn": "h", "lstm": "ifoc", "cifg": "foc", "clstm": "roc"}

INIT_SCALE = 0.1  # weights start uniform in [-INIT_SCALE, INIT_SCALE]

# ``recurrence_pair`` runs its two kernels on two threads from this H*B on;
# below it the threads can lose more to the GIL than they gain.  It is the
# smallest H*B at which no measured shape ran slower threaded (see the
# module docstring).
THREAD_MIN_WORK = 5760


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
    """Memory and hidden state, B x H each; ``c`` is None for the plain RNN.

    Group k (1-based) of a K-group state occupies columns
    [(k-1)*H/K, k*H/K).
    """

    c: Var | None
    h: Var
    n_groups: int = 1


@dataclass
class ForgetRates:
    """Update rates of one clstm step, B x H, group k inside ((k-1)/K, k/K).

    ``r`` is recorded as a tape constant: no gradient flows through it.
    """

    r: Var
    n_groups: int


def zero_state(tape: Tape, batch: int, hidden: int, n_groups: int = 1,
               with_memory: bool = True) -> CellState:
    """All-zero initial state at t=0."""
    z = tape.leaf(np.zeros((batch, hidden)))
    c = tape.leaf(np.zeros((batch, hidden))) if with_memory else None
    return CellState(c=c, h=z, n_groups=n_groups)


def _band(hidden: int, n_groups: int, batch: int) -> tuple:
    """1/K, the per-unit offset (k-1)/K, and the innermost floats of ((k-1)/K, k/K).

    The last three are H x B, each column the same, so the per-step rate
    arithmetic runs on contiguous arrays without broadcasting.
    """
    gs = hidden // n_groups
    off = np.repeat(np.arange(n_groups) / n_groups, gs)
    top = np.repeat(np.arange(1, n_groups + 1) / n_groups, gs)
    units = (off, np.nextafter(off, 1.0), np.nextafter(top, 0.0))
    return (1.0 / n_groups, *(np.repeat(v[:, None], batch, axis=1) for v in units))


def _rates(z: np.ndarray, band: tuple) -> np.ndarray:
    """r = z/K + (k-1)/K, clamped so that a saturated z cannot reach a band edge."""
    scale, off, lo, hi = band
    r = z * scale
    r += off
    np.maximum(r, lo, out=r)
    return np.minimum(r, hi, out=r)


def _keep_write(kind: str, a: np.ndarray, hidden: int, band) -> tuple:
    """(keep, write) of c' = keep * c + write * c~ from one step's activations."""
    if kind == "lstm":
        return a[hidden:2 * hidden], a[:hidden]
    if kind == "cifg":
        f = a[:hidden]
        return f, 1.0 - f
    r = _rates(a[:hidden], band)
    return 1.0 - r, r


def _step(kind: str, x: np.ndarray, W: np.ndarray, c, h: np.ndarray, U: np.ndarray, bias,
          band, m: np.ndarray | None = None, out: np.ndarray | None = None) -> tuple:
    """One cell step from its B x d input rows x_t.

    States are H x B, one column per row of the batch, so each gate block
    ``a[g*H:(g+1)*H]`` is one contiguous slab.  Projects a = W x_t^T,
    G*H x B, into ``out`` (a new array when None), adds U h, then the
    G*H x 1 bias, and overwrites ``a`` with the gate activations (sigmoids,
    then tanh(a_c)).  Returns the carried (c, h) and tanh(c') before the
    mask (None for rnn, whose h is ``a`` itself).  A column whose entry of
    ``m``, a 1 x B bool row, is False keeps its (c, h).
    """
    H = U.shape[1]
    a = np.matmul(W, x.T, out=out)
    a += U @ h
    if bias is not None:
        a += bias
    if kind == "rnn":
        c_new, h_new, tc = None, bounded_tanh(a, out=a), None
    else:
        logistic(a[:-H], out=a[:-H])
        bounded_tanh(a[-H:], out=a[-H:])
        keep, write = _keep_write(kind, a, H, band)
        c_new = keep * c
        c_new += write * a[-H:]
        tc = bounded_tanh(c_new)
        h_new = a[-2 * H:-H] * tc
    if m is None:
        return c_new, h_new, tc
    if c_new is None:  # rnn: h' is ``a`` itself, which the VJP reads
        return None, np.where(m, h_new, h), tc
    old = ~m
    np.copyto(c_new, c, where=old)
    np.copyto(h_new, h, where=old)
    return c_new, h_new, tc


def _gate_grads(kind: str, a: np.ndarray, tc: np.ndarray, c_prev, dh: np.ndarray,
                dc: np.ndarray, band, up: np.ndarray) -> np.ndarray:
    """Backward through one gated step; overwrites ``a`` with dLoss/dpre.

    ``a`` holds the step's gate activations (G*H x B) and ``tc`` its
    tanh(c'); ``dh`` and ``dc`` are the gradients of its h' and c' (dc
    without the path through h').  ``up`` is G*H - H x B scratch.  Returns
    the part of dc' that the blend carries back to c, dc' * keep.
    """
    H = tc.shape[0]
    sig, o, ctil = a[:-H], a[-2 * H:-H], a[-H:]
    dc = dc + dh * o * (1.0 - tc * tc)
    keep, write = _keep_write(kind, a, H, band)
    dkeep, dwrite = dc * c_prev, dc * ctil
    carried = dc * keep
    ctil[...] = dc * write * (1.0 - ctil * ctil)
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
    np.multiply(up, 1.0 - sig, out=sig)
    return carried


def final_state(p: CellParams, steps, rows: int) -> tuple:
    """(c_T, h_T), B x H each, after running the cell over ``steps``, without a tape.

    ``steps`` yields (x_t, m_t): a B x d input and a B x 1 {0, 1} mask
    column or None.  Only the carried state is kept, so memory does not grow
    with T.  The values equal the value of ``recurrence`` bit for bit; c_T
    is None for rnn.
    """
    W, U = p.w, p.u
    H = U.shape[1]
    band = _band(H, p.n_groups, rows) if p.kind == "clstm" else None
    h = np.zeros((H, rows))
    c = None if p.kind == "rnn" else np.zeros((H, rows))
    for x, m in steps:
        c, h, _ = _step(p.kind, x, W, c, h, U, p.b, band, None if m is None else m.T != 0)
    # Row-major, as the tape's values are: later products see the same layout.
    return None if c is None else np.ascontiguousarray(c.T), np.ascontiguousarray(h.T)


def _recurrence(p: CellParams, xs: list, c0: Var | None, h0: Var,
                mask: np.ndarray | None = None) -> tuple:
    """The kernel behind ``recurrence``; it reads Var values and records nothing.

    Returns (value, parents, vjp, A): the final state B x S, the Vars it
    depends on, the VJP from its gradient to one gradient per parent, and
    the T x G*H x B activations.  Two calls may run on two threads.
    """
    kind, n_groups = p.kind, p.n_groups
    gated = kind != "rnn"
    if gated and c0 is None:
        raise ShapeError(f"{kind}: the initial state needs a memory c")
    if not xs:
        raise ValueError("recurrence: empty sequence")
    W, U = p.w.value, p.u.value
    B, d = xs[0].rows, W.shape[1]
    for t, x in enumerate(xs):
        if x.cols != d:
            raise ShapeError(f"step {t}: input width {x.cols}, expected {d}")
        if x.rows != B:
            raise ShapeError(f"step {t}: {x.rows} input rows, expected {B}")
    # The step inputs as arrays: Vars would tie the VJP to the tape.
    X = [x.value for x in xs]
    T, (GH, H) = len(X), U.shape
    bias = None if p.b is None else p.b.value
    M = None if mask is None else (np.asarray(mask).T != 0)[:, None, :]
    band = _band(H, n_groups, B) if kind == "clstm" else None

    A = np.empty((T, GH, B))  # step t's activations, written by its ``_step``
    TC = np.empty((T, H, B)) if gated else None  # tanh(c'), before the mask
    # The (c, h) that step t starts from, for the VJP only.
    Cs = np.empty((T, H, B)) if gated else None
    Hs = np.empty((T, H, B))
    # H x B and C-contiguous, as ``final_state``'s zero state is.
    c = None if c0 is None else np.ascontiguousarray(c0.value.T)
    h = np.ascontiguousarray(h0.value.T)
    for t in range(T):
        if gated:
            Cs[t] = c
        Hs[t] = h
        c, h, tc = _step(kind, X[t], W, c, h, U, bias, band, None if M is None else M[t],
                         out=A[t])
        if gated:
            TC[t] = tc

    def vjp(g):
        # Step t's activations in A[t] are overwritten with the gradients of
        # its pre-activations once read, so the VJP can run only once.
        nonlocal A
        if A is None:
            raise RuntimeError("recurrence: the VJP of this node has already run")
        up = np.empty((GH - H, B))  # upstream gradients of the sigmoid gates
        dX = np.empty((T, B, d))
        dW, dU = np.zeros((GH, d)), np.zeros((GH, H))
        db = None if bias is None else np.zeros((GH, 1))
        dh = np.ascontiguousarray(g[:, -H:].T)
        dc = np.ascontiguousarray(g[:, :H].T) if gated else None
        for t in range(T - 1, -1, -1):
            if M is None:  # nothing carries past an unmasked step
                dh_new, dc_new, dh, dc = dh, dc, 0.0, 0.0
            else:
                m = M[t]
                dh_new, dh = np.where(m, dh, 0.0), np.where(m, 0.0, dh)
                if gated:
                    dc_new, dc = np.where(m, dc, 0.0), np.where(m, 0.0, dc)
            a = A[t]
            if gated:
                dc = dc + _gate_grads(kind, a, TC[t], Cs[t], dh_new, dc_new, band, up)
            else:
                np.multiply(dh_new, 1.0 - a * a, out=a)
            dh = dh + U.T @ a
            # The weight gradients are summed over the steps as they go, last
            # step first, so no T*B x G*H copy of the step gradients is made.
            # Their last bits differ from those of one product over all T*B
            # rows.
            dW += a @ X[t]
            dU += a @ Hs[t].T
            if db is not None:
                db += a.sum(axis=1, keepdims=True)
            np.matmul(a.T, W, out=dX[t])
        A = None  # nothing else refers to the buffer now, so this frees it
        grads = list(dX) + [dW, dU] + ([] if db is None else [db])
        if gated:
            grads.append(dc.T)
        return grads + [dh.T]

    parents = list(xs) + [p.w, p.u] + ([p.b] if p.b is not None else [])
    parents += ([c0] if gated else []) + [h0]
    final = h if c is None else np.vstack([c, h])
    return final.T.copy(), parents, vjp, A


def _threaded(work: int) -> bool:
    """Whether two kernels of H*B = ``work`` run on two threads."""
    if work < THREAD_MIN_WORK:
        return False
    cpus = getattr(os, "sched_getaffinity", None)  # not on every platform
    return len(cpus(0)) >= 2 if cpus else (os.cpu_count() or 1) >= 2


def _both(f1, f2, work: int) -> tuple:
    """(f1(), f2()), f2 on a helper thread when ``_threaded(work)``.

    Both calls finish, and the helper has ended, before an error of either is raised.
    """
    if not _threaded(work):
        return f1(), f2()
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="cachedlstm") as helper:
        second = helper.submit(f2)
        first = f1()
    return first, second.result()


def recurrence(p: CellParams, xs: list, c0: Var | None, h0: Var,
               mask: np.ndarray | None = None) -> Var:
    """Run the cell over xs, T Vars of B x d, as one tape node.

    The node's value is the final state, B x S: [c_T | h_T] with S = 2H,
    or h_T alone for rnn (S = H).  The per-step states stay private to the
    node's VJP.  With ``mask``, a B x T array of {0, 1}, a row's state
    passes a zero step unchanged, bit for bit.  Gradients flow to every
    x_t, to w, u and b, and to the initial state (c0 is None for rnn).  The
    node's VJP reuses the kernel's activation buffer, so a second backward
    pass through it raises RuntimeError.
    """
    return record(*_recurrence(p, xs, c0, h0, mask)[:3])


def recurrence_pair(first: tuple, second: tuple) -> Var:
    """Two independent recurrences of one shape as one tape node.

    ``first`` and ``second`` are the arguments (p, xs, c0, h0, mask) of
    ``recurrence``.  The node's value is [final_1 | final_2], B x 2S, equal
    bit for bit to the two ``recurrence`` values side by side, and its
    gradients equal theirs.  The two kernels, and later their two VJPs, run
    on two threads when the shape is large enough (see ``THREAD_MIN_WORK``);
    the helper thread only computes, and this thread records the node.
    """
    work = first[0].hidden_size * first[1][0].rows
    (v1, par1, vjp1, _), (v2, par2, vjp2, _) = _both(
        lambda: _recurrence(*first), lambda: _recurrence(*second), work)
    S = v1.shape[1]

    def vjp(g):
        g1, g2 = _both(lambda: vjp1(g[:, :S]), lambda: vjp2(g[:, S:]), work)
        return g1 + g2

    return record(np.concatenate([v1, v2], axis=1), par1 + par2, vjp)


def _gated_step(kind: str, p: CellParams, x: Var, prev: CellState) -> tuple:
    if p.kind != kind:
        raise ValueError(f"{kind} step given {p.kind} parameters")
    *node, acts = _recurrence(p, [x], prev.c, prev.h)
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
    """Seeded parameters with every weight entry i.i.d. uniform [-0.1, 0.1].

    Biases, when enabled, start at zero.  ``w`` is drawn before ``u``, both
    row-major in gate order, so a seed fully determines the parameters.
    ``n_groups`` must be at least 1 and is ignored for kinds other than clstm.
    """
    if kind not in CELL_KINDS:
        raise ValueError(f"unknown cell kind {kind!r}; expected one of {CELL_KINDS}")
    if n_groups < 1:
        raise ValueError(f"n_groups must be >= 1, got {n_groups}")
    if kind == "clstm" and hidden % n_groups != 0:
        raise ValueError(
            f"hidden size {hidden} not divisible into {n_groups} groups"
        )
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
    leaves: dict[str, Var] = {}
    reps = {}
    for field in dataclasses.fields(params):
        t = getattr(params, field.name)
        if isinstance(t, np.ndarray):
            v = tape.leaf(t)
            leaves[field.name] = v
            reps[field.name] = v
    return dataclasses.replace(params, **reps), leaves


def named_tensors(params) -> dict[str, np.ndarray]:
    """The container's tensor fields by name, in declaration order."""
    out = {}
    for field in dataclasses.fields(params):
        t = getattr(params, field.name)
        if isinstance(t, np.ndarray):
            out[field.name] = t
    return out
