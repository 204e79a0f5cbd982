"""Dense float64 tensors with a dynamic reverse-mode differentiation tape.

Values are plain numpy arrays of shape (rows, cols); batching is always the
row dimension.  A ``Tape`` records every operation as it runs
(define-by-run).  ``backward`` replays the tape once in reverse and returns
a gradient for every leaf.

A row gather yields a ``RowSparse`` gradient: the gathered ids and their
gradient rows, one list of each, never the dense matrix of its source.
``take_rows`` gathers over 1-D ids.  The recurrent and bag-of-words
encoders gather their own input rows, from one row source and a T x B
array of its row ids, which ``row_ids`` checks, so the embedding matrix
gets a gradient the size of the batch.  A list of step Vars becomes such a
source through ``stack_steps``.

The operation set is row gathers (``take_rows``), ``stack_steps``, column
slicing, and ``record``, which adds a fused operation
with a hand-written VJP as one node.  Everything else is such a node: the
recurrent cells and the bag-of-words encoder run a whole sequence that
way, and the softmax head and the training loss are one node each.
``logistic``, ``bounded_tanh`` and ``softmax`` are the plain array
functions those nodes share.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = [
    "RowSparse",
    "ShapeError",
    "Tape",
    "Var",
    "slice_cols",
    "row_ids",
    "take_rows",
    "stack_steps",
    "record",
    "logistic",
    "bounded_tanh",
    "softmax",
    "backward",
    "grad_check",
]

# Sigmoid/tanh saturate to exactly 0.0/1.0 (or +-1.0) in float64 for large
# pre-activations; clamping keeps outputs strictly inside the open codomain.
_SIG_LO = 1e-300
_SIG_HI = 1.0 - 2.0 ** -53
_TANH_HI = 1.0 - 2.0 ** -53


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for an operation."""


class RowSparse:
    """A gradient that is zero outside some rows of a rows x cols matrix.

    It stands for the dense matrix whose row ``ids[i]`` holds the sum of
    ``rows[i]`` over every i naming that row; ids may repeat.  The sum of
    two joins their (ids, rows) lists, the first one's first.  Adding a
    dense array gives a new dense array, and ``np.asarray`` gives the dense
    matrix.  Repeated ids are summed in list order, so the order fixes the
    bits.
    """

    __slots__ = ("ids", "rows", "shape")
    # ndarray + RowSparse then defers to RowSparse.__radd__.
    __array_ufunc__ = None

    def __init__(self, ids, rows, shape):
        ids = np.asarray(ids, dtype=np.intp)
        rows = np.asarray(rows, dtype=np.float64)
        if ids.ndim != 1 or rows.shape != (ids.size, shape[1]):
            raise ShapeError(
                f"RowSparse: {ids.shape} ids and {rows.shape} rows do not fit "
                f"a {tuple(shape)} matrix"
            )
        self.ids, self.rows, self.shape = ids, rows, tuple(shape)

    def coalesce(self) -> "RowSparse":
        """The same gradient with sorted unique ids, each with its summed row.

        One whose ids already increase strictly is returned as it is, bit for bit.
        """
        if (self.ids[1:] > self.ids[:-1]).all():
            return self
        unique, inverse = np.unique(self.ids, return_inverse=True)
        return RowSparse(unique, self._summed(inverse, unique.size), self.shape)

    def _summed(self, index: np.ndarray, n_rows: int) -> np.ndarray:
        """n_rows x cols zeros with each ``rows[i]`` added to row ``index[i]``, in list order.

        One flat ``bincount`` adds each weight in input order onto 0.0, as
        ``np.add.at`` on zeros does, so the bits are the same.
        """
        d = self.shape[1]
        flat = (index[:, None] * d + np.arange(d)).ravel()
        return np.bincount(flat, weights=self.rows.ravel(),
                           minlength=n_rows * d).reshape(n_rows, d)

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("RowSparse: the dense matrix is always a new array")
        dense = self._summed(self.ids, self.shape[0])
        return dense if dtype is None else dense.astype(dtype, copy=False)

    def __add__(self, other):
        if other.shape != self.shape:
            raise ShapeError(f"RowSparse: cannot add {other.shape} to {self.shape}")
        if isinstance(other, RowSparse):
            return RowSparse(np.concatenate([self.ids, other.ids]),
                             np.concatenate([self.rows, other.rows]), self.shape)
        out = np.array(other, dtype=np.float64)
        np.add.at(out, self.ids, self.rows)
        return out

    __radd__ = __add__

    def __mul__(self, scale: float) -> "RowSparse":
        return RowSparse(self.ids, self.rows * scale, self.shape)

    def __repr__(self) -> str:
        return f"RowSparse({self.ids.size} rows of {self.shape})"


class _Node:
    __slots__ = ("value", "parents", "vjp")

    def __init__(self, value, parents, vjp):
        self.value = value
        self.parents = parents
        self.vjp = vjp


class Var:
    """A value recorded on a tape: pairs a tensor with its tape node id."""

    __slots__ = ("tape", "nid", "value")

    def __init__(self, tape: "Tape", nid: int, value: np.ndarray):
        self.tape = tape
        self.nid = nid
        self.value = value

    @property
    def shape(self) -> tuple:
        return self.value.shape

    @property
    def rows(self) -> int:
        return self.value.shape[0]

    @property
    def cols(self) -> int:
        return self.value.shape[1]

    def __repr__(self) -> str:
        return f"Var(nid={self.nid}, shape={self.value.shape})"


class Tape:
    """Ordered record of operations; node ids are topologically sorted."""

    def __init__(self):
        self._nodes: list[_Node] = []
        self._leaf_ids: list[int] = []

    def __len__(self) -> int:
        return len(self._nodes)

    def leaf(self, value: np.ndarray | Sequence) -> Var:
        """Record an input tensor (parameter or constant) as a tape leaf."""
        arr = np.asarray(value, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError(f"leaf value must be 2-D, got shape {arr.shape}")
        nid = len(self._nodes)
        self._nodes.append(_Node(arr, (), None))
        self._leaf_ids.append(nid)
        return Var(self, nid, arr)

    def _record(self, value: np.ndarray, parents: tuple[int, ...], vjp: Callable) -> Var:
        nid = len(self._nodes)
        self._nodes.append(_Node(value, parents, vjp))
        return Var(self, nid, value)


def _same_tape(*vs: Var) -> Tape:
    tape = vs[0].tape
    for v in vs[1:]:
        if v.tape is not tape:
            raise ValueError("operands were recorded on different tapes")
    return tape


def logistic(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sigmoid of an array as 0.5 tanh(x/2) + 0.5, clamped strictly inside (0, 1).

    The tanh form cannot overflow for any x; saturated outputs are nudged
    off exact 0.0/1.0 so downstream open-interval invariants hold.  With
    ``out`` (which may be ``x`` itself) the result is written there.
    """
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    return _clamp(out, _SIG_LO, _SIG_HI)


def bounded_tanh(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Hyperbolic tangent of an array, clamped strictly inside (-1, 1).

    With ``out`` (which may be ``x`` itself) the result is written there.
    """
    return _clamp(np.tanh(x, out=out), -_TANH_HI, _TANH_HI)


def _clamp(x: np.ndarray, lo, hi) -> np.ndarray:
    """``np.clip(x, lo, hi, out=x)`` with the same bits, at half its call cost."""
    np.maximum(x, lo, out=x)
    return np.minimum(x, hi, out=x)


def slice_cols(a: Var, start: int, stop: int) -> Var:
    """Contiguous column slice a[:, start:stop]."""
    if not (0 <= start < stop <= a.cols):
        raise IndexError(
            f"slice_cols: bounds [{start}, {stop}) invalid for {a.cols} columns"
        )
    shape = a.shape

    def vjp(g):
        full = np.zeros(shape)
        full[:, start:stop] = g
        return (full,)

    return a.tape._record(np.ascontiguousarray(a.value[:, start:stop]), (a.nid,), vjp)


def softmax(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax of an array, with per-row max subtraction for stability."""
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def row_ids(ids, rows: int, ndim: int = 1) -> np.ndarray:
    """``ids`` as an ndim-D index array; IndexError unless each names one of ``rows`` rows.

    numpy would wrap a negative id silently, so every row gather checks here.
    A signed-integer array keeps its dtype, so int32 ids are not copied to
    intp; other inputs are converted to intp.
    """
    signed = isinstance(ids, np.ndarray) and ids.dtype.kind == "i"
    idx = ids if signed else np.asarray(ids, dtype=np.intp)
    if idx.ndim != ndim:
        raise ShapeError(f"ids must be {ndim}-D, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= rows):
        raise IndexError(f"id out of range for {rows} rows")
    return idx


def take_rows(a: Var, ids) -> Var:
    """Gather rows a[ids, :] for 1-D ids; the source's gradient is one ``RowSparse``."""
    idx = row_ids(ids, a.rows)
    shape = a.shape
    return a.tape._record(a.value[idx], (a.nid,), lambda g: (RowSparse(idx, g, shape),))


def stack_steps(xs: Sequence[Var]) -> Var:
    """T Vars of B x d as one (T*B) x d row source, step t in rows [t*B, (t+1)*B)."""
    if not xs:
        raise ValueError("stack_steps: empty sequence")
    tape = _same_tape(*xs)
    B, d = xs[0].shape
    for t, x in enumerate(xs):
        if x.cols != d:
            raise ShapeError(f"step {t}: input width {x.cols}, expected {d}")
        if x.rows != B:
            raise ShapeError(f"step {t}: {x.rows} input rows, expected {B}")
    return tape._record(np.concatenate([x.value for x in xs]), tuple(x.nid for x in xs),
                        lambda g: tuple(g.reshape(len(xs), B, d)))


def record(value: np.ndarray, parents: Sequence[Var], vjp: Callable) -> Var:
    """Record a fused operation computed outside the tape.

    ``vjp(g)`` maps the gradient of ``value`` to one gradient per parent, in
    the order given; a parent may appear more than once.
    """
    if not parents:
        raise ValueError("record: need at least one parent")
    tape = _same_tape(*parents)
    return tape._record(value, tuple(p.nid for p in parents), vjp)


def backward(tape: Tape, loss: Var) -> dict[int, np.ndarray | RowSparse]:
    """Reverse sweep from a scalar loss.

    Returns dLoss/dLeaf keyed by leaf node id, for every leaf on the tape;
    leaves the loss does not depend on get zero gradients.  Each recorded
    node is visited exactly once, in reverse topological order.  A leaf
    reached only through row gathers gets a ``RowSparse`` gradient; one
    that also has a dense gradient gets the dense sum.
    """
    if loss.tape is not tape:
        raise ValueError("loss was recorded on a different tape")
    if loss.shape != (1, 1):
        raise ShapeError(f"backward: loss must be 1x1, got shape {loss.shape}")

    nodes = tape._nodes
    grads: list = [None] * (loss.nid + 1)
    grads[loss.nid] = np.ones((1, 1))

    for nid in range(loss.nid, -1, -1):
        g = grads[nid]
        if g is None:
            continue
        node = nodes[nid]
        if node.vjp is None:
            continue
        if type(g) is RowSparse:  # a gather from a computed matrix
            g = np.asarray(g)
        for pid, pg in zip(node.parents, node.vjp(g)):
            if grads[pid] is None:
                grads[pid] = pg
            else:
                # Rebind rather than += : vjp outputs may alias each other.
                grads[pid] = grads[pid] + pg
        grads[nid] = None  # free intermediate gradient storage

    out: dict[int, np.ndarray | RowSparse] = {}
    for lid in tape._leaf_ids:
        g = grads[lid] if lid < len(grads) else None
        out[lid] = g if g is not None else np.zeros(nodes[lid].value.shape)
    return out


def grad_check(f, params: dict[str, np.ndarray], eps: float = 1e-5) -> float:
    """Compare tape gradients of a scalar function against central differences.

    ``f`` evaluates the function on ``params`` and returns
    ``(loss_value, grads)`` where ``grads`` maps each parameter name to its
    tape gradient.  Every parameter entry is perturbed by +-eps in place;
    the reported score is the maximum of
    ``|g_tape - g_fd| / max(1e-8, |g_tape| + |g_fd|)`` over all entries,
    or ``inf`` as soon as an entry's tape gradient or central difference is
    NaN or infinite, so a NaN gradient or objective cannot read as a pass.
    """
    if not (np.isfinite(eps) and eps > 0):
        raise ValueError(f"grad_check: eps must be a positive finite number, got {eps}")
    _, tape_grads = f(params)
    worst = 0.0
    for name, theta in params.items():
        flat = theta.reshape(-1)
        gflat = np.asarray(tape_grads[name]).reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = f(params)[0]
            flat[i] = orig - eps
            f_minus = f(params)[0]
            flat[i] = orig
            fd = (f_plus - f_minus) / (2.0 * eps)
            if not (np.isfinite(fd) and np.isfinite(gflat[i])):
                return float("inf")
            err = abs(gflat[i] - fd) / max(1e-8, abs(gflat[i]) + abs(fd))
            if err > worst:
                worst = err
    return worst
