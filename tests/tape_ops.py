"""The composed tape: elementary ops, one tape node per operation.

The library records its computations as fused ``autodiff.record`` nodes:
the recurrent kernel, the bag-of-words encoder, the softmax head and the
loss.  The tests build the same computations from the ops below and
compare values and gradients.  Each op is an ``autodiff.record`` node with
the VJP of its elementary operation, and each is checked against central
differences in ``test_tape_ops``.  ``op_check`` is that check.

``run_kernel`` is no op: it runs the library's recurrent kernel from a
given state or in reverse, which the tests check and no public entry does.
"""

import numpy as np

from cachedlstm import cells
from cachedlstm.autodiff import (Tape, Var, backward, bounded_tanh, grad_check, logistic, record,
                                 softmax)


def run_kernel(p, E, ids, c0=None, h0=None, mask=None, reverse=False):
    """The kernel ``cells._run`` over the rows E[ids[t]], from (c0, h0), or in reverse.

    The library's entries start from the zero state, (c0, h0) = (None,
    None), and only a pair's second direction runs in reverse (reading ids
    last step first).  With E a Var and p a cell of Vars this is one tape
    node, recorded as ``cells.recurrence`` records its run, whose VJP also
    gives the gradients of the initial state's Vars; with E an array and p
    a cell of arrays it is the final state, as ``cells.final_state`` gives
    it.
    """
    if not isinstance(E, Var):
        return cells._run(p, E, ids, c0, h0, mask, reverse)[0]
    states = [None if v is None else v.value for v in (c0, h0)]
    value, vjp, _ = cells._run(cells._values(p), E.value, ids, *states, mask, reverse,
                               history=True)
    return record(value, [E] + cells._parents(p, c0, h0), vjp)


def matmul(a, b):
    """Matrix product a @ b."""
    av, bv = a.value, b.value
    return record(av @ bv, [a, b], lambda g: (g @ bv.T, av.T @ g))


def add(a, b):
    """Elementwise sum."""
    return record(a.value + b.value, [a, b], lambda g: (g, g))


def mul(a, b):
    """Elementwise (Hadamard) product."""
    av, bv = a.value, b.value
    return record(av * bv, [a, b], lambda g: (g * bv, g * av))


def transpose(a):
    """Matrix transpose."""
    return record(a.value.T, [a], lambda g: (g.T,))


def mul_const(a, c):
    """Scale by a python scalar (not a tape value)."""
    return record(a.value * c, [a], lambda g: (g * c,))


def add_rowvec(a, row):
    """Add a 1 x n row vector to every row of an m x n tensor."""
    return record(a.value + row.value, [a, row], lambda g: (g, g.sum(axis=0, keepdims=True)))


def softmax_rows(a):
    """Row-wise softmax; see ``autodiff.softmax``."""
    out = softmax(a.value)
    return record(out, [a], lambda g: (out * (g - (g * out).sum(axis=1, keepdims=True)),))


def pick_cols(a, cols):
    """Per-row entry pick: a[i, cols[i]] as an m x 1 column."""
    rows, shape = np.arange(a.rows), a.shape

    def vjp(g):
        full = np.zeros(shape)
        full[rows, cols] = g[:, 0]
        return (full,)

    return record(a.value[rows, cols].reshape(-1, 1), [a], vjp)


def concat_cols(parts):
    """Column-wise concatenation of equal-row tensors."""
    bounds = np.cumsum([0] + [p.cols for p in parts])
    return record(np.concatenate([p.value for p in parts], axis=1), parts,
                  lambda g: tuple(g[:, lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])))


def sum_all(a):
    """Sum of all entries as a 1 x 1 tensor."""
    shape = a.shape
    return record(a.value.sum().reshape(1, 1), [a], lambda g: (np.full(shape, g[0, 0]),))


def log_floor(a, floor):
    """Natural log of max(a, floor); zero gradient where the floor is active."""
    x = a.value
    clipped = np.maximum(x, floor)
    return record(np.log(clipped), [a], lambda g: (np.where(x > floor, g / clipped, 0.0),))


def sigmoid(a):
    """Logistic sigmoid; see ``autodiff.logistic``."""
    out = logistic(a.value)
    return record(out, [a], lambda g: (g * out * (1.0 - out),))


def sub_from_one(a):
    """1 - a elementwise."""
    return record(1.0 - a.value, [a], lambda g: (-g,))


def add_const(a, c):
    """a + c for a constant scalar or broadcastable array c."""
    return record(a.value + c, [a], lambda g: (g,))


def tanh_(a):
    """Hyperbolic tangent, clamped strictly inside (-1, 1); see ``autodiff.bounded_tanh``."""
    out = bounded_tanh(a.value)
    return record(out, [a], lambda g: (g * (1.0 - out * out),))


def mul_colvec(a, col):
    """Scale each row of an m x n tensor by the matching entry of an m x 1 column."""
    av, cv = a.value, col.value
    return record(av * cv, [a, col], lambda g: (g * cv, (g * av).sum(axis=1, keepdims=True)))


def op_check(build, *arrays) -> float:
    """``grad_check``'s error of loss = build(*leaves), one leaf per array."""

    def f(params):
        tape = Tape()
        vs = [tape.leaf(params[k]) for k in sorted(params)]
        loss = build(*vs)
        grads = backward(tape, loss)
        return float(loss.value[0, 0]), {k: grads[v.nid] for k, v in zip(sorted(params), vs)}

    return grad_check(f, {f"p{i}": np.asarray(a, dtype=np.float64)
                          for i, a in enumerate(arrays)}, eps=1e-5)
