"""The fused recurrence kernel against the per-step tape graph it replaced.

``composed_run`` builds the same computation from elementary tape ops, one
node per operation and step, and lays every step's [c_t | h_t] side by
side.  ``cells.recurrence`` records only the final state, so
``kernel_run`` lays out the final states of the runs over each prefix
xs[:t+1] the same way.  Values and gradients for every input must agree.
The three ops below exist only for that reference; they are built on
``autodiff.record`` and checked against central differences here.
"""

import numpy as np
import pytest

from cachedlstm.autodiff import (
    ShapeError,
    Tape,
    add,
    add_rowvec,
    backward,
    concat_cols,
    grad_check,
    logistic,
    matmul,
    mul,
    mul_colvec,
    mul_const,
    record,
    slice_cols,
    sum_all,
    tanh_,
    transpose,
)
from cachedlstm.cells import GATES, bind_params, final_state, init_params, recurrence
from cachedlstm.data import Batch, Document, build_vocab
from cachedlstm.model import ModelConfig, build_model

CASES = [("rnn", 1), ("lstm", 1), ("cifg", 1), ("clstm", 1), ("clstm", 2),
         ("clstm", 3)]


def sigmoid(a):
    """Logistic sigmoid as a tape op; see ``autodiff.logistic``."""
    out = logistic(a.value)
    return record(out, [a], lambda g: (g * out * (1.0 - out),))


def sub_from_one(a):
    """1 - a elementwise."""
    return record(1.0 - a.value, [a], lambda g: (-g,))


def add_const(a, c):
    """a + c for a constant scalar or broadcastable array c."""
    return record(a.value + c, [a], lambda g: (g,))


def _op_check(build, *arrays):
    def f(params):
        tape = Tape()
        vs = [tape.leaf(params[k]) for k in sorted(params)]
        loss = build(*vs)
        grads = backward(tape, loss)
        return float(loss.value[0, 0]), {k: grads[v.nid] for k, v in zip(sorted(params), vs)}

    return grad_check(f, {f"p{i}": a for i, a in enumerate(arrays)}, eps=1e-5)


def test_reference_sigmoid_gradient():
    a = np.random.default_rng(20240817).normal(size=(4, 6))
    assert _op_check(lambda a: sum_all(mul(sigmoid(a), a)), a) < 1e-6


def test_reference_sub_from_one_gradient():
    a = np.random.default_rng(20240818).normal(size=(3, 3))
    assert _op_check(lambda a: sum_all(mul(sub_from_one(a), a)), a) < 1e-6


def test_reference_add_const_gradient():
    a = np.random.default_rng(20240819).normal(size=(3, 6))
    off = np.repeat(np.arange(3) / 3.0, 2).reshape(1, 6)
    assert _op_check(lambda a: sum_all(tanh_(add_const(mul_const(sigmoid(a), 1 / 3), off))),
                     a) < 1e-6


def composed_run(p, xs, c0, h0, mask):
    """Per-step tape graph of the cell; p holds bound Vars."""
    tape = xs[0].tape
    kind, H, K = p.kind, p.hidden_size, p.n_groups
    gates = GATES[kind]
    w_t, u_t = transpose(p.w), transpose(p.u)
    b_t = None if p.b is None else transpose(p.b)
    offsets = np.repeat(np.arange(K) / K, H // K).reshape(1, H)

    def pre(gate, x, h):
        lo = gates.index(gate) * H
        a = add(matmul(x, slice_cols(w_t, lo, lo + H)),
                matmul(h, slice_cols(u_t, lo, lo + H)))
        return a if b_t is None else add_rowvec(a, slice_cols(b_t, lo, lo + H))

    c, h = c0, h0
    blocks = []
    for t, x in enumerate(xs):
        if kind == "rnn":
            h_new = tanh_(pre("h", x, h))
        else:
            o = sigmoid(pre("o", x, h))
            ctil = tanh_(pre("c", x, h))
            if kind == "lstm":
                keep, write = sigmoid(pre("f", x, h)), sigmoid(pre("i", x, h))
            elif kind == "cifg":
                keep = sigmoid(pre("f", x, h))
                write = sub_from_one(keep)
            else:
                write = add_const(mul_const(sigmoid(pre("r", x, h)), 1.0 / K), offsets)
                keep = sub_from_one(write)
            c_new = add(mul(keep, c), mul(write, ctil))
            h_new = mul(o, tanh_(c_new))
        if mask is None:
            h = h_new
            c = c_new if kind != "rnn" else None
        else:
            m = tape.leaf(mask[:, t:t + 1])
            m_not = sub_from_one(m)
            h = add(mul_colvec(h_new, m), mul_colvec(h, m_not))
            if kind != "rnn":
                c = add(mul_colvec(c_new, m), mul_colvec(c, m_not))
        blocks += [h] if kind == "rnn" else [c, h]
    return concat_cols(blocks)


def kernel_run(p, xs, c0, h0, mask):
    """The kernel's final state after each prefix xs[:t+1], side by side."""
    return concat_cols([recurrence(p, xs[:t + 1], c0, h0,
                                   None if mask is None else mask[:, :t + 1])
                        for t in range(len(xs))])


def _run_both(kind, n_groups, masked, seed, B=4, d=5, H=6, T=7):
    rng = np.random.default_rng(seed)
    params = init_params(kind, d, H, n_groups=n_groups, seed=seed, use_bias=True)
    params.w[:] = rng.uniform(-0.6, 0.6, params.w.shape)
    params.u[:] = rng.uniform(-0.6, 0.6, params.u.shape)
    params.b[:] = rng.normal(scale=0.3, size=params.b.shape)
    xs_arr = [rng.normal(size=(B, d)) for _ in range(T)]
    c0_arr = rng.normal(size=(B, H))
    h0_arr = rng.uniform(-1, 1, (B, H))
    if B == 4:
        lengths = np.array([T, 1, 4, T - 1])
    else:
        lengths = np.full(B, 4) if B == 1 else rng.integers(1, T + 1, B)
    mask = (np.arange(T)[None, :] < lengths[:, None]).astype(float) if masked else None
    width = (1 if kind == "rnn" else 2) * H
    readout = rng.normal(size=(B, T * width))
    out = []
    for run in (kernel_run, composed_run):
        tape = Tape()
        bound, leaves = bind_params(tape, params)
        xs = [tape.leaf(a) for a in xs_arr]
        c0 = None if kind == "rnn" else tape.leaf(c0_arr)
        h0 = tape.leaf(h0_arr)
        value = run(bound, xs, c0, h0, mask)
        grads = backward(tape, sum_all(mul(value, tape.leaf(readout))))
        inputs = dict(leaves, h0=h0, **({} if c0 is None else {"c0": c0}))
        inputs.update({f"x{t}": x for t, x in enumerate(xs)})
        out.append((value.value, {n: np.asarray(grads[v.nid]) for n, v in inputs.items()},
                    len(tape)))
    return out


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("kind,n_groups", CASES)
def test_kernel_matches_composed_tape(kind, n_groups, masked):
    _assert_match(*_run_both(kind, n_groups, masked, seed=3))


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("kind,n_groups", CASES)
def test_kernel_matches_composed_tape_single_row(kind, n_groups, masked):
    # B = 1: every per-step product has one column.
    _assert_match(*_run_both(kind, n_groups, masked, seed=8, B=1))


@pytest.mark.parametrize("kind,n_groups", [("lstm", 1), ("clstm", 3)])
def test_kernel_matches_composed_tape_at_preset_shape(kind, n_groups):
    # Padded, with bias, at the preset's d=50, H=120 and B=128: the weight
    # gradients are sums of T per-step products of these shapes.
    _assert_match(*_run_both(kind, n_groups, True, seed=11, B=128, d=50, H=120, T=8))


def _assert_match(run, ref):
    (value, grads, _), (ref_value, ref_grads, _) = run, ref
    assert value.shape == ref_value.shape
    assert np.abs(value - ref_value).max() <= 1e-12
    assert grads.keys() == ref_grads.keys()
    for name, g in grads.items():
        scale = max(1.0, np.abs(ref_grads[name]).max())
        assert np.abs(g - ref_grads[name]).max() <= 1e-12 * scale, name


def test_vjp_raises_on_a_second_call():
    # The VJP overwrites the saved activations with gradients.
    tape = Tape()
    bound, _ = bind_params(tape, init_params("clstm", 3, 6, n_groups=2, seed=0))
    xs = [tape.leaf(np.ones((2, 3))) for _ in range(3)]
    run = recurrence(bound, xs, tape.leaf(np.zeros((2, 6))), tape.leaf(np.zeros((2, 6))))
    loss = sum_all(run)
    backward(tape, loss)
    with pytest.raises(RuntimeError, match="already run"):
        backward(tape, loss)


@pytest.mark.parametrize("rows,error,message", [
    ((2, 2, 3), ShapeError, "step 2: 3 input rows, expected 2"),
    ((), ValueError, "empty sequence"),
])
@pytest.mark.parametrize("kind", ["rnn", "clstm"])
def test_empty_or_ragged_steps_are_rejected(kind, rows, error, message):
    tape = Tape()
    bound, _ = bind_params(tape, init_params(kind, 3, 6, n_groups=2 if kind == "clstm" else 1))
    xs = [tape.leaf(np.ones((n, 3))) for n in rows]
    c0 = None if kind == "rnn" else tape.leaf(np.zeros((2, 6)))
    with pytest.raises(error, match=message):
        recurrence(bound, xs, c0, tape.leaf(np.zeros((2, 6))))


def test_masked_steps_carry_state():
    (value, _, _), _ = _run_both("lstm", 1, masked=True, seed=4)
    finals = value.reshape(4, 7, 12)  # the final state of each prefix
    # Row 1 has one real token: every longer prefix ends in the state after it.
    assert (finals[1, 1:] == finals[1, 0]).all()
    assert (finals[2, 4:] == finals[2, 3]).all()
    assert (finals[0, 1] != finals[0, 0]).any()


def test_kernel_is_one_node():
    _, (_, _, ref_nodes) = _run_both("clstm", 3, masked=False, seed=5)
    tape = Tape()
    bound, _ = bind_params(tape, init_params("clstm", 5, 6, n_groups=3, seed=5, use_bias=True))
    xs = [tape.leaf(np.ones((4, 5))) for _ in range(7)]
    state = [tape.leaf(np.zeros((4, 6))) for _ in range(2)]
    before = len(tape)  # w, u, b, 7 inputs, c0 and h0
    recurrence(bound, xs, *state)
    assert (before, len(tape)) == (3 + 7 + 2, 3 + 7 + 2 + 1)
    assert ref_nodes > 7 * 20


@pytest.mark.parametrize("kind", ["rnn", "lstm", "cifg", "clstm"])
def test_value_is_the_final_state(kind):
    # B x S at any T: [c_T | h_T], or h_T for rnn, as ``final_state`` gives it.
    rng = np.random.default_rng(12)
    B, d, H, T = 3, 4, 6, 40
    params = init_params(kind, d, H, n_groups=3 if kind == "clstm" else 1, seed=2)
    tape = Tape()
    bound, _ = bind_params(tape, params)
    xs_arr = [rng.normal(size=(B, d)) for _ in range(T)]
    c0 = None if kind == "rnn" else tape.leaf(np.zeros((B, H)))
    run = recurrence(bound, [tape.leaf(x) for x in xs_arr], c0, tape.leaf(np.zeros((B, H))))
    c, h = final_state(params, ((x, None) for x in xs_arr), B)
    assert run.shape == (B, H if kind == "rnn" else 2 * H)
    np.testing.assert_array_equal(run.value[:, -H:], h)
    if c is not None:
        np.testing.assert_array_equal(run.value[:, :H], c)


@pytest.mark.parametrize("bidirectional", [False, True])
def test_forward_batch_records_no_per_step_cell_nodes(bidirectional):
    cfg = ModelConfig(kind="clstm", d=4, H=6, K=3, C=3, bidirectional=bidirectional)
    model = build_model(cfg, build_vocab([Document(0, ["a"])]), seed=0)
    sizes = []
    for n_steps in (5, 40):
        ids = np.zeros((2, n_steps), dtype=np.int64)
        batch = Batch(ids=ids, mask=np.ones((2, n_steps)),
                      lengths=np.array([n_steps, n_steps]), labels=np.zeros(2, dtype=np.int64))
        tape = Tape()
        model.forward_batch(tape, batch)
        sizes.append(len(tape) - n_steps)  # one embedding gather per step
    assert sizes[0] == sizes[1]
