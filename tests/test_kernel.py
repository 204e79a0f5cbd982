"""The fused recurrence kernel against the per-step tape graph it replaced.

``composed_run`` builds the same computation from elementary tape ops, one
node per operation and step, and lays every step's [c_t | h_t] side by
side.  ``cells.recurrence`` records only the final state, so
``kernel_run`` lays out the final states of the runs over each prefix
xs[:t+1] the same way.  Values and gradients for every input must agree.
The per-op graph is built from the ops of ``tape_ops``.  A reverse run,
the second direction of ``cells.recurrence_pair``, reads a padded batch
last step first, so its rows' real steps start late: the kernel builds it
from the batch's own mask, and the composed graph runs over the reversed
steps with the mask's columns reversed.
"""

import tracemalloc

import numpy as np
import pytest

from cachedlstm.autodiff import (ShapeError, Tape, backward, bounded_tanh, concat_cols, record,
                                 slice_cols, stack_steps)
from cachedlstm.cells import (GATES, _recurrence, bind_params, final_state, init_params,
                              recurrence, recurrence_pair)
from cachedlstm.data import Batch, Document, build_vocab
from cachedlstm.encoder import (EncoderConfig, cbow_encode, encode_bidirectional,
                                encode_forward)
from cachedlstm.model import ModelConfig, build_model
from tape_ops import (add, add_const, add_rowvec, matmul, mul, mul_colvec, mul_const, sigmoid,
                      sub_from_one, sum_all, tanh_, transpose)

CASES = [("rnn", 1), ("lstm", 1), ("cifg", 1), ("clstm", 1), ("clstm", 2),
         ("clstm", 3)]


def composed_run(p, xs, c0, h0, mask, reverse=False):
    """Per-step tape graph of the cell; p holds bound Vars.  With ``reverse``
    it runs over xs last first, and over the mask's columns reversed."""
    if reverse:
        xs, mask = xs[::-1], None if mask is None else mask[:, ::-1]
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


def _steps(xs):
    """(source, ids) of a list of B x d step Vars: their stack and its row ids."""
    return stack_steps(xs), np.arange(len(xs) * xs[0].rows).reshape(len(xs), -1)


def kernel_run(p, xs, c0, h0, mask, reverse=False):
    """The kernel's final state after each prefix of its run, side by side.

    The prefix of t+1 steps is xs[:t+1], or, with ``reverse``, the kernel
    run last step first over xs[T-1-t:].  A suffix of a padded batch's mask
    is still one, so each reverse run takes the mask's last t+1 columns.
    """
    T, finals = len(xs), []
    for t in range(T):
        lo, hi = (T - 1 - t, T) if reverse else (0, t + 1)
        args = (p, *_steps(xs[lo:hi]), c0, h0, None if mask is None else mask[:, lo:hi])
        finals.append(record(*_recurrence(*args, reverse=True)[:3]) if reverse
                      else recurrence(*args))
    return concat_cols(finals)


def _mask(lengths, T):
    """B x T {0, 1} mask with lengths[b] ones first in row b, as ``pad_batch`` makes."""
    return (np.arange(T)[None, :] < np.reshape(lengths, (-1, 1))).astype(float)


def _run_both(kind, n_groups, layout, seed, B=4, d=5, H=6, T=7, lengths=None,
              use_bias=True):
    """(value, gradients, tape length) of ``kernel_run`` and of ``composed_run``.

    ``layout`` is None (no mask), "prefix" (a padded batch's mask) or
    "reverse" (the same mask, run last step first).
    """
    rng = np.random.default_rng(seed)
    params = init_params(kind, d, H, n_groups=n_groups, seed=seed, use_bias=use_bias)
    params.w[:] = rng.uniform(-0.6, 0.6, params.w.shape)
    params.u[:] = rng.uniform(-0.6, 0.6, params.u.shape)
    if use_bias:
        params.b[:] = rng.normal(scale=0.3, size=params.b.shape)
    xs_arr = [rng.normal(size=(B, d)) for _ in range(T)]
    c0_arr = rng.normal(size=(B, H))
    h0_arr = rng.uniform(-1, 1, (B, H))
    if lengths is None and B == 4:
        lengths = np.array([T, 1, 4, T - 1])
    elif lengths is None:
        lengths = np.full(B, 4) if B == 1 else rng.integers(1, T + 1, B)
    mask = None if layout is None else _mask(lengths, T)
    width = (1 if kind == "rnn" else 2) * H
    readout = rng.normal(size=(B, T * width))
    out = []
    for run in (kernel_run, composed_run):
        tape = Tape()
        bound, leaves = bind_params(tape, params)
        xs = [tape.leaf(a) for a in xs_arr]
        c0 = None if kind == "rnn" else tape.leaf(c0_arr)
        h0 = tape.leaf(h0_arr)
        value = run(bound, xs, c0, h0, mask, layout == "reverse")
        grads = backward(tape, sum_all(mul(value, tape.leaf(readout))))
        inputs = dict(leaves, h0=h0, **({} if c0 is None else {"c0": c0}))
        inputs.update({f"x{t}": x for t, x in enumerate(xs)})
        out.append((value.value, {n: np.asarray(grads[v.nid]) for n, v in inputs.items()},
                    len(tape)))
    return out


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("kind,n_groups", CASES)
def test_kernel_matches_composed_tape(kind, n_groups, masked):
    _assert_match(*_run_both(kind, n_groups, "prefix" if masked else None, seed=3))


@pytest.mark.parametrize("layout", ["reverse"])
@pytest.mark.parametrize("kind,n_groups", CASES)
def test_kernel_matches_composed_tape_when_real_steps_start_late(kind, n_groups, layout):
    # The reverse run of a padded batch, whose rows' real steps start after
    # step 0: the VJP rebuilds the h such a step starts from as h0.
    _assert_match(*_run_both(kind, n_groups, layout, seed=3))


@pytest.mark.parametrize("layout", ["prefix", "reverse"])
@pytest.mark.parametrize("kind,n_groups", CASES)
def test_kernel_matches_composed_tape_with_zero_width_steps(kind, n_groups, layout):
    # No row is 7 steps long, so no row is real at the last step of the
    # forward run or at the first step of the reverse one: those steps run
    # on zero columns.
    _assert_match(*_run_both(kind, n_groups, layout, seed=6, lengths=np.array([6, 1, 4, 6])))


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("kind,n_groups", CASES)
def test_kernel_matches_composed_tape_single_row(kind, n_groups, masked):
    # B = 1: every per-step product has one column.
    _assert_match(*_run_both(kind, n_groups, "prefix" if masked else None, seed=8, B=1))


@pytest.mark.parametrize("kind,n_groups", [("lstm", 1), ("clstm", 3)])
def test_kernel_matches_composed_tape_at_preset_shape(kind, n_groups):
    # Padded, with bias, at the preset's d=50, H=120 and B=128: the weight
    # gradients are sums of T per-step products of these shapes.
    _assert_match(*_run_both(kind, n_groups, "prefix", seed=11, B=128, d=50, H=120, T=8))


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
    E, ids = _steps([tape.leaf(np.ones((2, 3))) for _ in range(3)])
    run = recurrence(bound, E, ids, tape.leaf(np.zeros((2, 6))), tape.leaf(np.zeros((2, 6))))
    loss = sum_all(run)
    backward(tape, loss)
    with pytest.raises(RuntimeError, match="already run"):
        backward(tape, loss)


@pytest.mark.parametrize("entry,rows,error,message", [
    ("recurrence", (2, 2, 3), ShapeError, "step 2: 3 input rows, expected 2"),
    ("recurrence", (), ValueError, "stack_steps: empty sequence"),
    ("recurrence", None, ValueError, "recurrence: empty sequence"),
    ("final_state", None, ValueError, "recurrence: empty sequence"),
])
@pytest.mark.parametrize("kind", ["rnn", "clstm"])
def test_empty_or_ragged_steps_are_rejected(kind, entry, rows, error, message):
    # rows None: T = 0 ids of a two-row batch, which reach the kernel.  The
    # taped and the scoring entry run one kernel, so neither returns the
    # initial state.
    tape = Tape()
    params = init_params(kind, 3, 6, n_groups=2 if kind == "clstm" else 1)
    bound, _ = bind_params(tape, params)
    empty = np.zeros((0, 2), dtype=int)
    with pytest.raises(error, match=message):
        if entry == "final_state":
            final_state(params, np.ones((4, 3)), empty)
        else:
            E, ids = ((tape.leaf(np.ones((4, 3))), empty) if rows is None
                      else _steps([tape.leaf(np.ones((n, 3))) for n in rows]))
            c0 = None if kind == "rnn" else tape.leaf(np.zeros((2, 6)))
            recurrence(bound, E, ids, c0, tape.leaf(np.zeros((2, 6))))


def test_masked_steps_carry_state():
    (value, _, _), _ = _run_both("lstm", 1, "prefix", seed=4)
    finals = value.reshape(4, 7, 12)  # the final state of each prefix
    # Row 1 has one real token: every longer prefix ends in the state after it.
    assert (finals[1, 1:] == finals[1, 0]).all()
    assert (finals[2, 4:] == finals[2, 3]).all()
    assert (finals[0, 1] != finals[0, 0]).any()


def test_kernel_is_one_node():
    _, (_, _, ref_nodes) = _run_both("clstm", 3, None, seed=5)
    tape = Tape()
    bound, _ = bind_params(tape, init_params("clstm", 5, 6, n_groups=3, seed=5, use_bias=True))
    E, ids = _steps([tape.leaf(np.ones((4, 5))) for _ in range(7)])
    state = [tape.leaf(np.zeros((4, 6))) for _ in range(2)]
    before = len(tape)  # w, u, b, 7 inputs, their stack, c0 and h0
    recurrence(bound, E, ids, *state)
    assert (before, len(tape)) == (3 + 7 + 1 + 2, 3 + 7 + 1 + 2 + 1)
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
    run = recurrence(bound, *_steps([tape.leaf(x) for x in xs_arr]), c0,
                     tape.leaf(np.zeros((B, H))))
    c, h = final_state(params, np.vstack(xs_arr), np.arange(T * B).reshape(T, B))
    assert run.shape == (B, H if kind == "rnn" else 2 * H)
    np.testing.assert_array_equal(run.value[:, -H:], h)
    if c is not None:
        np.testing.assert_array_equal(run.value[:, :H], c)


@pytest.mark.parametrize("padded", [False, True])
def test_forward_batch_records_no_per_step_cell_nodes(padded):
    # The tape's size does not depend on T: one encoder node per batch, which
    # gathers its own embedding rows, for cbow and for uni- and
    # bidirectional clstm.
    for kind, bidirectional in (("cbow", False), ("clstm", False), ("clstm", True)):
        cfg = ModelConfig(kind=kind, d=4, H=6, K=1 if kind == "cbow" else 3, C=3,
                          bidirectional=bidirectional)
        model = build_model(cfg, build_vocab([Document(0, ["a"])]), seed=0)
        sizes = []
        for n_steps in (5, 40):
            lengths = np.array([n_steps, n_steps - 2 if padded else n_steps])
            mask = (np.arange(n_steps)[None, :] < lengths[:, None]).astype(float)
            batch = Batch(ids=np.zeros((2, n_steps), dtype=np.int64), mask=mask,
                          lengths=lengths, labels=np.zeros(2, dtype=np.int64))
            assert (batch.lengths == batch.n_steps).all() != padded
            tape = Tape()
            model.forward_batch(tape, batch)
            sizes.append(len(tape))
        assert sizes[0] == sizes[1], kind


@pytest.mark.parametrize("padded", [False, True])
@pytest.mark.parametrize("kind,bidirectional", [
    ("cbow", False), ("rnn", False), ("rnn", True), ("lstm", False), ("lstm", True),
    ("cifg", False), ("cifg", True), ("clstm", False), ("clstm", True)])
def test_forward_batch_records_only_2d_values(kind, bidirectional, padded):
    # No batch-wide T x B x d input: every value on the tape is a matrix.
    cfg = ModelConfig(kind=kind, d=4, H=6, K=3 if kind == "clstm" else 1, C=3,
                      bidirectional=bidirectional, use_bias=True)
    model = build_model(cfg, build_vocab([Document(0, ["a", "b", "c"])]), seed=0)
    lengths = np.array([5, 3 if padded else 5, 5])
    mask = (np.arange(5)[None, :] < lengths[:, None]).astype(float)
    ids = np.arange(15).reshape(3, 5) % 5 * mask.astype(np.int64)
    batch = Batch(ids=ids, mask=mask, lengths=lengths, labels=np.zeros(3, dtype=np.int64))
    assert (batch.lengths == batch.n_steps).all() != padded
    tape = Tape()
    model.forward_batch(tape, batch)
    assert [node.value.ndim for node in tape._nodes] == [2] * len(tape)


@pytest.mark.parametrize("bad", [-1, 6])
@pytest.mark.parametrize("encoder", ["recurrence", "recurrence_pair", "final_state",
                                     "cbow_encode"])
def test_an_id_outside_the_source_is_rejected(encoder, bad):
    # numpy would wrap an id of -1 to the last row without an error.
    tape = Tape()
    source = tape.leaf(np.ones((6, 3)))
    ids = np.array([[0, 5], [bad, 2]])
    params = init_params("lstm", 3, 4, seed=0)
    bound, _ = bind_params(tape, params)
    run = (bound, tape.leaf(np.zeros((2, 4))), tape.leaf(np.zeros((2, 4))))
    call = {"recurrence": lambda: recurrence(*run[:1], source, ids, *run[1:]),
            "recurrence_pair": lambda: recurrence_pair(source, ids, None, run, run),
            "final_state": lambda: final_state(params, source.value, ids),
            "cbow_encode": lambda: cbow_encode(source, ids, np.ones((2, 2)))}[encoder]
    with pytest.raises(IndexError, match="id out of range for 6 rows"):
        call()


def _encoders(tape, T=6, B=2):
    """recurrence, recurrence_pair, final_state, encode_forward and
    encode_bidirectional over one T x B run, by name, each called with a mask."""
    source = tape.leaf(np.ones((6, 3)))
    ids = np.zeros((T, B), dtype=np.int64)
    params = init_params("lstm", 3, 4, seed=0)
    bound, _ = bind_params(tape, params)
    run = (bound, tape.leaf(np.zeros((B, 4))), tape.leaf(np.zeros((B, 4))))
    cfg = EncoderConfig("lstm", d=3, H=4)
    bi = EncoderConfig("lstm", d=3, H=4, bidirectional=True)
    return {"recurrence": lambda m: recurrence(run[0], source, ids, *run[1:], m),
            "recurrence_pair": lambda m: recurrence_pair(source, ids, m, run, run),
            "final_state": lambda m: final_state(params, source.value, ids, m),
            "encode_forward": lambda m: encode_forward(cfg, bound, (source, ids), m),
            "encode_bidirectional": lambda m: encode_bidirectional(bi, bound, bound,
                                                                   (source, ids), m)}


ENCODERS = ["recurrence", "recurrence_pair", "final_state", "encode_forward",
            "encode_bidirectional"]


@pytest.mark.parametrize("shape", [(2, 7), (2, 9), (3, 6), (1, 6), (6, 2), (12,)])
@pytest.mark.parametrize("encoder", ENCODERS)
def test_a_mask_of_the_wrong_shape_is_rejected(encoder, shape):
    # Indexing by step would read only the first T columns of a wider mask,
    # and broadcast a one-row mask over the batch, without an error.
    call = _encoders(Tape())[encoder]
    with pytest.raises(ShapeError, match=r"mask must be 2x6 \(batch x steps\), got "
                       + "x".join(map(str, shape)) + "$"):
        call(np.ones(shape))
    call(np.ones((2, 6)))


@pytest.mark.parametrize("mask,error,message", [
    ([[1, 1, 1], [1, 0, 1]], ValueError, "mask row 1 has a real step after a padded one"),
    ([[1, 1, 0], [0, 1, 0]], ValueError, "mask row 1 has a real step after a padded one"),
    ([[0, 1, 1], [0, 0, 1]], ValueError, "mask row 0 has a real step after a padded one"),
    ([[1, 1, 0], [0, 1, 1]], ValueError, "mask row 1 has a real step after a padded one"),
    ([[1, 1, 1, 1], [1, 1, 0, 0]], ShapeError, r"mask must be 2x3 \(batch x steps\)"),
], ids=["hole", "centred", "right-aligned", "left-right-mix", "wrong-shape"])
@pytest.mark.parametrize("encoder", ENCODERS)
def test_only_a_padded_batchs_mask_is_accepted(encoder, mask, error, message):
    # Every entry takes one mask layout, the one ``pad_batch`` makes: each
    # row's real steps first.  A step runs on the rows real there, and the
    # reverse run, which the kernel builds from that mask, starts a row
    # from h0 at its first real step.
    call = _encoders(Tape(), T=3)[encoder]
    with pytest.raises(error, match=message):
        call(np.array(mask))
    for ok in ([[1, 1, 1], [1, 1, 0]], [[1, 0, 0], [0, 0, 0]], [[1, 1, 1], [1, 1, 1]]):
        call(np.array(ok))


@pytest.mark.parametrize("kind,n_groups", [("rnn", 1), ("clstm", 2)])
def test_a_full_mask_gives_the_bits_of_no_mask(kind, n_groups):
    # An unpadded batch passes its all-ones mask, and takes the path of no
    # mask: the identity order and every step B wide.
    rng = np.random.default_rng(17)
    B, d, H, T, V = 3, 4, 6, 5, 9
    params = [init_params(kind, d, H, n_groups=n_groups, seed=s, use_bias=True) for s in (1, 2)]
    source, ids = rng.normal(size=(V, d)), rng.integers(0, V, (T, B))
    readout = rng.normal(size=(B, 2 * (H if kind == "rnn" else 2 * H)))
    out = []
    for mask in (None, np.ones((B, T))):
        tape = Tape()
        bound = [bind_params(tape, p) for p in params]
        E = tape.leaf(source)
        runs = [(b, None if kind == "rnn" else tape.leaf(np.zeros((B, H))),
                 tape.leaf(np.zeros((B, H)))) for b, _ in bound]
        one = recurrence(*runs[0][:1], E, ids, *runs[0][1:], mask)
        pair = recurrence_pair(E, ids, mask, *runs)
        grads = backward(tape, sum_all(mul(concat_cols([one, pair]),
                                           tape.leaf(np.hstack([readout[:, :one.cols],
                                                                readout])))))
        leaves = [E] + [v for (_, ls), r in zip(bound, runs) for v in (*ls.values(), *r[1:])
                        if v is not None]
        got = [one.value, pair.value] + [np.asarray(grads[v.nid]) for v in leaves]
        got += [a for k, p in enumerate(params)
                for a in final_state(p, source, ids, mask, reverse=k == 1) if a is not None]
        out.append(got)
    assert len(out[0]) == len(out[1])
    for a, b in zip(*out):
        assert a.tobytes() == b.tobytes()


def test_a_full_mask_gives_cbow_the_bits_of_no_mask():
    rng = np.random.default_rng(18)
    source, ids, g = rng.normal(size=(9, 4)), rng.integers(0, 9, (5, 3)), rng.normal(size=(3, 4))
    tape = Tape()
    E = tape.leaf(source)
    node = cbow_encode(E, ids, np.ones((3, 5)))
    want = bounded_tanh(source[ids[0]] + source[ids[1]] + source[ids[2]] + source[ids[3]]
                   + source[ids[4]])
    assert node.value.tobytes() == want.tobytes()
    rows = backward(tape, sum_all(mul(node, tape.leaf(g))))[E.nid].rows
    assert rows.tobytes() == np.tile(g * (1.0 - want * want), (5, 1)).tobytes()


def _run_in_row_order(order, bidirectional, B=6, d=3, H=6, T=8, V=11):
    """Value and gradients, by name, of one masked run over the rows ``order``
    of a batch of distinct lengths; per-row arrays are put back in batch order."""
    rng = np.random.default_rng(21)
    params = [init_params("clstm", d, H, n_groups=2, seed=s, use_bias=True) for s in (1, 2)]
    for p in params:
        p.b[:] = rng.normal(scale=0.3, size=p.b.shape)
    lengths = np.array([8, 6, 5, 3, 2, 1])
    mask = (np.arange(T)[None, :] < lengths[:, None]).astype(float)
    source, ids = rng.normal(size=(V, d)), rng.integers(0, V, (T, B))
    states = [rng.normal(size=(B, H)) for _ in range(4)]
    readout = rng.normal(size=(B, (4 if bidirectional else 2) * H))
    tape = Tape()
    bound = [bind_params(tape, p) for p in params]
    E = tape.leaf(source)
    c1, h1, c2, h2 = (tape.leaf(a[order]) for a in states)
    runs = (bound[0][0], c1, h1), (bound[1][0], c2, h2)
    if bidirectional:
        node = recurrence_pair(E, ids[:, order], mask[order], *runs)
    else:
        node = recurrence(bound[0][0], E, ids[:, order], c1, h1, mask[order])
    grads = backward(tape, sum_all(mul(node, tape.leaf(readout[order]))))
    back = np.argsort(order)
    out = {"value": node.value[back], "E": np.asarray(grads[E.nid])}
    out.update({name: grads[v.nid][back] for name, v in zip(("c1", "h1", "c2", "h2"),
                                                             (c1, h1, c2, h2))})
    out.update({f"{k}.{name}": grads[v.nid] for k, (_, leaves) in enumerate(bound)
                for name, v in leaves.items()})
    return out


@pytest.mark.parametrize("bidirectional", [False, True])
def test_row_order_does_not_change_a_rows_bits(bidirectional):
    # The kernel runs a padded batch's rows longest first and answers in
    # input order.  With distinct lengths, a shuffled batch then makes the
    # same products as the batch sorted longest first: each row's value and
    # state gradients, E's gradient and the weight gradients keep their bits.
    ref = _run_in_row_order(np.arange(6), bidirectional)
    got = _run_in_row_order(np.array([3, 0, 5, 1, 4, 2]), bidirectional)
    assert got.keys() == ref.keys()
    for name in ref:
        assert got[name].tobytes() == ref[name].tobytes(), name


def test_kernel_keeps_only_activations_and_c_checkpoints():
    # One needle-shape direction (clstm, d=20, H=30, B=32, T=200), forward and
    # VJP.  Its history is each step's G*H x B activations, G*H*8 = 720 bytes
    # per token position, all alive when the VJP starts, and the c carried
    # into every S-th step, S = ceil(sqrt(T)) = 15.  The slack covers the
    # rest: the checkpoints and the segment buffer the VJP rebuilds c into
    # (~17 bytes per position each), the rebuilt keep and write of one
    # segment (~36), and the run's T x B copy of its ids (8) (traced: ~822).
    # A kernel that kept every step's carried c traced ~1,020, and one that
    # also kept tanh(c') and the (c, h) each step starts from ~1,640.
    G, H, B, T, d = 3, 30, 32, 200, 20
    rng = np.random.default_rng(0)
    tape = Tape()
    bound, _ = bind_params(tape, init_params("clstm", d, H, n_groups=3, seed=0))
    source = tape.leaf(rng.normal(size=(505, d)))
    ids = rng.integers(0, 505, (T, B))
    c0, h0, readout = (tape.leaf(a) for a in (np.zeros((B, H)), np.zeros((B, H)),
                                                 rng.normal(size=(B, 2 * H))))
    tracemalloc.start()
    try:
        backward(tape, sum_all(mul(recurrence(bound, source, ids, c0, h0), readout)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (T * B) < G * H * 8 + 130, f"traced peak {peak} bytes"


@pytest.mark.parametrize("layout", ["prefix", "reverse"])
def test_padded_kernel_keeps_history_only_for_real_positions(layout):
    # The needle-shape direction above on a padded batch, half of whose
    # positions are real, run forward or in reverse.  Each step keeps its
    # activations on its real rows only, G*H*8 = 720 bytes per real
    # position; the slack covers the rest, mostly the c checkpoints and the
    # B-wide segment buffer and per-step temporaries, and the run's T x B
    # copy of its ids (traced: ~864 forward, ~918 in reverse).  A kernel that also kept each
    # step's carried c traced ~1,055 and ~1,075, and one that keeps every
    # step B wide ~2,020 per real position here.
    G, H, B, T, d = 3, 30, 32, 200, 20
    rng = np.random.default_rng(0)
    tape = Tape()
    bound, _ = bind_params(tape, init_params("clstm", d, H, n_groups=3, seed=0))
    source = tape.leaf(rng.normal(size=(505, d)))
    ids = rng.integers(0, 505, (T, B))
    lengths = rng.integers(1, T + 1, B)
    lengths[0] = T
    mask = _mask(lengths, T)
    c0, h0, readout = (tape.leaf(a) for a in (np.zeros((B, H)), np.zeros((B, H)),
                                                 rng.normal(size=(B, 2 * H))))
    tracemalloc.start()
    try:
        run = record(*_recurrence(bound, source, ids, c0, h0, mask,
                                  reverse=layout == "reverse")[:3])
        backward(tape, sum_all(mul(run, readout)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.45 < lengths.sum() / (T * B) < 0.55
    assert peak / lengths.sum() < G * H * 8 + 230, f"traced peak {peak} bytes"


@pytest.mark.parametrize("kind", ["lstm", "cifg", "clstm"])
@pytest.mark.parametrize("reverse", [False, True])
def test_scoring_peak_is_one_steps_working_set(kind, reverse):
    # One preset-shape direction (d=50, H=120, K=3, B=64, T=100) scored on a
    # padded batch whose 64 rows end at 64 distinct steps.  A step holds its
    # G*H x b activations and the U h it adds to them, and the carried c and
    # h and clstm's band offset, H x B each; its b x d input rows are freed
    # before U h is made.  The margin is the ids and column order (traced:
    # clstm 556.8 kB against a 552.96 kB working set, lstm 618.5 against
    # 614.4, cifg 495.3 against 491.5).  Three H x B band arrays and input
    # rows alive during U h traced 705.9 kB for clstm; a run that kept c
    # and h B wide, so that a step copied the strided h for U h, and made
    # three H x b temporaries for the blend traced 823.8 kB.
    d, H, B, T = 50, 120, 64, 100
    G = len(GATES[kind])
    rng = np.random.default_rng(0)
    source = rng.normal(size=(500, d))
    p = init_params(kind, d, H, n_groups=3 if kind == "clstm" else 1, seed=1)
    ids = rng.integers(0, 500, (T, B))
    lengths = T - np.arange(B) * 37 % T
    assert len(set(lengths.tolist())) == B
    mask = _mask(lengths, T)
    tracemalloc.start()
    try:
        final_state(p, source, ids, mask, reverse=reverse)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (2 * G * H * B + (2 + (kind == "clstm")) * H * B) * 8 + 8192, (
        f"traced peak {peak} bytes")
