"""The recurrence kernel's contract, as property tests over generated runs.

Each example draws a cell kind, its group count K, H (a multiple of K), d,
B and T, bias on or off, per-row lengths (0 and T among them), no mask or
a padded batch's (each row's real steps first), one direction, run
forward or in reverse, or a pair, run here or with its second direction
in the helper process.  T
runs from 1 to 40 and is drawn often next to the kernel's segment
boundaries: S^2 - 1, S^2 and S^2 + 1, and k*S - 1 and
k*S + 1, with S = ceil(sqrt(T)) the length of the segments over which the
VJP rebuilds c.  The properties:

- the value and every gradient agree within 1e-12 with the composed
  per-op tape of ``test_kernel`` (``_run_both``), over every prefix of the
  run; a reverse run against the composed tape over the reversed steps;
- the kernel's scoring run (``final_state``, or ``tape_ops.run_kernel``
  on arrays for a reverse run) gives the taped value, byte for byte, in
  each direction;
- ``recurrence_pair`` gives the values and gradients of two kernel runs
  from zero, the second in reverse, byte for byte, with and without the
  helper, and so does a rerun.

A second test draws padded batches whose rows have distinct lengths, so
that the kernel's longest-first column order does not depend on the
order of the rows: a batch in any row order gives the same values and
gradients, byte for byte, each row's in its own place, and each row's
final state agrees within 1e-12 with that row run alone (a GEMM's last
bits depend on its width, so not byte for byte).
"""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from tape_ops import concat_cols, mul, run_kernel, sum_all
from test_kernel import _assert_match, _mask, _run_both

from cachedlstm.autodiff import Tape, backward
from cachedlstm.cells import CELL_KINDS, bind_params, final_state, init_params, recurrence_pair

KERNEL = settings(derandomize=True, database=None, deadline=None, max_examples=100,
                  suppress_health_check=[HealthCheck.too_slow])

STEPS = st.one_of(
    st.integers(1, 40),
    st.builds(lambda s, e: max(1, s * s + e), st.integers(1, 6), st.sampled_from([-1, 0, 1])),
    st.builds(lambda s, k, e: k * s + e, st.integers(2, 6), st.integers(1, 6),
              st.sampled_from([-1, 1])),
)


@st.composite
def runs(draw, distinct=False):
    """One run's drawn parameters; with ``distinct``, a padded batch whose
    rows have distinct lengths."""
    kind = draw(st.sampled_from(CELL_KINDS))
    K = draw(st.integers(1, 3)) if kind == "clstm" else 1
    T = draw(STEPS)
    B = draw(st.integers(1, min(5, T + 1) if distinct else 5))
    lengths = draw(st.lists(st.one_of(st.sampled_from([0, T]), st.integers(0, T)),
                            min_size=B, max_size=B, unique=distinct))
    layouts = ["prefix", "reverse"] + ([] if distinct else [None])
    return dict(kind=kind, K=K, H=K * draw(st.integers(1, 3)), d=draw(st.integers(1, 4)),
                B=B, T=T, bias=draw(st.booleans()), lengths=np.array(lengths),
                layout=draw(st.sampled_from(layouts)),
                pair=draw(st.booleans()), helper=draw(st.booleans()),
                seed=draw(st.integers(0, 2 ** 16)))


def _taped(run, helper, zero_start=False, order=None):
    """Value and every gradient (dense, by leaf order) of ``run``'s kernel node(s).

    With ``run["pair"]`` that is one ``recurrence_pair`` node and then a
    forward and a reverse kernel run side by side, else one kernel run,
    in reverse for the "reverse" layout (``tape_ops.run_kernel``); also
    returns the parameters, inputs and each direction's ``reverse``, for
    the scoring runs.  With
    ``helper`` the process may use two CPUs, so a pair runs its second
    direction in the helper process; without, one.  A pair, and the two
    runs it is checked against, start from the zero state; one direction's
    initial state is random, or zero leaves as in ``final_state`` with
    ``zero_start``.  With ``order`` the batch's rows
    run in that order, and the per-row results are put back in batch
    order.  The source's rows are distinct, each read at one position, so
    summing a row's gradients in another order cannot move its bits.
    """
    kind, K, H, d, B, T = (run[k] for k in ("kind", "K", "H", "d", "B", "T"))
    rng = np.random.default_rng(run["seed"])
    params = []
    for s in range(2 if run["pair"] else 1):
        p = init_params(kind, d, H, n_groups=K, seed=s, use_bias=run["bias"])
        p.w[:] = rng.uniform(-0.6, 0.6, p.w.shape)
        p.u[:] = rng.uniform(-0.6, 0.6, p.u.shape)
        if run["bias"]:
            p.b[:] = rng.normal(scale=0.3, size=p.b.shape)
        params.append(p)
    source = rng.normal(size=(T * B, d))
    ids = rng.permutation(T * B).reshape(T, B)
    mask = None if run["layout"] is None else _mask(run["lengths"], T)
    reverses = [False, True] if run["pair"] else [run["layout"] == "reverse"]
    states = [(None if kind == "rnn" else rng.normal(size=(B, H)), rng.uniform(-1, 1, (B, H)))
              for _ in params]
    if zero_start:
        states = [(None if c0 is None else np.zeros_like(c0), np.zeros_like(h0))
                  for c0, h0 in states]
    if run["pair"]:  # drawn all the same, so that the readout keeps its draws
        states = [(None, None)] * len(params)
    width = len(params) * (H if kind == "rnn" else 2 * H)
    readout = rng.normal(size=(B, width))
    inputs = (params, source, ids, mask, reverses)
    order = np.arange(B) if order is None else order
    back = np.argsort(order)
    ids, readout = ids[:, order], readout[order]
    mask = None if mask is None else mask[order]
    states = [(None if c0 is None else c0[order], None if h0 is None else h0[order])
              for c0, h0 in states]
    out = []
    for paired in ((True, False) if run["pair"] else (False,)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1} if helper else {0})
            tape = Tape()
            bound = [bind_params(tape, p) for p in params]
            E = tape.leaf(source)
            dirs = [(b, *(None if a is None else tape.leaf(a) for a in state))
                    for (b, _), state in zip(bound, states)]
            if paired:
                node = recurrence_pair(E, ids, mask, *(b for b, _ in bound))
            else:
                node = concat_cols([run_kernel(d[0], E, ids, *d[1:], mask, r)
                                    for d, r in zip(dirs, reverses)])
            grads = backward(tape, sum_all(mul(node, tape.leaf(readout))))
        rows = [node] + [v for _, c0, h0 in dirs for v in (c0, h0) if v is not None]
        shared = [E] + [v for _, ls in bound for v in ls.values()]
        out.append([node.value[back]] + [np.asarray(grads[v.nid])[back] for v in rows[1:]]
                   + [np.asarray(grads[v.nid]) for v in shared])
    return out, inputs


def _scored(p, source, ids, mask, reverse):
    """A direction's final state from the scoring kernel: ``final_state``, or a reverse run."""
    if reverse:
        return run_kernel(p, source, ids, mask=mask, reverse=True)
    return final_state(p, source, ids, mask)


def _same_bytes(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


@KERNEL
@given(runs())
def test_kernel_keeps_its_contract(run):
    # The composed tape checks one direction over every prefix of the run.
    _assert_match(*_run_both(run["kind"], run["K"], run["layout"], run["seed"], B=run["B"],
                             d=run["d"], H=run["H"], T=run["T"], lengths=run["lengths"],
                             use_bias=run["bias"]))
    taped = _taped(run, run["helper"])[0]
    from_zero, (params, source, ids, mask, reverses) = _taped(run, run["helper"],
                                                              zero_start=True)
    value = from_zero[0][0]
    n = len(params)
    for k, (p, reverse) in enumerate(zip(params, reverses)):
        half = value[:, k * value.shape[1] // n:(k + 1) * value.shape[1] // n]
        assert half.tobytes() == _scored(p, source, ids, mask, reverse).tobytes()
    if run["pair"]:
        _same_bytes(taped[0], taped[1])  # recurrence_pair against two recurrences
        _same_bytes(taped[0], _taped(run, not run["helper"])[0][0])
    _same_bytes(taped[0], _taped(run, run["helper"])[0][0])  # a rerun


@settings(KERNEL, max_examples=50)
@given(runs(distinct=True), st.data())
def test_row_order_and_batch_mates_keep_a_rows_result(run, data):
    order = np.array(data.draw(st.permutations(range(run["B"]))))
    ref, (params, source, ids, mask, reverses) = _taped(run, run["helper"])
    _same_bytes(_taped(run, run["helper"], order=order)[0][0], ref[0])
    H = run["H"]
    parts = [slice(-H, None)] + ([] if run["kind"] == "rnn" else [slice(None, H)])  # h, c
    for p, reverse in zip(params, reverses):
        batch = _scored(p, source, ids, mask, reverse)
        for r in range(run["B"]):
            alone = _scored(p, source, ids[:, [r]], mask[[r]], reverse)
            for part in parts:
                got, want = batch[r, part], alone[0, part]
                assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
