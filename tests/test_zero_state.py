"""A run from the zero state: (c0, h0) = (None, None) instead of zero leaves.

The encoders start every run from the zero state, which the kernel makes
itself as a read-only broadcast of 0.0.  Such a node must give the value
and the E, w, u and b gradients of a run from explicit zero leaves, bit for
bit, list only E and the weights as parents, and make no gradient for an
initial state.  A pair always starts from zero, and must give the bits of
a forward and a reverse run from zero leaves.  Its helper gets the same
run request as scoring's, and a bidirectional model's taped forward pass
records no zero leaf and one representation node between the pair and the
classifier.
"""

import os

import numpy as np
import pytest

from cachedlstm import cells
from cachedlstm.autodiff import Tape
from cachedlstm.cells import bind_params, init_params, recurrence, recurrence_pair
from cachedlstm.data import Document, build_vocab, pad_batch
from cachedlstm.model import ModelConfig, build_model

CASES = [("rnn", 1), ("lstm", 1), ("cifg", 1), ("clstm", 1), ("clstm", 3)]


def _parts(params, source, ids, mask, zero_leaves):
    """(E, weight leaves, parts) of a run of each cell in ``params``, the second in reverse.

    Each part is the (value, parent ids, vjp) of one kernel run.  From zero
    leaves every run is a ``_recurrence`` of its own; from the zero state
    they are one ``recurrence`` or ``recurrence_pair`` node.
    """
    tape = Tape()
    bound = [bind_params(tape, p) for p in params]
    E = tape.leaf(source)
    weights = [v for _, leaves in bound for v in leaves.values()]
    B, H = ids.shape[1], params[0].hidden_size
    if zero_leaves:
        parts = []
        for k, (p, _) in enumerate(bound):
            c0 = None if p.kind == "rnn" else tape.leaf(np.zeros((B, H)))
            value, parents, vjp, _ = cells._recurrence(p, E, ids, c0, tape.leaf(np.zeros((B, H))),
                                                       mask, reverse=k == 1)
            parts.append((value, [v.nid for v in parents], vjp))
        return E, weights, parts
    first, *second = (p for p, _ in bound)
    node = (recurrence_pair(E, ids, mask, first, *second) if second
            else recurrence(first, E, ids, None, None, mask))
    return E, weights, [(node.value, list(tape._nodes[node.nid].parents),
                         tape._nodes[node.nid].vjp)]


@pytest.mark.parametrize("cpus", [{0}, {0, 1}])
@pytest.mark.parametrize("padded", [False, True])
@pytest.mark.parametrize("pair", [False, True])
@pytest.mark.parametrize("kind,n_groups", CASES)
def test_zero_state_gives_the_bits_of_zero_leaves(kind, n_groups, pair, padded, cpus,
                                                  monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    requests = []
    real_send = cells._send

    def send(sock, header, arrays=()):
        if header and header[0] == "run":
            requests.append((header[1], len(arrays)))
        return real_send(sock, header, arrays)

    monkeypatch.setattr(cells, "_send", send)
    rng = np.random.default_rng(5)
    B, d, H, T, V = 5, 4, 6, 9, 13
    source, ids = rng.normal(size=(V, d)), rng.integers(0, V, (T, B))
    mask = (np.arange(T)[None, :] < np.array([9, 3, 7, 1, 9])[:, None]).astype(float)
    m = mask if padded else None
    params = [init_params(kind, d, H, n_groups=n_groups, seed=s, use_bias=True)
              for s in (1, 2)][:1 + pair]
    out = []
    for zero_leaves in (True, False):
        E, weights, parts = _parts(params, source, ids, m, zero_leaves)
        g = np.random.default_rng(6).normal(size=(B, sum(p[0].shape[1] for p in parts)))
        values, dEs, by_parent, lo = [], [], {}, 0
        for value, parents, vjp in parts:
            grads = vjp(g[:, lo:lo + value.shape[1]])
            lo += value.shape[1]
            assert len(grads) == len(parents) == len(set(parents))
            by_parent.update(zip(parents, grads))
            values.append(value)
            dEs.append(by_parent.pop(E.nid))
        if not zero_leaves:  # E and the weights only, so no gradient for an initial state
            assert parts[0][1] == [E.nid, *(v.nid for v in weights)]
        # Both directions list the same positions in the same order; a pair
        # lists E once, with the second direction's rows added to the first's.
        assert all(dE.ids.tobytes() == dEs[0].ids.tobytes() for dE in dEs)
        rows = dEs[0].rows if len(dEs) == 1 else dEs[0].rows + dEs[1].rows
        out.append([np.hstack(values), dEs[0].ids, rows] + [by_parent[v.nid] for v in weights])
    assert len(out[0]) == len(out[1])
    for a, b in zip(*out):
        assert a.tobytes() == b.tobytes()
    # Scoring gives each direction's value, the pair's halves.
    scored = cells.final_states(params, source, ids, m)
    assert np.hstack(scored).tobytes() == out[0][0].tobytes()
    if pair and cpus == {0, 1}:
        # Training's run request carries a call id and scoring's None; both
        # carry [rows, ids, w, u, b, mask].
        assert [(type(call), n) for call, n in requests] == [(int, 6), (type(None), 6)]
    else:
        assert requests == []


@pytest.mark.parametrize("cpus", [{0}, {0, 1}])
def test_bidirectional_forward_batch_records_one_node_past_the_pair(cpus, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    docs = [Document(i % 3, [f"w{j}" for j in range(i % 5 + 1)]) for i in range(7)]
    vocab = build_vocab(docs)
    model = build_model(ModelConfig(kind="clstm", d=4, H=6, K=3, C=3, bidirectional=True),
                        vocab, seed=0)
    tape = Tape()
    probs, leaves = model.forward_batch(tape, pad_batch(docs, vocab))
    # Every leaf is a weight: no zero state.
    assert sorted(tape._leaf_ids) == sorted(v.nid for v in leaves.values())
    nodes = tape._nodes
    rep = nodes[probs.nid].parents[0]
    (pair,) = nodes[rep].parents
    assert (pair, rep) == (probs.nid - 2, probs.nid - 1)
    cell_leaves = [v.nid for name, v in leaves.items() if name not in ("clf.w", "clf.b")]
    assert nodes[pair].parents == tuple(cell_leaves)
