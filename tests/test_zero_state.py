"""A run from the zero state: (c0, h0) = (None, None) instead of zero leaves.

The encoders start every run from the zero state, which the kernel makes
itself as a read-only broadcast of 0.0.  Such a node must give the value
and the E, w, u and b gradients of a run from explicit zero leaves, bit for
bit, list only E and the weights as parents, and make no gradient for an
initial state.  A pair's helper must receive no initial-state arrays, and a
bidirectional model's taped forward pass records no zero leaf and one
representation node between the pair and the classifier.
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


def _node(kind, n_groups, pair, padded, zero_leaves):
    """(tape, node, E, weight leaves) of one run, or a pair, over a seeded batch."""
    rng = np.random.default_rng(5)
    B, d, H, T, V = 5, 4, 6, 9, 13
    source, ids = rng.normal(size=(V, d)), rng.integers(0, V, (T, B))
    mask = (np.arange(T)[None, :] < np.array([9, 3, 7, 1, 9])[:, None]).astype(float)
    tape = Tape()
    bound = [bind_params(tape, init_params(kind, d, H, n_groups=n_groups, seed=s,
                                           use_bias=True)) for s in (1, 2)]
    E = tape.leaf(source)

    def state():
        if not zero_leaves:
            return None, None
        c0 = None if kind == "rnn" else tape.leaf(np.zeros((B, H)))
        return c0, tape.leaf(np.zeros((B, H)))

    runs = [(p, *state()) for p, _ in bound[:1 + pair]]
    m = mask if padded else None
    node = recurrence_pair(E, ids, m, *runs) if pair else recurrence(runs[0][0], E, ids,
                                                                     *runs[0][1:], m)
    weights = [v for _, leaves in bound[:1 + pair] for v in leaves.values()]
    return tape, node, E, weights


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
        if header and header[0] == "forward":
            requests.append([a is None for a in arrays])
        return real_send(sock, header, arrays)

    monkeypatch.setattr(cells, "_send", send)
    out = []
    for zero_leaves in (True, False):
        tape, node, E, weights = _node(kind, n_groups, pair, padded, zero_leaves)
        parents = tape._nodes[node.nid].parents
        grads = tape._nodes[node.nid].vjp(np.random.default_rng(6).normal(size=node.shape))
        by_parent = dict(zip(parents, grads))
        assert len(grads) == len(parents) == len(by_parent)
        if not zero_leaves:  # E and the weights only, so no gradient for an initial state
            assert parents == (E.nid, *(v.nid for v in weights))
        dE = by_parent[E.nid]
        out.append([node.value, dE.ids, dE.rows] + [by_parent[v.nid] for v in weights])
    assert len(out[0]) == len(out[1])
    for a, b in zip(*out):
        assert a.tobytes() == b.tobytes()
    if pair and cpus == {0, 1}:
        # [rows, ids, w, u, b, c0, h0, mask]: the zero state sends no c0 or h0.
        assert [r[5:7] for r in requests] == [[kind == "rnn", False], [True, True]]
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
