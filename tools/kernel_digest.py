"""Print one SHA-256 per recurrent-kernel configuration, over its values and gradients.

A change to ``cells._recurrence`` that claims to keep every bit is checked
by running this script in a checkout of the parent and in one of the
change, and diffing the output.  It imports the library from ``src/`` of
the checkout it sits in:

    python tools/kernel_digest.py > before.txt   # at the parent
    python tools/kernel_digest.py > after.txt    # at the change
    diff before.txt after.txt

Each line names a configuration and the digest of, in order: the value of
``recurrence`` (one direction) or ``recurrence_pair`` (two), every
gradient of that node (E's ``RowSparse`` ids and rows, then w, u, b and
the initial states of each direction), and ``final_state`` of each
direction.  The configurations cover rnn, lstm, cifg and clstm (K = 1 and
3), one direction or a pair, bias on or off, B in {1, 7, 32} at a small
shape and B = 128 at the preset shape (d=50, H=120), T in {1, 8, 9, 10,
15, 16, 17, 35, 36, 37} (S^2 - 1, S^2 and S^2 + 1 for S = 3, 4 and 6, where
the kernel's VJP rebuilds c in segments of S = ceil(sqrt(T)) steps; 1, 16
and 17 at the preset shape), and no mask, a left-aligned one or a right-aligned one.  ``--quick``
runs a tiny subset.  BLAS is pinned to one thread, since a GEMM's bits
can depend on its thread count.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402

import numpy as np  # noqa: E402

from cachedlstm.autodiff import RowSparse, Tape, backward, mul, sum_all  # noqa: E402
from cachedlstm.cells import (bind_params, final_state, init_params, recurrence,  # noqa: E402
                              recurrence_pair)

KINDS = (("rnn", 1), ("lstm", 1), ("cifg", 1), ("clstm", 1), ("clstm", 3))
MASKS = ("none", "left", "right")
V = 13  # rows of the source E


def _case(kind, n_groups, pair, bias, B, T, mask, d, H, seed):
    """(params, source, ids, mask, states, readout) of one configuration, from ``seed``."""
    rng = np.random.default_rng(seed)
    params = []
    for s in range(2 if pair else 1):
        p = init_params(kind, d, H, n_groups=n_groups, seed=seed + s, use_bias=bias)
        p.w[:] = rng.uniform(-0.6, 0.6, p.w.shape)
        p.u[:] = rng.uniform(-0.6, 0.6, p.u.shape)
        if bias:
            p.b[:] = rng.normal(scale=0.3, size=p.b.shape)
        params.append(p)
    source = rng.normal(size=(V, d))
    ids = rng.integers(0, V, (T, B))
    lengths = rng.integers(0, T + 1, B)
    lengths[0] = T
    first = {"none": np.zeros(B, dtype=int), "left": np.zeros(B, dtype=int),
             "right": T - lengths}[mask]
    steps = np.arange(T)[None, :] - first[:, None]
    m = None if mask == "none" else ((steps >= 0) & (steps < lengths[:, None])).astype(float)
    states = [(None if kind == "rnn" else rng.normal(size=(B, H)), rng.uniform(-1, 1, (B, H)))
              for _ in params]
    readout = rng.normal(size=(B, len(params) * (H if kind == "rnn" else 2 * H)))
    return params, source, ids, m, states, readout


def digest(kind, n_groups, pair, bias, B, T, mask, d=5, H=6, seed=0) -> str:
    """The SHA-256 of one configuration's values and gradients."""
    params, source, ids, m, states, readout = _case(kind, n_groups, pair, bias, B, T, mask,
                                                    d, H, seed)
    tape = Tape()
    bound = [bind_params(tape, p) for p in params]
    E = tape.leaf(source)
    runs = [(b, None if c0 is None else tape.leaf(c0), tape.leaf(h0))
            for (b, _), (c0, h0) in zip(bound, states)]
    if pair:
        node = recurrence_pair(E, ids, m, *runs)
    else:
        node = recurrence(runs[0][0], E, ids, *runs[0][1:], m)
    grads = backward(tape, sum_all(mul(node, tape.leaf(readout))))
    sha = hashlib.sha256(node.value.tobytes())
    leaves = [E] + [v for (_, leaves), (_, c0, h0) in zip(bound, runs)
                    for v in (*leaves.values(), c0, h0) if v is not None]
    for v in leaves:
        g = grads[v.nid]
        parts = (g.ids, g.rows) if isinstance(g, RowSparse) else (np.asarray(g),)
        for a in parts:
            sha.update(a.tobytes())
    for k, p in enumerate(params):
        reverse = k == 1
        for a in final_state(p, source, ids, m, reverse=reverse):
            if a is not None:
                sha.update(a.tobytes())
    return sha.hexdigest()


def configurations(quick: bool = False):
    """(label, kwargs) of every configuration, in print order."""
    if quick:
        small = itertools.product(KINDS[1::3], (False, True), (True,), (7,), (1, 9, 10),
                                  ("left", "right"))
        preset = ()
    else:
        small = itertools.product(KINDS, (False, True), (False, True), (1, 7, 32),
                                  (1, 8, 9, 10, 15, 16, 17, 35, 36, 37), MASKS)
        preset = itertools.product(KINDS, (False, True), (False, True), (128,), (1, 16, 17),
                                   MASKS)
    for shape, grid in (((5, 6), small), ((50, 120), preset)):
        for (kind, n_groups), pair, bias, B, T, mask in grid:
            d, H = shape
            label = (f"{kind} K={n_groups} dirs={2 if pair else 1} bias={int(bias)} d={d} "
                     f"H={H} B={B} T={T} mask={mask}")
            yield label, dict(kind=kind, n_groups=n_groups, pair=pair, bias=bias, B=B, T=T,
                              mask=mask, d=d, H=H)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true", help="run a tiny subset")
    args = parser.parse_args(argv)
    for seed, (label, kwargs) in enumerate(configurations(args.quick)):
        print(f"{digest(seed=seed, **kwargs)}  {label}", flush=True)


if __name__ == "__main__":
    main()
