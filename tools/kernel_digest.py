"""Print one SHA-256 per recurrent-kernel or training configuration, one of the data
path, and gradcheck errors.

A change to the kernel, the tape or the training step that claims to keep
every bit is checked by running this script in a checkout of the parent
and in one of the change, and diffing the output.  It imports the library
from ``src/`` of the checkout it sits in:

    python tools/kernel_digest.py > before.txt   # at the parent
    python tools/kernel_digest.py > after.txt    # at the change
    diff before.txt after.txt

Each line names a configuration and the digest of, in order: the value of
``recurrence`` (one direction) or ``recurrence_pair`` (two), every
gradient of that node (E's ``RowSparse`` ids and rows, then w, u and b of
each direction, and the initial state of a one-direction run; a pair
starts from zero), and each direction's c_T and h_T from the value that
``final_states``, the scoring entry, gives.  The configurations cover rnn,
lstm, cifg and clstm (K = 1 and 3), one direction or a pair, bias on or
off, B in {1, 7, 32} at a small shape and B = 128 at the preset shape
(d=50, H=120), T in {1, 8, 9, 10, 15, 16, 17, 35, 36, 37} (S^2 - 1, S^2
and S^2 + 1 for S = 3, 4 and 6, where the kernel's VJP rebuilds c in
segments of S = ceil(sqrt(T)) steps; 1, 16 and 17 at the preset shape),
and no mask or a padded batch's, each row's real steps first (the only
layout the kernel takes; a pair's second direction runs it in reverse).
The full run ends with saturated clstm configurations (K = 3, every
rate-gate bias -40 or +40), whose rates sit at their band edges.

Each ``train`` line is the digest of two epochs of ``train_epoch`` on a
small three-class corpus, one batch at a time: every batch's loss, then
every weight and Adagrad accumulator after the last batch.  Its
configurations cover cbow and the four recurrent kinds (clstm with K=3),
one direction or two, bias on or off, weight decay 0 or 1e-3, gradient
clipping off or at 0.2, and shuffled or sort-bucketed batches, plus a
frozen embedding with weight decay for each kind.  The ``*_gradcheck``
lines print, with ``repr``, the errors of criterion 1's six
``pipeline_gradcheck`` cases, of the cbow pipeline, and of
``encoder_gradcheck`` for each recurrent kind, masked or not.

The ``data`` line is the digest of the set-up path on a seeded corpus
file written to a temporary directory, whose texts hold sentence
separators at the edges, doubled, beside tabs and other whitespace, in
upper case and glued to words: ``read_corpus``'s labels and tokens, the
tokens of ``build_vocab`` at min_count 1 and 2, and the ids, mask,
lengths and labels of every batch of ``make_batches``, shuffled and
sort-bucketed.  It prints first, the same in both modes.

``--quick`` runs a tiny subset of each other part.  BLAS is pinned to one
thread, since a GEMM's bits can depend on its thread count.  Where the
process may use two CPUs, each pair's second direction runs in the
library's helper process, in training and in scoring, so its lines check
that path too.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

import argparse  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

from cachedlstm.autodiff import RowSparse, Tape, backward, record  # noqa: E402
from cachedlstm.cells import (bind_params, final_states, init_params, recurrence,  # noqa: E402
                              recurrence_pair)
from cachedlstm.data import Document, build_vocab, make_batches, read_corpus  # noqa: E402
from cachedlstm.gradcheck import encoder_gradcheck, pipeline_gradcheck  # noqa: E402
from cachedlstm.model import ModelConfig, build_model  # noqa: E402
from cachedlstm.training import AdagradState, TrainConfig, train_epoch  # noqa: E402

KINDS = (("rnn", 1), ("lstm", 1), ("cifg", 1), ("clstm", 1), ("clstm", 3))
MASKS = ("none", "padded")
V = 13  # rows of the source E


def _case(kind, n_groups, pair, bias, B, T, mask, d, H, seed, rate_bias=None):
    """(params, source, ids, mask, states, readout) of one configuration, from ``seed``.

    With ``rate_bias`` every clstm rate-gate bias is set to it, over the
    drawn one, so that the rates saturate at their band edges.
    """
    rng = np.random.default_rng(seed)
    params = []
    for s in range(2 if pair else 1):
        p = init_params(kind, d, H, n_groups=n_groups, seed=seed + s, use_bias=bias)
        p.w[:] = rng.uniform(-0.6, 0.6, p.w.shape)
        p.u[:] = rng.uniform(-0.6, 0.6, p.u.shape)
        if bias:
            p.b[:] = rng.normal(scale=0.3, size=p.b.shape)
        if rate_bias is not None:
            p.b_r[:] = rate_bias
        params.append(p)
    source = rng.normal(size=(V, d))
    ids = rng.integers(0, V, (T, B))
    lengths = rng.integers(0, T + 1, B)
    lengths[0] = T
    m = None if mask == "none" else (np.arange(T)[None, :] < lengths[:, None]).astype(float)
    states = [(None if kind == "rnn" else rng.normal(size=(B, H)), rng.uniform(-1, 1, (B, H)))
              for _ in params]
    readout = rng.normal(size=(B, len(params) * (H if kind == "rnn" else 2 * H)))
    return params, source, ids, m, states, readout


def _readout(node, weight):
    """sum(node * weight) as one 1 x 1 tape node."""
    return record((node.value * weight).sum().reshape(1, 1), [node], lambda g: (g * weight,))


def digest(kind, n_groups, pair, bias, B, T, mask, d=5, H=6, seed=0, rate_bias=None) -> str:
    """The SHA-256 of one configuration's values and gradients."""
    params, source, ids, m, states, readout = _case(kind, n_groups, pair, bias, B, T, mask,
                                                    d, H, seed, rate_bias)
    tape = Tape()
    bound = [bind_params(tape, p) for p in params]
    E = tape.leaf(source)
    if pair:  # from zero; the drawn states keep the draws of the readout
        node, initial = recurrence_pair(E, ids, m, *(b for b, _ in bound)), []
    else:
        c0, h0 = states[0]
        initial = [None if c0 is None else tape.leaf(c0), tape.leaf(h0)]
        node = recurrence(bound[0][0], E, ids, *initial, m)
    grads = backward(tape, _readout(node, readout))
    sha = hashlib.sha256(node.value.tobytes())
    leaves = [E] + [v for _, leaves in bound for v in leaves.values()] + initial
    leaves = [v for v in leaves if v is not None]
    for v in leaves:
        g = grads[v.nid]
        parts = (g.ids, g.rows) if isinstance(g, RowSparse) else (np.asarray(g),)
        for a in parts:
            sha.update(a.tobytes())
    for v in final_states(params, source, ids, m):
        for a in ([] if kind == "rnn" else [v[:, :H]]) + [v[:, -H:]]:  # c_T, h_T
            sha.update(a.tobytes())
    return sha.hexdigest()


def configurations(quick: bool = False):
    """(label, kwargs) of every kernel configuration, in print order."""
    if quick:
        small = itertools.product(KINDS[1::3], (False, True), (True,), (7,), (1, 9, 10), MASKS)
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
    # Saturated clstm rate gates, last so that the seeds above stay: most
    # rates sit at their band's lower or upper edge.
    for pair, rate_bias, T, mask in () if quick else itertools.product(
            (False, True), (-40.0, 40.0), (9, 17), MASKS):
        label = (f"clstm K=3 dirs={2 if pair else 1} bias=1 rate_bias={rate_bias:+g} d=5 H=6 "
                 f"B=7 T={T} mask={mask}")
        yield label, dict(kind="clstm", n_groups=3, pair=pair, bias=True, B=7, T=T, mask=mask,
                          rate_bias=rate_bias)


# Texts draw from these: tied word counts, and separators in every spot tokenize handles.
DATA_WORDS = ("w0", "w1", "w2", "w3", "w4", "w5", "Word", "WORD", "é", "x<sssss>", "<sssss>y")
DATA_GAPS = (" ", " ", " ", " ", "  ", "\t", " \t ", "\xa0", "\u3000", "\x0b")
DATA_SEPARATORS = ("<sssss>", "<SSSSS>", "<sssss> <sssss>", "<sssss><sssss>")
DATA_EDGES = ("", "<sssss> ", "<SSSSS>\t", " <sssss>")


def _data_line(rng) -> str:
    """One ``label<TAB>text`` corpus line with a word in it."""
    pieces = [str(rng.choice(DATA_WORDS))]
    for _ in range(int(rng.integers(0, 12))):
        pieces.append(str(rng.choice(DATA_SEPARATORS if rng.random() < 0.3 else DATA_WORDS)))
    rng.shuffle(pieces)
    text = "".join(str(rng.choice(DATA_GAPS)) + piece for piece in pieces)
    if rng.random() < 0.5:
        text = text.lstrip()
    return f"{rng.integers(3)}\t{rng.choice(DATA_EDGES)}{text}{rng.choice(DATA_EDGES)}\n"


def data_digest(seed=0) -> str:
    """The SHA-256 of the set-up path over a seeded corpus file: documents, vocabularies
    and batches."""
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "corpus.txt")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(_data_line(rng) for _ in range(80))
        docs = read_corpus(path, 3)
    sha = hashlib.sha256(repr([(doc.label, doc.tokens) for doc in docs]).encode())
    vocabs = [build_vocab(docs, min_count) for min_count in (1, 2)]
    for vocab in vocabs:
        sha.update(repr(vocab.tokens).encode())
    for sort_bucket in (False, True):
        for batch in make_batches(docs, vocabs[0], 8, seed=seed, sort_bucket=sort_bucket):
            for a in (batch.ids, batch.mask, batch.lengths, batch.labels):
                sha.update(a.tobytes())
    return sha.hexdigest()


# Sort-bucketed into batches of 4, these lengths give padded batches and a uniform one.
TRAIN_LENGTHS = (3, 3, 3, 3, 6, 6, 6, 6, 9, 9, 9, 9, 2, 5)


def train_digest(kind, bidirectional, bias, decay, clip, sort_bucket, trainable=True,
                 seed=0) -> str:
    """The SHA-256 of two epochs of training: each batch's loss, then the weights and
    Adagrad accumulators."""
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(15)]
    docs = [Document(int(rng.integers(3)), list(rng.choice(words, n))) for n in TRAIN_LENGTHS]
    vocab = build_vocab(docs)
    config = ModelConfig(kind=kind, d=5, H=1 if kind == "cbow" else 6,
                         K=3 if kind == "clstm" else 1, C=3, bidirectional=bidirectional,
                         use_bias=bias)
    model = build_model(config, vocab, seed=seed)
    model.embedding.trainable = trainable
    cfg = TrainConfig(learning_rate=0.05, weight_decay=decay, batch_size=4, seed=seed,
                      gradient_clip_norm=clip, sort_bucket=sort_bucket)
    opt = AdagradState()
    sha = hashlib.sha256()
    for epoch in (1, 2):
        for batch in make_batches(docs, vocab, cfg.batch_size,
                                  seed=np.random.SeedSequence([seed, epoch]),
                                  sort_bucket=sort_bucket):
            sha.update(repr(train_epoch(model, [batch], cfg, opt)).encode())
    for table in (model.named_tensors(), opt.accumulators):
        for name in sorted(table):
            sha.update(name.encode() + table[name].tobytes())
    return sha.hexdigest()


def train_configurations(quick: bool = False):
    """(label, kwargs) of every training configuration, in print order."""
    if quick:
        grid = [("clstm", True, True, 1e-3, 0.2, True), ("lstm", False, False, 1e-3, None, False),
                ("cbow", False, False, 1e-3, 0.2, True)]
        frozen = ("clstm",)
    else:
        models = [("cbow", False, False)] + list(itertools.product(
            ("rnn", "lstm", "cifg", "clstm"), (False, True), (False, True)))
        grid = [m + rest for m in models
                for rest in itertools.product((0.0, 1e-3), (None, 0.2), (False, True))]
        frozen = ("cbow", "rnn", "lstm", "cifg", "clstm")
    cases = [dict(zip(("kind", "bidirectional", "bias", "decay", "clip", "sort_bucket"), g))
             for g in grid]
    cases += [dict(kind=kind, bidirectional=False, bias=False, decay=1e-3, clip=None,
                   sort_bucket=False, trainable=False) for kind in frozen]
    for case in cases:
        label = (f"train {case['kind']} dirs={2 if case['bidirectional'] else 1} "
                 f"bias={int(case['bias'])} decay={case['decay']} clip={case['clip']} "
                 f"sort={int(case['sort_bucket'])} "
                 f"embedding={'trainable' if case.get('trainable', True) else 'frozen'}")
        yield label, case


# Criterion 1 of tests/test_acceptance.py: (kind, K, seed), and its size draw.
CRITERION_1 = (("rnn", 1, 1), ("lstm", 1, 40), ("cifg", 1, 34), ("clstm", 2, 7),
               ("clstm", 3, 21), ("clstm", 4, 18))
KIND_INDEX = {"rnn": 1, "lstm": 2, "cifg": 3, "clstm": 4}


def _criterion_1_sizes(kind, n_groups, seed):
    """(hidden, width, n_steps) as criterion 1 draws them."""
    rng = np.random.default_rng([KIND_INDEX[kind], n_groups, seed])
    gs = rng.integers(max(2, -(-6 // n_groups)), 12 // n_groups + 1)
    return int(gs * n_groups), int(rng.integers(3, 9)), int(rng.integers(4, 7))


def gradcheck_errors(quick: bool = False):
    """(label, thunk) of each gradient check whose error is printed, in print order."""
    yield "pipeline_gradcheck cbow d=6 seed=0", functools.partial(
        pipeline_gradcheck, "cbow", width=6, seed=0, eps=1e-5)
    for kind, n_groups, seed in () if quick else CRITERION_1:
        hidden, width, n_steps = _criterion_1_sizes(kind, n_groups, seed)
        yield (f"pipeline_gradcheck {kind} K={n_groups} H={hidden} d={width} T={n_steps} "
               f"seed={seed}"), functools.partial(
            pipeline_gradcheck, kind, width=width, seed=seed, eps=1e-5, weight_decay=0.01,
            hidden=hidden, n_groups=n_groups, n_steps=n_steps, batch=6)
    encoders = itertools.product((("lstm", 1),) if quick else KINDS[:3] + KINDS[4:],
                                 (True,) if quick else (False, True))
    for (kind, n_groups), masked in encoders:
        yield (f"encoder_gradcheck {kind} K={n_groups} masked={int(masked)}"), functools.partial(
            encoder_gradcheck, kind, n_groups, hidden=6, width=5, n_steps=4, batch=3, seed=11,
            eps=1e-5, masked=masked)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true", help="run a tiny subset")
    args = parser.parse_args(argv)
    print(f"{data_digest()}  data read_corpus build_vocab make_batches B=8", flush=True)
    for seed, (label, kwargs) in enumerate(configurations(args.quick)):
        print(f"{digest(seed=seed, **kwargs)}  {label}", flush=True)
    for seed, (label, kwargs) in enumerate(train_configurations(args.quick)):
        print(f"{train_digest(seed=seed, **kwargs)}  {label}", flush=True)
    for label, run in gradcheck_errors(args.quick):
        print(f"{float(run())!r}  {label}", flush=True)


if __name__ == "__main__":
    main()
