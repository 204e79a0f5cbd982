"""The two-direction recurrence node and when it runs on two threads.

``cells.recurrence_pair`` records both directions of a bidirectional
encoder as one tape node.  From ``THREAD_MIN_WORK`` = H*B on, when the
process may use two CPUs, its second kernel and second VJP run on a helper
thread while the calling thread runs the first; otherwise both run on the
calling thread.  Either way the values and gradients must be the same bits.
"""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from cachedlstm import cells
from cachedlstm.autodiff import ShapeError, Tape, backward, concat_cols, record, stack_steps
from cachedlstm.cells import bind_params, init_params, recurrence, recurrence_pair
from cachedlstm.data import Document, build_vocab, pad_batch
from cachedlstm.encoder import EncoderConfig, encode_bidirectional
from cachedlstm.model import ModelConfig, build_model
from cachedlstm.training import (AdagradState, TrainConfig, TrainingDiverged,
                                 apply_weight_decay, objective, train_epoch)
from tape_ops import mul, sum_all

SERIAL = 10 ** 12  # a THREAD_MIN_WORK that no shape reaches


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


@pytest.fixture
def kernel_threads(monkeypatch):
    """Names of the threads that run each kernel and each VJP, in call order."""
    names = []
    real = cells._recurrence

    def traced(*args, **kwargs):
        names.append(threading.current_thread().name)
        value, parents, vjp, acts = real(*args, **kwargs)

        def traced_vjp(g):
            names.append(threading.current_thread().name)
            return vjp(g)

        return value, parents, traced_vjp, acts

    monkeypatch.setattr(cells, "_recurrence", traced)
    return names


def _model_and_batch(kind, d, H, K, rows, n_steps, seed, use_bias=True):
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(400)]
    docs = [Document(int(rng.integers(3)), list(rng.choice(words, n)))
            for n in rng.integers(1, n_steps + 1, rows)]
    docs[0] = Document(0, list(rng.choice(words, n_steps)))
    vocab = build_vocab(docs)
    model = build_model(ModelConfig(kind=kind, d=d, H=H, K=K, C=3, bidirectional=True,
                                    use_bias=use_bias), vocab, seed=seed)
    for cell in model.cells:
        if cell.b is not None:
            cell.b[:] = rng.normal(scale=0.3, size=cell.b.shape)
    return model, pad_batch(docs, vocab)


def _step_arrays(model, batch):
    """Probabilities, loss and every parameter gradient of one training step."""
    tape = Tape()
    probs, leaves = model.forward_batch(tape, batch)
    loss = objective(probs, batch.labels)
    value, add_decay = apply_weight_decay(float(loss.value[0, 0]), model.named_tensors(), 1e-3,
                                          np.unique(batch.ids))
    grads = backward(tape, loss)
    named = {name: grads[v.nid] for name, v in leaves.items()}
    add_decay(named)
    out = {"probs": probs.value, "loss": np.array(value)}
    out.update({name: np.asarray(g) for name, g in named.items()})
    return out


def _assert_same_bits(a, b):
    assert a.keys() == b.keys()
    for name in a:
        assert a[name].tobytes() == b[name].tobytes(), name


@pytest.mark.parametrize("kind,K", [("rnn", 1), ("lstm", 1), ("cifg", 1), ("clstm", 3)])
def test_threaded_equals_serial(kind, K, monkeypatch, two_cpus, kernel_threads):
    model, batch = _model_and_batch(kind, 5, 6, K, rows=7, n_steps=9, seed=4)
    assert not (batch.lengths == batch.n_steps).all()
    monkeypatch.setattr(cells, "THREAD_MIN_WORK", SERIAL)
    serial = _step_arrays(model, batch)
    assert kernel_threads == ["MainThread"] * 4
    monkeypatch.setattr(cells, "THREAD_MIN_WORK", 0)
    del kernel_threads[:]
    threaded = _step_arrays(model, batch)
    # One kernel and one VJP ran on the calling thread, the others on a helper.
    assert len(kernel_threads) == 4 and kernel_threads.count("MainThread") == 2
    _assert_same_bits(threaded, serial)


def test_threaded_equals_serial_at_preset_shape(monkeypatch, two_cpus, kernel_threads):
    # d=50, H=120, K=3, B=128, padded: above the threshold as it stands.
    model, batch = _model_and_batch("clstm", 50, 120, 3, rows=128, n_steps=30, seed=5,
                                    use_bias=False)
    assert 120 * 128 >= cells.THREAD_MIN_WORK
    threaded = _step_arrays(model, batch)
    assert len(kernel_threads) == 4 and kernel_threads.count("MainThread") == 2
    monkeypatch.setattr(cells, "THREAD_MIN_WORK", SERIAL)
    _assert_same_bits(threaded, _step_arrays(model, batch))


@pytest.mark.parametrize("threaded", [False, True])
def test_pair_equals_two_recurrences(threaded, monkeypatch, two_cpus):
    monkeypatch.setattr(cells, "THREAD_MIN_WORK", 0 if threaded else SERIAL)
    rng = np.random.default_rng(9)
    B, d, H, T = 4, 3, 6, 5
    xs_arr = [rng.normal(size=(B, d)) for _ in range(T)]
    mask = (np.arange(T)[None, :] < np.array([5, 2, 4, 1])[:, None]).astype(float)
    readout = rng.normal(size=(B, 4 * H))
    params = [init_params("clstm", d, H, n_groups=2, seed=s, use_bias=True) for s in (1, 2)]
    out = []
    for paired in (True, False):
        tape = Tape()
        (pf, lf), (pb, lb) = (bind_params(tape, p) for p in params)
        xs = [tape.leaf(x) for x in xs_arr]
        z = [tape.leaf(np.zeros((B, H))) for _ in range(4)]
        ids = np.arange(T * B).reshape(T, B)
        if paired:  # one source, which the second run reads last step first
            node = recurrence_pair(stack_steps(xs), ids, mask, (pf, z[0], z[1]),
                                   (pb, z[2], z[3]))
        else:  # the second a reverse run from the same mask
            node = concat_cols([recurrence(pf, stack_steps(xs), ids, z[0], z[1], mask),
                                record(*cells._recurrence(pb, stack_steps(xs), ids, z[2], z[3],
                                                          mask, reverse=True)[:3])])
        grads = backward(tape, sum_all(mul(node, tape.leaf(readout))))
        leaves = [*lf.values(), *lb.values(), *xs, *z]
        out.append([node.value] + [grads[v.nid] for v in leaves])
    for a, b in zip(*out):
        assert a.tobytes() == b.tobytes()


def test_threaded_step_leaves_no_thread_behind(monkeypatch, two_cpus, kernel_threads):
    monkeypatch.setattr(cells, "THREAD_MIN_WORK", 0)
    model, batch = _model_and_batch("clstm", 4, 6, 3, rows=3, n_steps=5, seed=8)
    before = threading.active_count()
    _step_arrays(model, batch)
    helpers = set(kernel_threads) - {"MainThread"}
    assert helpers and not [t for t in threading.enumerate() if t.name in helpers]
    assert threading.active_count() == before


def test_overflow_on_the_helper_thread_aborts_training(monkeypatch, two_cpus,
                                                        kernel_threads):
    # Only the backward cell, which runs on the helper, overflows: the
    # step's numpy error state must reach that thread.
    monkeypatch.setattr(cells, "THREAD_MIN_WORK", 0)
    model, batch = _model_and_batch("clstm", 4, 6, 3, rows=3, n_steps=5, seed=8)
    model.embedding.vectors[:] = 1.0
    model.cells[1].w[:] = 1e308
    with pytest.raises(TrainingDiverged, match="at batch 0: overflow"):
        train_epoch(model, [batch], TrainConfig(), AdagradState())
    assert len(kernel_threads) == 2 and kernel_threads.count("MainThread") == 1


def test_second_backward_raises(monkeypatch, two_cpus):
    monkeypatch.setattr(cells, "THREAD_MIN_WORK", 0)
    model, batch = _model_and_batch("clstm", 4, 6, 3, rows=3, n_steps=5, seed=2)
    tape = Tape()
    probs, _ = model.forward_batch(tape, batch)
    loss = objective(probs, batch.labels)
    backward(tape, loss)
    with pytest.raises(RuntimeError, match="already run"):
        backward(tape, loss)


@pytest.mark.parametrize("threshold", [0, SERIAL])
def test_shape_error_in_backward_parameters_surfaces(threshold, monkeypatch, two_cpus):
    monkeypatch.setattr(cells, "THREAD_MIN_WORK", threshold)
    d, H = 3, 4
    cfg = EncoderConfig(cell_kind="lstm", d=d, H=H, bidirectional=True)
    tape = Tape()
    pf, _ = bind_params(tape, init_params("lstm", d, H, seed=0))
    pb, _ = bind_params(tape, init_params("lstm", d + 1, H, seed=1))  # input width d+1
    xs = [tape.leaf(np.ones((2, d))) for _ in range(3)]
    with pytest.raises(ShapeError, match="input width 3, expected 4"):
        encode_bidirectional(cfg, pf, pb, xs)


def test_single_cpu_runs_serially(monkeypatch, kernel_threads):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(cells, "THREAD_MIN_WORK", 0)
    model, batch = _model_and_batch("clstm", 4, 6, 3, rows=3, n_steps=5, seed=3)
    _step_arrays(model, batch)
    assert kernel_threads == ["MainThread"] * 4


def test_needle_shape_runs_serially(two_cpus, kernel_threads):
    # H=30, B=32: below the threshold, where threads lose to the GIL.
    model, batch = _model_and_batch("clstm", 20, 30, 3, rows=32, n_steps=6, seed=6)
    assert 30 * 32 < cells.THREAD_MIN_WORK
    _step_arrays(model, batch)
    assert kernel_threads == ["MainThread"] * 4


def test_concurrent_callers_get_their_own_results(monkeypatch, two_cpus):
    # Four callers, more than the two CPUs, each with its own helper thread;
    # a short switch interval interleaves them often.
    monkeypatch.setattr(cells, "THREAD_MIN_WORK", 0)
    cases = [_model_and_batch("clstm", 4, 6, 3, rows=5, n_steps=8, seed=s) for s in range(4)]
    want = [_step_arrays(*case) for case in cases]
    got = [None] * len(cases)

    def run(i):
        for _ in range(5):
            got[i] = _step_arrays(*cases[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=run, args=(i,)) for i in range(len(cases))]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    for a, b in zip(got, want):
        _assert_same_bits(a, b)


def _threaded_step_in_child(queue):
    model, batch = _model_and_batch("clstm", 4, 6, 3, rows=3, n_steps=5, seed=7)
    queue.put(_step_arrays(model, batch)["loss"].item())


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_starts_its_own_workers(monkeypatch, two_cpus):
    # A forked child inherits none of the parent's threads, so a threaded
    # step in the child must start its own helper rather than wait on one.
    import multiprocessing

    monkeypatch.setattr(cells, "THREAD_MIN_WORK", 0)
    model, batch = _model_and_batch("clstm", 4, 6, 3, rows=3, n_steps=5, seed=7)
    want = _step_arrays(model, batch)["loss"].item()  # a threaded step in the parent first
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_threaded_step_in_child, args=(queue,))
    child.start()
    try:
        got = queue.get(timeout=60)
    finally:
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
    assert got == want
    assert child.exitcode == 0


def test_import_starts_no_thread():
    # Importing starts no thread; a helper thread exists only during a threaded call.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = "import threading, cachedlstm; print(threading.active_count())"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "1"
