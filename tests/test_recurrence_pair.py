"""The two-direction recurrence node, two-direction scoring, and where the second direction runs.

``cells.recurrence_pair`` records both directions of a bidirectional
encoder as one tape node.  When the process may use two CPUs, its second
kernel and second VJP run in one helper process while this process runs
the first; on one CPU both run here.  Scoring (``cells.final_states``)
splits a bidirectional model's directions the same way.  Either way the
values, gradients and probabilities must be the same bits.
"""

import inspect
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant, precondition, rule,
                                 run_state_machine_as_test)

from cachedlstm import cells, cli
from cachedlstm.autodiff import ShapeError, Tape, backward, record, stack_steps
from cachedlstm.cells import (HelperError, bind_params, init_params, recurrence,
                              recurrence_pair)
from cachedlstm.data import Document, build_vocab, pad_batch
from cachedlstm.encoder import EncoderConfig, encode_bidirectional
from cachedlstm.model import ModelConfig, build_model
from cachedlstm.serialize import save_model
from cachedlstm.training import (AdagradState, TrainConfig, TrainingDiverged,
                                 apply_weight_decay, objective, train_epoch)
from tape_ops import concat_cols, mul, sum_all

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


@pytest.fixture
def one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


@pytest.fixture
def local_kernels(monkeypatch):
    """What this process runs of each pair: "run" per kernel, "vjp" per VJP."""
    calls = []
    real = cells._run

    def traced(*args, **kwargs):
        calls.append("run")
        value, vjp, acts = real(*args, **kwargs)

        def traced_vjp(g):
            calls.append("vjp")
            return vjp(g)

        return value, vjp and traced_vjp, acts

    monkeypatch.setattr(cells, "_run", traced)
    return calls


def _model_and_batch(kind, d, H, K, rows, n_steps, seed, use_bias=True, padded=True):
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(400)]
    lengths = rng.integers(1, n_steps + 1, rows) if padded else np.full(rows, n_steps)
    docs = [Document(int(rng.integers(3)), list(rng.choice(words, n))) for n in lengths]
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
def test_process_equals_serial(kind, K, monkeypatch, local_kernels):
    model, batch = _model_and_batch(kind, 5, 6, K, rows=7, n_steps=9, seed=4)
    assert not (batch.lengths == batch.n_steps).all()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    serial = _step_arrays(model, batch)
    assert local_kernels == ["run", "run", "vjp", "vjp"]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    del local_kernels[:]
    paired = _step_arrays(model, batch)
    # One kernel and one VJP ran here, the others in the helper.
    assert local_kernels == ["run", "vjp"]
    _assert_same_bits(paired, serial)


def test_process_equals_serial_at_preset_shape(monkeypatch, two_cpus, local_kernels):
    # d=50, H=120, K=3, B=128, padded.
    model, batch = _model_and_batch("clstm", 50, 120, 3, rows=128, n_steps=30, seed=5,
                                    use_bias=False)
    paired = _step_arrays(model, batch)
    assert local_kernels == ["run", "vjp"]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    _assert_same_bits(paired, _step_arrays(model, batch))


@pytest.mark.parametrize("cpus", [{0}, {0, 1}])
def test_pair_equals_two_recurrences(cpus, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
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
        ids = np.arange(T * B).reshape(T, B)
        if paired:  # one source, which the second run reads last step first
            node = recurrence_pair(stack_steps(xs), ids, mask, pf, pb)
        else:  # the second a reverse run from the same mask, both from zero
            node = concat_cols([recurrence(pf, stack_steps(xs), ids, None, None, mask),
                                record(*cells._recurrence(pb, stack_steps(xs), ids, None, None,
                                                          mask, reverse=True)[:3])])
        grads = backward(tape, sum_all(mul(node, tape.leaf(readout))))
        leaves = [*lf.values(), *lb.values(), *xs]
        out.append([node.value] + [grads[v.nid] for v in leaves])
    for a, b in zip(*out):
        assert a.tobytes() == b.tobytes()


# Trains one bi-clstm batch with the helper, then prints the helper's pid
# and the pids of every child process this process has.
_TRAIN_ONE_BATCH = """
import os, sys
sys.path.insert(0, sys.argv[1])
os.sched_getaffinity = lambda pid: {0, 1}
from cachedlstm import cells
from cachedlstm.data import Document, build_vocab, pad_batch
from cachedlstm.model import ModelConfig, build_model
from cachedlstm.training import AdagradState, TrainConfig, train_epoch

docs = [Document(i % 2, ["a", "b", "c", "d"][:1 + i % 4]) for i in range(6)]
vocab = build_vocab(docs)
model = build_model(ModelConfig(kind="clstm", d=4, H=6, K=3, C=2, bidirectional=True),
                    vocab, seed=0)
train_epoch(model, [pad_batch(docs, vocab)], TrainConfig(), AdagradState())

def parent_of(pid):
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[1])
    except (OSError, ValueError, IndexError):
        return None

children = [int(p) for p in os.listdir("/proc") if p.isdigit() and parent_of(p) == os.getpid()]
print(cells._helper.proc.pid, *children)
"""


def _alive(pid):
    """Whether a process with this pid exists, and is no zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
def test_a_process_that_trained_leaves_no_process_behind():
    # Its helper is its only child (no multiprocessing resource_tracker),
    # and it is gone once the process has exited.
    out = subprocess.run([sys.executable, "-c", _TRAIN_ONE_BATCH, SRC], capture_output=True,
                         text=True, check=True, timeout=120)
    helper, *children = map(int, out.stdout.split())
    assert children == [helper]
    assert not _alive(helper)


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
def test_the_helper_exits_when_its_caller_is_killed():
    code = _TRAIN_ONE_BATCH + "sys.stdout.flush()\nimport time\ntime.sleep(60)\n"
    with subprocess.Popen([sys.executable, "-c", code, SRC], stdout=subprocess.PIPE,
                          text=True) as caller:
        try:
            helper = int(caller.stdout.readline().split()[0])
        finally:
            caller.kill()
    for _ in range(100):
        if not _alive(helper):
            break
        time.sleep(0.05)
    assert not _alive(helper)


def test_overflow_in_the_helper_aborts_training(two_cpus, local_kernels):
    # Only the backward cell, which runs in the helper, overflows: the
    # step's numpy error state must reach the helper, and its
    # FloatingPointError this process.
    model, batch = _model_and_batch("clstm", 4, 6, 3, rows=3, n_steps=5, seed=8)
    model.embedding.vectors[:] = 1.0
    model.cells[1].w[:] = 1e308
    with pytest.raises(TrainingDiverged, match="at batch 0: overflow"):
        train_epoch(model, [batch], TrainConfig(), AdagradState())
    assert local_kernels == ["run"]


def test_second_backward_raises(two_cpus):
    model, batch = _model_and_batch("clstm", 4, 6, 3, rows=3, n_steps=5, seed=2)
    tape = Tape()
    probs, _ = model.forward_batch(tape, batch)
    loss = objective(probs, batch.labels)
    backward(tape, loss)
    with pytest.raises(RuntimeError, match="already run"):
        backward(tape, loss)


@pytest.mark.parametrize("cpus", [{0}, {0, 1}])
def test_shape_error_in_backward_parameters_surfaces(cpus, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    d, H = 3, 4
    cfg = EncoderConfig(cell_kind="lstm", d=d, H=H, bidirectional=True)
    tape = Tape()
    pf, _ = bind_params(tape, init_params("lstm", d, H, seed=0))
    pb, _ = bind_params(tape, init_params("lstm", d + 1, H, seed=1))  # input width d+1
    xs = [tape.leaf(np.ones((2, d))) for _ in range(3)]
    with pytest.raises(ShapeError, match="input width 3, expected 4"):
        encode_bidirectional(cfg, pf, pb, xs)


def test_single_cpu_runs_serially(one_cpu, local_kernels):
    model, batch = _model_and_batch("clstm", 4, 6, 3, rows=3, n_steps=5, seed=3)
    _step_arrays(model, batch)
    assert local_kernels == ["run", "run", "vjp", "vjp"]


def test_needle_shape_uses_the_helper(two_cpus, local_kernels):
    # H=30, B=32, where two threads lost to the GIL: a process has no GIL to share.
    model, batch = _model_and_batch("clstm", 20, 30, 3, rows=32, n_steps=6, seed=6)
    _step_arrays(model, batch)
    assert local_kernels == ["run", "vjp"]


def test_forward_only_pair_leaves_the_helper_no_history(two_cpus):
    # Scoring through a tape, a gradient check's evaluations and a diverged
    # step record a pair and never run its VJP; freeing the tape frees the
    # helper's copy of the history at the next request.
    model, batch = _model_and_batch("clstm", 4, 6, 3, rows=3, n_steps=5, seed=2)
    _step_arrays(model, batch)
    assert cells._helper_memory()[1] == 0
    tape = Tape()
    model.forward_batch(tape, batch)
    assert cells._helper_memory()[1] == 1
    del tape
    assert cells._helper_memory()[1] == 0


def test_the_helper_traces_memory_while_this_process_does(two_cpus):
    # Each process holds one direction's history at its peak, so the two
    # peaks are alike; reading the helper's peak stops its tracing.
    model, batch = _model_and_batch("clstm", 20, 30, 3, rows=32, n_steps=50, seed=6)
    _step_arrays(model, batch)
    tracemalloc.start()
    try:
        _step_arrays(model, batch)
        mine = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    helper = cells._helper_memory()[0]
    assert 0.5 * mine < helper < 2 * mine
    assert cells._helper_memory()[0] == 0
    _step_arrays(model, batch)
    assert cells._helper_memory()[0] == 0


def test_a_helper_killed_before_the_vjp_raises_and_the_next_pair_starts_another(two_cpus):
    model, batch = _model_and_batch("clstm", 4, 6, 3, rows=3, n_steps=5, seed=2)
    want = _step_arrays(model, batch)
    tape = Tape()
    probs, _ = model.forward_batch(tape, batch)
    helper = cells._helper
    os.kill(helper.proc.pid, signal.SIGKILL)
    helper.proc.wait()
    with pytest.raises(HelperError, match="exit status -9"):
        backward(tape, objective(probs, batch.labels))
    assert cells._helper is None
    _assert_same_bits(_step_arrays(model, batch), want)
    assert cells._helper is not helper


def test_a_vjp_whose_helper_was_replaced_raises_helper_error(two_cpus):
    # The helper that ran the first tape's second direction dies and a new
    # one starts; the new one holds no history of that tape's pair.
    model, batch = _model_and_batch("clstm", 4, 6, 3, rows=3, n_steps=5, seed=2)
    tape = Tape()
    probs, _ = model.forward_batch(tape, batch)
    helper = cells._helper
    os.kill(helper.proc.pid, signal.SIGKILL)
    helper.proc.wait()
    with pytest.raises(HelperError, match="exit status -9"):
        model.forward_batch(Tape(), batch)
    model.forward_batch(Tape(), batch)
    assert cells._helper is not None and cells._helper is not helper
    with pytest.raises(HelperError, match="has ended"):
        backward(tape, objective(probs, batch.labels))
    assert cells._helper_memory()[1] == 0


def test_a_helper_that_stops_answering_ends_the_step(two_cpus):
    # A stopped helper never answers: a wait on the caller's socket gives
    # up after ``_ANSWER_TIMEOUT`` seconds, the helper is killed and reaped,
    # and the next pair starts another.  The running helper's bound is
    # shortened to 2 s here, after it has started, so that a slow start
    # cannot trip it.
    model, batch = _model_and_batch("clstm", 4, 6, 3, rows=3, n_steps=5, seed=2)
    want = _step_arrays(model, batch)
    stopped = cells._helper
    assert stopped.sock.gettimeout() == cells._ANSWER_TIMEOUT == 600
    stopped.sock.settimeout(2.0)
    os.kill(stopped.proc.pid, signal.SIGSTOP)
    try:
        start = time.monotonic()
        with pytest.raises(HelperError, match=r"stopped answering \(exit status -9\)"):
            _step_arrays(model, batch)
        assert time.monotonic() - start < 10
    finally:
        if cells._helper is stopped:  # kills it
            cells._stop_helper(stopped)
    assert stopped.proc.returncode == -signal.SIGKILL and cells._helper is None
    _assert_same_bits(_step_arrays(model, batch), want)
    assert cells._helper is not stopped


def test_concurrent_callers_get_their_own_results(two_cpus):
    # Four callers, more than the two CPUs, share the one helper; a short
    # switch interval interleaves them often.
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


def _step_in_child(queue):
    model, batch = _model_and_batch("clstm", 4, 6, 3, rows=3, n_steps=5, seed=7)
    loss = _step_arrays(model, batch)["loss"].item()
    queue.put((loss, cells._helper.proc.pid))
    # A multiprocessing child ends without running atexit: reap its helper here.
    cells._stop_helper(cells._helper)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_starts_its_own_helper(two_cpus):
    # A forked child inherits the parent's socket to its helper; it must
    # start its own helper rather than talk to the parent's.
    import multiprocessing

    model, batch = _model_and_batch("clstm", 4, 6, 3, rows=3, n_steps=5, seed=7)
    want = _step_arrays(model, batch)["loss"].item()  # a step with a helper in the parent first
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_step_in_child, args=(queue,))
    child.start()
    try:
        got, child_helper = queue.get(timeout=60)
    finally:
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
    assert got == want and child_helper != cells._helper.proc.pid
    assert child.exitcode == 0
    assert _step_arrays(model, batch)["loss"].item() == want  # the parent's helper still answers


def test_import_starts_no_thread_and_no_process():
    # The helper starts with the first pair that uses it.
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = ("import threading, cachedlstm; from cachedlstm import cells; "
            "print(threading.active_count(), cells._helper)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == ["1", "None"]


@pytest.mark.parametrize("padded", [True, False])
@pytest.mark.parametrize("use_bias", [True, False])
@pytest.mark.parametrize("kind,K", [("rnn", 1), ("lstm", 1), ("cifg", 1), ("clstm", 3)])
def test_helper_scoring_equals_serial(kind, K, use_bias, padded, monkeypatch):
    model, batch = _model_and_batch(kind, 5, 6, K, rows=7, n_steps=9, seed=4,
                                    use_bias=use_bias, padded=padded)
    assert (batch.lengths == batch.n_steps).all() != padded
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    serial = model.probabilities(batch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert model.probabilities(batch).tobytes() == serial.tobytes()


@pytest.mark.parametrize("padded", [True, False])
def test_helper_scoring_equals_serial_at_preset_shape(padded, monkeypatch, two_cpus):
    # d=50, H=120, K=3, B=64, the batch size ``predict`` scores at.
    model, batch = _model_and_batch("clstm", 50, 120, 3, rows=64, n_steps=30, seed=5,
                                    use_bias=False, padded=padded)
    paired = model.probabilities(batch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert paired.tobytes() == model.probabilities(batch).tobytes()


@pytest.mark.parametrize("cpus,here", [({0}, 2), ({0, 1}, 1)])
def test_scoring_runs_one_direction_here_on_two_cpus(cpus, here, monkeypatch):
    model, batch = _model_and_batch("clstm", 4, 6, 3, rows=3, n_steps=5, seed=3)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    calls = []
    real = cells._run

    def counted(*args, **kwargs):  # each kernel run's ``reverse``
        calls.append(inspect.signature(real).bind(*args, **kwargs).arguments.get("reverse",
                                                                                 False))
        return real(*args, **kwargs)

    monkeypatch.setattr(cells, "_run", counted)
    model.predict_batch(batch)
    assert calls == [False, True][:here]


def test_scoring_leaves_the_helper_no_history(two_cpus):
    model, batch = _model_and_batch("clstm", 4, 6, 3, rows=3, n_steps=5, seed=2)
    if cells._helper is not None:
        cells._stop_helper(cells._helper)
    model.predict_batch(batch)
    assert cells._helper is not None  # scoring started it
    assert cells._helper_memory()[1] == 0


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.integers(1, 30), st.integers(1, 300), st.integers(1, 4), st.integers(0, 2**32 - 1),
       st.sampled_from(["random", "one id", "both ends"]), st.booleans())
@example(1, 5, 3, 0, "random", True)
def test_distinct_rows_arrive_as_np_unique_gives_them(n_rows, T, B, seed, fill, view):
    # The request entries of a batch's rows, sent through a socket pair, give
    # the helper the rows of np.unique's sorted ids and the T x B inverse, as
    # int32.  ``view`` passes ids as the transposed view that scoring passes
    # (batch.ids.T); T > 128 makes ``_send`` gather the ids in parts.
    rng = np.random.default_rng(seed)
    if fill == "one id":
        ids = np.full((B, T), rng.integers(n_rows))
    else:
        ids = rng.integers(0, n_rows, (B, T))
        if fill == "both ends":
            ids.flat[0], ids.flat[-1] = 0, n_rows - 1
    ids = ids.T if view else np.ascontiguousarray(ids.T)
    source = rng.normal(size=(n_rows, 3))
    distinct, inverse = np.unique(ids, return_inverse=True)
    entries = cells._distinct_rows(source, ids)
    assert entries[0][1].tobytes() == distinct.tobytes()
    ours, theirs = socket.socketpair()
    with ours, theirs:
        cells._send(ours, None, entries)
        _, (rows, renumbered) = cells._recv(theirs)
    assert rows.tobytes() == source[distinct].tobytes()
    assert renumbered.dtype == np.int32 and renumbered.shape == (T, B)
    assert renumbered.tobytes() == inverse.reshape(T, B).astype(np.int32).tobytes()


# Scores with a unidirectional clstm model and a cbow model, then prints
# the helper, which neither may have started.
_SCORE_ONE_DIRECTION = """
import os, sys
sys.path.insert(0, sys.argv[1])
os.sched_getaffinity = lambda pid: {0, 1}
from cachedlstm import cells
from cachedlstm.data import Document, build_vocab, pad_batch
from cachedlstm.model import ModelConfig, build_model

docs = [Document(i % 2, ["a", "b", "c", "d"][:1 + i % 4]) for i in range(6)]
vocab = build_vocab(docs)
for config in (ModelConfig(kind="clstm", d=4, H=6, K=3, C=2), ModelConfig(kind="cbow", d=4)):
    build_model(config, vocab, seed=0).predict_batch(pad_batch(docs, vocab))
print(cells._helper)
"""


def test_one_direction_and_cbow_scoring_start_no_helper():
    out = subprocess.run([sys.executable, "-c", _SCORE_ONE_DIRECTION, SRC],
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.split() == ["None"]


def _overflowing_backward_model():
    """A bidirectional model whose backward direction alone overflows."""
    model, batch = _model_and_batch("clstm", 4, 6, 3, rows=3, n_steps=5, seed=8)
    model.embedding.vectors[:] = 1.0
    model.cells[1].w[:] = 1e308
    return model, batch


def test_overflow_in_the_helper_aborts_scoring(monkeypatch):
    model, batch = _overflowing_backward_model()
    errors = []
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        with pytest.raises(ValueError, match="overflow encountered in .* while scoring") as exc:
            model.predict_batch(batch)
        errors.append(str(exc.value))
    assert errors[0] == errors[1]


def test_overflow_in_the_helper_makes_eval_exit_2(tmp_path, capsys, monkeypatch):
    model, batch = _overflowing_backward_model()
    path = tmp_path / "model.bin"
    save_model(str(path), model)
    corpus = tmp_path / "c.tsv"
    corpus.write_text("0\tw1 w2 w3\n1\tw4 w5\n")
    errors = []
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        assert cli.main(["eval", str(path), str(corpus)]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("error: overflow encountered") and errors[0].count("\n") == 1


def _forward(model, batch):
    """(tape, probs, leaves) of one training forward pass."""
    tape = Tape()
    return (tape, *model.forward_batch(tape, batch))


def _gradient_bits(batch, tape, probs, leaves):
    """The bytes of each parameter's gradient after a backward pass through ``tape``."""
    grads = backward(tape, objective(probs, batch.labels))
    return {name: np.asarray(grads[v.nid]).tobytes() for name, v in leaves.items()}


class _HelperMachine(RuleBasedStateMachine):
    """Training pairs, scoring and helper deaths in any order, on two CPUs.

    Every forward pass, backward pass and scoring call gives the one-CPU
    bits (``want``), or raises ``HelperError`` exactly when the helper it
    needs has died: the current one was killed, or, for a backward pass,
    the pair's forward ran on a helper that is no longer the current one.
    The helper holds one history per live pair node whose VJP has not run.
    """

    def __init__(self, model, batch, want):
        super().__init__()
        self.model, self.batch, self.want = model, batch, want
        self.live = []  # (tape, probs, leaves, the helper that ran the second direction)
        self.dead = None  # the helper last killed
        self.seen = set()  # every helper that ran
        if cells._helper is not None:
            cells._stop_helper(cells._helper)

    def _alive(self):
        """Whether the current helper, if any, may answer: it is not the one killed."""
        return cells._helper is None or cells._helper is not self.dead

    @rule()
    def forward(self):
        alive = self._alive()
        try:
            tape, probs, leaves = _forward(self.model, self.batch)
        except HelperError:
            assert not alive and cells._helper is None  # the next call starts another
            return
        assert alive
        assert probs.value.tobytes() == self.want["probs"]
        self.live.append((tape, probs, leaves, cells._helper))

    @precondition(lambda self: self.live)
    @rule(pick=st.integers(0, 7))
    def drop(self, pick):
        del self.live[pick % len(self.live)]

    @precondition(lambda self: self.live)
    @rule(pick=st.integers(0, 7))
    def backward(self, pick):
        tape, probs, leaves, helper = self.live.pop(pick % len(self.live))
        if helper is cells._helper and self._alive():
            assert _gradient_bits(self.batch, tape, probs, leaves) == self.want["grads"]
        else:
            with pytest.raises(HelperError):
                _gradient_bits(self.batch, tape, probs, leaves)

    @rule()
    def score(self):
        alive = self._alive()
        try:
            probs = self.model.probabilities(self.batch)
        except HelperError:
            assert not alive and cells._helper is None
            return
        assert alive and probs.tobytes() == self.want["scores"]

    @precondition(lambda self: cells._helper is not None and self._alive())
    @rule()
    def kill(self):
        self.dead = cells._helper
        os.kill(self.dead.proc.pid, signal.SIGKILL)
        self.dead.proc.wait()

    @invariant()
    def the_helper_holds_the_live_histories(self):
        helper = cells._helper
        if helper is not None:
            self.seen.add(helper)
        if self._alive():  # a request to a killed helper would find it dead
            held = sum(entry[-1] is helper for entry in self.live)
            assert cells._helper_memory()[1] == (held if helper is not None else 0)

    def teardown(self):
        self.live.clear()
        if cells._helper is not None:
            cells._stop_helper(cells._helper)
        assert all(helper.proc.poll() is not None for helper in self.seen)


def test_any_order_of_pairs_scoring_and_helper_deaths(monkeypatch):
    model, batch = _model_and_batch("clstm", 4, 6, 3, rows=3, n_steps=5, seed=2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    tape, probs, leaves = _forward(model, batch)
    want = {"probs": probs.value.tobytes(), "scores": model.probabilities(batch).tobytes(),
            "grads": _gradient_bits(batch, tape, probs, leaves)}
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    run_state_machine_as_test(
        lambda: _HelperMachine(model, batch, want),
        settings=settings(derandomize=True, database=None, deadline=None, max_examples=10,
                          stateful_step_count=12))
