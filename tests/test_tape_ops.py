"""The composed tape of ``tape_ops`` against central differences, and the
library's fused head, loss and weight decay against that composed tape.

Every op of ``tape_ops`` is checked against central differences on random
inputs, seeded.  ``encoder.classify`` and ``training.objective`` are one
tape node each, and ``training.apply_weight_decay`` puts the L2 term in the
update; each must give the bits of the composed graph it replaced, in the
value and in every gradient.
"""

import numpy as np
import pytest

from cachedlstm import model as model_module
from cachedlstm.autodiff import RowSparse, Tape, backward, take_rows
from cachedlstm.data import Document, build_vocab, pad_batch
from cachedlstm.encoder import ClassifierParams, classify
from cachedlstm.model import ModelConfig, build_model
from cachedlstm.training import PROB_FLOOR, apply_weight_decay, objective
from tape_ops import (
    add,
    add_const,
    add_rowvec,
    concat_cols,
    log_floor,
    matmul,
    mul,
    mul_colvec,
    mul_const,
    op_check,
    pick_cols,
    sigmoid,
    softmax_rows,
    sub_from_one,
    sum_all,
    tanh_,
    transpose,
)


class TestForwardValues:
    def test_matmul_small(self):
        tape = Tape()
        a = tape.leaf([[1.0, 2.0]])
        b = tape.leaf([[3.0], [4.0]])
        np.testing.assert_allclose(matmul(a, b).value, [[11.0]])

    def test_pick_cols_selects_per_row(self):
        tape = Tape()
        a = tape.leaf([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        got = pick_cols(a, np.array([2, 0])).value
        np.testing.assert_array_equal(got, [[3.0], [4.0]])

    def test_log_floor_applies_floor(self):
        tape = Tape()
        a = tape.leaf([[1.0, 0.0]])
        y = log_floor(a, 1e-12).value
        assert y[0, 0] == 0.0
        assert y[0, 1] == pytest.approx(np.log(1e-12))

    def test_sum_all(self):
        tape = Tape()
        a = tape.leaf([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(sum_all(a).value, [[10.0]])


def test_log_floor_zero_grad_below_floor():
    tape = Tape()
    a = tape.leaf([[0.5, 1e-30]])
    g = backward(tape, sum_all(log_floor(a, 1e-12)))
    assert g[a.nid][0, 0] == pytest.approx(2.0)
    assert g[a.nid][0, 1] == 0.0


class TestGradChecks:
    """Every op against a central-difference oracle."""

    def setup_method(self):
        self.rng = np.random.default_rng(20240817)

    def test_matmul(self):
        a = self.rng.normal(size=(3, 4))
        b = self.rng.normal(size=(4, 5))
        assert op_check(lambda a, b: sum_all(matmul(a, b)), a, b) < 1e-6

    def test_add_mul_chain(self):
        a = self.rng.normal(size=(4, 4))
        b = self.rng.normal(size=(4, 4))
        assert op_check(lambda a, b: sum_all(mul(add(a, b), b)), a, b) < 1e-6

    def test_softmax(self):
        a = self.rng.normal(size=(5, 7))
        w = self.rng.normal(size=(5, 7))
        assert op_check(lambda a, w: sum_all(mul(softmax_rows(a), w)), a, w) < 1e-6

    def test_log_floor_of_softmax(self):
        a = self.rng.normal(size=(4, 5))
        assert op_check(lambda a: mul_const(sum_all(log_floor(softmax_rows(a), 1e-12)), -0.25),
                        a) < 1e-6

    def test_transpose(self):
        a = self.rng.normal(size=(3, 5))
        b = self.rng.normal(size=(3, 5))
        assert op_check(lambda a, b: sum_all(matmul(transpose(a), b)), a, b) < 1e-6

    def test_add_rowvec(self):
        a = self.rng.normal(size=(5, 4))
        r = self.rng.normal(size=(1, 4))
        assert op_check(lambda a, r: sum_all(tanh_(add_rowvec(a, r))), a, r) < 1e-6

    def test_pick_cols(self):
        a = self.rng.normal(size=(5, 4))
        cols = np.array([3, 0, 1, 1, 2])
        assert op_check(lambda a: sum_all(mul(pick_cols(softmax_rows(a), cols),
                                              pick_cols(a, cols))), a) < 1e-6

    def test_scalar_ops(self):
        a = self.rng.normal(size=(3, 3))
        assert op_check(lambda a: sum_all(tanh_(mul_const(a, 0.3))), a) < 1e-6

    def test_concat_cols(self):
        a = self.rng.normal(size=(4, 3))
        b = self.rng.normal(size=(4, 2))
        w = self.rng.normal(size=(4, 5))
        assert op_check(lambda a, b, w: sum_all(mul(tanh_(concat_cols([a, b])), w)),
                        a, b, w) < 1e-6

    def test_deep_composite_expression(self):
        a = self.rng.normal(size=(4, 4))
        b = self.rng.normal(size=(4, 4))
        c = self.rng.normal(size=(4, 1))

        def build(a, b, c):
            h = tanh_(matmul(a, transpose(b)))
            g = tanh_(mul_colvec(h, c))
            return sum_all(mul(g, add(h, mul_const(a, -0.5))))

        assert op_check(build, a, b, c) < 1e-6


def test_reference_sigmoid_gradient():
    a = np.random.default_rng(20240817).normal(size=(4, 6))
    assert op_check(lambda a: sum_all(mul(sigmoid(a), a)), a) < 1e-6


def test_reference_sub_from_one_gradient():
    a = np.random.default_rng(20240818).normal(size=(3, 3))
    assert op_check(lambda a: sum_all(mul(sub_from_one(a), a)), a) < 1e-6


def test_reference_add_const_gradient():
    a = np.random.default_rng(20240819).normal(size=(3, 6))
    off = np.repeat(np.arange(3) / 3.0, 2).reshape(1, 6)
    assert op_check(lambda a: sum_all(tanh_(add_const(mul_const(sigmoid(a), 1 / 3), off))),
                    a) < 1e-6


def test_reference_tanh_gradient():
    a = np.random.default_rng(20240820).normal(size=(4, 6))
    assert op_check(lambda a: sum_all(mul(tanh_(a), a)), a) < 1e-6


def test_reference_mul_colvec_gradient():
    rng = np.random.default_rng(20240817)
    a, c = rng.normal(size=(5, 4)), rng.normal(size=(5, 1))
    assert op_check(lambda a, c: sum_all(tanh_(mul_colvec(a, c))), a, c) < 1e-6


def composed_classify(rep, clf):
    """The softmax head as the per-op graph that ``encoder.classify`` replaced."""
    return softmax_rows(add_rowvec(matmul(rep, transpose(clf.w)), transpose(clf.b)))


def composed_objective(probs, gold, reg_vars=(), decay=0.0):
    """The loss, plus the L2 term over ``reg_vars``, as the per-op graph that
    ``training.objective`` and ``training.apply_weight_decay`` replaced."""
    loss = mul_const(sum_all(log_floor(pick_cols(probs, gold), PROB_FLOOR)), -1.0 / len(gold))
    penalty = None
    for v in reg_vars:
        term = sum_all(mul(v, v))
        penalty = term if penalty is None else add(penalty, term)
    return loss if penalty is None else add(loss, mul_const(penalty, decay / 2.0))


def _bits(g):
    return (g.ids.tobytes(), g.rows.tobytes()) if isinstance(g, RowSparse) else g.tobytes()


def test_head_and_loss_nodes_equal_the_composed_tape():
    rng = np.random.default_rng(31)
    rep_arr = rng.normal(size=(5, 4))
    rep_arr[2] *= 60.0  # row 2's gold probability, ~8e-21, is floored
    w_arr, b_arr = rng.normal(size=(3, 4)), rng.normal(size=(3, 1))
    gold = np.array([0, 2, 0, 1, 1])
    got = []
    for head, loss_of in ((classify, objective), (composed_classify, composed_objective)):
        tape = Tape()
        rep, w, b = tape.leaf(rep_arr), tape.leaf(w_arr), tape.leaf(b_arr)
        probs = head(rep, ClassifierParams(w=w, b=b))
        loss = loss_of(probs, gold)
        grads = backward(tape, loss)
        got.append([probs.value.tobytes(), loss.value.tobytes()]
                   + [grads[v.nid].tobytes() for v in (rep, w, b)])
        floored = probs.value[np.arange(5), gold] < PROB_FLOOR
    assert floored.tolist() == [False, False, True, False, False]
    assert len(got[0]) == len(got[1]) == 5
    assert got[0] == got[1]


@pytest.mark.parametrize("embedding", ["rows", "frozen", "whole"])
def test_training_step_gradients_equal_the_composed_tape(embedding, monkeypatch):
    # A padded bi-clstm batch with weight decay, through the fused head, loss
    # and decay and through the per-op graph.  The embedding decays in the
    # batch's rows (training), not at all (frozen), or whole (the pipeline
    # gradient check).  The loss, and each tape gradient plus its decay
    # term, must be the bits of backward over the composed graph.
    rng = np.random.default_rng(12)
    words = [f"w{i}" for i in range(9)]
    docs = [Document(int(rng.integers(3)), list(rng.choice(words, n))) for n in (6, 2, 4)]
    vocab = build_vocab(docs + [Document(0, ["unused"])])
    model = build_model(ModelConfig(kind="clstm", d=4, H=6, K=3, C=3, bidirectional=True,
                                    use_bias=True), vocab, seed=5)
    batch = pad_batch(docs, vocab)
    tensors = model.named_tensors()
    if embedding == "frozen":
        del tensors["embedding"]
    rows = None if embedding == "whole" else np.unique(batch.ids)
    decay = 1e-2

    tape = Tape()
    probs, leaves = model.forward_batch(tape, batch)
    loss = objective(probs, batch.labels)
    value, add_decay = apply_weight_decay(float(loss.value[0, 0]), tensors, decay, rows)
    grads = backward(tape, loss)
    fused = {name: grads[leaves[name].nid] for name in tensors}
    add_decay(fused)

    monkeypatch.setattr(model_module, "classify", composed_classify)
    tape = Tape()
    probs, leaves = model.forward_batch(tape, batch)
    if embedding == "whole":
        reg = list(leaves.values())
    else:
        reg = [v for name, v in leaves.items() if name != "embedding"]
        if embedding == "rows":
            reg.append(take_rows(leaves["embedding"], rows))
    loss = composed_objective(probs, batch.labels, reg, decay)
    grads = backward(tape, loss)
    assert np.array([[value]]).tobytes() == loss.value.tobytes()
    if embedding == "rows":
        assert isinstance(fused["embedding"], RowSparse)
    assert {n: _bits(g) for n, g in fused.items()} == {
        n: _bits(grads[leaves[n].nid]) for n in tensors}
