"""Encoder tests: unrolling, direction alignment, masking neutrality, the
document representation slice, and the classifier head."""

import numpy as np
import pytest

from cachedlstm.autodiff import ShapeError, Tape, backward, slice_cols, stack_steps
from cachedlstm.cells import bind_params, init_params, lstm_step, zero_state
from cachedlstm.encoder import (
    ClassifierParams,
    EncodedSequence,
    EncoderConfig,
    cbow_encode,
    classify,
    doc_representation,
    encode_bidirectional,
    encode_forward,
    init_classifier,
)
from tape_ops import concat_cols, mul, sum_all


def _embed(tape, rng, T, B, d):
    return [tape.leaf(rng.normal(size=(B, d))) for _ in range(T)]


class TestConfig:
    def test_rep_width(self):
        cfg = EncoderConfig(cell_kind="clstm", d=5, H=12, K=3, C=4)
        assert cfg.group_size == 4
        assert cfg.rep_width == 4
        bi = EncoderConfig(cell_kind="clstm", d=5, H=12, K=3, C=4, bidirectional=True)
        assert bi.rep_width == 8

    def test_k_only_for_clstm(self):
        with pytest.raises(ValueError, match="clstm"):
            EncoderConfig(cell_kind="lstm", d=4, H=8, K=2)

    def test_h_divisibility(self):
        with pytest.raises(ValueError, match="divisible"):
            EncoderConfig(cell_kind="clstm", d=4, H=10, K=3)

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            EncoderConfig(cell_kind="gru", d=4, H=8)


class TestConfigMatchesCells:
    """Each encoder checks its config's kind, H and K against every cell."""

    MISMATCHES = [
        # Against clstm weights of d=4, H=6, K=3.
        (EncoderConfig("clstm", 4, 6, K=1), "K"),
        (EncoderConfig("clstm", 4, 6, K=2), "K"),
        (EncoderConfig("lstm", 4, 6), "cell_kind"),
        (EncoderConfig("clstm", 4, 9, K=3), "H"),
    ]

    @staticmethod
    def _run(encode, cfg, *cells):
        tape = Tape()
        bound = [bind_params(tape, p)[0] for p in cells]
        return encode(cfg, *bound, _embed(tape, np.random.default_rng(0), 3, 2, 4))

    @pytest.mark.parametrize("cfg,field", MISMATCHES)
    def test_forward_names_the_field(self, cfg, field):
        cell = init_params("clstm", 4, 6, n_groups=3, seed=0)
        with pytest.raises(ValueError, match=f"encoder config has {field}="):
            self._run(encode_forward, cfg, cell)

    @pytest.mark.parametrize("cfg,field", MISMATCHES)
    def test_bidirectional_checks_the_backward_cell(self, cfg, field):
        # The forward cell matches the config; only the backward one differs.
        good = init_params(cfg.cell_kind, 4, cfg.H, n_groups=cfg.K, seed=1)
        bad = init_params("clstm", 4, 6, n_groups=3, seed=0)
        with pytest.raises(ValueError, match=f"encoder config has {field}="):
            self._run(encode_bidirectional, cfg, good, bad)

    def test_matching_config_gives_its_width(self):
        cell = init_params("clstm", 4, 6, n_groups=3, seed=0)
        enc = self._run(encode_forward, EncoderConfig("clstm", 4, 6, K=3), cell)
        assert doc_representation(enc).shape == (2, 2)


class TestForwardUnroll:
    def test_matches_manual_steps(self):
        rng = np.random.default_rng(8)
        d, H, B, T = 3, 4, 2, 5
        p = init_params("lstm", d, H, seed=2)
        cfg = EncoderConfig(cell_kind="lstm", d=d, H=H, C=2)
        tape = Tape()
        bound, _ = bind_params(tape, p)
        xs = _embed(tape, rng, T, B, d)
        enc = encode_forward(cfg, bound, xs)

        st = zero_state(tape, B, H)
        for x in xs:
            st = lstm_step(bound, x, st)
        # The node holds the final state [c_T | h_T] only.
        assert enc.final.shape == (B, 2 * H)
        np.testing.assert_array_equal(enc.final.value[:, H:], st.h.value)
        np.testing.assert_array_equal(enc.final.value[:, :H], st.c.value)

    def test_empty_sequence_rejected(self):
        cfg = EncoderConfig(cell_kind="rnn", d=3, H=4, C=2)
        p = init_params("rnn", 3, 4, seed=0)
        tape = Tape()
        bound, _ = bind_params(tape, p)
        with pytest.raises(ValueError, match="empty"):
            encode_forward(cfg, bound, [])

    def test_wrong_input_width(self):
        cfg = EncoderConfig(cell_kind="rnn", d=3, H=4, C=2)
        p = init_params("rnn", 3, 4, seed=0)
        tape = Tape()
        bound, _ = bind_params(tape, p)
        with pytest.raises(ShapeError, match="width"):
            encode_forward(cfg, bound, [tape.leaf(np.zeros((2, 5)))])


class TestMasking:
    """A padded batch must produce exactly the states of unpadded rows."""

    @pytest.mark.parametrize("kind,K", [("rnn", 1), ("lstm", 1), ("clstm", 2)])
    def test_padding_is_inert(self, kind, K):
        rng = np.random.default_rng(31)
        d, H = 3, 6
        p = init_params(kind, d, H, n_groups=K, seed=4)
        cfg = EncoderConfig(cell_kind=kind, d=d, H=H, K=K, C=2)
        lengths = [5, 3, 1]
        T = max(lengths)
        rows = [rng.normal(size=(length, d)) for length in lengths]

        # Batched with padding and a mask.
        tape = Tape()
        bound, _ = bind_params(tape, p)
        xs, mask = [], []
        for t in range(T):
            step = np.zeros((len(lengths), d))
            m = np.zeros((len(lengths), 1))
            for i, row in enumerate(rows):
                if t < lengths[i]:
                    step[i] = row[t]
                    m[i, 0] = 1.0
            xs.append(tape.leaf(step))
            mask.append(tape.leaf(m))
        # The padded batch's final state after each prefix of t + 1 steps.
        finals = [encode_forward(cfg, bound, xs[:t + 1], mask=mask[:t + 1]).final.value
                  for t in range(T)]

        # Each row alone, no padding.
        for i, row in enumerate(rows):
            tape2 = Tape()
            bound2, _ = bind_params(tape2, p)
            xs2 = [tape2.leaf(row[t:t + 1]) for t in range(lengths[i])]
            solo = encode_forward(cfg, bound2, xs2).final.value
            assert solo.shape == (1, H if kind == "rnn" else 2 * H)
            last = lengths[i] - 1
            for t in (last, T - 1):  # padding steps carry the final state
                np.testing.assert_allclose(finals[t][i], solo[0], atol=1e-12)

    def test_mask_length_mismatch(self):
        cfg = EncoderConfig(cell_kind="rnn", d=2, H=3, C=2)
        p = init_params("rnn", 2, 3, seed=0)
        tape = Tape()
        bound, _ = bind_params(tape, p)
        xs = [tape.leaf(np.zeros((1, 2)))] * 3
        with pytest.raises(ShapeError, match="mask"):
            encode_forward(cfg, bound, xs, mask=[tape.leaf(np.ones((1, 1)))])


class TestBidirectional:
    def test_backward_final_state_is_reverse_run(self):
        rng = np.random.default_rng(33)
        d, H, B, T = 3, 4, 2, 5
        cfg = EncoderConfig(cell_kind="lstm", d=d, H=H, C=2, bidirectional=True)
        pf = init_params("lstm", d, H, seed=6)
        pb = init_params("lstm", d, H, seed=7)
        arrays = [rng.normal(size=(B, d)) for _ in range(T)]

        tape = Tape()
        bf, _ = bind_params(tape, pf)
        bb, _ = bind_params(tape, pb)
        xs = [tape.leaf(a) for a in arrays]
        enc = encode_bidirectional(cfg, bf, bb, xs)

        uni = EncoderConfig(cell_kind="lstm", d=d, H=H, C=2)
        tape2 = Tape()
        bb2, _ = bind_params(tape2, pb)
        rev = encode_forward(uni, bb2, [tape2.leaf(a) for a in reversed(arrays)])
        # The pair's second half holds the reverse run's final state [c_T | h_T].
        assert enc.final.shape == (B, 2 * 2 * H)
        np.testing.assert_array_equal(enc.final.value[:, 2 * H:], rev.final.value)


class TestDocRepresentation:
    def test_unidirectional_takes_first_group(self):
        rng = np.random.default_rng(35)
        cfg = EncoderConfig(cell_kind="clstm", d=3, H=8, K=4, C=2)
        p = init_params("clstm", 3, 8, n_groups=4, seed=3)
        tape = Tape()
        bound, _ = bind_params(tape, p)
        enc = encode_forward(cfg, bound, _embed(tape, rng, 3, 2, 3))
        rep = doc_representation(enc)
        assert rep.shape == (2, 2)
        # Group 1 of h_T, which follows c_T in the 16-wide final state.
        np.testing.assert_array_equal(rep.value, enc.final.value[:, 8:10])

    def test_bidirectional_width(self):
        rng = np.random.default_rng(36)
        cfg = EncoderConfig(cell_kind="clstm", d=3, H=6, K=3, C=2, bidirectional=True)
        pf = init_params("clstm", 3, 6, n_groups=3, seed=4)
        pb = init_params("clstm", 3, 6, n_groups=3, seed=5)
        tape = Tape()
        bf, _ = bind_params(tape, pf)
        bb, _ = bind_params(tape, pb)
        enc = encode_bidirectional(cfg, bf, bb, _embed(tape, rng, 4, 2, 3))
        rep = doc_representation(enc)
        assert rep.shape == (2, 4)
        # Group 1 of the second direction's h_T, in its 12-wide half of the final state.
        np.testing.assert_array_equal(rep.value[:, 2:], enc.final.value[:, 12 + 6:12 + 8])

    @pytest.mark.parametrize("runs", [1, 2])
    @pytest.mark.parametrize("kind", ["rnn", "clstm"])
    def test_bidirectional_node_has_the_bits_of_the_slices_it_replaced(self, kind, runs):
        # One node in place of the slices of each direction's group 1 and,
        # for two, the direction slices and a concatenation.  Two direction
        # slices' gradients summed each block with 0.0, so a -0.0 arrived
        # at the pair as 0.0; the node's gradient is the slices' plus 0.0,
        # so a -0.0 arrives as 0.0 for one direction too.
        H, K = 6, 3 if kind == "clstm" else 1
        cfg = EncoderConfig(cell_kind=kind, d=3, H=H, K=K, C=2, bidirectional=runs == 2)
        S, width = (2 * H if kind == "clstm" else H), H // K
        rng = np.random.default_rng(37)
        weight = rng.normal(size=(3, runs * width))
        weight[0, 0], weight[1, (runs - 1) * width], weight[2, 1] = -0.0, -0.0, 0.0
        out = []
        for composed in (False, True):
            tape = Tape()
            final = tape.leaf(rng.normal(size=(3, runs * S)) if not out else out[0][2])
            if composed:
                halves = ([slice_cols(final, k * S, (k + 1) * S) for k in (0, 1)] if runs == 2
                          else [final])
                rep = concat_cols([slice_cols(v, S - H, S - H + width) for v in halves])
            else:
                rep = doc_representation(EncodedSequence(cfg, final))
                assert len(tape) == 2  # the leaf and one node
            grads = backward(tape, sum_all(mul(rep, tape.leaf(weight))))
            out.append((rep.value, grads[final.nid] + 0.0 if composed else grads[final.nid],
                        final.value))
        for a, b in zip(*out):
            assert a.tobytes() == b.tobytes()
        assert np.signbit(out[0][1]).sum() == np.signbit(weight).sum() - 2


class TestClassifier:
    def test_zero_weights_give_uniform(self):
        clf = ClassifierParams(w=np.zeros((5, 3)), b=np.zeros((5, 1)))
        tape = Tape()
        bound, _ = bind_params(tape, clf)
        rep = tape.leaf(np.random.default_rng(0).normal(size=(4, 3)))
        probs = classify(rep, bound)
        np.testing.assert_allclose(probs.value, 0.2)

    def test_bias_shifts_logits(self):
        clf = ClassifierParams(w=np.zeros((3, 2)), b=np.array([[0.0], [10.0], [0.0]]))
        tape = Tape()
        bound, _ = bind_params(tape, clf)
        probs = classify(tape.leaf(np.ones((1, 2))), bound)
        assert probs.value[0].argmax() == 1
        assert probs.value[0, 1] > 0.99

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(37)
        clf = init_classifier(4, 6, seed=8)
        tape = Tape()
        bound, _ = bind_params(tape, clf)
        probs = classify(tape.leaf(rng.normal(size=(5, 4)) * 10), bound)
        assert np.abs(probs.value.sum(axis=1) - 1.0).max() < 1e-12

    def test_bias_shape_validated(self):
        with pytest.raises(ShapeError):
            ClassifierParams(w=np.zeros((3, 2)), b=np.zeros((2, 1)))


class TestCbow:
    def test_tanh_of_sum(self):
        rng = np.random.default_rng(38)
        arrays = [rng.normal(size=(2, 4)) for _ in range(3)]
        tape = Tape()
        out = cbow_encode(stack_steps([tape.leaf(a) for a in arrays]),
                          np.arange(6).reshape(3, 2), np.ones((2, 3)))
        np.testing.assert_allclose(out.value, np.tanh(sum(arrays)), atol=1e-12)

    def test_mask_removes_contributions(self):
        rng = np.random.default_rng(39)
        arrays = [rng.normal(size=(1, 3)) for _ in range(4)]
        tape = Tape()
        mask = np.array([[1.0, 0.0, 1.0, 0.0]])
        out = cbow_encode(stack_steps([tape.leaf(a) for a in arrays]),
                          np.arange(4).reshape(4, 1), mask)
        np.testing.assert_allclose(out.value, np.tanh(arrays[0] + arrays[2]),
                                   atol=1e-12)


class TestGradientsThroughEncoder:
    """Gradient checks with an all-steps readout.

    Reading out only the final state leaves some cross-group parameters with
    gradients around 1e-8, where the relative-error metric measures
    finite-difference noise instead of correctness; summing a readout of
    every step's h_t, each the final h of a prefix run, keeps all paths
    well conditioned.
    """

    def test_masked_clstm_encoder_grad(self):
        from cachedlstm.gradcheck import encoder_gradcheck

        err = encoder_gradcheck("clstm", 2, hidden=4, width=2, n_steps=3,
                                batch=2, seed=9, eps=1e-5, masked=True)
        assert err < 1e-6

    def test_masked_lstm_encoder_grad(self):
        from cachedlstm.gradcheck import encoder_gradcheck

        err = encoder_gradcheck("lstm", 1, hidden=5, width=3, n_steps=4,
                                batch=3, seed=13, eps=1e-5, masked=True)
        assert err < 1e-6

    def test_representation_grad_flows_through_first_group_only(self):
        # The doc representation reads group 1; check the slice's gradient
        # against a direct construction rather than finite differences.
        rng = np.random.default_rng(41)
        cfg = EncoderConfig(cell_kind="clstm", d=2, H=4, K=2, C=2)
        proto = init_params("clstm", 2, 4, n_groups=2, seed=9)
        tape = Tape()
        bound, leaves = bind_params(tape, proto)
        xs = [tape.leaf(rng.normal(size=(2, 2))) for _ in range(3)]
        enc = encode_forward(cfg, bound, xs)
        weight = rng.normal(size=(2, 2))
        loss = sum_all(mul(doc_representation(enc), tape.leaf(weight)))
        grads = backward(tape, loss)

        tape2 = Tape()
        bound2, leaves2 = bind_params(tape2, proto)
        xs2 = [tape2.leaf(x.value) for x in xs]
        enc2 = encode_forward(cfg, bound2, xs2)
        from cachedlstm.autodiff import slice_cols

        # Group 1 of h_T in the final state [c_T | h_T], 8 wide.
        loss2 = sum_all(mul(slice_cols(enc2.final, 4, 6), tape2.leaf(weight)))
        grads2 = backward(tape2, loss2)
        for name in leaves:
            np.testing.assert_array_equal(grads[leaves[name].nid],
                                          grads2[leaves2[name].nid])
