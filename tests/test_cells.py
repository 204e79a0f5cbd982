"""Cell step tests.

The grouped cell is checked against a straightforward per-group numpy
reference that loops over blocks of the stacked layout, plus closed-form
values for zero weights and gradient checks through unrolled steps.
"""

import numpy as np
import pytest

from cachedlstm import cells
from cachedlstm.autodiff import ShapeError, Tape, backward, grad_check
from cachedlstm.cells import (
    GATES,
    CellParams,
    CellState,
    CifgParams,
    ClstmParams,
    bind_params,
    cifg_step,
    clstm_step,
    init_params,
    lstm_step,
    named_tensors,
    zero_state,
)
from tape_ops import mul, run_kernel, sum_all


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def block(p: CellParams, tensor: str, gate: str, k: int, j: int | None = None):
    """W^k of a gate (j None) or U^{j->k}, sliced out of the stacked layout.

    Gate blocks are H rows each in GATES order; inside one, the rows of
    group k and, in ``u``, the columns of group j hold U^{j->k}.
    """
    gs = p.hidden_size // p.n_groups
    row = GATES[p.kind].index(gate) * p.hidden_size + (k - 1) * gs
    rows = getattr(p, tensor)[row:row + gs]
    return rows if j is None else rows[:, (j - 1) * gs:j * gs]


def clstm_reference(p: CellParams, x, c_prev, h_prev):
    """Per-group loop evaluating the grouped cell the long way.

    Uses ``block`` so the test also pins down the storage layout: rows of
    group k, recurrent columns of group j hold U^{j->k}.
    """
    K = p.n_groups
    gs = p.hidden_size // K
    h_groups = [h_prev[:, j * gs:(j + 1) * gs] for j in range(K)]
    cs, hs, rs = [], [], []
    for k in range(1, K + 1):
        pre_r = x @ block(p, "w", "r", k).T
        pre_o = x @ block(p, "w", "o", k).T
        pre_c = x @ block(p, "w", "c", k).T
        for j in range(1, K + 1):
            pre_r = pre_r + h_groups[j - 1] @ block(p, "u", "r", k, j).T
            pre_o = pre_o + h_groups[j - 1] @ block(p, "u", "o", k, j).T
            pre_c = pre_c + h_groups[j - 1] @ block(p, "u", "c", k, j).T
        if p.b_r is not None:
            pre_r = pre_r + p.b_r[(k - 1) * gs:k * gs, 0]
            pre_o = pre_o + p.b_o[(k - 1) * gs:k * gs, 0]
            pre_c = pre_c + p.b_c[(k - 1) * gs:k * gs, 0]
        r = _sigmoid(pre_r) / K + (k - 1) / K
        o = _sigmoid(pre_o)
        ctil = np.tanh(pre_c)
        ck = c_prev[:, (k - 1) * gs:k * gs]
        c_new = (1.0 - r) * ck + r * ctil
        cs.append(c_new)
        hs.append(o * np.tanh(c_new))
        rs.append(r)
    return np.hstack(cs), np.hstack(hs), np.hstack(rs)


def _rates_at(n_groups, bias, hidden=None):
    """Rates of one clstm step with zero weights and a constant rate bias."""
    hidden = hidden or 2 * n_groups
    p = init_params("clstm", 2, hidden, n_groups=n_groups, seed=0, use_bias=True)
    p.w[:] = 0.0
    p.u[:] = 0.0
    p.b_r[:] = bias
    tape = Tape()
    bound, _ = bind_params(tape, p)
    _, rates = clstm_step(bound, tape.leaf(np.ones((1, 2))),
                          zero_state(tape, 1, hidden, n_groups=n_groups))
    return rates.r.value[0]


class TestSquash:
    """The rate squash z/K + (k-1)/K, seen through clstm_step."""

    def test_known_values(self):
        # sigmoid(0) = 0.5.
        assert _rates_at(3, 0.0)[0] == pytest.approx(1.0 / 6.0)
        assert _rates_at(4, 0.0)[-1] == pytest.approx(0.875)

    def test_single_group_is_identity(self):
        for z in (0.3, 0.9):
            r = _rates_at(1, np.log(z / (1.0 - z)))
            np.testing.assert_allclose(r, z, rtol=1e-14)

    def test_interval_endpoints(self):
        # A saturated rate gate approaches its band's edges (k-1)/K and
        # k/K but never reaches them, so the bands stay open intervals.
        for n_groups in (2, 3, 4, 5):
            for bias in (-40.0, 40.0, -1e4, 1e4):
                r = _rates_at(n_groups, bias, hidden=3 * n_groups)
                for k in range(1, n_groups + 1):
                    seg = r[(k - 1) * 3:k * 3]
                    lo, hi = (k - 1) / n_groups, k / n_groups
                    assert (seg > lo).all() and (seg < hi).all(), (n_groups, bias, k)
                    edge = lo if bias < 0 else hi
                    assert np.abs(seg - edge).max() < 1e-15

    def test_scalar_bounds_keep_the_band_clamps_bits(self):
        # The rates clamp z/K to two scalar bounds before adding (k-1)/K.
        # The reference clamps z/K + (k-1)/K itself to the innermost floats
        # of each band.  Wherever z/K lies within the bounds, neither clamp
        # bites and the bits are equal.  Outside them the rate is saturated:
        # strictly inside its band, 2^-52 above its lower edge or within
        # 2^-51 of its upper one (1/K and (k-1)/K each round, so their sum
        # can miss k/K: up to 1.5 * 2^-52 below it for K <= 64).  The
        # reference need not bite there: group 1's z/K below 2^-52 is its
        # own rate.
        for K in range(1, 65):
            scale, lo, hi, _ = cells._band(K, K, 1)
            z = np.concatenate([[1e-300, 1.0 - 2.0 ** -53], np.geomspace(1e-18, 1e-3, 40),
                                np.linspace(1e-3, 1.0 - 1e-3, 101)])
            for e in (lo, hi):  # z at, just inside and just outside each bound
                z = np.concatenate([z, e * K + np.arange(-4, 5) * np.spacing(e * K)])
            z = np.unique(np.clip(z, 1e-300, 1.0 - 2.0 ** -53))
            zs = np.tile(z, (K, 1))  # one unit per group, one column per z
            r = cells._rates(zs, cells._band(K, K, len(z)))
            off = (np.arange(K) / K)[:, None]
            top = (np.arange(1, K + 1) / K)[:, None]
            ref = np.minimum(np.maximum(zs * (1.0 / K) + off, np.nextafter(off, 1.0)),
                             np.nextafter(top, 0.0))
            assert (r > off).all() and (r < top).all(), K
            q = z * scale
            inner = (q >= lo) & (q <= hi)
            assert (ref[:, inner] == zs[:, inner] * scale + off).all(), K  # no clamp bites
            assert r[:, inner].tobytes() == ref[:, inner].tobytes(), K
            if K == 1:  # the bounds never bite: r is z
                assert r.tobytes() == zs.tobytes()
            else:
                assert {-1, 0, 1} <= set(np.sign(q - lo)) and {-1, 0, 1} <= set(np.sign(q - hi))
            below, above = q < lo, q > hi
            assert (r[:, below] - off <= 2.0 ** -52).all(), K
            assert (top - r[:, above] <= 2.0 ** -51).all(), K


class TestClosedForms:
    def test_lstm_zero_weights_unit_memory(self):
        # All gates sit at 0.5 and the candidate is 0, so c' = 0.5 and
        # h' = 0.5 * tanh(0.5).
        d, H = 3, 4
        p = CellParams("lstm", 1, w=np.zeros((4 * H, d)), u=np.zeros((4 * H, H)))
        tape = Tape()
        bound, _ = bind_params(tape, p)
        x = tape.leaf(np.ones((2, d)))
        prev = CellState(c=tape.leaf(np.ones((2, H))), h=tape.leaf(np.zeros((2, H))))
        st = lstm_step(bound, x, prev)
        np.testing.assert_allclose(st.c.value, 0.5)
        np.testing.assert_allclose(st.h.value, 0.5 * np.tanh(0.5))

    def test_clstm_two_groups_zero_weights(self):
        # sigmoid(0) = 0.5 squashes to r = (0.25, 0.75); with unit memory and
        # zero candidate, c' = 1 - r and h' = 0.5 * tanh(1 - r).
        d, H, K = 2, 4, 2
        p = ClstmParams(
            n_groups=K,
            w_r=np.zeros((H, d)), w_o=np.zeros((H, d)), w_c=np.zeros((H, d)),
            u_r=np.zeros((H, H)), u_o=np.zeros((H, H)), u_c=np.zeros((H, H)),
        )
        tape = Tape()
        bound, _ = bind_params(tape, p)
        x = tape.leaf(np.ones((1, d)))
        prev = CellState(c=tape.leaf(np.ones((1, H))), h=tape.leaf(np.zeros((1, H))),
                         n_groups=K)
        st, rates = clstm_step(bound, x, prev)
        np.testing.assert_allclose(rates.r.value[:, :2], 0.25)
        np.testing.assert_allclose(rates.r.value[:, 2:], 0.75)
        np.testing.assert_allclose(st.c.value[:, :2], 0.75)
        np.testing.assert_allclose(st.c.value[:, 2:], 0.25)
        np.testing.assert_allclose(st.h.value[:, :2], 0.5 * np.tanh(0.75))
        np.testing.assert_allclose(st.h.value[:, 2:], 0.5 * np.tanh(0.25))

    def test_rnn_is_tanh_affine(self):
        rng = np.random.default_rng(5)
        d, H, B = 3, 5, 4
        p = init_params("rnn", d, H, seed=7, use_bias=True)
        p.b[:] = rng.normal(size=(H, 1))
        x_arr = rng.normal(size=(B, d))
        h_arr = rng.normal(size=(B, H))
        tape = Tape()
        bound, _ = bind_params(tape, p)
        h2 = run_kernel(bound, tape.leaf(x_arr), [np.arange(B)], None, tape.leaf(h_arr))
        want = np.tanh(x_arr @ p.w.T + h_arr @ p.u.T + p.b[:, 0])
        np.testing.assert_allclose(h2.value, want, atol=1e-12)


class TestClstmAgainstReference:
    @pytest.mark.parametrize("n_groups,hidden", [(1, 5), (2, 6), (3, 9), (4, 8)])
    def test_matches_per_group_loop(self, n_groups, hidden):
        rng = np.random.default_rng(100 + n_groups)
        d, B = 4, 3
        p = init_params("clstm", d, hidden, n_groups=n_groups,
                        seed=int(rng.integers(1 << 30)), use_bias=True)
        for b in (p.b_r, p.b_o, p.b_c):
            b[:] = rng.normal(size=b.shape) * 0.2
        x_arr = rng.normal(size=(B, d))
        c_arr = rng.normal(size=(B, hidden))
        h_arr = rng.normal(size=(B, hidden))

        tape = Tape()
        bound, _ = bind_params(tape, p)
        prev = CellState(c=tape.leaf(c_arr), h=tape.leaf(h_arr), n_groups=n_groups)
        st, rates = clstm_step(bound, tape.leaf(x_arr), prev)

        c_ref, h_ref, r_ref = clstm_reference(p, x_arr, c_arr, h_arr)
        np.testing.assert_allclose(st.c.value, c_ref, atol=1e-12)
        np.testing.assert_allclose(st.h.value, h_ref, atol=1e-12)
        np.testing.assert_allclose(rates.r.value, r_ref, atol=1e-12)

    def test_rates_confined_to_disjoint_ordered_intervals(self):
        rng = np.random.default_rng(42)
        K, H, d, B = 4, 8, 5, 6
        p = init_params("clstm", d, H, n_groups=K, seed=3)
        tape = Tape()
        bound, _ = bind_params(tape, p)
        st = zero_state(tape, B, H, n_groups=K)
        for _ in range(50):
            x = tape.leaf(rng.normal(size=(B, d)) * 3.0)
            st, rates = clstm_step(bound, x, st)
            for k in range(1, K + 1):
                rk = rates.r.value[:, (k - 1) * 2:k * 2]
                assert (rk > (k - 1) / K).all()
                assert (rk < k / K).all()

    def test_group_one_retains_longer(self):
        # Retention after T steps is the product of (1 - r); the slowest
        # group must keep strictly more of its initial memory than the
        # fastest when the candidate contributes nothing.
        rng = np.random.default_rng(7)
        K, H, d, B, T = 3, 6, 4, 2, 40
        p = init_params("clstm", d, H, n_groups=K, seed=11)
        p.w_c[:] = 0.0
        p.u_c[:] = 0.0
        tape = Tape()
        bound, _ = bind_params(tape, p)
        st = CellState(c=tape.leaf(np.ones((B, H))), h=tape.leaf(np.zeros((B, H))),
                       n_groups=K)
        for _ in range(T):
            x = tape.leaf(rng.normal(size=(B, d)))
            st, _rates = clstm_step(bound, x, st)
        gs = H // K
        slow = st.c.value[:, :gs]
        fast = st.c.value[:, (K - 1) * gs:]
        assert slow.min() > fast.max()
        assert fast.max() < 1e-6  # fastest group decays towards nothing


class TestCifg:
    def test_input_gate_is_one_minus_forget(self):
        # Against an LSTM step with i explicitly set to 1 - f: seed the LSTM
        # with the CIFG weights and w_i/u_i chosen as their negation, which
        # would NOT be identical (sigmoid(-a) vs 1-sigmoid(a) in floats), so
        # instead compare against a direct numpy evaluation.
        rng = np.random.default_rng(21)
        d, H, B = 3, 4, 2
        p = init_params("cifg", d, H, seed=5)
        x_arr = rng.normal(size=(B, d))
        c_arr = rng.normal(size=(B, H))
        h_arr = rng.normal(size=(B, H))
        tape = Tape()
        bound, _ = bind_params(tape, p)
        prev = CellState(c=tape.leaf(c_arr), h=tape.leaf(h_arr))
        st = cifg_step(bound, tape.leaf(x_arr), prev)
        f = _sigmoid(x_arr @ p.w_f.T + h_arr @ p.u_f.T)
        o = _sigmoid(x_arr @ p.w_o.T + h_arr @ p.u_o.T)
        ctil = np.tanh(x_arr @ p.w_c.T + h_arr @ p.u_c.T)
        c_want = f * c_arr + (1.0 - f) * ctil
        np.testing.assert_allclose(st.c.value, c_want, atol=1e-12)
        np.testing.assert_allclose(st.h.value, o * np.tanh(c_want), atol=1e-12)


class TestGradientsThroughSteps:
    """Unrolled multi-step gradient checks for every cell kind."""

    def _loss_fn(self, kind, d, H, K, T, B, seed):
        rng = np.random.default_rng(seed)
        xs = [rng.normal(size=(B, d)) for _ in range(T)]
        weight = rng.normal(size=(B, H))
        proto = init_params(kind, d, H, n_groups=K, seed=seed + 1, use_bias=True)
        params = dict(named_tensors(proto))

        def f(arrays):
            tape = Tape()
            filled = dataclasses_replace(proto, tape, arrays)
            bound, leaves = filled
            if kind == "rnn":
                h = tape.leaf(np.zeros((B, H)))
                for x in xs:
                    h = run_kernel(bound, tape.leaf(x), [np.arange(B)], None, h)
                out = h
            else:
                st = zero_state(tape, B, H, n_groups=K)
                for x in xs:
                    if kind == "lstm":
                        st = lstm_step(bound, tape.leaf(x), st)
                    elif kind == "cifg":
                        st = cifg_step(bound, tape.leaf(x), st)
                    else:
                        st, _ = clstm_step(bound, tape.leaf(x), st)
                out = st.h
            loss = sum_all(mul(out, tape.leaf(weight)))
            grads = backward(tape, loss)
            return float(loss.value[0, 0]), {n: grads[v.nid] for n, v in leaves.items()}

        return f, params

    @pytest.mark.parametrize("kind,K", [("rnn", 1), ("lstm", 1), ("cifg", 1),
                                        ("clstm", 2), ("clstm", 3)])
    def test_grad_check(self, kind, K):
        f, params = self._loss_fn(kind, d=3, H=6, K=K, T=3, B=2, seed=60)
        assert grad_check(f, params, eps=1e-5) < 1e-6


def dataclasses_replace(proto, tape, arrays):
    """Bind a container whose tensors were swapped for the checker's arrays."""
    import dataclasses as dc

    reps = {}
    for field in dc.fields(proto):
        if field.name in arrays:
            reps[field.name] = arrays[field.name]
    return bind_params(tape, dc.replace(proto, **reps))


class TestValidation:
    def test_hidden_not_divisible_by_groups(self):
        with pytest.raises(ValueError, match="divisible"):
            init_params("clstm", 4, 7, n_groups=3)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown cell kind"):
            init_params("gru", 4, 8)

    @pytest.mark.parametrize("kind", ["clstm", "lstm"])
    @pytest.mark.parametrize("n_groups", [0, -2])
    def test_group_count_must_be_positive(self, kind, n_groups):
        with pytest.raises(ValueError, match=f"n_groups must be >= 1, got {n_groups}"):
            init_params(kind, 4, 6, n_groups=n_groups)

    def test_recurrent_matrix_shape_checked(self):
        with pytest.raises(ShapeError, match="4x4"):
            CellParams("rnn", 1, w=np.zeros((4, 3)), u=np.zeros((4, 5)))

    def test_bias_shape_checked(self):
        with pytest.raises(ShapeError):
            CifgParams(
                w_f=np.zeros((4, 3)), w_o=np.zeros((4, 3)), w_c=np.zeros((4, 3)),
                u_f=np.zeros((4, 4)), u_o=np.zeros((4, 4)), u_c=np.zeros((4, 4)),
                b_f=np.zeros((3, 1)),
            )

    def test_state_group_mismatch(self):
        p = init_params("clstm", 3, 6, n_groups=2, seed=0)
        tape = Tape()
        bound, _ = bind_params(tape, p)
        st = zero_state(tape, 1, 6, n_groups=3)
        with pytest.raises(ShapeError, match="groups"):
            clstm_step(bound, tape.leaf(np.zeros((1, 3))), st)

    def test_block_accessors_bounds(self):
        # Per-gate views exist only for the kind's own gates.
        p = init_params("clstm", 3, 6, n_groups=2, seed=0)
        assert p.b_r is None
        with pytest.raises(AttributeError):
            p.w_i
        with pytest.raises(AttributeError):
            p.u_h

    def test_block_accessor_geometry(self):
        # H=8, gates (r, o, c): gate c is rows 16..24, group 2 its rows 2..4.
        p = init_params("clstm", 3, 8, n_groups=4, seed=9)
        np.testing.assert_array_equal(block(p, "w", "c", 2), p.w[18:20, :])
        np.testing.assert_array_equal(block(p, "w", "c", 2), p.w_c[2:4, :])
        np.testing.assert_array_equal(block(p, "u", "r", 1, 3), p.u[0:2, 4:6])
        np.testing.assert_array_equal(block(p, "u", "o", 1, 3), p.u_o[0:2, 4:6])
        assert np.shares_memory(p.w_c, p.w)


class TestInit:
    def test_seed_determinism(self):
        a = init_params("clstm", 5, 12, n_groups=3, seed=123, use_bias=True)
        b = init_params("clstm", 5, 12, n_groups=3, seed=123, use_bias=True)
        for name, t in named_tensors(a).items():
            assert t.tobytes() == named_tensors(b)[name].tobytes()

    def test_weights_within_init_range(self):
        p = init_params("lstm", 6, 10, seed=4)
        for t in named_tensors(p).values():
            assert np.abs(t).max() <= 0.1

    def test_bias_defaults(self):
        assert init_params("lstm", 3, 4, seed=0).b_i is None
        withb = init_params("lstm", 3, 4, seed=0, use_bias=True)
        np.testing.assert_array_equal(withb.b_f, np.zeros((4, 1)))
