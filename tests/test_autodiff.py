"""Tape autodiff tests: forward values, gradient checks against central
differences, graph-sharing cases, and shape error reporting."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachedlstm.autodiff import (
    RowSparse,
    ShapeError,
    Tape,
    backward,
    bounded_tanh,
    concat_cols,
    grad_check,
    logistic,
    row_ids,
    slice_cols,
    softmax,
    stack_steps,
    take_rows,
)
from cachedlstm.cells import bind_params, init_params, recurrence, recurrence_pair
from cachedlstm.encoder import cbow_encode
from tape_ops import add, matmul, mul, mul_const, op_check, softmax_rows, sum_all, tanh_, transpose


def _leaf(tape, arr):
    return tape.leaf(np.asarray(arr, dtype=np.float64))


class TestForwardValues:
    def test_sigmoid_at_zero(self):
        assert logistic(np.array([[0.0]]))[0, 0] == pytest.approx(0.5)

    def test_tanh_at_zero_and_symmetry(self):
        y = bounded_tanh(np.array([[0.0, 1.0, -1.0]]))
        assert y[0, 0] == 0.0
        assert y[0, 1] == pytest.approx(-y[0, 2])

    def test_softmax_of_zeros_is_uniform(self):
        p = softmax(np.zeros((2, 5)))
        assert p == pytest.approx(np.full((2, 5), 0.2))

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(11)
        p = softmax(rng.normal(size=(6, 9)) * 30.0)
        assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-12
        assert (p > 0.0).all()

    def test_sigmoid_stays_inside_open_interval_when_saturated(self):
        y = logistic(np.array([[-1e4, -50.0, 0.0, 50.0, 1e4]]))
        assert (y > 0.0).all() and (y < 1.0).all()

    def test_sigmoid_matches_the_logistic_function(self):
        x = np.linspace(-30.0, 30.0, 121).reshape(1, -1)
        y = logistic(x)
        np.testing.assert_allclose(y, 1.0 / (1.0 + np.exp(-x)), rtol=0, atol=1e-15)
        # In place, as the recurrence kernel calls it, with the same bits.
        z = x.copy()
        np.testing.assert_array_equal(y, logistic(z, out=z))

    def test_tanh_stays_inside_open_interval_when_saturated(self):
        y = bounded_tanh(np.array([[-1e4, 1e4]]))
        assert (y > -1.0).all() and (y < 1.0).all()

    def test_slice_and_concat_roundtrip(self):
        rng = np.random.default_rng(3)
        tape = Tape()
        a = _leaf(tape, rng.normal(size=(4, 6)))
        parts = [slice_cols(a, 0, 2), slice_cols(a, 2, 5), slice_cols(a, 5, 6)]
        back = concat_cols(parts)
        np.testing.assert_array_equal(back.value, a.value)

    def test_take_rows_gathers(self):
        tape = Tape()
        a = _leaf(tape, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        got = take_rows(a, np.array([2, 0, 2])).value
        np.testing.assert_array_equal(got, [[5.0, 6.0], [1.0, 2.0], [5.0, 6.0]])

    def test_stack_steps_stacks_steps_of_one_width(self):
        # Ragged rows and an empty list: see test_kernel.
        tape = Tape()
        xs = [_leaf(tape, np.full((2, 3), float(t))) for t in range(4)]
        np.testing.assert_array_equal(stack_steps(xs).value, np.vstack([x.value for x in xs]))
        with pytest.raises(ShapeError, match="step 1: input width 2, expected 3"):
            stack_steps([xs[0], _leaf(tape, np.zeros((2, 2)))])


class TestBackwardBasics:
    def test_grad_of_sum_is_ones(self):
        tape = Tape()
        a = _leaf(tape, np.arange(6.0).reshape(2, 3))
        g = backward(tape, sum_all(a))
        np.testing.assert_array_equal(g[a.nid], np.ones((2, 3)))

    def test_diamond_graph_accumulates(self):
        # y = sum(x + x): the leaf is reached along two paths, grad must be 2.
        tape = Tape()
        x = _leaf(tape, [[3.0, -1.0]])
        g = backward(tape, sum_all(add(x, x)))
        np.testing.assert_array_equal(g[x.nid], [[2.0, 2.0]])

    def test_mul_by_itself_gives_2x(self):
        tape = Tape()
        x = _leaf(tape, [[3.0, -2.0]])
        g = backward(tape, sum_all(mul(x, x)))
        np.testing.assert_allclose(g[x.nid], [[6.0, -4.0]])

    def test_unreached_leaf_gets_zero_grad(self):
        tape = Tape()
        x = _leaf(tape, [[1.0]])
        other = _leaf(tape, [[5.0, 5.0]])
        g = backward(tape, sum_all(mul(x, x)))
        np.testing.assert_array_equal(g[other.nid], np.zeros((1, 2)))

    def test_loss_must_be_scalar(self):
        tape = Tape()
        x = _leaf(tape, [[1.0, 2.0]])
        with pytest.raises(ShapeError):
            backward(tape, add(x, x))


class TestRowSparseGradients:
    def test_gather_gradient_is_row_sparse_and_densifies_to_scatter(self):
        # Integer-valued upstream gradients make every sum exact, so the
        # densified gradient must equal the dense scatter bit for bit.
        rng = np.random.default_rng(5)
        steps = [np.array([2, 0, 2, 6]), np.array([6, 6, 1, 2]), np.array([0, 3, 3, 3])]
        weights = [rng.integers(-4, 5, size=(4, 3)).astype(np.float64) for _ in steps]
        tape = Tape()
        a = _leaf(tape, rng.normal(size=(7, 3)))
        loss = None
        for ids, w in zip(steps, weights):
            term = sum_all(mul(take_rows(a, ids), tape.leaf(w)))
            loss = term if loss is None else add(loss, term)
        g = backward(tape, loss)[a.nid]
        assert isinstance(g, RowSparse)
        want = np.zeros((7, 3))
        for ids, w in zip(steps, weights):
            np.add.at(want, ids, w)
        np.testing.assert_array_equal(np.asarray(g), want)
        co = g.coalesce()
        np.testing.assert_array_equal(co.ids, [0, 1, 2, 3, 6])
        np.testing.assert_array_equal(co.rows, want[[0, 1, 2, 3, 6]])

    @pytest.mark.parametrize("encoder", ["recurrence", "recurrence_pair", "cbow_encode"])
    def test_2d_gather_lists_rows_as_per_step_gathers_reach_backward(self, encoder):
        # An encoder that gathers its own rows over T x B ids gives its
        # source the RowSparse that T gathers of B ids give when their rows
        # reach it as a list of steps: the same ids and rows in the same
        # order, last step first, so the sums of repeated ids keep their bits.
        rng = np.random.default_rng(6)
        ids = rng.integers(0, 5, size=(4, 3))
        a_arr = rng.normal(size=(5, 2))
        params = [init_params("clstm", 2, 4, n_groups=2, seed=s, use_bias=True) for s in (1, 2)]
        width = {"recurrence": 8, "recurrence_pair": 16, "cbow_encode": 2}[encoder]
        readout = rng.normal(size=(3, width))
        got = []
        for whole in (True, False):
            tape = Tape()
            a = tape.leaf(a_arr)
            if whole:
                source, step_ids = a, ids
            else:
                source = stack_steps([take_rows(a, ids[t]) for t in range(4)])
                step_ids = np.arange(12).reshape(4, 3)
            runs = [(bind_params(tape, p)[0], tape.leaf(np.zeros((3, 4))),
                     tape.leaf(np.zeros((3, 4)))) for p in params]
            if encoder == "recurrence":
                node = recurrence(runs[0][0], source, step_ids, *runs[0][1:])
            elif encoder == "recurrence_pair":
                node = recurrence_pair(source, step_ids, None, *runs)
            else:
                node = cbow_encode(source, step_ids, np.ones((3, 4)))
            g = backward(tape, sum_all(mul(node, tape.leaf(readout))))[a.nid]
            got.append((g.ids.tobytes(), g.rows.tobytes()))
        assert got[0] == got[1]
        np.testing.assert_array_equal(np.frombuffer(got[0][0], dtype=np.intp),
                                      ids[::-1].ravel())

    def test_sum_joins_the_lists_and_coalesce_keeps_a_coalesced_gradient(self):
        first = RowSparse([4, 1], [[1.0, -0.0], [2.0, 3.0]], (6, 2))
        second = RowSparse([1], [[0.5, 0.25]], (6, 2))
        both = first + second
        np.testing.assert_array_equal(both.ids, [4, 1, 1])
        np.testing.assert_array_equal(both.rows, [[1.0, -0.0], [2.0, 3.0], [0.5, 0.25]])
        co = both.coalesce()
        np.testing.assert_array_equal(co.ids, [1, 4])
        np.testing.assert_array_equal(co.rows, [[2.5, 3.25], [1.0, 0.0]])
        # Coalescing again, or after scaling, changes no bit, not even a -0.0.
        signed = RowSparse([1, 4], [[2.5, -0.0], [1.0, 0.0]], (6, 2))
        assert signed.coalesce() is signed
        scaled = (signed * 2.0).coalesce()
        assert scaled.rows.tobytes() == (signed.rows * 2.0).tobytes()

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(st.integers(1, 6), st.integers(1, 4), st.data())
    def test_coalesce_and_densify_sum_as_add_at_does(self, n_rows, width, data):
        # Repeated, unsorted ids over rows of mixed magnitudes and signed
        # zeros: both sums must be np.add.at's onto zeros, byte for byte.
        ids = data.draw(st.lists(st.integers(0, n_rows - 1), min_size=1, max_size=12))
        values = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, 1e300, -1e300]),
                           st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))
        rows = np.array(data.draw(st.lists(st.lists(values, min_size=width, max_size=width),
                                           min_size=len(ids), max_size=len(ids))))
        g = RowSparse(ids, rows, (n_rows, width))
        dense = np.zeros((n_rows, width))
        np.add.at(dense, np.array(ids), rows)
        assert np.asarray(g).tobytes() == dense.tobytes()
        unique, inverse = np.unique(ids, return_inverse=True)
        summed = np.zeros((unique.size, width))
        np.add.at(summed, inverse, rows)
        co = g.coalesce()
        assert co.ids.tobytes() == unique.astype(np.intp).tobytes()
        assert co.rows.tobytes() == (rows if co is g else summed).tobytes()

    def test_dense_and_sparse_gradients_fold(self):
        tape = Tape()
        a = _leaf(tape, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        loss = add(sum_all(mul(a, a)), sum_all(take_rows(a, np.array([2, 2]))))
        g = backward(tape, loss)[a.nid]
        assert type(g) is np.ndarray
        np.testing.assert_array_equal(g, 2.0 * a.value + [[0, 0], [0, 0], [2, 2]])

    def test_backward_memory_scales_with_batch_not_vocabulary(self):
        n_rows, width = 200_000, 8
        big = np.random.default_rng(0).normal(size=(n_rows, width))
        ids = [np.random.default_rng(t).integers(0, n_rows, size=16) for t in range(20)]
        tracemalloc.start()
        try:
            tape = Tape()
            a = tape.leaf(big)
            loss = None
            for step_ids in ids:
                term = sum_all(tanh_(take_rows(a, step_ids)))
                loss = term if loss is None else add(loss, term)
            g = backward(tape, loss)[a.nid]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(g, RowSparse)
        assert peak < n_rows * width * 8 / 50, f"traced peak {peak} bytes"


class TestGradCheckHarness:
    @staticmethod
    def _f(loss_scale, grad_scale):
        def f(params):
            x = params["x"]
            return float((x * x).sum()) * loss_scale, {"x": 2.0 * x * grad_scale}

        return f

    def test_exact_gradients_pass(self):
        assert grad_check(self._f(1.0, 1.0), {"x": np.array([[0.5, -1.5]])}) < 1e-8

    @pytest.mark.parametrize("loss_scale,grad_scale", [
        (1.0, np.nan), (np.nan, 1.0), (1.0, np.inf), (np.inf, 1.0)])
    def test_non_finite_error_reports_inf(self, loss_scale, grad_scale):
        err = grad_check(self._f(loss_scale, grad_scale), {"x": np.array([[0.5, -1.5]])})
        assert err == np.inf

    @pytest.mark.parametrize("eps", [0.0, -1e-5, np.nan, np.inf])
    def test_eps_must_be_positive_and_finite(self, eps):
        with pytest.raises(ValueError, match="eps must be a positive finite number"):
            grad_check(self._f(1.0, 1.0), {"x": np.ones((1, 2))}, eps=eps)


class TestGradChecks:
    """The library's own ops against a central-difference oracle, random inputs, seeded."""

    def setup_method(self):
        self.rng = np.random.default_rng(20240817)

    def test_concat_and_slice(self):
        a = self.rng.normal(size=(4, 3))
        b = self.rng.normal(size=(4, 2))

        def build(a, b):
            cat = concat_cols([a, b])
            return sum_all(mul(slice_cols(cat, 1, 4), slice_cols(cat, 0, 3)))

        assert op_check(build, a, b) < 1e-6

    def test_take_rows_with_repeats(self):
        a = self.rng.normal(size=(6, 3))
        ids = np.array([0, 2, 2, 5, 0])
        assert op_check(lambda a: sum_all(tanh_(take_rows(a, ids))), a) < 1e-6

    def test_take_rows_of_computed_matrix(self):
        a = self.rng.normal(size=(6, 3))
        ids = np.array([1, 4, 4, 0])
        assert op_check(lambda a: sum_all(tanh_(take_rows(mul_const(a, 1.5), ids))), a) < 1e-6


class TestShapeErrors:
    def test_leaf_rejects_1d(self):
        tape = Tape()
        with pytest.raises(ShapeError):
            tape.leaf(np.zeros(3))

    def test_slice_cols_out_of_range(self):
        tape = Tape()
        a = _leaf(tape, np.zeros((2, 3)))
        with pytest.raises(IndexError):
            slice_cols(a, 1, 5)

    def test_mixed_tapes_rejected(self):
        t1, t2 = Tape(), Tape()
        a = _leaf(t1, np.zeros((2, 2)))
        b = _leaf(t2, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            add(a, b)

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64])
    def test_row_ids_keeps_a_signed_integer_dtype(self, dtype):
        # int32 ids, such as the helper's renumbered ones, are not copied to intp.
        ids = np.array([[0, 2], [1, 2]], dtype=dtype)
        assert row_ids(ids, 3, ndim=2) is ids
        for bad in (np.array([0, 3], dtype=dtype), np.array([-1, 0], dtype=dtype)):
            with pytest.raises(IndexError, match="out of range for 3 rows"):
                row_ids(bad, 3)

    def test_row_ids_converts_other_inputs_to_intp(self):
        for ids in ([0, 2], np.array([0, 2], dtype=np.uint8), np.array([0.0, 2.0])):
            idx = row_ids(ids, 3)
            assert idx.dtype == np.intp and idx.tolist() == [0, 2]


class TestDeterminism:
    def test_same_graph_same_bits(self):
        def run():
            rng = np.random.default_rng(99)
            tape = Tape()
            a = tape.leaf(rng.normal(size=(8, 8)))
            b = tape.leaf(rng.normal(size=(8, 8)))
            loss = sum_all(mul(softmax_rows(matmul(a, transpose(b))), tanh_(a)))
            grads = backward(tape, loss)
            return loss.value.copy(), grads[a.nid].copy(), grads[b.nid].copy()

        l1, ga1, gb1 = run()
        l2, ga2, gb2 = run()
        assert l1.tobytes() == l2.tobytes()
        assert ga1.tobytes() == ga2.tobytes()
        assert gb1.tobytes() == gb2.tobytes()
