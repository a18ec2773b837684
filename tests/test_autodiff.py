"""Tensor op semantics and backward-sweep rules. The per-op finite-difference
cases live in `mmner.selftest`; this file checks that every op has one."""

import gc
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from mmner import autodiff as ad
from mmner.autodiff import (
    ContractError,
    NumericError,
    ShapeError,
    Tensor,
    backward,
)
from mmner.gradcheck import check_gradients, rel_error
from mmner.selftest import GRAD_TOL, _op_cases

SEEDS = [0, 1, 2, 3, 4]


def naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-loop reference product, independent of numpy's dot."""
    p, q = a.shape
    q2, r = b.shape
    assert q == q2
    out = np.zeros((p, r))
    for i in range(p):
        for j in range(r):
            acc = 0.0
            for k in range(q):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


class TestMatmul:
    def test_identity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 4))
        out = ad.matmul(Tensor(np.eye(3)), Tensor(x))
        np.testing.assert_array_equal(out.data, x)

    def test_annihilator(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 4))
        out = ad.matmul(Tensor(np.zeros((2, 3))), Tensor(x))
        np.testing.assert_array_equal(out.data, np.zeros((2, 4)))

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(4, 5))
        b = rng.normal(size=(5, 3))
        out = ad.matmul(Tensor(a), Tensor(b))
        assert np.max(np.abs(out.data - naive_matmul(a, b))) < 1e-12

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


class TestSoftmax:
    def test_symmetry(self):
        out = ad.softmax(Tensor([0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 5))
        a = ad.softmax(Tensor(x), axis=-1)
        b = ad.softmax(Tensor(x + 37.25), axis=-1)
        np.testing.assert_allclose(a.data, b.data, atol=1e-14)

    def test_direct_evaluation(self):
        # exp([1,2,3]) / sum, evaluated by hand.
        out = ad.softmax(Tensor([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(out.data, [0.09003, 0.24473, 0.66524], atol=1e-5)

    def test_slices_sum_to_one(self):
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(3, 7)) * 10
            out = ad.softmax(Tensor(x), axis=-1)
            np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_non_finite_raises(self):
        with pytest.raises(NumericError):
            ad.softmax(Tensor([0.0, np.inf]))


def per_head_attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Attention composed head by head from slice/matmul/mul/softmax/concat."""
    dh = q.shape[1] // heads
    scale = Tensor(1.0 / math.sqrt(dh))
    outs = []
    for i in range(heads):
        cols = slice(i * dh, (i + 1) * dh)
        logits = ad.mul(ad.matmul(q[:, cols], ad.transpose2d(k[:, cols])), scale)
        outs.append(ad.matmul(ad.softmax(logits, axis=1), v[:, cols]))
    return ad.concat(outs, axis=1)


class TestAttention:
    @staticmethod
    def _inputs(seed, n=3, m=4, d=8, scale=1.0):
        rng = np.random.default_rng(seed)
        q, k, v = (Tensor(scale * _rand(rng, (rows, d)), requires_grad=True)
                   for rows in (n, m, m))
        weight = Tensor(_rand(rng, (n, d)))
        return q, k, v, weight

    @pytest.mark.parametrize("heads,m", [(1, 4), (2, 4), (4, 4), (1, 1), (2, 1), (4, 1)])
    def test_matches_per_head_composition(self, heads, m):
        results = []
        for op in (ad.attention, per_head_attention):
            q, k, v, weight = self._inputs(30 + heads + m, m=m, scale=2.0)
            out = op(q, k, v, heads)
            backward(ad.tensor_sum(ad.mul(out, weight)))
            results.append([out.data, q.grad, k.grad, v.grad])
        for fused, composed in zip(*results):
            assert np.max(np.abs(fused - composed)) < 1e-12

    @pytest.mark.filterwarnings("error")
    def test_non_finite_logits_raise(self):
        q, k, v, _ = self._inputs(0)
        with pytest.raises(NumericError, match="attention"):
            ad.attention(Tensor(q.data * 1e200), Tensor(k.data * 1e200), v, 2)

    def test_width_not_divisible_by_heads(self):
        q, k, v, _ = self._inputs(0)
        with pytest.raises(ShapeError, match="divisible"):
            ad.attention(q, k, v, 3)

    def test_key_value_shape_mismatch(self):
        q, k, v, _ = self._inputs(0)
        with pytest.raises(ShapeError):
            ad.attention(q, k, v[:3], 2)
        with pytest.raises(ShapeError):
            ad.attention(q, k[:, :4], v[:, :4], 2)


class TestLogSumExp:
    def test_singleton(self):
        out = ad.log_sum_exp(Tensor([3.75]))
        assert out.item() == pytest.approx(3.75, abs=1e-15)

    def test_pair_of_zeros(self):
        out = ad.log_sum_exp(Tensor([0.0, 0.0]))
        assert out.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_no_overflow(self):
        out = ad.log_sum_exp(Tensor([1000.0, 1000.0]))
        assert out.item() == pytest.approx(1000.0 + math.log(2.0), abs=1e-9)

    def test_large_magnitude_stays_finite(self):
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            x = rng.uniform(-1e6, 1e6, size=8)
            out = ad.log_sum_exp(Tensor(x))
            assert np.isfinite(out.data).all()


class TestLayerNorm:
    def test_constant_vector_is_zeroed(self):
        x = Tensor(np.full((5,), 3.3))
        out = ad.layer_norm(x, Tensor(np.ones(5)), Tensor(np.zeros(5)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_normalized_mean(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(6, 9)))
        out = ad.layer_norm(x, Tensor(np.ones(9)), Tensor(np.zeros(9)))
        assert np.max(np.abs(out.data.mean(axis=-1))) < 1e-10

    def test_empty_axis_raises(self):
        with pytest.raises(ShapeError):
            ad.layer_norm(Tensor(np.zeros((3, 0))), Tensor(np.zeros(0)), Tensor(np.zeros(0)))


class TestElementwise:
    def test_relu(self):
        out = ad.relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_dropout_eval_is_identity(self):
        x = Tensor(np.arange(12.0).reshape(3, 4))
        out = ad.dropout(x, p=0.1, rngs=None)
        np.testing.assert_array_equal(out.data, x.data)

    def test_dropout_scales_survivors(self):
        rng = np.random.default_rng(5)
        x = Tensor(np.ones((1, 100, 100)))
        out = ad.dropout(x, p=0.25, rngs=[rng])
        values = np.unique(out.data)
        np.testing.assert_allclose(values, [0.0, 1.0 / 0.75])
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_dropout_bad_rate(self):
        with pytest.raises(ContractError):
            ad.dropout(Tensor([1.0]), p=1.0, rngs=[np.random.default_rng(0)])

    def test_dropout_of_a_scalar_is_a_contract_error(self):
        with pytest.raises(ContractError) as exc:
            ad.dropout(Tensor(1.0), p=0.5, rngs=[np.random.default_rng(0)])
        assert str(exc.value) == "dropout needs one rng per leading item: 1 for ()"

    def test_dropout_of_a_vector_draws_each_item_from_its_generator(self):
        out = ad.dropout(Tensor(np.ones(6)), p=0.5,
                         rngs=[np.random.default_rng([4, i]) for i in range(6)])
        keep = [np.random.default_rng([4, i]).random() >= 0.5 for i in range(6)]
        np.testing.assert_array_equal(out.data, np.where(keep, 2.0, 0.0))

    def test_embedding_gather_rows(self):
        table = Tensor(np.arange(15.0).reshape(5, 3))
        out = ad.embedding_gather(table, [4, 0])
        np.testing.assert_array_equal(out.data, [[12.0, 13.0, 14.0], [0.0, 1.0, 2.0]])

    def test_concat_axis_out_of_range(self):
        with pytest.raises(ShapeError):
            ad.concat([Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 2)))], axis=5)

    def test_mean_of_rows(self):
        out = ad.mean(Tensor([[1.0, 0.0], [0.0, 1.0]]), axis=0)
        np.testing.assert_allclose(out.data, [0.5, 0.5])


class TestBackwardBasics:
    def test_identity_gradient(self):
        x = Tensor([2.0], requires_grad=True)
        backward(x)
        np.testing.assert_array_equal(x.grad, [1.0])

    def test_sum_of_squares(self):
        rng = np.random.default_rng(6)
        xv = rng.normal(size=7)
        x = Tensor(xv, requires_grad=True)
        loss = ad.tensor_sum(ad.mul(x, x))
        backward(loss)
        np.testing.assert_allclose(x.grad, 2 * xv, atol=1e-12)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = ad.mul(x, x)
        with pytest.raises(ContractError):
            backward(y)

    def test_double_backward_is_error(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = ad.tensor_sum(ad.mul(x, x))
        backward(loss)
        with pytest.raises(ContractError):
            backward(loss)

    def test_new_forward_builds_new_graph(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        backward(ad.tensor_sum(ad.mul(x, x)))
        x.zero_grad()
        backward(ad.tensor_sum(ad.mul(x, x)))
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_loss_built_on_swept_node_is_error(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        w = Tensor([3.0, 5.0], requires_grad=True)
        v = Tensor([7.0, 11.0], requires_grad=True)
        h = ad.mul(x, w)
        backward(ad.tensor_sum(h))
        x.zero_grad()
        w_grad = w.grad.copy()
        with pytest.raises(ContractError):
            backward(ad.tensor_sum(ad.mul(ad.mul(h, h), v)))
        assert x.grad is None and v.grad is None
        np.testing.assert_array_equal(w.grad, w_grad)

    def test_disjoint_losses_from_one_forward(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        w = Tensor([3.0, 5.0], requires_grad=True)
        squares = ad.tensor_sum(ad.mul(x, x))
        weighted = ad.tensor_sum(ad.mul(x, w))
        backward(squares)
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])
        assert w.grad is None
        x.zero_grad()
        backward(weighted)
        np.testing.assert_array_equal(x.grad, [3.0, 5.0])
        np.testing.assert_array_equal(w.grad, [1.0, 2.0])

    def test_no_grad_context(self):
        x = Tensor([1.0], requires_grad=True)
        with ad.no_grad():
            y = ad.mul(x, x)
        assert y._node is None and not y.requires_grad

    def test_grad_shape_matches_data(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        loss = ad.tensor_sum(ad.matmul(x, w))
        backward(loss)
        assert x.grad.shape == x.data.shape
        assert w.grad.shape == w.data.shape

    def test_only_leaves_and_loss_keep_gradients(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        h = ad.matmul(x, w)
        g = ad.gelu(h)
        loss = ad.tensor_sum(ad.mul(g, g))
        backward(loss)
        assert h.grad is None and g.grad is None
        assert x.grad is not None and w.grad is not None
        np.testing.assert_array_equal(loss.grad, 1.0)


class TestGradientAccumulation:
    def test_an_interior_node_keeps_a_fresh_array_as_its_gradient(self):
        x = Tensor(np.ones(3), requires_grad=True)
        h = ad.mul(x, Tensor(2.0))
        out = ad.mul(h, Tensor(3.0))
        returned, received = [], []
        closures = out._node.backward, h._node.backward
        out._node.backward = lambda g: returned.extend(closures[0](g)) or returned
        h._node.backward = lambda g: received.append(g) or closures[1](g)
        backward(ad.tensor_sum(out))
        assert received[0] is returned[0]
        np.testing.assert_array_equal(x.grad, np.full(3, 6.0))

    def test_add_hands_two_interior_parents_two_arrays(self):
        # add(s, r) hands its incoming gradient to s and r, and s hands it
        # on to p and q; r's gradient is added into p's while q waits for its
        # sweep, so one shared array would give q 6 instead of 1, and x 30
        x = Tensor(np.ones(3), requires_grad=True)
        p, q = ad.mul(x, Tensor(2.0)), ad.mul(x, Tensor(3.0))
        r = ad.mul(p, Tensor(5.0))
        s = ad.add(p, q)
        loss = ad.tensor_sum(ad.add(s, r))
        backward(loss)
        np.testing.assert_array_equal(x.grad, np.full(3, 15.0))
        np.testing.assert_array_equal(loss.grad, 1.0)


@pytest.mark.parametrize("op, shapes", [
    (ad.layer_norm, [(5,), (5,), (5,)]),
    (ad.layer_norm, [(2, 3, 5), (5,), (5,)]),
    (lambda a: ad.softmax(a, axis=0), [(4, 5)]),
], ids=["layer_norm_1d", "layer_norm_batched_3d", "softmax_axis_0"])
def test_kernel_gradients_on_the_shapes_they_take(op, shapes):
    """Finite differences at the gradient suite's tolerance, on shapes its
    op table does not cover: the output, x's shape, is summed against U(-1, 1) weights."""
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        leaves = [Tensor(rng.uniform(-1, 1, shape), requires_grad=True) for shape in shapes]
        w = Tensor(rng.uniform(-1, 1, shapes[0]))
        errors = check_gradients(lambda: ad.tensor_sum(ad.mul(op(*leaves), w)),
                                 {f"p{i}": t for i, t in enumerate(leaves)})
        assert max(errors.values()) < GRAD_TOL, (seed, errors)


def per_image_conv(x, w, b, stride, padding):
    """conv2d of each image as a stack of one, concatenated along the batch."""
    return ad.concat([ad.conv2d(x[i:i + 1], w, b, stride=stride, padding=padding)
                      for i in range(x.shape[0])], axis=0)


def assert_matches_per_image_calls(x, w, b, stride, padding):
    """conv2d's output and gradients equal per_image_conv's, and a tensor
    that needs no gradient gets none from either."""
    results = []
    for conv in (ad.conv2d, per_image_conv):
        out = conv(x, w, b, stride, padding)
        weight = Tensor(np.arange(out.size, dtype=float).reshape(out.shape) / out.size)
        backward(ad.tensor_sum(ad.mul(out, weight)))
        results.append([out.data] + [t.grad for t in (x, w, b)])
        for t in (x, w, b):
            t.zero_grad()
    for batched, single in zip(*results):
        if single is None:
            assert batched is None
        else:
            np.testing.assert_allclose(batched, single, rtol=1e-12, atol=1e-12)


class TestConv2dBatch:
    @pytest.mark.parametrize("n", [1, 3, 8])
    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 1), (2, 0)])
    def test_matches_per_image_calls(self, n, stride, padding):
        rng = np.random.default_rng(n)
        x = Tensor(_rand(rng, (n, 2, 6, 6)), requires_grad=True)
        w = Tensor(_rand(rng, (3, 2, 3, 3)), requires_grad=True)
        b = Tensor(_rand(rng, (3,)), requires_grad=True)
        assert_matches_per_image_calls(x, w, b, stride, padding)

    def test_input_without_grad_gets_none(self):
        # the stem's case: the images need no gradient, so none is formed
        rng = np.random.default_rng(4)
        x = Tensor(_rand(rng, (3, 3, 7, 7)))
        w = Tensor(_rand(rng, (4, 3, 3, 3)), requires_grad=True)
        b = Tensor(_rand(rng, (4,)), requires_grad=True)
        assert_matches_per_image_calls(x, w, b, 1, 1)

    @pytest.mark.parametrize("kernel,stride,padding,size", [(1, 2, 0, 8), (3, 2, 1, 7)])
    def test_strided_kernels_match_per_image_calls(self, kernel, stride, padding, size):
        # the residual blocks' 1x1 shortcut and their strided 3x3 conv
        rng = np.random.default_rng(kernel)
        x = Tensor(_rand(rng, (4, 3, size, size)), requires_grad=True)
        w = Tensor(_rand(rng, (5, 3, kernel, kernel)), requires_grad=True)
        b = Tensor(_rand(rng, (5,)), requires_grad=True)
        assert_matches_per_image_calls(x, w, b, stride, padding)

    def test_image_not_a_batch_rejected(self):
        with pytest.raises(ShapeError):
            ad.conv2d(Tensor(np.zeros((2, 6, 6))), Tensor(np.zeros((3, 2, 3, 3))))


def _rand(rng, shape):
    return rng.uniform(-1.0, 1.0, size=shape)


@pytest.mark.parametrize("op,x_shape,w_shape,bias", [
    (ad.linear, (2, 3, 4), (4, 5), 5),
    (lambda x, w, b: ad.conv2d(x, w, b, stride=2, padding=1), (2, 3, 5, 5), (4, 3, 3, 3), 4),
])
def test_no_bias_matches_a_zero_bias_bitwise(op, x_shape, w_shape, bias):
    """An absent bias is a None operand that gets no gradient: the output and
    the x and w gradients are those of the same call with a zero bias."""
    rng = np.random.default_rng(6)
    x_data, w_data = _rand(rng, x_shape), _rand(rng, w_shape)
    results = []
    for b in (None, Tensor(np.zeros(bias), requires_grad=True)):
        x, w = Tensor(x_data, requires_grad=True), Tensor(w_data, requires_grad=True)
        out = op(x, w, b)
        weight = Tensor(np.cos(np.arange(out.size)).reshape(out.shape))
        backward(ad.tensor_sum(ad.mul(out, weight)))
        results.append((out.data, x.grad, w.grad))
    for without, zero in zip(*results):
        np.testing.assert_array_equal(without, zero)


@pytest.mark.parametrize("x_shape", [(2, 3, 4), (4,)])
@pytest.mark.parametrize("takes", ["w", "x", "b"])
def test_linear_computes_only_the_gradients_its_parents_take(x_shape, takes):
    """linear's closure gives None for an operand that takes no gradient or
    is absent, and for the others the gradients of the call where all three
    take one, bit for bit."""
    rng = np.random.default_rng(7)
    x_data, w_data, b_data = _rand(rng, x_shape), _rand(rng, (4, 5)), _rand(rng, 5)
    g = _rand(rng, x_shape[:-1] + (5,))
    full = ad.linear(*(Tensor(a, requires_grad=True) for a in (x_data, w_data, b_data)))
    expected = full._node.backward(g)
    x, w = Tensor(x_data, requires_grad=takes == "x"), Tensor(w_data, requires_grad=takes == "w")
    b = Tensor(b_data, requires_grad=True) if takes == "b" else None
    got = ad.linear(x, w, b)._node.backward(g)
    for slot, name in enumerate("xwb"):
        if name == takes:
            np.testing.assert_array_equal(got[slot], expected[slot])
        else:
            assert got[slot] is None


@pytest.mark.parametrize("call, error, message", [
    (lambda: ad.take_pairs(Tensor(np.zeros((3, 4))), [0, 1], [2]), ShapeError,
     "take_pairs: tensor (3, 4), rows (2,), cols (1,)"),
    (lambda: ad.take_pairs(Tensor(np.zeros((3, 4))), [0, 2], [3, 4]), ContractError,
     "take_pairs: index out of range"),
    (lambda: ad.embedding_gather(Tensor(np.zeros((5, 3))), np.zeros((2, 2, 2), int)), ShapeError,
     "embedding_gather: table (5, 3), indices rank 3"),
    (lambda: ad.embedding_gather(Tensor(np.zeros((5, 3))), [4, -1]), ContractError,
     "embedding_gather: index out of range"),
])
def test_gather_refuses_bad_indices(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_aliases_record_the_backward_of_the_op_they_call():
    # matmul is linear and neg is mul; the two gathers share one body
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    bodies = {
        "matmul": ad.matmul(a, Tensor(np.ones((3, 2)))),
        "neg": ad.neg(a),
        "take_pairs": ad.take_pairs(a, [0, 1], [2, 0]),
        "embedding_gather": ad.embedding_gather(a, [1, 0]),
    }
    assert {op: out._node.backward.__qualname__ for op, out in bodies.items()} == {
        "matmul": "linear.<locals>._bw",
        "neg": "_broadcasting.<locals>._bw",
        "take_pairs": "_gather.<locals>._bw",
        "embedding_gather": "_gather.<locals>._bw",
    }


def test_every_differentiable_op_has_a_gradient_case():
    """gradient_suite runs selftest's op table, which holds an `op.<name>`
    case for every op in `autodiff.__all__`: deleting an op deletes its case."""
    not_ops = {"ShapeError", "NumericError", "ContractError", "ConfigError",
               "Tensor", "no_grad", "backward"}
    cases = _op_cases()
    missing = [name for name in ad.__all__ if name not in not_ops and f"op.{name}" not in cases]
    assert not missing


class TestGraphMemory:
    def test_memory_flat_over_many_forwards(self):
        """Graphs are freed by reference counting alone, with or without backward."""
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(6, 8)), requires_grad=True)
        w = Tensor(rng.normal(size=(8, 4)), requires_grad=True)

        def traced_growth(run_backward: bool) -> int:
            traced = []
            for i in range(1, 1001):
                loss = ad.tensor_sum(ad.gelu(ad.matmul(ad.softmax(x, axis=-1), w)))
                if run_backward:
                    backward(loss)
                if i in (10, 1000):
                    traced.append(tracemalloc.get_traced_memory()[0])
            return traced[1] - traced[0]

        was_enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            growth = [traced_growth(False), traced_growth(True)]
        finally:
            tracemalloc.stop()
            if was_enabled:
                gc.enable()
        assert max(growth) < 16 * 1024, f"traced memory grew by {growth} bytes over 990 steps"

    def test_conv2d_graph_keeps_no_im2col_columns(self):
        """A tracked conv's node keeps its input, not its (C*kh*kw, N*Ho*Wo)
        columns (27 x 8192 floats, 1.77 MB, for the stem on 8 images): the
        call leaves only its output behind."""
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(8, 3, 32, 32)))
        w = Tensor(rng.normal(size=(8, 3, 3, 3)), requires_grad=True)
        b = Tensor(np.zeros(8), requires_grad=True)
        columns_bytes = 27 * 8 * 32 * 32 * 8
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = ad.conv2d(x, w, b, padding=1)
            growth = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out.data.nbytes <= growth < columns_bytes

    def test_activation_no_backward_reads_is_freed_at_once(self):
        """relu keeps its mask, not its input: a tracked conv2d output passed
        through relu is freed as soon as the forward code drops it, by
        reference counting alone, and the graph still gives w its gradient."""
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(2, 3, 6, 6)))
        w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        c = ad.conv2d(x, w, padding=1)
        positive = ad.conv2d(x, Tensor(w.data), padding=1).data > 0.0
        refs = weakref.ref(c), weakref.ref(c.data)
        r = ad.relu(c)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            del c
            assert [ref() for ref in refs] == [None, None]
        finally:
            if was_enabled:
                gc.enable()
        backward(ad.tensor_sum(r))
        mask = Tensor(positive.astype(float))
        w2 = Tensor(w.data, requires_grad=True)
        backward(ad.tensor_sum(ad.mul(ad.conv2d(x, w2, padding=1), mask)))
        np.testing.assert_array_equal(w.grad, w2.grad)

    def test_tracked_dropout_keeps_a_boolean_mask(self):
        """A tracked dropout's backward holds its mask as booleans: under a
        quarter of the float64 mask's bytes (an eighth, exactly)."""
        x = Tensor(np.ones((4, 30, 64)), requires_grad=True)
        out = ad.dropout(x, 0.1, [np.random.default_rng([8, i]) for i in range(4)])
        held = [cell.cell_contents for cell in out._node.backward.__closure__]
        held_bytes = sum(a.nbytes for a in held if isinstance(a, np.ndarray))
        assert 0 < held_bytes < x.data.nbytes / 4

    def test_untracked_gelu_allocates_one_output(self):
        """GELU forms its output inside its one temporary: a (8, 62, 256)
        call, an MLP hidden layer of a long-sentence chunk, peaks at one
        output-sized array, not two."""
        x = Tensor(np.random.default_rng(7).normal(size=(8, 62, 256)))
        gc.collect()
        tracemalloc.start()
        try:
            out = ad.gelu(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.data.nbytes <= peak < 1.5 * out.data.nbytes


def reference_gelu(x):
    """GELU and its derivative in plain numpy, in the same order of
    operations as the op, so that the two agree bit for bit."""
    t = x * x * x
    t *= 0.044715
    t += x
    t *= math.sqrt(2.0 / math.pi)
    np.tanh(t, out=t)
    y = 1.0 + t
    y *= x
    y *= 0.5
    dinner = math.sqrt(2.0 / math.pi) * (1.0 + 3.0 * 0.044715 * x**2)
    return y, 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * dinner


@pytest.mark.parametrize("n", [7, 16, 62])
def test_gelu_matches_reference_bitwise(n):
    rng = np.random.default_rng(n)
    x = rng.normal(scale=3.0, size=(8, n, 256))
    g = rng.normal(size=x.shape)
    y_ref, dy_ref = reference_gelu(x)
    np.testing.assert_array_equal(ad.gelu(Tensor(x)).data, y_ref)
    a = Tensor(x.copy(), requires_grad=True)
    out = ad.gelu(a)
    backward(ad.tensor_sum(ad.mul(out, Tensor(g))))
    np.testing.assert_array_equal(out.data, y_ref)
    np.testing.assert_array_equal(a.grad, g * dy_ref)
    np.testing.assert_array_equal(a.data, x)


def test_gelu_of_a_scalar():
    x = np.array([0.7, -1.3])
    y_ref, dy_ref = reference_gelu(x)
    for i, value in enumerate(x):
        a = Tensor(value, requires_grad=True)
        out = ad.gelu(a)
        backward(out)
        assert out.shape == () and out.item() == y_ref[i]
        assert a.grad == dy_ref[i]


class TestDeterminism:
    def test_bitwise_identical_forward_and_gradients(self):
        def run():
            rng = np.random.default_rng(123)
            x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
            w = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
            h = ad.gelu(ad.matmul(x, w))
            loss = ad.tensor_sum(ad.mul(ad.softmax(h, axis=-1), h))
            backward(loss)
            return loss.item(), x.grad.copy(), w.grad.copy()

        l1, gx1, gw1 = run()
        l2, gx2, gw2 = run()
        assert l1 == l2
        np.testing.assert_array_equal(gx1, gx2)
        np.testing.assert_array_equal(gw1, gw2)


class TestRelError:
    def test_zero_against_zero(self):
        assert rel_error(np.zeros(3), np.zeros(3)) == 0.0

    def test_empty_arrays_agree(self):
        assert rel_error(np.zeros((2, 0)), np.zeros((2, 0))) == 0.0

    def test_scale_aware(self):
        assert rel_error(np.array([100.0]), np.array([100.001])) < 2e-5
        assert rel_error(np.array([1e-9]), np.array([2e-9])) < 2e-9
