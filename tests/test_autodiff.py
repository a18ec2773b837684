"""Tensor op semantics, backward-sweep rules, and per-op gradient checks."""

import gc
import math
import tracemalloc

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
from mmner.gradcheck import check_gradients, max_error, rel_error

SEEDS = [0, 1, 2, 3, 4]
GRAD_TOL = 1e-5


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

    @pytest.mark.parametrize("seed", SEEDS)
    def test_gradient_check(self, seed):
        q, k, v, weight = self._inputs(seed, scale=2.0)
        errors = check_gradients(
            lambda: ad.tensor_sum(ad.mul(ad.attention(q, k, v, 2), weight)),
            {"q": q, "k": k, "v": v},
        )
        assert max_error(errors.values()) < GRAD_TOL

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
        out = ad.dropout(x, p=0.1, train=False)
        np.testing.assert_array_equal(out.data, x.data)

    def test_dropout_scales_survivors(self):
        rng = np.random.default_rng(5)
        x = Tensor(np.ones((100, 100)))
        out = ad.dropout(x, p=0.25, train=True, rng=rng)
        values = np.unique(out.data)
        np.testing.assert_allclose(values, [0.0, 1.0 / 0.75])
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_dropout_bad_rate(self):
        with pytest.raises(ContractError):
            ad.dropout(Tensor([1.0]), p=1.0, train=True, rng=np.random.default_rng(0))

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

    def test_detached_tensor_never_receives_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        d = x.detach()
        loss = ad.tensor_sum(ad.mul(ad.mul(x, x), d))
        backward(loss)
        assert d.grad is None
        assert x.grad is not None

    def test_no_grad_context(self):
        x = Tensor([1.0], requires_grad=True)
        with ad.no_grad():
            y = ad.mul(x, x)
        assert y._backward is None and not y.requires_grad

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


def per_image_conv(x, w, b, stride, padding):
    """conv2d of each image as a stack of one, concatenated along the batch."""
    return ad.concat([ad.conv2d(x[i:i + 1], w, b, stride=stride, padding=padding)
                      for i in range(x.shape[0])], axis=0)


class TestConv2dBatch:
    @pytest.mark.parametrize("n", [1, 3, 8])
    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 1), (2, 0)])
    def test_matches_per_image_calls(self, n, stride, padding):
        rng = np.random.default_rng(n)
        x = Tensor(_rand(rng, (n, 2, 6, 6)), requires_grad=True)
        w = Tensor(_rand(rng, (3, 2, 3, 3)), requires_grad=True)
        b = Tensor(_rand(rng, (3,)), requires_grad=True)
        results = []
        for conv in (ad.conv2d, per_image_conv):
            out = conv(x, w, b, stride, padding)
            weight = Tensor(np.arange(out.size, dtype=float).reshape(out.shape) / out.size)
            backward(ad.tensor_sum(ad.mul(out, weight)))
            results.append([out.data] + [t.grad for t in (x, w, b)])
            for t in (x, w, b):
                t.zero_grad()
        for batched, single in zip(*results):
            np.testing.assert_allclose(batched, single, rtol=1e-12, atol=1e-12)

    def test_image_not_a_batch_rejected(self):
        with pytest.raises(ShapeError):
            ad.conv2d(Tensor(np.zeros((2, 6, 6))), Tensor(np.zeros((3, 2, 3, 3))))


def _rand(rng, shape):
    return rng.uniform(-1.0, 1.0, size=shape)


# Each entry: name -> (loss builder over named params, param shapes).
def _op_cases(rng):
    shapes = {
        "a": (4, 3),
        "b": (4, 3),
        "m1": (3, 4),
        "m2": (4, 2),
        "g": (5,),
        "beta": (5,),
        "x5": (4, 5),
        "vec": (6,),
        "table": (5, 3),
        "w": (4, 4),
        "bias": (4,),
        "img": (2, 2, 6, 6),
        "kern": (3, 2, 3, 3),
        "kbias": (3,),
    }
    params = {k: Tensor(_rand(rng, s), requires_grad=True) for k, s in shapes.items()}
    p = params
    # Fixed (non-parameter) weights so each loss is deterministic across
    # the re-evaluations finite differencing performs.
    w45 = Tensor(_rand(rng, (4, 5)))
    w45b = Tensor(_rand(rng, (4, 5)))
    w46 = Tensor(_rand(rng, (4, 6)))
    w25 = Tensor(_rand(rng, (2, 5)))
    w33 = Tensor(_rand(rng, (3, 3)))
    w34 = Tensor(_rand(rng, (3, 4)))
    w62 = Tensor(_rand(rng, (6, 2)))
    w2 = Tensor(_rand(rng, (2,)))
    w24 = Tensor(_rand(rng, (2, 4)))
    w43 = Tensor(_rand(rng, (4, 3)))
    cases = {
        "add": ((p["a"], p["b"]), lambda: ad.tensor_sum(ad.mul(ad.add(p["a"], p["b"]), p["b"]))),
        "sub": ((p["a"], p["b"]), lambda: ad.tensor_sum(ad.mul(ad.sub(p["a"], p["b"]), p["a"]))),
        "mul": ((p["a"], p["b"]), lambda: ad.tensor_sum(ad.mul(p["a"], p["b"]))),
        "neg": ((p["a"],), lambda: ad.tensor_sum(ad.mul(ad.neg(p["a"]), p["a"]))),
        "matmul": ((p["m1"], p["m2"]), lambda: ad.tensor_sum(ad.matmul(p["m1"], p["m2"]))),
        "relu": ((p["a"],), lambda: ad.tensor_sum(ad.mul(ad.relu(p["a"]), p["b"]))),
        "gelu": ((p["a"],), lambda: ad.tensor_sum(ad.mul(ad.gelu(p["a"]), p["b"]))),
        "softmax": ((p["x5"],), lambda: ad.tensor_sum(ad.mul(ad.softmax(p["x5"], axis=-1), w45))),
        "log_sum_exp": ((p["x5"],), lambda: ad.tensor_sum(ad.log_sum_exp(p["x5"], axis=-1))),
        "layer_norm": ((p["x5"], p["g"], p["beta"]),
                       lambda: ad.tensor_sum(ad.mul(ad.layer_norm(p["x5"], p["g"], p["beta"]), w45b))),
        "concat": ((p["a"], p["b"]), lambda: ad.tensor_sum(ad.mul(ad.concat([p["a"], p["b"]], axis=1), w46))),
        "stack": ((p["g"], p["beta"]), lambda: ad.tensor_sum(ad.mul(ad.stack([p["g"], p["beta"]]), w25))),
        "mean": ((p["x5"],), lambda: ad.tensor_sum(ad.mul(ad.mean(p["x5"], axis=0), p["g"]))),
        "mean_all": ((p["x5"],), lambda: ad.mean(p["x5"])),
        "embedding_gather": ((p["table"],), lambda: ad.tensor_sum(ad.mul(ad.embedding_gather(p["table"], [4, 0, 4]), w33))),
        "linear": ((p["m1"], p["w"], p["bias"]),
                   lambda: ad.tensor_sum(ad.mul(ad.linear(p["m1"], p["w"], p["bias"]), w34))),
        "linear_1d": ((p["vec"],), lambda: ad.tensor_sum(ad.linear(p["vec"], w62, w2))),
        "transpose": ((p["m1"],), lambda: ad.tensor_sum(ad.mul(ad.transpose2d(p["m1"]), w43))),
        "reshape": ((p["m1"],), lambda: ad.tensor_sum(ad.mul(ad.reshape(p["m1"], (4, 3)), p["b"]))),
        "slice": ((p["x5"],), lambda: ad.tensor_sum(ad.mul(p["x5"][1:3, 0:4], w24))),
        "take_pairs": ((p["x5"],), lambda: ad.tensor_sum(ad.take_pairs(p["x5"], [0, 3, 3], [4, 1, 1]))),
        "pow": ((p["g"],), lambda: ad.tensor_sum(ad.pow_scalar(ad.add(ad.mul(p["g"], p["g"]), Tensor(np.ones(5))), 0.5))),
        "maximum_scalar": ((p["a"],), lambda: ad.tensor_sum(ad.maximum_scalar(p["a"], 0.25))),
        "conv2d": ((p["img"], p["kern"], p["kbias"]),
                   lambda: ad.tensor_sum(ad.conv2d(p["img"], p["kern"], p["kbias"], stride=2, padding=1))),
    }
    return params, cases


class TestGradientChecks:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_op_matches_central_differences(self, seed):
        rng = np.random.default_rng(seed)
        _, cases = _op_cases(rng)
        for name, (tensors, loss_fn) in cases.items():
            named = {f"p{i}": t for i, t in enumerate(tensors)}
            errors = check_gradients(loss_fn, named)
            err = max_error(errors.values())
            assert err < GRAD_TOL, f"{name}: max rel err {err:.3e} (seed {seed})"

    def test_layer_norm_gradient_specifically(self):
        rng = np.random.default_rng(11)
        x = Tensor(_rand(rng, (3, 6)), requires_grad=True)
        g = Tensor(_rand(rng, (6,)), requires_grad=True)
        b = Tensor(_rand(rng, (6,)), requires_grad=True)
        weight = Tensor(_rand(rng, (3, 6)))
        errors = check_gradients(
            lambda: ad.tensor_sum(ad.mul(ad.layer_norm(x, g, b), weight)),
            {"x": x, "gamma": g, "beta": b},
        )
        assert max_error(errors.values()) < GRAD_TOL

    def test_embedding_gather_gradient_scatters(self):
        rng = np.random.default_rng(12)
        table = Tensor(_rand(rng, (5, 3)), requires_grad=True)
        weight = Tensor(_rand(rng, (2, 3)))
        errors = check_gradients(
            lambda: ad.tensor_sum(ad.mul(ad.embedding_gather(table, [4, 0]), weight)),
            {"table": table},
        )
        assert max_error(errors.values()) < GRAD_TOL

    def test_dropout_gradient_through_fixed_mask(self):
        x = Tensor(np.linspace(-1, 1, 12).reshape(3, 4), requires_grad=True)

        def loss_fn():
            rng = np.random.default_rng(99)  # same mask every call
            return ad.tensor_sum(ad.dropout(x, p=0.5, train=True, rng=rng))

        errors = check_gradients(loss_fn, {"x": x})
        assert max_error(errors.values()) < GRAD_TOL


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

    def test_scale_aware(self):
        assert rel_error(np.array([100.0]), np.array([100.001])) < 2e-5
        assert rel_error(np.array([1e-9]), np.array([2e-9])) < 2e-9
