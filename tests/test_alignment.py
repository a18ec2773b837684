"""Projection heads and contrastive-loss contracts. The direct-summation
oracle, scale invariance, the closed form and both gradient checks are
`mmner.selftest` checks, asserted by c01 and c03."""

import math
import re

import numpy as np
import pytest

from mmner import autodiff as ad
from mmner.autodiff import ContractError, ShapeError, Tensor, backward
from mmner.alignment import ProjectionHead, contrastive_loss


class TestProjectionHead:
    def test_zero_weights_yield_second_bias(self):
        rng = np.random.default_rng(0)
        head = ProjectionHead(4, 8, 3, rng)
        head.w1.data[:] = 0.0
        head.w2.data[:] = 0.0
        head.b2.data[:] = [0.1, -0.2, 0.3]
        out = head(Tensor(rng.normal(size=4)))
        np.testing.assert_allclose(out.data, [0.1, -0.2, 0.3])

    def test_output_dimension(self):
        rng = np.random.default_rng(1)
        for d_in, d_out in [(3, 5), (8, 2), (6, 6)]:
            head = ProjectionHead(d_in, 4, d_out, rng)
            assert head(Tensor(rng.normal(size=d_in))).shape == (d_out,)


class TestContrastiveLoss:
    def test_nonnegative(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 9))
            t = Tensor(rng.normal(size=(n, 16)))
            i = Tensor(rng.normal(size=(n, 16)))
            assert contrastive_loss(t, i, tau=0.3).item() >= 0.0

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        t = rng.normal(size=(6, 8))
        i = rng.normal(size=(6, 8))
        perm = rng.permutation(6)
        base = contrastive_loss(Tensor(t), Tensor(i), tau=0.2).item()
        permuted = contrastive_loss(Tensor(t[perm]), Tensor(i[perm]), tau=0.2).item()
        assert abs(base - permuted) < 1e-10

    def test_better_positives_never_increase_loss(self):
        # pull each matched pair closer while negatives stay fixed
        base_t = np.eye(4) + 0.1
        base_i = np.roll(np.eye(4), 1, axis=1) + 0.1
        loss_far = contrastive_loss(Tensor(base_t), Tensor(base_i), tau=1.0).item()
        pulled = base_i + 0.5 * (base_t - base_i)  # move images toward their texts
        loss_near = contrastive_loss(Tensor(base_t), Tensor(pulled), tau=1.0).item()
        assert loss_near <= loss_far + 1e-12

    @pytest.mark.parametrize("side", ["text", "image"])
    def test_zero_norm_row_has_zero_cosines_and_no_gradient(self, side):
        rng = np.random.default_rng(7)
        t = rng.normal(size=(3, 4))
        i = rng.normal(size=(3, 4))
        (t if side == "text" else i)[1] = 0.0
        tt, it = Tensor(t, requires_grad=True), Tensor(i, requires_grad=True)
        loss = contrastive_loss(tt, it, tau=0.5)
        # direct summation with the zero row's cosines set to 0
        norms_t, norms_i = np.linalg.norm(t, axis=1), np.linalg.norm(i, axis=1)
        cos = np.zeros((3, 3))
        for a in range(3):
            for j in range(3):
                if norms_t[a] > 0 and norms_i[j] > 0:
                    cos[a, j] = t[a] @ i[j] / (norms_t[a] * norms_i[j])
        logits = cos / 0.5
        expected = sum(
            -math.log(math.exp(logits[a, a]) / sum(math.exp(logits[a, j]) for j in range(3)))
            - math.log(math.exp(logits[a, a]) / sum(math.exp(logits[j, a]) for j in range(3)))
            for a in range(3)) / 6
        assert math.isfinite(loss.item())
        assert abs(loss.item() - expected) < 1e-12
        backward(loss)
        zero_side = tt if side == "text" else it
        assert np.all(zero_side.grad[1] == 0.0)
        assert np.isfinite(tt.grad).all() and np.isfinite(it.grad).all()

    def test_single_pair_rejected(self):
        with pytest.raises(ContractError, match=r"^contrastive batch needs N >= 2, got N=1$"):
            contrastive_loss(Tensor(np.ones((1, 4))), Tensor(np.ones((1, 4))), tau=1.0)

    def test_bad_temperature(self):
        x = Tensor(np.ones((2, 4)))
        with pytest.raises(ContractError, match=r"^temperature must be > 0, got 0\.0$"):
            contrastive_loss(x, x, tau=0.0)

    @pytest.mark.parametrize("text_shape, image_shape", [((3, 4), (3, 5)), ((2, 3, 4), (2, 3, 4))],
                             ids=["unequal", "three_d"])
    def test_bad_shapes_rejected(self, text_shape, image_shape):
        message = f"contrastive_loss: {text_shape} vs {image_shape}"
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
            contrastive_loss(Tensor(np.ones(text_shape)), Tensor(np.ones(image_shape)), tau=1.0)

    def test_gradients_flow_to_both_sides(self):
        rng = np.random.default_rng(6)
        t = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        i = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        backward(contrastive_loss(t, i, tau=0.1))
        assert t.grad is not None and np.abs(t.grad).max() > 0
        assert i.grad is not None and np.abs(i.grad).max() > 0

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_bias_free_linear_logits_equal_matmul_bitwise(self, n):
        # the loss forms its logits with linear(tn, im^T); matmul, its former
        # op, computes the same x @ w, g @ w.T and x.T @ g
        rng = np.random.default_rng(30 + n)
        tn, im = rng.normal(size=(n, 16)), rng.normal(size=(n, 16))
        weight = Tensor(rng.normal(size=(n, n)))
        results = []
        for op in (ad.matmul, ad.linear):
            a, b = Tensor(tn, requires_grad=True), Tensor(im, requires_grad=True)
            logits = op(a, ad.transpose2d(b))
            backward(ad.tensor_sum(ad.mul(logits, weight)))
            results.append((logits.data, a.grad, b.grad))
        for via_matmul, via_linear in zip(*results):
            np.testing.assert_array_equal(via_matmul, via_linear)
