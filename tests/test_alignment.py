"""Projection heads and the contrastive loss vs the direct-summation oracle
shipped in `mmner.selftest`."""

import math

import numpy as np
import pytest

from mmner import autodiff as ad
from mmner.autodiff import ContractError, NumericError, Tensor, backward
from mmner.alignment import ProjectionHead, contrastive_loss
from mmner.gradcheck import check_gradients, max_error
from mmner.selftest import _direct_contrastive


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

    def test_gradient_check(self):
        rng = np.random.default_rng(2)
        head = ProjectionHead(4, 6, 3, rng)
        x = Tensor(rng.uniform(-1, 1, size=4), requires_grad=True)
        weight = Tensor(rng.uniform(-1, 1, size=3))
        params = dict(head.parameters(), x=x)
        errors = check_gradients(
            lambda: ad.tensor_sum(ad.mul(head(x), weight)), params
        )
        assert max_error(errors.values()) < 1e-5


class TestContrastiveLoss:
    def test_orthonormal_two_pair_closed_form(self):
        text = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        image = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        loss = contrastive_loss(text, image, tau=1.0)
        expected = -math.log(math.e / (math.e + 1.0))
        assert loss.item() == pytest.approx(expected, abs=1e-5)
        assert loss.item() == pytest.approx(0.31326, abs=1e-5)

    def test_nonnegative(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 9))
            t = Tensor(rng.normal(size=(n, 16)))
            i = Tensor(rng.normal(size=(n, 16)))
            assert contrastive_loss(t, i, tau=0.3).item() >= 0.0

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_matches_direct_summation_oracle(self, n):
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            t = rng.normal(size=(n, 16))
            i = rng.normal(size=(n, 16))
            got = contrastive_loss(Tensor(t), Tensor(i), tau=0.07).item()
            assert abs(got - _direct_contrastive(t, i, 0.07)) < 1e-10

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        t = rng.normal(size=(4, 16))
        i = rng.normal(size=(4, 16))
        base = contrastive_loss(Tensor(t), Tensor(i), tau=0.5).item()
        scales_t = rng.uniform(0.1, 10.0, size=(4, 1))
        scales_i = rng.uniform(0.1, 10.0, size=(4, 1))
        scaled = contrastive_loss(Tensor(t * scales_t), Tensor(i * scales_i), tau=0.5).item()
        assert abs(base - scaled) < 1e-10

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

    def test_zero_norm_row_raises(self):
        t = np.ones((2, 4))
        t[0] = 0.0
        with pytest.raises(NumericError):
            contrastive_loss(Tensor(t), Tensor(np.ones((2, 4))), tau=1.0)

    def test_single_pair_rejected(self):
        with pytest.raises(ContractError):
            contrastive_loss(Tensor(np.ones((1, 4))), Tensor(np.ones((1, 4))), tau=1.0)

    def test_bad_temperature(self):
        x = Tensor(np.ones((2, 4)))
        with pytest.raises(ContractError):
            contrastive_loss(x, x, tau=0.0)

    def test_gradient_check(self):
        rng = np.random.default_rng(5)
        t = Tensor(rng.uniform(-1, 1, size=(3, 6)), requires_grad=True)
        i = Tensor(rng.uniform(-1, 1, size=(3, 6)), requires_grad=True)
        errors = check_gradients(
            lambda: contrastive_loss(t, i, tau=0.4), {"t": t, "i": i}
        )
        assert max_error(errors.values()) < 1e-5

    def test_gradients_flow_to_both_sides(self):
        rng = np.random.default_rng(6)
        t = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        i = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        backward(contrastive_loss(t, i, tau=0.1))
        assert t.grad is not None and np.abs(t.grad).max() > 0
        assert i.grad is not None and np.abs(i.grad).max() > 0
