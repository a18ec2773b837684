"""Cross-attention block vs an explicit per-head numpy oracle."""

import math

import numpy as np
import pytest

from mmner import autodiff as ad
from mmner.autodiff import ConfigError, Tensor
from mmner.collaboration import CrossAttentionBlock
from mmner.gradcheck import check_gradients, max_error


def np_layer_norm(x, gamma, beta, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return gamma * (x - mu) / np.sqrt(var + eps) + beta


def np_gelu(x):
    c = math.sqrt(2.0 / math.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x**3)))


def oracle_block(block: CrossAttentionBlock, text: np.ndarray, visual: np.ndarray) -> np.ndarray:
    """Re-implements the block with plain loops: one head at a time, explicit
    softmax rows, concatenation, output map, then LN/MLP/LN."""
    n, d = text.shape
    m = block.heads
    dh = block.head_dim
    head_outs = np.zeros((n, m * dh))
    for i in range(m):
        wq = block.wq.data[i]
        wk = block.wk.data[i]
        wv = block.wv.data[i]
        for t in range(n):
            q = wq @ text[t]
            logits = np.array([q @ (wk @ visual[s]) for s in range(visual.shape[0])])
            logits = logits / math.sqrt(dh)
            e = np.exp(logits - logits.max())
            a = e / e.sum()
            out = np.zeros(dh)
            for s in range(visual.shape[0]):
                out += a[s] * (wv @ visual[s])
            head_outs[t, i * dh:(i + 1) * dh] = out
    ia = head_outs @ block.wo.data.T
    fused = np_layer_norm(ia + text, block.ln1_g.data, block.ln1_b.data)
    h = np_gelu(fused @ block.mlp_w1.data + block.mlp_b1.data)
    h = h @ block.mlp_w2.data + block.mlp_b2.data
    return np_layer_norm(fused + h, block.ln2_g.data, block.ln2_b.data)


def make_block(d=8, heads=2, seed=0):
    return CrossAttentionBlock(d, heads, np.random.default_rng(seed))


class TestCrossAttention:
    def test_output_shape(self):
        rng = np.random.default_rng(0)
        block = make_block()
        for n, v in [(1, 1), (3, 5), (7, 2)]:
            out = block(Tensor(rng.normal(size=(n, 8))), Tensor(rng.normal(size=(v, 8))))
            assert out.shape == (n, 8)

    def test_single_visual_token_attention_is_one(self):
        rng = np.random.default_rng(1)
        block = make_block()
        text = Tensor(rng.normal(size=(4, 8)))
        visual = Tensor(rng.normal(size=(1, 8)))
        # one key: every head's softmax row is [1], so each query gets the value row
        out = ad.attention(text, visual, visual, block.heads)
        np.testing.assert_allclose(out.data, np.repeat(visual.data, 4, axis=0), atol=1e-15)
        # every query receives the same transform of the lone visual token:
        # the block output cannot depend on the query or key maps
        base = block(text, visual).data
        block.wq.data += rng.normal(0.0, 5.0, block.wq.shape)
        block.wk.data += rng.normal(0.0, 5.0, block.wk.shape)
        np.testing.assert_allclose(block(text, visual).data, base, atol=1e-15)

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_matches_per_head_loop_oracle(self, heads):
        rng = np.random.default_rng(10 + heads)
        block = make_block(d=8, heads=heads, seed=heads)
        # non-trivial parameter values
        for p in block.parameters().values():
            p.data += rng.normal(0.0, 0.2, p.shape)
        text = rng.normal(size=(4, 8))
        visual = rng.normal(size=(5, 8))
        got = block(Tensor(text), Tensor(visual)).data
        expected = oracle_block(block, text, visual)
        assert np.max(np.abs(got - expected)) < 1e-10

    def test_key_permutation_invariance(self):
        rng = np.random.default_rng(3)
        block = make_block(heads=2)
        text = rng.normal(size=(3, 8))
        visual = rng.normal(size=(6, 8))
        base = block(Tensor(text), Tensor(visual)).data
        perm = rng.permutation(6)
        permuted = block(Tensor(text), Tensor(visual[perm])).data
        assert np.max(np.abs(base - permuted)) < 1e-10

    def test_zero_attention_output_reduces_to_text_only_path(self):
        rng = np.random.default_rng(4)
        block = make_block()
        block.wo.data[:] = 0.0  # forces IA = 0
        text = rng.normal(size=(4, 8))
        visual = rng.normal(size=(3, 8))
        got = block(Tensor(text), Tensor(visual)).data
        ln_t = np_layer_norm(text, block.ln1_g.data, block.ln1_b.data)
        h = np_gelu(ln_t @ block.mlp_w1.data + block.mlp_b1.data)
        h = h @ block.mlp_w2.data + block.mlp_b2.data
        expected = np_layer_norm(ln_t + h, block.ln2_g.data, block.ln2_b.data)
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_gradient_check_full_block(self):
        rng = np.random.default_rng(5)
        block = CrossAttentionBlock(4, 2, np.random.default_rng(55))
        text = Tensor(rng.uniform(-1, 1, size=(3, 4)), requires_grad=True)
        visual = Tensor(rng.uniform(-1, 1, size=(2, 4)), requires_grad=True)
        weight = Tensor(rng.uniform(-1, 1, size=(3, 4)))
        params = dict(block.parameters(), text=text, visual=visual)
        errors = check_gradients(
            lambda: ad.tensor_sum(ad.mul(block(text, visual), weight)), params
        )
        assert max_error(errors.values()) < 1e-5

    def test_indivisible_heads_rejected_at_construction(self):
        with pytest.raises(ConfigError):
            CrossAttentionBlock(10, 3, np.random.default_rng(0))
