"""Cross-attention block vs the explicit per-head loop oracle shipped in
`mmner.selftest`."""

import re

import numpy as np
import pytest

from mmner import autodiff as ad
from mmner.autodiff import ConfigError, ShapeError, Tensor
from mmner.collaboration import CrossAttentionBlock
from mmner.selftest import _loop_cross_attention


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
        expected = _loop_cross_attention(block, text, visual)
        assert np.max(np.abs(got - expected)) < 1e-10

    def test_zero_attention_output_reduces_to_text_only_path(self):
        rng = np.random.default_rng(4)
        block = make_block()
        block.wo.data[:] = 0.0  # forces IA = 0
        text = rng.normal(size=(4, 8))
        visual = rng.normal(size=(3, 8))
        got = block(Tensor(text), Tensor(visual)).data
        # with wo = 0 the oracle's attention term is exactly 0, so it runs
        # LN, MLP, LN on the text rows alone
        expected = _loop_cross_attention(block, text, visual)
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_indivisible_heads_rejected_at_construction(self):
        with pytest.raises(ConfigError):
            CrossAttentionBlock(10, 3, np.random.default_rng(0))

    @pytest.mark.parametrize("text_shape, visual_shape", [
        ((4, 8), (8,)),
        ((1, 2, 4, 8), (1, 2, 3, 8)),
        ((2, 4, 8), (3, 5, 8)),
        ((4, 8), (3, 6)),
    ], ids=["one_d_visual", "four_d_text", "unequal_batch_axes", "wrong_width"])
    def test_bad_shapes_rejected_with_the_blocks_message(self, text_shape, visual_shape):
        message = (f"text {text_shape} / visual {visual_shape}: expected (n, 8) / (P, 8), "
                   "with one shared batch axis or none")
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
            make_block()(Tensor(np.ones(text_shape)), Tensor(np.ones(visual_shape)))
