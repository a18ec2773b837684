"""Text, patch, and convolution encoder contracts, and the shape
constraints `ModelConfig` checks for them."""

import re

import numpy as np
import pytest

from mmner import autodiff as ad
from mmner.autodiff import ConfigError, ContractError, Tensor
from mmner.collaboration import CrossAttentionBlock
from mmner.data import UNK_ID
from mmner.encoders import (
    TEXT_SUBLAYER,
    ConvEncoder,
    ResidualBlock,
    TextEncoder,
    TransformerLayer,
    VitEncoder,
)
from mmner.gradcheck import check_gradients
from mmner.model import ModelConfig
from mmner.selftest import _loop_attention


class TestSelfAttention:
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_matches_per_head_loop_oracle(self, heads):
        rng = np.random.default_rng(20 + heads)
        layer = TransformerLayer(8, heads, np.random.default_rng(heads), TEXT_SUBLAYER)
        # non-trivial parameter values, biases included
        for name, p in layer.parameters().items():
            if name.startswith("attn."):
                p.data += rng.normal(0.0, 0.2, p.shape)
        x = rng.normal(size=(5, 8))
        got = layer.attend(Tensor(x)).data
        maps = (layer.wq.data, layer.wk.data, layer.wv.data)
        biases = (layer.bq.data, layer.bk.data, layer.bv.data)
        expected = _loop_attention(x, x, maps, heads, biases) @ layer.wo.data + layer.bo.data
        assert np.max(np.abs(got - expected)) < 1e-10

    def test_self_and_cross_attention_draw_the_same_maps(self):
        # both blocks draw their maps first and keep each as drawn, in
        # (d_in, d_out) layout: the k-th map is the k-th (d, d) draw
        layer = TransformerLayer(8, 2, np.random.default_rng(3), TEXT_SUBLAYER)
        block = CrossAttentionBlock(8, 2, np.random.default_rng(3))
        draws = np.random.default_rng(3)
        for name in ("wq", "wk", "wv", "wo"):
            expected = draws.normal(0.0, 0.02, (8, 8))
            np.testing.assert_array_equal(getattr(layer, name).data, expected)
            np.testing.assert_array_equal(getattr(block, name).data, expected)

    def test_unknown_sublayer_ordering_fails_before_any_draw(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ConfigError, match="^unknown sublayer ordering 'x'$"):
            TransformerLayer(8, 2, rng, "x")
        assert rng.bit_generator.state == state


def make_text(vocab=10, d=8, layers=1, heads=2, seed=0):
    cfg = ModelConfig(d=d, text_layers=layers, heads=heads, max_len=16, mlp_ratio=2,
                      dropout=0.0)
    return TextEncoder(cfg, vocab, np.random.default_rng(seed))


class TestTextEncoder:
    def test_cls_sep_framing_shape(self):
        enc = make_text()
        out = enc.encode([[2, 3, 4]])
        assert out.shape == (1, 5, 8)

    def test_zero_layers_is_embeddings_plus_positions(self):
        enc = make_text(layers=0)
        ids = [2, 5, 7]
        out = enc.encode([ids])
        framed = [enc.cls_id] + ids + [enc.sep_id]
        expected = enc.token_table.data[framed] + enc.position_table.data[:5]
        np.testing.assert_array_equal(out.data[0], expected)

    def test_deterministic_across_runs(self):
        a = make_text(layers=2, seed=7).encode([[2, 3, 4, 5]]).data
        b = make_text(layers=2, seed=7).encode([[2, 3, 4, 5]]).data
        np.testing.assert_array_equal(a, b)

    def test_unknown_id_maps_to_unk(self):
        enc = make_text(layers=0)
        out_bad = enc.encode([[999]])
        out_unk = enc.encode([[UNK_ID]])
        np.testing.assert_array_equal(out_bad.data, out_unk.data)

    def test_empty_sentence_rejected(self):
        with pytest.raises(ContractError):
            make_text().encode([[]])

    def test_shape_contract_random_sizes(self):
        enc = make_text(layers=1)
        rng = np.random.default_rng(1)
        for _ in range(5):
            n = int(rng.integers(1, 14))
            ids = list(rng.integers(0, 10, size=n))
            assert enc.encode([ids]).shape == (1, n + 2, 8)

    def test_ln_then_add_sublayer_identity_at_zeroed_projections(self):
        # LN(MHSA(s)) + s with zeroed output projections and beta = 0 gives
        # LN(0) = 0, so each sublayer is exactly the identity.
        enc = make_text(layers=1)
        layer = enc.layers[0]
        layer.wo.data[:] = 0.0
        layer.bo.data[:] = 0.0
        layer.mlp_w2.data[:] = 0.0
        layer.mlp_b2.data[:] = 0.0
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(4, 8)))
        np.testing.assert_allclose(layer(x).data, x.data, atol=1e-10)

    def test_gradient_check_one_layer(self):
        enc = make_text(layers=1, seed=3)
        rng = np.random.default_rng(4)
        # healthy O(1) activations; near-zero layer-norm variance makes the
        # h^2 truncation error of central differences dominate
        for p in enc.parameters().values():
            p.data += rng.uniform(-0.3, 0.3, p.shape)
        ids = [2, 3, 4]
        weight = Tensor(rng.uniform(-1, 1, size=(1, 5, 8)))
        errors = check_gradients(
            lambda: ad.tensor_sum(ad.mul(enc.encode([ids]), weight)),
            enc.parameters(),
        )
        assert max(errors.values()) < 1e-5

    def test_bad_head_config(self):
        with pytest.raises(ConfigError, match="d=10 not divisible by heads=4"):
            ModelConfig(d=10, heads=4)

    @pytest.mark.parametrize("build", [
        lambda: ModelConfig(heads=0),
        lambda: TransformerLayer(8, 0, np.random.default_rng(0), TEXT_SUBLAYER),
        lambda: CrossAttentionBlock(8, 0, np.random.default_rng(0)),
    ], ids=["model_config", "self_attention", "cross_attention"])
    def test_zero_heads_rejected(self, build):
        with pytest.raises(ConfigError, match="heads=0"):
            build()

    def test_max_len_without_room_for_a_token_rejected(self):
        with pytest.raises(ConfigError, match="max_len=2 cannot hold CLS"):
            ModelConfig(max_len=2)


def make_vit(image=32, patch=8, layers=1, d=8, heads=2, seed=0):
    cfg = ModelConfig(d=d, vit_layers=layers, heads=heads, image_size=image,
                      patch_size=patch, mlp_ratio=2, dropout=0.0, use_resnet=False)
    return VitEncoder(cfg, np.random.default_rng(seed))


class TestVitEncoder:
    def test_paper_resolution_patch_count(self):
        enc = make_vit(image=224, patch=32, layers=0)
        assert enc.position_table.shape == (49, 8)
        out = enc.encode(np.zeros((3, 224, 224)))
        assert out.shape == (49, 8)

    def test_desk_patch_count(self):
        enc = make_vit(image=32, patch=8, layers=0)
        assert enc.position_table.shape == (16, 8)
        out = enc.encode(np.zeros((3, 32, 32)))
        assert out.shape == (16, 8)

    def test_zero_image_zero_positions_zero_layers(self):
        enc = make_vit(layers=0)
        enc.position_table.data[:] = 0.0
        out = enc.encode(np.zeros((3, 32, 32)))
        np.testing.assert_array_equal(out.data, np.zeros((16, 8)))

    def test_indivisible_patch_size_rejected_at_construction(self):
        with pytest.raises(ConfigError, match="not divisible by patch size 5"):
            ModelConfig(image_size=32, patch_size=5)

    def test_patch_size_not_checked_without_the_vit(self):
        ModelConfig(image_size=32, patch_size=5, use_vit=False)

    def test_image_of_another_size_rejected(self):
        enc = make_vit(image=32, patch=8, layers=0)
        with pytest.raises(ContractError, match=re.escape(
                "image shape (2, 3, 16, 16) vs configured (..., 3, 32, 32)") + "$"):
            enc.extract_patches(np.zeros((2, 3, 16, 16)))

    def test_patch_extraction_raster_order(self):
        enc = make_vit(image=4, patch=2, layers=0, d=2, heads=1)
        img = np.arange(3 * 4 * 4, dtype=np.float64).reshape(3, 4, 4)
        patches = enc.extract_patches(img)
        assert patches.shape == (4, 12)
        np.testing.assert_array_equal(
            patches[0], img[:, 0:2, 0:2].reshape(-1))
        np.testing.assert_array_equal(
            patches[1], img[:, 0:2, 2:4].reshape(-1))
        np.testing.assert_array_equal(
            patches[2], img[:, 2:4, 0:2].reshape(-1))

    def test_permutation_equivariance(self):
        enc = make_vit(layers=2, seed=5)
        rng = np.random.default_rng(6)
        patches = rng.normal(size=(16, 3 * 64))
        base = enc.encode_patches(patches).data
        perm = rng.permutation(16)
        enc.position_table.data[:] = enc.position_table.data[perm]
        permuted = enc.encode_patches(patches[perm]).data
        np.testing.assert_allclose(permuted, base[perm], atol=1e-12)

    def test_pre_ln_residual_identity_is_exact(self):
        enc = make_vit(layers=1, seed=7)
        layer = enc.layers[0]
        layer.wo.data[:] = 0.0
        layer.bo.data[:] = 0.0
        layer.mlp_w2.data[:] = 0.0
        layer.mlp_b2.data[:] = 0.0
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(6, 8)))
        np.testing.assert_allclose(layer(x).data, x.data, atol=1e-10)

    def test_gradient_check_one_layer(self):
        enc = make_vit(image=8, patch=4, layers=1, seed=9)
        rng = np.random.default_rng(10)
        for p in enc.parameters().values():
            p.data += rng.uniform(-0.3, 0.3, p.shape)
        img = rng.uniform(-1, 1, size=(3, 8, 8))
        weight = Tensor(rng.uniform(-1, 1, size=(4, 8)))
        errors = check_gradients(
            lambda: ad.tensor_sum(ad.mul(enc.encode(img), weight)),
            enc.parameters(),
        )
        assert max(errors.values()) < 1e-5


def make_conv(image=32, d=8, seed=0, **kw):
    cfg = ModelConfig(d=d, image_size=image, conv_stem_channels=4,
                      conv_stage_channels=(4, 6, 8), use_vit=False, **kw)
    return ConvEncoder(cfg, np.random.default_rng(seed))


class TestConvEncoder:
    def test_desk_grid(self):
        enc = make_conv(image=32)
        assert enc.grid == 4
        out = enc.encode(np.zeros((1, 3, 32, 32)))
        assert out.shape == (1, 16, 8)

    def test_zero_projection_constant_bias(self):
        enc = make_conv()
        enc.proj_w.data[:] = 0.0
        enc.proj_b.data[:] = 0.7
        rng = np.random.default_rng(11)
        out = enc.encode(rng.normal(size=(1, 3, 32, 32)))
        np.testing.assert_allclose(out.data, 0.7, atol=1e-15)

    def test_indivisible_image_rejected(self):
        # patch size 5 divides 30, so only the conv stack's stride of 8 fails
        with pytest.raises(ConfigError, match="not divisible by total stride 8"):
            ModelConfig(image_size=30, patch_size=5)

    def test_conv_stride_not_checked_without_the_conv_stack(self):
        ModelConfig(image_size=30, patch_size=5, use_resnet=False)

    def test_wrong_image_shape(self):
        with pytest.raises(ContractError):
            make_conv().encode(np.zeros((1, 3, 16, 16)))

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_batch_matches_per_image_encodes(self, n):
        enc = make_conv(image=16)
        images = np.random.default_rng(n).uniform(-1, 1, size=(n, 3, 16, 16))
        params = enc.parameters()
        results = []
        for encode in (enc.encode,
                       lambda x: ad.concat([enc.encode(x[i:i + 1]) for i in range(n)], axis=0)):
            out = encode(images)
            weight = Tensor(np.sin(np.arange(out.size, dtype=float)).reshape(out.shape))
            ad.backward(ad.tensor_sum(ad.mul(out, weight)))
            results.append([out.data] + [params[k].grad for k in sorted(params)])
            for p in params.values():
                p.zero_grad()
        assert results[0][0].shape == (n, 4, 8)
        for batched, single in zip(*results):
            np.testing.assert_allclose(batched, single, rtol=1e-12, atol=1e-12)

    def test_identity_shortcut_when_same_channels_stride_one(self):
        block = ResidualBlock(4, 4, stride=1, rng=np.random.default_rng(14))
        assert block.ws is None
        block.w1.data[:] = 0.0
        block.b1.data[:] = 0.0
        block.w2.data[:] = 0.0
        block.b2.data[:] = 0.0
        rng = np.random.default_rng(15)
        x = rng.uniform(0.1, 1.0, size=(1, 4, 6, 6))  # positive so relu is identity
        out = block(Tensor(x))
        np.testing.assert_allclose(out.data, x, atol=1e-15)


class TestDropoutPlumbing:
    def test_train_mode_changes_output_eval_does_not(self):
        cfg = ModelConfig(d=8, text_layers=1, heads=2, max_len=16, dropout=0.5)
        enc = TextEncoder(cfg, 10, np.random.default_rng(16))
        ids = [2, 3]
        eval_a = enc.encode([ids]).data
        eval_b = enc.encode([ids]).data
        np.testing.assert_array_equal(eval_a, eval_b)
        train_out = enc.encode([ids], [np.random.default_rng(17)]).data
        assert np.abs(train_out - eval_a).max() > 1e-9
