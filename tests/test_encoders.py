"""Text, patch, and convolution encoder contracts."""

import math

import numpy as np
import pytest

from mmner import autodiff as ad
from mmner.autodiff import ConfigError, ContractError, Tensor
from mmner.encoders import (
    ConvEncoder,
    ConvEncoderConfig,
    ResidualBlock,
    SelfAttention,
    TextEncoder,
    TextEncoderConfig,
    TransformerLayer,
    VitConfig,
    VitEncoder,
)
from mmner.gradcheck import check_gradients, max_error


def oracle_self_attention(attn: SelfAttention, x: np.ndarray) -> np.ndarray:
    """Re-implements multi-head self-attention with plain loops: one head and
    one query row at a time, explicit softmax rows, concatenation, output map."""
    n, d = x.shape
    dh = attn.head_dim
    head_outs = np.zeros((n, d))
    for i in range(attn.heads):
        cols = slice(i * dh, (i + 1) * dh)
        wq, wk, wv = attn.wq.data[:, cols], attn.wk.data[:, cols], attn.wv.data[:, cols]
        bq, bk, bv = attn.bq.data[cols], attn.bk.data[cols], attn.bv.data[cols]
        for t in range(n):
            q = x[t] @ wq + bq
            logits = np.array([q @ (x[s] @ wk + bk) for s in range(n)]) / math.sqrt(dh)
            e = np.exp(logits - logits.max())
            a = e / e.sum()
            out = np.zeros(dh)
            for s in range(n):
                out += a[s] * (x[s] @ wv + bv)
            head_outs[t, cols] = out
    return head_outs @ attn.wo.data + attn.bo.data


class TestSelfAttention:
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_matches_per_head_loop_oracle(self, heads):
        rng = np.random.default_rng(20 + heads)
        attn = SelfAttention(8, heads, np.random.default_rng(heads))
        # non-trivial parameter values, biases included
        for p in attn.parameters().values():
            p.data += rng.normal(0.0, 0.2, p.shape)
        x = rng.normal(size=(5, 8))
        got = attn(Tensor(x)).data
        assert np.max(np.abs(got - oracle_self_attention(attn, x))) < 1e-10


def make_text(vocab=10, d=8, layers=1, heads=2, seed=0, **kw):
    cfg = TextEncoderConfig(vocab_size=vocab, d=d, layers=layers, heads=heads,
                            max_len=16, mlp_ratio=2, dropout=0.0, **kw)
    return TextEncoder(cfg, np.random.default_rng(seed))


class TestTextEncoder:
    def test_cls_sep_framing_shape(self):
        enc = make_text()
        out = enc.encode([2, 3, 4])
        assert out.shape == (5, 8)

    def test_zero_layers_is_embeddings_plus_positions(self):
        enc = make_text(layers=0)
        ids = [2, 5, 7]
        out = enc.encode(ids)
        framed = [enc.cls_id] + ids + [enc.sep_id]
        expected = enc.token_table.data[framed] + enc.position_table.data[:5]
        np.testing.assert_array_equal(out.data, expected)

    def test_deterministic_across_runs(self):
        a = make_text(layers=2, seed=7).encode([2, 3, 4, 5]).data
        b = make_text(layers=2, seed=7).encode([2, 3, 4, 5]).data
        np.testing.assert_array_equal(a, b)

    def test_unknown_id_maps_to_unk(self):
        enc = make_text(layers=0)
        out_bad = enc.encode([999])
        out_unk = enc.encode([TextEncoder.UNK_ID])
        np.testing.assert_array_equal(out_bad.data, out_unk.data)

    def test_empty_sentence_rejected(self):
        with pytest.raises(ContractError):
            make_text().encode([])

    def test_shape_contract_random_sizes(self):
        enc = make_text(layers=1)
        rng = np.random.default_rng(1)
        for _ in range(5):
            n = int(rng.integers(1, 14))
            ids = list(rng.integers(0, 10, size=n))
            assert enc.encode(ids).shape == (n + 2, 8)

    def test_ln_then_add_sublayer_identity_at_zeroed_projections(self):
        # LN(MHSA(s)) + s with zeroed output projections and beta = 0 gives
        # LN(0) = 0, so each sublayer is exactly the identity.
        enc = make_text(layers=1)
        layer = enc.layers[0]
        layer.attn.wo.data[:] = 0.0
        layer.attn.bo.data[:] = 0.0
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
        weight = Tensor(rng.uniform(-1, 1, size=(5, 8)))
        errors = check_gradients(
            lambda: ad.tensor_sum(ad.mul(enc.encode(ids), weight)),
            enc.parameters(),
        )
        assert max_error(errors.values()) < 1e-5

    def test_bad_head_config(self):
        with pytest.raises(ConfigError):
            TextEncoderConfig(vocab_size=10, d=10, heads=4)


def make_vit(image=32, patch=8, layers=1, embed=8, heads=2, seed=0, **kw):
    cfg = VitConfig(image_size=image, patch_size=patch, embed_dim=embed,
                    out_dim=kw.pop("out_dim", embed), layers=layers, heads=heads,
                    mlp_ratio=2, dropout=0.0, **kw)
    return VitEncoder(cfg, np.random.default_rng(seed))


class TestVitEncoder:
    def test_paper_resolution_patch_count(self):
        enc = make_vit(image=224, patch=32, layers=0)
        assert enc.config.num_patches == 49
        out = enc.encode(np.zeros((3, 224, 224)))
        assert out.shape == (49, 8)

    def test_desk_patch_count(self):
        enc = make_vit(image=32, patch=8, layers=0)
        assert enc.config.num_patches == 16
        out = enc.encode(np.zeros((3, 32, 32)))
        assert out.shape == (16, 8)

    def test_zero_image_zero_positions_zero_layers(self):
        enc = make_vit(layers=0)
        enc.position_table.data[:] = 0.0
        out = enc.encode(np.zeros((3, 32, 32)))
        np.testing.assert_array_equal(out.data, np.zeros((16, 8)))

    def test_indivisible_patch_size_rejected_at_construction(self):
        with pytest.raises(ConfigError):
            VitConfig(image_size=32, patch_size=5)

    def test_patch_extraction_raster_order(self):
        enc = make_vit(image=4, patch=2, layers=0, embed=2, heads=1)
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
        layer.attn.wo.data[:] = 0.0
        layer.attn.bo.data[:] = 0.0
        layer.mlp_w2.data[:] = 0.0
        layer.mlp_b2.data[:] = 0.0
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(6, 8)))
        np.testing.assert_allclose(layer(x).data, x.data, atol=1e-10)

    def test_out_projection_when_dims_differ(self):
        enc = make_vit(layers=0, embed=8, out_dim=6)
        out = enc.encode(np.zeros((3, 32, 32)))
        assert out.shape == (16, 6)

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
        assert max_error(errors.values()) < 1e-5


def make_conv(image=32, out_dim=8, seed=0, **kw):
    cfg = ConvEncoderConfig(image_size=image, stem_channels=4,
                            stage_channels=kw.pop("stage_channels", (4, 6, 8)),
                            out_dim=out_dim, **kw)
    return ConvEncoder(cfg, np.random.default_rng(seed))


class TestConvEncoder:
    def test_desk_grid(self):
        enc = make_conv(image=32)
        assert enc.config.grid == 4
        out = enc.encode(np.zeros((1, 3, 32, 32)))
        assert out.shape == (1, 16, 8)

    def test_paper_shaped_config_gives_seven_by_seven(self):
        enc = make_conv(image=224, stem_kernel=5, stem_stride=4)
        assert enc.config.grid == 7
        out = enc.encode(np.zeros((1, 3, 224, 224)))
        assert out.shape == (1, 49, 8)

    def test_zero_projection_constant_bias(self):
        enc = make_conv()
        enc.proj_w.data[:] = 0.0
        enc.proj_b.data[:] = 0.7
        rng = np.random.default_rng(11)
        out = enc.encode(rng.normal(size=(1, 3, 32, 32)))
        np.testing.assert_allclose(out.data, 0.7, atol=1e-15)

    def test_indivisible_image_rejected(self):
        with pytest.raises(ConfigError):
            ConvEncoderConfig(image_size=30)

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

    def test_residual_block_gradient_check(self):
        rng = np.random.default_rng(12)
        block = ResidualBlock(2, 3, stride=2, rng=np.random.default_rng(13))
        x = Tensor(rng.uniform(-1, 1, size=(1, 2, 4, 4)), requires_grad=True)
        weight = Tensor(rng.uniform(-1, 1, size=(1, 3, 2, 2)))
        params = dict(block.parameters(), x=x)
        errors = check_gradients(
            lambda: ad.tensor_sum(ad.mul(block(x), weight)), params
        )
        assert max_error(errors.values()) < 1e-5

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
        cfg = TextEncoderConfig(vocab_size=10, d=8, layers=1, heads=2,
                                max_len=16, dropout=0.5)
        enc = TextEncoder(cfg, np.random.default_rng(16))
        ids = [2, 3]
        eval_a = enc.encode(ids).data
        eval_b = enc.encode(ids).data
        np.testing.assert_array_equal(eval_a, eval_b)
        train_out = enc.encode(ids, train=True, rng=np.random.default_rng(17)).data
        assert np.abs(train_out - eval_a).max() > 1e-9
