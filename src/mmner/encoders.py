"""The three feature extractors: text transformer, patch transformer
(ViT-style), and a small residual convolution stack.

All weights are randomly initialized (normal, std 0.02 for embeddings and
projection matrices; conv kernels use fan-in scaling; LN affine starts at
identity). The two transformer branches deliberately use different
sublayer orderings: the text branch normalizes the sublayer output before
the residual add, the patch branch normalizes the sublayer input. Both
can be switched to the conventional post-LN form via config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from mmner import autodiff as ad
from mmner.autodiff import ConfigError, ContractError, Tensor

TEXT_SUBLAYER = "ln_then_add"   # y = LN(f(x)) + x, text-branch default
VIT_SUBLAYER = "pre_ln"         # y = f(LN(x)) + x, patch-branch default
POST_LN = "post_ln"             # y = LN(f(x) + x), conventional alternative


def _w(rng: np.random.Generator, shape, std: float = 0.02) -> Tensor:
    return Tensor(rng.normal(0.0, std, shape), requires_grad=True)


def _zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


def _ones(shape) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=True)


class SelfAttention:
    """Standard multi-head self-attention over one (k, d) sequence.

    Three affine maps give q, k and v; `ad.attention` runs every head in one
    node (head i reads and writes columns i*d/m:(i+1)*d/m); an affine output
    map mixes the heads.
    """

    def __init__(self, d: int, heads: int, rng: np.random.Generator):
        if d % heads != 0:
            raise ConfigError(f"model dim {d} not divisible by {heads} heads")
        self.d = d
        self.heads = heads
        self.head_dim = d // heads
        self.wq = _w(rng, (d, d))
        self.bq = _zeros(d)
        self.wk = _w(rng, (d, d))
        self.bk = _zeros(d)
        self.wv = _w(rng, (d, d))
        self.bv = _zeros(d)
        self.wo = _w(rng, (d, d))
        self.bo = _zeros(d)

    def parameters(self) -> dict[str, Tensor]:
        return {
            "wq": self.wq, "bq": self.bq, "wk": self.wk, "bk": self.bk,
            "wv": self.wv, "bv": self.bv, "wo": self.wo, "bo": self.bo,
        }

    def __call__(self, x: Tensor) -> Tensor:
        q = ad.linear(x, self.wq, self.bq)
        k = ad.linear(x, self.wk, self.bk)
        v = ad.linear(x, self.wv, self.bv)
        return ad.linear(ad.attention(q, k, v, self.heads), self.wo, self.bo)


class TransformerLayer:
    """One MHSA + MLP layer in any of the three sublayer orderings."""

    def __init__(self, d: int, heads: int, rng: np.random.Generator,
                 sublayer: str, mlp_ratio: int = 4, dropout: float = 0.0):
        if sublayer not in (TEXT_SUBLAYER, VIT_SUBLAYER, POST_LN):
            raise ConfigError(f"unknown sublayer ordering {sublayer!r}")
        self.sublayer = sublayer
        self.dropout = dropout
        self.attn = SelfAttention(d, heads, rng)
        self.ln1_g, self.ln1_b = _ones(d), _zeros(d)
        hidden = mlp_ratio * d
        self.mlp_w1 = _w(rng, (d, hidden))
        self.mlp_b1 = _zeros(hidden)
        self.mlp_w2 = _w(rng, (hidden, d))
        self.mlp_b2 = _zeros(d)
        self.ln2_g, self.ln2_b = _ones(d), _zeros(d)

    def parameters(self) -> dict[str, Tensor]:
        params = {f"attn.{k}": v for k, v in self.attn.parameters().items()}
        params.update({
            "ln1_g": self.ln1_g, "ln1_b": self.ln1_b,
            "mlp_w1": self.mlp_w1, "mlp_b1": self.mlp_b1,
            "mlp_w2": self.mlp_w2, "mlp_b2": self.mlp_b2,
            "ln2_g": self.ln2_g, "ln2_b": self.ln2_b,
        })
        return params

    def _mlp(self, x: Tensor) -> Tensor:
        h = ad.gelu(ad.linear(x, self.mlp_w1, self.mlp_b1))
        return ad.linear(h, self.mlp_w2, self.mlp_b2)

    def _apply(self, x, f, ln_g, ln_b, train, rng):
        if self.sublayer == TEXT_SUBLAYER:
            out = ad.dropout(f(x), self.dropout, train, rng)
            return ad.add(ad.layer_norm(out, ln_g, ln_b), x)
        if self.sublayer == VIT_SUBLAYER:
            out = ad.dropout(f(ad.layer_norm(x, ln_g, ln_b)), self.dropout, train, rng)
            return ad.add(out, x)
        out = ad.dropout(f(x), self.dropout, train, rng)
        return ad.layer_norm(ad.add(out, x), ln_g, ln_b)

    def __call__(self, x: Tensor, train: bool = False,
                 rng: np.random.Generator | None = None) -> Tensor:
        x = self._apply(x, self.attn, self.ln1_g, self.ln1_b, train, rng)
        return self._apply(x, self._mlp, self.ln2_g, self.ln2_b, train, rng)


# ---------------------------------------------------------------------------
# text encoder


@dataclass
class TextEncoderConfig:
    vocab_size: int
    d: int = 64
    layers: int = 2
    heads: int = 4
    max_len: int = 64
    mlp_ratio: int = 4
    dropout: float = 0.1
    sublayer: str = TEXT_SUBLAYER

    def __post_init__(self):
        if self.d % self.heads != 0:
            raise ConfigError(f"d={self.d} not divisible by heads={self.heads}")
        if self.max_len < 3:
            raise ConfigError(f"max_len={self.max_len} cannot hold CLS + token + SEP")


class TextEncoder:
    """Token ids -> (n+2, d) rows; row 0 is CLS, row n+1 is SEP.

    Unknown ids map to the reserved UNK id; overlong sentences truncate to
    max_len - 2 tokens.
    """

    UNK_ID = 1

    def __init__(self, config: TextEncoderConfig, rng: np.random.Generator):
        self.config = config
        self.cls_id = config.vocab_size
        self.sep_id = config.vocab_size + 1
        self.token_table = _w(rng, (config.vocab_size + 2, config.d))
        self.position_table = _w(rng, (config.max_len, config.d))
        self.layers = [
            TransformerLayer(config.d, config.heads, rng, config.sublayer,
                             config.mlp_ratio, config.dropout)
            for _ in range(config.layers)
        ]

    def parameters(self) -> dict[str, Tensor]:
        params = {"token_table": self.token_table, "position_table": self.position_table}
        for i, layer in enumerate(self.layers):
            params.update({f"layer{i}.{k}": v for k, v in layer.parameters().items()})
        return params

    def encode(self, token_ids: list[int], train: bool = False,
               rng: np.random.Generator | None = None) -> Tensor:
        if len(token_ids) < 1:
            raise ContractError("text_encode needs at least one token")
        ids = [t if 0 <= t < self.config.vocab_size else self.UNK_ID for t in token_ids]
        framed = [self.cls_id] + ids[: self.config.max_len - 2] + [self.sep_id]
        x = ad.add(
            ad.embedding_gather(self.token_table, framed),
            self.position_table[: len(framed)],
        )
        for layer in self.layers:
            x = layer(x, train, rng)
        return x


# ---------------------------------------------------------------------------
# patch (ViT-style) encoder


@dataclass
class VitConfig:
    channels: int = 3
    image_size: int = 32
    patch_size: int = 8
    embed_dim: int = 64    # D_v
    out_dim: int = 64      # d; a learned projection is added iff != embed_dim
    layers: int = 2
    heads: int = 4
    mlp_ratio: int = 4
    dropout: float = 0.1
    sublayer: str = VIT_SUBLAYER
    class_token: bool = False

    def __post_init__(self):
        if self.image_size % self.patch_size != 0:
            raise ConfigError(
                f"image size {self.image_size} not divisible by patch size {self.patch_size}"
            )
        if self.embed_dim % self.heads != 0:
            raise ConfigError(f"embed_dim={self.embed_dim} not divisible by heads={self.heads}")

    @property
    def num_patches(self) -> int:
        return (self.image_size // self.patch_size) ** 2


class VitEncoder:
    """(C, H, W) image -> one row per patch after K transformer layers."""

    def __init__(self, config: VitConfig, rng: np.random.Generator):
        self.config = config
        patch_dim = config.channels * config.patch_size**2
        rows = config.num_patches + (1 if config.class_token else 0)
        self.patch_proj = _w(rng, (patch_dim, config.embed_dim))
        self.position_table = _w(rng, (rows, config.embed_dim))
        self.class_embed = _w(rng, (config.embed_dim,)) if config.class_token else None
        self.layers = [
            TransformerLayer(config.embed_dim, config.heads, rng, config.sublayer,
                             config.mlp_ratio, config.dropout)
            for _ in range(config.layers)
        ]
        if config.out_dim != config.embed_dim:
            self.out_proj = _w(rng, (config.embed_dim, config.out_dim))
        else:
            self.out_proj = None

    def parameters(self) -> dict[str, Tensor]:
        params = {"patch_proj": self.patch_proj, "position_table": self.position_table}
        if self.class_embed is not None:
            params["class_embed"] = self.class_embed
        if self.out_proj is not None:
            params["out_proj"] = self.out_proj
        for i, layer in enumerate(self.layers):
            params.update({f"layer{i}.{k}": v for k, v in layer.parameters().items()})
        return params

    def extract_patches(self, image: np.ndarray) -> np.ndarray:
        """Raster-order (N, C*P*P) patch matrix; channel-major within a patch."""
        cfg = self.config
        c, h, w = image.shape
        if (c, h, w) != (cfg.channels, cfg.image_size, cfg.image_size):
            raise ContractError(
                f"image shape {image.shape} vs configured "
                f"({cfg.channels}, {cfg.image_size}, {cfg.image_size})"
            )
        p = cfg.patch_size
        grid = cfg.image_size // p
        patches = np.empty((grid * grid, cfg.channels * p * p))
        idx = 0
        for gy in range(grid):
            for gx in range(grid):
                patches[idx] = image[:, gy * p:(gy + 1) * p, gx * p:(gx + 1) * p].reshape(-1)
                idx += 1
        return patches

    def encode_patches(self, patches: np.ndarray, train: bool = False,
                       rng: np.random.Generator | None = None) -> Tensor:
        x = ad.matmul(Tensor(patches), self.patch_proj)
        if self.class_embed is not None:
            x = ad.concat([self.class_embed.reshape(1, -1), x], axis=0)
        x = ad.add(x, self.position_table)
        for layer in self.layers:
            x = layer(x, train, rng)
        if self.out_proj is not None:
            x = ad.matmul(x, self.out_proj)
        return x

    def encode(self, image: np.ndarray, train: bool = False,
               rng: np.random.Generator | None = None) -> Tensor:
        return self.encode_patches(self.extract_patches(image), train, rng)


# ---------------------------------------------------------------------------
# residual convolution encoder


@dataclass
class ConvEncoderConfig:
    in_channels: int = 3
    image_size: int = 32
    stem_channels: int = 8
    stem_kernel: int = 3
    stem_stride: int = 1
    stage_channels: tuple[int, int, int] = (8, 12, 16)
    out_dim: int = 64

    def __post_init__(self):
        downsample = self.stem_stride * 2 ** len(self.stage_channels)
        if self.image_size % downsample != 0:
            raise ConfigError(
                f"image size {self.image_size} not divisible by total stride {downsample}"
            )

    @property
    def grid(self) -> int:
        return self.image_size // (self.stem_stride * 2 ** len(self.stage_channels))

    @property
    def feature_dim(self) -> int:
        return self.stage_channels[-1]


class ResidualBlock:
    """conv3x3(stride) -> relu -> conv3x3 plus a (projected) shortcut."""

    def __init__(self, c_in: int, c_out: int, stride: int, rng: np.random.Generator):
        self.stride = stride
        self.w1 = Tensor(rng.normal(0.0, math.sqrt(2.0 / (c_in * 9)), (c_out, c_in, 3, 3)),
                         requires_grad=True)
        self.b1 = _zeros(c_out)
        self.w2 = Tensor(rng.normal(0.0, math.sqrt(2.0 / (c_out * 9)), (c_out, c_out, 3, 3)),
                         requires_grad=True)
        self.b2 = _zeros(c_out)
        if stride != 1 or c_in != c_out:
            self.ws = Tensor(rng.normal(0.0, math.sqrt(2.0 / c_in), (c_out, c_in, 1, 1)),
                             requires_grad=True)
            self.bs = _zeros(c_out)
        else:
            self.ws = None
            self.bs = None

    def parameters(self) -> dict[str, Tensor]:
        params = {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}
        if self.ws is not None:
            params.update({"ws": self.ws, "bs": self.bs})
        return params

    def __call__(self, x: Tensor) -> Tensor:
        h = ad.relu(ad.conv2d(x, self.w1, self.b1, stride=self.stride, padding=1))
        h = ad.conv2d(h, self.w2, self.b2, stride=1, padding=1)
        if self.ws is not None:
            shortcut = ad.conv2d(x, self.ws, self.bs, stride=self.stride, padding=0)
        else:
            shortcut = x
        return ad.relu(ad.add(h, shortcut))


class ConvEncoder:
    """Stem + 3 stages of 2 residual blocks -> (grid^2, d) visual tokens.

    The final feature map (c_out, g, g) flattens to g^2 tokens which an
    affine map takes into the shared d-dimensional text space.
    """

    def __init__(self, config: ConvEncoderConfig, rng: np.random.Generator):
        self.config = config
        k = config.stem_kernel
        self.stem_w = Tensor(
            rng.normal(0.0, math.sqrt(2.0 / (config.in_channels * k * k)),
                       (config.stem_channels, config.in_channels, k, k)),
            requires_grad=True)
        self.stem_b = _zeros(config.stem_channels)
        self.blocks: list[ResidualBlock] = []
        c_prev = config.stem_channels
        for c_out in config.stage_channels:
            self.blocks.append(ResidualBlock(c_prev, c_out, 2, rng))
            self.blocks.append(ResidualBlock(c_out, c_out, 1, rng))
            c_prev = c_out
        self.proj_w = _w(rng, (config.feature_dim, config.out_dim))
        self.proj_b = _zeros(config.out_dim)

    def parameters(self) -> dict[str, Tensor]:
        params = {"stem_w": self.stem_w, "stem_b": self.stem_b,
                  "proj_w": self.proj_w, "proj_b": self.proj_b}
        for i, block in enumerate(self.blocks):
            params.update({f"block{i}.{k}": v for k, v in block.parameters().items()})
        return params

    def encode(self, image: np.ndarray, train: bool = False,
               rng: np.random.Generator | None = None) -> Tensor:
        cfg = self.config
        if image.shape != (cfg.in_channels, cfg.image_size, cfg.image_size):
            raise ContractError(
                f"image shape {image.shape} vs configured "
                f"({cfg.in_channels}, {cfg.image_size}, {cfg.image_size})"
            )
        pad = cfg.stem_kernel // 2
        x = ad.relu(ad.conv2d(Tensor(image), self.stem_w, self.stem_b,
                              stride=cfg.stem_stride, padding=pad))
        for block in self.blocks:
            x = block(x)
        g = cfg.grid
        tokens = ad.transpose2d(x.reshape(cfg.feature_dim, g * g))
        return ad.linear(tokens, self.proj_w, self.proj_b)
