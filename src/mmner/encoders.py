"""The three feature extractors: text transformer, patch transformer
(ViT-style), and a small residual convolution stack.

Each reads its sizes from the model's one config, `ModelConfig`, whose
construction checks every shape constraint. Both transformers are `d` wide,
and every image has `CHANNELS` = 3 channels, as `read_ppm` returns them.

All weights are randomly initialized (normal, std 0.02 for embeddings and
projection matrices; conv kernels use fan-in scaling; LN affine starts at
identity). Every transformer-style block is a `SublayerBlock`: an attention
sublayer, then an MLP sublayer, in one of three orderings. The text branch
normalizes the sublayer output before the residual add, the patch branch
the sublayer input, and the fusion blocks (`collaboration`) the residual
sum. The block draws and lists every map it holds: its one attention
sublayer, `attend`, maps queries and keys/values through (d_in, d_out)
matrices `wq`, `wk`, `wv`, each with a bias or none, runs `ad.attention`
and maps the heads by `wo`. `TransformerLayer` attends over its own rows,
with biases and a key mask, and `collaboration.CrossAttentionBlock` over
visual tokens, without biases.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from mmner import autodiff as ad
from mmner.autodiff import ConfigError, ContractError, Tensor
from mmner.data import PAD_ID, UNK_ID

if TYPE_CHECKING:
    from mmner.model import ModelConfig

CHANNELS = 3
TEXT_SUBLAYER = "ln_then_add"   # y = LN(f(x)) + x, text branch
VIT_SUBLAYER = "pre_ln"         # y = f(LN(x)) + x, patch branch
FUSION_SUBLAYER = "post_ln"     # y = LN(f(x) + x), fusion blocks


def _w(rng: np.random.Generator, shape, std: float = 0.02) -> Tensor:
    return Tensor(rng.normal(0.0, std, shape), requires_grad=True)


def _zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


def _ones(shape) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=True)


def check_heads(d: int, heads: int) -> None:
    """A d-wide attention needs d >= 1 and heads >= 1 dividing d."""
    if d < 1 or heads < 1 or d % heads != 0:
        raise ConfigError(f"d={d} not divisible by heads={heads}")


def _with_parts(params: dict[str, Tensor], prefix: str, parts) -> dict[str, Tensor]:
    """params plus the parameters of parts[i] named f"{prefix}{i}.*"."""
    for i, part in enumerate(parts):
        params.update({f"{prefix}{i}.{k}": v for k, v in part.parameters().items()})
    return params


class SublayerBlock:
    """An attention sublayer, then an MLP sublayer, each with dropout, a residual
    add and a LayerNorm in `sublayer` order. The attention maps `wq`, `wk`,
    `wv`, `wo` are drawn first, as (d_in, d_out) matrices, with zero biases
    `bq` ... `bo` when `bias` is true and None otherwise."""

    def __init__(self, d: int, heads: int, rng: np.random.Generator, sublayer: str,
                 mlp_ratio: int, dropout: float, bias: bool):
        check_heads(d, heads)
        self.heads = heads
        self.sublayer = sublayer
        self.dropout = dropout
        self.wq, self.wk, self.wv, self.wo = (_w(rng, (d, d)) for _ in range(4))
        self.bq, self.bk, self.bv, self.bo = (_zeros(d) if bias else None for _ in range(4))
        self.ln1_g, self.ln1_b = _ones(d), _zeros(d)
        self.mlp_w1 = _w(rng, (d, mlp_ratio * d))
        self.mlp_b1 = _zeros(mlp_ratio * d)
        self.mlp_w2 = _w(rng, (mlp_ratio * d, d))
        self.mlp_b2 = _zeros(d)
        self.ln2_g, self.ln2_b = _ones(d), _zeros(d)

    def parameters(self) -> dict[str, Tensor]:
        return {
            **{f"attn.{k}": v for k in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")
               if (v := getattr(self, k)) is not None},
            "ln1_g": self.ln1_g, "ln1_b": self.ln1_b,
            "mlp_w1": self.mlp_w1, "mlp_b1": self.mlp_b1,
            "mlp_w2": self.mlp_w2, "mlp_b2": self.mlp_b2,
            "ln2_g": self.ln2_g, "ln2_b": self.ln2_b,
        }

    def attend(self, x: Tensor, kv: Tensor | None = None,
               mask: np.ndarray | None = None) -> Tensor:
        """Every head's attention of x's rows over kv's unmasked rows (x's own
        when kv is None), mapped by wo. Head i reads and writes columns
        i*d/m:(i+1)*d/m of each map."""
        kv = x if kv is None else kv
        heads = ad.attention(ad.linear(x, self.wq, self.bq), ad.linear(kv, self.wk, self.bk),
                             ad.linear(kv, self.wv, self.bv), self.heads, mask)
        return ad.linear(heads, self.wo, self.bo)

    def _mlp(self, x: Tensor) -> Tensor:
        h = ad.gelu(ad.linear(x, self.mlp_w1, self.mlp_b1))
        return ad.linear(h, self.mlp_w2, self.mlp_b2)

    def _sublayers(self, x: Tensor, attend, rngs, lengths) -> Tensor:
        """The attention sublayer with f = attend, then the MLP sublayer."""
        for f, g, b in ((attend, self.ln1_g, self.ln1_b), (self._mlp, self.ln2_g, self.ln2_b)):
            if self.sublayer == VIT_SUBLAYER:
                x = ad.add(ad.dropout(f(ad.layer_norm(x, g, b)), self.dropout, rngs, lengths), x)
                continue
            out = ad.dropout(f(x), self.dropout, rngs, lengths)
            x = (ad.add(ad.layer_norm(out, g, b), x) if self.sublayer == TEXT_SUBLAYER
                 else ad.layer_norm(ad.add(out, x), g, b))
        return x


class TransformerLayer(SublayerBlock):
    """One MHSA + MLP layer in the text or patch ordering, over (rows, d) or
    a padded (B, rows, d) batch. Item i's first lengths[i] rows are real:
    the rest are masked out of the attention keys and draw no dropout."""

    def __init__(self, d: int, heads: int, rng: np.random.Generator,
                 sublayer: str, mlp_ratio: int = 4, dropout: float = 0.0):
        if sublayer not in (TEXT_SUBLAYER, VIT_SUBLAYER):
            raise ConfigError(f"unknown sublayer ordering {sublayer!r}")
        super().__init__(d, heads, rng, sublayer, mlp_ratio, dropout, bias=True)

    def __call__(self, x: Tensor, rngs: list[np.random.Generator] | None = None,
                 lengths: list[int] | None = None) -> Tensor:
        rows = x.shape[-2]
        mask = None
        if lengths is not None and min(lengths) < rows:
            mask = np.arange(rows) < np.asarray(lengths)[:, None]
        return self._sublayers(x, lambda h: self.attend(h, mask=mask), rngs, lengths)


# ---------------------------------------------------------------------------
# text encoder


class TextEncoder:
    """A batch of id lists -> (B, n_max+2, d) rows: sentence i's row 0 is
    CLS, rows 1..n_i its tokens, row n_i+1 SEP, and the rest PAD rows that
    never reach a real one (see `TransformerLayer`).

    Unknown ids map to the reserved UNK id; overlong sentences truncate to
    max_len - 2 tokens (`lengths`), the only truncation: callers cut labels
    to the rows they get back and count cut sentences through `lengths`.
    """

    def __init__(self, config: ModelConfig, vocab_size: int, rng: np.random.Generator):
        self.max_len = config.max_len
        self.vocab_size = vocab_size
        self.cls_id = vocab_size
        self.sep_id = vocab_size + 1
        self.token_table = _w(rng, (vocab_size + 2, config.d))
        self.position_table = _w(rng, (config.max_len, config.d))
        self.layers = [
            TransformerLayer(config.d, config.heads, rng, TEXT_SUBLAYER,
                             config.mlp_ratio, config.dropout)
            for _ in range(config.text_layers)
        ]

    def parameters(self) -> dict[str, Tensor]:
        return _with_parts({"token_table": self.token_table,
                            "position_table": self.position_table}, "layer", self.layers)

    def lengths(self, token_ids: list[list[int]]) -> list[int]:
        """Each sentence's token count after truncation."""
        return [min(len(ids), self.max_len - 2) for ids in token_ids]

    def encode(self, token_ids: list[list[int]],
               rngs: list[np.random.Generator] | None = None) -> Tensor:
        if not token_ids or min(map(len, token_ids)) < 1:
            raise ContractError("text_encode needs at least one token per sentence")
        lengths = [n + 2 for n in self.lengths(token_ids)]
        framed = np.full((len(token_ids), max(lengths)), PAD_ID)
        for row, ids, n in zip(framed, token_ids, lengths):
            row[0] = self.cls_id
            row[1:n - 1] = [t if 0 <= t < self.vocab_size else UNK_ID for t in ids[:n - 2]]
            row[n - 1] = self.sep_id
        x = ad.add(
            ad.embedding_gather(self.token_table, framed),
            self.position_table[: framed.shape[1]],
        )
        for layer in self.layers:
            x = layer(x, rngs, lengths)
        return x


# ---------------------------------------------------------------------------
# patch (ViT-style) encoder


class VitEncoder:
    """(..., C, H, W) images -> one d-wide row per patch after K transformer
    layers, (..., P, d); given generators, a stack's image i draws its
    dropout masks from rngs[i]."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        self.image_size = config.image_size
        self.patch_size = config.patch_size
        grid = config.image_size // config.patch_size
        self.patch_proj = _w(rng, (CHANNELS * config.patch_size**2, config.d))
        self.position_table = _w(rng, (grid * grid, config.d))
        self.layers = [
            TransformerLayer(config.d, config.heads, rng, VIT_SUBLAYER,
                             config.mlp_ratio, config.dropout)
            for _ in range(config.vit_layers)
        ]

    def parameters(self) -> dict[str, Tensor]:
        return _with_parts({"patch_proj": self.patch_proj,
                            "position_table": self.position_table}, "layer", self.layers)

    def extract_patches(self, images: np.ndarray) -> np.ndarray:
        """Raster-order (..., P, C*p*p) patch matrices; channel-major within a patch."""
        c, size, p = CHANNELS, self.image_size, self.patch_size
        lead = images.shape[:-3]
        if images.shape[-3:] != (c, size, size):
            raise ContractError(
                f"image shape {images.shape} vs configured (..., {c}, {size}, {size})"
            )
        g = size // p
        patches = images.reshape(-1, c, g, p, g, p).transpose(0, 2, 4, 1, 3, 5)
        return patches.reshape(*lead, g * g, c * p * p)

    def encode_patches(self, patches: np.ndarray,
                       rngs: list[np.random.Generator] | None = None) -> Tensor:
        x = ad.add(ad.linear(Tensor(patches), self.patch_proj), self.position_table)
        for layer in self.layers:
            x = layer(x, rngs)
        return x

    def encode(self, images: np.ndarray, rngs: list[np.random.Generator] | None = None) -> Tensor:
        return self.encode_patches(self.extract_patches(images), rngs)


# ---------------------------------------------------------------------------
# residual convolution encoder


class ResidualBlock:
    """conv3x3(stride) -> relu -> conv3x3 plus a (projected) shortcut."""

    def __init__(self, c_in: int, c_out: int, stride: int, rng: np.random.Generator):
        self.stride = stride
        self.w1 = _w(rng, (c_out, c_in, 3, 3), math.sqrt(2.0 / (c_in * 9)))
        self.b1 = _zeros(c_out)
        self.w2 = _w(rng, (c_out, c_out, 3, 3), math.sqrt(2.0 / (c_out * 9)))
        self.b2 = _zeros(c_out)
        self.ws = self.bs = None  # identity shortcut
        if stride != 1 or c_in != c_out:
            self.ws = _w(rng, (c_out, c_in, 1, 1), math.sqrt(2.0 / c_in))
            self.bs = _zeros(c_out)

    def parameters(self) -> dict[str, Tensor]:
        params = {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}
        if self.ws is not None:
            params.update({"ws": self.ws, "bs": self.bs})
        return params

    def __call__(self, x: Tensor) -> Tensor:
        h = ad.relu(ad.conv2d(x, self.w1, self.b1, stride=self.stride, padding=1))
        h = ad.conv2d(h, self.w2, self.b2, stride=1, padding=1)
        shortcut = (x if self.ws is None
                    else ad.conv2d(x, self.ws, self.bs, stride=self.stride, padding=0))
        return ad.relu(ad.add(h, shortcut))


class ConvEncoder:
    """Stem + 3 stages of 2 residual blocks -> (grid^2, d) visual tokens per image.

    Each image's final feature map (c_out, g, g) flattens to g^2 tokens
    which an affine map takes into the shared d-dimensional text space.
    """

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        self.image_size = config.image_size
        self.grid = config.image_size // 2 ** len(config.conv_stage_channels)
        self.stem_w = _w(rng, (config.conv_stem_channels, CHANNELS, 3, 3),
                         math.sqrt(2.0 / (CHANNELS * 9)))
        self.stem_b = _zeros(config.conv_stem_channels)
        self.blocks: list[ResidualBlock] = []
        c_prev = config.conv_stem_channels
        for c_out in config.conv_stage_channels:
            self.blocks.append(ResidualBlock(c_prev, c_out, 2, rng))
            self.blocks.append(ResidualBlock(c_out, c_out, 1, rng))
            c_prev = c_out
        self.proj_w = _w(rng, (c_prev, config.d))
        self.proj_b = _zeros(config.d)

    def parameters(self) -> dict[str, Tensor]:
        return _with_parts({"stem_w": self.stem_w, "stem_b": self.stem_b,
                            "proj_w": self.proj_w, "proj_b": self.proj_b}, "block", self.blocks)

    def encode(self, images: np.ndarray, rngs: list[np.random.Generator] | None = None) -> Tensor:
        """(N, C, H, W) images -> (N, g^2, d) tokens, the whole stack in each conv.

        The stack draws no dropout; it takes `rngs` only for the ViT's call shape.
        """
        size = self.image_size
        if images.shape[1:] != (CHANNELS, size, size):
            raise ContractError(
                f"image stack shape {images.shape} vs configured "
                f"(N, {CHANNELS}, {size}, {size})"
            )
        x = ad.relu(ad.conv2d(Tensor(images), self.stem_w, self.stem_b, stride=1, padding=1))
        for block in self.blocks:
            x = block(x)
        g = self.grid
        tokens = ad.transpose2d(x.reshape(len(images), self.proj_w.shape[0], g * g))
        return ad.linear(tokens, self.proj_w, self.proj_b)
