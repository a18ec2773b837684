"""Full model assembly: encoders -> alignment heads -> cross-attention
fusion -> label emissions -> CRF.

Per sentence, text rows 1..n (real tokens, CLS/SEP excluded) query each
active visual path's tokens; the per-path fused outputs are concatenated
feature-wise before the emission map. Pooled text (CLS row) and pooled
visual tokens feed per-path projection heads whose batch outputs give the
two contrastive terms.

At inference the model keeps, per visual path (ViT, conv), a one-entry memo
of the last encode: a copy of the image, the output, and, once the image
has repeated, a copy of each of that encoder's parameter arrays. It is
consulted only when no graph is recorded (`train=False` under `no_grad`, as
in `predict`), and hits only when the image and every encoder parameter
equal their stored copies by value, compared bit for bit (same dtype, shape
and bytes). Any change to the weights, by reassignment or in place, or to
the image is therefore a miss, which encodes as usual and replaces the
entry; graph-recording calls never read or write it. A new image takes no
weight snapshot (copying ~1 MB of desk-model weights on every call would
slow streams of distinct images), so a run of one repeated image encodes
twice: at its first sighting and at the second, which stores the snapshot
that later calls hit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from mmner import autodiff as ad
from mmner.autodiff import ConfigError, Tensor
from mmner.alignment import ProjectionHead, contrastive_loss, pool
from mmner.collaboration import CrossAttentionBlock
from mmner.crf import LabelSchema, LinearChainCrf
from mmner.data import Batch
from mmner.encoders import (
    ConvEncoder,
    ConvEncoderConfig,
    TextEncoder,
    TextEncoderConfig,
    VitConfig,
    VitEncoder,
)


@dataclass
class ModelConfig:
    d: int = 64
    text_layers: int = 2
    vit_layers: int = 2
    heads: int = 4
    max_len: int = 64
    mlp_ratio: int = 4
    image_size: int = 32
    patch_size: int = 8
    vit_embed_dim: int = 64
    conv_stem_channels: int = 8
    conv_stem_kernel: int = 3
    conv_stem_stride: int = 1
    conv_stage_channels: tuple[int, int, int] = (8, 12, 16)
    proj_hidden: int = 64
    proj_out: int = 64
    dropout: float = 0.1
    use_vit: bool = True
    use_resnet: bool = True
    use_contrastive: bool = True
    mask_invalid_transitions: bool = False
    text_pooling: str = "cls_token"
    image_pooling: str = "mean"

    @classmethod
    def desk(cls, **overrides) -> "ModelConfig":
        return cls(**overrides)

    @classmethod
    def paper(cls, **overrides) -> "ModelConfig":
        """Table-faithful dimensions (not trainable without pretrained
        weights; construction alone allocates hundreds of millions of
        parameters)."""
        base = cls(
            d=768, text_layers=12, vit_layers=12, heads=12, max_len=128,
            image_size=224, patch_size=32, vit_embed_dim=768,
            conv_stem_channels=64, conv_stem_kernel=5, conv_stem_stride=4,
            conv_stage_channels=(512, 1024, 2048),
            proj_hidden=768, proj_out=768,
        )
        return replace(base, **overrides)


PRESETS = {"desk": ModelConfig.desk, "paper": ModelConfig.paper}


def _identical(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class MultimodalNerModel:
    def __init__(self, config: ModelConfig, vocab_size: int, seed: int,
                 schema: LabelSchema | None = None):
        self.config = config
        self.schema = schema or LabelSchema()
        rng = np.random.default_rng(seed)
        self.text = TextEncoder(
            TextEncoderConfig(
                vocab_size=vocab_size, d=config.d, layers=config.text_layers,
                heads=config.heads, max_len=config.max_len,
                mlp_ratio=config.mlp_ratio, dropout=config.dropout,
            ),
            rng,
        )
        self.vit: VitEncoder | None = None
        self.conv: ConvEncoder | None = None
        self.vit_fusion: CrossAttentionBlock | None = None
        self.conv_fusion: CrossAttentionBlock | None = None
        self.vit_text_head = self.vit_image_head = None
        self.conv_text_head = self.conv_image_head = None

        if config.use_vit:
            self.vit = VitEncoder(
                VitConfig(
                    image_size=config.image_size, patch_size=config.patch_size,
                    embed_dim=config.vit_embed_dim, out_dim=config.d,
                    layers=config.vit_layers, heads=config.heads,
                    mlp_ratio=config.mlp_ratio, dropout=config.dropout,
                ),
                rng,
            )
            self.vit_fusion = CrossAttentionBlock(
                config.d, config.heads, rng, config.mlp_ratio, config.dropout)
            self.vit_text_head = ProjectionHead(config.d, config.proj_hidden, config.proj_out, rng)
            self.vit_image_head = ProjectionHead(config.d, config.proj_hidden, config.proj_out, rng)
        if config.use_resnet:
            self.conv = ConvEncoder(
                ConvEncoderConfig(
                    image_size=config.image_size,
                    stem_channels=config.conv_stem_channels,
                    stem_kernel=config.conv_stem_kernel,
                    stem_stride=config.conv_stem_stride,
                    stage_channels=config.conv_stage_channels,
                    out_dim=config.d,
                ),
                rng,
            )
            self.conv_fusion = CrossAttentionBlock(
                config.d, config.heads, rng, config.mlp_ratio, config.dropout)
            self.conv_text_head = ProjectionHead(config.d, config.proj_hidden, config.proj_out, rng)
            self.conv_image_head = ProjectionHead(config.d, config.proj_hidden, config.proj_out, rng)

        paths = int(config.use_vit) + int(config.use_resnet)
        self.fused_dim = config.d * max(paths, 1)
        mask = self.schema.invalid_transition_mask() if config.mask_invalid_transitions else None
        self.crf = LinearChainCrf(self.fused_dim, self.schema.num_labels, rng,
                                  transition_mask=mask)
        # path -> (image copy, encoder parameter copies or None, output); see module doc
        self._encoded: dict[str, tuple[np.ndarray, list[np.ndarray] | None, Tensor]] = {}

    # -- bookkeeping --------------------------------------------------------

    def _components(self):
        comps = {"text": self.text, "crf": self.crf}
        if self.vit is not None:
            comps.update({
                "vit": self.vit, "vit_fusion": self.vit_fusion,
                "vit_text_head": self.vit_text_head, "vit_image_head": self.vit_image_head,
            })
        if self.conv is not None:
            comps.update({
                "conv": self.conv, "conv_fusion": self.conv_fusion,
                "conv_text_head": self.conv_text_head, "conv_image_head": self.conv_image_head,
            })
        return comps

    def parameters(self) -> dict[str, Tensor]:
        params: dict[str, Tensor] = {}
        for prefix, comp in self._components().items():
            for name, tensor in comp.parameters().items():
                params[f"{prefix}.{name}"] = tensor
        return params

    def load_parameters(self, arrays: dict[str, np.ndarray]) -> None:
        params = self.parameters()
        missing = sorted(set(params) - set(arrays))
        extra = sorted(set(arrays) - set(params))
        if missing or extra:
            if any(n.startswith("crf.") for n in missing + extra):
                raise ConfigError(
                    "checkpoint label set does not match this model's schema"
                )
            raise ConfigError(
                f"checkpoint/model mismatch (missing {missing[:3]}, unexpected {extra[:3]})"
            )
        for name, tensor in params.items():
            arr = arrays[name]
            if tuple(arr.shape) != tensor.shape:
                hint = " (label schema mismatch?)" if name.startswith("crf.") else ""
                raise ConfigError(
                    f"parameter {name}: checkpoint shape {arr.shape} vs model {tensor.shape}{hint}"
                )
            tensor.data = np.ascontiguousarray(arr, dtype=np.float64)
            tensor.grad = None

    # -- forward ------------------------------------------------------------

    def _truncate(self, token_ids, label_ids):
        limit = self.config.max_len - 2
        return token_ids[:limit], (label_ids[:limit] if label_ids is not None else None)

    def _encode_image(self, path: str, encoder: VitEncoder | ConvEncoder,
                      image: np.ndarray, train: bool,
                      rng: np.random.Generator | None) -> Tensor:
        if train or ad._grad_enabled():
            return encoder.encode(image, train, rng)
        entry = self._encoded.get(path)
        snapshot = None
        if entry is not None and _identical(entry[0], image):
            weights = [p.data for p in encoder.parameters().values()]
            if entry[1] is not None and all(map(_identical, entry[1], weights)):
                return entry[2]
            snapshot = [w.copy() for w in weights]
        out = encoder.encode(image, train, rng)
        self._encoded[path] = (image.copy(), snapshot, out)
        return out

    def sentence_forward(self, token_ids: list[int], image: np.ndarray,
                         train: bool = False, rng: np.random.Generator | None = None):
        """Emissions (n, L) plus the pooled vectors the alignment terms need."""
        text_rows = self.text.encode(token_ids, train, rng)
        n = text_rows.shape[0] - 2
        tokens = text_rows[1:n + 1]
        pooled_text = pool(text_rows, self.config.text_pooling)
        fused_parts = []
        pooled = {}
        if self.vit is not None:
            vis = self._encode_image("vit", self.vit, image, train, rng)
            fused_parts.append(self.vit_fusion(tokens, vis, train, rng))
            pooled["vit"] = (pooled_text, pool(vis, self.config.image_pooling))
        if self.conv is not None:
            vis = self._encode_image("conv", self.conv, image, train, rng)
            fused_parts.append(self.conv_fusion(tokens, vis, train, rng))
            pooled["conv"] = (pooled_text, pool(vis, self.config.image_pooling))
        if fused_parts:
            fused = fused_parts[0] if len(fused_parts) == 1 else ad.concat(fused_parts, axis=1)
        else:
            fused = tokens
        return self.crf.emissions(fused), pooled

    def batch_losses(self, batch: Batch, train: bool = False,
                     rng: np.random.Generator | None = None, tau: float = 0.07):
        """Mean CRF NLL over the batch plus the two contrastive terms.

        A disabled image path (or a batch too small to form negative
        pairs) contributes an exact scalar zero.
        """
        nlls = []
        path_pooled: dict[str, list] = {"vit": [], "conv": []}
        for token_ids, label_ids, image in zip(batch.token_ids, batch.label_ids, batch.images):
            token_ids, label_ids = self._truncate(token_ids, label_ids)
            emissions, pooled = self.sentence_forward(token_ids, image, train, rng)
            nlls.append(self.crf.nll(emissions, label_ids))
            for key, pair in pooled.items():
                path_pooled[key].append(pair)
        crf_nll = ad.mean(ad.stack(nlls))

        def path_loss(key, text_head, image_head):
            pairs = path_pooled[key]
            if not self.config.use_contrastive or len(pairs) < 2:
                return Tensor(0.0)
            texts = ad.stack([text_head(t) for t, _ in pairs])
            images = ad.stack([image_head(v) for _, v in pairs])
            return contrastive_loss(texts, images, tau)

        cl_vit = path_loss("vit", self.vit_text_head, self.vit_image_head) \
            if self.vit is not None else Tensor(0.0)
        cl_conv = path_loss("conv", self.conv_text_head, self.conv_image_head) \
            if self.conv is not None else Tensor(0.0)
        return crf_nll, cl_vit, cl_conv

    def predict(self, token_ids: list[int], image: np.ndarray) -> list[str]:
        """Viterbi-decoded tag strings for one sentence."""
        token_ids, _ = self._truncate(token_ids, None)
        with ad.no_grad():
            emissions, _ = self.sentence_forward(token_ids, image, train=False)
            path, _ = self.crf.viterbi(emissions)
        return self.schema.decode(path)
