"""Full model assembly: encoders -> alignment heads -> cross-attention
fusion -> label emissions -> CRF.

The visual paths are data: `paths` maps "vit", then "conv" (each only when
enabled) to a `VisualPath` of encoder, fusion block, and text and image
projection heads, built in that order. The order fixes the seeded init
draws and the parameter names (`{key}.*`, `{key}_fusion.*`,
`{key}_text_head.*`, `{key}_image_head.*`) in order, and so the checkpoint
and Adam state layouts.

`forward` is the one forward pass: a generator over a batch's id lists and
its (N, C, H, W) image stack that yields, per sentence, the emissions and
each path's pooled pair. `batch_losses` builds sentence i's NLL before it
asks for sentence i+1; `predict` takes the one sentence of a stack of one.
Text rows 1..n (real tokens, CLS/SEP excluded; `TextEncoder` truncates)
query each path's visual tokens, and the fused outputs are concatenated
feature-wise before the emission map. The text CLS row and the mean of a
path's visual tokens feed that path's projection heads, whose batch outputs
give its contrastive term. A path whose encoder takes a whole stack (the
conv stack) encodes it once before the first sentence; the ViT encodes per
sentence. Dropout draws keep their per-sentence order (text, ViT, ViT
fusion, conv fusion) on the one shared rng; the conv stack draws none.

At inference the model keeps, per path key, a one-entry memo of the last
encode: a copy of the image (the image stack, on the conv path), the
output, and, once the image has repeated, a copy of each of that encoder's
parameter arrays. It is consulted only when no graph is recorded
(`train=False` under `no_grad`, as in `predict`), and hits only when the
image and every encoder parameter equal their stored copies by value,
compared bit for bit (same dtype, shape and bytes). Any change to the
weights, by reassignment or in place, or to the image is therefore a miss,
which encodes as usual and replaces the entry; graph-recording calls never
read or write it. A new image takes no weight snapshot (copying ~1 MB of
desk-model weights on every call would slow streams of distinct images),
so a run of one repeated image encodes twice: at its first sighting and at
the second, which stores the snapshot that later calls hit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mmner import autodiff as ad
from mmner.autodiff import ConfigError, Tensor
from mmner.alignment import ProjectionHead, contrastive_loss
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


def _identical(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@dataclass
class VisualPath:
    encoder: VitEncoder | ConvEncoder
    fusion: CrossAttentionBlock
    text_head: ProjectionHead
    image_head: ProjectionHead


class MultimodalNerModel:
    def __init__(self, config: ModelConfig, vocab_size: int, seed: int):
        self.config = config
        self.schema = LabelSchema()
        rng = np.random.default_rng(seed)
        self.text = TextEncoder(
            TextEncoderConfig(
                vocab_size=vocab_size, d=config.d, layers=config.text_layers,
                heads=config.heads, max_len=config.max_len,
                mlp_ratio=config.mlp_ratio, dropout=config.dropout,
            ),
            rng,
        )
        encoders = (
            ("vit", config.use_vit, lambda: VitEncoder(
                VitConfig(
                    image_size=config.image_size, patch_size=config.patch_size,
                    embed_dim=config.vit_embed_dim, out_dim=config.d,
                    layers=config.vit_layers, heads=config.heads,
                    mlp_ratio=config.mlp_ratio, dropout=config.dropout,
                ),
                rng,
            )),
            ("conv", config.use_resnet, lambda: ConvEncoder(
                ConvEncoderConfig(
                    image_size=config.image_size,
                    stem_channels=config.conv_stem_channels,
                    stem_kernel=config.conv_stem_kernel,
                    stem_stride=config.conv_stem_stride,
                    stage_channels=config.conv_stage_channels,
                    out_dim=config.d,
                ),
                rng,
            )),
        )
        self.paths: dict[str, VisualPath] = {}
        for key, enabled, make_encoder in encoders:
            if enabled:  # the seeded draws go encoder, fusion, text head, image head
                self.paths[key] = VisualPath(
                    make_encoder(),
                    CrossAttentionBlock(config.d, config.heads, rng, config.mlp_ratio,
                                        config.dropout),
                    ProjectionHead(config.d, config.proj_hidden, config.proj_out, rng),
                    ProjectionHead(config.d, config.proj_hidden, config.proj_out, rng),
                )
        # perfbench's tracing finds the fusion blocks under these two names
        self.vit_fusion, self.conv_fusion = (
            self.paths[key].fusion if key in self.paths else None for key in ("vit", "conv"))

        self.fused_dim = config.d * max(len(self.paths), 1)
        mask = self.schema.invalid_transition_mask() if config.mask_invalid_transitions else None
        self.crf = LinearChainCrf(self.fused_dim, self.schema.num_labels, rng,
                                  transition_mask=mask)
        # path key -> (image copy, encoder parameter copies or None, output); see module doc
        self._encoded: dict[str, tuple[np.ndarray, list[np.ndarray] | None, Tensor]] = {}

    # -- bookkeeping --------------------------------------------------------

    def _components(self):
        comps = {"text": self.text, "crf": self.crf}
        for key, path in self.paths.items():
            comps.update({
                key: path.encoder, f"{key}_fusion": path.fusion,
                f"{key}_text_head": path.text_head, f"{key}_image_head": path.image_head,
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

    def _encode_image(self, key: str, image: np.ndarray, train: bool,
                      rng: np.random.Generator | None) -> Tensor:
        encoder = self.paths[key].encoder
        if train or ad._grad_enabled():
            return encoder.encode(image, train, rng)
        entry = self._encoded.get(key)
        snapshot = None
        if entry is not None and _identical(entry[0], image):
            weights = [p.data for p in encoder.parameters().values()]
            if entry[1] is not None and all(map(_identical, entry[1], weights)):
                return entry[2]
            snapshot = [w.copy() for w in weights]
        out = encoder.encode(image, train, rng)
        self._encoded[key] = (image.copy(), snapshot, out)
        return out

    def forward(self, token_ids: list[list[int]], images: np.ndarray,
                train: bool = False, rng: np.random.Generator | None = None):
        """Yield, per sentence, its emissions (n, L) and a dict mapping each
        path key to the (text CLS row, mean visual token) pair its
        contrastive term needs. `images` is the (N, C, H, W) stack, row i
        belonging to sentence i."""
        stacked = {key: self._encode_image(key, images, train, rng)
                   for key, path in self.paths.items()
                   if isinstance(path.encoder, ConvEncoder)}
        for i, ids in enumerate(token_ids):
            text_rows = self.text.encode(ids, train, rng)
            tokens = text_rows[1:text_rows.shape[0] - 1]
            pooled_text = text_rows[0]
            fused, pooled = [], {}
            for key, path in self.paths.items():
                if key in stacked:
                    visual = stacked[key][i]
                else:
                    visual = self._encode_image(key, images[i], train, rng)
                fused.append(path.fusion(tokens, visual, train, rng))
                pooled[key] = (pooled_text, ad.mean(visual, axis=0))
            if len(fused) > 1:
                fused = [ad.concat(fused, axis=1)]
            yield self.crf.emissions(fused[0] if fused else tokens), pooled

    def batch_losses(self, batch: Batch, train: bool = False,
                     rng: np.random.Generator | None = None, tau: float = 0.07):
        """Mean CRF NLL over the batch plus the two contrastive terms.

        A disabled image path (or a batch too small to form negative
        pairs) contributes an exact scalar zero.
        """
        nlls = []
        pooled: dict[str, list] = {key: [] for key in self.paths}
        sentences = self.forward(batch.token_ids, np.stack(batch.images), train, rng)
        for (emissions, pairs), label_ids in zip(sentences, batch.label_ids):
            nlls.append(self.crf.nll(emissions, label_ids[:emissions.shape[0]]))
            for key, pair in pairs.items():
                pooled[key].append(pair)
        crf_nll = ad.mean(ad.stack(nlls))
        terms = []
        for key in ("vit", "conv"):
            pairs = pooled.get(key, [])
            if not self.config.use_contrastive or len(pairs) < 2:
                terms.append(Tensor(0.0))
                continue
            path = self.paths[key]
            texts = ad.stack([path.text_head(t) for t, _ in pairs])
            images = ad.stack([path.image_head(v) for _, v in pairs])
            terms.append(contrastive_loss(texts, images, tau))
        return crf_nll, *terms

    def predict(self, token_ids: list[int], image: np.ndarray) -> list[str]:
        """Viterbi-decoded tag strings for one sentence and its (C, H, W) image,
        one per id: tokens past the first max_len - 2 (cut by the text
        encoder) get "O"."""
        with ad.no_grad():
            emissions, _ = next(self.forward([token_ids], image[None]))
            path, _ = self.crf.viterbi(emissions)
        return self.schema.decode(path) + ["O"] * (len(token_ids) - len(path))
