"""Full model assembly: encoders -> alignment heads -> cross-attention
fusion -> label emissions -> CRF.

`ModelConfig` is the model's one config: every component reads its sizes
from it, and constructing it checks every shape constraint (a visual
path's only when that path is on), so a bad size fails before any draw.

The visual paths are data: `paths` maps "vit", then "conv" (each only when
enabled) to a `VisualPath` of encoder, fusion block, and text and image
projection heads, built in that order. The order fixes the seeded init
draws and the parameter names (`{key}.*`, `{key}_fusion.*`,
`{key}_text_head.*`, `{key}_image_head.*`) in order, and so the checkpoint
and Adam state layouts.

`forward_batch` is the one forward pass. It takes a batch's id lists and
its (B, C, H, W) image stack and runs each stage once: the text encoder
over the padded (B, n_max+2, d) rows, each visual encoder over the stack,
each fusion block over the (B, n_max, d) token rows against its (B, P, d)
visual tokens, and the emission map. It returns the padded emissions,
each sentence's truncated length, and per path the (B, d) CLS text rows
and mean visual tokens, which `batch_losses` passes through each
projection head once; the CRF takes the padded emissions and lengths.
`decode`, the one decode, runs it and one Viterbi on each length-sorted
chunk of at most `DECODE_CHUNK` sentences; `predict` is `decode` of one
sentence. Padded rows never reach a real one: padded text keys are masked
out of self-attention, padded query rows only give rows the CRF never
reads, and no padded row draws dropout. Given generators (training),
sentence i draws its dropout masks from its own, rngs[i], in a fixed order
(text, ViT, ViT fusion, conv fusion; the conv stack draws none), so its
masks, like its outputs, do not depend on its neighbours or its padding.

At inference the model keeps, per path key, a one-entry memo of the last
encode: a copy of the image stack, the output, and, once the stack has
repeated, the `version` stamp of each of that encoder's parameters. It is
consulted only when no graph is recorded (no generators, under `no_grad`,
as in `predict`), and hits only when the image stack equals its copy bit
for bit and every stamp is unchanged. Stamps are unique and any rebinding
of `Tensor.data` (`=`, `+=`, Adam, `load_parameters`) draws a new one, so a
weight change is a miss, as long as a write through a view of `data` calls
`touch()` after it (as `gradcheck.numeric_gradient` does). A miss encodes
as usual and replaces the entry; graph-recording calls never read or write
it. A run of one repeated image encodes twice: at its first sighting, and
at the second, which stores the stamps that later calls hit.
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
from mmner.encoders import ConvEncoder, TextEncoder, VitEncoder, check_heads

# sentences per forward in `decode`: its activations set peak memory, and
# a chunk of 16 raised predict_long's peak RSS from 55.8 MB to 59.6-63.5 MB
DECODE_CHUNK = 8


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
    conv_stem_channels: int = 8
    conv_stage_channels: tuple[int, int, int] = (8, 12, 16)
    proj_hidden: int = 64
    proj_out: int = 64
    dropout: float = 0.1
    use_vit: bool = True
    use_resnet: bool = True
    use_contrastive: bool = True
    mask_invalid_transitions: bool = False

    def __post_init__(self):
        check_heads(self.d, self.heads)
        if self.max_len < 3:
            raise ConfigError(f"max_len={self.max_len} cannot hold CLS + token + SEP")
        if self.use_vit and self.image_size % self.patch_size != 0:
            raise ConfigError(
                f"image size {self.image_size} not divisible by patch size {self.patch_size}"
            )
        downsample = 2 ** len(self.conv_stage_channels)
        if self.use_resnet and self.image_size % downsample != 0:
            raise ConfigError(
                f"image size {self.image_size} not divisible by total stride {downsample}"
            )


def _identical(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@dataclass
class VisualPath:
    encoder: VitEncoder | ConvEncoder
    fusion: CrossAttentionBlock
    text_head: ProjectionHead
    image_head: ProjectionHead


class _Undrawn:
    """Stands in for the init generator: each component's `rng.normal(loc,
    scale, size)` init draw returns zeros of that size instead."""

    @staticmethod
    def normal(loc, scale, size) -> np.ndarray:
        return np.zeros(size)


class MultimodalNerModel:
    def __init__(self, config: ModelConfig, vocab_size: int, seed: int | None):
        """An int seed draws the init; None draws nothing and gives every
        parameter its shape with zeros where a draw would be, for
        `load_parameters` to fill (as `load_run` does)."""
        self.config = config
        self.schema = LabelSchema()
        rng = _Undrawn if seed is None else np.random.default_rng(seed)
        self.text = TextEncoder(config, vocab_size, rng)
        self.paths: dict[str, VisualPath] = {}
        for key, enabled, encoder in (("vit", config.use_vit, VitEncoder),
                                      ("conv", config.use_resnet, ConvEncoder)):
            if enabled:  # the seeded draws go encoder, fusion, text head, image head
                self.paths[key] = VisualPath(
                    encoder(config, rng),
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
        # path key -> (image copy, encoder parameter versions or None, output); see module doc
        self._encoded: dict[str, tuple[np.ndarray, tuple[int, ...] | None, Tensor]] = {}

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
        """Fill every parameter from `arrays` by name, checking names and shapes;
        a float32 array, as `load_checkpoint` gives, is widened once as it is assigned."""
        params = self.parameters()
        missing = sorted(set(params) - set(arrays))
        extra = sorted(set(arrays) - set(params))
        if missing or extra:
            if any(n.startswith("crf.") for n in missing + extra):
                raise ConfigError("checkpoint label set does not match this model's schema")
            raise ConfigError(
                f"checkpoint/model mismatch (missing {missing[:3]}, unexpected {extra[:3]})")
        for name, tensor in params.items():
            arr = arrays[name]
            if tuple(arr.shape) != tensor.shape:
                hint = (" (a different label schema, or the older (L+2)x(L+2) CRF layout?)"
                        if name.startswith("crf.") else
                        " (vocab.txt does not match the checkpoint?)"
                        if name == "text.token_table" else "")
                raise ConfigError(
                    f"parameter {name}: checkpoint shape {arr.shape} vs model {tensor.shape}{hint}")
            tensor.data = np.ascontiguousarray(arr, dtype=np.float64)
            tensor.grad = None

    # -- forward ------------------------------------------------------------

    def _encode_image(self, key: str, images: np.ndarray,
                      rngs: list[np.random.Generator] | None) -> Tensor:
        encoder = self.paths[key].encoder
        if rngs is not None or ad._grad_enabled():
            return encoder.encode(images, rngs)
        entry = self._encoded.get(key)
        stamps = None
        if entry is not None and _identical(entry[0], images):
            stamps = tuple(p.version for p in encoder.parameters().values())
            if entry[1] == stamps:
                return entry[2]
        out = encoder.encode(images)
        self._encoded[key] = (images.copy(), stamps, out)
        return out

    def forward_batch(self, token_ids: list[list[int]], images: np.ndarray,
                      rngs: list[np.random.Generator] | None = None):
        """The batch's padded emissions (B, n_max, L), each sentence's
        truncated length n_i, and a dict mapping each path key to the (B, d)
        text CLS rows and mean visual tokens its contrastive term needs.
        `images` is the (B, C, H, W) stack, row i belonging to sentence i;
        given `rngs`, sentence i draws its dropout masks from rngs[i]."""
        lengths = self.text.lengths(token_ids)
        text_rows = self.text.encode(token_ids, rngs)
        tokens = text_rows[:, 1:max(lengths) + 1]
        pooled_text = text_rows[:, 0]
        fused, pooled = [], {}
        for key, path in self.paths.items():
            visual = self._encode_image(key, images, rngs)
            fused.append(path.fusion(tokens, visual, rngs, lengths))
            pooled[key] = (pooled_text, ad.mean(visual, axis=1))
        if len(fused) > 1:
            fused = [ad.concat(fused, axis=-1)]
        return self.crf.emissions(fused[0] if fused else tokens), lengths, pooled

    def batch_losses(self, batch: Batch, rngs: list[np.random.Generator] | None = None,
                     tau: float = 0.07):
        """Mean CRF NLL over the batch plus the two contrastive terms.

        A disabled image path (or a batch too small to form negative
        pairs) contributes an exact scalar zero.
        """
        emissions, lengths, pooled = self.forward_batch(
            batch.token_ids, np.stack(batch.images), rngs)
        crf_nll = self.crf.nll(emissions, lengths,
                               [labels[:n] for n, labels in zip(lengths, batch.label_ids)])
        terms = []
        for key in ("vit", "conv"):
            if key not in pooled or not self.config.use_contrastive or len(lengths) < 2:
                terms.append(Tensor(0.0))
                continue
            path = self.paths[key]
            text, visual = pooled[key]
            terms.append(contrastive_loss(path.text_head(text), path.image_head(visual), tau))
        return crf_nll, *terms

    def decode(self, token_ids: list[list[int]], images: list[np.ndarray]) -> list[list[str]]:
        """Viterbi tags per sentence, in input order; images[i] is sentence
        i's (C, H, W) image, and tokens past max_len - 2 get "O". Sentences
        run DECODE_CHUNK at a time in order of truncated length, so a chunk
        pads little (Vaswani et al., arXiv 1706.03762, 5.1) and no call builds
        an unbounded batch; a chunk moves emissions only through rounding."""
        lengths = self.text.lengths(token_ids)
        order = sorted(range(len(token_ids)), key=lengths.__getitem__)
        tags: list[list[str]] = [[] for _ in token_ids]
        with ad.no_grad():
            for lo in range(0, len(order), DECODE_CHUNK):
                chunk = order[lo:lo + DECODE_CHUNK]
                emissions, chunk_lengths, _ = self.forward_batch(
                    [token_ids[i] for i in chunk], np.stack([images[i] for i in chunk]))
                for i, (path, _) in zip(chunk, self.crf.viterbi(emissions, chunk_lengths)):
                    tags[i] = self.schema.decode(path) + ["O"] * (len(token_ids[i]) - lengths[i])
        return tags

    def predict(self, token_ids: list[int], image: np.ndarray) -> list[str]:
        """`decode` of one sentence and its (C, H, W) image."""
        return self.decode([token_ids], [image])[0]
