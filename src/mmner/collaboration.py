"""Cross-modal attention fusion: text tokens query visual tokens.

Per head i, with d/m-dimensional projections of queries (text rows) and
keys/values (visual rows), attention logits are scaled by sqrt(d/m).
Head outputs are concatenated and mapped by an output matrix. It is an
`encoders.SublayerBlock`, the shape the text and patch layers share, with
bias-free attention maps: it runs `attend(text, visual)`, then the MLP,
each as y = LN(x + f(x)) (`post_ln`), giving image-aware token rows of the
query shape. `__call__` checks shapes.

A call takes (n, d) queries and (P, d) visual tokens, or a batch of them
with one leading axis. No key is padded, so none is masked; a padded query
row only gives a row its caller drops. Sentence i's first lengths[i] rows
draw dropout, from rngs[i].
"""

from __future__ import annotations

import numpy as np

from mmner.autodiff import ShapeError, Tensor
from mmner.encoders import FUSION_SUBLAYER, SublayerBlock


class CrossAttentionBlock(SublayerBlock):
    def __init__(self, d: int, heads: int, rng: np.random.Generator,
                 mlp_ratio: int = 4, dropout: float = 0.0):
        self.d = d
        super().__init__(d, heads, rng, FUSION_SUBLAYER, mlp_ratio, dropout, bias=False)

    def __call__(self, text: Tensor, visual: Tensor, rngs: list[np.random.Generator] | None = None,
                 lengths: list[int] | None = None) -> Tensor:
        if (text.ndim not in (2, 3) or visual.ndim != text.ndim
                or text.shape[:-2] != visual.shape[:-2]
                or text.shape[-1] != self.d or visual.shape[-1] != self.d):
            raise ShapeError(f"text {text.shape} / visual {visual.shape}: expected "
                             f"(n, {self.d}) / (P, {self.d}), with one shared batch axis or none")
        return self._sublayers(text, lambda t: self.attend(t, visual), rngs, lengths)
