"""Cross-modal attention fusion: text tokens query visual tokens.

Per head i, with d/m-dimensional projections of queries (text rows) and
keys/values (visual rows), attention logits are scaled by sqrt(d/m).
Head outputs are concatenated and mapped by an output matrix (`attend`).
It is an `encoders.SublayerBlock`, the shape the text and patch layers
share: it holds and lists its projections and defines `attend`; the base
class runs attention, then the MLP, each as y = LN(x + f(x)) (`post_ln`),
giving image-aware token rows of the query shape. `__call__` checks shapes.

A call takes (n, d) queries and (P, d) visual tokens, or a batch of them
with one leading axis. No key is padded, so none is masked; a padded query
row only gives a row its caller drops. Sentence i's first lengths[i] rows
draw dropout, from rngs[i].

The per-head maps are stored stacked, (m, d/m, d) each for q, k and v, and
applied as one (d, d) projection: row block i of the stack is head i, so
column block i of text @ reshape(wq, (d, d))^T is head i's query. A call
builds each (d, d) map once; one `ad.attention` node runs every head.
"""

from __future__ import annotations

import numpy as np

from mmner import autodiff as ad
from mmner.autodiff import ShapeError, Tensor
from mmner.encoders import FUSION_SUBLAYER, SublayerBlock, _w, check_heads


class CrossAttentionBlock(SublayerBlock):
    def __init__(self, d: int, heads: int, rng: np.random.Generator,
                 mlp_ratio: int = 4, dropout: float = 0.0):
        check_heads(d, heads)
        self.d = d
        self.heads = heads
        # per-head maps stacked on a leading head axis, each (d/m, d)
        self.wq = _w(rng, (heads, d // heads, d))
        self.wk = _w(rng, (heads, d // heads, d))
        self.wv = _w(rng, (heads, d // heads, d))
        self.wo = _w(rng, (d, d))
        super().__init__(d, rng, FUSION_SUBLAYER, mlp_ratio, dropout)

    def attention_parameters(self) -> dict[str, Tensor]:
        return {"wq": self.wq, "wk": self.wk, "wv": self.wv, "wo": self.wo}

    def _map(self, w: Tensor) -> Tensor:
        """The (d_in, d_out) matrix `ad.linear` applies for a stacked map."""
        return ad.transpose2d(ad.reshape(w, (self.d, self.d)))

    def attend(self, text: Tensor, visual: Tensor) -> Tensor:
        """Every head's attention of the text rows over the visual tokens, mapped by wo."""
        heads = ad.attention(ad.linear(text, self._map(self.wq)),
                             ad.linear(visual, self._map(self.wk)),
                             ad.linear(visual, self._map(self.wv)), self.heads)
        return ad.linear(heads, ad.transpose2d(self.wo))

    def __call__(self, text: Tensor, visual: Tensor, rngs: list[np.random.Generator] | None = None,
                 lengths: list[int] | None = None) -> Tensor:
        if (text.ndim not in (2, 3) or text.shape[:-2] != visual.shape[:-2]
                or text.shape[-1] != self.d or visual.shape[-1] != self.d):
            raise ShapeError(f"text {text.shape} / visual {visual.shape}: expected "
                             f"(n, {self.d}) / (P, {self.d}), with one shared batch axis or none")
        return self._sublayers(text, lambda t: self.attend(t, visual), rngs, lengths)
