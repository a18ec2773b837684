"""Cross-modal attention fusion: text tokens query visual tokens.

Per head i, with d/m-dimensional projections of queries (text rows) and
keys/values (visual rows), attention logits are scaled by sqrt(d/m).
Head outputs are concatenated, mapped by an output matrix, then the block
closes with residual + LN and an MLP + LN stage, yielding image-aware
token representations with the query shape.

The per-head maps are stored stacked, (m, d/m, d) each for q, k and v, and
applied as one (d, d) projection: row block i of the stack is head i, so
column block i of text @ reshape(wq, (d, d))^T is head i's query. One
`ad.attention` node then runs all heads.
"""

from __future__ import annotations

import numpy as np

from mmner import autodiff as ad
from mmner.autodiff import ConfigError, ShapeError, Tensor


class CrossAttentionBlock:
    def __init__(self, d: int, heads: int, rng: np.random.Generator,
                 mlp_ratio: int = 4, dropout: float = 0.0):
        if d < 1 or heads < 1 or d % heads != 0:
            raise ConfigError(f"model dim {d} not divisible by {heads} heads")
        self.d = d
        self.heads = heads
        self.head_dim = d // heads
        self.dropout = dropout
        hidden = mlp_ratio * d

        def w(shape, std=0.02):
            return Tensor(rng.normal(0.0, std, shape), requires_grad=True)

        # per-head maps stacked on a leading head axis, each (d/m, d)
        self.wq = w((heads, self.head_dim, d))
        self.wk = w((heads, self.head_dim, d))
        self.wv = w((heads, self.head_dim, d))
        self.wo = w((d, d))
        self.ln1_g = Tensor(np.ones(d), requires_grad=True)
        self.ln1_b = Tensor(np.zeros(d), requires_grad=True)
        self.mlp_w1 = w((d, hidden))
        self.mlp_b1 = Tensor(np.zeros(hidden), requires_grad=True)
        self.mlp_w2 = w((hidden, d))
        self.mlp_b2 = Tensor(np.zeros(d), requires_grad=True)
        self.ln2_g = Tensor(np.ones(d), requires_grad=True)
        self.ln2_b = Tensor(np.zeros(d), requires_grad=True)

    def parameters(self) -> dict[str, Tensor]:
        return {
            "wq": self.wq, "wk": self.wk, "wv": self.wv, "wo": self.wo,
            "ln1_g": self.ln1_g, "ln1_b": self.ln1_b,
            "mlp_w1": self.mlp_w1, "mlp_b1": self.mlp_b1,
            "mlp_w2": self.mlp_w2, "mlp_b2": self.mlp_b2,
            "ln2_g": self.ln2_g, "ln2_b": self.ln2_b,
        }

    def _project(self, x: Tensor, w: Tensor) -> Tensor:
        return ad.matmul(x, ad.transpose2d(ad.reshape(w, (self.d, self.d))))

    def __call__(self, text: Tensor, visual: Tensor,
                 train: bool = False, rng: np.random.Generator | None = None) -> Tensor:
        if text.ndim != 2 or visual.ndim != 2:
            raise ShapeError(f"expected 2-d text/visual, got {text.shape}/{visual.shape}")
        if text.shape[1] != self.d or visual.shape[1] != self.d:
            raise ShapeError(
                f"feature dim mismatch: text {text.shape}, visual {visual.shape}, d={self.d}"
            )
        heads = ad.attention(self._project(text, self.wq), self._project(visual, self.wk),
                             self._project(visual, self.wv), self.heads)
        ia = ad.matmul(heads, ad.transpose2d(self.wo))
        ia = ad.dropout(ia, self.dropout, train, rng)
        fused = ad.layer_norm(ad.add(ia, text), self.ln1_g, self.ln1_b)
        h = ad.linear(fused, self.mlp_w1, self.mlp_b1)
        h = ad.gelu(h)
        h = ad.linear(h, self.mlp_w2, self.mlp_b2)
        h = ad.dropout(h, self.dropout, train, rng)
        return ad.layer_norm(ad.add(fused, h), self.ln2_g, self.ln2_b)
