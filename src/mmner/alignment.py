"""Contrastive text-image alignment: projection heads and InfoNCE.

The loss is the symmetric InfoNCE form: every pooled text embedding is an
anchor scored against all N image embeddings of the batch (and vice
versa), with cosine similarity over temperature tau and the matched pair
as the positive. The in-batch construction yields the 2N-2 negatives per
anchor pair; the reported value is the mean over all 2N anchors. A zero
row (the conv path's, for a missing image, while its biases are 0) stays
zero: cosine 0 with every row, and no gradient.
"""

from __future__ import annotations

import numpy as np

from mmner import autodiff as ad
from mmner.autodiff import ContractError, ShapeError, Tensor

COSINE_EPS = 1e-12


class ProjectionHead:
    """Two affine maps with a ReLU between them."""

    def __init__(self, d_in: int, d_hidden: int, d_out: int, rng: np.random.Generator):
        self.w1 = Tensor(rng.normal(0.0, 0.02, (d_in, d_hidden)), requires_grad=True)
        self.b1 = Tensor(np.zeros(d_hidden), requires_grad=True)
        self.w2 = Tensor(rng.normal(0.0, 0.02, (d_hidden, d_out)), requires_grad=True)
        self.b2 = Tensor(np.zeros(d_out), requires_grad=True)

    def parameters(self) -> dict[str, Tensor]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}

    def __call__(self, h: Tensor) -> Tensor:
        return ad.linear(ad.relu(ad.linear(h, self.w1, self.b1)), self.w2, self.b2)


def _normalize_rows(x: Tensor) -> Tensor:
    norms_sq = ad.tensor_sum(ad.mul(x, x), axis=1)
    nonzero = Tensor(norms_sq.data > 0.0)
    norms = ad.pow_scalar(ad.maximum_scalar(norms_sq, COSINE_EPS**2), 0.5)
    inv = ad.mul(ad.pow_scalar(norms, -1.0), nonzero)
    return ad.mul(x, inv.reshape(x.shape[0], 1))


def contrastive_loss(text_batch: Tensor, image_batch: Tensor, tau: float) -> Tensor:
    """Mean InfoNCE over all 2N anchors (N text-side, N image-side)."""
    if tau <= 0:
        raise ContractError(f"temperature must be > 0, got {tau}")
    if text_batch.ndim != 2 or text_batch.shape != image_batch.shape:
        raise ShapeError(
            f"contrastive_loss: {text_batch.shape} vs {image_batch.shape}"
        )
    n = text_batch.shape[0]
    if n < 2:
        raise ContractError(f"contrastive batch needs N >= 2, got N={n}")
    tn = _normalize_rows(text_batch)
    im = _normalize_rows(image_batch)
    logits = ad.mul(ad.linear(tn, ad.transpose2d(im)), Tensor(1.0 / tau))
    diag = ad.take_pairs(logits, np.arange(n), np.arange(n))
    text_terms = ad.sub(ad.log_sum_exp(logits, axis=1), diag)   # anchor: text row
    image_terms = ad.sub(ad.log_sum_exp(logits, axis=0), diag)  # anchor: image col
    return ad.mul(
        ad.add(ad.mean(text_terms), ad.mean(image_terms)), Tensor(0.5)
    )
