"""Linear-chain CRF: path scoring, exact log-partition, NLL, Viterbi.

Boundary handling uses synthetic BEGIN/END tags appended to the label
set, so every path picks up a start bonus T[BEGIN, y1] and an end bonus
T[y_n, END]. Structurally impossible transition cells are held at a
large negative constant rather than -inf to keep log-space arithmetic
finite.
"""

from __future__ import annotations

import numpy as np

from mmner import autodiff as ad
from mmner.autodiff import ContractError, ShapeError, Tensor

NEG_INF = -1e4

ENTITY_TYPES = ("PER", "LOC", "ORG", "MISC")


class LabelSchema:
    """Ordered IOB2 tag set plus synthetic BEGIN/END transition indices."""

    tags = ("O",) + tuple(f"{prefix}-{etype}" for etype in ENTITY_TYPES for prefix in "BI")

    @property
    def num_labels(self) -> int:
        return len(self.tags)

    @property
    def begin_index(self) -> int:
        return self.num_labels

    @property
    def end_index(self) -> int:
        return self.num_labels + 1

    def tag_index(self, tag: str) -> int:
        try:
            return self.tags.index(tag)
        except ValueError:
            raise ContractError(f"unknown tag {tag!r}") from None

    def encode(self, tags: list[str]) -> list[int]:
        return [self.tag_index(t) for t in tags]

    def decode(self, ids: list[int]) -> list[str]:
        return [self.tags[i] for i in ids]

    def iob2_violations(self, tags: list[str]) -> list[int]:
        """Positions where I-X does not continue a same-type B-X/I-X."""
        bad = []
        prev = "O"
        for i, tag in enumerate(tags):
            if tag.startswith("I-"):
                etype = tag[2:]
                if prev not in (f"B-{etype}", f"I-{etype}"):
                    bad.append(i)
            prev = tag
        return bad

    def repair(self, tags: list[str]) -> tuple[list[str], int]:
        """Rewrite each dangling I-X to B-X; returns (tags, repair count)."""
        fixed = list(tags)
        count = 0
        for i in self.iob2_violations(tags):
            fixed[i] = "B-" + fixed[i][2:]
            count += 1
            # re-check downstream in case the repair legitimizes later I-X
        # One pass suffices: turning I-X into B-X only makes successors valid.
        return fixed, count

    def invalid_transition_mask(self) -> np.ndarray:
        """(L+2)x(L+2) additive mask, NEG_INF on structurally invalid moves."""
        size = self.num_labels + 2
        mask = np.zeros((size, size))
        for j, tag in enumerate(self.tags):
            if not tag.startswith("I-"):
                continue
            etype = tag[2:]
            allowed = {self.tag_index(f"B-{etype}"), self.tag_index(f"I-{etype}")}
            for i in range(self.num_labels):
                if i not in allowed:
                    mask[i, j] = NEG_INF
            mask[self.begin_index, j] = NEG_INF
        return mask


class LinearChainCrf:
    """Emission affine plus (L+2)x(L+2) transition table over label ids.

    The BEGIN column and END row are never read by any computation and are
    pinned at NEG_INF. An optional additive mask (from
    LabelSchema.invalid_transition_mask) hard-forbids invalid IOB2 moves.
    """

    def __init__(self, input_dim: int, num_labels: int, rng: np.random.Generator,
                 transition_mask: np.ndarray | None = None):
        if num_labels < 1 or input_dim < 1:
            raise ad.ConfigError(f"bad CRF dims: input {input_dim}, labels {num_labels}")
        self.num_labels = num_labels
        self.begin = num_labels
        self.end = num_labels + 1
        size = num_labels + 2
        self.emission_w = Tensor(rng.normal(0.0, 0.02, (input_dim, num_labels)), requires_grad=True)
        self.emission_b = Tensor(np.zeros(num_labels), requires_grad=True)
        trans = rng.normal(0.0, 0.01, (size, size))
        trans[:, self.begin] = NEG_INF
        trans[self.end, :] = NEG_INF
        self.transitions = Tensor(trans, requires_grad=True)
        if transition_mask is not None and transition_mask.shape != (size, size):
            raise ShapeError(f"transition mask {transition_mask.shape} vs {(size, size)}")
        self._mask = None if transition_mask is None else Tensor(transition_mask)

    def parameters(self) -> dict[str, Tensor]:
        return {
            "emission_w": self.emission_w,
            "emission_b": self.emission_b,
            "transitions": self.transitions,
        }

    def effective_transitions(self) -> Tensor:
        if self._mask is None:
            return self.transitions
        return ad.add(self.transitions, self._mask)

    def emissions(self, features: Tensor) -> Tensor:
        return ad.linear(features, self.emission_w, self.emission_b)

    def _check(self, emissions: Tensor, path: list[int] | None = None) -> int:
        if emissions.ndim != 2 or emissions.shape[1] != self.num_labels:
            raise ShapeError(f"emissions {emissions.shape} vs L={self.num_labels}")
        n = emissions.shape[0]
        if n < 1:
            raise ContractError("empty sequence")
        if path is not None:
            if len(path) != n:
                raise ShapeError(f"path length {len(path)} vs {n} positions")
            if any(not 0 <= y < self.num_labels for y in path):
                raise ContractError(f"label index out of range in {path}")
        return n

    def score(self, emissions: Tensor, path: list[int]) -> Tensor:
        """Emission sum plus BEGIN->y1, adjacent, and y_n->END transitions."""
        n = self._check(emissions, path)
        trans = self.effective_transitions()
        em_terms = ad.take_pairs(emissions, np.arange(n), path)
        rows = np.array([self.begin] + list(path))
        cols = np.array(list(path) + [self.end])
        tr_terms = ad.take_pairs(trans, rows, cols)
        return ad.add(ad.tensor_sum(em_terms), ad.tensor_sum(tr_terms))

    def log_partition(self, emissions: Tensor) -> Tensor:
        """Forward algorithm in log space; differentiable."""
        n = self._check(emissions)
        L = self.num_labels
        trans = self.effective_transitions()
        alpha = ad.add(trans[self.begin, :L], emissions[0])
        for i in range(1, n):
            scores = ad.add(alpha.reshape(L, 1), trans[:L, :L])
            alpha = ad.add(ad.log_sum_exp(scores, axis=0), emissions[i])
        alpha = ad.add(alpha, trans[:L, self.end])
        return ad.log_sum_exp(alpha, axis=0)

    def nll(self, emissions: Tensor, path: list[int]) -> Tensor:
        """Negative log-likelihood of the gold path; always >= 0."""
        return ad.sub(self.log_partition(emissions), self.score(emissions, path))

    def viterbi(self, emissions: Tensor) -> tuple[list[int], float]:
        """Best-scoring path; ties resolve to the lowest label index."""
        n = self._check(emissions)
        L = self.num_labels
        em = emissions.data
        with ad.no_grad():
            trans = self.effective_transitions().data
        delta = trans[self.begin, :L] + em[0]
        backptrs = np.empty((n, L), dtype=np.intp)
        for i in range(1, n):
            cand = delta[:, None] + trans[:L, :L]
            best_prev = cand.argmax(axis=0)  # argmax picks the lowest index on ties
            delta = cand[best_prev, np.arange(L)] + em[i]
            backptrs[i] = best_prev
        final = delta + trans[:L, self.end]
        last = int(final.argmax())
        path = [last]
        for i in range(n - 1, 0, -1):
            last = int(backptrs[i][last])
            path.append(last)
        path.reverse()
        return path, float(final.max())
