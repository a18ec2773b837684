"""Linear-chain CRF: path scoring, exact log-partition, NLL, Viterbi.

Boundary handling uses synthetic BEGIN/END tags appended to the label
set, so every path picks up a start bonus T[BEGIN, y1] and an end bonus
T[y_n, END]. Structurally impossible transition cells are held at a
large negative constant rather than -inf to keep log-space arithmetic
finite.

Each computation takes padded (B, n, L) emissions and the sentence
lengths; padded rows are computed, never read, and get a zero gradient.

`continues(prev, tag)` is the one strict-IOB2 rule: an I-X must follow
B-X or I-X, with "O" standing before the first tag. The schema's
violations and transition mask, and `metrics.extract_spans`, all ask it.
"""

from __future__ import annotations

import numpy as np

from mmner import autodiff as ad
from mmner.autodiff import ContractError, ShapeError, Tensor

NEG_INF = -1e4

ENTITY_TYPES = ("PER", "LOC", "ORG", "MISC")


def continues(prev: str, tag: str) -> bool:
    """False only for an I-X whose predecessor is neither B-X nor I-X."""
    return not tag.startswith("I-") or prev in ("B" + tag[1:], tag)


class LabelSchema:
    """Ordered IOB2 tag set and its transition mask."""

    tags = ("O",) + tuple(f"{prefix}-{etype}" for etype in ENTITY_TYPES for prefix in "BI")

    @property
    def num_labels(self) -> int:
        return len(self.tags)

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
        """Positions whose tag does not continue its predecessor."""
        return [i for i, (prev, tag) in enumerate(zip(["O", *tags], tags))
                if not continues(prev, tag)]

    def repair(self, tags: list[str]) -> tuple[list[str], int]:
        """Rewrite each dangling I-X to B-X; returns (tags, repair count).
        One pass suffices: turning I-X into B-X only makes successors valid."""
        fixed = list(tags)
        bad = self.iob2_violations(tags)
        for i in bad:
            fixed[i] = "B-" + fixed[i][2:]
        return fixed, len(bad)

    def invalid_transition_mask(self) -> np.ndarray:
        """(L+2)x(L+2) additive mask, NEG_INF where a tag does not continue
        its predecessor; the BEGIN row asks as if "O" came before."""
        mask = np.zeros((self.num_labels + 2, self.num_labels + 2))
        for i, prev in enumerate(self.tags + ("O",)):  # row num_labels is BEGIN
            for j, tag in enumerate(self.tags):
                if not continues(prev, tag):
                    mask[i, j] = NEG_INF
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

    def _check(self, emissions: Tensor, lengths, paths=None) -> np.ndarray:
        """Lengths as an array; ShapeError unless each row has one in 1..n and a path that long."""
        if emissions.ndim != 3 or emissions.shape[2] != self.num_labels:
            raise ShapeError(f"emissions {emissions.shape} vs (B, n, L={self.num_labels})")
        rows, n = emissions.shape[:2]
        lengths = np.asarray(lengths, dtype=np.intp)
        if lengths.shape != (rows,) or not rows or lengths.min() < 1 or lengths.max() > n:
            raise ShapeError(f"lengths {lengths.tolist()} vs {rows} rows of {n} positions")
        if paths is not None and [len(p) for p in paths] != lengths.tolist():
            raise ShapeError(f"path lengths {[len(p) for p in paths]} vs {lengths.tolist()}")
        if paths is not None and any(not 0 <= y < self.num_labels for p in paths for y in p):
            raise ContractError(f"label index out of range in {paths}")
        return lengths

    def score(self, emissions: Tensor, lengths, paths: list[list[int]]) -> Tensor:
        """Sum over the batch of each path's emissions and BEGIN->y1, adjacent, y_n->END moves."""
        lengths = self._check(emissions, lengths, paths)
        rows, n, L = emissions.shape
        trans = self.effective_transitions()
        positions = np.concatenate([b * n + np.arange(m) for b, m in enumerate(lengths)])
        em_terms = ad.take_pairs(emissions.reshape(rows * n, L), positions, np.concatenate(paths))
        tr_terms = ad.take_pairs(trans, np.concatenate([[self.begin, *p] for p in paths]),
                                 np.concatenate([[*p, self.end] for p in paths]))
        return ad.add(ad.tensor_sum(em_terms), ad.tensor_sum(tr_terms))

    def log_partition(self, emissions: Tensor, lengths) -> Tensor:
        """Each sentence's log Z, (B,): the forward algorithm in log space, differentiable."""
        lengths = self._check(emissions, lengths)
        rows, L = len(lengths), self.num_labels
        trans = self.effective_transitions()
        pairs = trans[:L, :L]
        alphas = [ad.add(trans[self.begin, :L], emissions[:, 0])]
        for i in range(1, lengths.max()):
            scores = ad.add(alphas[-1].reshape(rows, L, 1), pairs)
            alphas.append(ad.add(ad.log_sum_exp(scores, axis=1), emissions[:, i]))
        stacked = ad.stack(alphas).reshape(-1, L)  # row i * B + b is sentence b's alpha at i
        last = ad.embedding_gather(stacked, (lengths - 1) * rows + np.arange(rows))
        return ad.log_sum_exp(ad.add(last, trans[:L, self.end]), axis=1)

    def nll(self, emissions: Tensor, lengths, paths: list[list[int]]) -> Tensor:
        """Mean negative log-likelihood of the gold paths over the batch; always >= 0."""
        log_z = ad.tensor_sum(self.log_partition(emissions, lengths))
        return ad.mul(ad.sub(log_z, self.score(emissions, lengths, paths)),
                      Tensor(1.0 / emissions.shape[0]))

    def viterbi(self, emissions: Tensor, lengths) -> list[tuple[list[int], float]]:
        """Each sentence's best path and its score; ties go to the lowest label index."""
        lengths = self._check(emissions, lengths)
        rows, L = len(lengths), self.num_labels
        with ad.no_grad():
            trans = self.effective_transitions().data
        em, pairs = emissions.data, trans[:L, :L]
        deltas = np.empty((lengths.max(), rows, L))
        deltas[0] = trans[self.begin, :L] + em[:, 0]
        for i in range(1, len(deltas)):  # an out= write saves a temporary and a copy per position
            np.maximum.reduce(deltas[i - 1][:, :, None] + pairs, axis=1, out=deltas[i])
            deltas[i] += em[:, i]
        # back[i][b][y]: sentence b's best label at i before label y at i + 1,
        # the lowest index on ties (argmax)
        back = (deltas[:-1, :, :, None] + pairs).argmax(axis=2).tolist()
        final = deltas[lengths - 1, np.arange(rows)] + trans[:L, self.end]
        paths = [[y] for y in final.argmax(axis=1).tolist()]
        for b, n in enumerate(lengths.tolist()):
            for i in range(n - 2, -1, -1):
                paths[b].append(back[i][b][paths[b][-1]])
        return [(path[::-1], best) for path, best in zip(paths, final.max(axis=1).tolist())]
