"""Entity-span extraction from IOB2 sequences and span-level P/R/F1.

Matching is exact-boundary, exact-type (CoNLL convention): a predicted
span counts as a true positive iff a gold span with the same start, end,
and type exists. F1 is the standard harmonic mean 2PR/(P+R). Overall
scores are micro-averaged from summed counts, never from averaging
per-type F1. Any score whose denominator is zero reports as 0 and is
flagged, never NaN.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from mmner.autodiff import ContractError
from mmner.crf import ENTITY_TYPES, continues


@dataclass(frozen=True)
class EntitySpan:
    start: int
    end: int  # inclusive
    type: str


def extract_spans(labels: Sequence[str]) -> list[EntitySpan]:
    """Maximal B-X (I-X)* runs as spans.

    Every non-O tag that does not continue a span (a B-X, or an I-X that
    fails `crf.continues`) opens a new one (lenient conlleval-style
    repair), so decoder output that violates strict IOB2 still scores
    sensibly.
    """
    spans: list[EntitySpan] = []
    for i, (prev, tag) in enumerate(zip(["O", *labels], labels)):
        if tag != "O" and not tag.startswith(("B-", "I-")):
            raise ContractError(f"unknown IOB2 tag {tag!r} at position {i}")
        if tag.startswith("B-") or not continues(prev, tag):
            spans.append(EntitySpan(i, i, tag[2:]))
        elif tag != "O":
            spans[-1] = EntitySpan(spans[-1].start, i, spans[-1].type)
    return spans


@dataclass
class TypeScore:
    """Span counts; the scores are computed from them on each read."""
    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp > 0 else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn > 0 else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r > 0 else 0.0

    @property
    def undefined(self) -> tuple[str, ...]:
        """Metric names whose denominator is zero (value reported as 0, not NaN)."""
        denominators = (self.tp + self.fp, self.tp + self.fn, self.precision + self.recall)
        return tuple(n for n, den in zip(("precision", "recall", "f1"), denominators) if den <= 0)


@dataclass
class EvalReport:
    per_type: dict[str, TypeScore]
    overall: TypeScore
    token_accuracy: float = 0.0  # diagnostic only

    def format_table(self) -> str:
        lines = []
        header = f"{'Type':<8} {'P':>8} {'R':>8} {'F1':>8} {'TP':>6} {'FP':>6} {'FN':>6}"
        lines.append(header)
        lines.append("-" * len(header))
        for name in list(self.per_type) + ["Overall"]:
            s = self.overall if name == "Overall" else self.per_type[name]
            lines.append(
                f"{name:<8} {s.precision:>8.4f} {s.recall:>8.4f} {s.f1:>8.4f}"
                f" {s.tp:>6d} {s.fp:>6d} {s.fn:>6d}"
            )
        return "\n".join(lines)

    def kv_lines(self) -> str:
        out = []
        for name, s in list(self.per_type.items()) + [("overall", self.overall)]:
            key = name.lower()
            out += [f"{key}.{f}={getattr(s, f):.6f}" for f in ("precision", "recall", "f1")]
            out += [f"{key}.{f}={getattr(s, f)}" for f in ("tp", "fp", "fn")]
            if s.undefined:
                out.append(f"{key}.zero_denominator={','.join(s.undefined)}")
        out.append(f"token_accuracy={self.token_accuracy:.6f}")
        return "\n".join(out)


def evaluate(gold: Iterable[Sequence[str]], pred: Iterable[Sequence[str]]) -> EvalReport:
    """Span-level evaluation of aligned gold/pred label sequences."""
    gold = list(gold)
    pred = list(pred)
    if len(gold) != len(pred):
        raise ContractError(f"{len(gold)} gold sequences vs {len(pred)} predicted")
    scores = {t: TypeScore() for t in ENTITY_TYPES}
    tokens_right = 0
    tokens_total = 0
    for g_seq, p_seq in zip(gold, pred):
        if len(g_seq) != len(p_seq):
            raise ContractError(
                f"sequence length mismatch: {len(g_seq)} gold vs {len(p_seq)} predicted"
            )
        tokens_total += len(g_seq)
        tokens_right += sum(1 for a, b in zip(g_seq, p_seq) if a == b)
        g_spans = set(extract_spans(g_seq))
        p_spans = set(extract_spans(p_seq))
        for s in p_spans:
            if s.type not in scores:
                raise ContractError(f"span type {s.type!r} not in schema {ENTITY_TYPES}")
            if s in g_spans:
                scores[s.type].tp += 1
            else:
                scores[s.type].fp += 1
        for s in g_spans - p_spans:
            scores[s.type].fn += 1
    overall = TypeScore(
        tp=sum(s.tp for s in scores.values()),
        fp=sum(s.fp for s in scores.values()),
        fn=sum(s.fn for s in scores.values()),
    )
    accuracy = tokens_right / tokens_total if tokens_total else 0.0
    return EvalReport(per_type=scores, overall=overall, token_accuracy=accuracy)
