"""Entity-span extraction from IOB2 sequences and span-level P/R/F1.

Matching is exact-boundary, exact-type (CoNLL convention): a predicted
span counts as a true positive iff a gold span with the same start, end,
and type exists. F1 is the standard harmonic mean 2PR/(P+R). Overall
scores are micro-averaged from summed counts, never from averaging
per-type F1. Any score whose denominator is zero reports as 0 and is
flagged, never NaN.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from mmner.autodiff import ContractError
from mmner.crf import ENTITY_TYPES


@dataclass(frozen=True)
class EntitySpan:
    start: int
    end: int  # inclusive
    type: str


def extract_spans(labels: Sequence[str]) -> list[EntitySpan]:
    """Maximal B-X (I-X)* runs as spans.

    An I-X that does not continue a same-type span opens a new one
    (lenient conlleval-style repair), so decoder output that violates
    strict IOB2 still scores sensibly.
    """
    spans: list[EntitySpan] = []
    start = None
    cur_type = None
    for i, tag in enumerate(labels):
        if tag == "O":
            prefix, etype = "O", None
        elif tag.startswith("B-") or tag.startswith("I-"):
            prefix, etype = tag[0], tag[2:]
        else:
            raise ContractError(f"unknown IOB2 tag {tag!r} at position {i}")
        if start is not None and (prefix == "O" or prefix == "B" or etype != cur_type):
            spans.append(EntitySpan(start, i - 1, cur_type))
            start, cur_type = None, None
        if prefix == "B" or (prefix == "I" and start is None):
            start, cur_type = i, etype
    if start is not None:
        spans.append(EntitySpan(start, len(labels) - 1, cur_type))
    return spans


@dataclass
class TypeScore:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    precision: float = 0.0
    recall: float = 0.0
    f1: float = 0.0
    # metric names whose denominator was zero (value reported as 0, not NaN)
    undefined: tuple[str, ...] = ()

    def finalize(self) -> "TypeScore":
        undefined = []
        if self.tp + self.fp > 0:
            self.precision = self.tp / (self.tp + self.fp)
        else:
            undefined.append("precision")
        if self.tp + self.fn > 0:
            self.recall = self.tp / (self.tp + self.fn)
        else:
            undefined.append("recall")
        if self.precision + self.recall > 0:
            self.f1 = 2 * self.precision * self.recall / (self.precision + self.recall)
        else:
            undefined.append("f1")
        self.undefined = tuple(undefined)
        return self


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
            out.append(f"{key}.precision={s.precision:.6f}")
            out.append(f"{key}.recall={s.recall:.6f}")
            out.append(f"{key}.f1={s.f1:.6f}")
            out.append(f"{key}.tp={s.tp}")
            out.append(f"{key}.fp={s.fp}")
            out.append(f"{key}.fn={s.fn}")
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
    for s in scores.values():
        s.finalize()
    overall.finalize()
    accuracy = tokens_right / tokens_total if tokens_total else 0.0
    return EvalReport(per_type=scores, overall=overall, token_accuracy=accuracy)
