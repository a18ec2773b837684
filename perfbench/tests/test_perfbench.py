"""Tests of the benchmark itself: input generators, span arithmetic,
operation accounting and the tracing wrappers.

Run from the repository root: python -m pytest perfbench/tests
"""

from pathlib import Path

import pytest

import inputs
import tracing
from tracing import Span, Tracer, covered, self_times
from workloads import Ledger


def tree_bytes(root: Path) -> dict[str, bytes]:
    root = Path(root)
    if root.is_file():
        return {"": root.read_bytes()}
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


GENERATORS = {
    "overfit": lambda path, seed: inputs.overfit_corpus(path, seed, 6),
    "long": lambda path, seed: inputs.long_corpus(path, seed, 4),
    "raw": lambda path, seed: inputs.raw_text(path, seed, 8),
}


@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_generator_is_a_function_of_the_seed(tmp_path, kind):
    make = GENERATORS[kind]
    first = tree_bytes(make(tmp_path / "a", 3))
    again = tree_bytes(make(tmp_path / "b", 3))
    other = tree_bytes(make(tmp_path / "c", 4))
    assert first == again
    assert first != other


def test_long_sentences_are_ragged_within_bounds(tmp_path):
    text = (inputs.long_corpus(tmp_path, 0, 20) / "test.iob2").read_text()
    lengths = [sum(1 for line in block.splitlines() if "\t" in line)
               for block in text.split("\n\n") if block.strip()]
    assert len(lengths) == 20
    assert min(lengths) >= 30 and max(lengths) <= 62
    assert len(set(lengths)) > 5


def test_covered_takes_the_union_clipped_to_the_span():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 4.0), (3.0, 6.0)], 0.0, 10.0) == 5.0
    assert covered([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == 2.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("outer", 0.0, 10.0, None),
        Span("child", 1.0, 3.0, 0),
        Span("grandchild", 1.5, 2.5, 1),
        Span("child", 5.0, 6.0, 0),
    ]
    assert self_times(spans) == [7.0, 1.0, 1.0, 1.0]


def test_tracer_nests_spans_and_sums_self_time():
    ticks = iter([0.0, 1.0, 3.0, 5.0, 6.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    outer = tracer.begin("outer")
    for _ in range(2):
        tracer.end(tracer.begin("child"))
    tracer.end(outer)
    assert [s.parent for s in tracer.spans] == [None, 0, 0]
    summary = tracer.summary()
    assert summary["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 7.0}
    assert summary["child"] == {"calls": 2, "total_s": 3.0, "self_s": 3.0}


def test_spans_must_close_in_order():
    tracer = Tracer()
    first = tracer.begin("a")
    tracer.begin("b")
    with pytest.raises(RuntimeError):
        tracer.end(first)


def test_an_operation_that_raises_is_counted_as_failed():
    ledger = Ledger()

    def boom():
        raise ValueError("bad input")

    assert ledger.run(3, boom) is None
    assert ledger.run(2, lambda: "ok") == "ok"
    assert (ledger.attempted, ledger.failed) == (5, 3)
    assert "bad input" in ledger.problems[0]


def test_instrumentation_counts_and_restores_the_program():
    from mmner import autodiff as ad
    from mmner import training
    from mmner.encoders import TransformerLayer

    originals = (ad.add, ad.backward, training.backward, TransformerLayer.__call__,
                 ad.Tensor.__init__)
    tracer = Tracer()
    with tracing.Instrumentation(tracer):
        a = ad.Tensor([1.0, 2.0], requires_grad=True)
        loss = ad.tensor_sum(ad.add(a, a))
        training.backward(loss)
    assert (ad.add, ad.backward, training.backward, TransformerLayer.__call__,
            ad.Tensor.__init__) == originals
    assert tracer.counts["autodiff.ops"] == 2
    assert tracer.summary()["autodiff.backward"]["calls"] == 1
    assert a.grad.tolist() == [2.0, 2.0]
