"""Acceptance criteria, one test per criterion, at the stated tolerances.

c01-c04 assert the results of the suites behind `mmner gradcheck` and
`mmner selftest`, each suite run once per module; one more test checks
that they assert every result. Runtime-limited criteria assert their
wall-clock budgets too. The conftest hook prints a PASS/FAIL line per
test as the suite runs.
"""

import time

import numpy as np
import pytest

from fixtures_util import (
    ambiguous_accuracy,
    build_multimodal_fixture,
    build_overfit_fixture,
)

from mmner import autodiff as ad
from mmner.autodiff import Tensor
from mmner.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from mmner.data import ImageStore, cohens_kappa, parse_iob2
from mmner.metrics import evaluate
from mmner.model import ModelConfig, MultimodalNerModel
from mmner.selftest import gradient_suite, oracle_suite
from mmner.training import TrainConfig, load_run, lr_at, total_loss, train


# Each oracle_suite() result, by the criterion that asserts it, with the
# bound its line must report (None: an exact match, no bound).
ORACLE_GATE = {
    "c02": {"oracle.crf_log_partition": 1e-8, "oracle.crf_viterbi": None,
            "oracle.crf_path_probabilities": 1e-8},
    "c03": {"oracle.contrastive_direct_sum": 1e-10,
            "oracle.contrastive_scale_invariance": 1e-10,
            "oracle.contrastive_closed_form": 1e-12},
    "c04": {"oracle.cross_attention_per_head_loop": 1e-10,
            "oracle.cross_attention_key_permutation": 1e-10,
            "oracle.attention_masked_batch": 1e-12},
}


def timed(suite):
    t0 = time.perf_counter()
    results = suite()
    return results, time.perf_counter() - t0


@pytest.fixture(scope="module")
def gradient_run():
    """One gradient_suite() call: (results, seconds)."""
    return timed(gradient_suite)


@pytest.fixture(scope="module")
def oracle_run():
    """One oracle_suite() call for c02-c04: (results, seconds)."""
    return timed(oracle_suite)


def failing(results, bounds):
    """Lines of the named results that are missing, failed, or report a
    bound other than theirs."""
    lines = {r.name: r.line() for r in results}
    bad = []
    for name, tol in bounds.items():
        line = lines.get(name, f"MISSING  {name}")
        bound_ok = tol is None or line.endswith(f"(tol {tol:.0e})")
        if not (line.startswith("PASS") and bound_ok):
            bad.append(line)
    return bad


def test_c01_gradient_suite_all_ops_and_blocks(gradient_run):
    results, elapsed = gradient_run
    assert [r.line() for r in results if not r.passed] == []
    block_names = {r.name for r in results if r.name.startswith("block.")}
    assert block_names == {
        "block.text_layer", "block.vit_layer", "block.conv_block",
        "block.projection_head", "block.contrastive_loss",
        "block.cross_attention", "block.crf_nll",
    }
    assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s (budget 120s)"


def test_c02_crf_enumeration_oracle(oracle_run):
    results, elapsed = oracle_run
    assert failing(results, ORACLE_GATE["c02"]) == []
    assert elapsed < 60.0, f"oracle suite took {elapsed:.1f}s (budget 60s)"


def test_c03_contrastive_oracle(oracle_run):
    results, _ = oracle_run
    assert failing(results, ORACLE_GATE["c03"]) == []


def test_c04_cross_attention_oracle(oracle_run):
    results, _ = oracle_run
    assert failing(results, ORACLE_GATE["c04"]) == []


def test_gate_asserts_each_suite_check_once(gradient_run, oracle_run):
    """c01 asserts every gradient_suite() result and c02-c04 between them
    every oracle_suite() result, each exactly once: a check added to
    selftest cannot escape the gate."""
    names = [r.name for r in gradient_run[0]]
    assert len(set(names)) == len(names)
    gated = [name for bounds in ORACLE_GATE.values() for name in bounds]
    assert sorted(gated) == sorted(r.name for r in oracle_run[0])


def test_c05_overfit_run(tmp_path):
    root = build_overfit_fixture(tmp_path / "data", n_sentences=32, seed=0)
    config = TrainConfig(alpha=0.8, lr=5e-3, batch_size=8, dropout=0.1, tau=0.07,
                         epochs=300, seed=0, stop_at_f1=1.0)
    t0 = time.perf_counter()
    result = train(config, root)
    elapsed = time.perf_counter() - t0
    assert result.eval_split == "train"
    assert result.best_f1 == 1.0, f"train F1 {result.best_f1} after {len(result.epoch_logs)} epochs"
    assert len(result.epoch_logs) <= 300
    assert elapsed < 300.0, f"overfit run took {elapsed:.1f}s (budget 300s)"


def test_c06_multimodal_signal_run(tmp_path):
    root = build_multimodal_fixture(tmp_path / "data")
    dev = parse_iob2(root / "dev.iob2", split="dev")
    t0 = time.perf_counter()

    out_full = tmp_path / "run_full"
    full_cfg = TrainConfig(alpha=0.8, lr=5e-3, batch_size=8, dropout=0.1, tau=0.07,
                           epochs=200, seed=0, stop_at_f1=1.0)
    full_result = train(full_cfg, root, out_dir=out_full)
    assert full_result.final_report.token_accuracy >= 0.95, \
        f"held-out token accuracy {full_result.final_report.token_accuracy:.3f}"

    out_text = tmp_path / "run_text"
    text_cfg = TrainConfig(alpha=0.8, lr=5e-3, batch_size=8, dropout=0.1, tau=0.07,
                           epochs=60, seed=0,
                           use_vit=False, use_resnet=False, stop_at_f1=1.0)
    train(text_cfg, root, out_dir=out_text)

    text_model, text_vocab, _ = load_run(out_text)
    store = ImageStore(root / "images", text_model.config.image_size)
    text_amb = ambiguous_accuracy(text_model, text_vocab, store, dev)
    assert text_amb <= 0.60, f"text-only ambiguous-token accuracy {text_amb:.3f}"

    full_model, full_vocab, _ = load_run(out_full)
    full_amb = ambiguous_accuracy(full_model, full_vocab, store, dev)
    assert full_amb >= 0.95, f"full-model ambiguous-token accuracy {full_amb:.3f}"

    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"multimodal runs took {elapsed:.1f}s (budget 600s)"


def test_c07_loss_weighting_identities():
    rng = np.random.default_rng(0)
    crf_nll = Tensor(abs(rng.normal()) + 0.5)
    cl_vit = Tensor(abs(rng.normal()))
    cl_conv = Tensor(abs(rng.normal()))
    assert total_loss(crf_nll, cl_vit, cl_conv, alpha=1.0) is crf_nll
    zero = total_loss(crf_nll, cl_vit, cl_conv, alpha=0.0)
    assert zero.item() == cl_vit.data + cl_conv.data  # bitwise: same float op
    mid = total_loss(Tensor(2.0), Tensor(0.5), Tensor(0.25), alpha=0.8)
    assert mid.item() == pytest.approx(1.75, abs=1e-15)


def test_c08_metrics_fixture():
    gold = [
        ["B-PER", "O", "B-LOC", "O", "B-ORG"],
        ["B-MISC", "I-MISC", "O", "B-PER", "O"],
    ]
    pred = [
        ["B-PER", "O", "B-LOC", "O", "O"],
        ["B-MISC", "I-MISC", "O", "O", "B-PER"],
    ]
    report = evaluate(gold, pred)
    assert (report.overall.tp, report.overall.fp, report.overall.fn) == (3, 1, 2)
    assert abs(report.overall.precision - 0.75) < 1e-12
    assert abs(report.overall.recall - 0.6) < 1e-12
    assert abs(report.overall.f1 - 2 * 0.75 * 0.6 / 1.35) < 1e-12
    perfect = evaluate(gold, gold)
    assert perfect.overall.f1 == 1.0


def test_c09_kappa():
    assert cohens_kappa(np.diag([4, 9, 2])) == 1.0
    assert abs(cohens_kappa(np.array([[20, 5], [10, 15]])) - 0.4) < 1e-12


def test_c10_lr_schedule():
    base = 5e-5
    assert lr_at(0, 1000, base) == base
    assert lr_at(1000, 1000, base) == 0.0
    assert abs(lr_at(500, 1000, base) - base / 2) < 1e-12


def test_c11_checkpoint_round_trip(tmp_path):
    cfg = ModelConfig(d=8, text_layers=1, vit_layers=1, heads=2, max_len=8,
                      mlp_ratio=1, image_size=8, patch_size=4,
                      conv_stem_channels=2, conv_stage_channels=(2, 3, 3),
                      proj_hidden=4, proj_out=4, dropout=0.0)
    model = MultimodalNerModel(cfg, vocab_size=12, seed=4)
    rng = np.random.default_rng(5)
    batch = [([2, 5, 7], rng.uniform(-1, 1, (3, 8, 8))),
             ([3, 4], rng.uniform(-1, 1, (3, 8, 8)))]
    path = tmp_path / "model.ckpt"
    save_checkpoint(model.parameters(), path)
    with ad.no_grad():
        before = [model.forward_batch([ids], img[None])[0].data.copy() for ids, img in batch]

    twin = MultimodalNerModel(cfg, vocab_size=12, seed=99)  # different init
    twin.load_parameters(load_checkpoint(path))
    with ad.no_grad():
        after = [twin.forward_batch([ids], img[None])[0].data.copy() for ids, img in batch]
    for a, b in zip(before, after):
        np.testing.assert_array_equal(a, b)

    corrupt = bytearray(path.read_bytes())
    corrupt[len(corrupt) // 2] ^= 0x5A
    path.write_bytes(bytes(corrupt))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_c12_determinism(tmp_path):
    root = build_overfit_fixture(tmp_path / "data", n_sentences=8, seed=1)

    def run():
        config = TrainConfig(alpha=0.8, lr=5e-3, batch_size=4, dropout=0.1,
                             tau=0.07, epochs=3, seed=11)
        return train(config, root)

    a, b = run(), run()
    assert [(l.loss, l.crf_nll, l.cl_vit, l.cl_conv) for l in a.epoch_logs] == \
           [(l.loss, l.crf_nll, l.cl_vit, l.cl_conv) for l in b.epoch_logs]
    assert [l.eval_f1 for l in a.epoch_logs] == [l.eval_f1 for l in b.epoch_logs]
    assert a.final_report.kv_lines() == b.final_report.kv_lines()
