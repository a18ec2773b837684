"""Command-line surface: arguments, exit codes, and file round trips."""

import shutil

import numpy as np
import pytest

from fixtures_util import build_overfit_fixture

import mmner.cli
import mmner.training
from mmner import autodiff as ad
from mmner.autodiff import NumericError
from mmner.cli import main, read_predict_input
from mmner.model import MultimodalNerModel


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsageErrors:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["stats", "somewhere", "--frobnicate"])
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["dance"])
        assert exc.value.code == 2

    def test_runtime_error_exits_1(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "kappa", str(tmp_path / "missing.txt"))
        assert code == 1
        assert "error" in err

    def test_zero_batch_exits_1_with_one_line(self, tmp_path, capsys):
        root = build_overfit_fixture(tmp_path, n_sentences=4)
        code, _, err = run_cli(capsys, "train", str(root), "--batch", "0")
        assert code == 1
        assert err.count("\n") == 1 and "batch_size" in err

    def test_negative_seed_exits_1_with_one_line(self, tmp_path, capsys):
        root = build_overfit_fixture(tmp_path, n_sentences=4)
        code, _, err = run_cli(capsys, "train", str(root), "--seed", "-1", "--epochs", "1")
        assert code == 1
        assert err == "mmner: error: seed must be >= 0, got -1\n"

    def test_numeric_error_in_eval_names_its_epoch(self, tmp_path, capsys, monkeypatch):
        root = build_overfit_fixture(tmp_path, n_sentences=4)
        evaluate_model = mmner.training.evaluate_model
        # one epoch evaluates once, then the final eval is call 2
        for failing_call, prefix in ((1, "epoch 1 eval"), (2, "final eval")):
            calls = []

            def diverge_on(*args, _failing_call=failing_call, **kwargs):
                calls.append(1)
                if len(calls) == _failing_call:
                    raise NumericError("softmax: non-finite input")
                return evaluate_model(*args, **kwargs)

            monkeypatch.setattr(mmner.training, "evaluate_model", diverge_on)
            code, _, err = run_cli(capsys, "train", str(root), "--batch", "2", "--epochs", "1")
            assert code == 1
            assert err == f"mmner: error: {prefix}: softmax: non-finite input\n"

    def test_numeric_error_exits_1_with_one_line(self, tmp_path, capsys, monkeypatch):
        def diverge(*args, **kwargs):
            raise NumericError("softmax: non-finite input")

        monkeypatch.setattr(mmner.cli, "train", diverge)
        code, _, err = run_cli(capsys, "train", str(tmp_path))
        assert code == 1
        assert err == "mmner: error: softmax: non-finite input\n"

    def test_non_finite_loss_exits_1_with_one_line(self, tmp_path, capsys, monkeypatch):
        root = build_overfit_fixture(tmp_path, n_sentences=4)
        batch_losses = MultimodalNerModel.batch_losses

        def nan_cl_vit(self, *args, **kwargs):
            crf_nll, cl_vit, cl_conv = batch_losses(self, *args, **kwargs)
            return crf_nll, ad.mul(cl_vit, ad.Tensor(np.nan)), cl_conv

        monkeypatch.setattr(MultimodalNerModel, "batch_losses", nan_cl_vit)
        code, _, err = run_cli(capsys, "train", str(root), "--batch", "2")
        assert code == 1
        assert err == "mmner: error: epoch 1 step 0: non-finite cl_vit = nan\n"

    def test_preset_flag_is_gone(self):
        with pytest.raises(SystemExit) as exc:
            main(["train", "somewhere", "--preset", "desk"])
        assert exc.value.code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


class TestKappa:
    def test_diagonal_prints_one(self, tmp_path, capsys):
        table = tmp_path / "t.txt"
        table.write_text("5 0\n0 5\n")
        code, out, _ = run_cli(capsys, "kappa", str(table))
        assert code == 0
        assert out.strip() == "1.0"

    def test_hand_example(self, tmp_path, capsys):
        table = tmp_path / "t.txt"
        table.write_text("20 5\n10 15\n")
        code, out, _ = run_cli(capsys, "kappa", str(table))
        assert code == 0
        assert abs(float(out.strip()) - 0.4) < 1e-12

    def test_degenerate_table_fails_cleanly(self, tmp_path, capsys):
        table = tmp_path / "t.txt"
        table.write_text("5 0\n0 0\n")
        code, _, err = run_cli(capsys, "kappa", str(table))
        assert code == 1 and "undefined" in err

    def test_ragged_table_names_line(self, tmp_path, capsys):
        table = tmp_path / "t.txt"
        table.write_text("5 0\n# note\n0\n")
        code, _, err = run_cli(capsys, "kappa", str(table))
        assert code == 1
        assert err == f"mmner: error: {table}:3: 1 counts, first row has 2\n"

    def test_non_numeric_table_names_line(self, tmp_path, capsys):
        table = tmp_path / "t.txt"
        table.write_text("5 0\n0 x\n")
        code, _, err = run_cli(capsys, "kappa", str(table))
        assert code == 1
        assert err == f"mmner: error: {table}:2: non-numeric count in '0 x'\n"


class TestStats:
    def test_empty_corpus_zero_table(self, tmp_path, capsys):
        (tmp_path / "train.iob2").write_text("")
        code, out, _ = run_cli(capsys, "stats", str(tmp_path))
        assert code == 0
        assert "Total" in out and "PER" in out

    def test_counts_fixture(self, tmp_path, capsys):
        build_overfit_fixture(tmp_path, n_sentences=4)
        code, out, _ = run_cli(capsys, "stats", str(tmp_path))
        assert code == 0
        assert "en/train" in out

    def test_missing_all_splits_is_zero_table(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "stats", str(tmp_path))
        assert code == 0
        assert "Total" in out


class TestSelftest:
    def test_selftest_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 0
        assert "PASS" in out and "FAIL" not in out


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    root = build_overfit_fixture(tmp_path_factory.mktemp("corpus"), n_sentences=8)
    out = tmp_path_factory.mktemp("run")
    code = main([
        "train", str(root), "--out", str(out),
        "--epochs", "2", "--batch", "4", "--lr", "5e-3", "--dropout", "0",
        "--seed", "3",
    ])
    assert code == 0
    return root, out


class TestTrainEvalPredict:
    def test_train_writes_artifacts(self, trained_run, capsys):
        _, out = trained_run
        for name in ("model.ckpt", "vocab.txt", "config.cfg"):
            assert (out / name).exists()

    def test_eval_on_train_split(self, trained_run, capsys):
        root, out = trained_run
        code, text, _ = run_cli(
            capsys, "eval", str(root), "--checkpoint", str(out), "--split", "train")
        assert code == 0
        assert "Overall" in text and "overall.f1=" in text

    def test_eval_missing_split_fails(self, trained_run, capsys):
        root, out = trained_run
        code, _, err = run_cli(
            capsys, "eval", str(root), "--checkpoint", str(out), "--split", "test")
        assert code == 1 and "test.iob2" in err

    def test_predict_iob2_blocks(self, trained_run, tmp_path, capsys):
        root, out = trained_run
        code, text, _ = run_cli(
            capsys, "predict", str(root / "train.iob2"),
            "--checkpoint", str(out), "--images", str(root / "images"))
        assert code == 0
        lines = [l for l in text.splitlines() if "\t" in l]
        assert lines, "expected labeled token lines"
        for line in lines:
            token, label = line.split("\t")
            assert label == "O" or label[:2] in ("B-", "I-")

    def test_predict_raw_lines(self, trained_run, tmp_path, capsys):
        _, out = trained_run
        raw = tmp_path / "raw.txt"
        raw.write_text("Ana Moreno visited Paris\nnothing here\n")
        code, text, _ = run_cli(
            capsys, "predict", str(raw), "--checkpoint", str(out), "--raw")
        assert code == 0
        assert text.count("IMGID:") == 2
        assert len([l for l in text.splitlines() if "\t" in l]) == 6

    def test_predict_to_file(self, trained_run, tmp_path, capsys):
        root, out = trained_run
        target = tmp_path / "pred.iob2"
        code, _, _ = run_cli(
            capsys, "predict", str(root / "train.iob2"),
            "--checkpoint", str(out), "--images", str(root / "images"),
            "--out", str(target))
        assert code == 0
        assert target.exists() and "IMGID:" in target.read_text()

    def test_predict_headers_only_in_header_position(self, trained_run, tmp_path, capsys):
        # A LANG line after the IMGID line, or a second IMGID line, is a
        # token row, as parse_iob2 reads it; so is a header after a row.
        _, out = trained_run
        source = tmp_path / "in.iob2"
        source.write_text("LANG:xx\nIMGID:ov001\nLANG:en\nParis\n\n"
                          "IMGID:a\nIMGID:b\n\nLima\tB-LOC\tjunk\nIMGID:c\n\nLANG:de\n")
        examples = read_predict_input(source, raw=False)
        assert [(ex.tokens, ex.image_ref, ex.language) for ex in examples] == [
            (["LANG:en", "Paris"], "ov001", "xx"),
            (["IMGID:b"], "a", "unk"),
            (["Lima", "IMGID:c"], "", "unk"),
        ]
        code, text, err = run_cli(capsys, "predict", str(source), "--checkpoint", str(out))
        assert code == 0 and err == ""
        assert [l.split("\t")[0] for l in text.splitlines()] == [
            "LANG:xx", "IMGID:ov001", "LANG:en", "Paris", "",
            "IMGID:a", "IMGID:b", "",
            "IMGID:none", "Lima", "IMGID:c", "",
        ]

    def test_eval_rejects_preset_line(self, trained_run, tmp_path, capsys):
        # run directories written before the preset option was removed carry
        # `preset = desk` as line 8 of config.cfg
        root, out = trained_run
        old = tmp_path / "old_run"
        shutil.copytree(out, old)
        lines = (old / "config.cfg").read_text().splitlines(keepends=True)
        lines.insert(7, "preset = desk\n")
        (old / "config.cfg").write_text("".join(lines))
        code, text, err = run_cli(
            capsys, "eval", str(root), "--checkpoint", str(old), "--split", "train")
        assert code == 1 and text == ""
        assert err == "mmner: error: config line 8: unknown key 'preset'\n"


class TestConfigPrecedence:
    def test_flags_override_config_file(self, tmp_path, capsys):
        root = build_overfit_fixture(tmp_path / "data", n_sentences=4)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 5\nlr = 1e-3\nbatch_size = 2\ndropout = 0\n")
        code, out, _ = run_cli(
            capsys, "train", str(root), "--config", str(cfg), "--epochs", "1")
        assert code == 0
        assert "epoch 1:" in out
        assert "epoch 2:" not in out  # flag overrode the file's 5 epochs

    def test_bad_config_key_fails(self, tmp_path, capsys):
        root = build_overfit_fixture(tmp_path / "data", n_sentences=4)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("purple = 7\n")
        code, _, err = run_cli(capsys, "train", str(root), "--config", str(cfg))
        assert code == 1 and "unknown key" in err

    @pytest.mark.parametrize("line, message", [
        ("epochs = 1.5", "key epochs: expected integer, got '1.5'"),
        ("lr = abc", "key lr: expected number, got 'abc'"),
        ("lr = none", "key lr: expected number, got 'none'"),
    ])
    def test_bad_config_value_names_line_and_key(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed = 1\n{line}\n")
        code, _, err = run_cli(capsys, "train", str(tmp_path), "--config", str(cfg))
        assert code == 1
        assert err == f"mmner: error: config line 2: {message}\n"

    def test_ablation_flags_reach_model(self, tmp_path, capsys):
        root = build_overfit_fixture(tmp_path / "data", n_sentences=4)
        out = tmp_path / "run"
        code, _, _ = run_cli(
            capsys, "train", str(root), "--out", str(out),
            "--epochs", "1", "--batch", "4", "--dropout", "0",
            "--no-vit", "--no-resnet")
        assert code == 0
        from mmner.training import load_run
        model, _, config = load_run(out)
        assert not config.use_vit and not config.use_resnet
        assert model.paths == {}
        assert model.crf.emission_w.shape[0] == model.config.d
