"""Command-line surface: arguments, exit codes, and file round trips."""

import re
import shutil
from dataclasses import fields

import numpy as np
import pytest

from fixtures_util import (
    bare_fusion_layout,
    begin_end_crf_layout,
    build_overfit_fixture,
    stacked_fusion_layout,
)

import mmner.cli
import mmner.training
from mmner import autodiff as ad
from mmner.autodiff import NumericError
from mmner.checkpoint import load_checkpoint, save_checkpoint
from mmner.cli import build_parser, main, merged_train_config, read_predict_input
from mmner.data import (Corpus, ImageStore, SentenceExample, Vocabulary, parse_iob2,
                        serialize_iob2)
from mmner.model import MultimodalNerModel
from mmner.training import TrainConfig, load_run


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

    @pytest.mark.parametrize("target", ["afile", "afile/sub"])
    def test_out_under_a_file_fails_before_training(self, tmp_path, capsys, monkeypatch,
                                                    target):
        root = build_overfit_fixture(tmp_path / "data", n_sentences=8)
        (tmp_path / "afile").write_text("")
        batch_losses = MultimodalNerModel.batch_losses
        calls = []

        def counted(self, *args, **kwargs):
            calls.append(1)
            return batch_losses(self, *args, **kwargs)

        monkeypatch.setattr(MultimodalNerModel, "batch_losses", counted)
        out = tmp_path / target
        code, _, err = run_cli(capsys, "train", str(root), "--out", str(out), "--epochs", "1")
        assert code == 1
        assert err == f"mmner: error: {out}: {tmp_path / 'afile'} is not a directory\n"
        assert calls == []

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

    @pytest.mark.parametrize("lr", ["1e10", "1e300"])
    def test_floating_point_trouble_is_one_named_error(self, tmp_path, capsys, lr):
        # an overflowing step raises under the CLI's errstate, not a RuntimeWarning
        # (which the pytest config turns into an error)
        root = build_overfit_fixture(tmp_path)
        code, _, err = run_cli(capsys, "train", str(root), "--lr", lr, "--epochs", "2",
                               "--batch", "8")
        assert code == 1
        assert re.fullmatch(r"mmner: error: epoch \d+ (step \d+|eval): [^\n]+\n", err)

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
        assert code == 1
        assert err == f"mmner: error: {table}: kappa undefined: expected agreement is 1\n"

    def test_non_square_table_names_file(self, tmp_path, capsys):
        table = tmp_path / "t.txt"
        table.write_text("5 0\n")
        code, _, err = run_cli(capsys, "kappa", str(table))
        assert code == 1
        assert err == f"mmner: error: {table}: agreement table must be square, got (1, 2)\n"

    def test_counts_whose_squares_overflow_give_a_finite_kappa(self, tmp_path, capsys):
        table = tmp_path / "t.txt"
        table.write_text("1e154 1\n1 1e154\n")
        code, out, err = run_cli(capsys, "kappa", str(table))
        assert (code, err) == (0, "")
        assert float(out) == pytest.approx(1.0)

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

    @pytest.mark.parametrize("count", ["nan", "inf", "1e999", "-inf"])
    def test_non_finite_count_names_line(self, tmp_path, capsys, count):
        table = tmp_path / "t.txt"
        table.write_text(f"5 0\n1 {count}\n")
        code, out, err = run_cli(capsys, "kappa", str(table))
        assert code == 1 and out == ""
        assert err == f"mmner: error: {table}:2: non-finite count in '1 {count}'\n"


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

    @pytest.mark.parametrize("target", ["outdir", "missing/pred.iob2", "afile/pred.iob2"])
    def test_bad_predict_out_fails_before_decoding(self, trained_run, tmp_path, capsys,
                                                   monkeypatch, target):
        root, out = trained_run
        (tmp_path / "outdir").mkdir()
        (tmp_path / "afile").write_text("")
        decode, calls = MultimodalNerModel.decode, []

        def counted(self, *args):
            calls.append(1)
            return decode(self, *args)

        monkeypatch.setattr(MultimodalNerModel, "decode", counted)
        path = tmp_path / target
        code, text, err = run_cli(
            capsys, "predict", str(root / "train.iob2"),
            "--checkpoint", str(out), "--images", str(root / "images"), "--out", str(path))
        assert code == 1 and text == "" and calls == []
        reason = " is a directory" if target == "outdir" else f": {path.parent} is not a directory"
        assert err == f"mmner: error: --out {path}{reason}\n"

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

    @pytest.mark.parametrize("raw", [False, True])
    def test_predict_matches_per_sentence_predict(self, trained_run, tmp_path, capsys, raw):
        # predict decodes in length-sorted batches; each sentence must get the
        # tags a one-sentence model.predict call gives, in input order
        root, out = trained_run
        source = root / "train.iob2"
        if raw:
            words = "Ana Moreno visited Paris near Lima today".split()
            source = tmp_path / "raw.txt"
            source.write_text("".join(
                " ".join(words[(i + j) % len(words)] for j in range(n)) + "\n"
                for i, n in enumerate([1, 7, 3, 70, 2, 5, 62, 1, 4] * 2)))
        code, text, _ = run_cli(
            capsys, "predict", str(source), "--checkpoint", str(out),
            "--images", str(root / "images"), *(["--raw"] if raw else []))
        assert code == 0
        model, vocab, _ = load_run(out)
        images = ImageStore(root / "images", model.config.image_size)
        expected = [
            SentenceExample(ex.tokens, model.predict(vocab.encode(ex.tokens),
                                                     images.load(ex.image_ref)),
                            ex.image_ref or "none", ex.language)
            for ex in read_predict_input(source, raw)]
        assert text == serialize_iob2(Corpus(expected))

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_overflow_outside_training_is_one_line(self, trained_run, capsys, monkeypatch,
                                                   command):
        root, out = trained_run

        def overflowing_run(path):  # a float32 checkpoint cannot hold such a weight
            model, vocab, config = load_run(path)
            model.crf.emission_w.data[:] = np.finfo(np.float64).max
            return model, vocab, config

        monkeypatch.setattr(mmner.cli, "load_run", overflowing_run)
        argv = {"eval": ["eval", str(root), "--checkpoint", str(out), "--split", "train"],
                "predict": ["predict", str(root / "train.iob2"), "--checkpoint", str(out),
                            "--images", str(root / "images")]}[command]
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert re.fullmatch(r"mmner: error: overflow encountered in \w+\n", err)

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
        assert err == f"mmner: error: {old / 'config.cfg'}:8: unknown key 'preset'\n"

    def test_predict_names_vocab_that_does_not_fit_the_checkpoint(
            self, trained_run, tmp_path, capsys):
        root, out = trained_run
        short = tmp_path / "run"
        shutil.copytree(out, short)
        lines = (out / "vocab.txt").read_text().splitlines(keepends=True)
        (short / "vocab.txt").write_text("".join(lines[1:]))
        code, text, err = run_cli(capsys, "predict", str(root / "train.iob2"),
                                  "--checkpoint", str(short))
        assert code == 1 and text == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"mmner: error: {short / 'model.ckpt'}: parameter text.")
        assert "vocab.txt" in err


class TestLineBreaks:
    """Lines end at "\\n" only: U+2028, U+0085 and U+001C inside a token
    belong to the token, in the corpus, the run's vocab.txt and predict."""

    TOKENS = {"Paris": "Par\u2028is", "Lima": "Li\x85ma", "Oslo": "Os\x1clo"}

    @pytest.fixture
    def root(self, tmp_path):
        root = build_overfit_fixture(tmp_path / "corpus", n_sentences=4)
        text = (root / "train.iob2").read_text(encoding="utf-8")
        for plain, odd in self.TOKENS.items():
            assert plain in text
            text = text.replace(plain, odd)
        (root / "train.iob2").write_text(text, encoding="utf-8")
        return root

    def test_stats(self, root, capsys):
        code, text, err = run_cli(capsys, "stats", str(root), "--splits", "train")
        assert code == 0 and err == ""
        loc = next(line for line in text.splitlines() if line.startswith("LOC"))
        assert loc.split()[-1] == "4"

    def test_train_then_predict(self, root, tmp_path, capsys):
        out = tmp_path / "run"
        code, _, _ = run_cli(capsys, "train", str(root), "--out", str(out),
                             "--epochs", "1", "--batch", "4")
        assert code == 0
        corpus = parse_iob2(root / "train.iob2")
        _, vocab, _ = load_run(out)
        assert vocab.tokens_in_order() == Vocabulary.from_corpus(corpus).tokens_in_order()
        assert all(token in vocab for token in self.TOKENS.values())
        target = tmp_path / "pred.iob2"
        code, _, err = run_cli(capsys, "predict", str(root / "train.iob2"),
                               "--checkpoint", str(out), "--images", str(root / "images"),
                               "--out", str(target))
        assert code == 0 and err == ""
        predicted = target.read_text(encoding="utf-8").split("\n")
        assert [row.split("\t")[0] for row in predicted if "\t" in row] == [
            token for ex in corpus.examples for token in ex.tokens]


def with_bom(source, target):
    """Copy a text file, prefixing a UTF-8 byte-order mark."""
    target.write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
    return target


class TestByteOrderMark:
    """Every text file mmner reads gives the same result with a leading BOM."""

    def test_corpus(self, trained_run, tmp_path):
        root, _ = trained_run
        plain = root / "train.iob2"
        assert parse_iob2(with_bom(plain, tmp_path / "train.iob2")) == parse_iob2(plain)

    @pytest.mark.parametrize("raw", [False, True])
    def test_predict_output(self, trained_run, tmp_path, capsys, raw):
        root, out = trained_run
        plain = root / "train.iob2"
        if raw:
            plain = tmp_path / "raw.txt"
            plain.write_text("Ana Moreno visited Paris\nnothing here\n", encoding="utf-8")
        outputs = []
        for i, source in enumerate((plain, with_bom(plain, tmp_path / "bom.txt"))):
            target = tmp_path / f"pred{i}.iob2"
            code, _, err = run_cli(
                capsys, "predict", str(source), "--checkpoint", str(out),
                "--images", str(root / "images"), "--out", str(target),
                *(["--raw"] if raw else []))
            assert code == 0 and err == ""
            outputs.append(target.read_bytes())
        assert outputs[0] == outputs[1]

    def test_run_directory(self, trained_run, tmp_path):
        _, out = trained_run
        bom_run = tmp_path / "run"
        shutil.copytree(out, bom_run)
        for name in ("config.cfg", "vocab.txt"):
            with_bom(out / name, bom_run / name)
        (model, vocab, config), (bom_model, bom_vocab, bom_config) = map(load_run, (out, bom_run))
        assert bom_config == config
        assert bom_vocab.tokens_in_order() == vocab.tokens_in_order()
        image = np.zeros((3, model.config.image_size, model.config.image_size))
        ids = vocab.encode(vocab.tokens_in_order()[:6])
        assert bom_model.predict(ids, image) == model.predict(ids, image)

    def test_config_file(self, tmp_path):
        plain = tmp_path / "run.cfg"
        plain.write_text("epochs = 5\nlr = 1e-3\n", encoding="utf-8")
        configs = [
            merged_train_config(build_parser().parse_args(["train", "d", "--config", str(p)]))
            for p in (plain, with_bom(plain, tmp_path / "bom.cfg"))]
        assert configs[0] == configs[1] == TrainConfig(epochs=5, lr=1e-3)

    def test_kappa_table(self, tmp_path, capsys):
        plain = tmp_path / "t.txt"
        plain.write_text("20 5\n10 15\n", encoding="utf-8")
        results = [run_cli(capsys, "kappa", str(p))
                   for p in (plain, with_bom(plain, tmp_path / "bom.txt"))]
        assert results[0] == results[1] and results[0][0] == 0


def with_bad_byte(source, target):
    """Copy a text file, ending its second line with byte 0xb5, which is not UTF-8."""
    lines = source.read_bytes().split(b"\n")
    lines[1] += b"\xb5"
    target.write_bytes(b"\n".join(lines))
    return target


class TestNotUtf8:
    """A text file that is not UTF-8 fails with one line naming the file and line."""

    @staticmethod
    def named_error(err, path):
        return err == f"mmner: error: {path}:2: not UTF-8 (byte 0xb5)\n"

    def test_corpus(self, trained_run, tmp_path, capsys):
        root, _ = trained_run
        bad = with_bad_byte(root / "train.iob2", tmp_path / "train.iob2")
        code, _, err = run_cli(capsys, "stats", str(tmp_path))
        assert code == 1 and self.named_error(err, bad)

    @pytest.mark.parametrize("name", ["vocab.txt", "config.cfg"])
    def test_run_directory(self, trained_run, tmp_path, capsys, name):
        root, out = trained_run
        bad_run = tmp_path / "run"
        shutil.copytree(out, bad_run)
        bad = with_bad_byte(out / name, bad_run / name)
        code, _, err = run_cli(capsys, "predict", str(root / "train.iob2"),
                               "--checkpoint", str(bad_run), "--images", str(root / "images"))
        assert code == 1 and self.named_error(err, bad)

    def test_predict_input(self, trained_run, tmp_path, capsys):
        root, out = trained_run
        bad = with_bad_byte(root / "train.iob2", tmp_path / "input.iob2")
        code, _, err = run_cli(capsys, "predict", str(bad), "--checkpoint", str(out),
                               "--images", str(root / "images"))
        assert code == 1 and self.named_error(err, bad)

    def test_config_file(self, tmp_path, capsys):
        plain = tmp_path / "run.cfg"
        plain.write_text("epochs = 5\nlr = 1e-3\n", encoding="utf-8")
        bad = with_bad_byte(plain, tmp_path / "bad.cfg")
        code, _, err = run_cli(capsys, "train", str(tmp_path), "--config", str(bad))
        assert code == 1 and self.named_error(err, bad)

    def test_kappa_table(self, tmp_path, capsys):
        plain = tmp_path / "t.txt"
        plain.write_text("20 5\n10 15\n", encoding="utf-8")
        bad = with_bad_byte(plain, tmp_path / "bad.txt")
        code, _, err = run_cli(capsys, "kappa", str(bad))
        assert code == 1 and self.named_error(err, bad)


# per TrainConfig field: its value in a --config file, its flag, and the
# value that flag sets
FLAG_OVERRIDES = {
    "alpha": ("0.5", ["--alpha", "0.25"], 0.25),
    "lr": ("1e-3", ["--lr", "2e-3"], 2e-3),
    "batch_size": ("2", ["--batch", "3"], 3),
    "dropout": ("0.2", ["--dropout", "0.3"], 0.3),
    "tau": ("0.5", ["--tau", "0.25"], 0.25),
    "epochs": ("5", ["--epochs", "1"], 1),
    "seed": ("1", ["--seed", "2"], 2),
    "use_vit": ("true", ["--no-vit"], False),
    "use_resnet": ("true", ["--no-resnet"], False),
    "use_contrastive": ("true", ["--no-contrastive"], False),
    "mask_invalid_transitions": ("false", ["--mask-invalid-transitions"], True),
    "repair": ("false", ["--repair"], True),
    "stop_at_f1": ("0.5", ["--stop-at-f1", "0.75"], 0.75),
}


class TestConfigPrecedence:
    @pytest.mark.parametrize("name", [f.name for f in fields(TrainConfig)])
    def test_every_field_has_a_flag_that_overrides_the_file(self, tmp_path, name):
        file_value, flag, flag_value = FLAG_OVERRIDES[name]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{name} = {file_value}\n")
        argv = ["train", str(tmp_path), "--config", str(cfg)]
        from_file = merged_train_config(build_parser().parse_args(argv))
        assert getattr(from_file, name) != flag_value
        flagged = merged_train_config(build_parser().parse_args(argv + flag))
        assert getattr(flagged, name) == flag_value

    def test_flags_override_config_file(self, tmp_path, capsys):
        root = build_overfit_fixture(tmp_path / "data", n_sentences=4)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 5\nlr = 1e-3\nbatch_size = 2\ndropout = 0\n")
        code, out, _ = run_cli(
            capsys, "train", str(root), "--config", str(cfg), "--epochs", "1")
        assert code == 0
        assert "epoch 1:" in out
        assert "epoch 2:" not in out  # flag overrode the file's 5 epochs

    def test_out_of_range_config_value_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("tau = 0.0\n")
        code, _, err = run_cli(capsys, "train", str(tmp_path), "--config", str(cfg))
        assert code == 1
        assert err == f"mmner: error: {cfg}: tau must be finite and > 0, got 0.0\n"
        argv = ["train", str(tmp_path), "--config", str(cfg), "--tau", "0.5"]
        assert merged_train_config(build_parser().parse_args(argv)).tau == 0.5

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
        assert err == f"mmner: error: {cfg}:2: {message}\n"

    def test_repeated_config_key_fails_with_both_lines(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lr = 0.1\nseed = 1\nlr = 0.5\n")
        code, _, err = run_cli(capsys, "train", str(tmp_path), "--config", str(cfg))
        assert code == 1
        assert err == f"mmner: error: {cfg}:3: key lr repeats line 1\n"

    def test_ablation_flags_reach_model(self, tmp_path, capsys):
        root = build_overfit_fixture(tmp_path / "data", n_sentences=4)
        out = tmp_path / "run"
        code, _, _ = run_cli(
            capsys, "train", str(root), "--out", str(out),
            "--epochs", "1", "--batch", "4", "--dropout", "0",
            "--no-vit", "--no-resnet")
        assert code == 0
        model, _, config = load_run(out)
        assert not config.use_vit and not config.use_resnet
        assert model.paths == {}
        assert model.crf.emission_w.shape[0] == model.config.d


class TestRaiseSites:
    """Bad input that only a CLI run reaches: exit 1 and one named line on stderr."""

    def test_bad_boolean_in_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("use_vit = maybe\n")
        code, _, err = run_cli(capsys, "train", str(tmp_path), "--config", str(cfg))
        assert code == 1
        assert err == f"mmner: error: {cfg}:1: key use_vit: expected boolean, got 'maybe'\n"

    def test_alpha_out_of_range(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "train", str(tmp_path), "--alpha", "2")
        assert code == 1
        assert err == "mmner: error: alpha must be in [0, 1], got 2.0\n"

    def test_data_root_without_train_split(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "train", str(tmp_path))
        assert code == 1
        assert err == f"mmner: error: no training data at {tmp_path / 'train.iob2'}\n"

    def test_checkpoint_shorter_than_a_header(self, trained_run, tmp_path, capsys):
        root, out = trained_run
        bad_run = tmp_path / "run"
        shutil.copytree(out, bad_run)
        (bad_run / "model.ckpt").write_bytes(b"MMNE")
        code, _, err = run_cli(capsys, "eval", str(root), "--checkpoint", str(bad_run),
                               "--split", "train")
        assert code == 1
        assert err == (f"mmner: error: {bad_run / 'model.ckpt'}: "
                       "file too short to be a checkpoint\n")

    def test_ppm_without_pixels(self, trained_run, tmp_path, capsys):
        root, out = trained_run
        (tmp_path / "ov000.ppm").write_bytes(b"P6\n0 4\n255\n")
        code, _, err = run_cli(capsys, "predict", str(root / "train.iob2"),
                               "--checkpoint", str(out), "--images", str(tmp_path))
        assert code == 1
        assert err == f"mmner: error: {tmp_path / 'ov000.ppm'}: bad dimensions 0x4\n"

    def test_negative_kappa_count(self, tmp_path, capsys):
        table = tmp_path / "t.txt"
        table.write_text("3 -1\n2 4\n")
        code, _, err = run_cli(capsys, "kappa", str(table))
        assert code == 1
        assert err == f"mmner: error: {table}: agreement counts must be >= 0\n"

    def test_config_without_a_path_the_checkpoint_has(self, trained_run, tmp_path, capsys):
        root, out = trained_run
        bad_run = tmp_path / "run"
        shutil.copytree(out, bad_run)
        config = (bad_run / "config.cfg").read_text()
        assert "use_vit = true\n" in config
        (bad_run / "config.cfg").write_text(config.replace("use_vit = true", "use_vit = false"))
        code, _, err = run_cli(capsys, "eval", str(root), "--checkpoint", str(bad_run),
                               "--split", "train")
        assert code == 1
        assert err == (f"mmner: error: {bad_run / 'model.ckpt'}: checkpoint/model mismatch "
                       "(missing [], unexpected "
                       "['vit.layer0.attn.bk', 'vit.layer0.attn.bo', 'vit.layer0.attn.bq'])\n")

    @staticmethod
    def run_old_layout(trained_run, tmp_path, capsys, command, layout):
        """`command` on a copy of the trained run whose checkpoint is re-saved
        as layout(arrays); returns the copy and the CLI's exit code, stdout, stderr."""
        root, out = trained_run
        old_run = tmp_path / "run"
        shutil.copytree(out, old_run)
        save_checkpoint(layout(load_checkpoint(out / "model.ckpt")), old_run / "model.ckpt")
        args = ([str(root), "--split", "train"] if command == "eval"
                else [str(root / "train.iob2")])
        return old_run, *run_cli(capsys, command, *args, "--checkpoint", str(old_run))

    BARE_FUSION_NAMES = ("checkpoint/model mismatch (missing ['conv_fusion.attn.wk', "
                         "'conv_fusion.attn.wo', 'conv_fusion.attn.wq'], unexpected "
                         "['conv_fusion.wk', 'conv_fusion.wo', 'conv_fusion.wq'])\n")

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_run_with_bare_fusion_names_is_refused(self, trained_run, tmp_path, capsys,
                                                   command):
        # a run directory saved while the fusion maps had no `attn.` prefix
        old_run, code, text, err = self.run_old_layout(
            trained_run, tmp_path, capsys, command, bare_fusion_layout)
        assert code == 1 and text == ""
        assert err == f"mmner: error: {old_run / 'model.ckpt'}: {self.BARE_FUSION_NAMES}"

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_run_with_stacked_fusion_maps_is_refused(self, trained_run, tmp_path, capsys,
                                                     command):
        # a run directory whose checkpoint holds the fusion maps as per-head
        # stacks, under the bare names they had then
        old_run, code, text, err = self.run_old_layout(
            trained_run, tmp_path, capsys, command,
            lambda arrays: stacked_fusion_layout(bare_fusion_layout(arrays), heads=4))
        assert code == 1 and text == ""
        assert err == f"mmner: error: {old_run / 'model.ckpt'}: {self.BARE_FUSION_NAMES}"

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_run_with_begin_end_crf_table_is_refused(self, trained_run, tmp_path, capsys,
                                                     command):
        # a run directory saved while the CRF table had BEGIN and END tags
        old_run, code, text, err = self.run_old_layout(
            trained_run, tmp_path, capsys, command, begin_end_crf_layout)
        assert code == 1 and text == ""
        assert err == (f"mmner: error: {old_run / 'model.ckpt'}: parameter crf.transitions: "
                       "checkpoint shape (11, 11) vs model (10, 10) "
                       "(a different label schema, or the older (L+2)x(L+2) CRF layout?)\n")
