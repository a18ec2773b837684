"""Optimizer, schedule, loss composition, checkpoints, and training runs."""

import hashlib
import math
import re
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

from fixtures_util import build_overfit_fixture

from mmner import autodiff as ad
from mmner.autodiff import ConfigError, ContractError, NumericError, Tensor, backward
from mmner.checkpoint import (
    MAGIC,
    CheckpointError,
    fnv1a_64,
    load_checkpoint,
    save_checkpoint,
)
from mmner.data import Corpus, ImageStore, SentenceExample, Vocabulary, parse_iob2, write_ppm
from mmner.gradcheck import check_gradients
from mmner.metrics import evaluate
from mmner.data import Batch
from mmner.model import DECODE_CHUNK, ModelConfig, MultimodalNerModel
import mmner.checkpoint
import mmner.model
import mmner.training
from mmner.training import (
    ADAM_EPS,
    BETA1,
    BETA2,
    Adam,
    TrainConfig,
    clip_global_norm,
    evaluate_model,
    format_config,
    load_run,
    lr_at,
    parse_config_text,
    save_run_artifacts,
    total_loss,
    train,
)


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = Adam({"p": p})
        p.grad = np.zeros(2)
        opt.step(lr=0.1)
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_hand_evaluated_first_step(self):
        # w=1, g=1, lr=0.1: m_hat=1, v_hat=1 -> w = 1 - 0.1/(1 + 1e-8)
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam({"p": p})
        p.grad = np.array([1.0])
        opt.step(lr=0.1)
        expected = 1.0 - 0.1 * (1.0 / (1.0 + 1e-8))
        assert p.data[0] == pytest.approx(expected, abs=1e-15)
        assert p.data[0] == pytest.approx(0.9, abs=1e-8)

    def test_identical_seeds_identical_trajectories(self):
        def run():
            rng = np.random.default_rng(5)
            p = Tensor(rng.normal(size=4), requires_grad=True)
            opt = Adam({"p": p})
            trace = []
            for step in range(5):
                loss = ad.tensor_sum(ad.mul(p, p))
                backward(loss)
                opt.step(lr=0.05)
                trace.append(p.data.copy())
            return np.stack(trace)

        np.testing.assert_array_equal(run(), run())

    def test_grads_cleared_after_step(self):
        p = Tensor(np.ones(2), requires_grad=True)
        opt = Adam({"p": p})
        p.grad = np.ones(2)
        opt.step(lr=0.1)
        assert p.grad is None

    def test_step_writes_each_parameter_in_place_as_the_textbook_update(self):
        # the arrays stay the same objects, each write is counted, and the
        # values are bitwise those of the out-of-place update
        rng = np.random.default_rng(11)
        params = {"w": Tensor(rng.normal(size=(3, 4)), requires_grad=True),
                  "b": Tensor(rng.normal(size=4), requires_grad=True),
                  "s": Tensor(0.5, requires_grad=True),
                  "idle": Tensor(rng.normal(size=2), requires_grad=True)}
        arrays = {k: p.data for k, p in params.items()}
        expected = {k: a.copy() for k, a in arrays.items()}
        m = {k: np.zeros_like(a) for k, a in arrays.items()}
        v = {k: np.zeros_like(a) for k, a in arrays.items()}
        opt = Adam(params)
        for t in range(1, 4):
            lr = 0.01 * t
            for k, p in params.items():
                p.grad = None if k == "idle" else rng.normal(size=p.shape)
                g = np.zeros(p.shape) if p.grad is None else p.grad
                m[k] = BETA1 * m[k] + (1.0 - BETA1) * g
                v[k] = BETA2 * v[k] + (1.0 - BETA2) * g * g
                expected[k] = expected[k] - lr * (m[k] / (1.0 - BETA1**t)) / (
                    np.sqrt(v[k] / (1.0 - BETA2**t)) + ADAM_EPS)
            writes = ad._writes
            opt.step(lr)
            assert ad._writes >= writes + len(params)
            for k, p in params.items():
                assert p.data is arrays[k]
                np.testing.assert_array_equal(p.data, expected[k])


class TestClip:
    def test_norm_reduced_to_max(self):
        p = Tensor(np.zeros(4), requires_grad=True)
        p.grad = np.full(4, 10.0)
        norm = clip_global_norm({"p": p})
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)

    def test_leaves_fed_one_array_by_add_are_each_scaled_once(self):
        # add's closure returns one array for both parents; each leaf's
        # `.grad` is its own copy, so clipping scales each exactly once
        a = Tensor(np.zeros(3), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        backward(ad.tensor_sum(ad.mul(ad.add(a, b), Tensor(10.0))))
        assert not np.shares_memory(a.grad, b.grad)
        norm = clip_global_norm({"a": a, "b": b})
        assert norm == math.sqrt(600.0)
        for p in (a, b):
            np.testing.assert_array_equal(p.grad, np.full(3, 10.0 * (1.0 / norm)))

    def test_small_gradients_untouched(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        p.grad = np.array([0.1, 0.2])
        clip_global_norm({"p": p})
        np.testing.assert_array_equal(p.grad, [0.1, 0.2])


class TestLrSchedule:
    def test_boundaries(self):
        assert lr_at(0, 100, 5e-5) == 5e-5
        assert lr_at(100, 100, 5e-5) == 0.0

    def test_midpoint(self):
        assert abs(lr_at(50, 100, 1.0) - 0.5) < 1e-12

    def test_exactly_linear(self):
        base = 3e-4
        values = [lr_at(s, 10, base) for s in range(11)]
        diffs = np.diff(values)
        np.testing.assert_allclose(diffs, -base / 10, atol=1e-18)

    def test_clamps_past_end_with_warning(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert lr_at(11, 10, 1.0) == 0.0
        assert len(caught) == 1

    def test_bad_args(self):
        with pytest.raises(ContractError):
            lr_at(0, 0, 1.0)
        with pytest.raises(ContractError):
            lr_at(-1, 10, 1.0)


class TestTotalLoss:
    def test_alpha_one_is_crf_bitwise(self):
        crf = Tensor(2.0)
        out = total_loss(crf, Tensor(0.5), Tensor(0.25), alpha=1.0)
        assert out is crf

    def test_alpha_zero_is_contrastive_sum_bitwise(self):
        cl_vit, cl_conv = Tensor(0.5), Tensor(0.25)
        out = total_loss(Tensor(2.0), cl_vit, cl_conv, alpha=0.0)
        assert out.item() == (cl_vit.data + cl_conv.data)

    def test_weighted_arithmetic(self):
        out = total_loss(Tensor(2.0), Tensor(0.5), Tensor(0.25), alpha=0.8)
        assert out.item() == pytest.approx(0.8 * 2.0 + 0.2 * 0.75, abs=1e-15)
        assert out.item() == pytest.approx(1.75, abs=1e-12)

    def test_alpha_out_of_range(self):
        with pytest.raises(ContractError):
            total_loss(Tensor(1.0), Tensor(0.0), Tensor(0.0), alpha=1.5)

    def test_gradients_flow_through_both_terms(self):
        a = Tensor(1.0, requires_grad=True)
        b = Tensor(2.0, requires_grad=True)
        out = total_loss(ad.mul(a, a), ad.mul(b, b), Tensor(0.0), alpha=0.8)
        backward(out)
        assert a.grad == pytest.approx(0.8 * 2.0)
        assert b.grad == pytest.approx(0.2 * 4.0)


class TestCheckpoint:
    def make_params(self, seed=0):
        rng = np.random.default_rng(seed)
        return {
            "layer.w": Tensor(rng.normal(size=(3, 4)), requires_grad=True),
            "layer.b": Tensor(rng.normal(size=4), requires_grad=True),
            "scalarish": Tensor(rng.normal(size=(1,)), requires_grad=True),
        }

    def test_round_trip_bitwise(self, tmp_path):
        params = self.make_params()
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert set(loaded) == set(params)
        for name, tensor in params.items():
            np.testing.assert_array_equal(loaded[name], tensor.data)

    def test_load_returns_read_only_float32_views(self, tmp_path):
        params = self.make_params()
        save_checkpoint(params, tmp_path / "m.ckpt")
        for name, arr in load_checkpoint(tmp_path / "m.ckpt").items():
            assert arr.dtype == np.float32 and arr.shape == params[name].shape
            assert not arr.flags.writeable and not arr.flags.owndata

    def test_save_canonicalizes_to_float32_precision(self, tmp_path):
        params = self.make_params()
        original = {k: p.data.copy() for k, p in params.items()}
        save_checkpoint(params, tmp_path / "m.ckpt")
        for name, tensor in params.items():
            np.testing.assert_array_equal(
                tensor.data, original[name].astype(np.float32).astype(np.float64))

    def test_corrupted_payload_fails_checksum(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(self.make_params(), path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_corrupted_checksum_fails(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(self.make_params(), path)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_saves_version_2(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(self.make_params(), path)
        blob = path.read_bytes()
        assert struct.unpack_from("<I", blob, len(MAGIC)) == (2,)
        records = blob[len(MAGIC) + 4:-8]
        assert blob[-8:] == hashlib.blake2b(records, digest_size=8).digest()

    def test_version_1_is_refused(self, tmp_path):
        # a well-formed version-1 file, FNV-1a 64 checksum and all
        params = self.make_params()
        records = b""
        for name in sorted(params):
            data = params[name].data.astype("<f4")
            records += struct.pack("<I", len(name)) + name.encode()
            records += struct.pack(f"<I{data.ndim}I", data.ndim, *data.shape) + data.tobytes()
        path = tmp_path / "v1.ckpt"
        path.write_bytes(MAGIC + struct.pack("<I", 1) + records
                         + struct.pack("<Q", fnv1a_64(records)))
        with pytest.raises(CheckpointError,
                           match=rf"^{re.escape(str(path))}: unsupported version 1$"):
            load_checkpoint(path)

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(self.make_params(), path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, len(MAGIC), 3)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version 3"):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"NOTMNER\x00" * 4)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    @staticmethod
    def write_records(path, records):
        """A version-2 file of hand-built (name, dims, payload) records with a
        valid BLAKE2b-64 checksum, so only the record layout is wrong."""
        body = b""
        for name, dims, payload in records:
            body += struct.pack("<I", len(name)) + name.encode()
            body += struct.pack(f"<I{len(dims)}I", len(dims), *dims) + payload
        digest = hashlib.blake2b(body, digest_size=8).digest()
        path.write_bytes(MAGIC + struct.pack("<I", 2) + body + digest)

    def test_duplicate_record_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        one = np.ones(2, dtype="<f4").tobytes()
        self.write_records(path, [("w", (2,), one), ("w", (2,), one)])
        with pytest.raises(CheckpointError, match=r"m\.ckpt: record 'w' appears twice"):
            load_checkpoint(path)

    @pytest.mark.parametrize("dims, message", [
        ((1,) * 65, "has rank 65 > 64"),
        ((0, 2**32 - 1, 2**32 - 1), "array is too big"),
    ])
    def test_shape_numpy_cannot_hold_rejected(self, tmp_path, dims, message):
        path = tmp_path / "m.ckpt"
        self.write_records(path, [("w", dims, np.ones(math.prod(dims), dtype="<f4").tobytes())])
        with pytest.raises(CheckpointError, match=rf"m\.ckpt: record 'w'.*{message}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_payload_rejected(self, tmp_path, value):
        path = tmp_path / "m.ckpt"
        self.write_records(path, [("w", (2,), np.array([1.0, value], dtype="<f4").tobytes())])
        with pytest.raises(CheckpointError, match=r"m\.ckpt: record 'w' holds a non-finite"):
            load_checkpoint(path)

    def test_dims_whose_product_overflows_int64_rejected(self, tmp_path):
        # 2^21 * 2^21 * 2^22 = 2^64 elements: an int64 product wraps to 0
        path = tmp_path / "m.ckpt"
        self.write_records(path, [("w", (2**21, 2**21, 2**22), b"")])
        with pytest.raises(CheckpointError, match=r"m\.ckpt: record 'w' .* overruns the file"):
            load_checkpoint(path)


class TestConfigText:
    def test_round_trip(self):
        cfg = TrainConfig(alpha=0.5, lr=1e-3, epochs=3, use_vit=False)
        parsed = TrainConfig(**parse_config_text(format_config(cfg), "run.cfg"))
        assert parsed == cfg

    def test_comments_and_blanks(self):
        values = parse_config_text("# comment\n\nalpha = 0.25\nepochs = 7\n", "run.cfg")
        assert values == {"alpha": 0.25, "epochs": 7}

    def test_unknown_key(self):
        with pytest.raises(ContractError, match=r"^run\.cfg:1: unknown key 'nope'$"):
            parse_config_text("nope = 1\n", "run.cfg")

    def test_bad_line(self):
        with pytest.raises(ContractError, match=r"^run\.cfg:1: expected 'key = value'"):
            parse_config_text("alpha 0.5\n", "run.cfg")

    def test_repeated_key_names_both_lines(self):
        with pytest.raises(ContractError, match=r"^run\.cfg:3: key lr repeats line 1$"):
            parse_config_text("lr = 0.1\n# again\nlr = 0.5\n", "run.cfg")

    def test_load_run_rejects_a_repeated_key(self, tmp_path):
        config, vocab = TrainConfig(seed=1), Vocabulary(["a", "b"])
        save_run_artifacts(tmp_path, MultimodalNerModel(config.model_config(), len(vocab), seed=5),
                           vocab, config)
        text = (tmp_path / "config.cfg").read_text(encoding="utf-8")
        (tmp_path / "config.cfg").write_text(text + "seed = 2\n", encoding="utf-8")
        seed_line = text.split("\n").index("seed = 1") + 1
        repeat_line = len(text.split("\n"))
        with pytest.raises(ContractError,
                           match=f"^{re.escape(str(tmp_path / 'config.cfg'))}:{repeat_line}: "
                                 f"key seed repeats line {seed_line}$"):
            load_run(tmp_path)

    @pytest.mark.parametrize("line, message", [
        ("colour = red", "unknown key 'colour'"),
        ("epochs = 1.5", "key epochs: expected integer, got '1.5'"),
        ("just words", "expected 'key = value', got 'just words'"),
    ], ids=["unknown_key", "bad_value", "no_equals"])
    def test_load_run_names_the_config_file(self, tmp_path, line, message):
        config, vocab = TrainConfig(seed=1), Vocabulary(["a", "b"])
        save_run_artifacts(tmp_path, MultimodalNerModel(config.model_config(), len(vocab), seed=5),
                           vocab, config)
        text = (tmp_path / "config.cfg").read_text(encoding="utf-8")
        (tmp_path / "config.cfg").write_text(f"{line}\n{text}", encoding="utf-8")
        expected = re.escape(f"{tmp_path / 'config.cfg'}:1: {message}")
        with pytest.raises(ContractError, match=f"^{expected}$"):
            load_run(tmp_path)

    @pytest.mark.parametrize("field, value", [
        ("epochs", 0), ("batch_size", 0), ("tau", 0.0), ("dropout", -0.1),
        ("dropout", 1.0), ("stop_at_f1", -0.1), ("stop_at_f1", 1.5),
        ("lr", math.nan), ("lr", math.inf), ("tau", math.nan), ("tau", math.inf),
        ("seed", -1),
    ])
    def test_out_of_range_field_rejected(self, field, value):
        with pytest.raises(ContractError, match=field):
            TrainConfig(**{field: value})


def tiny_train_config(**overrides):
    defaults = dict(
        alpha=0.8, lr=5e-3, batch_size=8, dropout=0.0, tau=0.07,
        epochs=2, seed=0,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


def tiny_model_config(**overrides):
    defaults = dict(
        d=8, text_layers=1, vit_layers=1, heads=2, max_len=8, mlp_ratio=1,
        image_size=8, patch_size=4,
        conv_stem_channels=2, conv_stage_channels=(2, 3, 3),
        proj_hidden=4, proj_out=4, dropout=0.0,
    )
    defaults.update(overrides)
    return ModelConfig(**defaults)


class TestModelAssembly:
    def test_emission_width_tracks_active_paths(self):
        for use_vit, use_resnet, want in [
            (True, True, 16), (True, False, 8), (False, True, 8), (False, False, 8),
        ]:
            cfg = tiny_model_config(use_vit=use_vit, use_resnet=use_resnet)
            model = MultimodalNerModel(cfg, vocab_size=10, seed=0)
            assert model.fused_dim == want
            rng = np.random.default_rng(0)
            emissions, _, pooled = model.forward_batch(
                [[2, 3, 4]], rng.normal(size=(1, 3, 8, 8)))
            assert emissions.shape == (1, 3, 9)
            assert set(pooled) == ({"vit"} if use_vit and not use_resnet else
                                   {"conv"} if use_resnet and not use_vit else
                                   {"vit", "conv"} if use_vit else set())

    def test_text_only_reduces_to_text_to_crf(self):
        cfg = tiny_model_config(use_vit=False, use_resnet=False)
        model = MultimodalNerModel(cfg, vocab_size=10, seed=0)
        assert model.paths == {}
        assert model.crf.emission_w.shape == (8, 9)

    def test_disabled_contrastive_changes_loss_not_shapes(self, tmp_path):
        root = build_overfit_fixture(tmp_path / "d", n_sentences=4)
        corpus = parse_iob2(root / "train.iob2")
        vocab = Vocabulary.from_corpus(corpus)
        store = ImageStore(root / "images", 8)
        from mmner.data import make_batches
        results = {}
        for flag in (True, False):
            cfg = tiny_model_config(use_contrastive=flag)
            model = MultimodalNerModel(cfg, len(vocab), seed=1)
            # keep projection outputs away from the exact-zero dead-relu
            # corner the tiny head dimension makes reachable at init
            perturb = np.random.default_rng(9)
            for p in model.parameters().values():
                p.data += perturb.uniform(-0.1, 0.1, p.shape)
            (batch,) = list(make_batches(corpus, 4, 0, False, vocab, store))
            nll, clv, clc = model.batch_losses(batch)
            results[flag] = (nll.item(), clv.item(), clc.item())
        assert results[True][0] == results[False][0]  # same init, same nll
        assert results[False][1] == 0.0 and results[False][2] == 0.0
        assert results[True][1] > 0.0

    def test_full_composite_gradients_match_finite_differences(self, tmp_path):
        # every parameter of the assembled model, one tiny batch
        cfg = tiny_model_config()
        model = MultimodalNerModel(cfg, vocab_size=8, seed=2)
        # seeds give a generic point: every relu pre-activation sits well
        # clear of its kink, so h=1e-4 differences stay on one linear piece
        perturb = np.random.default_rng(6)
        for p in model.parameters().values():
            p.data += perturb.uniform(-0.2, 0.2, p.shape)
        rng = np.random.default_rng(3)
        batch = Batch(token_ids=[[2, 3], [5, 6]], label_ids=[[1, 2], [3, 0]],
                      images=[rng.uniform(-1, 1, size=(3, 8, 8)) for _ in range(2)])

        def loss_fn():  # the loss training runs, without the conv contrastive term
            crf_nll, cl_vit, _ = model.batch_losses(batch, tau=0.5)
            return total_loss(crf_nll, cl_vit, Tensor(0.0), alpha=0.8)

        errors = check_gradients(loss_fn, model.parameters())
        worst = max(errors.values())
        assert worst < 1e-5, sorted(errors.items(), key=lambda kv: -kv[1])[:5]


class TestBatchedEval:
    """evaluate_model decodes in length-sorted chunks; its report must be the
    one per-sentence predict calls give, whatever the corpus order."""

    @pytest.fixture
    def ragged(self, tmp_path):
        cfg = tiny_model_config()
        limit = cfg.max_len - 2
        words = [f"w{i}" for i in range(12)]
        vocab = Vocabulary(words)
        model = MultimodalNerModel(cfg, len(vocab), seed=4)
        rng = np.random.default_rng(8)
        for p in model.parameters().values():  # tags that vary from token to token
            p.data += rng.uniform(-0.5, 0.5, p.shape)
        (tmp_path / "images").mkdir()
        examples = []
        for i, n in enumerate([1, limit, limit + 3, 3, 2, 4] * 6):
            tokens = [words[j] for j in rng.integers(0, 12, n)]
            labels = ["B-PER" if tokens[j] < "w4" else "O" for j in range(n)]
            write_ppm(tmp_path / "images" / f"im{i}.ppm", rng.uniform(0, 1, (3, 8, 8)))
            examples.append(SentenceExample(tokens, labels, f"im{i}"))
        assert len(examples) > 2 * DECODE_CHUNK
        return model, Corpus(examples), vocab, ImageStore(tmp_path / "images", 8)

    def test_report_equals_per_sentence_predict(self, ragged):
        model, corpus, vocab, images = ragged
        predicted = [model.predict(vocab.encode(ex.tokens), images.load(ex.image_ref))
                     for ex in corpus.examples]
        assert len({tag for tags in predicted for tag in tags}) > 2
        expected = evaluate([ex.labels for ex in corpus.examples], predicted)
        assert evaluate_model(model, corpus, vocab, images).kv_lines() == expected.kv_lines()

    def test_report_does_not_depend_on_corpus_order(self, ragged):
        model, corpus, vocab, images = ragged
        report = evaluate_model(model, corpus, vocab, images).kv_lines()
        for seed in range(3):
            order = np.random.default_rng(seed).permutation(len(corpus))
            permuted = Corpus([corpus.examples[i] for i in order])
            assert evaluate_model(model, permuted, vocab, images).kv_lines() == report


# final parameter digest and (loss, crf_nll, cl_vit, cl_conv) per epoch of
# TestTrainLoop's pinned runs
PINNED_RUNS = {
    "tiny": ("5c4996cc086a5bc13ff4886fccc5095c8cb864d04a1827fc64c47035ee038bc1", [
        (9.408714028545228, 10.854151321628215, 1.9281044560189733, 1.6988604001943055),
        (8.9395492644028, 10.461943997418789, 1.3989422083971763, 1.4510281239416554),
        (8.61059762448683, 10.068820227920519, 1.391309098885492, 1.3863981118665831),
    ]),
    "desk": ("56eb3eece90208c465e95389aa1a0de0bebdeb0ec1cfe42ccf1033b5da1e7750", [
        (8.552998875302144, 9.875606368598248, 1.800651055837796, 1.4619178462799218),
        (6.934859914781598, 7.214603963553552, 4.417063828714453, 1.3988198909793268),
        (6.247774518195799, 6.857580401126242, 2.414080232026236, 1.3944707544477941),
    ]),
}


class TestTrainLoop:
    def test_two_runs_identical(self, tmp_path):
        root = build_overfit_fixture(tmp_path / "data", n_sentences=8)
        results = []
        for run in range(2):
            cfg = tiny_train_config(epochs=2)
            result = train(cfg, root)
            results.append(result)
        a, b = results
        assert [l.loss for l in a.epoch_logs] == [l.loss for l in b.epoch_logs]
        assert [l.eval_f1 for l in a.epoch_logs] == [l.eval_f1 for l in b.epoch_logs]
        assert a.final_report.kv_lines() == b.final_report.kv_lines()

    @pytest.mark.parametrize("model", ["tiny", "desk"])
    def test_seeded_short_run_is_pinned_bitwise(self, tmp_path, monkeypatch, model):
        """A seeded train() with both visual paths, contrastive terms and
        dropout 0.1, of the tiny model and of the desk model: the parameters
        after the last optimizer step and the epoch losses, pinned bit for
        bit. Code that claims to change no number is held to these; they
        hold for one numpy and BLAS build, and another may round differently."""
        class PinnedConfig(TrainConfig):
            def model_config(self):
                if model == "tiny":
                    return tiny_model_config(dropout=self.dropout)
                return super().model_config()

        class Recorded(Adam):
            def step(self, lr):
                super().step(lr)
                digest = hashlib.sha256()
                for name, p in self.params.items():
                    digest.update(name.encode() + p.data.tobytes())
                steps.append(digest.hexdigest())

        steps = []
        monkeypatch.setattr(mmner.training, "Adam", Recorded)
        root = build_overfit_fixture(tmp_path / "data", n_sentences=8)
        config = PinnedConfig(**vars(tiny_train_config(epochs=3, batch_size=4, dropout=0.1)))
        result = train(config, root)
        digest, losses = PINNED_RUNS[model]
        assert len(steps) == 6 and steps[-1] == digest
        assert [(l.loss, l.crf_nll, l.cl_vit, l.cl_conv) for l in result.epoch_logs] == losses

    def test_out_dir_does_not_change_training(self, tmp_path):
        # Each new best is canonicalized to float32 precision whether or not
        # it is saved, so training goes on from the same state either way.
        root = build_overfit_fixture(tmp_path / "data", n_sentences=8)
        runs = [train(tiny_train_config(epochs=3, lr=1e-3), root, out_dir=out)
                for out in (tmp_path / "run", None)]
        saved, unsaved = ([repr(v) for log in r.epoch_logs for v in vars(log).values()]
                          for r in runs)
        assert saved == unsaved
        assert runs[0].kv_lines() == runs[1].kv_lines()

    def test_each_new_best_is_rounded_once(self, tmp_path, monkeypatch):
        root = build_overfit_fixture(tmp_path / "data", n_sentences=8)
        calls = []
        original = mmner.checkpoint.canonicalize

        def counted(params):
            calls.append(len(params))
            return original(params)

        for module in (mmner.checkpoint, mmner.training):
            monkeypatch.setattr(module, "canonicalize", counted)
        result = train(tiny_train_config(epochs=4, lr=2e-2), root, out_dir=tmp_path / "run")
        f1s = [log.eval_f1 for log in result.epoch_logs]
        new_bests = sum(f1 > max(f1s[:i], default=-1.0) for i, f1 in enumerate(f1s))
        assert new_bests >= 2 and len(calls) == new_bests, (f1s, calls)

    def test_load_run_draws_nothing(self, tmp_path, monkeypatch):
        config, vocab = TrainConfig(seed=1), Vocabulary(["a", "b"])
        model = MultimodalNerModel(config.model_config(), len(vocab), seed=5)
        save_run_artifacts(tmp_path, model, vocab, config)

        def no_generator(*args):
            raise AssertionError("load_run made a random generator")

        monkeypatch.setattr(mmner.model.np.random, "default_rng", no_generator)
        loaded, _, _ = load_run(tmp_path)
        saved = model.parameters()
        assert list(loaded.parameters()) == list(saved)
        for name, tensor in loaded.parameters().items():
            np.testing.assert_array_equal(tensor.data, saved[name].data)

    def test_checkpoint_round_trip_preserves_forward(self, tmp_path):
        root = build_overfit_fixture(tmp_path / "data", n_sentences=8)
        out = tmp_path / "run"
        cfg = tiny_train_config(epochs=1)
        train(cfg, root, out_dir=out)
        model, vocab, _ = load_run(out)
        corpus = parse_iob2(root / "train.iob2")
        store = ImageStore(root / "images", model.config.image_size)
        ids = vocab.encode(corpus.examples[0].tokens)
        img = store.load(corpus.examples[0].image_ref)
        with ad.no_grad():
            before, _, _ = model.forward_batch([ids], img[None])
        save_checkpoint(model.parameters(), out / "model2.ckpt")
        model.load_parameters(load_checkpoint(out / "model2.ckpt"))
        with ad.no_grad():
            after, _, _ = model.forward_batch([ids], img[None])
        np.testing.assert_array_equal(before.data, after.data)

    def test_alpha_one_logs_zero_contrastive_contribution(self, tmp_path):
        root = build_overfit_fixture(tmp_path / "data", n_sentences=8)
        cfg = tiny_train_config(epochs=1, alpha=1.0)
        result = train(cfg, root)
        log = result.epoch_logs[0]
        assert log.loss == log.crf_nll

    def test_counters_present(self, tmp_path):
        root = build_overfit_fixture(tmp_path / "data", n_sentences=8)
        result = train(tiny_train_config(epochs=1), root)
        assert set(result.counters) == {
            "unk_tokens", "truncated_sentences", "missing_images", "repaired_labels",
        }

    @pytest.mark.parametrize("epochs", [1, 3])
    def test_counters_are_data_facts(self, tmp_path, epochs):
        root = build_overfit_fixture(tmp_path / "data", n_sentences=8)
        overlong = "\n".join(["IMGID:ov000"] + [f"tok{i}\tO" for i in range(63)])
        with (root / "train.iob2").open("a", encoding="utf-8") as fh:
            fh.write(overlong + "\n\n")
        (root / "dev.iob2").write_text("IMGID:ov001\nAna\tB-PER\nZanzibar\tB-LOC\n\n",
                                       encoding="utf-8")
        result = train(tiny_train_config(epochs=epochs), root)
        assert len(result.epoch_logs) == epochs
        assert result.counters["unk_tokens"] == 1
        assert result.counters["truncated_sentences"] == 1

    def test_a_missing_image_is_not_fatal(self, tmp_path):
        # the flat default image encodes to a zero conv-path embedding row at step 0
        root = build_overfit_fixture(tmp_path / "data", n_sentences=8)
        (root / "images" / "ov003.ppm").unlink()
        result = train(TrainConfig(batch_size=8, epochs=1, lr=5e-3, seed=0), root)
        assert result.counters["missing_images"] == 1
        log = result.epoch_logs[0]
        assert all(math.isfinite(v) for v in (log.loss, log.crf_nll, log.cl_vit, log.cl_conv))

    def test_non_finite_loss_term_stops_before_the_update(self, tmp_path, monkeypatch):
        root = build_overfit_fixture(tmp_path / "data", n_sentences=8)
        batch_losses = MultimodalNerModel.batch_losses

        def nan_cl_vit(self, *args, **kwargs):
            crf_nll, cl_vit, cl_conv = batch_losses(self, *args, **kwargs)
            return crf_nll, ad.mul(cl_vit, Tensor(np.nan)), cl_conv

        steps = []
        monkeypatch.setattr(MultimodalNerModel, "batch_losses", nan_cl_vit)
        monkeypatch.setattr(Adam, "step", lambda self, lr: steps.append(lr))
        with pytest.raises(NumericError, match=r"^epoch 1 step 0: non-finite cl_vit = nan$"):
            train(tiny_train_config(epochs=1), root)
        assert steps == []

    def test_numeric_error_in_losses_names_epoch_and_step(self, tmp_path, monkeypatch):
        root = build_overfit_fixture(tmp_path / "data", n_sentences=8)

        def diverge(self, *args, **kwargs):
            raise NumericError("softmax: non-finite input")

        monkeypatch.setattr(MultimodalNerModel, "batch_losses", diverge)
        with pytest.raises(NumericError, match=r"^epoch 1 step 0: softmax: non-finite input$"):
            train(tiny_train_config(epochs=1), root)

    def test_numeric_error_in_eval_names_its_epoch(self, tmp_path, monkeypatch):
        root = build_overfit_fixture(tmp_path / "data", n_sentences=8)
        # three epochs evaluate three times, then the final eval is call 4
        for failing_call, prefix in ((2, "epoch 2 eval"), (4, "final eval")):
            calls = []

            def diverge_on(*args, _failing_call=failing_call):
                calls.append(1)
                if len(calls) == _failing_call:
                    raise NumericError("softmax: non-finite input")
                return evaluate_model(*args)

            monkeypatch.setattr(mmner.training, "evaluate_model", diverge_on)
            with pytest.raises(NumericError, match=rf"^{prefix}: softmax: non-finite input$"):
                train(tiny_train_config(epochs=3), root)

    def test_schema_mismatch_rejected(self, tmp_path):
        cfg = tiny_model_config()
        model = MultimodalNerModel(cfg, vocab_size=8, seed=0)
        arrays = {k: p.data.copy() for k, p in model.parameters().items()}
        arrays["crf.emission_b"] = np.zeros(5)  # wrong label count
        with pytest.raises(Exception, match="schema"):
            model.load_parameters(arrays)

    def test_other_crf_names_rejected(self):
        model = MultimodalNerModel(tiny_model_config(), vocab_size=8, seed=0)
        arrays = {k: p.data for k, p in model.parameters().items()}
        arrays["crf.table"] = arrays.pop("crf.transitions")
        with pytest.raises(ConfigError) as exc:
            model.load_parameters(arrays)
        assert str(exc.value) == "checkpoint label set does not match this model's schema"


class HalfWrite:
    """File stand-in whose write stores the first half of the data, then fails."""

    def __init__(self, file):
        self.file = file

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()

    def write(self, data):
        self.file.write(data[: len(data) // 2])
        self.file.flush()
        raise OSError("no space left on device")


class TestAtomicArtifacts:
    @pytest.mark.parametrize("name", ["model.ckpt", "vocab.txt", "config.cfg"])
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, name):
        model = MultimodalNerModel(tiny_model_config(), vocab_size=8, seed=0)
        out = tmp_path / "run"
        save_run_artifacts(out, model, Vocabulary(["a", "b"]), TrainConfig(seed=1))
        before = (out / name).read_bytes()
        for p in model.parameters().values():
            p.data += 0.5

        def failing_open(path, *args, **kwargs):
            file = open(path, *args, **kwargs)
            return HalfWrite(file) if Path(path).name.startswith(f".{name}.") else file

        monkeypatch.setattr(mmner.checkpoint, "open", failing_open, raising=False)
        with pytest.raises(OSError, match="no space left"):
            save_run_artifacts(out, model, Vocabulary(["a", "b", "c"]), TrainConfig(seed=2))
        assert (out / name).read_bytes() == before
        assert sorted(p.name for p in out.iterdir()) == ["config.cfg", "model.ckpt", "vocab.txt"]

    def test_save_replaces_every_file(self, tmp_path):
        model = MultimodalNerModel(tiny_model_config(), vocab_size=8, seed=0)
        out = tmp_path / "run"
        save_run_artifacts(out, model, Vocabulary(["a"]), TrainConfig(seed=1))
        save_run_artifacts(out, model, Vocabulary(["a", "b"]), TrainConfig(seed=2))
        assert (out / "vocab.txt").read_text() == "a\nb\n"
        assert "seed = 2\n" in (out / "config.cfg").read_text()
        assert sorted(p.name for p in out.iterdir()) == ["config.cfg", "model.ckpt", "vocab.txt"]
