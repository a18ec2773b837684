"""IOB2 parsing, PPM loading, batching, statistics, and kappa."""

import numpy as np
import pytest

from mmner.autodiff import ContractError
from mmner.data import (
    Batch,
    Corpus,
    CorpusError,
    ImageStore,
    SentenceExample,
    Vocabulary,
    bilinear_resize,
    cohens_kappa,
    dataset_stats,
    iob2_blocks,
    make_batches,
    parse_iob2,
    read_ppm,
    serialize_iob2,
    to_arrays,
    write_ppm,
    IGNORE_LABEL,
    PAD_ID,
    UNK_ID,
)
from mmner.metrics import extract_spans


def write_corpus(path, text):
    path.write_text(text, encoding="utf-8")
    return path


SIMPLE = (
    "LANG:en\n"
    "IMGID:img_001\n"
    "Albert\tB-PER\n"
    "Pujols\tI-PER\n"
    "\n"
)


class TestParseIob2:
    def test_two_token_person(self, tmp_path):
        corpus = parse_iob2(write_corpus(tmp_path / "t.iob2", SIMPLE))
        assert len(corpus) == 1
        ex = corpus.examples[0]
        assert ex.tokens == ["Albert", "Pujols"]
        assert ex.labels == ["B-PER", "I-PER"]
        assert ex.image_ref == "img_001"
        assert ex.language == "en"
        spans = extract_spans(ex.labels)
        assert len(spans) == 1 and spans[0].type == "PER"

    def test_empty_file(self, tmp_path):
        corpus = parse_iob2(write_corpus(tmp_path / "e.iob2", ""))
        assert len(corpus) == 0

    def test_missing_trailing_blank_line(self, tmp_path):
        corpus = parse_iob2(write_corpus(tmp_path / "t.iob2", SIMPLE.rstrip("\n")))
        assert len(corpus) == 1

    def test_lang_line_optional(self, tmp_path):
        text = "IMGID:x\nParis\tB-LOC\n\n"
        corpus = parse_iob2(write_corpus(tmp_path / "t.iob2", text))
        assert corpus.examples[0].language == "unk"

    def test_dangling_inside_is_error_with_location(self, tmp_path):
        text = "IMGID:x\nParis\tI-LOC\n\n"
        with pytest.raises(CorpusError, match="I- tag"):
            parse_iob2(write_corpus(tmp_path / "t.iob2", text))

    def test_dangling_inside_repaired_and_counted(self, tmp_path):
        text = "IMGID:x\nParis\tI-LOC\n\n"
        corpus = parse_iob2(write_corpus(tmp_path / "t.iob2", text), repair=True)
        assert corpus.examples[0].labels == ["B-LOC"]
        assert corpus.repaired_labels == 1

    def test_missing_imgid_is_error(self, tmp_path):
        text = "Paris\tB-LOC\n\n"
        with pytest.raises(CorpusError, match="IMGID"):
            parse_iob2(write_corpus(tmp_path / "t.iob2", text))

    def test_unknown_label_names_line(self, tmp_path):
        text = "IMGID:x\nParis\tB-CITY\n\n"
        with pytest.raises(CorpusError, match=":2:"):
            parse_iob2(write_corpus(tmp_path / "t.iob2", text))

    def test_malformed_token_line(self, tmp_path):
        text = "IMGID:x\nParis B-LOC\n\n"
        with pytest.raises(CorpusError, match="token<TAB>label"):
            parse_iob2(write_corpus(tmp_path / "t.iob2", text))

    def test_multi_image_sentences_are_duplicated_blocks(self, tmp_path):
        text = (
            "IMGID:a\nParis\tB-LOC\n\n"
            "IMGID:b\nParis\tB-LOC\n\n"
        )
        corpus = parse_iob2(write_corpus(tmp_path / "t.iob2", text))
        assert [ex.image_ref for ex in corpus.examples] == ["a", "b"]

    def test_round_trip(self, tmp_path):
        text = (
            "LANG:fr\nIMGID:img1\nLa\tO\nTamise\tB-LOC\n\n"
            "IMGID:img2\nFireworks\tO\nThames\tB-LOC\nNew\tB-MISC\nYear\tI-MISC\n\n"
        )
        corpus = parse_iob2(write_corpus(tmp_path / "t.iob2", text))
        serialized = serialize_iob2(corpus)
        again = parse_iob2(write_corpus(tmp_path / "u.iob2", serialized))
        for a, b in zip(corpus.examples, again.examples):
            assert (a.tokens, a.labels, a.image_ref, a.language) == (
                b.tokens, b.labels, b.image_ref, b.language)
        assert serialize_iob2(again) == serialized


# A well-formed block ahead of each case, then two blank lines, so the case's
# block starts on line 5: its line numbers are pinned relative to the file.
LEAD = "IMGID:a\nLa\tO\n\n\n"


class TestIob2Errors:
    """Every parse_iob2 error keeps its message and line on blocks that
    start with LANG lines."""

    @pytest.mark.parametrize("block, message", [
        ("LANG:en\nIMGID:x\n", ":5: IMGID block without token lines"),
        ("LANG:fr\nLANG:en\nIMGID:x\nParis\tI-LOC\n",
         ": sentence 1 (line 5): I- tag without same-type opener at token position(s) [0]"),
        ("LANG:en\nIMGID:\nParis\tB-LOC\n", ":6: empty IMGID"),
        ("LANG:en\nIMGID:  \n", ":6: empty IMGID"),
        ("LANG:en\nParis\tB-LOC\n", ":6: expected IMGID line, got 'Paris\\tB-LOC'"),
        ("LANG:en\nIMGID:x\nParis B-LOC\n",
         ":7: expected 'token<TAB>label', got 'Paris B-LOC'"),
        ("LANG:en\nIMGID:x\nParis\tB-LOC\tO\n",
         ":7: expected 'token<TAB>label', got 'Paris\\tB-LOC\\tO'"),
        ("LANG:en\nIMGID:x\n\tO\n", ":7: expected 'token<TAB>label', got '\\tO'"),
        ("LANG:en\nIMGID:x\nParis\tB-CITY\n", ":7: unknown label 'B-CITY'"),
        ("LANG:en\nIMGID:x\nLANG:fr\n", ":7: expected 'token<TAB>label', got 'LANG:fr'"),
        ("LANG:en\nIMGID:x\nIMGID:y\nParis\tB-LOC\n",
         ":7: expected 'token<TAB>label', got 'IMGID:y'"),
    ])
    def test_message_and_line(self, tmp_path, block, message):
        path = write_corpus(tmp_path / "t.iob2", LEAD + block + "\n")
        with pytest.raises(CorpusError) as info:
            parse_iob2(path)
        assert str(info.value) == f"{path}{message}"

    def test_lang_only_block_is_skipped(self, tmp_path):
        corpus = parse_iob2(write_corpus(tmp_path / "t.iob2", LEAD + "LANG:en\n\n" + SIMPLE))
        assert [ex.image_ref for ex in corpus.examples] == ["a", "img_001"]

    def test_language_outside_the_four_reads_unk(self, tmp_path):
        text = "LANG: en \nIMGID:x\nParis\tB-LOC\n\nLANG:xx\nIMGID:y\nParis\tB-LOC\n"
        corpus = parse_iob2(write_corpus(tmp_path / "t.iob2", text))
        assert [ex.language for ex in corpus.examples] == ["en", "unk"]


class TestIob2Blocks:
    def test_headers_only_in_header_position(self):
        text = ("\n\nLANG:xx\nLANG: fr \nIMGID: s1 \nLANG:en\nIMGID:s2\nA\tO\n \n"
                "B\nIMGID:s3\n\n\nLANG:de\n")
        assert list(iob2_blocks(text)) == [
            (3, "fr", "s1", 5, [(6, "LANG:en"), (7, "IMGID:s2"), (8, "A\tO")]),
            (10, "unk", None, 0, [(10, "B"), (11, "IMGID:s3")]),
            (14, "de", None, 0, []),
        ]

    def test_empty_text_has_no_blocks(self):
        assert list(iob2_blocks("")) == [] and list(iob2_blocks("\n \n\t\n")) == []


class TestVocabulary:
    def test_reserved_ids(self):
        vocab = Vocabulary(["a", "b", "a"])
        assert len(vocab) == 4  # PAD, UNK, a, b
        assert vocab.encode(["a", "b"]) == [2, 3]

    def test_unknown_maps_to_unk_and_counts(self):
        vocab = Vocabulary(["a"])
        assert vocab.encode(["zzz"]) == [UNK_ID]

    def test_case_preserved(self):
        vocab = Vocabulary(["Paris"])
        assert vocab.encode(["paris"]) == [UNK_ID]
        assert vocab.encode(["Paris"]) == [2]

    def test_order_round_trip(self):
        vocab = Vocabulary(["x", "y", "z"])
        rebuilt = Vocabulary(vocab.tokens_in_order())
        assert rebuilt.encode(["x", "y", "z"]) == vocab.encode(["x", "y", "z"])


class TestPpm:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, size=(3, 5, 7)).astype(np.float64) / 255.0
        path = tmp_path / "x.ppm"
        write_ppm(path, img)
        back = read_ppm(path)
        np.testing.assert_allclose(back, img, atol=1e-9)

    def test_comment_in_header(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# a comment\n1 1\n255\n\xff\x00\x00")
        img = read_ppm(path)
        np.testing.assert_allclose(img[:, 0, 0], [1.0, 0.0, 0.0])

    def test_bad_magic_names_file(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(CorpusError, match="bad.ppm"):
            read_ppm(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n2 2\n255\n\x00\x00\x00")
        with pytest.raises(CorpusError, match="truncated"):
            read_ppm(path)


class TestBilinearResize:
    def test_four_to_two_block_average(self):
        # (dst + 0.5) * 2 - 0.5 lands halfway between pixel pairs, so each
        # output is the plain mean of one 2x2 block; weights are all 0.25.
        plane = np.arange(16.0).reshape(4, 4)
        img = plane[None, :, :]
        out = bilinear_resize(img, 2, 2)
        expected = np.array([[2.5, 4.5], [10.5, 12.5]])  # hand-computed
        np.testing.assert_allclose(out[0], expected, atol=1e-6)

    def test_checkerboard_averages_to_half(self):
        board = np.indices((4, 4)).sum(axis=0) % 2
        img = board[None, :, :].astype(np.float64)
        out = bilinear_resize(img, 2, 2)
        np.testing.assert_allclose(out[0], 0.5, atol=1e-6)

    def test_identity_when_same_size(self):
        rng = np.random.default_rng(1)
        img = rng.random((3, 5, 5))
        np.testing.assert_allclose(bilinear_resize(img, 5, 5), img, atol=1e-12)


class TestImageStore:
    def test_all_white_is_one_after_normalization(self, tmp_path):
        write_ppm(tmp_path / "w.ppm", np.ones((3, 2, 2)))
        store = ImageStore(tmp_path, resolution=2)
        img = store.load("w")
        np.testing.assert_allclose(img, 1.0)

    def test_missing_returns_default_and_counts(self, tmp_path):
        store = ImageStore(tmp_path, resolution=4)
        img = store.load("nope")
        assert img.shape == (3, 4, 4)
        np.testing.assert_allclose(img, 0.0)  # mid-gray normalizes to 0
        assert store.missing_count == 1

    def test_resizes_to_resolution(self, tmp_path):
        write_ppm(tmp_path / "big.ppm", np.zeros((3, 8, 8)))
        store = ImageStore(tmp_path, resolution=2)
        assert store.load("big").shape == (3, 2, 2)


def tiny_corpus(n=5):
    examples = [
        SentenceExample([f"tok{i}", "x"], ["B-PER", "O"], f"img{i}", "en")
        for i in range(n)
    ]
    return Corpus(examples)


class TestBatching:
    def make(self, corpus, batch, seed=0, shuffle=False, tmp_path=None):
        vocab = Vocabulary.from_corpus(corpus)
        store = ImageStore(tmp_path, resolution=2)
        return list(make_batches(corpus, batch, seed, shuffle, vocab, store))

    def test_batch_sizes(self, tmp_path):
        batches = self.make(tiny_corpus(5), 2, tmp_path=tmp_path)
        assert [len(b) for b in batches] == [2, 2, 1]

    def test_no_shuffle_preserves_file_order(self, tmp_path):
        batches = self.make(tiny_corpus(5), 2, tmp_path=tmp_path)
        refs = [ex.image_ref for b in batches for ex in b.examples]
        assert refs == [f"img{i}" for i in range(5)]

    def test_same_seed_same_composition(self, tmp_path):
        a = self.make(tiny_corpus(7), 3, seed=11, shuffle=True, tmp_path=tmp_path)
        b = self.make(tiny_corpus(7), 3, seed=11, shuffle=True, tmp_path=tmp_path)
        assert [[ex.image_ref for ex in x.examples] for x in a] == \
               [[ex.image_ref for ex in x.examples] for x in b]

    def test_different_seed_differs(self, tmp_path):
        a = self.make(tiny_corpus(20), 5, seed=1, shuffle=True, tmp_path=tmp_path)
        b = self.make(tiny_corpus(20), 5, seed=2, shuffle=True, tmp_path=tmp_path)
        assert [[ex.image_ref for ex in x.examples] for x in a] != \
               [[ex.image_ref for ex in x.examples] for x in b]

    def test_padding_positions_carry_ignore_mark(self, tmp_path):
        corpus = Corpus([
            SentenceExample(["a", "b", "c"], ["O", "O", "O"], "i1"),
            SentenceExample(["d"], ["B-LOC"], "i2"),
        ])
        (batch,) = self.make(corpus, 2, tmp_path=tmp_path)
        ids, lengths, labels, images = to_arrays(batch)
        assert ids.shape == (2, 3)
        assert list(lengths) == [3, 1]
        assert ids[1, 1] == PAD_ID and ids[1, 2] == PAD_ID
        assert labels[1, 1] == IGNORE_LABEL and labels[1, 2] == IGNORE_LABEL
        # every position is either a real token with a real label or padding
        for i in range(2):
            for j in range(3):
                real = j < lengths[i]
                assert (labels[i, j] != IGNORE_LABEL) == real
        assert images.shape == (2, 3, 2, 2)

    def test_bad_batch_size(self, tmp_path):
        with pytest.raises(ContractError):
            self.make(tiny_corpus(3), 0, tmp_path=tmp_path)


class TestDatasetStats:
    def test_hand_counted_fixture(self):
        examples = [
            SentenceExample(["a", "b"], ["B-PER", "I-PER"], "i1", "en"),
            SentenceExample(["c"], ["B-PER"], "i2", "en"),
            SentenceExample(["d", "e"], ["B-LOC", "O"], "i3", "fr"),
        ]
        report = dataset_stats({"train": Corpus(examples)})
        assert report.span_counts[("en", "train")]["PER"] == 2
        assert report.span_counts[("fr", "train")]["LOC"] == 1
        assert report.total_spans("PER") == 2
        assert report.total_spans() == 3
        assert report.sentence_counts[("en", "train")] == 2

    def test_empty_corpus_zero_table(self):
        report = dataset_stats({"train": Corpus([])})
        assert report.total_spans() == 0
        assert sum(report.sentence_counts.values()) == 0
        assert "Total" in report.format_table()

    def test_counts_invariant_to_order(self):
        examples = [
            SentenceExample(["a"], ["B-ORG"], "i1", "en"),
            SentenceExample(["b"], ["B-MISC"], "i2", "de"),
            SentenceExample(["c"], ["O"], "i3", "de"),
        ]
        fwd = dataset_stats({"train": Corpus(list(examples))})
        rev = dataset_stats({"train": Corpus(list(reversed(examples)))})
        assert fwd.span_counts == rev.span_counts
        assert fwd.sentence_counts == rev.sentence_counts

    def test_totals_equal_sum_of_language_parts(self):
        examples = [
            SentenceExample(["a"], ["B-ORG"], "i1", "en"),
            SentenceExample(["b"], ["B-ORG"], "i2", "fr"),
        ]
        report = dataset_stats({"train": Corpus(examples)})
        per_lang = sum(
            report.span_counts[key]["ORG"] for key in report.span_counts
        )
        assert report.total_spans("ORG") == per_lang == 2


class TestCohensKappa:
    def test_perfect_agreement(self):
        assert cohens_kappa(np.diag([7, 3, 5])) == 1.0

    def test_hand_computed_example(self):
        # p_o = 0.7, p_e = 0.5 -> kappa = 0.4
        k = cohens_kappa(np.array([[20, 5], [10, 15]]))
        assert k == pytest.approx(0.4, abs=1e-12)

    def test_chance_level_agreement_is_zero(self):
        # independent marginals: table = outer([12, 4], [12, 4]) / 16
        table = np.array([[9, 3], [3, 1]])
        assert cohens_kappa(table) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_constant_annotators(self):
        with pytest.raises(ContractError, match="undefined"):
            cohens_kappa(np.array([[5, 0], [0, 0]]))

    def test_empty_table(self):
        with pytest.raises(ContractError):
            cohens_kappa(np.zeros((2, 2)))

    def test_disagreement_can_go_negative(self):
        k = cohens_kappa(np.array([[0, 10], [10, 0]]))
        assert -1.0 <= k < 0.0
