"""CRF scoring/partition/decoding against exhaustive enumeration oracles."""

import itertools
import math
import re

import numpy as np
import pytest

from mmner import autodiff as ad
from mmner.autodiff import ConfigError, ContractError, ShapeError, Tensor, backward
from mmner.crf import NEG_INF, LabelSchema, LinearChainCrf
from mmner.gradcheck import rel_error
from mmner.metrics import extract_spans
from mmner.selftest import _crf_instance, _enum_scores, oracle_best_path, oracle_log_partition


def oracle_marginals(em, trans, boundary):
    """Per-position label marginals summed over the enumeration of all L^n paths."""
    scores = list(_enum_scores(em, trans, boundary))
    log_z = oracle_log_partition(scores)
    marg = np.zeros(em.shape)
    for path, s in scores:
        p = math.exp(s - log_z)
        for i, y in enumerate(path):
            marg[i, y] += p
    return marg


def batch_of_one(em):
    """A sentence's (n, L) emissions as the CRF's padded batch of one:
    (emissions (1, n, L), lengths [n])."""
    em = em if isinstance(em, Tensor) else Tensor(em)
    return em.reshape(1, *em.shape), [em.shape[0]]


def make_crf(num_labels, seed, input_dim=4, mask=None):
    return LinearChainCrf(input_dim, num_labels, np.random.default_rng(seed),
                          transition_mask=mask)


class TestConstruction:
    def test_table_is_the_begin_end_draw_less_its_end_row_and_begin_column(self):
        # one boundary tag L: row L is the start scores, column L the end scores
        draw = np.random.default_rng(9)
        draw.normal(size=(4, 3))  # the emission weights come first
        old = draw.normal(0.0, 0.01, (5, 5))  # BEGIN = 3, END = 4
        crf = make_crf(3, 9)
        assert crf.transitions.shape == (4, 4)
        np.testing.assert_array_equal(crf.transitions.data[:, :3], old[:4, :3])
        np.testing.assert_array_equal(crf.transitions.data[:, 3], old[:4, 4])
        assert not hasattr(crf, "begin") and not hasattr(crf, "end")

    @pytest.mark.parametrize("input_dim, labels", [(0, 3), (4, 0)])
    def test_bad_dims(self, input_dim, labels):
        with pytest.raises(ConfigError,
                           match=f"^bad CRF dims: input {input_dim}, labels {labels}$"):
            make_crf(labels, 0, input_dim=input_dim)

    def test_mask_of_the_begin_end_layout_is_refused(self):
        L = LabelSchema().num_labels
        message = f"transition mask ({L + 2}, {L + 2}) vs ({L + 1}, {L + 1})"
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
            make_crf(L, 0, mask=np.zeros((L + 2, L + 2)))


class TestScore:
    def test_single_step_zero_transitions(self):
        crf = make_crf(4, 0)
        crf.transitions.data[:] = 0.0
        em = Tensor([[1.5, -2.0, 0.25, 3.0]])
        for y in range(4):
            assert crf.score(*batch_of_one(em), [[y]]).item() == em.data[0, y]

    def test_all_zero_instance(self):
        crf = make_crf(3, 1)
        crf.transitions.data[:] = 0.0
        em = Tensor(np.zeros((4, 3)))
        for path in itertools.product(range(3), repeat=4):
            assert crf.score(*batch_of_one(em), [list(path)]).item() == 0.0

    def test_matches_resummation_oracle(self):
        rng = np.random.default_rng(2)
        crf = make_crf(5, 2)
        em = Tensor(rng.normal(size=(4, 5)))
        path = [3, 0, 4, 2]
        # Re-gather the terms by hand and re-sum with the same grouping
        # (all emission terms, then all transition terms).
        em_terms = np.array([em.data[i, y] for i, y in enumerate(path)])
        edge = crf.num_labels  # the boundary tag
        hops = [(edge, path[0])] + list(zip(path, path[1:])) + [(path[-1], edge)]
        tr_terms = np.array([crf.transitions.data[a, b] for a, b in hops])
        expected = np.sum(em_terms) + np.sum(tr_terms)
        assert crf.score(*batch_of_one(em), [path]).item() == expected
        # and against the sequential walk within float tolerance
        walk = dict(_enum_scores(em.data, crf.transitions.data, crf.num_labels))[tuple(path)]
        assert crf.score(*batch_of_one(em), [path]).item() == pytest.approx(walk, abs=1e-12)

    def test_label_out_of_range(self):
        crf = make_crf(3, 3)
        with pytest.raises(ContractError):
            crf.score(*batch_of_one(np.zeros((2, 3))), [[0, 3]])


class TestLogPartition:
    def test_single_position_reduces_to_lse(self):
        crf = make_crf(4, 4)
        crf.transitions.data[:] = 0.0
        rng = np.random.default_rng(4)
        row = rng.normal(size=(1, 4))
        got = crf.log_partition(*batch_of_one(row)).item()
        assert got == pytest.approx(ad.log_sum_exp(Tensor(row[0])).item(), abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("L", [2, 3, 4, 5])
    def test_matches_enumeration(self, n, L):
        for trial in range(20, 40):  # beyond the instances oracle_suite runs
            crf, em = _crf_instance(n, L, trial)
            expected = oracle_log_partition(
                _enum_scores(em, crf.transitions.data, crf.num_labels))
            assert abs(crf.log_partition(*batch_of_one(em)).item() - expected) < 1e-8

    def test_constant_emission_shift(self):
        rng = np.random.default_rng(5)
        crf = make_crf(4, 5)
        em = rng.normal(size=(3, 4))
        base = crf.log_partition(*batch_of_one(em)).item()
        c = 1.37
        shifted = em.copy()
        shifted[1] += c
        got = crf.log_partition(*batch_of_one(shifted)).item()
        assert got == pytest.approx(base + c, abs=1e-10)


class TestNll:
    def test_single_label_forced_distribution(self):
        crf = make_crf(1, 6)
        rng = np.random.default_rng(6)
        em = Tensor(rng.normal(size=(5, 1)))
        assert crf.nll(*batch_of_one(em), [[0] * 5]).item() == pytest.approx(0.0, abs=1e-10)

    def test_nonnegative(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            crf = make_crf(4, seed)
            n = int(rng.integers(1, 6))
            em = Tensor(rng.normal(size=(n, 4)) * 3.0)
            path = list(rng.integers(0, 4, size=n))
            assert crf.nll(*batch_of_one(em), [path]).item() >= -1e-10

    def test_matches_enumeration_probability(self):
        for seed in range(5):
            rng = np.random.default_rng(40 + seed)
            L, n = 5, 4
            crf = make_crf(L, seed)
            em = Tensor(rng.normal(size=(n, L)))
            path = list(rng.integers(0, L, size=n))
            scores = dict(_enum_scores(em.data, crf.transitions.data, crf.num_labels))
            log_z = oracle_log_partition(scores.items())
            p_gold = math.exp(scores[tuple(path)] - log_z)
            got = crf.nll(*batch_of_one(em), [path]).item()
            assert got == pytest.approx(-math.log(p_gold), abs=1e-8)

    def test_path_probabilities_sum_to_one(self):
        for seed in range(5):
            rng = np.random.default_rng(70 + seed)
            L, n = 4, 4
            crf = make_crf(L, seed)
            em = Tensor(rng.normal(size=(n, L)) * 2)
            log_z = crf.log_partition(*batch_of_one(em)).item()
            total = sum(
                math.exp(s - log_z)
                for _, s in _enum_scores(em.data, crf.transitions.data, crf.num_labels)
            )
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_gradient_is_marginals_minus_onehot(self):
        rng = np.random.default_rng(8)
        L, n = 4, 3
        crf = make_crf(L, 8)
        em = Tensor(rng.normal(size=(n, L)), requires_grad=True)
        path = [2, 0, 3]
        loss = crf.nll(*batch_of_one(em), [path])
        backward(loss)
        marg = oracle_marginals(em.data, crf.transitions.data, crf.num_labels)
        onehot = np.zeros((n, L))
        onehot[np.arange(n), path] = 1.0
        assert rel_error(em.grad, marg - onehot) < 1e-8


class TestViterbi:
    def test_zero_transitions_decouples_positions(self):
        crf = make_crf(4, 10)
        crf.transitions.data[:] = 0.0
        em = np.array([
            [0.0, 2.0, 1.0, 2.0],   # tie between 1 and 3 -> 1
            [5.0, 5.0, 5.0, 5.0],   # full tie -> 0
            [-1.0, -3.0, 0.0, -2.0],
        ])
        [(path, score)] = crf.viterbi(*batch_of_one(em))
        assert path == [1, 0, 2]
        assert score == em[0, 1] + em[1, 0] + em[2, 2]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("L", [2, 3, 5])
    def test_matches_enumeration_argmax(self, n, L):
        for trial in range(20, 40):  # beyond the instances oracle_suite runs
            crf, em = _crf_instance(n, L, trial)
            [(path, score)] = crf.viterbi(*batch_of_one(em))
            exp_path, exp_score = oracle_best_path(
                _enum_scores(em, crf.transitions.data, crf.num_labels))
            assert path == exp_path
            assert score == exp_score

    def test_tie_break_with_integer_scores(self):
        # Two max-score paths; the DP must return the one preferred by
        # lowest-index backpointer decisions.
        crf = make_crf(2, 11)
        crf.transitions.data[:] = 0.0
        crf.transitions.data[0, 1] = 1.0
        crf.transitions.data[1, 0] = 1.0
        em = Tensor(np.zeros((2, 2)))
        [(path, score)] = crf.viterbi(*batch_of_one(em))
        exp_path, exp_score = oracle_best_path(
            _enum_scores(em.data, crf.transitions.data, crf.num_labels))
        assert score == exp_score == 1.0
        assert path == exp_path == [1, 0]

    def test_ragged_tie_heavy_batch_matches_enumeration(self):
        # half-integer scores tie often and sum exactly: each sentence of a
        # ragged batch gets the enumeration's path and score, ties included
        rng = np.random.default_rng(17)
        for trial in range(30):
            crf = make_crf(3, trial)
            crf.transitions.data[:] = rng.integers(-2, 3, crf.transitions.shape) * 0.5
            lengths = rng.integers(1, 5, 3).tolist()
            em = rng.integers(-2, 3, (3, max(lengths), 3)) * 0.5
            got = crf.viterbi(Tensor(em), lengths)
            for b, n in enumerate(lengths):
                assert got[b] == oracle_best_path(
                    _enum_scores(em[b, :n], crf.transitions.data, crf.num_labels))

    def test_viterbi_score_bounds_gold_score(self):
        for seed in range(10):
            rng = np.random.default_rng(200 + seed)
            crf = make_crf(5, seed)
            n = int(rng.integers(1, 6))
            em = Tensor(rng.normal(size=(n, 5)))
            gold = list(rng.integers(0, 5, size=n))
            [(_, best)] = crf.viterbi(*batch_of_one(em))
            assert best >= crf.score(*batch_of_one(em), [gold]).item() - 1e-12

    def test_masked_decoding_never_emits_invalid_iob2(self):
        schema = LabelSchema()
        mask = schema.invalid_transition_mask()
        L = schema.num_labels
        for seed in range(20):
            rng = np.random.default_rng(300 + seed)
            crf = make_crf(L, seed, mask=mask)
            em = Tensor(rng.uniform(-3, 3, size=(6, L)))
            [(path, _)] = crf.viterbi(*batch_of_one(em))
            tags = schema.decode(path)
            assert schema.iob2_violations(tags) == []


class TestLabelSchema:
    def test_default_tag_order(self):
        schema = LabelSchema()
        assert schema.tags == (
            "O", "B-PER", "I-PER", "B-LOC", "I-LOC",
            "B-ORG", "I-ORG", "B-MISC", "I-MISC",
        )
        assert schema.num_labels == 9

    def test_violations_and_repair(self):
        schema = LabelSchema()
        tags = ["I-LOC", "O", "B-PER", "I-PER", "I-ORG"]
        assert schema.iob2_violations(tags) == [0, 4]
        fixed, count = schema.repair(tags)
        assert fixed == ["B-LOC", "O", "B-PER", "I-PER", "B-ORG"]
        assert count == 2
        assert schema.iob2_violations(fixed) == []

    def test_mask_blocks_begin_to_inside(self):
        schema = LabelSchema()
        mask = schema.invalid_transition_mask()
        i_per = schema.tag_index("I-PER")
        assert mask[schema.num_labels, i_per] == NEG_INF  # the start row
        assert mask[schema.tag_index("B-PER"), i_per] == 0.0
        assert mask[schema.tag_index("O"), i_per] == NEG_INF

    def test_unknown_tag(self):
        with pytest.raises(ContractError):
            LabelSchema().tag_index("B-GPE")

    def test_violations_repair_spans_and_mask_agree(self):
        # every sequence of up to 4 tags (7,381 of them): a violation is exactly
        # a span that extract_spans opens on an I- tag, and repair removes
        # each one without moving a span
        schema = LabelSchema()
        sequences = [list(tags) for n in range(5)
                     for tags in itertools.product(schema.tags, repeat=n)]
        assert len(sequences) == 7381
        for tags in sequences:
            spans = extract_spans(tags)
            bad = schema.iob2_violations(tags)
            assert bad == [s.start for s in spans if tags[s.start].startswith("I-")], tags
            fixed, count = schema.repair(tags)
            assert schema.iob2_violations(fixed) == [] and count == len(bad), tags
            assert extract_spans(fixed) == spans, tags
        # the mask forbids exactly the moves that make a violation
        mask = schema.invalid_transition_mask()
        for b, tag in enumerate(schema.tags):
            for a, prev in enumerate(schema.tags):
                assert (mask[a, b] == NEG_INF) == (1 in schema.iob2_violations([prev, tag]))
            begin_forbids = mask[schema.num_labels, b] == NEG_INF  # the start row
            assert begin_forbids == (schema.iob2_violations([tag]) == [0])


class TestPaddedBatch:
    """A ragged batch gives each sentence what its batch of one gives."""

    @staticmethod
    def ragged(seed, mask=None):
        rng = np.random.default_rng(seed)
        L = LabelSchema().num_labels
        crf = make_crf(L, seed, mask=mask)
        crf.transitions.data[:] = rng.normal(size=crf.transitions.shape)
        lengths = [3, 1, 7, 2, 7, 5]
        em = rng.normal(size=(len(lengths), 7, L)) * 2.0
        paths = [list(rng.integers(0, L, size=n)) for n in lengths]
        return crf, em, lengths, paths

    @pytest.mark.parametrize("masked", [False, True])
    def test_each_sentence_matches_its_batch_of_one_bitwise(self, masked):
        mask = LabelSchema().invalid_transition_mask() if masked else None
        crf, em, lengths, paths = self.ragged(20, mask)
        log_z = crf.log_partition(Tensor(em), lengths).data
        decoded = crf.viterbi(Tensor(em), lengths)
        assert log_z.shape == (len(lengths),)
        for b, n in enumerate(lengths):
            one = batch_of_one(em[b, :n])
            assert log_z[b] == crf.log_partition(*one).item()
            assert decoded[b] == crf.viterbi(*one)[0]
        singles = [crf.nll(*batch_of_one(em[b, :n]), [paths[b]]).item()
                   for b, n in enumerate(lengths)]
        assert crf.nll(Tensor(em), lengths, paths).item() == pytest.approx(
            np.mean(singles), rel=1e-12, abs=1e-12)
        gold = sum(crf.score(*batch_of_one(em[b, :n]), [paths[b]]).item()
                   for b, n in enumerate(lengths))
        assert crf.score(Tensor(em), lengths, paths).item() == pytest.approx(gold, rel=1e-12)

    def test_padded_rows_get_zero_gradient_and_move_nothing(self):
        crf, em, lengths, paths = self.ragged(21)
        padded = np.arange(em.shape[1])[None, :] >= np.array(lengths)[:, None]
        emissions = Tensor(em, requires_grad=True)
        loss = crf.nll(emissions, lengths, paths)
        backward(loss)
        assert np.all(emissions.grad[padded] == 0.0)
        assert np.all(emissions.grad[~padded] != 0.0)
        moved = em.copy()
        moved[padded] = np.random.default_rng(22).uniform(-50, 50, size=moved[padded].shape)
        assert crf.nll(Tensor(moved), lengths, paths).item() == loss.item()
        np.testing.assert_array_equal(crf.log_partition(Tensor(moved), lengths).data,
                                      crf.log_partition(Tensor(em), lengths).data)
        assert crf.viterbi(Tensor(moved), lengths) == crf.viterbi(Tensor(em), lengths)

    @pytest.mark.parametrize("shape, lengths", [
        ((2, 3, 4), [0, 3]),        # an empty sentence
        ((2, 3, 4), [2, 4]),        # longer than the padded rows
        ((2, 3, 4), [3]),           # one length for two rows
        ((2, 3, 4), [3, 3, 1]),
        ((0, 3, 4), []),            # an empty batch
        ((3, 4), [3]),              # not a batch
    ])
    def test_bad_lengths_raise(self, shape, lengths):
        crf = make_crf(4, 23)
        em = Tensor(np.zeros(shape))
        with pytest.raises(ShapeError):
            crf.log_partition(em, lengths)
        with pytest.raises(ShapeError):
            crf.viterbi(em, lengths)
        with pytest.raises(ShapeError):
            crf.nll(em, lengths, [[0] * n for n in lengths])

    def test_path_length_must_match_its_sentence(self):
        crf = make_crf(4, 24)
        with pytest.raises(ShapeError):
            crf.score(Tensor(np.zeros((2, 3, 4))), [3, 2], [[0, 1, 2], [0, 1, 2]])
