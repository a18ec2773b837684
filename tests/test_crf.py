"""CRF scoring/partition/decoding against exhaustive enumeration oracles."""

import itertools
import math

import numpy as np
import pytest

from mmner import autodiff as ad
from mmner.autodiff import ContractError, Tensor, backward
from mmner.crf import NEG_INF, LabelSchema, LinearChainCrf
from mmner.gradcheck import check_gradients, max_error, rel_error
from mmner.selftest import _enum_scores


# --- folds of the shipped enumeration oracle over all L^n paths ------------

def oracle_log_partition(em, trans, begin, end):
    values = np.array([s for _, s in _enum_scores(em, trans, begin, end)])
    m = values.max()
    return m + math.log(np.exp(values - m).sum())


def oracle_best_path(em, trans, begin, end):
    """Max-score path; ties resolve to the path whose reversed tuple is
    smallest, matching lowest-index backpointer decisions."""
    best = None
    best_score = None
    for path, s in _enum_scores(em, trans, begin, end):
        if best is None or s > best_score or (
            s == best_score and tuple(reversed(path)) < tuple(reversed(best))
        ):
            best, best_score = path, s
    return list(best), best_score


def oracle_marginals(em, trans, begin, end):
    n, L = em.shape
    log_z = oracle_log_partition(em, trans, begin, end)
    marg = np.zeros((n, L))
    for path, s in _enum_scores(em, trans, begin, end):
        p = math.exp(s - log_z)
        for i, y in enumerate(path):
            marg[i, y] += p
    return marg


def make_crf(num_labels, seed, input_dim=4, mask=None):
    return LinearChainCrf(input_dim, num_labels, np.random.default_rng(seed),
                          transition_mask=mask)


class TestScore:
    def test_single_step_zero_transitions(self):
        crf = make_crf(4, 0)
        crf.transitions.data[:] = 0.0
        em = Tensor([[1.5, -2.0, 0.25, 3.0]])
        for y in range(4):
            assert crf.score(em, [y]).item() == em.data[0, y]

    def test_all_zero_instance(self):
        crf = make_crf(3, 1)
        crf.transitions.data[:] = 0.0
        em = Tensor(np.zeros((4, 3)))
        for path in itertools.product(range(3), repeat=4):
            assert crf.score(em, list(path)).item() == 0.0

    def test_matches_resummation_oracle(self):
        rng = np.random.default_rng(2)
        crf = make_crf(5, 2)
        em = Tensor(rng.normal(size=(4, 5)))
        path = [3, 0, 4, 2]
        # Re-gather the terms by hand and re-sum with the same grouping
        # (all emission terms, then all transition terms).
        em_terms = np.array([em.data[i, y] for i, y in enumerate(path)])
        hops = [(crf.begin, path[0])] + list(zip(path, path[1:])) + [(path[-1], crf.end)]
        tr_terms = np.array([crf.transitions.data[a, b] for a, b in hops])
        expected = np.sum(em_terms) + np.sum(tr_terms)
        assert crf.score(em, path).item() == expected
        # and against the sequential walk within float tolerance
        walk = dict(_enum_scores(em.data, crf.transitions.data, crf.begin, crf.end))[tuple(path)]
        assert crf.score(em, path).item() == pytest.approx(walk, abs=1e-12)

    def test_label_out_of_range(self):
        crf = make_crf(3, 3)
        with pytest.raises(ContractError):
            crf.score(Tensor(np.zeros((2, 3))), [0, 3])


class TestLogPartition:
    def test_single_position_reduces_to_lse(self):
        crf = make_crf(4, 4)
        crf.transitions.data[:] = 0.0
        rng = np.random.default_rng(4)
        row = rng.normal(size=(1, 4))
        got = crf.log_partition(Tensor(row)).item()
        assert got == pytest.approx(ad.log_sum_exp(Tensor(row[0])).item(), abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("L", [2, 3, 4, 5])
    def test_matches_enumeration(self, n, L):
        for trial in range(20):
            rng = np.random.default_rng(1000 * n + 100 * L + trial)
            crf = make_crf(L, trial)
            crf.transitions.data[crf.begin, :L] = rng.normal(size=L)
            crf.transitions.data[:L, crf.end] = rng.normal(size=L)
            crf.transitions.data[:L, :L] = rng.normal(size=(L, L))
            em = Tensor(rng.normal(size=(n, L)) * 2.0)
            expected = oracle_log_partition(em.data, crf.transitions.data, crf.begin, crf.end)
            assert abs(crf.log_partition(em).item() - expected) < 1e-8

    def test_constant_emission_shift(self):
        rng = np.random.default_rng(5)
        crf = make_crf(4, 5)
        em = rng.normal(size=(3, 4))
        base = crf.log_partition(Tensor(em)).item()
        c = 1.37
        shifted = em.copy()
        shifted[1] += c
        assert crf.log_partition(Tensor(shifted)).item() == pytest.approx(base + c, abs=1e-10)


class TestNll:
    def test_single_label_forced_distribution(self):
        crf = make_crf(1, 6)
        rng = np.random.default_rng(6)
        em = Tensor(rng.normal(size=(5, 1)))
        assert crf.nll(em, [0] * 5).item() == pytest.approx(0.0, abs=1e-10)

    def test_nonnegative(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            crf = make_crf(4, seed)
            n = int(rng.integers(1, 6))
            em = Tensor(rng.normal(size=(n, 4)) * 3.0)
            path = list(rng.integers(0, 4, size=n))
            assert crf.nll(em, path).item() >= -1e-10

    def test_matches_enumeration_probability(self):
        for seed in range(5):
            rng = np.random.default_rng(40 + seed)
            L, n = 5, 4
            crf = make_crf(L, seed)
            em = Tensor(rng.normal(size=(n, L)))
            path = list(rng.integers(0, L, size=n))
            scores = dict(_enum_scores(em.data, crf.transitions.data, crf.begin, crf.end))
            log_z = oracle_log_partition(em.data, crf.transitions.data, crf.begin, crf.end)
            p_gold = math.exp(scores[tuple(path)] - log_z)
            assert crf.nll(em, path).item() == pytest.approx(-math.log(p_gold), abs=1e-8)

    def test_path_probabilities_sum_to_one(self):
        for seed in range(5):
            rng = np.random.default_rng(70 + seed)
            L, n = 4, 4
            crf = make_crf(L, seed)
            em = Tensor(rng.normal(size=(n, L)) * 2)
            log_z = crf.log_partition(em).item()
            total = sum(
                math.exp(s - log_z)
                for _, s in _enum_scores(em.data, crf.transitions.data, crf.begin, crf.end)
            )
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_gradient_is_marginals_minus_onehot(self):
        rng = np.random.default_rng(8)
        L, n = 4, 3
        crf = make_crf(L, 8)
        em = Tensor(rng.normal(size=(n, L)), requires_grad=True)
        path = [2, 0, 3]
        loss = crf.nll(em, path)
        backward(loss)
        marg = oracle_marginals(em.data, crf.transitions.data, crf.begin, crf.end)
        onehot = np.zeros((n, L))
        onehot[np.arange(n), path] = 1.0
        assert rel_error(em.grad, marg - onehot) < 1e-8

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(9)
        L, n = 4, 3
        crf = make_crf(L, 9)
        em = Tensor(rng.normal(size=(n, L)), requires_grad=True)
        path = [1, 1, 0]
        params = {"em": em, "trans": crf.transitions,
                  "w": crf.emission_w, "b": crf.emission_b}
        feats = Tensor(rng.normal(size=(n, 4)))

        def loss_fn():
            return crf.nll(ad.add(em, crf.emissions(feats)), path)

        errors = check_gradients(loss_fn, params)
        assert max_error(errors.values()) < 1e-5


class TestViterbi:
    def test_zero_transitions_decouples_positions(self):
        crf = make_crf(4, 10)
        crf.transitions.data[:] = 0.0
        em = np.array([
            [0.0, 2.0, 1.0, 2.0],   # tie between 1 and 3 -> 1
            [5.0, 5.0, 5.0, 5.0],   # full tie -> 0
            [-1.0, -3.0, 0.0, -2.0],
        ])
        path, score = crf.viterbi(Tensor(em))
        assert path == [1, 0, 2]
        assert score == em[0, 1] + em[1, 0] + em[2, 2]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("L", [2, 3, 5])
    def test_matches_enumeration_argmax(self, n, L):
        for trial in range(20):
            rng = np.random.default_rng(9000 + 100 * n + 10 * L + trial)
            crf = make_crf(L, trial + 1)
            crf.transitions.data[crf.begin, :L] = rng.normal(size=L)
            crf.transitions.data[:L, crf.end] = rng.normal(size=L)
            crf.transitions.data[:L, :L] = rng.normal(size=(L, L))
            em = Tensor(rng.normal(size=(n, L)))
            path, score = crf.viterbi(em)
            exp_path, exp_score = oracle_best_path(em.data, crf.transitions.data, crf.begin, crf.end)
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
        path, score = crf.viterbi(em)
        exp_path, exp_score = oracle_best_path(em.data, crf.transitions.data, crf.begin, crf.end)
        assert score == exp_score == 1.0
        assert path == exp_path == [1, 0]

    def test_viterbi_score_bounds_gold_score(self):
        for seed in range(10):
            rng = np.random.default_rng(200 + seed)
            crf = make_crf(5, seed)
            n = int(rng.integers(1, 6))
            em = Tensor(rng.normal(size=(n, 5)))
            gold = list(rng.integers(0, 5, size=n))
            _, best = crf.viterbi(em)
            assert best >= crf.score(em, gold).item() - 1e-12

    def test_masked_decoding_never_emits_invalid_iob2(self):
        schema = LabelSchema()
        mask = schema.invalid_transition_mask()
        L = schema.num_labels
        for seed in range(20):
            rng = np.random.default_rng(300 + seed)
            crf = make_crf(L, seed, mask=mask)
            em = Tensor(rng.uniform(-3, 3, size=(6, L)))
            path, _ = crf.viterbi(em)
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
        assert schema.begin_index == 9 and schema.end_index == 10

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
        assert mask[schema.begin_index, i_per] == NEG_INF
        assert mask[schema.tag_index("B-PER"), i_per] == 0.0
        assert mask[schema.tag_index("O"), i_per] == NEG_INF

    def test_unknown_tag(self):
        with pytest.raises(ContractError):
            LabelSchema().tag_index("B-GPE")
