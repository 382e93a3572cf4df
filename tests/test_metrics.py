import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from deskmt.metrics import (
    BLEU_ORDER,
    EvalContext,
    bleu,
    bleu_from_stats,
    evaluate_system,
    sentence_stats,
)
from deskmt.subword import POLICY_UNSPACED, learn_bpe, encode
from deskmt.util import DataError


def bleu_oracle(hyps, refs):
    """Independent brute-force BLEU: explicit n-gram scans, no shared helpers."""
    matches = [0, 0, 0, 0]
    totals = [0, 0, 0, 0]
    c = sum(len(h) for h in hyps)
    r = sum(len(x) for x in refs)
    for hyp, ref in zip(hyps, refs):
        for n in range(1, 5):
            grams = [tuple(hyp[i:i + n]) for i in range(len(hyp) - n + 1)]
            ref_grams = [tuple(ref[i:i + n]) for i in range(len(ref) - n + 1)]
            totals[n - 1] += len(grams)
            for gram, count in Counter(grams).items():
                matches[n - 1] += min(count, ref_grams.count(gram))
    if c == 0:
        return 0.0
    log_sum = 0.0
    for n in range(4):
        if totals[n] == 0:
            continue
        p = matches[n] / totals[n] if matches[n] else 1.0 / (2 * totals[n])
        log_sum += 0.25 * math.log(p)
    bp = 1.0 if c >= r else math.exp(1 - r / c)
    return 100.0 * bp * math.exp(log_sum)


class TestBleu:
    def test_perfect_match_is_100(self):
        corpus = [("the", "cat", "sat"), ("a", "b")]
        assert bleu(corpus, corpus) == pytest.approx(100.0)

    def test_clipped_unigram_hand_case(self):
        hyp = ("the",) * 7
        ref = ("the", "cat", "is", "on", "the", "mat")
        # clipped unigram precision must be 2/7; verify through the oracle too
        assert bleu([hyp], [ref]) == pytest.approx(bleu_oracle([hyp], [ref]))
        matches = min(7, 2)
        assert matches / 7 == pytest.approx(2 / 7)

    def test_brevity_penalty_halved_length(self):
        # c = r/2 with perfect precisions -> BLEU = 100 * exp(-1)
        hyp = [("a", "b")]
        ref = [("a", "b", "a", "b")]
        got = bleu(hyp, ref)
        # p1 = 1, p2 = 1, p3/p4 absent -> geometric mean 1, BP = e^-1
        assert got == pytest.approx(100.0 * math.exp(-1.0), abs=1e-9)

    def test_matches_oracle_on_random_corpora(self):
        rng = random.Random(2024)
        vocab = ["a", "b", "c", "d", "e"]
        for _ in range(200):
            n = rng.randint(1, 6)
            hyps, refs = [], []
            for _ in range(n):
                hyps.append(tuple(rng.choice(vocab)
                                  for _ in range(rng.randint(1, 9))))
                refs.append(tuple(rng.choice(vocab)
                                  for _ in range(rng.randint(1, 9))))
            assert bleu(hyps, refs) == pytest.approx(bleu_oracle(hyps, refs), abs=1e-9)

    def test_permutation_invariance(self):
        rng = random.Random(5)
        hyps = [("a", "b"), ("c",), ("b", "b", "a")]
        refs = [("a", "b"), ("c", "d"), ("b", "a", "a")]
        base = bleu(hyps, refs)
        order = [2, 0, 1]
        assert bleu([hyps[i] for i in order], [refs[i] for i in order]) == \
            pytest.approx(base)

    def test_bounds_and_perfection_condition(self):
        rng = random.Random(9)
        vocab = ["x", "y", "z"]
        for _ in range(100):
            hyps = [tuple(rng.choice(vocab) for _ in range(rng.randint(1, 5)))
                    for _ in range(3)]
            refs = [tuple(rng.choice(vocab) for _ in range(rng.randint(1, 5)))
                    for _ in range(3)]
            score = bleu(hyps, refs)
            assert 0.0 <= score <= 100.0
            if hyps == refs:
                assert score == pytest.approx(100.0)
            else:
                assert score < 100.0

    def test_errors(self):
        with pytest.raises(DataError):
            bleu([], [])
        with pytest.raises(DataError):
            bleu([("a",)], [("a",), ("b",)])


def bleu_before_stats(hyps, refs):
    """Corpus BLEU as `bleu` computed it before sufficient statistics existed."""
    matches = [0] * BLEU_ORDER
    totals = [0] * BLEU_ORDER
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hyps, refs):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, BLEU_ORDER + 1):
            hyp_counts = Counter(hyp[i:i + n] for i in range(len(hyp) - n + 1))
            if not hyp_counts:
                continue
            ref_counts = Counter(ref[i:i + n] for i in range(len(ref) - n + 1))
            totals[n - 1] += sum(hyp_counts.values())
            matches[n - 1] += sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
    if hyp_len == 0:
        return 0.0
    log_sum = 0.0
    for n in range(BLEU_ORDER):
        if totals[n] == 0:
            continue
        p = matches[n] / totals[n] if matches[n] > 0 else 1.0 / (2.0 * totals[n])
        log_sum += math.log(p) / BLEU_ORDER
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * bp * math.exp(log_sum)


_sentences = st.lists(st.sampled_from("abc"), max_size=7).map(tuple)


class TestSufficientStatistics:
    def test_row_layout(self):
        # lengths, clipped matches per order, hypothesis n-gram totals per order
        assert sentence_stats(("a", "a", "b"), ("a", "b")) == (3, 2, 2, 1, 0, 0, 3, 2, 1, 0)
        assert sentence_stats((), ("a",)) == (0, 1) + (0,) * 8

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_sentences, _sentences), min_size=1, max_size=8))
    @example([((), ())])
    @example([((), ("a", "b"))])
    @example([(("a",), ("a", "b", "c", "a", "b"))])
    @example([(("a", "b"), ("a", "b")), ((), ("c",))])
    def test_summed_statistics_equal_direct_bleu_bit_for_bit(self, pairs):
        hyps = [h for h, _ in pairs]
        refs = [r for _, r in pairs]
        total = [sum(column) for column in zip(*(sentence_stats(h, r) for h, r in pairs))]
        expected = bleu_before_stats(hyps, refs)
        assert bleu_from_stats(total) == expected
        assert bleu(hyps, refs) == expected


class TestEvalContext:
    def test_detok_inverts_bpe(self):
        corpus = [("abab", "cdcd")] * 4
        model = learn_bpe(corpus, vocab_size=10)
        ctx = EvalContext(bpe=model)
        encoded = encode(("abab", "cd"), model)
        assert ctx.detok_tokens(encoded) == ("abab", "cd")

    def test_unspaced_policy(self):
        corpus = [("ab", "cd")] * 4
        model = learn_bpe(corpus, vocab_size=10)
        ctx = EvalContext(bpe=model, policy=POLICY_UNSPACED)
        assert ctx.detok_tokens(("ab", "cd")) == ("abcd",)

    def test_keeps_leading_tag_token(self):
        assert EvalContext().detok_tokens(("<d:in>", "a", "b")) == ("<d:in>", "a", "b")
        model = learn_bpe([("abab", "cdcd")] * 4, vocab_size=10)
        encoded = ("<d:in>",) + encode(("abab",), model)
        assert EvalContext(bpe=model).detok_tokens(encoded) == ("<d:in>", "abab")

    def test_keeps_leading_unknown_token(self):
        assert EvalContext().detok_tokens(("<unk>", "a")) == ("<unk>", "a")
        model = learn_bpe([("abab", "cdcd")] * 4, vocab_size=10)
        ctx = EvalContext(bpe=model)
        encoded = ("<unk>",) + encode(("abab",), model)
        assert ctx.detok_tokens(encoded) == ("<unk>", "abab")
