import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from deskmt.metrics import (
    BLEU_ORDER,
    EvalContext,
    References,
    bleu,
    bleu_from_stats,
    evaluate_system,
)
from deskmt.corpus import SIDE_PARALLEL, TaggedDataset, build_mix
from deskmt.rerank import NULL_WEIGHTS, RerankContext, tune_lambdas
from deskmt.search import dev_bleu
from deskmt.subword import DEFAULT_JOINER, POLICY_UNSPACED, encode, encode_dataset, learn_bpe
from deskmt.tm import em_train, translate_corpus
from deskmt.util import DataError
from test_rerank import random_models
from test_search import parallel


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


def sentence_stats(hyp, ref):
    """The statistics of one hypothesis, from a References of its reference
    alone: nothing memoized from other hypotheses."""
    return References([ref]).stats(0, hyp)


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

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_sentences, _sentences), min_size=1, max_size=6),
           st.data())
    def test_repeated_hypotheses_keep_their_statistics_and_bleu(self, pairs, data):
        # one References scores each hypothesis, then hypotheses drawn again
        # from the same ones (as lambda tuning does), as tuples and as lists
        hyps = [h for h, _ in pairs]
        refs = References([r for _, r in pairs])
        first = [refs.stats(k, h) for k, h in enumerate(hyps)]
        assert first == [sentence_stats(h, r) for h, r in pairs]
        expected = bleu(hyps, [r for _, r in pairs])
        for _ in range(3):
            again = [data.draw(st.sampled_from(hyps)) if data.draw(st.booleans()) else h
                     for h in hyps]
            assert [refs.stats(k, list(h)) for k, h in enumerate(again)] == \
                [sentence_stats(h, r) for h, (_, r) in zip(again, pairs)]
            assert bleu(again, refs) == bleu(again, [r for _, r in pairs])
        assert [refs.stats(k, h) for k, h in enumerate(hyps)] == first
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


class TestEvaluateSystem:
    def models(self):
        mix, fwd, bwd = random_models(random.Random(12), n_pairs=14)
        return mix.datasets[0], fwd, bwd

    def test_one_best_beam_bleu_is_dev_bleu(self):
        dev, fwd, _ = self.models()
        ctx = EvalContext()
        report = evaluate_system(fwd, dev, eval_ctx=ctx, nbest=1)
        assert (report.decode, report.lambdas, report.sentence_count) == \
            ("beam", None, len(dev.pairs))
        assert report.bleu == dev_bleu(fwd, dev, eval_ctx=ctx)

    def test_rerank_bleu_with_tuned_weights_is_the_tuned_bleu(self):
        dev, fwd, bwd = self.models()
        ctx = EvalContext()
        w, tuned = tune_lambdas(dev, fwd, bwd, fwd.lm, trials=8, seed=4, nbest=6,
                                eval_ctx=ctx)
        assert w != NULL_WEIGHTS
        report = evaluate_system(fwd, dev, "rerank", eval_ctx=ctx, nbest=6,
                                 rerank_ctx=RerankContext(bwd, fwd.lm, w, nbest=6))
        assert report.bleu == tuned
        assert report.lambdas == (w.lambda1, w.lambda2)

    def test_bpe_context_reports_detokenized_surfaces(self):
        raw = parallel(31, n_pairs=20, vocab=5)
        bpe = learn_bpe([s for s, _ in raw.pairs] + [t for _, t in raw.pairs], 9)
        test = encode_dataset(raw, bpe)
        assert any(piece.startswith(DEFAULT_JOINER) for _, ref in test.pairs for piece in ref)
        model = em_train(build_mix([test]), 2, lm_order=2)
        ctx = EvalContext(bpe=bpe)
        report = evaluate_system(model, test, eval_ctx=ctx, nbest=1)
        hyps = translate_corpus(model, [src for src, _ in test.pairs], 1).top_hyps()
        assert [row["reference"] for row in report.per_sentence] == \
            [" ".join(ref) for _, ref in raw.pairs]
        assert [row["hypothesis"] for row in report.per_sentence] == \
            [" ".join(ctx.detok_tokens(hyp)) for hyp in hyps]
        assert not any(DEFAULT_JOINER in row["hypothesis"] for row in report.per_sentence)
        assert report.bleu == bleu([ctx.detok_tokens(hyp) for hyp in hyps],
                                   [ref for _, ref in raw.pairs])

    @pytest.mark.parametrize("decode, has_rerank_ctx, empty, message", [
        ("rerank", False, False, "needs a RerankContext"),
        ("sample", False, False, "unknown decode mode"),
        ("sample", True, False, "unknown decode mode"),
        ("beam", False, True, "non-empty test set"),
        ("rerank", True, True, "non-empty test set"),
    ])
    def test_data_errors(self, decode, has_rerank_ctx, empty, message):
        dev, fwd, bwd = self.models()
        if empty:
            dev = TaggedDataset("empty", SIDE_PARALLEL, "<t>", pairs=())
        rerank_ctx = RerankContext(bwd, fwd.lm, nbest=4) if has_rerank_ctx else None
        with pytest.raises(DataError, match=message):
            evaluate_system(fwd, dev, decode, rerank_ctx=rerank_ctx, eval_ctx=EvalContext())
