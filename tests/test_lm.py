import math
import random

import numpy as np
import pytest

from deskmt import lm as lm_module
from deskmt.lm import (
    DataError,
    InterpolatedLM,
    finetune_lm,
    lm_from_dict,
    lm_to_dict,
    logprob,
    perplexity,
    train_lm,
)


def random_corpus(rng, vocab, n_sents, max_len=8):
    return [tuple(rng.choice(vocab) for _ in range(rng.randint(1, max_len)))
            for _ in range(n_sents)]


class TestTraining:
    def test_unambiguous_bigram_approaches_certainty(self):
        model = train_lm([("a", "b")] * 10, order=2, k=1e-9)
        assert math.exp(logprob(model, ("a", "b")) - model.eos_logprob) == pytest.approx(1.0, abs=1e-6)

    def test_large_k_approaches_uniform(self):
        # 3 distinct tokens + EOS = |V| 4; prediction space adds unk -> 1/5
        model = train_lm([("a", "b", "c")], order=1, k=1e12)
        probs = model.cond_probs(())
        assert np.allclose(probs, 1.0 / 5, atol=1e-9)

    def test_addk_unigram_formula(self):
        # corpus "a a a b": P(a) = (3+k)/(4+k*|V ∪ unk|), |V ∪ unk| = 4
        k = 0.7
        model = train_lm([("a", "a", "a", "b")], order=1, k=k)
        p_a = model.cond_probs(())[model.sym_id["a"]]
        assert p_a == pytest.approx((3 + k) / (4 + k * 4), abs=1e-12)

    def test_order_below_one_rejected(self):
        with pytest.raises(DataError):
            train_lm([("a",)], order=0, k=0.5)

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            train_lm([], order=2, k=0.5)

    def test_weighted_training_equals_replication(self):
        corpus = [("a", "b"), ("b", "a", "a")]
        weighted = train_lm(corpus, order=2, k=0.3, weights=[3, 2])
        replicated = train_lm(corpus * 1 + [corpus[0]] * 2 + [corpus[1]] * 1,
                              order=2, k=0.3)
        for sent in [("a",), ("a", "b"), ("b", "a", "b")]:
            assert logprob(weighted, sent) == pytest.approx(
                logprob(replicated, sent), abs=1e-12)


class TestLogprob:
    def test_hand_built_bigram_sum(self):
        corpus = [("a", "b", "c")] * 4 + [("a", "b", "b")] * 2
        k = 0.5
        model = train_lm(corpus, order=2, k=k)
        # hand-computed interpolated add-k terms for "a b c"
        S = len(model.syms)
        ks = k * S

        def p1(w):
            counts = {"a": 6, "b": 8, "c": 4}
            return (counts.get(w, 0) + ks / S) / (18 + ks)

        def p2(w, ctx, ctx_counts, total):
            return (ctx_counts.get(w, 0) + ks * p1(w)) / (total + ks)

        expected = (
            math.log(p2("a", "<s>", {"a": 6}, 6))
            + math.log(p2("b", "a", {"b": 6}, 6))
            + math.log(p2("c", "b", {"c": 4, "b": 2}, 6))
            + math.log(p1("</s>"))
        )
        assert logprob(model, ("a", "b", "c")) == pytest.approx(expected, abs=1e-10)
        assert model.eos_logprob == pytest.approx(math.log(k / (18 + ks)), abs=1e-12)

    def test_extension_strictly_decreases(self):
        rng = random.Random(3)
        vocab = ["a", "b", "c", "d"]
        model = train_lm(random_corpus(rng, vocab, 30), order=3, k=0.4)
        for _ in range(200):
            sent = tuple(rng.choice(vocab) for _ in range(rng.randint(1, 6)))
            extended = sent + (rng.choice(vocab + ["zzz"]),)
            assert logprob(model, extended) < logprob(model, sent)

    def test_finite_on_unknown_symbols(self):
        model = train_lm([("a", "b")] * 3, order=2, k=0.1)
        assert math.isfinite(logprob(model, ("never", "seen", "tokens")))

    def test_strictly_negative(self):
        model = train_lm([("a", "b"), ("b", "a")], order=2, k=0.5)
        assert logprob(model, ("a", "b")) < 0


class TestNormalization:
    def test_conditionals_sum_to_one(self):
        rng = random.Random(11)
        vocab = ["a", "b", "c", "d", "e"]
        model = train_lm(random_corpus(rng, vocab, 50), order=3, k=0.25)
        for _ in range(1000):
            ctx = tuple(rng.choice(vocab + ["oov"]) for _ in range(rng.randint(0, 2)))
            total = float(model.cond_probs(ctx).sum())
            assert abs(total - 1.0) < 1e-9


class TestPerplexity:
    def test_uniform_model_perplexity_equals_support(self):
        # huge k: every event scored 1/|S| -> perplexity |S|
        model = train_lm([("a", "b", "c")], order=1, k=1e12)
        ppl = perplexity(model, [("a", "b"), ("c",)])
        assert ppl == pytest.approx(len(model.syms), rel=1e-6)

    def test_single_sentence_matches_definition(self):
        model = train_lm([("a", "b")] * 5, order=2, k=0.3)
        sent = ("a", "b")
        assert perplexity(model, [sent]) == pytest.approx(
            math.exp(-logprob(model, sent) / (len(sent) + 1)))

    def test_fitted_beats_random_text(self):
        rng = random.Random(5)
        vocab = [f"w{i}" for i in range(10)]
        train = [("w0", "w1", "w2", "w3")] * 40 + [("w1", "w2", "w3", "w4")] * 40
        model = train_lm(train, order=2, k=0.2)
        shuffled = random_corpus(rng, vocab, 40, max_len=4)
        assert perplexity(model, train) < perplexity(model, shuffled)


class TestFinetune:
    def setup_method(self):
        self.base_corpus = [("a", "b", "c")] * 10 + [("c", "b")] * 5
        self.in_corpus = [("x", "y")] * 8 + [("a", "x")] * 4
        self.base = train_lm(self.base_corpus, order=2, k=0.4)

    def test_alpha_zero_reproduces_base(self):
        mixed = finetune_lm(self.base, self.in_corpus, alpha=0.0)
        for sent in [("a", "b"), ("x", "y"), ("q",)]:
            assert abs(logprob(mixed, sent) - logprob(self.base, sent)) < 1e-12

    def test_alpha_one_reproduces_fresh_in_domain_model(self):
        mixed = finetune_lm(self.base, self.in_corpus, alpha=1.0)
        fresh = train_lm(self.in_corpus, order=2, k=0.4)
        for sent in [("x", "y"), ("a", "x"), ("b",)]:
            assert abs(logprob(mixed, sent) - logprob(fresh, sent)) < 1e-12

    def test_midpoint_averages_unigram_estimates(self):
        base = train_lm([("a",)] * 4, order=1, k=0.5)
        mixed = finetune_lm(base, [("b",)] * 4, alpha=0.5)
        indomain = train_lm([("b",)] * 4, order=1, k=0.5)
        pa = 0.5 * base.cond_probs(())[base.sym_id["a"]] \
            + 0.5 * indomain.cond_probs(())[indomain.id_or_unk("a")]
        got = math.exp(logprob(mixed, ("a",)) - mixed.eos_logprob)
        assert got == pytest.approx(float(pa), abs=1e-12)

    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(DataError):
            finetune_lm(self.base, self.in_corpus, alpha=1.5)

    def test_same_order_required(self):
        other = train_lm(self.in_corpus, order=3, k=0.4)
        with pytest.raises(DataError):
            InterpolatedLM(self.base, other, 0.5)


class TestSerialization:
    def test_scores_reproduce_bit_exactly(self):
        rng = random.Random(23)
        vocab = ["a", "b", "c", "d"]
        corpus = random_corpus(rng, vocab, 40)
        model = train_lm(corpus, order=3, k=0.35)
        loaded = lm_from_dict(lm_to_dict(model))
        for _ in range(50):
            sent = tuple(rng.choice(vocab + ["oov"]) for _ in range(rng.randint(1, 6)))
            assert logprob(loaded, sent) == logprob(model, sent)

    def test_interpolated_round_trip(self):
        base = train_lm([("a", "b")] * 6, order=2, k=0.2)
        mixed = finetune_lm(base, [("b", "c")] * 6, alpha=0.3)
        loaded = lm_from_dict(lm_to_dict(mixed))
        for sent in [("a", "b"), ("b", "c"), ("c", "a")]:
            assert logprob(loaded, sent) == logprob(mixed, sent)


class TestScorer:
    def test_scorer_matches_logprob_terms(self):
        model = train_lm([("a", "b", "c")] * 6, order=2, k=0.3)
        symbols = ("a", "b", "c", "zz")
        scorer = model.scorer_for(symbols)
        vec = scorer.logvec(("a",))
        for i, sym in enumerate(symbols):
            expected = model.cond_logprobs(("a",))[model.id_or_unk(sym)]
            assert vec[i] == expected


def reference_logprob(model, sentence):
    """Uncached left-to-right sum of the per-token log terms."""
    total = 0.0
    history = ()
    for token in sentence:
        if isinstance(model, InterpolatedLM):
            a = model.interp_alpha
            pb = model.base.cond_probs(history)[model.base.id_or_unk(token)]
            pi = model.indomain.cond_probs(history)[model.indomain.id_or_unk(token)]
            total += float(np.log((1.0 - a) * pb + a * pi))
        else:
            total += float(model.cond_logprobs(history)[model.id_or_unk(token)])
        history = (history + (token,))[-(model.order - 1):] if model.order > 1 else ()
    return total + model.eos_logprob


class TestTermCache:
    def models(self):
        rng = random.Random(51)
        vocab = ["a", "b", "c", "d"]
        base = train_lm(random_corpus(rng, vocab, 40), order=3, k=0.4)
        return [base, finetune_lm(base, random_corpus(rng, vocab + ["e"], 10), 0.3)]

    def test_cached_sums_equal_uncached_reference(self):
        rng = random.Random(52)
        sents = random_corpus(rng, ["a", "b", "c", "d", "e", "zz"], 60, max_len=12)
        for model in self.models():
            first = [logprob(model, s) for s in sents]
            again = [logprob(model, s) for s in sents]    # all terms cached
            assert first == again == [reference_logprob(model, s) for s in sents]

    def test_cache_stays_bounded(self, monkeypatch):
        monkeypatch.setattr(lm_module, "_CACHE_CAP", 5)
        rng = random.Random(53)
        sents = random_corpus(rng, ["a", "b", "c", "d", "e"], 40)
        for model in self.models():
            for s in sents:
                assert logprob(model, s) == reference_logprob(model, s)
                assert len(model._term_cache) <= 6
