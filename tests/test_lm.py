import gc
import itertools
import json
import math
import random
import sys
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deskmt import lm as lm_module
from deskmt import tm
from deskmt.lm import (
    EOS,
    DataError,
    InterpolatedLM,
    NGramLM,
    RowTable,
    finetune_lm,
    lm_from_dict,
    lm_json,
    logprobs,
    mixture,
    perplexity,
    train_lm,
)
from deskmt.util import stable_json_dumps
from reference_docs import lm_to_dict as reference_lm_to_dict
from reference_row_table import ReferenceRowTable
from test_decode_blocks import recorded_row_tables


def sentence_logprob(model, sentence):
    """One sentence's log-probability: `logprobs` of a list of one."""
    return float(logprobs(model, [sentence])[0])


def lm_doc(model):
    """The dict form of an LM's document: `json.loads` of its text."""
    return json.loads(lm_json(model))


def random_corpus(rng, vocab, n_sents, max_len=8):
    return [tuple(rng.choice(vocab) for _ in range(rng.randint(1, max_len)))
            for _ in range(n_sents)]


def part_tables(model, symbols):
    """A new `RowTable` over `symbols` of each of the LM's parts, as a
    decode builds them."""
    return [RowTable(part, symbols) for _, part in model.parts]


def mixed_probs(model, symbols, contexts, tables=None):
    """The decoder's LM probability rows after `contexts`, rows of ids into
    `symbols`: each part's rows read from the part's row table in `tables`
    (new ones by default) and mixed by `mixture`, element by element, as
    the decoder mixes the entries it takes."""
    part_probs = []
    for table in tables or part_tables(model, symbols):
        slots = table.slots(contexts)   # before `probs`, which it may grow
        part_probs.append(table.probs[slots])
    return mixture(model.parts, part_probs)


def mixed_rows(model, symbols, contexts, tables=None):
    """The logs of `mixed_probs`, the terms the decoder scores."""
    return np.log(mixed_probs(model, symbols, contexts, tables))


def table_row(model, symbols, context):
    """ln P(symbol | context) of every symbol, as the decoder takes it from
    the row tables over the symbols and the context's tokens; the context
    is cut to its last order - 1 tokens, as the decoder gives it."""
    symbols = tuple(symbols)
    table_symbols = tuple(dict.fromkeys(symbols + tuple(context)))
    context = context[max(0, len(context) - model.order + 1):] if model.order > 1 else ()
    ids = np.array([[table_symbols.index(t) for t in context]],
                   dtype=np.intp).reshape(1, len(context))
    return mixed_rows(model, table_symbols, ids)[0, :len(symbols)]


def probs(model, context):
    """P(. | context) over the model's prediction space."""
    return np.exp(table_row(model, model.syms, context))


class TestTraining:
    def test_unambiguous_bigram_approaches_certainty(self):
        model = train_lm([("a", "b")] * 10, order=2, k=1e-9)
        assert math.exp(sentence_logprob(model, ("a", "b")) - model.eos_logprob) == \
            pytest.approx(1.0, abs=1e-6)

    def test_large_k_approaches_uniform(self):
        # 3 distinct tokens + EOS = |V| 4; prediction space adds unk -> 1/5
        model = train_lm([("a", "b", "c")], order=1, k=1e12)
        assert np.allclose(probs(model, ()), 1.0 / 5, atol=1e-9)

    def test_addk_unigram_formula(self):
        # corpus "a a a b": P(a) = (3+k)/(4+k*|V ∪ unk|), |V ∪ unk| = 4
        k = 0.7
        model = train_lm([("a", "a", "a", "b")], order=1, k=k)
        p_a = probs(model, ())[model.sym_id["a"]]
        assert p_a == pytest.approx((3 + k) / (4 + k * 4), abs=1e-12)

    def test_order_below_one_rejected(self):
        with pytest.raises(DataError):
            train_lm([("a",)], order=0, k=0.5)

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            train_lm([], order=2, k=0.5)

    @pytest.mark.parametrize("k", [1e-300, 1e-160, math.nan])
    def test_k_whose_unseen_events_underflow_is_data_error(self, k):
        # at k = 1e-300 an unseen word after the trained context scored
        # ln 0 in the decoder's rows and in logprob
        with pytest.raises(DataError, match="'k'"):
            train_lm([("a",)] * 3, 2, k)

    def test_smallest_unseen_probability_is_normal(self):
        # the least event probability of a trained model, unseen at both
        # levels after the context of the largest total, stays a normal float
        model = train_lm([("a",)] * 3, 2, 1e-150)
        assert model.syms == ("a", EOS, "<unk>")
        least = math.exp(sentence_logprob(model, ("<unk>",)) - model.eos_logprob)
        assert least >= sys.float_info.min

    def test_weighted_training_equals_replication(self):
        corpus = [("a", "b"), ("b", "a", "a")]
        weighted = train_lm(corpus, order=2, k=0.3, weights=[3, 2])
        replicated = train_lm(corpus * 1 + [corpus[0]] * 2 + [corpus[1]] * 1,
                              order=2, k=0.3)
        for sent in [("a",), ("a", "b"), ("b", "a", "b")]:
            assert sentence_logprob(weighted, sent) == pytest.approx(
                sentence_logprob(replicated, sent), abs=1e-12)


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
        assert sentence_logprob(model, ("a", "b", "c")) == pytest.approx(expected, abs=1e-10)
        assert model.eos_logprob == pytest.approx(math.log(k / (18 + ks)), abs=1e-12)

    def test_extension_strictly_decreases(self):
        rng = random.Random(3)
        vocab = ["a", "b", "c", "d"]
        model = train_lm(random_corpus(rng, vocab, 30), order=3, k=0.4)
        for _ in range(200):
            sent = tuple(rng.choice(vocab) for _ in range(rng.randint(1, 6)))
            extended = sent + (rng.choice(vocab + ["zzz"]),)
            assert sentence_logprob(model, extended) < sentence_logprob(model, sent)

    def test_finite_on_unknown_symbols(self):
        model = train_lm([("a", "b")] * 3, order=2, k=0.1)
        assert math.isfinite(sentence_logprob(model, ("never", "seen", "tokens")))

    def test_strictly_negative(self):
        model = train_lm([("a", "b"), ("b", "a")], order=2, k=0.5)
        assert sentence_logprob(model, ("a", "b")) < 0


class TestNormalization:
    def test_conditionals_sum_to_one(self):
        rng = random.Random(11)
        vocab = ["a", "b", "c", "d", "e"]
        model = train_lm(random_corpus(rng, vocab, 50), order=3, k=0.25)
        for _ in range(1000):
            ctx = tuple(rng.choice(vocab + ["oov"]) for _ in range(rng.randint(0, 2)))
            total = float(probs(model, ctx).sum())
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
            math.exp(-sentence_logprob(model, sent) / (len(sent) + 1)))

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
            assert abs(sentence_logprob(mixed, sent) - sentence_logprob(self.base, sent)) < 1e-12

    def test_alpha_one_reproduces_fresh_in_domain_model(self):
        mixed = finetune_lm(self.base, self.in_corpus, alpha=1.0)
        fresh = train_lm(self.in_corpus, order=2, k=0.4)
        for sent in [("x", "y"), ("a", "x"), ("b",)]:
            assert abs(sentence_logprob(mixed, sent) - sentence_logprob(fresh, sent)) < 1e-12

    def test_midpoint_averages_unigram_estimates(self):
        base = train_lm([("a",)] * 4, order=1, k=0.5)
        mixed = finetune_lm(base, [("b",)] * 4, alpha=0.5)
        indomain = train_lm([("b",)] * 4, order=1, k=0.5)
        pa = 0.5 * probs(base, ())[base.sym_id["a"]] \
            + 0.5 * probs(indomain, ())[indomain.id_or_unk("a")]
        got = math.exp(sentence_logprob(mixed, ("a",)) - mixed.eos_logprob)
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
        loaded = lm_from_dict(lm_doc(model))
        for _ in range(50):
            sent = tuple(rng.choice(vocab + ["oov"]) for _ in range(rng.randint(1, 6)))
            assert sentence_logprob(loaded, sent) == sentence_logprob(model, sent)

    def test_interpolated_round_trip(self):
        base = train_lm([("a", "b")] * 6, order=2, k=0.2)
        mixed = finetune_lm(base, [("b", "c")] * 6, alpha=0.3)
        loaded = lm_from_dict(lm_doc(mixed))
        for sent in [("a", "b"), ("b", "c"), ("c", "a")]:
            assert sentence_logprob(loaded, sent) == sentence_logprob(mixed, sent)

    @pytest.mark.parametrize("key", ["kind", "order", "vocab", "counts", "k",
                                     "token_total"])
    def test_missing_key_is_data_error(self, key):
        doc = lm_doc(train_lm([("a", "b")] * 3, order=2, k=0.2))
        del doc[key]
        with pytest.raises(DataError, match=repr(key)):
            lm_from_dict(doc)

    def test_missing_interpolated_part_is_data_error(self):
        base = train_lm([("a", "b")] * 6, order=2, k=0.2)
        doc = lm_doc(finetune_lm(base, [("b", "c")] * 6, alpha=0.3))
        del doc["indomain"]
        with pytest.raises(DataError, match="'indomain'"):
            lm_from_dict(doc)

    @pytest.mark.parametrize("key, value", [("order", "2"), ("k", None),
                                            ("vocab", "ab"), ("counts", {}),
                                            ("counts", [[[0, [[1, 2]]]], []]),
                                            ("token_total", [6]),
                                            # integers past the float range
                                            pytest.param("token_total", 10**400,
                                                         id="token_total-huge"),
                                            pytest.param("k", 10**400, id="k-huge"),
                                            pytest.param("k", -10**400, id="k-minus-huge")])
    def test_wrong_type_is_data_error(self, key, value):
        doc = lm_doc(train_lm([("a", "b")] * 3, order=2, k=0.2))
        doc[key] = value
        with pytest.raises(DataError, match=repr(key)):
            lm_from_dict(doc)


# symbols JSON must escape or keep as they are: quotes, backslashes, control
# and non-ASCII characters
_LM_SYMBOLS = st.text(st.sampled_from(["a", "b", '"', "\\", "\x01", "\x7f", "é", "中"]),
                      min_size=1, max_size=2)
# sentence weights: whole, fractional, at repr's exponent switch, and large
_WEIGHTS = st.sampled_from([1, 3, 0.5, 0.1, 2.75, 1e-05, 9.999999999999999e-05, 0.0001,
                            1e16, 1 / 3])


@st.composite
def _lms(draw, interpolated):
    vocab = draw(st.lists(_LM_SYMBOLS, min_size=1, max_size=4, unique=True))
    sentences = st.lists(st.lists(st.sampled_from(vocab), max_size=5).map(tuple),
                         min_size=1, max_size=5)
    corpus = draw(sentences)
    weights = draw(st.none() | st.lists(_WEIGHTS, min_size=len(corpus), max_size=len(corpus)))
    lm = train_lm(corpus, draw(st.integers(1, 4)), draw(st.sampled_from([0.1, 0.5, 1.0])),
                  weights=weights)
    if interpolated:
        lm = finetune_lm(lm, draw(sentences), draw(st.sampled_from([0.0, 0.25, 1.0])))
    return lm


@pytest.mark.hashseed
class TestLmJson:
    """`lm_json` writes the text from the count arrays; it is the stable
    JSON of the reference `lm_to_dict`'s document (tests/reference_docs.py)
    and a fixed point of `stable_json_dumps` after `json.loads`."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), interpolated=st.booleans())
    def test_text_is_the_stable_json_of_the_document(self, data, interpolated):
        lm = data.draw(_lms(interpolated))
        text = lm_json(lm)
        assert text == stable_json_dumps(reference_lm_to_dict(lm))
        assert stable_json_dumps(json.loads(text)) == text
        assert lm_json(lm_from_dict(json.loads(text))) == text

    def test_counts_at_the_exponent_switch_and_the_float_ends(self):
        counts = [1e-05, 9.999999999999999e-05, 0.0001, 1e16, 5e-324, 0.1]
        vocab = ['q"', "b\\s", "\x01", "é", "中", "😀"]
        lm = train_lm([(w,) for w in vocab], 1, 0.5, weights=counts)
        text = lm_json(lm)
        assert text == stable_json_dumps(reference_lm_to_dict(lm))
        spelled = [repr(c) for c in counts]
        assert spelled == ["1e-05", "9.999999999999999e-05", "0.0001", "1e+16", "5e-324", "0.1"]
        items = ",".join(f"[{lm.sym_id[w]},{c}]" for w, c in sorted(zip(vocab, spelled)))
        assert f'"counts":[[[[],[{items}]]]]' in text
        assert json.loads(text)["vocab"] == list(lm.vocab)
        loaded = lm_from_dict(json.loads(text))
        for level in range(lm.order):
            assert np.array_equal(loaded._count_vals[level], lm._count_vals[level])

    def test_interpolated_parts_nest(self):
        base = train_lm([("a", "b", "a")], 3, 0.2, weights=[0.5])
        lm = finetune_lm(base, [("b", "c")], 0.3)
        text = lm_json(lm)
        assert text == stable_json_dumps(reference_lm_to_dict(lm))
        assert text.startswith('{"alpha":0.3,"base":{"counts":[[[[],[[0,1.0],[1,0.5]]]],')
        assert text.endswith('"kind":"interpolated","version":1}')


def reference_logprob(model, sentence):
    """Left-to-right sum of the decoder's row terms, token by token."""
    total = 0.0
    for at, token in enumerate(sentence):
        total += float(table_row(model, (token,), sentence[:at])[0])
    return total + model.eos_logprob


_SCORER_SYMBOLS = ("a", "b", "e", "zz")


class TestBatchScores:
    def models(self):
        rng = random.Random(51)
        vocab = ["a", "b", "c", "d"]
        base = train_lm(random_corpus(rng, vocab, 40), order=3, k=0.4)
        return [base, finetune_lm(base, random_corpus(rng, vocab + ["e"], 10), 0.3)]

    def test_batch_sums_equal_row_reference(self):
        rng = random.Random(52)
        sents = random_corpus(rng, ["a", "b", "c", "d", "e", "zz"], 60, max_len=12)
        for model in self.models():
            batch = logprobs(model, sents).tolist()
            assert batch == [sentence_logprob(model, s) for s in sents]
            assert batch == [reference_logprob(model, s) for s in sents]

    def test_row_caches_stay_bounded(self, monkeypatch):
        monkeypatch.setattr(lm_module, "_CACHE_CAP", 5)
        rng = random.Random(53)
        sents = random_corpus(rng, ["a", "b", "c", "d", "e"], 40)
        for model in self.models():
            tables = part_tables(model, _SCORER_SYMBOLS)
            kept = set()   # the parts whose tables have held lower-order rows
            for s in sents:
                assert sentence_logprob(model, s) == reference_logprob(model, s)
                # a token outside the symbols reads as "zz", which no LM knows
                ctx = [_SCORER_SYMBOLS.index(t) if t in _SCORER_SYMBOLS else 3
                       for t in s[-(model.order - 1):]]
                row = mixed_rows(model, _SCORER_SYMBOLS, np.array([ctx]), tables)[0]
                assert [float(v).hex() for v in row] == \
                    [batch_term(model, tuple(_SCORER_SYMBOLS[i] for i in ctx), sym).hex()
                     for sym in _SCORER_SYMBOLS]
                # each part's own table, its rows and the lower-order rows
                # it builds from
                for at, ((_, part), part_table) in enumerate(zip(model.parts, tables)):
                    assert part_table.held <= 5
                    assert part_table._states.size == part_table.held
                    assert len(part_table._lower) <= 5
                    assert all(level < part.order for level, _ in part_table._lower)
                    if part_table._lower:
                        kept.add(at)
            assert kept == set(range(len(model.parts)))

    def test_empty_batch(self):
        for model in self.models():
            assert logprobs(model, []).shape == (0,)
            assert logprobs(model, [()]).tolist() == [model.eos_logprob]


def scalar_counts(model):
    """Per level, context ids -> {word id: count} and context ids -> total,
    as the scalar scorer kept them, rebuilt from the model's document."""
    counts = [{tuple(ctx): dict(items) for ctx, items in level}
              for level in lm_doc(model)["counts"]]
    totals = [{ctx: float(sum(c.values())) for ctx, c in level.items()} for level in counts]
    return counts, totals


def scalar_prob(model, tables, history, token, top=None):
    """P_top(token | history) by the scalar recurrence, level by level; top
    defaults to the model's order."""
    counts, totals = tables
    syms = len(model.syms)
    bos = syms
    ids = tuple(bos if t == "<s>" else model.sym_id.get(t, syms - 1) for t in history)
    ctx = (((bos,) * model.order + ids)[len(ids) + 1:]) if model.order > 1 else ()
    wid = model.sym_id.get(token, syms - 1)
    ks = model.k * syms
    prob = 1.0 / syms
    for level in range(1, (top or model.order) + 1):
        level_ctx = ctx[len(ctx) - (level - 1):] if level > 1 else ()
        prob = ks * prob
        count = counts[level - 1].get(level_ctx, {}).get(wid)
        if count is not None:
            prob += count
        prob = prob / (totals[level - 1].get(level_ctx, 0.0) + ks)
    return prob


def scalar_logprob(model, sentence):
    """The per-token scalar score the batch scorer replaces: each term is
    np.log of the recurrence (mixed in probability space for an
    interpolated model), summed left to right, then end-of-sentence."""
    if isinstance(model, InterpolatedLM):
        parts = [(model.base, scalar_counts(model.base)),
                 (model.indomain, scalar_counts(model.indomain))]
        a = model.interp_alpha

        def term(history, token):
            pb, pi = (scalar_prob(m, t, history, token) for m, t in parts)
            return float(np.log((1.0 - a) * pb + a * pi))

        eos = float(np.log((1.0 - a) * scalar_prob(model.base, parts[0][1], (), "</s>", 1)
                           + a * scalar_prob(model.indomain, parts[1][1], (), "</s>", 1)))
    else:
        tables = scalar_counts(model)

        def term(history, token):
            return float(np.log(scalar_prob(model, tables, history, token)))

        eos = float(np.log(scalar_prob(model, tables, (), "</s>", 1)))
    total = 0.0
    for at, token in enumerate(sentence):
        # a unigram's history is cut to nothing, as in the row path
        total += term(sentence[max(0, at - model.order + 1):at] if model.order > 1 else (),
                      token)
    return total + eos


_SENTENCE_TOKENS = ("a", "b", "c", "d", "<s>", "</s>", "oov", "<unk>")


class TestBatchEqualsScalarScores:
    """`logprobs` equals the scalar per-token scorer bit for bit."""

    @settings(max_examples=120, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(("a", "b", "c", "d", "<s>", "<unk>")),
                             max_size=6).map(tuple), min_size=1, max_size=8),
           st.integers(min_value=1, max_value=4), st.sampled_from([0.01, 0.3, 1.0, 7.5]),
           st.lists(st.lists(st.sampled_from(_SENTENCE_TOKENS), max_size=7).map(tuple),
                    min_size=1, max_size=12),
           st.sampled_from([None, 0.0, 0.4, 1.0]))
    def test_equals_scalar_reference(self, corpus, order, k, sentences, alpha):
        model = train_lm(corpus, order, k, weights=[1 + i % 3 for i in range(len(corpus))])
        if alpha is not None:
            model = finetune_lm(model, [("b", "e"), ("e", "oov", "a")], alpha)
        got = [v.hex() for v in logprobs(model, sentences).tolist()]
        assert got == [scalar_logprob(model, s).hex() for s in sentences]

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @pytest.mark.parametrize("interpolated", [False, True])
    def test_unknown_empty_and_end_marker(self, order, interpolated):
        rng = random.Random(60 + order)
        model = train_lm(random_corpus(rng, ["a", "b", "c"], 30), order, 0.3)
        if interpolated:
            model = finetune_lm(model, random_corpus(rng, ["b", "c", "d"], 8), 0.35)
        sentences = [(), ("oov",), ("a", "</s>", "b"), ("</s>",), ("<s>", "a", "zz", "c"),
                     ("a", "b", "c", "a", "b", "c", "a")]
        got = [v.hex() for v in logprobs(model, sentences).tolist()]
        assert got == [scalar_logprob(model, s).hex() for s in sentences]
        assert got[0] == float(model.eos_logprob).hex()

    # "a b c" opens some sentences and sits in the middle of others, so its
    # tokens meet both BOS-padded and full contexts; some sentences are
    # shorter than the order
    REPEATS = [("a", "b", "c"), ("c", "a", "b", "c"), ("a", "b", "c", "a", "b", "c"),
               ("a",), ("b", "a"), ("a", "b"), ("<s>", "a", "b", "c"), ("oov", "a", "b", "c"),
               ("c", "a", "b", "c"), ("a", "b", "c")]

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @pytest.mark.parametrize("interpolated", [False, True])
    @pytest.mark.parametrize("key_limit", [None, 1])
    def test_each_distinct_event_scored_once(self, order, interpolated, key_limit,
                                             monkeypatch):
        # key_limit 1 ranks the event keys again before every digit
        if key_limit is not None:
            monkeypatch.setattr(lm_module, "_KEY_LIMIT", key_limit)
        rng = random.Random(70 + order)
        model = train_lm(random_corpus(rng, ["a", "b", "c", "<s>"], 30), order, 0.3)
        if interpolated:
            model = finetune_lm(model, random_corpus(rng, ["b", "c", "d"], 8), 0.35)
        scored = []
        real = lm_module._event_logprobs

        def counting(model, vocab, history, word):
            scored.append(word.size)
            return real(model, vocab, history, word)

        monkeypatch.setattr(lm_module, "_event_logprobs", counting)
        sentences = self.REPEATS
        got = [v.hex() for v in logprobs(model, sentences).tolist()]
        assert got == [scalar_logprob(model, s).hex() for s in sentences]
        padded = [(None,) * (order - 1) + s for s in sentences]
        events = {(p[at:at + order - 1], p[at + order - 1])
                  for p in padded for at in range(len(p) - order + 1)}
        assert scored == [len(events)]
        assert len(events) < sum(map(len, sentences))


def batch_term(model, history, token):
    """The log term `logprobs` gives `token` after `history`: its event's."""
    vocab = list(dict.fromkeys((*history, token)))
    back = [vocab.index(t) for t in reversed(history)] + [len(vocab)] * model.order
    return float(lm_module._event_logprobs(model, vocab, np.array([back[:model.order - 1]]),
                                           np.array([vocab.index(token)]))[0])


class TestMalformedCounts:
    """`lm_from_dict` rejects bad ids and counts with a DataError naming 'counts'."""

    def doc(self):
        return lm_doc(train_lm([("a", "b"), ("b", "a", "a")], order=2, k=0.2))

    @pytest.mark.parametrize("where, value", [
        ("word", 1000000), ("word", 1.5), ("word", True), ("word", -1),
        ("word", 4),   # |S| (BOS) is a context id only
        ("context", 1000000), ("context", 1.5), ("context", True), ("context", -1),
        ("count", -5.0), ("count", -1e308), ("count", float("inf")),
        ("count", float("nan")), ("count", "2"), ("count", True),
        pytest.param("count", 10**400, id="count-huge"),
        pytest.param("count", -10**400, id="count-minus-huge"),
    ])
    def test_bad_value_is_data_error(self, where, value):
        doc = self.doc()
        ctx, items = doc["counts"][1][0]
        if where == "word":
            items[0] = (value, items[0][1])
        elif where == "context":
            ctx[0] = value
        else:
            items[0] = (items[0][0], value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="'counts'"):
                lm_from_dict(doc)

    @pytest.mark.parametrize("level, ctx", [(0, [0]), (1, []), (1, [0, 1])])
    def test_context_length_is_level_minus_one(self, level, ctx):
        doc = self.doc()
        doc["counts"][level][0][0] = ctx
        with pytest.raises(DataError, match="'counts'"):
            lm_from_dict(doc)

    def test_repeated_context_or_word_is_data_error(self):
        doc = self.doc()
        doc["counts"][1].append(doc["counts"][1][0])
        with pytest.raises(DataError, match="'counts'"):
            lm_from_dict(doc)
        doc = self.doc()
        items = doc["counts"][0][0][1]
        items.append(items[0])
        with pytest.raises(DataError, match="'counts'"):
            lm_from_dict(doc)

    def test_overflowing_total_is_data_error(self):
        doc = self.doc()
        doc["counts"][0][0][1] = [(0, 1.5e308), (1, 1.5e308)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="counts"):
                lm_from_dict(doc)

    @pytest.mark.parametrize("k", [0, -0.5, float("inf"), 1e308])
    def test_bad_k_is_data_error(self, k):
        doc = self.doc()
        doc["k"] = k
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="'k'"):
                lm_from_dict(doc)

    def test_k_whose_unseen_events_underflow_is_data_error(self):
        doc = self.doc()
        doc["k"] = 1e-300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="'k'"):
                lm_from_dict(doc)

    def test_bos_context_and_zero_count_load(self):
        doc = self.doc()
        bos = len(doc["vocab"]) + 1
        assert [bos] in [ctx for ctx, _ in doc["counts"][1]]
        doc["counts"][1][0][1][0] = (doc["counts"][1][0][1][0][0], 0)
        model = lm_from_dict(doc)
        assert math.isfinite(sentence_logprob(model, ("a", "b")))

    def test_context_without_counts_scores_as_unseen(self):
        doc = self.doc()
        listed = lm_from_dict(doc)
        doc["counts"][1].append([[3], []])   # <unk> context, no counts
        loaded = lm_from_dict(doc)
        for sent in [("a", "zz", "b"), ("b",)]:
            assert sentence_logprob(loaded, sent) == sentence_logprob(listed, sent)
        assert lm_json(loaded) == lm_json(listed)


# Tokens of the bit-identity properties: a literal "<s>" may occur in training
# text and in histories, "oov" never occurs in training text.
_TOKENS = ("a", "b", "c", "d", "<s>")
_QUERIES = _TOKENS + ("oov", "</s>")
_corpora = st.lists(st.lists(st.sampled_from(_TOKENS), min_size=1, max_size=6).map(tuple),
                    min_size=1, max_size=10)
_histories = st.lists(st.sampled_from(_TOKENS + ("oov",)), max_size=4).map(tuple)
_orders = st.integers(min_value=1, max_value=4)
_ks = st.sampled_from([0.01, 0.3, 1.0, 7.5])


class TestBatchTerm:
    """A token's batch log term equals the row's element bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(_corpora, _orders, _ks, _histories, st.sampled_from(_QUERIES))
    def test_ngram_term_is_the_row_element(self, corpus, order, k, history, token):
        model = train_lm(corpus, order, k)
        row = table_row(model, (token,), history)
        assert batch_term(model, history, token).hex() == float(row[0]).hex()

    @settings(max_examples=300, deadline=None)
    @given(_corpora, _corpora, _orders, _ks, st.sampled_from([0.0, 0.3, 1.0]),
           _histories, st.integers(min_value=0, max_value=len(_QUERIES) - 1))
    def test_interpolated_term_is_the_row_element(self, corpus, in_corpus, order, k,
                                                  alpha, history, at):
        model = finetune_lm(train_lm(corpus, order, k), in_corpus, alpha)
        row = table_row(model, _QUERIES, history)
        assert batch_term(model, history, _QUERIES[at]).hex() == float(row[at]).hex()

    @pytest.mark.parametrize("k", [0.01, 0.3, 7.5])
    def test_every_term_is_the_row_element(self, k):
        # A dense sweep over a peaked, weighted model: a log that differs
        # from np.log's row kernel in rare last bits (math.log does, mostly
        # for probabilities near 1) shows here when the properties above
        # miss it.
        rng = random.Random(54)
        vocab = [f"w{i}" for i in range(12)]
        successor = {w: rng.choice(vocab) for w in vocab}
        corpus = []
        for _ in range(150):
            sent = [rng.choice(vocab)]
            for _ in range(rng.randint(1, 7)):
                sent.append(successor[sent[-1]] if rng.random() < 0.9
                            else rng.choice(vocab))
            corpus.append(tuple(sent))
        weights = [rng.randint(1, 40) for _ in corpus]
        model = train_lm(corpus, order=3, k=k, weights=weights)
        queries = vocab + ["oov", "</s>"]
        for history in itertools.product(vocab + ["<s>"], repeat=2):
            row = table_row(model, queries, history)
            terms = [batch_term(model, history, token) for token in queries]
            assert terms == row.tolist()


# A decoder's target symbols: a vocabulary that holds "<unk>", so two ext ids
# spell it, and a literal "<s>", with symbols no LM here was trained on; "#"
# sorts first, so its rank is 0.
_TABLE_SYMBOLS = ("<s>", "<unk>", "a", "b", "c", "#", "zz", "<unk>")


def lm_state(model, context):
    """The LM state of a context of symbols, by the definition: for each
    part, the longest suffix of its BOS-padded ids that a trained trie holds
    as a node, i.e. that holds counts in the model's document."""
    parts = [model] if isinstance(model, NGramLM) else [model.base, model.indomain]
    states = []
    for part in parts:
        nodes = [{tuple(ctx) for ctx, _ in level} for level in lm_doc(part)["counts"]]
        bos = len(part.syms)
        ids = tuple(bos if t == "<s>" else part.sym_id.get(t, bos - 1) for t in context)
        ids = (bos,) * (part.order - 1 - len(ids)) + ids
        n = max(n for n in range(part.order) if ids[len(ids) - n:] in nodes[n])
        states.append(ids[len(ids) - n:])
    return tuple(states)


class TestRowTable:
    """The decoder's rows: one per state of an n-gram part, and the parts'
    rows mixed are the batch scorer's terms."""

    @settings(max_examples=150, deadline=None)
    @given(_corpora, _orders, _ks, st.sampled_from([None, 0.0, 0.4, 1.0]),
           st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                              st.lists(st.tuples(*[st.integers(0, len(_TABLE_SYMBOLS) - 1)] * 3),
                                       min_size=1, max_size=8)),
                    min_size=1, max_size=4))
    def test_one_row_per_state_equal_to_the_event_terms(self, corpus, order, k, alpha, steps):
        model = train_lm(corpus, order, k)
        if alpha is not None:
            model = finetune_lm(model, [("b", "e"), ("e", "<s>", "a", "a")], alpha)
        tables = part_tables(model, _TABLE_SYMBOLS)
        slot_of = [{} for _ in tables]   # each part's slot of every context
        for width, contexts in steps:
            # one step's contexts share a length of at most order - 1
            width = min(width, order - 1)
            ids = np.array([c[3 - width:] for c in contexts],
                           dtype=np.intp).reshape(len(contexts), width)
            for table, seen in zip(tables, slot_of):
                for ctx, slot in zip(map(tuple, ids.tolist()), table.slots(ids).tolist()):
                    assert seen.setdefault(ctx, slot) == slot
        vocab = list(_TABLE_SYMBOLS)
        for (_, part), table, seen in zip(model.parts, tables, slot_of):
            slot_of_state = {}
            for ctx, slot in seen.items():
                state = lm_state(part, [vocab[i] for i in ctx])
                assert slot_of_state.setdefault(state, slot) == slot
            assert table.held == len(slot_of_state) == len(set(seen.values()))
            assert table.prob_max == table.probs.max()
        for ctx in slot_of[0]:
            back = [ctx[-d] if d <= len(ctx) else len(vocab) for d in range(1, order)]
            history = np.array([back] * len(vocab), dtype=np.int64).reshape(len(vocab), order - 1)
            expected = lm_module._event_logprobs(model, vocab, history, np.arange(len(vocab)))
            got = mixed_rows(model, _TABLE_SYMBOLS, np.array([ctx], dtype=np.intp))[0]
            assert [float(v).hex() for v in got] == [float(v).hex() for v in expected]

    def test_rows_die_with_the_lm_without_the_collector(self):
        gc.disable()
        try:
            model = finetune_lm(train_lm([("a", "b", "c")] * 4, 3, 0.3), [("b", "d")], 0.4)
            tables = part_tables(model, _TABLE_SYMBOLS)
            for table in tables:
                table.slots(np.array([[2, 3], [0, 2], [5, 6]]))
                assert table.held > 0
            refs = [weakref.ref(obj) for obj in (model, model.base, model.indomain, *tables)]
            del model, tables, table
            assert [ref() for ref in refs] == [None] * 5
        finally:
            gc.enable()

    def test_a_table_holds_its_lm(self):
        # a table outlives the last other name of its LM and still reads rows
        model = train_lm([("a", "b", "c")] * 4, 2, 0.3)
        table = RowTable(model, _TABLE_SYMBOLS)
        want = mixed_probs(model, _TABLE_SYMBOLS, np.array([[2]]))
        del model
        slots = table.slots(np.array([[2]]))   # before `probs`, which it may grow
        assert table.probs[slots].tobytes() == want.tobytes()


def _counting_rows(monkeypatch):
    """Count the rows `NGramLM._rows` builds, by (id of the part, level)."""
    built = {}
    real = NGramLM._rows

    def counted(self, level, depth, node, kept):
        built[id(self), level] = built.get((id(self), level), 0) + len(node)
        return real(self, level, depth, node, kept)

    monkeypatch.setattr(NGramLM, "_rows", counted)
    return built


_STEPS = st.lists(st.lists(st.tuples(*[st.integers(0, len(_TABLE_SYMBOLS) - 1)] * 3),
                           min_size=1, max_size=8), min_size=1, max_size=4)


@pytest.mark.hashseed
class TestPerPartRows:
    """The decoder mixes an interpolated LM's entries from its parts' own
    tables, one per part for a decode's call."""

    def test_a_shared_part_computes_its_rows_once(self, monkeypatch):
        # two checkpoints sharing a fine-tune LM, stacked and decoded in
        # blocks of 3 sentences: the call builds one table per part, which
        # every block reads, so each row of a part, lower orders included,
        # is computed once; a second call builds new tables and computes the
        # rows again
        rng = random.Random(61)
        base = train_lm(random_corpus(rng, ["a", "b", "c", "d"], 40), order=3, k=0.4)
        ft_lm = finetune_lm(base, random_corpus(rng, ["a", "b", "e"], 8), 0.3)
        src_vocab = (tm.NULL, "s0", "s1", "s2", "s3")
        targets = ("a", "b", "c", "d", "e")
        t = np.array([[rng.random() for _ in targets] for _ in src_vocab])
        models = [tm.LexModel(src_vocab, targets, t / t.sum(axis=1, keepdims=True) * scale,
                              ft_lm, beam=3, window=1, lm_weight=0.6) for scale in (1.0, 0.5)]
        sources = [tuple(rng.choice(src_vocab[1:]) for _ in range(rng.randint(1, 6)))
                   for _ in range(12)]
        built = _counting_rows(monkeypatch)
        blocks = []
        decode = tm._decode_block

        def recording(models, cands, tables, block, member, width, n):
            blocks.append(tables)
            return decode(models, cands, tables, block, member, width, n)

        with mock.patch.object(tm, "_DECODE_STATES", 12), \
                mock.patch.object(tm, "_decode_block", recording), \
                recorded_row_tables() as made:
            tm.translate_stack(models, sources, 4)
            first = dict(built)
            tm.translate_stack(models, sources, 4)
        assert len(made) == 2 and len(blocks) == 2 * 8
        assert all(tables is made[0] for tables in blocks[:8])
        assert [part for _, part in ft_lm.parts] == [base, ft_lm.indomain]
        for (_, part), (_, table) in zip(ft_lm.parts, made[0]):
            assert first[id(part), 3] == table.held > 0
            for level in (1, 2):
                assert first[id(part), level] == sum(key[0] == level for key in table._lower)
        assert built == {key: 2 * count for key, count in first.items()}

    @settings(max_examples=120, deadline=None)
    @given(_corpora, _orders, _ks, st.sampled_from([None, 0.0, 0.4, 1.0]), _STEPS)
    def test_rows_equal_the_reference_table(self, corpus, order, k, alpha, steps):
        """Every entry the decoder mixes from its parts' tables equals, bit
        for bit, the element of the row a table that mixed whole rows, and
        computed its parts' rows itself, holds; at each step, as the tables
        grow."""
        model = train_lm(corpus, order, k)
        if alpha is not None:
            model = finetune_lm(model, [("b", "e"), ("e", "<s>", "a", "a")], alpha)
        tables = part_tables(model, _TABLE_SYMBOLS)
        reference = ReferenceRowTable(model, _TABLE_SYMBOLS)
        for contexts in steps:
            width = order - 1
            ids = np.array([c[3 - width:] for c in contexts], dtype=np.intp).reshape(
                len(contexts), width)
            got, want = mixed_probs(model, _TABLE_SYMBOLS, ids, tables), reference.slots(ids)
            assert got.tobytes() == reference.probs[want].tobytes()
        if alpha is None:   # one part: its table holds the reference's rows
            table, = tables
            assert table.held == reference.held
            assert table.prob_max == reference.prob_max

    @settings(max_examples=150, deadline=None)
    @given(_corpora, _orders, st.sampled_from([1e-12, 0.01, 0.3, 7.5]),
           st.sampled_from([None, 0.0, 0.1, 0.3, 0.4, 0.7, 1.0]), _STEPS)
    def test_no_mixed_entry_exceeds_the_bound_of_the_parts_maxima(self, corpus, order, k,
                                                                   alpha, steps):
        """The decoder's LM bound, the parts' mixture of their tables'
        largest probabilities, is at least every entry it mixes, and so is
        its log; at each step, as the tables grow."""
        model = train_lm(corpus, order, k)
        if alpha is not None:
            model = finetune_lm(model, [("b", "e"), ("e", "<s>", "a", "a")], alpha)
        tables = part_tables(model, _TABLE_SYMBOLS)
        for contexts in steps:
            width = order - 1
            ids = np.array([c[3 - width:] for c in contexts], dtype=np.intp).reshape(
                len(contexts), width)
            entries = mixed_probs(model, _TABLE_SYMBOLS, ids, tables)
            bound = mixture(model.parts, [table.prob_max for table in tables])
            assert entries.max() <= bound
            assert np.log(entries).max() <= np.log(bound)
