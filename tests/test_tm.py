import gc
import itertools
import json
import math
import random
import sys
import warnings
import weakref
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deskmt.corpus import SIDE_PARALLEL, UNK_TOKEN, TaggedDataset, build_mix, swap_direction
from deskmt.lm import finetune_lm, train_lm
from deskmt.ensemble import Ensemble
from deskmt import cache
from deskmt import tm as tm_module
from deskmt.rerank import NoisyChannelWeights, RerankContext, rerank
from deskmt.tm import (
    NULL,
    DataError,
    EMTrainer,
    LexModel,
    cross_channel_scores,
    em_train,
    model_from_dict,
    pair_channel_scores,
    translate_corpus,
)
from deskmt.util import content_hash, stable_json_dumps
from nbest_lists import decode_one, nbest_lists
from reference_docs import model_to_dict as reference_model_to_dict


def model_doc(model):
    """The dict form of a model's artifact: `json.loads` of its text."""
    return json.loads(tm_module.model_json(model)[0])


def mix_of(pairs, tag="<t>", upsample=1):
    ds = TaggedDataset("d", SIDE_PARALLEL, tag,
                       pairs=tuple((tuple(s.split()), tuple(t.split()))
                                   for s, t in pairs),
                       upsample=upsample)
    return build_mix([ds])


def em_oracle(pairs, iterations):
    """Textbook IBM1 EM on weighted pairs: dict-based, independent of tm.py."""
    tgt_vocab = sorted({t for (_, tgt), _ in pairs for t in tgt})
    t = defaultdict(lambda: 1.0 / len(tgt_vocab))
    lls = []
    for _ in range(iterations):
        counts = defaultdict(float)
        totals = defaultdict(float)
        ll = 0.0
        for (src, tgt), w in pairs:
            srcs = [NULL] + list(src)
            for y in tgt:
                denom = sum(t[(s, y)] for s in srcs)
                ll += w * (math.log(denom) - math.log(len(srcs)))
                for s in srcs:
                    c = w * t[(s, y)] / denom
                    counts[(s, y)] += c
                    totals[s] += c
        new_t = defaultdict(float)
        for (s, y), c in counts.items():
            new_t[(s, y)] = c / totals[s]
        t = new_t
        lls.append(ll)
    return t, lls


def build_model(t_dict, src_vocab, tgt_vocab, lm_corpus, *, beam=5, window=0,
                lm_weight=0.0, lm_order=2, lm_k=0.5):
    """Hand-specified lexical table; src_vocab excludes NULL."""
    src = (NULL,) + tuple(src_vocab)
    t = np.zeros((len(src), len(tgt_vocab)))
    for (s, y), p in t_dict.items():
        t[src.index(s), tgt_vocab.index(y)] = p
    lm = train_lm(lm_corpus, lm_order, lm_k)
    return LexModel(src, tuple(tgt_vocab), t, lm, beam=beam, window=window,
                    lm_weight=lm_weight)


def lm_row(model, ctx):
    """The decoder's LM log-probabilities over the ext ids after a token context."""
    ext_id = {s: i for i, s in enumerate(model._ext_vocab())}
    table = model._row_table()
    slot = table.slots(np.array([[ext_id[t] for t in ctx]],
                                dtype=np.intp).reshape(1, len(ctx)))[0]
    return table.rows[slot]


def candidates(model, symbol):
    """(ext ids, lex log-probs) of the decodable targets of one source symbol."""
    ids, lex, start, count = model._candidate_table()
    sid = model.src_id.get(symbol, len(model.src_vocab))
    a, b = start[sid], start[sid] + count[sid]
    return ids[a:b], lex[a:b]


def pair_logprob(model, src, y):
    """Viterbi forced score: max over window-admissible alignments of the
    decoder's scoring function. Matches the fwd score of decoder outputs."""
    if len(src) != len(y):
        raise DataError(f"length mismatch: |x|={len(src)} vs |y|={len(y)}")
    if not src:
        raise DataError("cannot score an empty pair")
    m = len(src)
    w = model.window
    ext_vocab = model._ext_vocab()
    ext_id = {s: i for i, s in enumerate(ext_vocab)}
    order = getattr(model.lm, "order", 1)
    unk_ext = len(model.tgt_vocab)

    def lex_term(j, token):
        ids, logp = candidates(model, src[j])
        tid = ext_id.get(token)
        if tid is None:
            return -np.inf
        hits = np.flatnonzero(ids == tid)
        return float(logp[hits[0]]) if hits.size else -np.inf

    states = {0: 0.0}
    ctx = ()
    for i in range(1, m + 1):
        lm_vec = lm_row(model, ctx)
        token = y[i - 1]
        lm_term = float(lm_vec[ext_id.get(token, unk_ext)])
        lo, hi = max(0, i - 1 - w), min(m - 1, i - 1 + w)
        new_states = {}
        for mask, score in states.items():
            for j in range(lo, hi + 1):
                if mask >> j & 1:
                    continue
                lex = lex_term(j, token)
                if not np.isfinite(lex):
                    continue
                new_mask = mask | (1 << j)
                if i - w >= 1 and not new_mask >> (i - w - 1) & 1:
                    continue
                cand = score + (lex + model.lm_weight * lm_term)
                if new_states.get(new_mask, -np.inf) < cand:
                    new_states[new_mask] = cand
        if not new_states:
            raise DataError("no admissible alignment for this pair")
        states = new_states
        ctx = ctx + (token,)
        if len(ctx) >= order:
            ctx = ctx[len(ctx) - order + 1:]
    return states[(1 << m) - 1]


def brute_force_nbest(model, x, n):
    """Enumerate every admissible (alignment, symbol) sequence; group by output."""
    m = len(x)
    w = model.window
    ext_vocab = model._ext_vocab()
    order = getattr(model.lm, "order", 1)
    results = {}

    def recurse(step, consumed, ctx, tokens, score):
        if step > m:
            key = tokens
            if results.get(key, -math.inf) < score:
                results[key] = score
            return
        lm_vec = lm_row(model, ctx)
        for j in range(m):
            if j in consumed or abs((j + 1) - step) > w:
                continue
            ids, lex = candidates(model, x[j])
            for idx in range(ids.size):
                token = ext_vocab[int(ids[idx])]
                step_score = float(lex[idx]) + model.lm_weight * float(lm_vec[int(ids[idx])])
                new_ctx = ctx + (token,)
                if len(new_ctx) >= order:
                    new_ctx = new_ctx[len(new_ctx) - order + 1:]
                recurse(step + 1, consumed | {j}, new_ctx,
                        tokens + (token,), score + step_score)

    recurse(1, frozenset(), (), (), 0.0)
    ranked = sorted(results.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:n]


def corpus_log_likelihood(model, mix):
    """IBM1 marginal log-likelihood of a mix under the model's current table."""
    total = 0.0
    for (src, tgt), w in mix.weighted_pairs().items():
        s_ids = [0] + [model.src_id[s] for s in src]
        t_ids = [model.tgt_id[t] for t in tgt]
        sub = model.t[np.ix_(s_ids, t_ids)]
        total += w * float(np.log(sub.sum(axis=0)).sum() - len(tgt) * np.log(len(src) + 1))
    return total


def random_mix(rng, n_pairs, vocab_size=5, max_len=4):
    src_vocab = [f"s{i}" for i in range(vocab_size)]
    tgt_vocab = [f"t{i}" for i in range(vocab_size)]
    pairs = []
    for _ in range(n_pairs):
        length = rng.randint(1, max_len)
        src = tuple(rng.choice(src_vocab) for _ in range(length))
        tgt = tuple(rng.choice(tgt_vocab) for _ in range(length))
        pairs.append((src, tgt))
    ds = TaggedDataset("r", SIDE_PARALLEL, "<t>", pairs=tuple(pairs))
    return build_mix([ds])


def per_pair_grouping(pairs, src_id, tgt_id):
    """`tm._group_pairs` as it was written pair by pair: the reference the
    array grouping is checked against."""
    by_shape: dict[tuple[int, int], list] = {}
    for (src, tgt), w in pairs:
        by_shape.setdefault((len(src), len(tgt)), []).append(
            ([0] + [src_id[s] for s in src], [tgt_id[t] for t in tgt], w))
    groups = []
    for (ls, lt), rows in sorted(by_shape.items()):
        S = np.array([r[0] for r in rows], dtype=np.intp)
        T = np.array([r[1] for r in rows], dtype=np.intp)
        W = np.array([r[2] for r in rows], dtype=np.float64)
        groups.append((ls, lt, S, T, W))
    return groups


SENTENCES = st.lists(st.sampled_from("abcdef"), min_size=1, max_size=6).map(tuple)
WEIGHTED_MIXES = st.lists(
    st.tuples(st.lists(st.tuples(SENTENCES, SENTENCES), min_size=1, max_size=12),
              st.integers(1, 4)),
    min_size=1, max_size=3,
).map(lambda sets: build_mix([
    TaggedDataset(f"d{k}", SIDE_PARALLEL, "<t>", pairs=tuple(pairs), upsample=up)
    for k, (pairs, up) in enumerate(sets)]))


class TestEmTrain:
    def test_single_pair_single_option(self):
        model = em_train(mix_of([("a", "x")]), iterations=1)
        assert model.t[model.src_id["a"], model.tgt_id["x"]] == pytest.approx(1.0)

    def test_cooccurrence_beats_alternative(self):
        model = em_train(mix_of([("a b", "x y"), ("a", "x")]), iterations=2)
        t_x = model.t[model.src_id["a"], model.tgt_id["x"]]
        t_y = model.t[model.src_id["a"], model.tgt_id["y"]]
        assert t_x > t_y

    def test_matches_dict_oracle(self):
        rng = random.Random(99)
        for _ in range(10):
            mix = random_mix(rng, rng.randint(2, 8))
            iters = rng.randint(1, 4)
            model = em_train(mix, iterations=iters)
            merged = defaultdict(int)
            for pair in mix.datasets[0].pairs:
                merged[pair] += 1
            oracle_t, oracle_ll = em_oracle(list(merged.items()), iters)
            for (s, y), p in oracle_t.items():
                got = model.t[model.src_id[s], model.tgt_id[y]]
                assert got == pytest.approx(p, abs=1e-12)
            assert model.train_ll_trace == pytest.approx(oracle_ll, abs=1e-9)

    def test_loglikelihood_monotone(self):
        rng = random.Random(5)
        for _ in range(25):
            mix = random_mix(rng, rng.randint(2, 12))
            model = em_train(mix, iterations=5)
            trace = model.train_ll_trace
            assert all(trace[i + 1] >= trace[i] - 1e-9 for i in range(len(trace) - 1))

    def test_rows_renormalize(self):
        rng = random.Random(17)
        mix = random_mix(rng, 10)
        model = em_train(mix, iterations=3)
        sums = model.t.sum(axis=1)
        assert np.allclose(sums[sums > 0], 1.0, atol=1e-9)

    def test_upsampling_equals_replication(self):
        pairs = [("a b", "x y"), ("b", "y")]
        up = em_train(mix_of(pairs, upsample=3), iterations=3)
        rep = em_train(mix_of(pairs * 3), iterations=3)
        assert np.allclose(up.t, rep.t, atol=1e-12)

    def test_tags_are_stripped(self):
        # the dataset tag is a label of the mix and never reaches the sources
        model = em_train(mix_of([("a", "x")], tag="<d:in>"), iterations=1)
        assert "<d:in>" not in model.src_id

    def test_leading_tag_token_is_a_word(self):
        model = em_train(mix_of([("<x> a", "x y")], tag="<d:in>"), iterations=1)
        assert "<x>" in model.src_vocab
        assert "<d:in>" not in model.src_vocab

    def test_empty_mix_rejected(self):
        with pytest.raises(DataError):
            em_train(mix_of([]), iterations=1)

    def test_a_later_step_leaves_an_earlier_snapshot_unchanged(self):
        trainer = EMTrainer(random_mix(random.Random(12), 10))
        lm = train_lm([("t0", "t1")], 2, 0.5)
        trainer.step()
        first = trainer.snapshot(lm)
        table = first.t.copy()
        trainer.step()
        second = trainer.snapshot(lm)
        assert np.array_equal(first.t, table) and not np.array_equal(second.t, table)
        assert not first.t.flags.writeable
        with pytest.raises(ValueError):
            first.t[0, 0] = 0.5
        assert first.train_ll_trace == tuple(trainer.ll_trace[:1])

    @settings(max_examples=200, deadline=None)
    @given(WEIGHTED_MIXES)
    def test_grouping_equals_per_pair_grouping(self, mix):
        """The same shapes in the same order, each shape's rows in the
        order of first appearance, with their ids and weights."""
        trainer = EMTrainer(mix)
        src_id = {s: i for i, s in enumerate(trainer.src_vocab)}
        tgt_id = {t: i for i, t in enumerate(trainer.tgt_vocab)}
        expected = per_pair_grouping(mix.weighted_pairs().items(), src_id, tgt_id)
        assert len(trainer.groups) == len(expected)
        for got, want in zip(trainer.groups, expected):
            assert got[:2] == want[:2]
            for a, b in zip(got[2:], want[2:]):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert np.array_equal(a, b)

    def test_corpus_log_likelihood_matches_trace_start(self):
        mix = mix_of([("a b", "x y"), ("a", "y")])
        model = em_train(mix, iterations=1)
        # trace[0] is the LL of the uniform init; after training LL improves
        assert corpus_log_likelihood(model, mix) >= model.train_ll_trace[0] - 1e-9


class TestOneSourceDecode:
    def test_one_hot_table_window0(self):
        model = build_model({("a", "b"): 1.0}, ["a"], ["b"],
                            [("b", "b")] * 3, lm_weight=0.4)
        nb = decode_one(model, ("a", "a"), 2)
        assert nb[0].hyp == ("b", "b")
        lm_terms = (0.4 * float(lm_row(model, ())[0])
                    + 0.4 * float(lm_row(model, ("b",))[0]))
        assert nb[0].fwd == pytest.approx(lm_terms, abs=1e-12)

    def test_n1_equals_greedy_for_one_hot(self):
        model = build_model({("a", "x"): 1.0, ("b", "y"): 1.0}, ["a", "b"],
                            ["x", "y"], [("x", "y")] * 2, beam=3)
        nb = decode_one(model, ("a", "b"), 1)
        assert len(nb) == 1
        assert nb[0].hyp == ("x", "y")

    def test_window_allows_swap(self):
        # lexical table is ambiguous; LM strongly prefers the swapped order
        model = build_model(
            {("a", "x"): 1.0, ("b", "y"): 1.0},
            ["a", "b"], ["x", "y"],
            [("y", "x")] * 20, window=1, lm_weight=2.0, lm_order=2)
        nb = decode_one(model, ("a", "b"), 4)
        assert nb[0].hyp == ("y", "x")

    def test_matches_brute_force(self):
        rng = random.Random(31)
        for trial in range(30):
            mix = random_mix(rng, rng.randint(3, 10), vocab_size=3, max_len=3)
            window = rng.randint(0, 1)
            model = em_train(mix, iterations=2, window=window,
                             lm_weight=rng.choice([0.0, 0.5]), lm_order=2)
            length = rng.randint(1, 4)
            x = tuple(rng.choice(model.src_vocab[1:]) for _ in range(length))
            full = 4 ** 6  # exceeds any search-space size at these dims
            model.beam = full
            nb = decode_one(model, x, full)
            expected = brute_force_nbest(model, x, full)
            got = [(e.hyp, e.fwd) for e in nb]
            assert [h for h, _ in got] == [h for h, _ in expected]
            for (_, a), (_, b) in zip(got, expected):
                assert a == pytest.approx(b, abs=1e-9)

    def test_unknown_source_emits_unk(self):
        model = build_model({("a", "x"): 1.0}, ["a"], ["x"], [("x",)] * 2)
        nb = decode_one(model, ("a", "zzz"), 1)
        assert nb[0].hyp == ("x", UNK_TOKEN)

    def test_deterministic(self):
        rng = random.Random(8)
        mix = random_mix(rng, 8)
        model = em_train(mix, iterations=2, window=1)
        x = mix.datasets[0].pairs[0][0]
        first = decode_one(model, x, 10)
        second = decode_one(model, x, 10)
        assert [(e.hyp, e.fwd) for e in first] == \
               [(e.hyp, e.fwd) for e in second]

    def test_entries_unique_and_sorted(self):
        rng = random.Random(12)
        mix = random_mix(rng, 10)
        model = em_train(mix, iterations=2, window=1)
        nb = decode_one(model, mix.datasets[0].pairs[0][0], 20)
        hyps = [e.hyp for e in nb]
        assert len(set(hyps)) == len(hyps)
        scores = [e.fwd for e in nb]
        assert scores == sorted(scores, reverse=True)

    def test_leading_tag_token_is_translated(self):
        model = em_train(mix_of([("<x> a", "x y")], tag="<d:in>"), iterations=1)
        block = translate_corpus(model, [("<x>", "a")], 3)
        assert block.sources == [("<x>", "a")]
        assert {len(e.hyp) for e in nbest_lists(block)[0]} == {2}

    def test_invalid_inputs(self):
        model = build_model({("a", "x"): 1.0}, ["a"], ["x"], [("x",)] * 2)
        with pytest.raises(DataError):
            decode_one(model, ("a",), 0)
        with pytest.raises(DataError):
            decode_one(model, (), 1)


class TestTranslateCorpus:
    def identity(self):
        return build_model({("a", "a"): 1.0, ("b", "b"): 1.0}, ["a", "b"],
                           ["a", "b"], [("a", "b")])

    def reranking(self, seed):
        """A forward model, a rerank context with a backward model, and sources."""
        rng = random.Random(seed)
        mix = random_mix(rng, 14)
        fwd = em_train(mix, iterations=2, window=1, lm_weight=0.3, beam=3)
        bwd = em_train(swap_direction(mix), iterations=2, src_lang="tgt",
                       tgt_lang="src")
        ctx = RerankContext(bwd, fwd.lm, NoisyChannelWeights(1.5, 0.5), nbest=4)
        return fwd, ctx, [src for src, _ in mix.datasets[0].pairs[:6]]

    def test_translate_corpus_order_preserved(self):
        sources = [("a",), ("b",), ("a", "b")]
        block = translate_corpus(self.identity(), sources, 1)
        assert block.top_hyps() == [("a",), ("b",), ("a", "b")]

    def test_context_nbest_overrides_nbest(self):
        fwd, ctx, sources = self.reranking(5)
        block = translate_corpus(fwd, sources, 1, rerank_ctx=ctx)
        sizes = [len(decode_one(fwd, x, ctx.nbest)) for x in sources]
        assert block.sizes().tolist() == sizes
        assert max(sizes) > 1

    def test_context_reranks_the_plain_lists(self):
        fwd, ctx, sources = self.reranking(6)
        got = translate_corpus(fwd, sources, 1, rerank_ctx=ctx)
        plain = translate_corpus(fwd, sources, ctx.nbest)
        # the block reranks each list as it would be reranked alone
        assert nbest_lists(got) == [
            nbest_lists(rerank(plain.select(np.array([k])), ctx.channel_model, ctx.lm,
                               ctx.weights))[0]
            for k in range(len(plain))]
        assert got.combined is not None


class TestPairLogprob:
    def test_consistency_with_decoder_top1(self):
        rng = random.Random(77)
        for _ in range(20):
            mix = random_mix(rng, rng.randint(3, 10))
            model = em_train(mix, iterations=2, window=rng.randint(0, 1),
                             lm_weight=0.5, beam=64)
            x = mix.datasets[0].pairs[0][0]
            nb = decode_one(model, x, 5)
            assert pair_logprob(model, x, nb[0].hyp) == nb[0].fwd

    def test_window0_is_monotone_alignment_sum(self):
        model = build_model({("a", "x"): 0.5, ("a", "y"): 0.5, ("b", "y"): 1.0},
                            ["a", "b"], ["x", "y"], [("x", "y")] * 3,
                            lm_weight=0.7, window=0)
        x, y = ("a", "b"), ("x", "y")
        expected = 0.0
        ctx = ()
        for j, (sx, sy) in enumerate(zip(x, y)):
            ids, lex = candidates(model, sx)
            tid = model.tgt_id[sy]
            lex_term = float(lex[list(ids).index(tid)])
            lm_term = float(lm_row(model, ctx)[tid])
            expected += lex_term + 0.7 * lm_term
            ctx = (ctx + (sy,))[-1:]
        assert pair_logprob(model, x, y) == pytest.approx(expected, abs=1e-12)

    def test_dominates_every_fixed_alignment(self):
        rng = random.Random(41)
        for _ in range(15):
            mix = random_mix(rng, rng.randint(4, 10), vocab_size=4, max_len=6)
            window = rng.randint(0, 2)
            model = em_train(mix, iterations=2, window=window, lm_weight=0.3)
            length = rng.randint(1, 6)
            x = tuple(rng.choice(model.src_vocab[1:]) for _ in range(length))
            y = tuple(rng.choice(model.tgt_vocab) for _ in range(length))
            try:
                best = pair_logprob(model, x, y)
            except DataError:
                continue  # no admissible alignment for this random pair
            ext_id = {s: i for i, s in enumerate(model._ext_vocab())}
            for perm in itertools.permutations(range(length)):
                if any(abs(perm[i] - i) > window for i in range(length)):
                    continue
                score = 0.0
                ctx = ()
                feasible = True
                for i, j in enumerate(perm):
                    ids, lex = candidates(model, x[j])
                    tid = ext_id[y[i]]
                    hits = [k for k in range(ids.size) if int(ids[k]) == tid]
                    if not hits:
                        feasible = False
                        break
                    lm_term = float(lm_row(model, ctx)[tid])
                    score += float(lex[hits[0]]) + model.lm_weight * lm_term
                    ctx = (ctx + (y[i],))[-(model.lm.order - 1):] if model.lm.order > 1 else ()
                if feasible:
                    assert best >= score - 1e-9

    def test_length_mismatch_rejected(self):
        model = build_model({("a", "x"): 1.0}, ["a"], ["x"], [("x",)] * 2)
        with pytest.raises(DataError):
            pair_logprob(model, ("a", "a"), ("x",))

    def test_unreachable_pair_rejected(self):
        model = build_model({("a", "x"): 1.0}, ["a"], ["x", "q"], [("x",)] * 2)
        with pytest.raises(DataError):
            pair_logprob(model, ("a",), ("q",))


def channel_scores(model, x, ys):
    """`pair_channel_scores` of x with every y: ln P(x | y) for each y."""
    return pair_channel_scores(model, [x], ys, np.zeros(len(ys), dtype=np.intp),
                               np.arange(len(ys))).tolist()


class TestChannelScore:
    def test_single_pair_half(self):
        # t(x|y) = 1, t(x|NULL) = 0 -> ln(1/2)
        model = build_model({("y", "x"): 1.0}, ["y"], ["x"], [("x",)] * 2)
        assert channel_scores(model, ("x",), [("y",)])[0] == pytest.approx(math.log(0.5))

    def test_uniform_table_depends_only_on_length(self):
        tgt = ["x", "y", "z"]
        t = {(s, c): 1.0 / 3 for s in [NULL, "a", "b"] for c in tgt}
        model = build_model({k: v for k, v in t.items() if k[0] != NULL},
                            ["a", "b"], tgt, [("x",)] * 2)
        model.t[0, :] = 1.0 / 3  # NULL row uniform too
        model._caches.clear()
        for y in [("a",), ("b", "a"), ("a", "a", "b")]:
            got = channel_scores(model, ("x", "z"), [y])[0]
            assert got == pytest.approx(2 * math.log(1.0 / 3), abs=1e-12)

    def test_two_by_two_hand_case(self):
        model = build_model({("u", "x"): 0.7, ("u", "y"): 0.3,
                             ("v", "x"): 0.2, ("v", "y"): 0.8},
                            ["u", "v"], ["x", "y"], [("x",)] * 2)
        # NULL row is all zero
        expected = (math.log((0.0 + 0.7 + 0.2) / 3)
                    + math.log((0.0 + 0.3 + 0.8) / 3))
        got = channel_scores(model, ("x", "y"), [("u", "v")])[0]
        assert got == pytest.approx(expected, abs=1e-12)

    def test_unknown_symbols_get_floor(self):
        model = build_model({("y", "x"): 1.0}, ["y"], ["x"], [("x",)] * 2)
        score = channel_scores(model, ("mystery",), [("y",)])[0]
        assert math.isfinite(score)
        assert score <= math.log(model.unk_floor) + 1e-6

    def test_leading_tag_token_is_scored(self):
        # a leading <...> token is a word on either side: unknown to this
        # model, it looks up the floor row (source) or column (target)
        model = build_model({("y", "x"): 1.0}, ["y"], ["x"], [("x",)] * 2)
        plain = channel_scores(model, ("x",), [("y",)])[0]
        tagged = channel_scores(model, ("<bt>", "x"), [("<st>", "y")])[0]
        assert tagged == reference_marginal(model, ("<st>", "y"), ("<bt>", "x"))
        assert tagged < plain

    def test_leading_unknown_token_is_scored(self):
        # <unk> is a target token, not a tag: it looks up the floor row and
        # counts toward l
        model = build_model({("y", "x"): 1.0}, ["y"], ["x"], [("x",)] * 2)
        got = channel_scores(model, ("x",), [(UNK_TOKEN, "y")])[0]
        assert got == pytest.approx(math.log((model.unk_floor + 1.0) / 3), abs=1e-12)
        assert channel_scores(model, ("x",), [(UNK_TOKEN, "y"), ("y",)]) == \
            [got, channel_scores(model, ("x",), [("y",)])[0]]


def reference_marginal(model, cond, obs):
    """Per-pair IBM1 marginal: a (l+1, |obs|) gather averaged over axis 0."""
    if not obs:
        return 0.0
    ns, nt = model.t.shape
    t_ext = np.full((ns + 1, nt + 1), model.unk_floor)
    t_ext[:ns, :nt] = model.t
    rows = np.array([0] + [model.src_id.get(s, ns) for s in cond], dtype=np.intp)
    cols = np.array([model.tgt_id.get(s, nt) for s in obs], dtype=np.intp)
    inner = np.maximum(t_ext[rows[:, None], cols[None, :]].mean(axis=0), model.unk_floor)
    return float(np.log(inner).sum())


@pytest.mark.hashseed
class TestMarginalKernel:
    """channel_scores equals the per-pair reference bit for bit, alone and in
    a batch, also past 8 summed terms."""

    def sentences(self, rng, model, count):
        syms = list(model.src_vocab[1:]) + list(model.tgt_vocab) + ["zz"]
        return [tuple(rng.choice(syms) for _ in range(rng.randint(0, 12)))
                for _ in range(count)]

    def test_equal_to_reference(self):
        rng = random.Random(41)
        for _ in range(10):
            model = em_train(random_mix(rng, 12), iterations=2)
            sents = self.sentences(rng, model, 30)
            x = ("<bt>",) + sents[0]
            for y in sents:
                assert channel_scores(model, x, [y])[0] == reference_marginal(model, y, x)
            assert channel_scores(model, x, sents) == [
                reference_marginal(model, y, x) for y in sents]

    def test_batch_of_nothing(self):
        model = em_train(random_mix(random.Random(42), 6), iterations=1)
        assert channel_scores(model, ("x",), []) == []
        assert channel_scores(model, (), [("a",), ()]) == [0.0, 0.0]
        assert pair_channel_scores(model, [], [], np.zeros(0, dtype=np.intp),
                                   np.zeros(0, dtype=np.intp)).shape == (0,)

    def test_pairs_equal_reference(self, monkeypatch):
        # many sources and hypotheses, pairs in any order and repeated, some
        # shapes split over several gathers
        monkeypatch.setattr(tm_module, "_GATHER_CHUNK", 60)
        rng = random.Random(43)
        for _ in range(10):
            model = em_train(random_mix(rng, 12), iterations=2)
            xs = self.sentences(rng, model, 7)
            ys = self.sentences(rng, model, 25)
            x_at = np.array([rng.randrange(len(xs)) for _ in range(80)])
            y_at = np.array([rng.randrange(len(ys)) for _ in range(80)])
            got = pair_channel_scores(model, xs, ys, x_at, y_at).tolist()
            assert [v.hex() for v in got] == [
                reference_marginal(model, ys[j], xs[i]).hex()
                for i, j in zip(x_at.tolist(), y_at.tolist())]


@pytest.mark.hashseed
class TestCrossKernel:
    """cross_channel_scores equals the per-pair reference bit for bit for
    every x and y of every block, at the pairwise edge of one-token xs and
    with small runs."""

    @pytest.mark.parametrize("bound", [None, 60, 1])
    def test_equals_reference(self, monkeypatch, bound):
        if bound is not None:
            # runs, and the one-token xs' gathers through `_pair_scores`
            monkeypatch.setattr(tm_module, "_CROSS_RUN", bound)
            monkeypatch.setattr(tm_module, "_GATHER_CHUNK", bound)
        rng = random.Random(44)
        for _ in range(6):
            model = em_train(random_mix(rng, 12), iterations=2)
            # both sides draw from both vocabularies and "zz", so unknown
            # symbols occur in xs and ys; ys runs past 8 summed terms
            syms = list(model.src_vocab[1:]) + list(model.tgt_vocab) + ["zz"]
            xs = [tuple(rng.choice(syms) for _ in range(rng.randint(0, 12)))
                  for _ in range(8)]
            ys = [tuple(rng.choice(syms) for _ in range(n)) for n in range(7, 13)]
            ys += [(), ("zz",), ys[0], (rng.choice(syms),) * 9]
            xs += [(rng.choice(syms),) for _ in range(3)] + [("zz",), xs[0]]
            # one block of all, blocks of parts, and blocks with no xs or no ys
            blocks = [(xs, ys), (xs[:5], ys[3:]), (xs[5:], ys[:4]), ([], ys[:2]),
                      (xs[:3], []), (xs[-4:], ys[-4:])]
            got = cross_channel_scores(model, blocks)
            assert len(got) == len(blocks)
            for (bxs, bys), scores in zip(blocks, got):
                assert scores.shape == (len(bxs), len(bys))
                assert [[v.hex() for v in row] for row in scores.tolist()] == [
                    [reference_marginal(model, y, x).hex() for y in bys] for x in bxs]

    @pytest.mark.parametrize("bound", [None, 50])
    def test_rows_cover_their_block_symbols_in_bounded_runs(self, monkeypatch, bound):
        if bound is not None:
            monkeypatch.setattr(tm_module, "_CROSS_RUN", bound)
        runs = []

        def counted_run(model, blocks, run, out):
            runs.append((list(run), []))
            return cross_run(model, blocks, run, out)

        def counted_rows(model, y, y_piece, symbols, first):
            runs[-1][1].append((y[2].size, y_piece.tolist(),
                                [symbols[first[p]:first[p + 1]].tolist()
                                 for p in range(first.size - 1)]))
            return cross_rows(model, y, y_piece, symbols, first)

        cross_run, cross_rows = tm_module._cross_run, tm_module._cross_rows
        monkeypatch.setattr(tm_module, "_cross_run", counted_run)
        monkeypatch.setattr(tm_module, "_cross_rows", counted_rows)
        rng = random.Random(46)
        model = em_train(random_mix(rng, 20), iterations=1)
        ns, nt = model.t.shape
        blocks = []
        for k in range(4):
            syms = list(model.tgt_vocab[k:k + 2]) + ["zz"]
            xs = [tuple(rng.choice(syms) for _ in range(rng.randint(2, 5))) for _ in range(3)]
            ys = [tuple(rng.choice(model.src_vocab[1:]) for _ in range(rng.randint(0, 6)))
                  for _ in range(12)]
            blocks.append((xs, ys))
        cross_channel_scores(model, blocks)
        used = [sorted({model.tgt_id.get(tok, nt) for x in xs for tok in x}) for xs, _ in blocks]
        assert all(len(u) < nt + 1 for u in used)
        pieces = []
        for run, rows in runs:
            # one row build a run, over each piece's ys, in order
            (n_ys, y_piece, columns), = rows
            assert y_piece == [p for p, (_, lo, hi) in enumerate(run) for _ in range(lo, hi)]
            assert n_ys == len(y_piece)
            # a piece's columns are the ext ids its block's xs use
            assert columns == [used[k] for k, _, _ in run]
            # the run's rows and pairs fit the bound, or it is one y
            size = sum((hi - lo) * max(len(used[k]), len(blocks[k][0])) for k, lo, hi in run)
            assert size <= tm_module._CROSS_RUN or n_ys == 1
            pieces += run
        # each y's row is built once, blocks and ys in order
        assert [(k, j) for k, lo, hi in pieces for j in range(lo, hi)] == [
            (k, j) for k, (_, ys) in enumerate(blocks) for j in range(len(ys))]
        # at the default, one run; at 50, blocks cut into pieces
        assert (len(runs) == 1) == (bound is None)
        assert any(hi - lo < len(blocks[k][1]) for k, lo, hi in pieces) == (bound is not None)

    def test_empty(self):
        model = em_train(random_mix(random.Random(45), 6), iterations=1)
        assert cross_channel_scores(model, []) == []
        got = cross_channel_scores(model, [([], [("a",)]), ([("a",), ("a", "b")], []), ([], [])])
        assert [scores.shape for scores in got] == [(0, 1), (2, 0), (0, 0)]


class TestSerialization:
    def test_round_trip_bit_exact(self):
        rng = random.Random(3)
        mix = random_mix(rng, 12)
        model = em_train(mix, iterations=3, window=1, lm_weight=0.4)
        loaded = model_from_dict(model_doc(model))
        assert np.array_equal(loaded.t, model.t)
        assert loaded.src_vocab == model.src_vocab
        x = mix.datasets[0].pairs[0][0]
        a = decode_one(model, x, 5)
        b = decode_one(loaded, x, 5)
        assert [(e.hyp, e.fwd) for e in a] == [(e.hyp, e.fwd) for e in b]

    @pytest.mark.parametrize("key", ["beam", "t_rows", "src_vocab", "lm"])
    def test_missing_key_is_data_error(self, key):
        doc = model_doc(em_train(random_mix(random.Random(4), 8), iterations=1))
        del doc[key]
        with pytest.raises(DataError, match=repr(key)):
            model_from_dict(doc)

    @pytest.mark.parametrize("key, value", [("beam", "5"), ("t_rows", "rows"),
                                            ("t_rows", [[["0", "x"]]]),
                                            ("src_vocab", ["<null>", 3]),
                                            ("lm_weight", True), ("lm", []),
                                            # integers past the float range
                                            pytest.param("lm_weight", 10**400,
                                                         id="lm_weight-huge"),
                                            pytest.param("unk_floor", -10**400,
                                                         id="unk_floor-minus-huge")])
    def test_wrong_type_is_data_error(self, key, value):
        doc = model_doc(em_train(random_mix(random.Random(4), 8), iterations=1))
        doc[key] = value
        with pytest.raises(DataError, match=repr(key)):
            model_from_dict(doc)

    @pytest.mark.parametrize("row", [
        [[-1, 0.5]], [[1.5, 0.5]], [[True, 0.5]], [[0, -3.0]], [[0, math.nan]],
        [[0, math.inf]], [[0, 7.0]], [[0, True]], [[0, "0.5"]], [[0, 0.5], [0, 0.25]],
        [[0]], [[0, 0.5, 1]], [0], "row"])
    def test_bad_table_row_is_data_error(self, row):
        doc = model_doc(em_train(random_mix(random.Random(4), 8), iterations=1))
        doc["t_rows"][1] = row
        with pytest.raises(DataError, match="'t_rows'"):
            model_from_dict(doc)

    @pytest.mark.parametrize("trace", [
        ["x"], [[1]], [None], [True], [-1.5, False], [math.nan], [-math.inf], [math.inf],
        [10**400], {"0": -1.0}, "trace"])
    def test_bad_train_ll_trace_is_data_error(self, trace):
        doc = model_doc(em_train(random_mix(random.Random(4), 8), iterations=1))
        doc["train_ll_trace"] = trace
        with pytest.raises(DataError, match="'train_ll_trace'"):
            model_from_dict(doc)

    def test_train_ll_trace_of_numbers_loads(self):
        doc = model_doc(em_train(random_mix(random.Random(4), 8), iterations=2))
        assert len(doc["train_ll_trace"]) == 2
        doc["train_ll_trace"] += [-3, 0, -1e300]
        assert model_from_dict(doc).train_ll_trace == tuple(doc["train_ll_trace"])
        doc["train_ll_trace"] = []
        assert model_from_dict(doc).train_ll_trace == ()

    def test_table_ids_past_the_vocabularies_are_data_errors(self):
        doc = model_doc(em_train(random_mix(random.Random(4), 8), iterations=1))
        doc["t_rows"][1] = [[len(doc["tgt_vocab"]), 0.5]]
        with pytest.raises(DataError, match="'t_rows'"):
            model_from_dict(doc)
        doc = model_doc(em_train(random_mix(random.Random(4), 8), iterations=1))
        doc["t_rows"].append([])
        with pytest.raises(DataError, match="'t_rows'"):
            model_from_dict(doc)

    def test_table_bounds_load(self):
        # 0 and 1, as ints or floats, and an empty row are well formed
        doc = model_doc(em_train(random_mix(random.Random(4), 8), iterations=1))
        doc["t_rows"][1:3] = [[[0, 1], [1, 0.0]], []]
        t = model_from_dict(doc).t
        assert t[1, :2].tolist() == [1.0, 0.0] and not t[1, 2:].any() and not t[2].any()


# symbols JSON must escape or keep as they are: quotes, backslashes, control
# and non-ASCII characters
_SYMBOLS = st.text(st.sampled_from(["a", "b", " ", '"', "\\", "\x01", "é", "中", "😀"]),
                   min_size=1, max_size=3)
# zero, the smallest subnormal, another subnormal, the smallest normal, one
_PROBABILITIES = st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.0]) \
    | st.floats(0.0, 1.0)


@st.composite
def _models(draw, interpolated):
    src = (NULL,) + tuple(draw(st.lists(_SYMBOLS, max_size=4, unique=True)))
    tgt = tuple(draw(st.lists(_SYMBOLS, max_size=4, unique=True)))
    # some rows all zero, which serialize as empty rows
    t = np.array([draw(st.lists(_PROBABILITIES, min_size=len(tgt), max_size=len(tgt)))
                  if draw(st.booleans()) else [0.0] * len(tgt) for _ in src],
                 dtype=float).reshape(len(src), len(tgt))
    sentences = draw(st.lists(st.lists(st.sampled_from(tgt or ("a",)), min_size=1,
                                       max_size=4).map(tuple), min_size=1, max_size=4))
    lm = train_lm(sentences, draw(st.integers(1, 3)), draw(st.sampled_from([0.1, 1.0])))
    if interpolated:
        lm = finetune_lm(lm, sentences[:1], draw(st.sampled_from([0.2, 0.7])))
    trace = tuple(draw(st.lists(st.floats(-1e300, 0.0), max_size=2)))
    return LexModel(src, tgt, t, lm, lm_weight=draw(st.sampled_from([0.0, 0.3])),
                    train_ll_trace=trace)


@pytest.mark.hashseed
class TestModelJson:
    """`model_json` writes the text from the table's and the LM's arrays; it
    is the stable JSON of the reference `model_to_dict`'s document
    (tests/reference_docs.py), with the same hash, and a fixed point of
    `stable_json_dumps` after `json.loads`."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), interpolated=st.booleans())
    def test_text_is_the_stable_json_of_the_document(self, data, interpolated):
        model = data.draw(_models(interpolated))
        doc = reference_model_to_dict(model)
        text, digest = tm_module.model_json(model)
        assert text == stable_json_dumps(doc)
        assert stable_json_dumps(json.loads(text)) == text
        assert digest == content_hash(doc) == tm_module.model_hash(model)

    @pytest.mark.parametrize("interpolated", [False, True])
    def test_rows_of_every_kind(self, interpolated):
        src, tgt = (NULL, 'q"', "b\\s"), ("é", "中", "x")
        t = np.array([[0.0, 0.0, 0.0], [5e-324, 1.0, 0.0], [0.25, 1e-310, 0.75]])
        lm = train_lm([tgt, tgt[:1]], 2, 0.5)
        if interpolated:
            lm = finetune_lm(lm, [tgt[1:]], 0.3)
        model = LexModel(src, tgt, t, lm)
        doc = reference_model_to_dict(model)
        assert doc["t_rows"] == [[], [[0, 5e-324], [1, 1.0]], [[0, 0.25], [1, 1e-310], [2, 0.75]]]
        assert doc["lm"]["kind"] == ("interpolated" if interpolated else "ngram")
        text, digest = tm_module.model_json(model)
        assert text == stable_json_dumps(doc) and digest == content_hash(doc)
        assert model_from_dict(json.loads(text)).t.tobytes() == t.tobytes()


    def test_probabilities_at_the_exponent_switch(self):
        t = np.array([[0.0, 1e-05, 9.999999999999999e-05], [0.0001, 0.5, 1.0]])
        model = LexModel((NULL, "a"), ("x", "y", "z"), t, train_lm([("x",)], 1, 0.5))
        text = tm_module.model_json(model)[0]
        assert text == stable_json_dumps(reference_model_to_dict(model))
        assert '"t_rows":[[[1,1e-05],[2,9.999999999999999e-05]],[[0,0.0001],[1,0.5],[2,1.0]]]' \
            in text


class TestTableChecks:
    """A model's table is a (|src_vocab|, |tgt_vocab|) array of
    probabilities in [0, 1], so its document reads back; any other table is
    a DataError naming 't'."""

    LM = train_lm([("x", "y")], 1, 0.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -0.5, 7.0,
                                       1.0000000000000002, -5e-324])
    def test_values_outside_the_unit_interval(self, value):
        t = np.array([[0.5, 0.5], [0.25, 0.75]])
        t[1, 0] = value
        with pytest.raises(DataError, match="'t'"):
            LexModel((NULL, "a"), ("x", "y"), t, self.LM)

    @pytest.mark.parametrize("shape", [(3, 2), (1, 2), (2, 3), (2, 1), (2,), (4,), (2, 2, 1),
                                       ()])
    def test_shapes_other_than_the_vocabularies(self, shape):
        with pytest.raises(DataError, match="'t'"):
            LexModel((NULL, "a"), ("x", "y"), np.full(shape, 0.5), self.LM)

    @pytest.mark.parametrize("src, tgt, t", [
        ((NULL, "a"), ("x", "y"), [[0.0, 1.0], [1.0, -0.0]]),
        ((NULL, "a"), ("x", "y"), [[5e-324, 0.0], [0.0, 0.0]]),
        ((NULL, "a"), (), np.zeros((2, 0))),
        ((NULL,), ("x", "y", "z"), [[0.25, 0.5, 0.25]])])
    def test_tables_that_read_back(self, src, tgt, t):
        t = np.array(t, dtype=float).reshape(len(src), len(tgt))
        model = LexModel(src, tgt, t, self.LM)
        assert np.array_equal(model_from_dict(model_doc(model)).t, t)


def reference_candidate_table(model):
    """`_build_candidate_table` as it was written with one three-key sort."""
    ns, nt = model.t.shape
    rows, ids = np.nonzero(model.t)
    lex = np.log(model.t[rows, ids])
    by_lex = np.lexsort((ids, -lex, rows))
    ids, lex = ids[by_lex], lex[by_lex]
    count = np.bincount(rows, minlength=ns + 1)
    start = count.cumsum() - count
    empty = count == 0
    start[empty], count[empty] = ids.size, 1
    return (np.append(ids, nt), np.append(lex, np.log(model.unk_floor)), start, count)


# distinct probabilities whose natural logs are equal
_SAME_LOG = [(p, np.nextafter(p, 1.0)) for p in (1e-300, 1e-3)]
_CANDIDATE_PROBABILITIES = st.sampled_from(
    [0.0, 0.0, 0.25, 0.5, 1.0, 5e-324] + [p for pair in _SAME_LOG for p in pair]) \
    | st.floats(0.0, 1.0)


@pytest.mark.hashseed
class TestCandidateTable:
    """The candidate table's two stable sorts give the order of one
    lexsort by (row, -lex, id)."""

    def test_the_equal_logs_exist(self):
        for p, q in _SAME_LOG:
            assert p != q and np.log(p) == np.log(q)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), ns=st.integers(1, 6), nt=st.integers(0, 7))
    def test_matches_the_lexsort_reference(self, data, ns, nt):
        t = np.array(data.draw(st.lists(_CANDIDATE_PROBABILITIES, min_size=ns * nt,
                                        max_size=ns * nt)), dtype=float).reshape(ns, nt)
        model = LexModel((NULL,) + tuple(f"s{i}" for i in range(1, ns)),
                         tuple(f"t{j}" for j in range(nt)), t, TestTableChecks.LM)
        got = model._build_candidate_table()
        want = reference_candidate_table(model)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_ties_keep_the_ascending_ids(self):
        p, q = _SAME_LOG[1]
        t = np.array([[0.25, 0.5, 0.25, 0.5], [q, p, 0.0, q]])
        model = LexModel((NULL, "a"), ("w", "x", "y", "z"), t, TestTableChecks.LM)
        ids, _, start, count = model._build_candidate_table()
        assert ids.tolist() == [1, 3, 0, 2, 0, 1, 3, 4]
        assert start.tolist() == [0, 4, 7] and count.tolist() == [4, 3, 1]


class TestDecoderSettings:
    """`lm_weight` lies in [0, LM_WEIGHT_MAX] and `unk_floor` in (0, 1]; any
    other value is a DataError naming the setting, from the constructor and
    from a model document."""

    BAD_LM_WEIGHTS = [math.nan, math.inf, -math.inf, -0.5, sys.float_info.max,
                      tm_module.LM_WEIGHT_MAX * 10]
    BAD_UNK_FLOORS = [math.nan, 0.0, -0.0, 2.0, math.inf, -1e-9]

    def build(self, **settings):
        return build_model({("a", "x"): 1.0}, ["a"], ["x"], [("x",)] * 2, **settings)

    @pytest.mark.parametrize("value", BAD_LM_WEIGHTS)
    def test_bad_lm_weight(self, value):
        with pytest.raises(DataError, match="'lm_weight'"):
            LexModel((NULL, "a"), ("x",), np.ones((2, 1)), train_lm([("x",)], 1, 0.5),
                     lm_weight=value)
        doc = model_doc(self.build())
        doc["lm_weight"] = value
        with pytest.raises(DataError, match="'lm_weight'"):
            model_from_dict(doc)

    @pytest.mark.parametrize("value", BAD_UNK_FLOORS)
    def test_bad_unk_floor(self, value):
        with pytest.raises(DataError, match="'unk_floor'"):
            LexModel((NULL, "a"), ("x",), np.ones((2, 1)), train_lm([("x",)], 1, 0.5),
                     unk_floor=value)
        doc = model_doc(self.build())
        doc["unk_floor"] = value
        with pytest.raises(DataError, match="'unk_floor'"):
            model_from_dict(doc)

    def test_bounds_load_and_decode_finite(self):
        # at the largest weight an LM far from certain still scores finite
        lm = train_lm([("x", "y"), ("y",)], 2, 0.5)
        t = np.array([[0.5, 0.5], [0.5, 0.5]])
        for lm_weight, unk_floor in [(0.0, 1.0), (tm_module.LM_WEIGHT_MAX, 5e-324)]:
            model = LexModel((NULL, "a"), ("x", "y"), t, lm, lm_weight=lm_weight,
                             unk_floor=unk_floor)
            loaded = model_from_dict(model_doc(model))
            assert (loaded.lm_weight, loaded.unk_floor) == (lm_weight, unk_floor)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                nb = decode_one(loaded, ("a", "zz") * 20, 4)
            assert all(math.isfinite(e.fwd) for e in nb)


class TestSharedRowTable:
    def models(self):
        """A trained model, a second model over its LM and vocabularies, and an ensemble."""
        model = em_train(random_mix(random.Random(6), 20), iterations=2, window=1,
                         lm_weight=0.4)
        twin = LexModel(model.src_vocab, model.tgt_vocab, model.t * 0.5, model.lm,
                        window=1, lm_weight=0.4)
        return model, twin, Ensemble([model])

    def test_models_sharing_an_lm_and_vocabulary_share_one_table(self, monkeypatch):
        model, twin, ens = self.models()
        table = model._row_table()
        assert twin._row_table() is table and ens._row_table() is table
        x = ("s1", "s2", "s3")
        translate_corpus(model, [x], 3)
        held, states, rows = table.held, table._states.copy(), table.rows.copy()
        assert held > 0
        translate_corpus(twin, [x], 3)   # the twin meets the same contexts: no new row
        assert table.held == held and np.array_equal(table._states, states)
        assert np.array_equal(table.rows, rows)
        other = LexModel(model.src_vocab, model.tgt_vocab[:-1], model.t[:, :-1],
                         model.lm)
        assert other._row_table() is not table
        # shared while it is in the cache: once evicted, the next request
        # builds a new table, which the other models then share
        monkeypatch.setattr(cache, "BOUND", 1)
        model._t_ext()
        rebuilt = twin._row_table()
        assert rebuilt is not table and ens._row_table() is rebuilt

    def test_rows_die_with_their_models_without_the_collector(self):
        gc.disable()
        try:
            models = self.models()
            for m in models:
                translate_corpus(m, [("s0", "s4")], 2)
            lm_ref = weakref.ref(models[0].lm)
            table_ref = weakref.ref(models[0]._row_table())
            rows_seen = table_ref().held
            del models, m
            assert rows_seen > 0
            assert lm_ref() is None and table_ref() is None
            # the cache dropped the entries of the dead models and LM
            assert all(ref() is not None for ref, _ in cache._STORE._entries.values())
        finally:
            gc.enable()
