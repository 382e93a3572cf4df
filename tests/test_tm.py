import gc
import itertools
import math
import random
import weakref
from collections import defaultdict

import numpy as np
import pytest

from deskmt.corpus import SIDE_PARALLEL, UNK_TOKEN, TaggedDataset, build_mix, swap_direction
from deskmt.lm import train_lm
from deskmt.ensemble import Ensemble
from deskmt import tm as tm_module
from deskmt.rerank import NoisyChannelWeights, RerankContext, rerank
from deskmt.tm import (
    NULL,
    DataError,
    LexModel,
    channel_scores,
    em_train,
    model_from_dict,
    model_to_dict,
    pair_channel_scores,
    translate_corpus,
    translate_nbest,
)


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

    def test_corpus_log_likelihood_matches_trace_start(self):
        mix = mix_of([("a b", "x y"), ("a", "y")])
        model = em_train(mix, iterations=1)
        # trace[0] is the LL of the uniform init; after training LL improves
        assert corpus_log_likelihood(model, mix) >= model.train_ll_trace[0] - 1e-9


class TestTranslateNbest:
    def test_one_hot_table_window0(self):
        model = build_model({("a", "b"): 1.0}, ["a"], ["b"],
                            [("b", "b")] * 3, lm_weight=0.4)
        nb = translate_nbest(model, ("a", "a"), 2)
        assert nb.top().hyp == ("b", "b")
        lm_terms = (0.4 * float(lm_row(model, ())[0])
                    + 0.4 * float(lm_row(model, ("b",))[0]))
        assert nb.top().fwd == pytest.approx(lm_terms, abs=1e-12)

    def test_n1_equals_greedy_for_one_hot(self):
        model = build_model({("a", "x"): 1.0, ("b", "y"): 1.0}, ["a", "b"],
                            ["x", "y"], [("x", "y")] * 2, beam=3)
        nb = translate_nbest(model, ("a", "b"), 1)
        assert len(nb.entries) == 1
        assert nb.top().hyp == ("x", "y")

    def test_window_allows_swap(self):
        # lexical table is ambiguous; LM strongly prefers the swapped order
        model = build_model(
            {("a", "x"): 1.0, ("b", "y"): 1.0},
            ["a", "b"], ["x", "y"],
            [("y", "x")] * 20, window=1, lm_weight=2.0, lm_order=2)
        nb = translate_nbest(model, ("a", "b"), 4)
        assert nb.top().hyp == ("y", "x")

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
            nb = translate_nbest(model, x, full)
            expected = brute_force_nbest(model, x, full)
            got = [(e.hyp, e.fwd) for e in nb.entries]
            assert [h for h, _ in got] == [h for h, _ in expected]
            for (_, a), (_, b) in zip(got, expected):
                assert a == pytest.approx(b, abs=1e-9)

    def test_unknown_source_emits_unk(self):
        model = build_model({("a", "x"): 1.0}, ["a"], ["x"], [("x",)] * 2)
        nb = translate_nbest(model, ("a", "zzz"), 1)
        assert nb.top().hyp == ("x", UNK_TOKEN)

    def test_deterministic(self):
        rng = random.Random(8)
        mix = random_mix(rng, 8)
        model = em_train(mix, iterations=2, window=1)
        x = mix.datasets[0].pairs[0][0]
        first = translate_nbest(model, x, 10)
        second = translate_nbest(model, x, 10)
        assert [(e.hyp, e.fwd) for e in first.entries] == \
               [(e.hyp, e.fwd) for e in second.entries]

    def test_entries_unique_and_sorted(self):
        rng = random.Random(12)
        mix = random_mix(rng, 10)
        model = em_train(mix, iterations=2, window=1)
        nb = translate_nbest(model, mix.datasets[0].pairs[0][0], 20)
        hyps = [e.hyp for e in nb.entries]
        assert len(set(hyps)) == len(hyps)
        scores = [e.fwd for e in nb.entries]
        assert scores == sorted(scores, reverse=True)

    def test_leading_tag_token_is_translated(self):
        model = em_train(mix_of([("<x> a", "x y")], tag="<d:in>"), iterations=1)
        lists = translate_corpus(model, [("<x>", "a")], 3)
        assert lists[0].source == ("<x>", "a")
        assert {len(e.hyp) for e in lists[0].entries} == {2}

    def test_invalid_inputs(self):
        model = build_model({("a", "x"): 1.0}, ["a"], ["x"], [("x",)] * 2)
        with pytest.raises(DataError):
            translate_nbest(model, ("a",), 0)
        with pytest.raises(DataError):
            translate_nbest(model, (), 1)


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
        lists = translate_corpus(self.identity(), sources, 1)
        assert [nb.top().hyp for nb in lists] == [("a",), ("b",), ("a", "b")]

    def test_context_nbest_overrides_nbest(self):
        fwd, ctx, sources = self.reranking(5)
        lists = translate_corpus(fwd, sources, 1, rerank_ctx=ctx)
        sizes = [len(translate_nbest(fwd, x, ctx.nbest).entries) for x in sources]
        assert [len(nb.entries) for nb in lists] == sizes
        assert max(sizes) > 1

    def test_context_reranks_the_plain_lists(self):
        fwd, ctx, sources = self.reranking(6)
        got = translate_corpus(fwd, sources, 1, rerank_ctx=ctx)
        plain = translate_corpus(fwd, sources, ctx.nbest)
        # the block reranks each list as it would be reranked alone
        assert got == [rerank([nb], ctx.channel_model, ctx.lm, ctx.weights)[0]
                       for nb in plain]
        assert all(e.combined is not None for nb in got for e in nb.entries)


class TestPairLogprob:
    def test_consistency_with_decoder_top1(self):
        rng = random.Random(77)
        for _ in range(20):
            mix = random_mix(rng, rng.randint(3, 10))
            model = em_train(mix, iterations=2, window=rng.randint(0, 1),
                             lm_weight=0.5, beam=64)
            x = mix.datasets[0].pairs[0][0]
            nb = translate_nbest(model, x, 5)
            assert pair_logprob(model, x, nb.top().hyp) == nb.top().fwd

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


class TestSerialization:
    def test_round_trip_bit_exact(self):
        rng = random.Random(3)
        mix = random_mix(rng, 12)
        model = em_train(mix, iterations=3, window=1, lm_weight=0.4)
        loaded = model_from_dict(model_to_dict(model))
        assert np.array_equal(loaded.t, model.t)
        assert loaded.src_vocab == model.src_vocab
        x = mix.datasets[0].pairs[0][0]
        a = translate_nbest(model, x, 5)
        b = translate_nbest(loaded, x, 5)
        assert [(e.hyp, e.fwd) for e in a.entries] == [(e.hyp, e.fwd) for e in b.entries]

    @pytest.mark.parametrize("key", ["beam", "t_rows", "src_vocab", "lm"])
    def test_missing_key_is_data_error(self, key):
        doc = model_to_dict(em_train(random_mix(random.Random(4), 8), iterations=1))
        del doc[key]
        with pytest.raises(DataError, match=repr(key)):
            model_from_dict(doc)

    @pytest.mark.parametrize("key, value", [("beam", "5"), ("t_rows", "rows"),
                                            ("t_rows", [[["0", "x"]]]),
                                            ("src_vocab", ["<null>", 3]),
                                            ("lm_weight", True), ("lm", [])])
    def test_wrong_type_is_data_error(self, key, value):
        doc = model_to_dict(em_train(random_mix(random.Random(4), 8), iterations=1))
        doc[key] = value
        with pytest.raises(DataError, match=repr(key)):
            model_from_dict(doc)


class TestSharedRowTable:
    def models(self):
        """A trained model, a second model over its LM and vocabularies, and an ensemble."""
        model = em_train(random_mix(random.Random(6), 20), iterations=2, window=1,
                         lm_weight=0.4)
        twin = LexModel(model.src_vocab, model.tgt_vocab, model.t * 0.5, model.lm,
                        window=1, lm_weight=0.4)
        return model, twin, Ensemble([model])

    def test_models_sharing_an_lm_and_vocabulary_share_one_table(self):
        model, twin, ens = self.models()
        table = model._row_table()
        assert twin._row_table() is table and ens._row_table() is table
        x = ("s1", "s2", "s3")
        translate_nbest(model, x, 3)
        held, states, rows = table.held, table._states.copy(), table.rows.copy()
        assert held > 0
        translate_nbest(twin, x, 3)   # the twin meets the same contexts: no new row
        assert table.held == held and np.array_equal(table._states, states)
        assert np.array_equal(table.rows, rows)
        other = LexModel(model.src_vocab, model.tgt_vocab[:-1], model.t[:, :-1],
                         model.lm)
        assert other._row_table() is not table

    def test_rows_die_with_their_models_without_the_collector(self):
        gc.disable()
        try:
            models = self.models()
            for m in models:
                translate_nbest(m, ("s0", "s4"), 2)
            lm_ref = weakref.ref(models[0].lm)
            table_ref = weakref.ref(models[0]._row_table())
            rows_seen = table_ref().held
            del models, m
            assert rows_seen > 0
            assert lm_ref() is None and table_ref() is None
        finally:
            gc.enable()
