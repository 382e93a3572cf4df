"""Block decoding: every source decodes as it would alone, by the
documented selection rule.

`reference_nbest` is the decoder written as a per-sentence loop in Python:
the same pool order and the same float operations as `tm._decode_block`, and
its selection rule as a full stable sort, keeping the first `width` entries
of each pool in (-score, pool index) order. The properties compare the block
decoder with it, and with itself source by source, bit for bit. The block
decoder scores only the entries whose bound can reach the beam; the pruning
tests also count the entries it scores against the pools the reference
builds.
"""

import json
import random
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deskmt import lm as lm_module
from deskmt import tm
from deskmt.corpus import SIDE_PARALLEL, UNK_TOKEN, TaggedDataset, build_mix
from deskmt.lm import NGramLM, finetune_lm, mixture, train_lm
from deskmt.rerank import NoisyChannelWeights, RerankContext
from deskmt.tm import DataError, em_train, translate_corpus
from nbest_lists import decode_one, nbest_lists
from reference_row_table import reference_row_tables

pytestmark = pytest.mark.hashseed

TAG_LIKE = "<bt>"  # a word like any other: no source loses its first token


def lm_row(model, ctx):
    """The decoder's LM log-probabilities over the ext ids after a context
    of ext symbols."""
    ext_id = {s: i for i, s in enumerate(model._ext_vocab())}
    contexts = np.array([[ext_id[t] for t in ctx]], dtype=np.intp).reshape(1, len(ctx))
    tables = model._row_tables()
    probs = []
    for _, table in tables:
        slot = table.slots(contexts)[0]
        probs.append(table.probs[slot])
    return np.log(mixture(tables, probs))


@contextmanager
def recorded_row_tables():
    """The (weight, table) pairs of every `LexModel._row_tables` call made
    within the block, in call order: the tables each decode built."""
    built = []
    real = tm.LexModel._row_tables

    def recording(model):
        built.append(real(model))
        return built[-1]

    with mock.patch.object(tm.LexModel, "_row_tables", recording):
        yield built


def reference_nbest(model, src, n, pools=None):
    """Top-n hypotheses of one source, decoded one step at a time in Python;
    the size of every step's pool is appended to `pools` when one is given."""
    m = len(src)
    w = model.window
    width = max(model.beam, n)
    order = getattr(model.lm, "order", 1)
    ext_vocab = model._ext_vocab()
    position = []
    for sym in src:
        sid = model.src_id.get(sym)
        if sid is None or not np.any(model.t[sid]):
            position.append((np.array([len(model.tgt_vocab)]),
                             np.array([np.log(model.unk_floor)])))
        else:
            ids = np.flatnonzero(model.t[sid])
            position.append((ids, np.log(model.t[sid][ids])))
    off = [0]
    for ids, _ in position:
        off.append(off[-1] + ids.size)
    ids_all = np.concatenate([ids for ids, _ in position])
    lex_all = np.concatenate([lex for _, lex in position])

    beam = [(0.0, 0, (), ())]  # (score, consumed bitmask, lm context, emitted ext ids)
    for i in range(1, m + 1):
        lo, hi = max(0, i - 1 - w), min(m - 1, i - 1 + w)
        must = i - 1 - w
        c0 = off[lo]
        cols = off[hi + 1] - c0
        by_ctx = {}
        for idx, state in enumerate(beam):
            by_ctx.setdefault(state[2], []).append(idx)
        row_state, row_pos, row_start, row_len = [], [], [], []
        for g, members in enumerate(by_ctx.values()):
            for j in range(lo, hi + 1):
                for idx in members:
                    mask = beam[idx][1]
                    if not mask >> j & 1 and (must < 0 or j == must or mask >> must & 1):
                        row_state.append(idx)
                        row_pos.append(j)
                        row_start.append(g * cols + off[j] - c0)
                        row_len.append(off[j + 1] - off[j])
        win_ids = ids_all[c0:c0 + cols]
        lm_rows = np.array([lm_row(model, ctx) for ctx in by_ctx])[:, win_ids]
        step = (lex_all[c0:c0 + cols] + model.lm_weight * lm_rows).ravel()
        lens = np.array(row_len)
        ends = lens.cumsum()
        gather = (np.array(row_start) - ends + lens).repeat(lens) + np.arange(ends[-1])
        flat = np.array([beam[idx][0] for idx in row_state]).repeat(lens) + step[gather]
        if pools is not None:
            pools.append(flat.size)
        keep = (-flat).argsort(kind="stable")[:width]
        new_beam = []
        for e in keep.tolist():
            row = int(ends.searchsorted(e, "right"))
            ext_id = int(win_ids[gather[e] % cols])
            score, mask, ctx, emitted = beam[row_state[row]]
            ctx = ctx + (ext_vocab[ext_id],)
            if len(ctx) >= order:
                ctx = ctx[len(ctx) - order + 1:]
            new_beam.append((float(flat[e]), mask | 1 << row_pos[row], ctx,
                             emitted + (ext_id,)))
        beam = new_beam

    best = {}
    for score, _, _, emitted in beam:
        if best.get(emitted, -np.inf) < score:
            best[emitted] = score
    hyps = {tuple(ext_vocab[e] for e in emitted): score for emitted, score in best.items()}
    return sorted(hyps.items(), key=lambda kv: (-kv[1], kv[0]))[:n]


def entries(nb):
    """Hypotheses with the exact bits of their scores."""
    return [(hyp, float(fwd).hex()) for hyp, fwd, *_ in nb]


def random_model(rng, *, beam, window, order, lm_weight, unk_target, uniform=False):
    """EM model over a random mix; `unk_target` puts the unknown token among
    the targets, as self-training does with partly unknown outputs, and
    `uniform` gives every source symbol one probability for every target, so
    that scores tie exactly across the pools."""
    vocab = rng.randint(2, 6)
    src_syms = [f"s{i}" for i in range(vocab)]
    tgt_syms = [f"t{i}" for i in range(vocab)] + ([UNK_TOKEN] if unk_target else [])
    pairs = []
    for _ in range(rng.randint(3, 12)):
        length = rng.randint(1, 4)
        pairs.append((tuple(rng.choice(src_syms) for _ in range(length)),
                      tuple(rng.choice(tgt_syms) for _ in range(length))))
    mix = build_mix([TaggedDataset("r", SIDE_PARALLEL, "<t>", pairs=tuple(pairs))])
    model = em_train(mix, rng.randint(1, 3), lm_order=order, beam=beam, window=window,
                     lm_weight=lm_weight)
    if uniform:
        model = uniform_model(model)
    return model, src_syms


def uniform_model(model):
    """`model` with a table that gives every target one probability."""
    t = np.full(model.t.shape, 1.0 / model.t.shape[1])
    return tm.LexModel(model.src_vocab, model.tgt_vocab, t, model.lm, beam=model.beam,
                       window=model.window, lm_weight=model.lm_weight)


def random_sources(rng, src_syms, count):
    """Sources of length 1-12 with unknown and repeated symbols, some
    starting with TAG_LIKE."""
    pool = src_syms + ["zz", "qq"]
    sources = []
    for _ in range(count):
        length = rng.randint(1, 12)
        source = tuple(rng.choice(pool[:rng.randint(1, len(pool))]) for _ in range(length))
        sources.append((TAG_LIKE,) + source if rng.random() < 0.3 else source)
    return sources


class TestBlocksEqualSingleSentences:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), beam=st.integers(1, 5), window=st.integers(0, 2),
           n=st.integers(1, 50), order=st.integers(1, 3),
           lm_weight=st.sampled_from([0.0, 0.4, 1.0]), unk_target=st.booleans(),
           uniform=st.booleans(), count=st.integers(1, 14),
           states=st.sampled_from([1, 7, 40, tm._DECODE_STATES]))
    def test_corpus_equals_each_source_alone(self, seed, beam, window, n, order, lm_weight,
                                             unk_target, uniform, count, states):
        rng = random.Random(seed)
        model, src_syms = random_model(rng, beam=beam, window=window, order=order,
                                       lm_weight=lm_weight, unk_target=unk_target,
                                       uniform=uniform)
        sources = random_sources(rng, src_syms, count)
        # small block bounds put these few sources in several blocks
        with mock.patch.object(tm, "_DECODE_STATES", states):
            block = translate_corpus(model, sources, n)
        assert block.sources == sources
        for source, nb in zip(sources, nbest_lists(block)):
            assert entries(nb) == entries(decode_one(model, source, n))
            assert entries(nb) == [(hyp, score.hex())
                                   for hyp, score in reference_nbest(model, source, n)]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), order=st.integers(1, 4),
           cap=st.sampled_from([1, 4]))
    def test_rows_cleared_at_the_cap_decode_as_kept_ones(self, seed, order, cap):
        # a cap of 1 clears the table at nearly every step with new states,
        # so most steps read rows computed after a clear
        rng = random.Random(seed)
        model, src_syms = random_model(rng, beam=3, window=1, order=order, lm_weight=0.6,
                                       unk_target=True)
        sources = random_sources(rng, src_syms, 6)
        kept = nbest_lists(translate_corpus(model, sources, 8))
        # the decode builds its table, which is cleared under the cap
        with mock.patch.object(lm_module, "_CACHE_CAP", cap):
            cleared = nbest_lists(translate_corpus(model, sources, 8))
        assert [entries(nb) for nb in cleared] == [entries(nb) for nb in kept]

    @pytest.mark.parametrize("limit", [1, 200])
    def test_context_keys_made_dense_group_alike(self, limit):
        # below the key limit the grouping key is made dense ranks before
        # context columns (every column at 1); the lists stay the reference's
        rng = random.Random(11)
        model, src_syms = random_model(rng, beam=4, window=1, order=4, lm_weight=0.6,
                                       unk_target=True)
        sources = random_sources(rng, src_syms, 8)
        with mock.patch.object(tm, "_KEY_LIMIT", limit):
            lists = nbest_lists(translate_corpus(model, sources, 6))
        for source, nb in zip(sources, lists):
            assert entries(nb) == [(hyp, score.hex())
                                   for hyp, score in reference_nbest(model, source, 6)]

    def test_more_sources_than_one_block_holds(self):
        rng = random.Random(3)
        model, src_syms = random_model(rng, beam=5, window=1, order=3, lm_weight=0.4,
                                       unk_target=False)
        sources = random_sources(rng, src_syms, tm._DECODE_STATES // 5 + 9)
        lists = nbest_lists(translate_corpus(model, sources, 1))
        for source, nb in zip(sources, lists):
            assert entries(nb) == entries(decode_one(model, source, 1))


class TestTiesKeepTheLowestPoolIndex:
    """A uniform table and no LM weight: every extension of a state scores the
    same, so each step's `width` survivors are decided by pool index alone."""

    TARGETS = tuple(f"t{i}" for i in range(8))

    def model(self, beam):
        t = np.full((2, len(self.TARGETS)), 1.0 / len(self.TARGETS))
        return tm.LexModel((tm.NULL, "s0"), self.TARGETS, t,
                           train_lm([self.TARGETS], 1, 0.5), beam=beam, window=0,
                           lm_weight=0.0)

    @pytest.mark.parametrize("beam", [1, 3, 5])
    def test_one_step_keeps_the_first_targets(self, beam):
        nb = decode_one(self.model(beam), ("s0",), beam)
        assert [e.hyp for e in nb] == [(t,) for t in self.TARGETS[:beam]]

    @pytest.mark.parametrize("beam", [1, 3, 5])
    def test_later_steps_extend_the_first_state(self, beam):
        # one LM context, one window position: the pool is state by state in
        # beam order, each state's targets in id order, so the first `width`
        # entries all extend the first state, t0
        model = self.model(beam)
        nb = decode_one(model, ("s0", "s0", "s0"), beam)
        assert [e.hyp for e in nb] == [("t0", "t0", t) for t in self.TARGETS[:beam]]
        assert [(hyp, score.hex()) for hyp, score in
                reference_nbest(model, ("s0", "s0", "s0"), beam)] == entries(nb)
        lists = nbest_lists(translate_corpus(
            model, [("s0",), ("s0", "s0", "s0"), (TAG_LIKE, "s0")], beam))
        assert entries(lists[1]) == entries(nb)


def scored_entries(calls):
    """A stand-in for `tm._entry_scores` that adds the entries it scores to
    calls[0]."""
    real = tm._entry_scores

    def counting(*args):
        calls[0] += int(args[-1].sum())
        return real(*args)

    return counting


TINY = 1e-300   # ln TINY = -690.8, far below any pool's width-th best


def pruning_model(rng, *, targets, tiny, beam, window, order, lm_weight, uniform):
    """A table over `targets` targets whose every source row gives the last
    `tiny` targets probability TINY and the others random probabilities, or
    one probability when `uniform`, so that scores tie at the bound; the
    floor of unknown symbols is TINY too. The LM is trained on random target
    sentences."""
    tgt = tuple(f"t{i:02d}" for i in range(targets))
    src = (tm.NULL,) + tuple(f"s{i}" for i in range(rng.randint(2, 4)))
    t = np.zeros((len(src), targets))
    for row in t[1:]:
        row[:targets - tiny] = 1.0 if uniform else [rng.random() + 0.01
                                                     for _ in range(targets - tiny)]
        row /= row.sum()
        row[targets - tiny:] = TINY
    corpus = [tuple(rng.choice(tgt) for _ in range(rng.randint(1, 6)))
              for _ in range(rng.randint(5, 15))]
    return tm.LexModel(src, tgt, t, train_lm(corpus, order, 0.5), beam=beam,
                       window=window, lm_weight=lm_weight, unk_floor=TINY), src[1:]


class TestBoundPruning:
    """A step scores only the entries whose bound, state + lex, can reach
    the beam; the lists stay those of the whole pool, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), targets=st.integers(20, 26),
           tiny=st.integers(1, 4), beam=st.integers(1, 5), window=st.integers(0, 2),
           n=st.sampled_from([1, 5, 50]), order=st.integers(1, 3),
           lm_weight=st.sampled_from([0.0, 0.4, 1.0, 50.0]), uniform=st.booleans(),
           count=st.integers(1, 5))
    def test_pruned_steps_equal_the_whole_pool(self, seed, targets, tiny, beam, window, n,
                                               order, lm_weight, uniform, count):
        rng = random.Random(seed)
        model, src_syms = pruning_model(rng, targets=targets, tiny=tiny, beam=beam,
                                        window=window, order=order, lm_weight=lm_weight,
                                        uniform=uniform)
        # the first two positions hold known symbols, so some step has rows
        # longer than their sample; a later one may be unknown
        sources = [tuple(rng.choice(src_syms) for _ in range(rng.randint(2, 5)))
                   + (("zz",) if rng.random() < 0.3 else ()) for _ in range(count)]
        scored = [0]
        with mock.patch.object(tm, "_entry_scores", scored_entries(scored)):
            lists = nbest_lists(translate_corpus(model, sources, n))
        pools = []
        for source, nb in zip(sources, lists):
            assert entries(nb) == [(hyp, score.hex())
                                   for hyp, score in reference_nbest(model, source, n, pools)]
        assert scored[0] < sum(pools)

    def test_a_row_that_reaches_thr_exactly_is_kept(self):
        # no LM weight and one probability: every entry scores its bound, and
        # the bound of the first state's row equals thr
        model, _ = pruning_model(random.Random(5), targets=20, tiny=2, beam=3, window=1,
                                 order=2, lm_weight=0.0, uniform=True)
        for source in [("s0", "s1"), ("s1", "s0", "s1", "s0")]:
            for n in (1, 5, 50):
                assert entries(decode_one(model, source, n)) == [
                    (hyp, score.hex()) for hyp, score in reference_nbest(model, source, n)]

    def test_equal_scores_in_a_row_keep_the_lower_target_id(self):
        # lex and LM terms swapped between a and b: b comes first in lex
        # order, a in id order, and both score ln 0.5 + ln 0.25 at weight 1
        row = np.array([0.5, 0.25, 0.125, 0.125, 0.125])   # over a, b, c, </s>, <unk>
        t = np.array([[0.0, 0.0, 0.0], [0.25, 0.5, 0.0]])
        model = tm.LexModel((tm.NULL, "x"), ("a", "b", "c"), t,
                            train_lm([("a", "b", "c")], 1, 0.5), beam=1, window=0,
                            lm_weight=1.0)
        with mock.patch.object(NGramLM, "_rows",
                               lambda self, level, depth, node, kept:
                               np.tile(row, (len(node), 1))):
            nb = decode_one(model, ("x",), 1)
            assert model._candidate_table()[0][:2].tolist() == [1, 0]
            assert entries(nb) == [(hyp, score.hex())
                                   for hyp, score in reference_nbest(model, ("x",), 1)]
        assert entries(nb) == [(("a",), (np.log(0.5) + np.log(0.25)).hex())]


class TestMarginCoversTheLmRows:
    """The bound adds lm_weight * max(ln prob_max, 0) for the LM term, so it
    holds whatever the weight, also for rows at or above 0."""

    WEIGHTS = [0.0, 0.4, 1.0, 50.0, 1e6, 1e12, 1e300]

    def test_one_symbol_lm_rows_reach_zero(self):
        # with k tiny, P(a | any context) rounds to 1: the rows are 0.0 at
        # "a", and ln P rounds no higher (each rounding of the estimate is
        # monotone), but the margin does not rest on that
        targets = tuple("abcdefghijklmnopqrstuvwxyz")
        t = np.full((3, len(targets)), 1.0 / len(targets))
        t[2, :] = 0.5 / len(targets)
        t[2, 0] = 0.5
        lm = train_lm([("a",)] * 3, 2, 1e-20)
        with recorded_row_tables() as built:
            for lm_weight in self.WEIGHTS:
                model = tm.LexModel((tm.NULL, "x", "y"), targets, t, lm, beam=2, window=1,
                                    lm_weight=lm_weight, unk_floor=TINY)
                for source in [("x", "y"), ("y", "x", "x"), ("x", "zz", "y")]:
                    assert entries(decode_one(model, source, 3)) == [
                        (hyp, score.hex()) for hyp, score in reference_nbest(model, source, 3)]
        for (_, table), in built:
            assert table.prob_max == 1.0 == table.probs[:, 0].min()

    @pytest.mark.parametrize("lm_weight", WEIGHTS)
    def test_rows_above_zero(self, lm_weight):
        # every LM row lifted by 1: "a" and "c" score ln 0.5 + 1 > 0. Step 1
        # has a row for x, its candidates b then a, and a row for y, whose
        # one candidate c ties a's lex; the sample holds b and c, so thr is
        # c's score, which a's equals. a's bound, its lex, lies below thr by
        # lm_weight * (ln 0.5 + 1), yet a wins the tie by pool index
        real = NGramLM._rows
        targets = ("a", "b", "c")
        t = np.array([[0.0, 0.0, 0.0], [0.3, 0.6, 0.0], [0.0, 0.0, 0.3]])
        lm = train_lm([("a", "c")], 1, 1e-20)
        with mock.patch.object(NGramLM, "_rows", lambda self, level, depth, node, kept:
                               real(self, level, depth, node, kept) * np.e), \
                recorded_row_tables() as built:
            model = tm.LexModel((tm.NULL, "x", "y"), targets, t, lm, beam=1, window=1,
                                lm_weight=lm_weight)
            nb = decode_one(model, ("x", "y"), 1)
            assert built[0][0][1].prob_max == pytest.approx(0.5 * np.e)
            assert entries(nb) == [(hyp, score.hex())
                                   for hyp, score in reference_nbest(model, ("x", "y"), 1)]
        if lm_weight:
            assert nb[0].hyp == ("a", "c")


class TestEmptySources:
    def model(self):
        model, _ = random_model(random.Random(1), beam=2, window=1, order=2,
                                lm_weight=0.5, unk_target=False)
        return model

    def message(self, call):
        with pytest.raises(DataError) as info:
            call()
        return str(info.value)

    @pytest.mark.parametrize("where", [0, 1, 3])
    @pytest.mark.parametrize("empty", [(), []])
    def test_empty_source_anywhere_raises_the_single_sentence_error(self, where, empty):
        model = self.model()
        sources = [("s0", "s1"), ("s1",), ("s0",)]
        sources.insert(where, empty)
        expected = self.message(lambda: decode_one(model, (), 1))
        assert expected == "cannot translate an empty sentence"
        assert self.message(lambda: translate_corpus(model, sources, 3)) == expected


def rescored(nb):
    """Entries with the exact bits of every score slot that is set."""
    return [(e.hyp,) + tuple(v if v is None else v.hex()
                             for v in (e.fwd, e.channel, e.lm, e.combined))
            for e in nb]


class TestLengthSortedBlocks:
    """Blocks are filled from the sources sorted by length; the lists come
    back in source order, each as its source decodes alone."""

    def decode(self, model, sources, rerank_ctx):
        blocks = []
        real = tm._decode_block

        def recording(models, cands, tables, block, member, width, n):
            blocks.append([len(src) for src in block])
            return real(models, cands, tables, block, member, width, n)

        with mock.patch.object(tm, "_decode_block", recording):
            block = translate_corpus(model, sources, 50, rerank_ctx=rerank_ctx)
        return block, blocks

    @pytest.mark.parametrize("reranked", [False, True])
    def test_descending_sources_over_three_blocks(self, reranked):
        rng = random.Random(17)
        model, src_syms = random_model(rng, beam=3, window=1, order=3, lm_weight=0.4,
                                       unk_target=True)
        backward, _ = random_model(rng, beam=2, window=1, order=2, lm_weight=0.5,
                                   unk_target=False)
        ctx = RerankContext(backward, model.lm, NoisyChannelWeights(0.7, 1.3), nbest=50) \
            if reranked else None
        sources = sorted(random_sources(rng, src_syms, 14), key=len, reverse=True)
        assert len(set(map(len, sources))) > 3
        # 256 states make blocks of 5 sentences at n=50
        with mock.patch.object(tm, "_DECODE_STATES", 256):
            decoded, blocks = self.decode(model, sources, ctx)
        assert len(blocks) >= 3
        assert sorted(length for block in blocks for length in block) == \
            sorted(map(len, sources))
        for block in blocks:
            assert block == sorted(block)
        assert decoded.sources == sources
        for source, nb in zip(sources, nbest_lists(decoded)):
            alone = nbest_lists(translate_corpus(model, [source], 50, rerank_ctx=ctx))[0]
            assert rescored(nb) == rescored(alone)
            if not reranked:
                assert entries(nb) == entries(decode_one(model, source, 50))


def stack_member(rng, tgt, lm, *, beam, window, lm_weight, zero_rows):
    """A model over `tgt` and `lm` with its own source vocabulary (a random
    subset of s0-s7), random table and unknown floor; about `zero_rows` of
    its rows are all zero, and a row's other entries are zero at random."""
    src = (tm.NULL,) + tuple(sorted(rng.sample([f"s{i}" for i in range(8)],
                                               rng.randint(1, 6))))
    t = np.zeros((len(src), len(tgt)))
    for row in t:
        if rng.random() >= zero_rows:
            row[:] = [rng.random() if rng.random() < 0.7 else 0.0 for _ in tgt]
            row /= max(row.sum(), 1.0)
    return tm.LexModel(src, tgt, t, lm, beam=beam, window=window, lm_weight=lm_weight,
                       unk_floor=rng.choice([1e-9, 1e-4, 1e-300, 0.01]))


def block_arrays(block):
    """A block's lists as values: sources, symbols, and the exact bits of
    its arrays with their dtypes and shapes."""
    return (block.sources, block.symbols,
            *[(a.dtype.str, a.shape, a.tobytes()) for a in (block.hyps, block.lengths,
                                                            block.fwd, block.offsets)])


class TestStackedModels:
    """`translate_stack` decodes each model of a stack that shares one
    decoder as `translate_corpus` decodes it alone, bit for bit; the stacked
    candidate table's id maps come from each model's dicts."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), models=st.integers(1, 5), beam=st.integers(1, 4),
           window=st.integers(0, 1), n=st.sampled_from([1, 3, 12]), order=st.integers(1, 3),
           lm_weight=st.sampled_from([0.0, 0.4, 2.0]), unk_target=st.booleans(),
           zero_rows=st.sampled_from([0.0, 0.3, 1.0]), count=st.integers(1, 9),
           states=st.sampled_from([1, 12, 60, tm._DECODE_STATES]))
    def test_stack_equals_each_model_alone(self, seed, models, beam, window, n, order,
                                           lm_weight, unk_target, zero_rows, count, states):
        rng = random.Random(seed)
        tgt = tuple(f"t{i}" for i in range(rng.randint(2, 7))) + (
            (UNK_TOKEN,) if unk_target else ())
        lm = train_lm([tuple(rng.choice(tgt) for _ in range(rng.randint(1, 5)))
                       for _ in range(rng.randint(3, 10))], order, 0.5)
        stack = [stack_member(rng, tgt, lm, beam=beam, window=window, lm_weight=lm_weight,
                              zero_rows=zero_rows) for _ in range(models)]
        # symbols some or all models do not know, and a symbol repeated
        pool = [f"s{i}" for i in range(8)] + ["zz"]
        sources = [tuple(rng.choice(pool) for _ in range(rng.randint(1, 7)))
                   for _ in range(count)]
        sources.append(sources[0])
        # small bounds split the stack over several blocks, one block may
        # hold sentences of several models
        with mock.patch.object(tm, "_DECODE_STATES", states):
            stacked = tm.translate_stack(stack, sources, n)
            alone = [translate_corpus(model, sources, n) for model in stack]
        assert len(stacked) == models
        for got, want in zip(stacked, alone):
            assert block_arrays(got) == block_arrays(want)

    def test_a_stack_over_several_blocks(self):
        rng = random.Random(4)
        model, src_syms = random_model(rng, beam=5, window=1, order=3, lm_weight=0.4,
                                       unk_target=True)
        stack = [model] + [tm.LexModel(model.src_vocab, model.tgt_vocab, model.t * scale,
                                       model.lm, beam=5, window=1, lm_weight=0.4)
                           for scale in (0.5, 0.25)]
        sources = random_sources(rng, src_syms, tm._DECODE_STATES // 5 // 2 + 7)
        blocks = []
        real = tm._decode_block

        def recording(models, cands, tables, block, member, width, n):
            blocks.append(sorted(set(member.tolist())))
            return real(models, cands, tables, block, member, width, n)

        with mock.patch.object(tm, "_decode_block", recording):
            stacked = tm.translate_stack(stack, sources, 1)
        assert len(blocks) >= 2 and any(len(models) > 1 for models in blocks)
        for got, model in zip(stacked, stack):
            assert block_arrays(got) == block_arrays(translate_corpus(model, sources, 1))

    def test_reranked_stack_equals_each_model_alone(self):
        rng = random.Random(9)
        model, src_syms = random_model(rng, beam=3, window=1, order=2, lm_weight=0.4,
                                       unk_target=False)
        backward, _ = random_model(rng, beam=2, window=1, order=2, lm_weight=0.5,
                                   unk_target=False)
        ctx = RerankContext(backward, model.lm, NoisyChannelWeights(0.7, 1.3), nbest=6)
        stack = [model, uniform_model(model)]
        sources = random_sources(rng, src_syms, 9)
        for got, member in zip(tm.translate_stack(stack, sources, 6, rerank_ctx=ctx), stack):
            want = translate_corpus(member, sources, 6, rerank_ctx=ctx)
            assert [rescored(nb) for nb in nbest_lists(got)] == \
                [rescored(nb) for nb in nbest_lists(want)]

    def decoders(self):
        rng = random.Random(2)
        model, _ = random_model(rng, beam=3, window=1, order=2, lm_weight=0.4,
                                unk_target=False)
        other_lm = train_lm([("t0", "t1")], 2, 0.5)

        def like(**changes):
            settings = dict(tgt_vocab=model.tgt_vocab, t=model.t, lm=model.lm, beam=3,
                            window=1, lm_weight=0.4)
            settings.update(changes)
            tgt_vocab, t = settings.pop("tgt_vocab"), settings.pop("t")
            return tm.LexModel(model.src_vocab, tgt_vocab, t, **settings)

        return model, like, other_lm

    @pytest.mark.parametrize("change", ["lm", "tgt_vocab", "window", "lm_weight", "beam"])
    def test_models_of_another_decoder_raise(self, change):
        model, like, other_lm = self.decoders()
        other = {"lm": lambda: like(lm=other_lm),
                 "tgt_vocab": lambda: like(tgt_vocab=model.tgt_vocab[:-1],
                                           t=model.t[:, :-1]),
                 "window": lambda: like(window=0),
                 "lm_weight": lambda: like(lm_weight=0.5),
                 "beam": lambda: like(beam=4)}[change]()
        with pytest.raises(ValueError, match="share one LM"):
            tm.translate_stack([model, other], [("s0",)], 1)
        with pytest.raises(ValueError, match="share one LM"):
            tm.translate_stack([other, model, model], [("s0",)], 1)

    def test_a_copy_of_the_lm_is_another_decoder(self):
        model, like, _ = self.decoders()
        copy = tm.model_from_dict(json.loads(tm.model_json(model)[0]))
        with pytest.raises(ValueError, match="share one LM"):
            tm.translate_stack([model, copy], [("s0",)], 1)
        # the same settings and LM with another table are one decoder
        tm.translate_stack([model, like(t=model.t * 0.5)], [("s0",)], 1)

    def test_no_models_raise_and_no_sources_give_empty_blocks(self):
        model, like, _ = self.decoders()
        with pytest.raises(ValueError):
            tm.translate_stack([], [("s0",)], 1)
        empty = tm.translate_stack([model, like(t=model.t * 0.5)], [], 1)
        assert [len(block) for block in empty] == [0, 0]


def all_arrays(block):
    """`block_arrays` and the exact bits of the rerank scores a block holds."""
    return block_arrays(block) + tuple(
        None if a is None else a.tobytes() for a in (block.channel, block.lm, block.combined))


class TestEntriesMixedFromPartTables:
    """The decoder mixes the LM entries it takes from the tables of its LM's
    parts; a decode that reads them from rows mixed whole, by the reference
    table of `tests/reference_row_table.py` patched in, gives the same
    blocks bit for bit, plain and reranked. Only the LM bound differs, which changes how many
    entries a step scores, not which survive."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), checkpoints=st.integers(1, 3),
           order=st.integers(1, 3), alpha=st.sampled_from([None, 0.0, 0.4, 1.0]),
           reranked=st.booleans(), n=st.sampled_from([1, 4]),
           states=st.sampled_from([12, tm._DECODE_STATES]))
    def test_stack_equals_the_mixed_row_decode(self, seed, checkpoints, order, alpha,
                                               reranked, n, states):
        rng = random.Random(seed)
        tgt = tuple(f"t{i}" for i in range(rng.randint(2, 6))) + (
            (UNK_TOKEN,) if rng.random() < 0.5 else ())

        def corpus(count):
            return [tuple(rng.choice(tgt) for _ in range(rng.randint(1, 5)))
                    for _ in range(count)]

        lm = train_lm(corpus(rng.randint(3, 10)), order, rng.choice([0.05, 0.5]))
        if alpha is not None:
            lm = finetune_lm(lm, corpus(3), alpha)
        stack = [stack_member(rng, tgt, lm, beam=rng.randint(1, 4), window=1,
                              lm_weight=0.6, zero_rows=0.2)]
        first = stack[0]
        stack += [tm.LexModel(first.src_vocab, tgt, first.t * rng.random(), lm,
                              beam=first.beam, window=1, lm_weight=0.6)
                  for _ in range(checkpoints - 1)]
        ctx = None
        if reranked:
            backward, _ = random_model(rng, beam=2, window=1, order=2, lm_weight=0.5,
                                       unk_target=False)
            ctx = RerankContext(backward, lm, NoisyChannelWeights(0.7, 1.3), nbest=n)
        sources = [tuple(rng.choice([f"s{i}" for i in range(8)] + ["zz"])
                         for _ in range(rng.randint(1, 7))) for _ in range(rng.randint(1, 8))]
        with mock.patch.object(tm, "_DECODE_STATES", states):
            got = tm.translate_stack(stack, sources, n, rerank_ctx=ctx)
            with mock.patch.object(tm.LexModel, "_row_tables", reference_row_tables):
                want = tm.translate_stack(stack, sources, n, rerank_ctx=ctx)
        assert [all_arrays(block) for block in got] == [all_arrays(block) for block in want]


def reference_nbest_list(beam, ext_vocab, n):
    """The per-state n-best assembly `tm._nbest_lists` replaces, kept as its
    specification: the (hyp, score) entries of a finished beam of (score,
    emitted ext ids) states."""
    best = {}
    for score, ids in beam:
        ids = tuple(ids)
        if best.get(ids, -np.inf) < score:
            best[ids] = score
    hyps = {tuple(ext_vocab[e] for e in ids): score for ids, score in best.items()}
    return sorted(hyps.items(), key=lambda kv: (-kv[1], kv[0]))[:n]


def sequence_ids(emitted, ext_rank):
    """The decoder's (seq, surf) ids of finished states' ext id rows, built
    column by column by the step rule of `tm._decode_block`."""
    seq = np.zeros(len(emitted), dtype=np.int64)
    surf = np.zeros(len(emitted), dtype=np.int64)
    for token in emitted.T:
        seq = tm._dense_rank(seq * ext_rank.size + token)
        surf = tm._dense_rank(surf * ext_rank.size + ext_rank[token])
    return seq, surf


def picked_lists(sent, score, emitted, ext_vocab, kept):
    """The (hyp, score) entries of `_nbest_lists`' picked states, by sentence."""
    assert np.all(np.diff(sent[kept]) >= 0)
    lists = {s: [] for s in set(sent.tolist())}
    for k in kept.tolist():
        lists[int(sent[k])].append((tuple(ext_vocab[e] for e in emitted[k]), float(score[k])))
    return lists


class TestArrayNbestLists:
    """`_nbest_lists` on sequence ids equals the per-state assembly on
    finished beams with repeated id sequences, tied scores and two ext ids
    that spell <unk>."""

    # sorted, as EM vocabularies are; the ext vocabulary appends a second
    # <unk>, which sorts before the letters
    TARGETS = (UNK_TOKEN, "a", "b", "c", "d")

    def model(self):
        t = np.full((2, len(self.TARGETS)), 1.0 / len(self.TARGETS))
        return tm.LexModel((tm.NULL, "s0"), self.TARGETS, t,
                           train_lm([self.TARGETS], 1, 0.5))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), length=st.integers(1, 4), n=st.integers(1, 8),
           sentences=st.integers(1, 4))
    def test_equals_the_per_state_assembly(self, data, length, n, sentences):
        model = self.model()
        ext_vocab = model._ext_vocab()
        assert ext_vocab.count(UNK_TOKEN) == 2
        # ids 0 and 5 both spell <unk>; few ids and scores make repeats and ties
        states = data.draw(st.lists(st.tuples(
            st.integers(0, sentences - 1),
            st.sampled_from([-0.5, -1.0, -1.0, -2.25, -np.inf]),
            st.lists(st.sampled_from([0, 1, 2, 5]), min_size=length, max_size=length)),
            min_size=1, max_size=30))
        sent = np.array([s for s, _, _ in states])
        score = np.array([v for _, v, _ in states])
        emitted = np.array([ids for _, _, ids in states], dtype=np.intp)
        kept = tm._nbest_lists(sent, score, *sequence_ids(emitted, model._row_tables()[0][1].ranks), n)
        got = picked_lists(sent, score, emitted, ext_vocab, kept)
        for s, nb in got.items():
            beam = [(v, ids) for t, v, ids in states if t == s]
            assert entries(nb) == entries(reference_nbest_list(beam, ext_vocab, n))

    @pytest.mark.parametrize("limit", [tm._KEY_LIMIT, 1, 100])
    def test_two_spellings_collide_in_a_decode(self, limit):
        # an unknown source symbol decodes to the appended <unk> and a known
        # one may give the target <unk>, so with a window of 1 two id
        # sequences spell (<unk>, <unk>); the sequence ids, made dense at
        # every step or every few below a small key limit, keep one of them
        t = np.full((2, len(self.TARGETS)), 1.0 / len(self.TARGETS))
        model = tm.LexModel((tm.NULL, "s0"), self.TARGETS, t, train_lm([self.TARGETS], 2, 0.5),
                            beam=8, window=1, lm_weight=0.3)
        sources = [("zz", "s0"), ("s0", "zz", "s0", "zz"), ("zz", "s0", "s0")]
        with mock.patch.object(tm, "_KEY_LIMIT", limit):
            lists = nbest_lists(translate_corpus(model, sources, 40))
        assert (UNK_TOKEN, UNK_TOKEN) in [e.hyp for e in lists[0]]
        for source, nb in zip(sources, lists):
            assert entries(nb) == [(hyp, score.hex())
                                   for hyp, score in reference_nbest(model, source, 40)]

    def test_two_spellings_of_unk_keep_the_later_one(self):
        # of two id sequences with one surface, the one whose first state
        # comes later wins, so of a beam in score order the lower score is kept
        model = self.model()
        ext_vocab = model._ext_vocab()
        sent, score = np.zeros(3, dtype=np.intp), np.array([-1.0, -2.0, -3.0])
        emitted = np.array([[0, 1], [5, 1], [2, 2]])
        kept = tm._nbest_lists(sent, score, *sequence_ids(emitted, model._row_tables()[0][1].ranks), 5)
        got = picked_lists(sent, score, emitted, ext_vocab, kept)
        assert entries(got[0]) == [((UNK_TOKEN, "a"), (-2.0).hex()),
                                   (("b", "b"), (-3.0).hex())]
