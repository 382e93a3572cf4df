"""The decoder cache (`deskmt.cache`): one bounded store of the tables that
decoding and channel scoring derive from models and LMs.

The store's outputs never depend on its bound: an evicted table is built
again from its owner, and a rebuilt row table differs only in its
`prob_max`, which changes how many entries a beam step scores, not which
survive. The goldens are checked here with the bound at its minimum.
"""

import gc
import json
import random
import weakref
from unittest import mock

import numpy as np
import pytest

import deskmt.tm as tm
from deskmt import cache
from deskmt.cache import cache_counts, cached
from deskmt.lm import RowTable, finetune_lm, train_lm
from deskmt.metrics import EvalContext
from deskmt.rerank import NoisyChannelWeights, RerankContext
from deskmt.search import run_search
from deskmt.tm import translate_corpus
from test_decoder_golden import _assert_matches_fixture, decode_all, decode_all_in_blocks
from test_pipeline_golden import FIXTURE as PIPELINE_FIXTURE
from test_pipeline_golden import digests
from test_rerank import random_models
from test_search import parallel, tiny_space


class Owner:
    """A stand-in for a model or an LM."""


def deltas(before: dict) -> dict:
    after = cache_counts()
    return {name: after[name] - before[name] for name in ("hits", "builds", "evictions")}


class TestCounts:
    @pytest.fixture(autouse=True)
    def empty_store(self, monkeypatch):
        monkeypatch.setattr(cache, "_STORE", cache._Store())

    def test_hits_builds_and_evictions(self, monkeypatch):
        monkeypatch.setattr(cache, "BOUND", 2)
        a, b = Owner(), Owner()
        built = []

        def build(name):
            return lambda: built.append(name) or [name]

        before = cache_counts()
        first = cached(a, "x", build("ax"))
        assert cached(a, "x", build("ax")) is first           # a hit
        cached(a, "y", build("ay"))
        cached(b, "x", build("bx"))                            # evicts (a, "x")
        assert cache_counts()["held"] == 2
        assert cached(a, "x", build("ax")) is not first        # built again
        assert built == ["ax", "ay", "bx", "ax"]
        assert deltas(before) == {"hits": 1, "builds": 4, "evictions": 2}

    def test_entries_die_with_their_owner_without_the_collector(self):
        gc.disable()
        try:
            owner = Owner()
            held = cache_counts()["held"]
            table = cached(owner, "t", lambda: np.zeros(3))
            table_ref = weakref.ref(table)
            assert cache_counts()["held"] == held + 1
            del owner, table
            assert table_ref() is None
            assert cache_counts()["held"] == held
        finally:
            gc.enable()

    def test_a_new_owner_does_not_read_a_dead_owners_entry(self):
        for _ in range(20):   # ids of dead owners are reused
            owner = Owner()
            value = object()
            assert cached(owner, "t", lambda: value) is value
            del owner


class TestStoreStaysBounded:
    def test_a_search_and_its_finetune_hold_at_most_the_bound(self, monkeypatch):
        # every row table made, by weak reference: one per trial LM and the
        # in-domain LM; with topk 10 every trial's fine-tuned model stays alive
        made = []
        init = RowTable.__init__

        def recording_init(self, model, symbols):
            init(self, model, symbols)
            made.append(weakref.ref(self))

        monkeypatch.setattr(RowTable, "__init__", recording_init)
        ds = parallel(5, n_pairs=24)
        results = run_search(tiny_space(), 10, 3, ds, None, None, ds, topk=10,
                             finetune_steps=3, eval_ctx=EvalContext(), patience=None)
        assert len(made) > cache.BOUND
        assert sum(ref() is not None for ref in made) <= cache.BOUND
        assert cache_counts()["held"] <= cache.BOUND
        assert all(r.model is not None for r in results)


def reranked_decode(seed: int):
    """A reranked decode of 26 sources in 6 blocks, with its decoder,
    channel model and LM alive at once, as arrays."""
    rng = random.Random(seed)
    mix, fwd, bwd = random_models(rng, n_pairs=30)
    targets = [tgt for (_, tgt), _ in mix.weighted_pairs().items()]
    lm = finetune_lm(train_lm(targets, 3, 0.4), targets[:6], 0.3)
    ctx = RerankContext(bwd, lm, NoisyChannelWeights(0.7, 0.4), nbest=8)
    sources = [src for (src, _), _ in mix.weighted_pairs().items()]
    assert len(sources) == 26
    with mock.patch.object(tm, "_DECODE_STATES", 40):
        block = translate_corpus(fwd, sources, 8, rerank_ctx=ctx)
    return ([[float(v).hex() for v in getattr(block, name).tolist()]
             for name in ("fwd", "channel", "lm", "combined")]
            + [block.hyps.tolist(), block.lengths.tolist(), block.offsets.tolist()])


@pytest.mark.hashseed
class TestOutputsDoNotDependOnTheBound:
    """Every output with the bound at its minimum, 1: no decode or channel
    score finds the table it read before."""

    def test_decoder_golden(self):
        with mock.patch.object(cache, "BOUND", 1):
            _assert_matches_fixture(decode_all())
            _assert_matches_fixture(decode_all_in_blocks())

    def test_pipeline_golden(self, tmp_path):
        with open(PIPELINE_FIXTURE, encoding="utf-8") as fh:
            expected = json.load(fh)
        with mock.patch.object(cache, "BOUND", 1):
            assert digests(str(tmp_path)) == expected

    def test_reranked_decode(self):
        kept = reranked_decode(17)
        before = cache_counts()
        with mock.patch.object(cache, "BOUND", 1):
            evicted = reranked_decode(17)
        # a candidate table read once, and 6 blocks, each reading a row table
        # and a padded table: with room for one, both are built again block
        # after block
        assert deltas(before)["builds"] >= 2 * 6 + 1
        assert evicted == kept

    def test_stacked_and_reranked_decodes_with_an_interpolated_lm(self):
        # with room for one table, the fine-tune LM's table and its two
        # parts' tables evict each other at every read: every part table
        # is built again and every row mixed again
        kept = interpolated_decodes(23)
        before = cache_counts()
        with mock.patch.object(cache, "BOUND", 1):
            evicted = interpolated_decodes(23)
        assert deltas(before)["evictions"] > 3 * 6
        assert evicted == kept


def interpolated_decodes(seed: int):
    """A stack of three checkpoints sharing a fine-tune LM, decoded in one
    pass, and the first of them decoded reranked, in blocks of few states,
    as the bytes of every array of their blocks."""
    rng = random.Random(seed)
    mix, fwd, bwd = random_models(rng, n_pairs=30)
    targets = [tgt for (_, tgt), _ in mix.weighted_pairs().items()]
    ft_lm = finetune_lm(fwd.lm, targets[:8], 0.4)
    stack = [tm.LexModel(fwd.src_vocab, fwd.tgt_vocab, fwd.t * scale, ft_lm, beam=fwd.beam,
                         window=fwd.window, lm_weight=fwd.lm_weight)
             for scale in (1.0, 0.7, 0.4)]
    sources = [src for (src, _), _ in mix.weighted_pairs().items()]
    ctx = RerankContext(bwd, finetune_lm(train_lm(targets, 3, 0.4), targets[:6], 0.3),
                        NoisyChannelWeights(0.7, 0.4), nbest=6)
    with mock.patch.object(tm, "_DECODE_STATES", 40):
        blocks = tm.translate_stack(stack, sources, 4)
        blocks.append(translate_corpus(stack[0], sources, 6, rerank_ctx=ctx))
    return [[getattr(block, name).tobytes() for name in
             ("hyps", "lengths", "fwd", "offsets", "channel", "lm", "combined")
             if getattr(block, name, None) is not None] for block in blocks]


class TestStackedDecodeReadsEachTableOnce:
    @pytest.fixture(autouse=True)
    def empty_store(self, monkeypatch):
        monkeypatch.setattr(cache, "_STORE", cache._Store())

    def test_a_stack_larger_than_the_bound_over_several_blocks(self):
        # more checkpoints than the store holds: each candidate table is
        # read once per decode, and the row table survives from block to
        # block
        rng = random.Random(3)
        mix, fwd, _ = random_models(rng, n_pairs=30)
        stack = [fwd] + [tm.LexModel(fwd.src_vocab, fwd.tgt_vocab, fwd.t * scale, fwd.lm,
                                     beam=fwd.beam, window=fwd.window, lm_weight=fwd.lm_weight)
                         for scale in np.linspace(0.9, 0.3, cache.BOUND + 1)]
        sources = [src for (src, _), _ in mix.weighted_pairs().items()]
        blocks = []
        real = tm._decode_block

        def recording(models, cands, block, member, width, n):
            blocks.append(len(block))
            return real(models, cands, block, member, width, n)

        before = cache_counts()
        with mock.patch.object(tm, "_DECODE_STATES", 40), \
                mock.patch.object(tm, "_decode_block", recording):
            tm.translate_stack(stack, sources, 4)
        assert len(stack) > cache.BOUND and len(blocks) > 1
        assert deltas(before)["builds"] == len(stack) + 1
