"""The lifetime of the tables that decoding and channel scoring derive from
models and LMs: a table is built by the call that reads it and dies when
the call returns.

A decode (`tm.translate_stack`) builds its stack's candidate tables and one
row table per part of its LM once, and holds them for all its blocks
(`test_lm.TestPerPartRows` counts the rows a call computes);
`tm.cross_channel_scores` pads its model's table once, for all its runs.
"""

import gc
import random
import weakref
from unittest import mock

import numpy as np

import deskmt.tm as tm
from deskmt.lm import RowTable, finetune_lm, train_lm
from deskmt.rerank import NoisyChannelWeights, RerankContext
from test_rerank import random_models


def recorded_tables(monkeypatch):
    """A weak reference to every `RowTable` built from here on."""
    made = []
    init = RowTable.__init__

    def recording_init(self, model, symbols):
        init(self, model, symbols)
        made.append(weakref.ref(self))

    monkeypatch.setattr(RowTable, "__init__", recording_init)
    return made


def checkpoint_stack(seed: int):
    """Three checkpoints sharing a fine-tune LM of two parts, the sources
    of their mix, and a reranking context with an interpolated LM."""
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
    return stack, sources, ctx


class TestNoTableOutlivesItsCall:
    def test_plain_and_reranked_stacks(self, monkeypatch):
        # without the collector, every row table is freed as its decode
        # returns: nothing but the call holds one
        stack, sources, ctx = checkpoint_stack(23)
        made = recorded_tables(monkeypatch)
        gc.disable()
        try:
            with mock.patch.object(tm, "_DECODE_STATES", 40):
                for rerank_ctx in (None, ctx):
                    before = len(made)
                    blocks = tm.translate_stack(stack, sources, 6, rerank_ctx=rerank_ctx)
                    assert len(made) == before + 2   # one per part of the fine-tune LM
                    assert all(ref() is None for ref in made)
                    assert all(block.offsets[-1] > 0 for block in blocks)
        finally:
            gc.enable()


class TestChannelTablePaddedOncePerCall:
    def test_cross_channel_scores_over_many_runs(self, monkeypatch):
        # blocks cut into many runs, with one-token xs that go through the
        # pair kernel: the model's table is padded once per call
        rng = random.Random(46)
        _, _, model = random_models(rng, n_pairs=20)
        blocks = []
        for _ in range(6):
            xs = [tuple(rng.choice(model.tgt_vocab) for _ in range(rng.randint(1, 4)))
                  for _ in range(5)]
            ys = [tuple(rng.choice(model.src_vocab[1:]) for _ in range(rng.randint(0, 5)))
                  for _ in range(9)]
            blocks.append((xs, ys))
        pads, runs = [], []
        pad, cross_run = tm.LexModel._t_ext, tm._cross_run

        def counted_pad(self):
            pads.append(self)
            return pad(self)

        def counted_run(model, t_ext, blocks, run, out):
            runs.append(t_ext)
            return cross_run(model, t_ext, blocks, run, out)

        monkeypatch.setattr(tm.LexModel, "_t_ext", counted_pad)
        monkeypatch.setattr(tm, "_cross_run", counted_run)
        monkeypatch.setattr(tm, "_CROSS_RUN", 40)
        for call in range(1, 4):
            runs.clear()
            scores = tm.cross_channel_scores(model, blocks)
            assert pads == [model] * call
            assert len(runs) > 1 and all(t_ext is runs[0] for t_ext in runs)
        xs, ys = blocks[2]
        want = tm.pair_channel_scores(model, xs, ys, np.repeat(np.arange(len(xs)), len(ys)),
                                      np.tile(np.arange(len(ys)), len(xs)))
        assert scores[2].ravel().tobytes() == want.tobytes()
