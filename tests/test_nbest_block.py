"""n-best lists as arrays: `tm.NBestBlock` from the decoder through reranking.

A decoded block is reranked, tuned on and read by BLEU without building an
`NBestEntry`; entries become objects only at the n-best file writer and
reader, the CLI and `NBestBlock.to_lists`. A file is read into a block whose
symbols are its distinct tokens, and reranks to the bytes the decoder's own
block gives.
"""

import random

import numpy as np
import pytest

from deskmt import augment, metrics, rerank as rerank_module, search, synth, tm
from deskmt.cli import EXIT_OK, main
from deskmt.corpus import UNK_TOKEN, build_mix, swap_direction
from deskmt.lm import lm_json, train_lm
from deskmt.metrics import EvalContext
from deskmt.rerank import (NoisyChannelWeights, RerankContext, read_nbest_file, rerank,
                           tune_lambdas, write_nbest_file)
from deskmt.subword import encode_dataset, learn_bpe
from deskmt.tm import NBestBlock, NBestEntry, NBestList, em_train, translate_corpus


@pytest.fixture(scope="module")
def system():
    """A bundle, BPE-encoded, with forward and backward models and an LM.
    The forward model's targets hold the unknown token, so its ext symbols
    spell it twice."""
    bundle = synth.gen_corpora(synth.make_spec(40, seed=11),
                               {"parallel": 60, "mono_src": 30, "mono_tgt": 30,
                                "dev": 10, "test": 10})
    bpe = learn_bpe([s for s, _ in bundle.parallel.pairs] + [t for _, t in bundle.parallel.pairs],
                    120)
    parallel = encode_dataset(bundle.parallel, bpe)
    pairs = list(parallel.pairs)
    pairs[0] = (pairs[0][0], pairs[0][1] + (UNK_TOKEN,))
    mix = build_mix([type(parallel)(parallel.name, parallel.side, parallel.tag,
                                    pairs=tuple(pairs))])
    fwd = em_train(mix, 2, lm_order=2, beam=3, window=1, lm_weight=0.4)
    bwd = em_train(swap_direction(mix), 2, lm_order=2, src_lang="tgt", tgt_lang="src")
    assert fwd._ext_vocab().count(UNK_TOKEN) == 2
    lm = train_lm([t for _, t in pairs], 3, 0.3)
    return {"bpe": bpe, "fwd": fwd, "bwd": bwd, "lm": lm,
            "mono": encode_dataset(bundle.mono_src, bpe),
            "dev": encode_dataset(bundle.dev, bpe), "test": encode_dataset(bundle.test, bpe)}


def sources_of(system):
    return list(system["mono"].sentences) + [("zz", "qq")]


class TestBlock:
    def test_lists_round_trip(self, system):
        block = translate_corpus(system["fwd"], sources_of(system), 6)
        lists = block.to_lists()
        again = NBestBlock.from_lists(lists)
        assert again.to_lists() == lists
        assert again.symbols == tuple(sorted({t for nb in lists for e in nb.entries
                                              for t in e.hyp}))
        assert block.top_hyps() == [nb.top().hyp for nb in lists]
        assert block.sizes().tolist() == [len(nb.entries) for nb in lists]
        assert block.hyps.dtype == np.min_scalar_type(len(block.symbols) - 1)

    def test_select_and_concat(self, system):
        # the sources differ in length, so the blocks' rows differ in width
        sources = sources_of(system)[:7]
        lists = translate_corpus(system["fwd"], sources, 4).to_lists()
        a = translate_corpus(system["fwd"], sources[:3], 4)
        b = translate_corpus(system["fwd"], sources[3:], 4)
        assert a.hyps.shape[1] != b.hyps.shape[1]
        joined = NBestBlock.concat([a, b])
        assert joined.to_lists() == lists
        order = np.array([6, 0, 3, 3, 1])
        assert joined.select(order).to_lists() == [lists[k] for k in order.tolist()]
        with pytest.raises(ValueError):
            NBestBlock.concat([a, NBestBlock.from_lists(b.to_lists())])

    def test_symbols_of_a_file_block_are_sorted_tokens(self):
        lists = [NBestList(("s",), [NBestEntry(("b", "<unk>", "a"), -1.0),
                                    NBestEntry((), -2.0)]),
                 NBestList(("t",), [NBestEntry(("a",), -0.5)])]
        block = NBestBlock.from_lists(lists)
        assert block.symbols == ("<unk>", "a", "b")
        assert block.lengths.tolist() == [3, 0, 1]
        assert block.offsets.tolist() == [0, 2, 3]
        assert block.to_lists() == lists

    def test_an_empty_list_has_no_top(self):
        block = NBestBlock.from_lists([NBestList(("s",), [])])
        with pytest.raises(tm.DataError):
            block.top_hyps()


class TestFileAndDecoderPathsAgree:
    @pytest.mark.parametrize("lambdas", [(0.0, 0.0), (0.7, 1.3), (2.5, 0.25)])
    def test_reranked_in_memory_writes_the_bytes_of_the_file_path(self, system, tmp_path,
                                                                  monkeypatch, lambdas):
        weights = NoisyChannelWeights(*lambdas)
        sources = sources_of(system)
        ctx = RerankContext(system["bwd"], system["lm"], weights, nbest=8)
        write_nbest_file(translate_corpus(system["fwd"], sources, 1, rerank_ctx=ctx).to_lists(),
                         str(tmp_path / "memory.txt"))
        write_nbest_file(translate_corpus(system["fwd"], sources, 8).to_lists(),
                         str(tmp_path / "plain.txt"))
        with open(tmp_path / "bwd.json", "w", encoding="utf-8") as fh:
            fh.write(tm.model_json(system["bwd"])[0])
        with open(tmp_path / "lm.json", "w", encoding="utf-8") as fh:
            fh.write(lm_json(system["lm"]))
        monkeypatch.chdir(tmp_path)
        assert main(["rerank", "--nbest-file", "plain.txt", "--channel-model", "bwd.json",
                     "--lm", "lm.json", "--lambda1", repr(lambdas[0]),
                     "--lambda2", repr(lambdas[1]), "--out", "file.txt"]) == EXIT_OK
        memory = (tmp_path / "memory.txt").read_bytes()
        assert (tmp_path / "file.txt").read_bytes() == memory
        # the two spellings of <unk> print alike, and some entry holds one
        assert UNK_TOKEN.encode() in memory
        reread = NBestBlock.from_lists(read_nbest_file("plain.txt"))
        assert UNK_TOKEN in reread.symbols
        assert len(reread.symbols) < len(system["fwd"]._ext_vocab())


def raising(*args, **kwargs):
    raise AssertionError("an n-best entry object was built")


class TestNoEntryObjectsOnTheHotPath:
    """With `NBestEntry` and `NBestList` made unbuildable, generation, dev
    BLEU, lambda tuning and evaluation run and give the same results."""

    def run_all(self, system):
        ctx = RerankContext(system["bwd"], system["lm"], NoisyChannelWeights(0.9, 0.6),
                            nbest=8)
        eval_ctx = EvalContext(bpe=system["bpe"])
        return [
            augment.self_train(system["fwd"], system["mono"], ctx).pairs,
            augment.self_train(system["fwd"], system["mono"]).pairs,
            search.dev_bleu(system["fwd"], system["dev"], eval_ctx=eval_ctx),
            search.dev_bleu(system["fwd"], system["dev"], eval_ctx=eval_ctx,
                            rerank_ctx=ctx, nbest=8),
            tune_lambdas(system["dev"], system["fwd"], system["bwd"], system["lm"],
                         trials=6, seed=2, nbest=8, eval_ctx=eval_ctx),
            metrics.evaluate_system(system["fwd"], system["test"], "rerank", rerank_ctx=ctx,
                                    eval_ctx=eval_ctx, nbest=8).to_dict(),
            metrics.evaluate_system(system["fwd"], system["test"], eval_ctx=eval_ctx,
                                    nbest=8).to_dict(),
        ]

    def test_results_unchanged(self, system, monkeypatch):
        want = self.run_all(system)
        monkeypatch.setattr(tm, "NBestEntry", raising)
        monkeypatch.setattr(tm, "NBestList", raising)
        monkeypatch.setattr(rerank_module, "NBestEntry", raising)
        monkeypatch.setattr(rerank_module, "NBestList", raising)
        with pytest.raises(AssertionError, match="entry object"):
            translate_corpus(system["fwd"], [("a",)], 2).to_lists()
        assert self.run_all(system) == want


class TestRerankedBlock:
    def test_scores_follow_their_entries(self, system):
        block = translate_corpus(system["fwd"], sources_of(system), 8)
        w = NoisyChannelWeights(1.1, 0.4)
        out = rerank(block, system["bwd"], system["lm"], w)
        assert out.offsets.tolist() == block.offsets.tolist()
        assert out.combined.tolist() == (out.fwd + w.lambda1 * out.channel
                                         + w.lambda2 * out.lm).tolist()
        for k, (before, after) in enumerate(zip(block.to_lists(), out.to_lists())):
            assert sorted((e.hyp, e.fwd) for e in before.entries) == \
                sorted((e.hyp, e.fwd) for e in after.entries)
            combined = [e.combined for e in after.entries]
            assert combined == sorted(combined, reverse=True)
            rng = random.Random(k)
            e = after.entries[rng.randrange(len(after.entries))]
            assert e.channel == tm.channel_scores(system["bwd"], after.source, [e.hyp])[0]
