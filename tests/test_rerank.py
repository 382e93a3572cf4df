import dataclasses
import random

import numpy as np
import pytest

from deskmt.corpus import SIDE_PARALLEL, TaggedDataset, build_mix, swap_direction
from deskmt.lm import finetune_lm, logprobs, train_lm
from deskmt.metrics import EvalContext, bleu
from deskmt.rerank import (
    NULL_WEIGHTS,
    DataError,
    NoisyChannelWeights,
    RerankContext,
    read_nbest_file,
    rerank,
    sample_weights,
    tune_lambdas,
    write_nbest_file,
)
from deskmt.tm import NULL, LexModel, em_train, translate_corpus
from nbest_lists import block_of, decode_one, nbest_lists
from test_tm import reference_marginal


def random_models(rng, n_pairs=10):
    src_vocab = [f"s{i}" for i in range(4)]
    tgt_vocab = [f"t{i}" for i in range(4)]
    pairs = []
    for _ in range(n_pairs):
        length = rng.randint(1, 4)
        pairs.append((tuple(rng.choice(src_vocab) for _ in range(length)),
                      tuple(rng.choice(tgt_vocab) for _ in range(length))))
    mix = build_mix([TaggedDataset("d", SIDE_PARALLEL, "<t>", pairs=tuple(pairs))])
    fwd = em_train(mix, iterations=2, window=1, lm_weight=0.3)
    bwd = em_train(swap_direction(mix), iterations=2, window=1, lm_weight=0.3,
                   src_lang="tgt", tgt_lang="src")
    return mix, fwd, bwd


def decoded(model, source, n):
    """The (source, [(hyp, fwd), ...]) list of one decoded source."""
    return source, [(e.hyp, e.fwd) for e in decode_one(model, source, n)]


def rerank_one(nbest, backward, lm, w):
    """One (source, [(hyp, fwd), ...]) list reranked alone."""
    return rerank_lists([nbest], backward, lm, w)[0]


def rerank_lists(lists, backward, lm, w):
    """(source, [(hyp, fwd), ...]) lists reranked as one block."""
    return nbest_lists(rerank(block_of(lists), backward, lm, w))


class TestCombinedScore:
    def scored(self, w, fwd=(-1.0, -2.5, -4.0)):
        rng = random.Random(2)
        _, model, bwd = random_models(rng)
        hyps = [("t0", "t1"), ("t2",), ("t3", "t3")]
        return rerank_one((("s0", "s1"), list(zip(hyps, fwd))), bwd, model.lm, w)

    def test_hand_arithmetic(self):
        w = NoisyChannelWeights(1.0, 0.5)
        for e in self.scored(w):
            assert e.combined == e.fwd + 1.0 * e.channel + 0.5 * e.lm

    def test_null_weights_reduce_to_fwd(self):
        entries = self.scored(NULL_WEIGHTS)
        assert [e.combined for e in entries] == [-1.0, -2.5, -4.0]

    @pytest.mark.parametrize("bad", [float("-inf"), float("nan")])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(DataError, match="finite"):
            self.scored(NULL_WEIGHTS, fwd=(-1.0, bad, -4.0))

    def test_weight_bounds_enforced(self):
        with pytest.raises(DataError):
            NoisyChannelWeights(-0.1, 0.0)
        with pytest.raises(DataError):
            NoisyChannelWeights(0.0, 3.5)


class TestRerank:
    def test_null_weights_keep_beam_top1(self):
        rng = random.Random(21)
        for _ in range(100):
            mix, fwd, bwd = random_models(rng)
            x = mix.datasets[0].pairs[rng.randrange(len(mix.datasets[0].pairs))][0]
            block = translate_corpus(fwd, [x], 8)
            reranked = rerank(block, bwd, fwd.lm, NULL_WEIGHTS)
            assert reranked.top_hyps() == block.top_hyps()

    def test_channel_favored_entry_promoted(self):
        src = ("s0",)
        rng = random.Random(3)
        _, fwd, bwd = random_models(rng)
        scored = rerank_one((src, [(("t0",), -1.0), (("t1",), -1.2)]), bwd, fwd.lm,
                            NoisyChannelWeights(3.0, 0.0))
        # verify against hand-computed combined scores
        c0 = -1.0 + 3.0 * reference_marginal(bwd, ("t0",), src)
        c1 = -1.2 + 3.0 * reference_marginal(bwd, ("t1",), src)
        expected_top = ("t0",) if c0 >= c1 else ("t1",)
        assert scored[0].hyp == expected_top
        assert scored[0].combined == pytest.approx(max(c0, c1))

    def test_idempotent(self):
        rng = random.Random(4)
        mix, fwd, bwd = random_models(rng)
        x = mix.datasets[0].pairs[0][0]
        w = NoisyChannelWeights(1.2, 0.7)
        once = rerank(translate_corpus(fwd, [x], 8), bwd, fwd.lm, w)
        twice = rerank(once, bwd, fwd.lm, w)
        assert [e.hyp for e in nbest_lists(once)[0]] == [e.hyp for e in nbest_lists(twice)[0]]

    def test_constant_fwd_shift_preserves_ranking(self):
        rng = random.Random(6)
        mix, fwd, bwd = random_models(rng)
        x = mix.datasets[0].pairs[0][0]
        block = translate_corpus(fwd, [x], 8)
        w = NoisyChannelWeights(0.8, 0.4)
        base = rerank(block, bwd, fwd.lm, w)
        again = rerank(dataclasses.replace(block, fwd=block.fwd + 5.0), bwd, fwd.lm, w)
        assert [e.hyp for e in nbest_lists(base)[0]] == [e.hyp for e in nbest_lists(again)[0]]

    def test_fills_channel_and_lm_slots(self):
        rng = random.Random(7)
        mix, fwd, bwd = random_models(rng)
        out = rerank(translate_corpus(fwd, [mix.datasets[0].pairs[0][0]], 5), bwd, fwd.lm,
                     NULL_WEIGHTS)
        for e in nbest_lists(out)[0]:
            assert e.channel is not None and e.lm is not None
            assert e.lm == pytest.approx(float(logprobs(fwd.lm, [e.hyp])[0]))

    def test_empty_list_rejected(self):
        rng = random.Random(8)
        _, fwd, bwd = random_models(rng)
        with pytest.raises(DataError):
            rerank_one((("s0",), []), bwd, fwd.lm, NULL_WEIGHTS)


class TestBatchScores:
    """Reranking a block scores each entry as it would be scored alone."""

    def mixed_list(self, source):
        # hypotheses of several lengths, with unknown and tagged symbols
        hyps = [("t0",), ("t1", "t2"), ("t3", "t0", "t1"), ("t2",),
                ("zz", "t1"), ("<bt>", "t0", "t0", "t0", "t1"), (), ("t1", "t3")]
        return source, [(h, -float(k)) for k, h in enumerate(hyps)]

    def interpolated(self, fwd):
        return finetune_lm(fwd.lm, [("t0", "t1"), ("t2", "t3", "t3"), ("zz",)], 0.4)

    @pytest.mark.parametrize("use_interpolated", [False, True])
    def test_equals_per_entry_scores(self, use_interpolated):
        rng = random.Random(31)
        for _ in range(20):
            mix, fwd, bwd = random_models(rng)
            lm = self.interpolated(fwd) if use_interpolated else fwd.lm
            source = mix.datasets[0].pairs[rng.randrange(len(mix.datasets[0].pairs))][0] + ("s9",)
            lists = [self.mixed_list(source), decoded(fwd, source[:-1], 8)]
            for (src, entries), filled in zip(lists, rerank_lists(lists, bwd, lm, NULL_WEIGHTS)):
                assert [e.hyp for e in filled] == [hyp for hyp, _ in entries]
                for e in filled:
                    assert e.channel == reference_marginal(bwd, e.hyp, src)
                    assert e.lm == float(logprobs(lm, [e.hyp])[0])

    def test_prefilled_slots_are_rescored(self):
        rng = random.Random(32)
        mix, fwd, bwd = random_models(rng)
        lm = self.interpolated(fwd)
        block = block_of([self.mixed_list(mix.datasets[0].pairs[0][0])])
        n = block.fwd.size
        prefilled = dataclasses.replace(block, channel=np.full(n, -111.0),
                                        lm=np.full(n, -222.0), combined=np.full(n, 555.0))
        w = NoisyChannelWeights(0.7, 1.1)
        assert nbest_lists(rerank(prefilled, bwd, lm, w)) == \
            nbest_lists(rerank(block, bwd, lm, w))

    @pytest.mark.parametrize("use_interpolated", [False, True])
    def test_block_equals_each_list_alone(self, use_interpolated):
        rng = random.Random(33)
        for _ in range(10):
            mix, fwd, bwd = random_models(rng, n_pairs=12)
            lm = self.interpolated(fwd) if use_interpolated else fwd.lm
            sources = [src for src, _ in mix.datasets[0].pairs[:6]]
            lists = [decoded(fwd, x, rng.randint(1, 9)) for x in sources]
            lists.append(self.mixed_list(sources[0]))
            w = NoisyChannelWeights(rng.uniform(0, 3), rng.uniform(0, 3))

            def bits(nb):
                return [(e.hyp, e.fwd.hex(), e.channel.hex(), e.lm.hex(), e.combined.hex())
                        for e in nb]

            block = rerank(block_of(lists), bwd, lm, w)
            assert block.sources == sources + [sources[0]]
            assert [bits(nb) for nb in nbest_lists(block)] == \
                [bits(rerank_one(nb, bwd, lm, w)) for nb in lists]

    def test_empty_block(self):
        rng = random.Random(34)
        _, fwd, bwd = random_models(rng)
        assert rerank_lists([], bwd, fwd.lm, NULL_WEIGHTS) == []

    def test_ties_keep_beam_order(self):
        # every A/B string of one length gets the same channel and lm score
        lm = train_lm([("A", "B"), ("B", "A")], 1, 0.5)
        bwd = LexModel((NULL, "A", "B"), ("x",), np.ones((3, 1)),
                       train_lm([("x",)], 1, 0.5), src_lang="tgt", tgt_lang="src")
        hyps = [("B", "B"), ("A", "B"), ("B", "A"), ("A", "A")]
        nb = (("x", "x"), [(h, -1.0) for h in hyps] + [(("A", "B"), -0.5), (("B", "B"), -2.0)])
        for w in (NULL_WEIGHTS, NoisyChannelWeights(2.0, 0.5)):
            for out in rerank_lists([nb, nb], bwd, lm, w):
                assert [(e.hyp, e.fwd) for e in out] == \
                    [(("A", "B"), -0.5)] + [(h, -1.0) for h in hyps] + [(("B", "B"), -2.0)]


class TestTuneLambdas:
    def test_returned_bleu_is_rerank_dev_bleu_under_ties(self):
        # every A/B string of one length gets the same fwd, channel and lm
        # score, so only the tie-break decides which hypothesis is scored
        fwd = LexModel((NULL, "x"), ("A", "B"), np.full((2, 2), 0.5),
                       train_lm([("A", "B"), ("B", "A")], 1, 0.5), beam=4, window=0)
        bwd = LexModel((NULL, "A", "B"), ("x",), np.ones((3, 1)),
                       train_lm([("x",)], 1, 0.5), src_lang="tgt", tgt_lang="src")
        dev = TaggedDataset("dev", SIDE_PARALLEL, "<d:in>",
                            pairs=((("x", "x"), ("A", "A")),
                                   (("x", "x", "x"), ("A", "A", "A"))))
        w, score = tune_lambdas(dev, fwd, bwd, fwd.lm, trials=4, seed=1, nbest=4,
                                eval_ctx=EvalContext())
        hyps = translate_corpus(fwd, [src for src, _ in dev.pairs], 4,
                                rerank_ctx=RerankContext(bwd, fwd.lm, w, nbest=4)).top_hyps()
        assert hyps[0] == ("A", "A")  # the first of the tied entries
        assert score == bleu(hyps, [ref for _, ref in dev.pairs])

    def test_single_trial_returns_null_pair(self):
        rng = random.Random(10)
        mix, fwd, bwd = random_models(rng)
        dev = mix.datasets[0]
        w, _ = tune_lambdas(dev, fwd, bwd, fwd.lm, trials=1, seed=3, nbest=4,
                            eval_ctx=EvalContext())
        assert w == NULL_WEIGHTS

    def test_dominates_null_weights(self):
        rng = random.Random(11)
        for seed in range(3):
            mix, fwd, bwd = random_models(rng, n_pairs=14)
            dev = mix.datasets[0]
            w, score = tune_lambdas(dev, fwd, bwd, fwd.lm, trials=8, seed=seed,
                                    nbest=6, eval_ctx=EvalContext())
            refs = [tgt for _, tgt in dev.pairs]
            sources = [src for src, _ in dev.pairs]
            tuned = translate_corpus(
                fwd, sources, 6, rerank_ctx=RerankContext(bwd, fwd.lm, w, nbest=6)).top_hyps()
            beam = translate_corpus(fwd, sources, 6).top_hyps()
            assert score == bleu(tuned, refs)
            assert bleu(tuned, refs) >= bleu(beam, refs) - 1e-12

    def test_deterministic_given_seed(self):
        rng = random.Random(12)
        mix, fwd, bwd = random_models(rng)
        dev = mix.datasets[0]
        a = tune_lambdas(dev, fwd, bwd, fwd.lm, trials=6, seed=9, nbest=4,
                         eval_ctx=EvalContext())
        b = tune_lambdas(dev, fwd, bwd, fwd.lm, trials=6, seed=9, nbest=4,
                         eval_ctx=EvalContext())
        assert a == b

    def test_sample_weights_space(self):
        weights = sample_weights(30, seed=1)
        assert weights[0] == NULL_WEIGHTS
        assert len(weights) == 30
        assert all(0.0 <= w.lambda1 <= 3.0 and 0.0 <= w.lambda2 <= 3.0
                   for w in weights)


class TestNbestFile:
    def test_round_trip(self, tmp_path):
        rng = random.Random(13)
        mix, fwd, bwd = random_models(rng)
        sources = [src for src, _ in mix.datasets[0].pairs[:4]]
        reranked = rerank(translate_corpus(fwd, sources[:3], 5), bwd, fwd.lm,
                          NoisyChannelWeights(1.0, 1.0))
        plain = translate_corpus(fwd, sources[3:], 4)  # unscored slots
        path = str(tmp_path / "nbest.txt")
        for block in (reranked, plain):
            write_nbest_file(block, path)
            loaded = read_nbest_file(path)
            assert loaded.sources == block.sources
            # repr round-trip is bit-exact
            assert nbest_lists(loaded) == nbest_lists(block)

    def write_lines(self, tmp_path, lines):
        path = tmp_path / "nbest.txt"
        path.write_text("#nbest v1\n" + "".join(line + "\n" for line in lines),
                        encoding="utf-8")
        return str(path)

    def test_well_formed_lines_parse(self, tmp_path):
        block = read_nbest_file(self.write_lines(
            tmp_path, ["#source 0 s0 s1", "0\t0\tt0 t1\t-1.5\t-\t-\t-",
                       "#source 1 ", "1\t0\tt2\t-0.5\t-\t-\t-"]))
        assert block.sources == [("s0", "s1"), ()]
        assert block.channel is None and block.lm is None and block.combined is None
        block = read_nbest_file(self.write_lines(
            tmp_path, ["#source 0 s0", "0\t0\tt2\t-0.5\t-2.0\t-3.0\t-4.0"]))
        assert nbest_lists(block) == [[(("t2",), -0.5, -2.0, -3.0, -4.0)]]

    @pytest.mark.parametrize("lines", [
        pytest.param(["#source 0 s0", "0\t0\tt0\tnotafloat\t-\t-\t-"], id="bad-fwd"),
        pytest.param(["#source 0 s0", "0\t0\tt0\t-1.0\t1e\t-\t-"], id="bad-slot"),
        pytest.param(["#source 0 s0", "x\t0\tt0\t-1.0\t-\t-\t-"], id="bad-id"),
        pytest.param(["#source 0 s0", "0\t0\tt0\t-1.0\t-\t-"], id="too-few-fields"),
        pytest.param(["#source 0 s0", "0\t0\tt0\t-1.0\t-\t-\t-\t-"], id="too-many-fields"),
        pytest.param(["0\t0\tt0\t-1.0\t-\t-\t-"], id="entry-before-source"),
        pytest.param(["#source 0 s0", "1\t0\tt0\t-1.0\t-\t-\t-"], id="id-past-end"),
        pytest.param(["#source 0 s0", "-1\t0\tt0\t-1.0\t-\t-\t-"], id="negative-id"),
    ])
    def test_malformed_line_is_data_error(self, tmp_path, lines):
        with pytest.raises(DataError, match=r"nbest\.txt:3"
                           if lines[0].startswith("#source") else r"nbest\.txt:2"):
            read_nbest_file(self.write_lines(tmp_path, lines))

    @pytest.mark.parametrize("lines, bad_line", [
        pytest.param(["#source 7 a b", "0\t0\tx\t-1.0\t-\t-\t-", "#source 3 c"], 2,
                     id="out-of-order"),
        pytest.param(["#source 0 a b", "#source 0 c"], 3, id="repeated"),
        pytest.param(["#source 0 a", "#source 2 c"], 3, id="skipped"),
        pytest.param(["#source x a"], 2, id="not-a-number"),
    ])
    def test_source_id_must_be_the_next_index(self, tmp_path, lines, bad_line):
        with pytest.raises(DataError, match=rf"nbest\.txt:{bad_line}: #source id"):
            read_nbest_file(self.write_lines(tmp_path, lines))
