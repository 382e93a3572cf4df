import math
import random

import numpy as np
import pytest

from deskmt.corpus import SIDE_PARALLEL, TaggedDataset, build_mix, swap_direction
from deskmt.lm import finetune_lm, train_lm
from deskmt.metrics import bleu
from deskmt.rerank import (
    NULL_WEIGHTS,
    DataError,
    NoisyChannelWeights,
    RerankContext,
    combined_score,
    fill_scores,
    read_nbest_file,
    rerank,
    sample_weights,
    tune_lambdas,
    write_nbest_file,
)
from deskmt.tm import (
    NULL,
    LexModel,
    NBestEntry,
    NBestList,
    channel_scores,
    em_train,
    translate_corpus,
    translate_nbest,
)
from deskmt.lm import logprob


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


class TestCombinedScore:
    def test_hand_arithmetic(self):
        assert combined_score(-2.0, -3.0, -5.0, NoisyChannelWeights(1.0, 0.5)) == -7.5
        assert combined_score(-1.0, -1.0, -1.0, NoisyChannelWeights(3.0, 3.0)) == -7.0

    def test_null_weights_reduce_to_fwd(self):
        assert combined_score(-2.5, -9.0, -4.0, NULL_WEIGHTS) == -2.5

    def test_nonfinite_rejected(self):
        with pytest.raises(DataError):
            combined_score(float("-inf"), -1.0, -1.0, NULL_WEIGHTS)

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
            nb = translate_nbest(fwd, x, 8)
            reranked = rerank(nb, bwd, fwd.lm, NULL_WEIGHTS)
            assert reranked.top().hyp == nb.top().hyp

    def test_channel_favored_entry_promoted(self):
        src = ("s0",)
        nb = NBestList(source=src, entries=[
            NBestEntry(hyp=("t0",), fwd=-1.0),
            NBestEntry(hyp=("t1",), fwd=-1.2),
        ])

        rng = random.Random(3)
        _, fwd, bwd = random_models(rng)
        scored = rerank(nb, bwd, fwd.lm, NoisyChannelWeights(3.0, 0.0))
        # verify against hand-computed combined scores
        ch0 = channel_scores(bwd, src, [("t0",)])[0]
        ch1 = channel_scores(bwd, src, [("t1",)])[0]
        c0 = -1.0 + 3.0 * ch0
        c1 = -1.2 + 3.0 * ch1
        expected_top = ("t0",) if c0 >= c1 else ("t1",)
        assert scored.top().hyp == expected_top
        assert scored.top().combined == pytest.approx(max(c0, c1))

    def test_idempotent(self):
        rng = random.Random(4)
        mix, fwd, bwd = random_models(rng)
        x = mix.datasets[0].pairs[0][0]
        nb = translate_nbest(fwd, x, 8)
        w = NoisyChannelWeights(1.2, 0.7)
        once = rerank(nb, bwd, fwd.lm, w)
        twice = rerank(once, bwd, fwd.lm, w)
        assert [e.hyp for e in once.entries] == [e.hyp for e in twice.entries]

    def test_constant_fwd_shift_preserves_ranking(self):
        rng = random.Random(6)
        mix, fwd, bwd = random_models(rng)
        x = mix.datasets[0].pairs[0][0]
        nb = translate_nbest(fwd, x, 8)
        w = NoisyChannelWeights(0.8, 0.4)
        base = rerank(nb, bwd, fwd.lm, w)
        shifted = NBestList(source=nb.source, entries=[
            NBestEntry(hyp=e.hyp, fwd=e.fwd + 5.0) for e in nb.entries])
        again = rerank(shifted, bwd, fwd.lm, w)
        assert [e.hyp for e in base.entries] == [e.hyp for e in again.entries]

    def test_fills_channel_and_lm_slots(self):
        rng = random.Random(7)
        mix, fwd, bwd = random_models(rng)
        nb = translate_nbest(fwd, mix.datasets[0].pairs[0][0], 5)
        out = rerank(nb, bwd, fwd.lm, NULL_WEIGHTS)
        for e in out.entries:
            assert e.channel is not None and e.lm is not None
            assert e.lm == pytest.approx(logprob(fwd.lm, e.hyp))

    def test_empty_list_rejected(self):
        rng = random.Random(8)
        _, fwd, bwd = random_models(rng)
        with pytest.raises(DataError):
            rerank(NBestList(source=("s0",), entries=[]), bwd, fwd.lm, NULL_WEIGHTS)


class TestFillScores:
    """The batched list scorer equals per-entry scoring bit for bit."""

    def mixed_list(self, source):
        # hypotheses of several lengths, with unknown and tagged symbols
        hyps = [("t0",), ("t1", "t2"), ("t3", "t0", "t1"), ("t2",),
                ("zz", "t1"), ("<bt>", "t0", "t0", "t0", "t1"), (), ("t1", "t3")]
        return NBestList(source=source, entries=[
            NBestEntry(hyp=h, fwd=-float(k)) for k, h in enumerate(hyps)])

    def interpolated(self, fwd):
        return finetune_lm(fwd.lm, [("t0", "t1"), ("t2", "t3", "t3"), ("zz",)], 0.4)

    @pytest.mark.parametrize("use_interpolated", [False, True])
    def test_equals_per_entry_scores(self, use_interpolated):
        rng = random.Random(31)
        for _ in range(20):
            mix, fwd, bwd = random_models(rng)
            lm = self.interpolated(fwd) if use_interpolated else fwd.lm
            source = mix.datasets[0].pairs[rng.randrange(len(mix.datasets[0].pairs))][0] + ("s9",)
            lists = [self.mixed_list(source), translate_nbest(fwd, source[:-1], 8)]
            for nb in lists:
                filled = fill_scores(nb, bwd, lm)
                assert [e.hyp for e in filled.entries] == [e.hyp for e in nb.entries]
                for e in filled.entries:
                    assert e.channel == channel_scores(bwd, nb.source, [e.hyp])[0]
                    assert e.lm == logprob(lm, e.hyp)

    def test_prefilled_slots_are_rescored(self):
        rng = random.Random(32)
        mix, fwd, bwd = random_models(rng)
        lm = self.interpolated(fwd)
        source = mix.datasets[0].pairs[0][0]
        nb = self.mixed_list(source)
        nb.entries[1].channel = -111.0
        nb.entries[2].lm = -222.0
        nb.entries[4].channel, nb.entries[4].lm = -333.0, -444.0
        assert fill_scores(nb, bwd, lm) == fill_scores(self.mixed_list(source), bwd, lm)


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
        w, score = tune_lambdas(dev, fwd, bwd, fwd.lm, trials=4, seed=1, nbest=4)
        lists = translate_corpus(fwd, [src for src, _ in dev.pairs], 4,
                                 rerank_ctx=RerankContext(bwd, fwd.lm, w, nbest=4))
        hyps = [nb.top().hyp for nb in lists]
        assert hyps[0] == ("A", "A")  # the first of the tied entries
        assert score == bleu(hyps, [ref for _, ref in dev.pairs])

    def test_single_trial_returns_null_pair(self):
        rng = random.Random(10)
        mix, fwd, bwd = random_models(rng)
        dev = mix.datasets[0]
        w, _ = tune_lambdas(dev, fwd, bwd, fwd.lm, trials=1, seed=3, nbest=4)
        assert w == NULL_WEIGHTS

    def test_dominates_null_weights(self):
        rng = random.Random(11)
        for seed in range(3):
            mix, fwd, bwd = random_models(rng, n_pairs=14)
            dev = mix.datasets[0]
            w, score = tune_lambdas(dev, fwd, bwd, fwd.lm, trials=8, seed=seed,
                                    nbest=6)
            refs = [tgt for _, tgt in dev.pairs]
            sources = [src for src, _ in dev.pairs]
            tuned = [nb.top().hyp for nb in translate_corpus(
                fwd, sources, 6, rerank_ctx=RerankContext(bwd, fwd.lm, w, nbest=6))]
            beam = [nb.top().hyp for nb in translate_corpus(fwd, sources, 6)]
            assert score == bleu(tuned, refs)
            assert bleu(tuned, refs) >= bleu(beam, refs) - 1e-12

    def test_deterministic_given_seed(self):
        rng = random.Random(12)
        mix, fwd, bwd = random_models(rng)
        dev = mix.datasets[0]
        a = tune_lambdas(dev, fwd, bwd, fwd.lm, trials=6, seed=9, nbest=4)
        b = tune_lambdas(dev, fwd, bwd, fwd.lm, trials=6, seed=9, nbest=4)
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
        lists = [rerank(translate_nbest(fwd, src, 5), bwd, fwd.lm,
                        NoisyChannelWeights(1.0, 1.0))
                 for src, _ in mix.datasets[0].pairs[:3]]
        lists.append(translate_nbest(fwd, mix.datasets[0].pairs[3][0], 4))  # unscored slots
        path = str(tmp_path / "nbest.txt")
        write_nbest_file(lists, path)
        loaded = read_nbest_file(path)
        assert len(loaded) == len(lists)
        for orig, back in zip(lists, loaded):
            assert back.source == orig.source
            for a, b in zip(orig.entries, back.entries):
                assert a.hyp == b.hyp
                assert a.fwd == b.fwd  # repr round-trip is bit-exact
                assert a.channel == b.channel
                assert a.lm == b.lm
                assert a.combined == b.combined

    def write_lines(self, tmp_path, lines):
        path = tmp_path / "nbest.txt"
        path.write_text("#nbest v1\n" + "".join(line + "\n" for line in lines),
                        encoding="utf-8")
        return str(path)

    def test_well_formed_lines_parse(self, tmp_path):
        path = self.write_lines(tmp_path, ["#source 0 s0 s1", "0\t0\tt0 t1\t-1.5\t-\t-\t-",
                                           "#source 1 ", "1\t0\tt2\t-0.5\t-2.0\t-3.0\t-4.0"])
        lists = read_nbest_file(path)
        assert [nb.source for nb in lists] == [("s0", "s1"), ()]
        assert lists[0].entries[0].channel is None
        assert lists[1].entries[0].combined == -4.0

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
