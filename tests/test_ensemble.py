import math
import random

import numpy as np
import pytest

from deskmt.corpus import SIDE_PARALLEL, TaggedDataset, build_mix, swap_direction
from deskmt.ensemble import DataError, Ensemble
from deskmt.lm import train_lm
from deskmt.rerank import fill_scores
from deskmt.tm import NULL, LexModel, em_train, translate_nbest


def mix_for(seed, n_pairs=10):
    rng = random.Random(seed)
    pairs = []
    for _ in range(n_pairs):
        length = rng.randint(1, 4)
        pairs.append((tuple(rng.choice("abcd") for _ in range(length)),
                      tuple(rng.choice("wxyz") for _ in range(length))))
    return build_mix([TaggedDataset("d", SIDE_PARALLEL, "<t>", pairs=tuple(pairs))])


def trained_members(k, seed=0):
    mix = mix_for(seed)
    return mix, [em_train(mix, iterations=i + 1, window=1, lm_weight=0.4)
                 for i in range(k)]


def varied_members(mix):
    """Members over one mix whose LMs and decoder settings all differ."""
    settings = [dict(lm_order=3, lm_weight=0.4, beam=3, window=1),
                dict(lm_order=2, lm_k=0.1, lm_weight=0.9, beam=6, window=2),
                dict(lm_order=1, lm_weight=0.0, beam=2, window=0)]
    return [em_train(mix, iterations=i + 1, **kw) for i, kw in enumerate(settings)]


def loop_mean(members):
    t = members[0].t.copy()
    for m in members[1:]:
        t += m.t
    t /= len(members)
    return t


def hand_built(members):
    """A plain LexModel with the mean table and the first member's LM and settings."""
    first = members[0]
    return LexModel(first.src_vocab, first.tgt_vocab, loop_mean(members), first.lm,
                    beam=first.beam, window=first.window, lm_weight=first.lm_weight,
                    src_lang=first.src_lang, tgt_lang=first.tgt_lang,
                    unk_floor=first.unk_floor)


def entries(nbest):
    return [(e.hyp, e.fwd, e.channel, e.lm) for e in nbest.entries]


class TestStepLogprob:
    def test_average_of_equal_members(self):
        _, members = trained_members(2, seed=1)
        m = members[0]
        assert Ensemble([m, m]).t.tobytes() == m.t.tobytes()

    def test_mean_of_probabilities(self):
        lm = train_lm([("x",)], 1, 0.5)
        t1 = np.array([[0.0, 1.0], [0.2, 0.8]])
        t2 = np.array([[0.0, 1.0], [0.4, 0.6]])
        m1 = LexModel((NULL, "a"), ("x", "y"), t1, lm)
        m2 = LexModel((NULL, "a"), ("x", "y"), t2, lm)
        e = Ensemble([m1, m2])
        assert e.t[e.src_id["a"], e.tgt_id["x"]] == pytest.approx(0.3)

    def test_k1_identity(self):
        _, members = trained_members(1, seed=2)
        e = Ensemble(members)
        assert e.t.tobytes() == members[0].t.tobytes()
        assert e.t is not members[0].t

    def test_table_is_the_bit_equal_mean(self):
        mix = mix_for(11)
        members = varied_members(mix)
        assert Ensemble(members).t.tobytes() == loop_mean(members).tobytes()


class TestEnsembleNbest:
    def test_k1_bitwise_identity(self):
        mix, members = trained_members(1, seed=3)
        x = mix.datasets[0].pairs[0][0]
        single = translate_nbest(members[0], x, 6)
        ens = translate_nbest(Ensemble(members), x, 6)
        assert [(a.hyp, a.fwd) for a in single.entries] == \
               [(b.hyp, b.fwd) for b in ens.entries]

    def test_identical_members_match_single(self):
        mix, members = trained_members(1, seed=4)
        m = members[0]
        x = mix.datasets[0].pairs[1][0]
        single = translate_nbest(m, x, 6)
        ens = translate_nbest(Ensemble([m, m]), x, 6)
        assert [(a.hyp, a.fwd) for a in single.entries] == \
               [(b.hyp, b.fwd) for b in ens.entries]

    def test_disagreeing_one_hot_members(self):
        lm = train_lm([("x", "y"), ("y", "x")], 2, 0.5)
        t1 = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])  # a->x, b->y
        t2 = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 1.0]])  # a->y, b->y
        m1 = LexModel((NULL, "a", "b"), ("x", "y"), t1, lm, lm_weight=0.0, beam=8)
        m2 = LexModel((NULL, "a", "b"), ("x", "y"), t2, lm, lm_weight=0.0, beam=8)
        nb = translate_nbest(Ensemble([m1, m2]), ("a", "b"), 4)
        # averaged: t(x|a)=0.5, t(y|a)=0.5, t(y|b)=1 -> both "x y" and "y y" at
        # ln 0.5; lexicographic tie-break prefers "x y"
        assert nb.top().hyp == ("x", "y")
        # brute force over the 2-symbol input space confirms the averaged argmax
        scores = {}
        for h1 in ["x", "y"]:
            for h2 in ["x", "y"]:
                p1 = (t1[1, ["x", "y"].index(h1)] + t2[1, ["x", "y"].index(h1)]) / 2
                p2 = (t1[2, ["x", "y"].index(h2)] + t2[2, ["x", "y"].index(h2)]) / 2
                if p1 > 0 and p2 > 0:
                    scores[(h1, h2)] = math.log(p1) + math.log(p2)
        best = max(sorted(scores), key=lambda k: scores[k])
        assert nb.top().hyp == best

    def test_permutation_invariance(self):
        mix, members = trained_members(3, seed=5)
        x = mix.datasets[0].pairs[0][0]
        base = translate_nbest(Ensemble(members), x, 5)
        perm = translate_nbest(Ensemble([members[2], members[0], members[1]]), x, 5)
        assert [e.hyp for e in base.entries] == [e.hyp for e in perm.entries]
        for a, b in zip(base.entries, perm.entries):
            assert a.fwd == pytest.approx(b.fwd, abs=1e-12)

    def test_averaged_rows_stay_normalized(self):
        _, members = trained_members(3, seed=6)
        sums = Ensemble(members).t.sum(axis=1)
        assert np.allclose(sums[sums > 0], 1.0, atol=1e-9)

    def test_decodes_as_mean_table_with_first_members_lm_and_settings(self):
        mix = mix_for(12)
        members = varied_members(mix)
        ens, hand = Ensemble(members), hand_built(members)
        assert ens.lm is members[0].lm
        for src, _ in mix.datasets[0].pairs[:6]:
            for n in (1, 4, 12):
                assert entries(translate_nbest(ens, src, n)) == \
                    entries(translate_nbest(hand, src, n))

    def test_channel_scores_as_mean_table(self):
        mix = mix_for(13)
        forward = em_train(mix, 2, lm_order=2)
        backward = varied_members(swap_direction(mix))
        ens, hand = Ensemble(backward), hand_built(backward)
        for src, _ in mix.datasets[0].pairs[:6]:
            nb = translate_nbest(forward, src, 8)
            got = entries(fill_scores(nb, ens, forward.lm))
            assert got == entries(fill_scores(nb, hand, forward.lm))
            assert all(ch is not None for _, _, ch, _ in got)


class TestValidation:
    def test_empty_rejected(self):
        with pytest.raises(DataError):
            Ensemble([])

    def test_direction_mismatch_rejected(self):
        mix, members = trained_members(1, seed=7)
        other = em_train(mix, iterations=1, src_lang="tgt", tgt_lang="src")
        with pytest.raises(DataError):
            Ensemble([members[0], other])

    def test_vocab_mismatch_rejected(self):
        _, members_a = trained_members(1, seed=8)
        _, members_b = trained_members(1, seed=9)
        if members_a[0].src_vocab != members_b[0].src_vocab:
            with pytest.raises(DataError):
                Ensemble([members_a[0], members_b[0]])

    def test_manifest_lists_member_hashes(self):
        _, members = trained_members(2, seed=10)
        doc = Ensemble(members).artifact()
        assert doc["kind"] == "ensemble"
        assert len(doc["members"]) == 2
        assert all(isinstance(h, str) and len(h) == 64 for h in doc["members"])
