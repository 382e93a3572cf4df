import random

import numpy as np
import pytest

from deskmt.augment import DataError, back_translate, self_train
from deskmt.corpus import (
    SIDE_MONO_SOURCE,
    SIDE_MONO_TARGET,
    SIDE_PARALLEL,
    TAG_BACK_TRANSLATED,
    TAG_SELF_TRAINED,
    TaggedDataset,
    build_mix,
    swap_direction,
)
from deskmt.lm import train_lm
from deskmt.rerank import NoisyChannelWeights, RerankContext
from deskmt.tm import DEFAULT_NBEST, NULL, LexModel, em_train


def identity_model(vocab, direction=("src", "tgt"), lm_weight=0.0):
    """One-hot copy model: every symbol translates to itself."""
    src = (NULL,) + tuple(vocab)
    t = np.zeros((len(src), len(vocab)))
    for i, sym in enumerate(vocab):
        t[i + 1, i] = 1.0
    lm = train_lm([tuple(vocab)], 2, 0.5)
    return LexModel(src, tuple(vocab), t, lm, lm_weight=lm_weight,
                    src_lang=direction[0], tgt_lang=direction[1])


def mono(name, side, sentences):
    return TaggedDataset(name, side, "<mono>",
                         sentences=tuple(tuple(s.split()) for s in sentences))


class TestBackTranslate:
    def test_identity_model_copies(self):
        g = identity_model(["x", "y"], direction=("tgt", "src"))
        mt = mono("mt", SIDE_MONO_TARGET, ["x y"])
        ds = back_translate(g, mt, DEFAULT_NBEST)
        assert ds.pairs == ((("x", "y"), ("x", "y")),)
        assert ds.tag == TAG_BACK_TRANSLATED

    def test_output_size_matches_input(self):
        rng = random.Random(1)
        g = identity_model(["a", "b", "c"], direction=("tgt", "src"))
        sentences = [" ".join(rng.choice("abc") for _ in range(rng.randint(1, 4)))
                     for _ in range(25)]
        ds = back_translate(g, mono("mt", SIDE_MONO_TARGET, sentences), DEFAULT_NBEST)
        assert len(ds.pairs) + ds.dropped == 25
        assert ds.dropped == 0

    def test_targets_preserved_verbatim(self):
        g = identity_model(["a", "b"], direction=("tgt", "src"))
        sentences = ["a b", "b a", "a"]
        ds = back_translate(g, mono("mt", SIDE_MONO_TARGET, sentences), DEFAULT_NBEST)
        assert [" ".join(t) for _, t in ds.pairs] == sentences

    def test_direction_mismatch_rejected(self):
        f = identity_model(["a"], direction=("src", "tgt"))
        with pytest.raises(DataError):
            back_translate(f, mono("mt", SIDE_MONO_TARGET, ["a"]), DEFAULT_NBEST)

    def test_wrong_side_rejected(self):
        g = identity_model(["a"], direction=("tgt", "src"))
        with pytest.raises(DataError):
            back_translate(g, mono("ms", SIDE_MONO_SOURCE, ["a"]), DEFAULT_NBEST)

    def test_all_unknown_outputs_dropped(self):
        g = identity_model(["a"], direction=("tgt", "src"))
        ds = back_translate(g, mono("mt", SIDE_MONO_TARGET, ["zzz qqq", "a"]),
                            DEFAULT_NBEST)
        assert ds.dropped == 1
        assert len(ds.pairs) == 1


class TestSelfTrain:
    def test_identity_model_copies(self):
        f = identity_model(["x", "y"])
        ms = mono("ms", SIDE_MONO_SOURCE, ["x y", "y"])
        ds = self_train(f, ms, DEFAULT_NBEST)
        assert ds.pairs == ((("x", "y"), ("x", "y")), (("y",), ("y",)))
        assert ds.tag == TAG_SELF_TRAINED

    def test_sources_preserved_and_tagged_in_mix(self):
        f = identity_model(["a", "b"])
        sentences = ["a b", "b"]
        ds = self_train(f, mono("ms", SIDE_MONO_SOURCE, sentences), DEFAULT_NBEST)
        assert [" ".join(s) for s, _ in ds.pairs] == sentences
        mix = build_mix([ds])
        assert [d.tag for d in mix.datasets] == [TAG_SELF_TRAINED]
        assert [" ".join(s) for s, _ in mix.weighted_pairs()] == sentences

    def test_direction_mismatch_rejected(self):
        g = identity_model(["a"], direction=("tgt", "src"))
        with pytest.raises(DataError):
            self_train(g, mono("ms", SIDE_MONO_SOURCE, ["a"]), DEFAULT_NBEST)


class TestRerankDecoding:
    def build_scenario(self):
        """Ambiguous forward model; channel model prefers the second candidate."""
        rng = random.Random(11)
        pairs = [(("a",), ("x",))] * 3 + [(("a",), ("y",))] * 2
        mix = build_mix([TaggedDataset("p", SIDE_PARALLEL, "<t>",
                                       pairs=tuple(pairs))])
        f = em_train(mix, iterations=2, lm_weight=0.0, beam=4)
        # backward model maps y->a strongly, x->a weakly
        bpairs = [(("y",), ("a",))] * 5 + [(("x",), ("q",))] * 4 + [(("x",), ("a",))]
        bmix = build_mix([TaggedDataset("b", SIDE_PARALLEL, "<t>",
                                        pairs=tuple(bpairs))])
        g = em_train(bmix, iterations=3, src_lang="tgt", tgt_lang="src")
        return f, g

    def test_rerank_flips_beam_choice(self):
        f, g = self.build_scenario()
        ms = mono("ms", SIDE_MONO_SOURCE, ["a"])
        beam_ds = self_train(f, ms, DEFAULT_NBEST)
        ctx = RerankContext(g, f.lm, NoisyChannelWeights(3.0, 0.0), nbest=2)
        rr_ds = self_train(f, ms, DEFAULT_NBEST, rerank_ctx=ctx)
        assert beam_ds.pairs[0][1] == ("x",)  # forward-favored
        assert rr_ds.pairs[0][1] == ("y",)    # channel-favored


class TestGeneration:
    def test_deterministic(self):
        rng = random.Random(13)
        pairs = tuple((tuple(rng.choice("ab") for _ in range(rng.randint(1, 3))),
                       tuple(rng.choice("xy") for _ in range(rng.randint(1, 3))))
                      for _ in range(12))
        mix = build_mix([TaggedDataset("p", SIDE_PARALLEL, "<t>", pairs=pairs)])
        g = em_train(swap_direction(mix), iterations=2, src_lang="tgt",
                     tgt_lang="src", window=1, lm_weight=0.4)
        mt = mono("mt", SIDE_MONO_TARGET, ["x y", "y x", "x"])
        a = back_translate(g, mt, DEFAULT_NBEST, target_lang="tgt")
        b = back_translate(g, mt, DEFAULT_NBEST, target_lang="tgt")
        assert a.pairs == b.pairs
