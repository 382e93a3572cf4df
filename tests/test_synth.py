import hashlib
from collections import Counter

import numpy as np
import pytest

from deskmt.synth import (
    MIN_TOPIC_TV,
    DataError,
    SynthSpec,
    default_synth_spec,
    gen_corpora,
    ground_truth,
    invert_ground_truth,
    load_spec,
    make_spec,
    save_spec,
    topic_tv_distance,
)


def small_spec(seed=0, **kw):
    return make_spec(vocab_size=30, seed=seed, **kw)


class TestGroundTruth:
    def spec_with(self, swap):
        lexicon = {"aa": "AA", "ab": "AB", "ba": "BA", "bb": "BB"}
        # weight vectors: only separation matters for validation
        return SynthSpec(vocab_size=4, lexicon=lexicon, swap_class=frozenset(swap),
                         in_weights=(8.0, 1.0, 1.0, 1.0),
                         out_weights=(1.0, 1.0, 1.0, 8.0),
                         noise_rate=0.0, seed=0, min_len=1, max_len=4)

    def test_plain_lexicon_mapping(self):
        spec = self.spec_with([])
        assert ground_truth(spec, ("aa", "ab")) == ("AA", "AB")

    def test_swap_rule(self):
        spec = self.spec_with(["aa"])
        assert ground_truth(spec, ("aa", "ab")) == ("AB", "AA")

    def test_left_to_right_non_overlapping(self):
        spec = self.spec_with(["aa", "ab"])
        # first pair swaps and consumes "ab", so "ab" cannot start a swap
        assert ground_truth(spec, ("aa", "ab", "ba")) == ("AB", "AA", "BA")

    def test_trailing_swap_symbol_unmoved(self):
        spec = self.spec_with(["aa"])
        assert ground_truth(spec, ("ab", "aa")) == ("AB", "AA")

    def test_length_preserved(self):
        spec = small_spec(3)
        rng = np.random.default_rng(0)
        vocab = spec.source_vocab
        for _ in range(100):
            sent = tuple(rng.choice(vocab, size=rng.integers(1, 9)))
            assert len(ground_truth(spec, sent)) == len(sent)

    def test_unknown_symbol_rejected(self):
        spec = self.spec_with([])
        with pytest.raises(DataError):
            ground_truth(spec, ("zz",))


class TestInvertibility:
    def test_round_trip_on_generated_sentences(self):
        spec = small_spec(5)
        bundle = gen_corpora(spec, {"parallel": 200, "mono_src": 50, "mono_tgt": 50,
                                    "dev": 10, "test": 10})
        for src, _ in bundle.parallel.pairs:
            assert invert_ground_truth(spec, ground_truth(spec, src)) == src
        for sent in bundle.mono_src.sentences:
            assert invert_ground_truth(spec, ground_truth(spec, sent)) == sent

    def test_generator_respects_swap_constraints(self):
        spec = small_spec(6)
        bundle = gen_corpora(spec, {"parallel": 300, "mono_src": 300, "mono_tgt": 300,
                                    "dev": 10, "test": 10})
        sc = spec.swap_class
        sentences = ([s for s, _ in bundle.parallel.pairs]
                     + list(bundle.mono_src.sentences))
        for sent in sentences:
            assert sent[-1] not in sc
            for a, b in zip(sent, sent[1:]):
                assert not (a in sc and b in sc)


class TestGenCorpora:
    def test_noise_free_splits_match_ground_truth(self):
        spec = small_spec(7, noise_rate=0.3)
        bundle = gen_corpora(spec, {"parallel": 50, "mono_src": 10, "mono_tgt": 10,
                                    "dev": 40, "test": 40})
        for src, tgt in list(bundle.dev.pairs) + list(bundle.test.pairs):
            assert tgt == ground_truth(spec, src)

    def test_parallel_noise_applied(self):
        spec = small_spec(8, noise_rate=0.3)
        bundle = gen_corpora(spec, {"parallel": 200, "mono_src": 10, "mono_tgt": 10,
                                    "dev": 10, "test": 10})
        corrupted = sum(tgt != ground_truth(spec, src)
                        for src, tgt in bundle.parallel.pairs)
        assert corrupted > 20

    def test_same_seed_same_bundle(self):
        spec = small_spec(9)
        sizes = {"parallel": 30, "mono_src": 30, "mono_tgt": 30, "dev": 5, "test": 5}
        a = gen_corpora(spec, sizes)
        b = gen_corpora(spec, sizes)
        assert a.parallel.pairs == b.parallel.pairs
        assert a.mono_src.sentences == b.mono_src.sentences
        assert a.mono_tgt.sentences == b.mono_tgt.sentences

    def test_empirical_domain_mismatch(self):
        spec = small_spec(10)
        bundle = gen_corpora(spec, {"parallel": 10, "mono_src": 4000, "mono_tgt": 4000,
                                    "dev": 5, "test": 5})
        src_counts = Counter(t for s in bundle.mono_src.sentences for t in s)
        # map the out-of-domain target pool back to source symbols
        tgt_counts = Counter(t for s in bundle.mono_tgt.sentences
                             for t in invert_ground_truth(spec, s))
        vocab = spec.source_vocab
        p = np.array([src_counts[v] for v in vocab], dtype=float)
        q = np.array([tgt_counts[v] for v in vocab], dtype=float)
        assert topic_tv_distance(p, q) > 0.2

    def test_sizes_respected(self):
        spec = small_spec(11)
        sizes = {"parallel": 13, "mono_src": 7, "mono_tgt": 9, "dev": 3, "test": 4}
        bundle = gen_corpora(spec, sizes)
        assert len(bundle.parallel.pairs) == 13
        assert len(bundle.mono_src.sentences) == 7
        assert len(bundle.mono_tgt.sentences) == 9
        assert len(bundle.dev.pairs) == 3
        assert len(bundle.test.pairs) == 4

    def test_zero_size_rejected(self):
        with pytest.raises(DataError):
            gen_corpora(small_spec(12), {"parallel": 0, "mono_src": 1, "mono_tgt": 1,
                                         "dev": 1, "test": 1})

    def test_lengths_within_bounds(self):
        spec = small_spec(13, min_len=2, max_len=5)
        bundle = gen_corpora(spec, {"parallel": 100, "mono_src": 100, "mono_tgt": 100,
                                    "dev": 10, "test": 10})
        for src, _ in bundle.parallel.pairs:
            assert 2 <= len(src) <= 5


class TestSpec:
    def test_topic_separation_validated(self):
        lexicon = {"aa": "AA", "ab": "AB"}
        with pytest.raises(DataError):
            SynthSpec(vocab_size=2, lexicon=lexicon, swap_class=frozenset(),
                      in_weights=(1.0, 1.0), out_weights=(1.0, 1.0),
                      noise_rate=0.0, seed=0)

    def test_default_spec_is_separated(self):
        spec = default_synth_spec()
        assert topic_tv_distance(spec.in_weights, spec.out_weights) > 0.2
        assert spec.vocab_size == 200

    def test_non_bijective_lexicon_rejected(self):
        with pytest.raises(DataError):
            SynthSpec(vocab_size=2, lexicon={"aa": "AA", "ab": "AA"},
                      swap_class=frozenset(), in_weights=(8.0, 1.0),
                      out_weights=(1.0, 8.0), noise_rate=0.0, seed=0)

    def test_spec_file_round_trip(self, tmp_path):
        spec = small_spec(14)
        path = str(tmp_path / "spec.json")
        save_spec(spec, path)
        assert load_spec(path) == spec

    def test_make_spec_deterministic(self):
        assert make_spec(50, seed=3) == make_spec(50, seed=3)

    @pytest.mark.parametrize("vocab_size", [4, 5, 6, 7, 8, 10, 12, 16, 24, 30])
    def test_small_vocab_seed_sweep_never_raises(self, vocab_size):
        for seed in range(60):
            spec = make_spec(vocab_size, seed=seed)
            assert topic_tv_distance(spec.in_weights, spec.out_weights) > MIN_TOPIC_TV

    @pytest.mark.parametrize("vocab_size,seed,digest", [
        (200, 1, "f93d927220c269b7"), (200, 2, "f76e61a258bc4e7a"),
        (200, 3, "6bdca9959fd31ce7"), (24, 5, "ebc96659ba2ee362"),
        (30, 14, "61500c2e4e4352c6"),
    ])
    def test_first_draw_specs_keep_their_bytes(self, tmp_path, vocab_size, seed, digest):
        # specs whose first permutation clears the floor are never redrawn
        path = tmp_path / "spec.json"
        save_spec(make_spec(vocab_size, seed=seed), str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == digest

    def test_unreachable_floor_raises(self):
        # even a fully reversed profile blended at 0.1 stays under the floor
        with pytest.raises(DataError, match="redraws"):
            make_spec(8, seed=0, mismatch=0.1)
