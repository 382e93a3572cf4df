import random

import pytest

from deskmt.corpus import TAG_IN_DOMAIN
from deskmt.subword import (
    POLICY_SPACED,
    POLICY_UNSPACED,
    BpeModel,
    DataError,
    decode,
    encode,
    learn_bpe,
    load_bpe,
    save_bpe,
)


class TestLearnBpe:
    def test_first_merge_on_counted_pairs(self):
        # one word "aaab": adjacent pairs (a,a)x2, (a,b)x1 -> merge ("a","a")
        model = learn_bpe([("aaab",)], vocab_size=3)
        assert model.merges[0] == ("a", "a")

    def test_single_char_corpus_learns_nothing(self):
        model = learn_bpe([("a",), ("a",)], vocab_size=5)
        assert model.merges == ()

    def test_determinism(self):
        corpus = [("abab", "cd"), ("ab", "abcd")]
        m1 = learn_bpe(corpus, vocab_size=10)
        m2 = learn_bpe(corpus, vocab_size=10)
        assert m1.merges == m2.merges

    def test_corpus_order_does_not_matter(self):
        corpus = [("abab",), ("bcbc",), ("abc", "abc")]
        m1 = learn_bpe(corpus, vocab_size=12)
        m2 = learn_bpe(list(reversed(corpus)), vocab_size=12)
        assert m1.merges == m2.merges

    def test_inventory_grows_one_per_merge(self):
        corpus = [("abcabc", "ababab", "ccc")] * 3
        for size in range(3, 12):
            model = learn_bpe(corpus, vocab_size=size)
            assert model.inventory_size() == 3 + len(model.merges)
            assert model.inventory_size() <= size

    def test_stops_below_pair_threshold(self):
        # every pair occurs once: nothing reaches the >=2 bar
        model = learn_bpe([("ab", "cd", "ef")], vocab_size=100)
        assert model.merges == ()

    def test_vocab_size_below_chars_rejected(self):
        with pytest.raises(DataError):
            learn_bpe([("abcdef",)], vocab_size=3)

    def test_tiebreak_is_lexicographic(self):
        # (a,b) and (c,d) both occur twice; (a,b) merges first
        model = learn_bpe([("ab", "cd"), ("ab", "cd")], vocab_size=5)
        assert model.merges[0] == ("a", "b")


class TestEncode:
    def test_merge_replay_with_joiner(self):
        model = BpeModel(merges=(("a", "a"),), vocab_size_target=3,
                         joiner="##", symbols=("a", "b", "aa"))
        assert encode(("aaab",), model) == ("aa", "##a", "##b")

    def test_reserved_tokens_pass_through(self):
        model = learn_bpe([("abab",)] * 2, vocab_size=4)
        assert encode((TAG_IN_DOMAIN, "abab"), model)[0] == TAG_IN_DOMAIN

    def test_unknown_characters_become_singletons(self):
        model = learn_bpe([("abab",)] * 2, vocab_size=4)
        pieces = encode(("zq",), model)
        assert decode(pieces, model) == "zq"


class TestDecode:
    def test_joiner_removal(self):
        model = BpeModel(merges=(("a", "a"),), vocab_size_target=3)
        assert decode(("aa", "##a"), model, POLICY_SPACED) == "aaa"

    def test_unspaced_policy_joins_words(self):
        model = BpeModel(merges=(), vocab_size_target=3)
        assert decode(("ab", "cd"), model, POLICY_UNSPACED) == "abcd"

    def test_spaced_policy_keeps_word_breaks(self):
        model = BpeModel(merges=(), vocab_size_target=3)
        assert decode(("ab", "cd"), model, POLICY_SPACED) == "ab cd"

    def test_unknown_policy_rejected(self):
        model = BpeModel(merges=(), vocab_size_target=3)
        with pytest.raises(DataError):
            decode(("ab",), model, "mystery")


class TestRoundTrip:
    def test_random_sentences_round_trip(self):
        rng = random.Random(7)
        alphabet = "abcdefgh"
        corpus = [tuple("".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8)))
                        for _ in range(rng.randint(1, 10)))
                  for _ in range(300)]
        model = learn_bpe(corpus, vocab_size=60)
        assert model.merges  # the corpus is repetitive enough to learn something
        for sent in corpus:
            assert decode(encode(sent, model), model, POLICY_SPACED) == " ".join(sent)

    def test_round_trip_with_tags(self):
        corpus = [("abab", "baba")] * 4
        model = learn_bpe(corpus, vocab_size=8)
        sent = (TAG_IN_DOMAIN, "abab", "ba")
        assert decode(encode(sent, model), model) == " ".join(sent)


class TestSerialization:
    def test_save_load_round_trip(self, tmp_path):
        corpus = [("abcabc", "xyxy")] * 5
        model = learn_bpe(corpus, vocab_size=12)
        path = str(tmp_path / "bpe.txt")
        save_bpe(model, path)
        loaded = load_bpe(path)
        assert loaded.merges == model.merges
        assert loaded.joiner == model.joiner
        assert loaded.reserved == model.reserved
        assert loaded.symbols == model.symbols
        sent = ("abcabc", "xy")
        assert encode(sent, loaded) == encode(sent, model)

    @pytest.mark.parametrize("bad", ["abc", "a b c", "a  b", " a"])
    def test_malformed_merge_line_is_data_error(self, tmp_path, bad):
        model = learn_bpe([("abcabc", "xyxy")] * 5, vocab_size=12)
        path = str(tmp_path / "bpe.txt")
        save_bpe(model, path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(bad + "\n")
        line = 3 + len(model.merges)
        with pytest.raises(DataError, match=f"{path}:{line}"):
            load_bpe(path)

    def test_header_without_vocab_is_data_error(self, tmp_path):
        path = str(tmp_path / "bpe.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("#bpe v1 joiner=##\n#chars a b\na b\n")
        with pytest.raises(DataError, match=f"{path}:1"):
            load_bpe(path)
