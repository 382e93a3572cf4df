import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

import deskmt.subword as subword
from deskmt.corpus import (
    SIDE_MONO_SOURCE,
    SIDE_PARALLEL,
    TAG_IN_DOMAIN,
    UNK_TOKEN,
    TaggedDataset,
)
from deskmt.subword import (
    DEFAULT_JOINER,
    DEFAULT_RESERVED,
    POLICY_SPACED,
    POLICY_UNSPACED,
    BpeModel,
    DataError,
    decode,
    encode,
    encode_dataset,
    learn_bpe,
    load_bpe,
    save_bpe,
)
from deskmt.util import read_text


# -- reference: the full-recount learner and per-token replay ---------------
# Kept verbatim as the specification that the incremental learner and the
# memoized encoder must match.

def ref_merge_pass(pieces, left, right):
    out = []
    i = 0
    while i < len(pieces):
        if i + 1 < len(pieces) and pieces[i] == left and pieces[i + 1] == right:
            out.append(left + right)
            i += 2
        else:
            out.append(pieces[i])
            i += 1
    return out


def ref_word_pieces(word, merges):
    pieces = list(word)
    for left, right in merges:
        if len(pieces) > 1:
            pieces = ref_merge_pass(pieces, left, right)
    return pieces


def ref_learn_bpe(corpus, vocab_size, *, joiner=DEFAULT_JOINER,
                  reserved=DEFAULT_RESERVED):
    if not corpus:
        raise DataError("cannot learn BPE from an empty corpus")
    word_freq = Counter(tok for sent in corpus for tok in sent if tok not in reserved)
    chars = sorted({ch for word in word_freq for ch in word})
    if vocab_size < len(chars):
        raise DataError(
            f"vocab_size {vocab_size} is smaller than the character inventory ({len(chars)})")

    words = {w: list(w) for w in word_freq}
    merges = []
    symbols = list(chars)
    while len(symbols) < vocab_size:
        pair_freq = Counter()
        for word, pieces in words.items():
            freq = word_freq[word]
            for i in range(len(pieces) - 1):
                pair_freq[(pieces[i], pieces[i + 1])] += freq
        if not pair_freq:
            break
        best = min(pair_freq, key=lambda p: (-pair_freq[p], p))
        if pair_freq[best] < 2:
            break
        merges.append(best)
        symbols.append(best[0] + best[1])
        for word, pieces in words.items():
            if len(pieces) > 1:
                words[word] = ref_merge_pass(pieces, *best)
    return BpeModel(merges=tuple(merges), vocab_size_target=vocab_size,
                    joiner=joiner, reserved=reserved, symbols=tuple(symbols))


def ref_encode(sentence, model):
    out = []
    for token in sentence:
        if token in model.reserved:
            out.append(token)
            continue
        pieces = ref_word_pieces(token, model.merges)
        out.append(pieces[0])
        out.extend(model.joiner + p for p in pieces[1:])
    return tuple(out)


# Few letters make long runs of one character ("aaaa") and equal-count ties
# likely; reserved tokens are mixed in, and "z" never occurs at learn time.
LEARN_LETTERS = "abc"
words_st = st.text(alphabet=LEARN_LETTERS, min_size=1, max_size=8)
tokens_st = st.one_of(words_st, words_st, words_st,
                      st.sampled_from(sorted(DEFAULT_RESERVED)))
sentences_st = st.lists(tokens_st, min_size=1, max_size=6).map(tuple)
unseen_st = st.text(alphabet=LEARN_LETTERS + "z", min_size=1, max_size=8)
probe_st = st.lists(st.one_of(unseen_st, st.sampled_from(sorted(DEFAULT_RESERVED))),
                    min_size=1, max_size=6).map(tuple)


class TestMatchesFullRecount:
    @settings(max_examples=300, deadline=None)
    @given(corpus=st.lists(sentences_st, min_size=1, max_size=12),
           extra=st.integers(min_value=0, max_value=40),
           probes=st.lists(probe_st, max_size=4))
    @example(corpus=[("aaaa",), ("aaaa", "aaa")], extra=10, probes=[("aaaaa",)])
    @example(corpus=[("ab", "cd", "ab", "cd")], extra=1, probes=[("abcd", "z")])
    @example(corpus=[(TAG_IN_DOMAIN, "abab", UNK_TOKEN)] * 3, extra=0,
             probes=[(UNK_TOKEN, "bazab")])
    def test_learn_and_encode_match_reference(self, tmp_path_factory, corpus, extra,
                                              probes):
        n_chars = len({ch for sent in corpus for tok in sent
                       if tok not in DEFAULT_RESERVED for ch in tok})
        vocab_size = n_chars + extra  # extra 0: no merge; large: runs out of pairs
        want = ref_learn_bpe(corpus, vocab_size)
        got = learn_bpe(corpus, vocab_size)
        assert got.merges == want.merges
        assert got.symbols == want.symbols
        path = str(tmp_path_factory.mktemp("bpe") / "bpe.txt")
        assert save_bpe(got, path) == save_bpe(want, path)

        sentences = list(corpus) + probes
        for sent in sentences:
            assert encode(sent, got) == ref_encode(sent, want)
        mono = TaggedDataset("m", SIDE_MONO_SOURCE, "<mono>", sentences=tuple(sentences))
        assert encode_dataset(mono, got).sentences == \
            tuple(ref_encode(s, want) for s in sentences)
        para = TaggedDataset("p", SIDE_PARALLEL, TAG_IN_DOMAIN,
                             pairs=tuple(zip(sentences, reversed(sentences))))
        assert encode_dataset(para, got).pairs == \
            tuple((ref_encode(s, want), ref_encode(t, want)) for s, t in para.pairs)

    def test_empty_and_too_small_vocab_match_reference(self):
        for corpus, size in (([], 5), ([("abcdef",)], 3)):
            with pytest.raises(DataError) as want:
                ref_learn_bpe(corpus, size)
            with pytest.raises(DataError) as got:
                learn_bpe(corpus, size)
            assert str(got.value) == str(want.value)


class TestEncodeDatasetSegmentsOnce:
    def test_one_segmentation_per_distinct_word(self, monkeypatch):
        model = learn_bpe([("abab", "abba", "baab")] * 3, vocab_size=8)
        ds = TaggedDataset("p", SIDE_PARALLEL, TAG_IN_DOMAIN, pairs=(
            ((TAG_IN_DOMAIN, "abab", "abab", "zz"), ("abba", UNK_TOKEN, "abab")),
            (("baab", "abab"), ("zz", "abba", "abba")),
        ))
        want = tuple((ref_encode(s, model), ref_encode(t, model)) for s, t in ds.pairs)
        calls = Counter()
        real = subword._word_pieces

        def counting(word, merges):
            calls[word] += 1
            return real(word, merges)

        monkeypatch.setattr(subword, "_word_pieces", counting)
        assert encode_dataset(ds, model).pairs == want
        assert calls == Counter({"abab": 1, "abba": 1, "baab": 1, "zz": 1})
        calls.clear()
        assert encode_dataset(ds, model).pairs == want
        assert encode(("abab", "zz"), model) == ref_encode(("abab", "zz"), model)
        assert not calls  # the model keeps each word's pieces
        fresh = learn_bpe([("abab", "abba", "baab")] * 3, vocab_size=8)
        assert fresh == model
        encode_dataset(ds, fresh)
        assert sum(calls.values()) == 4  # a model of its own segments again


# Merge lists as a merge file may hold them: any order, repeated lines (16
# draws from 49 pairs), and pairs of symbols that earlier merges make.
_MERGE_SYMBOLS = ("a", "b", "c", "aa", "ab", "bc", "abc")
_merges_st = st.lists(st.tuples(st.sampled_from(_MERGE_SYMBOLS),
                                st.sampled_from(_MERGE_SYMBOLS)), max_size=16).map(tuple)


class TestJumpToTheNextMerge:
    """`_word_pieces` jumps to the next merge that applies; it equals the
    replay of every merge in order."""

    @settings(max_examples=400, deadline=None)
    @given(merges=_merges_st, words=st.lists(st.text(alphabet="abcz", min_size=1,
                                                     max_size=10), min_size=1, max_size=6))
    @example(merges=(("a", "b"), ("ab", "c"), ("b", "c"), ("a", "bc")),
             words=["abc", "abcabc", "bcabc", "aabcc"])
    @example(merges=(("a", "a"), ("a", "a"), ("aa", "a"), ("a", "a")),
             words=["a" * k for k in range(1, 9)])
    @example(merges=(("c", "bc"), ("b", "c"), ("c", "bc")), words=["cbc"])
    def test_equals_sequential_replay(self, merges, words):
        model = BpeModel(merges=merges, vocab_size_target=0)
        for word in words:
            assert subword._word_pieces(word, model._ranks) == ref_word_pieces(word, merges)

    def test_duplicate_merge_lines_from_a_file(self, tmp_path):
        # "abc" is made by two splits, ab+c before a+bc; (c, bc) is listed
        # twice and applies only at its second line, once (b, c) has made "bc"
        merges = (("a", "b"), ("ab", "c"), ("c", "bc"), ("b", "c"), ("a", "bc"),
                  ("abc", "abc"), ("c", "bc"), ("ab", "c"))
        path = tmp_path / "bpe.txt"
        path.write_text("#bpe v1 vocab=10 joiner=## reserved=\n#chars a b c\n"
                        + "".join(f"{l} {r}\n" for l, r in merges), encoding="utf-8")
        model = load_bpe(str(path))
        assert model.merges == merges
        sent = ("abcabc", "aabbcc", "babcab", "cab", "cbc", "acbc")
        assert encode(sent, model) == ref_encode(sent, model)
        assert encode(("abcabc", "cbc"), model) == ("abcabc", "cbc")


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
        text = save_bpe(model, path)
        assert read_text(path, "bpe file") == text
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
