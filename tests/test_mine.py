import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import deskmt.mine as mine_module
import deskmt.tm as tm_module
from deskmt.corpus import build_mix, swap_direction
from deskmt.lm import train_lm
from deskmt.mine import (
    DataError,
    DocMatch,
    WebDoc,
    _align,
    _jaccards,
    _lev_sims,
    _match_blocks,
    build_lexicon,
    greedy_match,
    load_doc_dir,
    load_url_index,
    match_documents,
    mine_bitext,
)
from deskmt.synth import gen_corpora, make_spec
from deskmt.tm import NULL, LexModel, cross_channel_scores, em_train
from test_mine_golden import FLOORS, THRESHOLDS, golden_inputs
from test_tm import reference_marginal

pytestmark = pytest.mark.hashseed


def pair_lev_sim(a, b):
    """The URL similarity of one pair: `_lev_sims` of one URL a side."""
    return float(_lev_sims([a], [b])[0, 0])


def pair_jaccard(a, b, lexicon):
    """The token similarity of one document pair: `_jaccards` of one
    document a side."""
    return float(_jaccards([a], [b], lexicon)[0, 0])


def align_pair(doc_a, doc_b, model, floor):
    """The sentence pairs of one document pair: `_align` of a list of one."""
    return _align([(doc_a, doc_b)], model, floor)


def greedy_oracle(sims, threshold):
    """Brute-force simulation: repeatedly take the best remaining pair."""
    remaining = [(i, j) for i in range(len(sims)) for j in range(len(sims[i]))]
    used_a, used_b, out = set(), set(), []
    while True:
        best = None
        for i, j in remaining:
            if i in used_a or j in used_b or sims[i][j] < threshold:
                continue
            key = (-sims[i][j], i, j)
            if best is None or key < best[0]:
                best = (key, i, j)
        if best is None:
            return out
        _, i, j = best
        used_a.add(i)
        used_b.add(j)
        out.append((i, j))


def one_hot_model(mapping, extra_src=(), extra_tgt=()):
    src = (NULL,) + tuple(sorted(set(mapping) | set(extra_src)))
    tgt = tuple(sorted(set(mapping.values()) | set(extra_tgt)))
    t = np.zeros((len(src), len(tgt)))
    for s, y in mapping.items():
        t[src.index(s), tgt.index(y)] = 1.0
    lm = train_lm([tgt], 1, 0.5)
    return LexModel(src, tgt, t, lm)


def textbook_distance(a, b):
    """Wagner-Fischer edit distance over the full (|a|+1) x (|b|+1) table."""
    d = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        d[i][0] = i
    for j in range(len(b) + 1):
        d[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1,
                          d[i - 1][j - 1] + (a[i - 1] != b[j - 1]))
    return d[len(a)][len(b)]


def textbook_lev_sim(a, b):
    if not a and not b:
        return 1.0
    return 1.0 - textbook_distance(a, b) / max(len(a), len(b))


def textbook_jaccard(a, b, lexicon):
    set_a = {t for s in a.sentences for t in s}
    set_b = {t for s in b.sentences for t in s}
    set_a |= {lexicon[t] for t in set_a if t in lexicon}
    set_b |= {lexicon[t] for t in set_b if t in lexicon}
    union = set_a | set_b
    return len(set_a & set_b) / len(union) if union else 1.0


def small_channel_model():
    """A channel model trained on a small synthetic bundle, and its bundle."""
    spec = make_spec(24, seed=5, min_len=2, max_len=5)
    bundle = gen_corpora(spec, {"parallel": 60, "mono_src": 12, "mono_tgt": 12,
                                "dev": 1, "test": 1})
    model = em_train(swap_direction(build_mix([bundle.parallel])), 2,
                     src_lang="tgt", tgt_lang="src")
    return model, bundle


URLS = st.text(alphabet="ab/éü中😀", max_size=12)


class TestLevKernel:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(URLS, min_size=1, max_size=4), st.lists(URLS, min_size=1, max_size=6))
    @example([""], [""])
    @example(["", "a"], ["", "ab", "中😀é"])
    @example(["kitten"], ["sitting", "", "kitten", "sitt"])
    def test_equals_textbook_dp(self, urls_a, urls_b):
        sims = _lev_sims(urls_a, urls_b)
        assert sims.shape == (len(urls_a), len(urls_b))
        for i, a in enumerate(urls_a):
            for j, b in enumerate(urls_b):
                assert sims[i, j] == textbook_lev_sim(a, b), (a, b)

    def test_known_distances(self):
        assert pair_lev_sim("kitten", "sitting") == 1.0 - 3 / 7
        assert pair_lev_sim("flaw", "lawn") == 1.0 - 2 / 4
        assert pair_lev_sim("日本語", "日本") == 1.0 - 1 / 3

    @settings(max_examples=300, deadline=None)
    @given(URLS, URLS, st.lists(URLS, min_size=1, max_size=4),
           st.lists(URLS, min_size=1, max_size=4))
    @example("https://ex.org/", ".html", ["en/ab", ""], ["de/ab", "", "en/ab"])
    @example("", "", ["aa"], ["aaa"])          # the prefix and suffix cuts would overlap
    @example("a", "a", ["a", ""], ["", "aa"])  # URLs that are head plus tail
    @example("", "", ["", "é"], [""])
    @example("", "/x", ["a", "b"], ["c"])      # no shared head
    @example("中/", "😀", ["ü", "üü"], ["üü", "ü中"])
    def test_shared_head_and_tail(self, head, tail, mids_a, mids_b):
        """The DP runs on the middles left once the head all URLs share and
        the tail their remainders share are cut; the similarities are the
        full strings' ones."""
        urls_a = [head + mid + tail for mid in mids_a]
        urls_b = [head + mid + tail for mid in mids_b]
        sims = _lev_sims(urls_a, urls_b)
        assert sims.shape == (len(urls_a), len(urls_b))
        for i, a in enumerate(urls_a):
            for j, b in enumerate(urls_b):
                assert sims[i, j] == textbook_lev_sim(a, b), (a, b)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(URLS, min_size=1, max_size=5), st.lists(URLS, min_size=1, max_size=5),
           st.sampled_from([1, 200]))
    @example(["ab", "abcdef", ""], ["x", "abd"], 200)   # unequal a-lengths, one chunk
    @example(["a\ud800b", "\udfff"], ["\udfffb", "a\ud800"], 200)   # lone surrogates
    @example(["x" * 70 + "/a", "y" * 65, "q"], ["x" * 66 + "a", "y" * 80 + "x" * 5, ""], 1)
    @example(["x" * 70 + "/a", "y" * 65, "q"], ["x" * 66 + "a", "y" * 80 + "x" * 5, ""],
             1000)
    def test_chunked_equals_textbook_dp(self, urls_a, urls_b, bound):
        """With the chunk bound at one element every a runs alone; at 200
        several a-URLs of unequal lengths share a chunk's rows."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mine_module, "_LEV_CHUNK", bound)
            sims = _lev_sims(urls_a, urls_b)
        assert sims.shape == (len(urls_a), len(urls_b))
        for i, a in enumerate(urls_a):
            for j, b in enumerate(urls_b):
                assert sims[i, j] == textbook_lev_sim(a, b), (a, b)


class TestLevSim:
    def test_identical(self):
        assert pair_lev_sim("abc", "abc") == 1.0

    def test_single_substitution(self):
        assert pair_lev_sim("abc", "abd") == pytest.approx(1 - 1 / 3)

    def test_full_deletion(self):
        assert pair_lev_sim("", "ab") == 0.0

    def test_both_empty(self):
        assert pair_lev_sim("", "") == 1.0

    def test_symmetry(self):
        rng = random.Random(0)
        for _ in range(50):
            a = "".join(rng.choice("abc") for _ in range(rng.randint(0, 6)))
            b = "".join(rng.choice("abc") for _ in range(rng.randint(0, 6)))
            assert pair_lev_sim(a, b) == pytest.approx(pair_lev_sim(b, a))

    def test_bounds(self):
        rng = random.Random(1)
        for _ in range(50):
            a = "".join(rng.choice("xy") for _ in range(rng.randint(0, 5)))
            b = "".join(rng.choice("xy") for _ in range(rng.randint(0, 5)))
            assert 0.0 <= pair_lev_sim(a, b) <= 1.0


class TestJaccard:
    def doc(self, url, *sents):
        return WebDoc(url=url, sentences=tuple(tuple(s.split()) for s in sents))

    def test_identical_augmented_sets(self):
        a = self.doc("u1", "a b")
        b = self.doc("u2", "b a")
        assert pair_jaccard(a, b, {}) == 1.0

    def test_disjoint(self):
        assert pair_jaccard(self.doc("u", "a"), self.doc("v", "b"), {}) == 0.0

    def test_set_arithmetic(self):
        a = self.doc("u", "a b")
        b = self.doc("v", "b c")
        assert pair_jaccard(a, b, {}) == pytest.approx(1 / 3)

    def test_lexicon_bridges_languages(self):
        a = self.doc("u", "hello world")
        b = self.doc("v", "HELLO WORLD")
        lex = {"hello": "HELLO", "world": "WORLD",
               "HELLO": "hello", "WORLD": "world"}
        assert pair_jaccard(a, b, lex) == 1.0
        assert pair_jaccard(a, b, {}) == 0.0


class TestDocSim:
    """The similarity of a document pair is URL similarity times lexicon Jaccard."""

    @staticmethod
    def sim(a, b):
        matches = match_documents([a], [b], {}, 0.0)
        assert [(m.doc_a, m.doc_b) for m in matches] == [(0, 0)]
        return matches[0].sim

    def test_product(self):
        a = WebDoc("aaaa", (("x",),))
        b = WebDoc("aabb", (("x",), ("y",)))
        expected = pair_lev_sim("aaaa", "aabb") * pair_jaccard(a, b, {})
        assert self.sim(a, b) == pytest.approx(expected)

    def test_zero_factor_zeroes_product(self):
        a = WebDoc("u", (("x",),))
        b = WebDoc("v", (("y",),))
        assert self.sim(a, b) == 0.0

    def test_perfect_pair(self):
        a = WebDoc("same", (("x",),))
        b = WebDoc("same", (("x",),))
        assert self.sim(a, b) == 1.0


class TestMatchDocuments:
    def random_docs(self, rng, n, alphabet):
        docs = []
        for k in range(n):
            url = "".join(rng.choice("ab/.é") for _ in range(rng.randint(1, 9)))
            sents = tuple(tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 4)))
                          for _ in range(rng.randint(0, 3)))
            docs.append(WebDoc(url, sents))
        return docs

    def test_similarities_equal_per_pair_reference(self):
        rng = random.Random(7)
        lexicon = {"a": "A", "b": "B", "c": "C", "A": "a", "x": "y"}
        for _ in range(60):
            docs_a = self.random_docs(rng, rng.randint(1, 5), "abcx")
            docs_b = self.random_docs(rng, rng.randint(1, 5), "ABCyz")
            reference = [[textbook_lev_sim(a.url, b.url) * textbook_jaccard(a, b, lexicon)
                          for b in docs_b] for a in docs_a]
            threshold = rng.choice([0.0, 0.1, 0.3])
            got = match_documents(docs_a, docs_b, lexicon, threshold)
            expected = [DocMatch(i, j, reference[i][j])
                        for i, j in greedy_oracle(reference, threshold)]
            assert got == expected
            for i, a in enumerate(docs_a):
                for j, b in enumerate(docs_b):
                    assert pair_lev_sim(a.url, b.url) * pair_jaccard(a, b, lexicon) == reference[i][j]
                    assert pair_jaccard(a, b, lexicon) == textbook_jaccard(a, b, lexicon)

    def test_empty_sides(self):
        doc = WebDoc("u", (("a",),))
        assert match_documents([], [doc], {}, 0.0) == []
        assert match_documents([doc], [], {}, 0.0) == []


class TestGreedyMatch:
    def test_hand_trace(self):
        assert greedy_match([[0.9, 0.1], [0.8, 0.7]], 0.0) == [(0, 0), (1, 1)]

    def test_threshold_filters_everything(self):
        assert greedy_match([[0.9, 0.1], [0.8, 0.7]], 0.95) == []

    def test_permutation_matrix(self):
        sims = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
        assert sorted(greedy_match(sims, 0.5)) == [(0, 1), (1, 2), (2, 0)]

    def test_matches_oracle_on_random_matrices(self):
        rng = random.Random(123)
        for _ in range(500):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            sims = [[round(rng.random(), 3) for _ in range(cols)]
                    for _ in range(rows)]
            threshold = rng.choice([0.0, 0.2, 0.5])
            got = greedy_match(sims, threshold)
            assert got == greedy_oracle(sims, threshold)
            assert len({i for i, _ in got}) == len(got)
            assert len({j for _, j in got}) == len(got)

    def test_nonfinite_rejected(self):
        with pytest.raises(DataError):
            greedy_match([[float("nan")]], 0.0)
        for bad in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(DataError):      # even below the threshold
                greedy_match(np.array([[0.5, bad], [0.1, 0.2]]), 0.9)

    @settings(max_examples=400, deadline=None)
    @given(st.integers(0, 12), st.integers(0, 12), st.data(),
           st.sampled_from([0.0, 0.3, 0.5, -1.0, 1.0, float("-inf"), float("nan")]))
    def test_equals_oracle_with_heavy_ties(self, rows, cols, data, threshold):
        """Scores rounded to 0.1 tie often; the order is (-sim, row, column)."""
        values = st.integers(-3, 10).map(lambda k: round(k / 10, 1))
        sims = data.draw(st.lists(st.lists(values, min_size=cols, max_size=cols),
                                  min_size=rows, max_size=rows))
        expected = greedy_oracle(sims, threshold)
        assert greedy_match(sims, threshold) == expected
        assert greedy_match(np.array(sims, dtype=float).reshape(rows, cols),
                            threshold) == expected

    def test_signed_zeros_tie(self):
        assert greedy_match([[-0.0, 0.0], [0.0, -0.0]], 0.0) == [(0, 0), (1, 1)]

    def test_no_rows_or_no_columns(self):
        assert greedy_match([], 0.0) == []
        assert greedy_match([[], []], 0.0) == []
        assert greedy_match(np.zeros((0, 4)), 0.0) == []
        assert greedy_match(np.zeros((3, 0)), -1.0) == []


BLOCK_SCORES = st.sampled_from([-0.3, -0.0, 0.0, 0.1, 0.3, 0.3, 0.5, 1.0])
BLOCKS = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7)).flatmap(
        lambda shape: st.lists(st.lists(BLOCK_SCORES, min_size=shape[1], max_size=shape[1]),
                               min_size=shape[0], max_size=shape[0]).map(
            lambda rows: np.array(rows, dtype=float).reshape(shape))),
    max_size=8)


class TestStackedMatching:
    """`_match_blocks` matches every block as `greedy_oracle` does alone."""

    @settings(max_examples=300, deadline=None)
    @given(BLOCKS, st.sampled_from([0.0, 0.3, -1.0, float("-inf"), float("nan")]),
           st.sampled_from([1, 40, None]))
    @example([np.array([[-0.0, 0.0], [0.0, -0.0]]), np.zeros((0, 3)), np.zeros((2, 0)),
              np.full((3, 1), 0.3), np.full((1, 4), 0.3)], 0.0, 40)
    def test_equals_oracle_block_by_block(self, blocks, threshold, bound):
        with pytest.MonkeyPatch.context() as mp:
            if bound is not None:
                mp.setattr(mine_module, "_MATCH_RUN", bound)
            k, i, j, score = _match_blocks(blocks, threshold)
        assert k.dtype == i.dtype == j.dtype == np.intp and score.dtype == np.float64
        expected = [(b, r, c) for b, block in enumerate(blocks)
                    for r, c in greedy_oracle(block.tolist(), threshold)]
        assert list(zip(k.tolist(), i.tolist(), j.tolist())) == expected
        assert score.tolist() == [blocks[b][r, c] for b, r, c in expected]

    def test_runs_take_similar_shapes_within_the_bound(self, monkeypatch):
        monkeypatch.setattr(mine_module, "_MATCH_RUN", 40)
        shapes = [(3, 4), (0, 5), (2, 2), (3, 4), (5, 8), (2, 2), (6, 0), (3, 3)]
        runs = list(mine_module._match_runs(shapes))
        assert runs == [[2, 5, 7], [0, 3], [4]]
        # a run padded to its largest rows and columns fits, or is one block
        for run in runs:
            rows = max(shapes[k][0] for k in run)
            cols = max(shapes[k][1] for k in run)
            assert len(run) * rows * cols <= 40 or len(run) == 1

    def test_nonfinite_rejected_in_any_block(self):
        for bad in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(DataError):
                _match_blocks([np.zeros((2, 2)), np.array([[0.5, bad]])], 0.9)


class TestBuildLexicon:
    def test_argmax_above_threshold(self):
        model = one_hot_model({"a": "X", "b": "Y"})
        assert build_lexicon(model) == {"a": "X", "b": "Y"}

    def test_ties_go_to_the_first_maximum(self):
        src, tgt = (NULL, "a", "b"), ("X", "Y", "Z")
        t = np.array([[1 / 3] * 3, [0.2, 0.4, 0.4], [0.5, 0.0, 0.5]])
        model = LexModel(src, tgt, t, train_lm([tgt], 1, 0.5))
        assert build_lexicon(model) == {"a": "Y", "b": "X"}

    def test_low_probability_rows_excluded(self):
        src = (NULL, "a")
        tgt = tuple(f"t{i}" for i in range(20))
        t = np.full((2, 20), 1 / 20)
        model = LexModel(src, tgt, t, train_lm([tgt], 1, 0.5))
        assert build_lexicon(model) == {}


class TestAlignSentences:
    def test_one_hot_selection_consistent_with_channel_score(self):
        model = one_hot_model({"B": "a"})  # scores src-lang given tgt-lang
        doc_a = WebDoc("u", (("a",),), lang="src")
        doc_b = WebDoc("v", (("B",),), lang="tgt")
        out = align_pair(doc_a, doc_b, model, floor=-10.0)
        assert len(out) == 1
        sa, sb, score = out[0]
        assert (sa, sb) == (("a",), ("B",))
        assert score == pytest.approx(reference_marginal(model, ("B",), ("a",)) / 1)
        assert score == pytest.approx(math.log(1 / 2))

    def test_empty_docs_empty_output(self):
        model = one_hot_model({"B": "a"})
        empty = WebDoc("u", ())
        full_b = WebDoc("v", (("B",),))
        full_a = WebDoc("w", (("a",),))
        assert align_pair(empty, full_b, model, floor=0.0) == []
        assert align_pair(full_a, empty, model, floor=0.0) == []

    def test_floor_zero_keeps_nothing_scored_below(self):
        model = one_hot_model({"B": "a"})
        doc_a = WebDoc("u", (("a",),))
        doc_b = WebDoc("v", (("B",),))
        # all channel scores are <= ln(1/2) < 0, so a floor of 0 rejects all
        assert align_pair(doc_a, doc_b, model, floor=0.0) == []

    def test_two_by_two_matches_bruteforce(self):
        model = one_hot_model({"A": "a", "B": "b"})
        doc_a = WebDoc("u", (("a",), ("b",)), lang="src")
        doc_b = WebDoc("v", (("B",), ("A",)), lang="tgt")
        out = align_pair(doc_a, doc_b, model, floor=-5.0)
        got = {(sa, sb) for sa, sb, _ in out}
        # brute force over both one-to-one matchings
        scores = {}
        for (i, sa), (j, sb) in itertools.product(enumerate(doc_a.sentences),
                                                  enumerate(doc_b.sentences)):
            scores[(i, j)] = reference_marginal(model, sb, sa) / len(sa)
        m1 = scores[(0, 0)] + scores[(1, 1)]
        m2 = scores[(0, 1)] + scores[(1, 0)]
        expected = {(("a",), ("A",)), (("b",), ("B",))} if m2 > m1 else \
            {(("a",), ("B",)), (("b",), ("A",))}
        assert got == expected


    def test_scores_equal_channel_score_exactly(self):
        model, bundle = small_channel_model()
        mono = list(bundle.mono_src.sentences)
        targets = list(bundle.mono_tgt.sentences)
        doc_a = WebDoc("u", tuple(mono[:6]) + (mono[0] + ("zz",), ("zz", "zz")), lang="src")
        doc_b = WebDoc("v", tuple(targets[:5]) + (("qq",) + targets[1],), lang="tgt")
        out = align_pair(doc_a, doc_b, model, floor=-1e9)
        assert len(out) == min(len(doc_a.sentences), len(doc_b.sentences))
        for sa, sb, score in out:
            assert score == reference_marginal(model, sb, sa) / len(sa)


def reference_align(doc_a, doc_b, model, floor):
    """One document pair's alignment from per-pair channel scores and the
    greedy oracle."""
    scores = [[reference_marginal(model, sb, sa) / len(sa) for sb in doc_b.sentences]
              for sa in doc_a.sentences]
    return [(doc_a.sentences[i], doc_b.sentences[j], scores[i][j])
            for i, j in greedy_oracle(scores, floor)]


class TestBatchedAlignment:
    """mine_bitext scores all matches in one block cross-product channel call."""

    @staticmethod
    def golden_cases():
        docs_a, docs_b, model = golden_inputs()
        for threshold in THRESHOLDS:
            matches = match_documents(docs_a, docs_b, build_lexicon(model), threshold)
            doc_pairs = [(docs_a[m.doc_a], docs_b[m.doc_b]) for m in matches]
            for floor in FLOORS:
                yield docs_a, docs_b, model, threshold, floor, doc_pairs

    @pytest.mark.parametrize("bound", [1, 60, None])
    def test_equals_per_match_alignment(self, monkeypatch, bound):
        if bound is not None:
            monkeypatch.setattr(tm_module, "_CROSS_RUN", bound)
        for docs_a, docs_b, model, threshold, floor, doc_pairs in self.golden_cases():
            pairs, _ = mine_bitext(docs_a, docs_b, model,
                                   doc_threshold=threshold, floor=floor)
            per_match = [triple for doc_a, doc_b in doc_pairs
                         for triple in align_pair(doc_a, doc_b, model, floor)]
            reference = [triple for doc_a, doc_b in doc_pairs
                         for triple in reference_align(doc_a, doc_b, model, floor)]
            assert pairs == per_match == reference
            assert all(type(score) is float for _, _, score in pairs)

    @pytest.mark.parametrize("bound", [1, 30, 100, None])
    def test_one_call_and_one_row_per_doc_b_sentence_in_bounded_runs(self, monkeypatch, bound):
        calls, runs = [], []

        def counted(model, blocks):
            calls.append(blocks)
            return cross_channel_scores(model, blocks)

        def counted_run(model, blocks, run, out):
            runs.append(list(run))
            return cross_run(model, blocks, run, out)

        cross_run = tm_module._cross_run
        monkeypatch.setattr(mine_module, "cross_channel_scores", counted)
        monkeypatch.setattr(tm_module, "_cross_run", counted_run)
        if bound is not None:
            monkeypatch.setattr(tm_module, "_CROSS_RUN", bound)
        bound = tm_module._CROSS_RUN
        docs_a, docs_b, model, threshold, floor, doc_pairs = next(self.golden_cases())
        mine_bitext(docs_a, docs_b, model, doc_threshold=threshold, floor=floor)
        assert len(doc_pairs) == 6
        # one call, whose blocks are the document pairs' own sentences
        assert calls == [[(doc_a.sentences, doc_b.sentences) for doc_a, doc_b in doc_pairs]]
        # the runs' pieces hold each doc_b sentence once, in order, so each
        # row is built once
        assert [(k, j) for run in runs for k, lo, hi in run for j in range(lo, hi)] == [
            (k, j) for k, (_, doc_b) in enumerate(doc_pairs) for j in range(len(doc_b.sentences))]
        # a run's rows and pairs fit the bound, or it is one y: a y's row has
        # at most one column per token of its block's xs, and it pairs with
        # every x
        nt = model.t.shape[1]

        def size(k, lo, hi):
            xs = doc_pairs[k][0].sentences
            return (hi - lo) * max(min(nt + 1, sum(map(len, xs))), len(xs), 1)

        for run in runs:
            assert sum(size(*piece) for piece in run) <= bound or (
                len(run) == 1 and run[0][2] - run[0][1] == 1)
        assert (len(runs) == 1) == (bound >= sum(size(k, 0, len(doc_b.sentences))
                                                for k, (_, doc_b) in enumerate(doc_pairs)))
        assert any(len(run) > 1 for run in runs) == (bound >= 100)
        # an empty doc_a sentence is rejected before any pair is scored
        calls.clear()
        runs.clear()
        empty = (WebDoc("u", (("a",), ())), WebDoc("v", (("B",),)))
        with pytest.raises(DataError):
            _align(doc_pairs + [empty], model, floor)
        assert calls == [] and runs == []

    @pytest.mark.parametrize("bound", [1, 200, None])
    def test_many_document_pairs_equal_the_reference_pair_by_pair(self, monkeypatch, bound):
        """Document pairs of ragged sizes, empty ones among them, in runs of
        the stacked matching as small as one block."""
        if bound is not None:
            monkeypatch.setattr(mine_module, "_MATCH_RUN", bound)
        model, bundle = small_channel_model()
        mono = list(bundle.mono_src.sentences)
        targets = [tgt for _, tgt in bundle.parallel.pairs]
        rng = random.Random(29)
        doc_pairs = []
        for k in range(24):
            doc_a = WebDoc(f"a{k}", tuple(rng.sample(mono, rng.randint(0, 7))))
            doc_b = WebDoc(f"b{k}", tuple(rng.sample(targets, rng.randint(0, 7))))
            doc_pairs.append((doc_a, doc_b))
        assert any(not a.sentences for a, _ in doc_pairs)
        assert any(not b.sentences for _, b in doc_pairs)
        for floor in (-1e9, -3.0, -1.5):
            reference = [triple for doc_a, doc_b in doc_pairs
                         for triple in reference_align(doc_a, doc_b, model, floor)]
            assert _align(doc_pairs, model, floor) == reference

    def test_empty_sentence_to_align_rejected(self):
        model = one_hot_model({"B": "a"})
        doc_a = WebDoc("u", (("a",), ()))
        with pytest.raises(DataError):
            align_pair(doc_a, WebDoc("v", (("B",),)), model, floor=-10.0)
        assert align_pair(doc_a, WebDoc("v", ()), model, floor=-10.0) == []


class TestEndToEnd:
    def test_mine_bitext_selects_cross_lingual_pages(self):
        model = one_hot_model({"A": "a", "B": "b", "C": "c"})
        docs_src = [
            WebDoc("example.com/page1", (("a", "b"), ("c",)), lang="src"),
            WebDoc("example.com/other", (("b", "b"),), lang="src"),
        ]
        docs_tgt = [
            WebDoc("example.com/page1?tr=1", (("A", "B"), ("C",)), lang="tgt"),
            WebDoc("elsewhere.org/x", (("C", "C"),), lang="tgt"),
        ]
        lexicon = {"A": "a", "B": "b", "C": "c", "a": "A", "b": "B", "c": "C"}
        pairs, matches = mine_bitext(docs_src, docs_tgt, model,
                                     doc_threshold=0.2, floor=-3.0,
                                     lexicon=lexicon)
        # lev("example.com/page1", "example.com/page1?tr=1") = 1 - 5/22; the
        # lexicon makes the token sets equal; "other" and "elsewhere" fall short
        assert matches == [DocMatch(0, 0, 1.0 - 5 / 22)]
        # t(c|C) = 1 against the NULL and C alignments; a and b each align to
        # one of NULL, A, B
        assert pairs == [(("c",), ("C",), math.log(1 / 2)),
                         (("a", "b"), ("A", "B"), math.log(1 / 3))]

    def test_doc_dir_loading(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "d1.txt").write_text("a b\nc\n\n", encoding="utf-8")
        (tmp_path / "docs" / "d2.txt").write_text("a b\na b\n", encoding="utf-8")
        index_file = tmp_path / "urls.tsv"
        index_file.write_text("src\td1.txt\thttp://u/1\nsrc\td2.txt\thttp://u/2\n",
                              encoding="utf-8")
        index = load_url_index(str(index_file))
        docs = load_doc_dir(str(tmp_path / "docs"), index["src"], lang="src")
        assert [d.url for d in docs] == ["http://u/1", "http://u/2"]
        assert docs[0].sentences == (("a", "b"), ("c",))
        assert docs[1].sentences == (("a", "b"),)  # deduplicated at ingestion

    def test_repeated_url_line_loads(self, tmp_path):
        index_file = tmp_path / "urls.tsv"
        index_file.write_text("src\td1.txt\thttp://u/1\ntgt\td1.txt\thttp://v/1\n"
                              "src\td1.txt\thttp://u/1\n", encoding="utf-8")
        assert load_url_index(str(index_file)) == {"src": {"d1.txt": "http://u/1"},
                                                   "tgt": {"d1.txt": "http://v/1"}}

    def test_contradictory_url_rejected_at_its_line(self, tmp_path):
        index_file = tmp_path / "urls.tsv"
        index_file.write_text("src\td1.txt\thttp://u/1\n\nsrc\td1.txt\thttp://u/2\n",
                              encoding="utf-8")
        with pytest.raises(DataError, match=f"^{index_file}:3: .*d1.txt"):
            load_url_index(str(index_file))

    def test_missing_url_rejected(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "d1.txt").write_text("a\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_doc_dir(str(tmp_path / "docs"), {})
