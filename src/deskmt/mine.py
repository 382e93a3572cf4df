"""Weak-supervision bitext mining from comparable document collections.

Documents are matched by the product of URL Levenshtein similarity and a
lexicon-augmented token Jaccard similarity, then reduced to a one-to-one
matching greedily. Within matched documents, sentence pairs are scored by the
length-normalized lexical channel score and greedily selected above a floor.

A mining pass works in a few whole-array passes rather than pair by pair.
The URL similarities come from one exact edit-distance DP over every (a, b)
URL pair at once, on padded code-point arrays of the middles left once the
prefix all URLs share and the suffix their remainders share are cut: each
DP row is an array minimum of the deletion and substitution moves followed
by a running minimum for the insertions. Each document's token set is built
once; the intersection sizes of all pairs come from one integer matmul of
0/1 token incidence matrices. The matched document pairs are aligned by one
block cross-product channel call (`tm.cross_channel_scores`): it builds each
doc_b sentence's log-marginal row once, over the target symbols its doc_a
uses, and scores every sentence of that doc_a against it. All document
pairs' score matrices are then matched in one greedy pass over stacked
blocks (`_match_blocks`), in rounds that accept every pair best in both its
row and its column in every block at once; `greedy_match` is its one-block
case. Distances and set sizes are exact integers, so every similarity is
the same float a per-pair edit distance or set intersection gives; each
sentence-pair score is the one `tm.pair_channel_scores` gives for that pair
alone, and each matching is the one a scan of the pairs in (-score, row,
column) order gives.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .corpus import Sentence
from .tm import LexModel, cross_channel_scores
from .util import DataError, read_text

# a source symbol enters the lexicon when its best row entry reaches this
LEXICON_MIN_PROB = 0.1


@dataclass(frozen=True)
class WebDoc:
    url: str
    sentences: tuple[Sentence, ...]
    lang: str = ""

    def __post_init__(self) -> None:
        if not self.url:
            raise DataError("a web document needs a URL")
        seen = []
        known = set()
        for sent in self.sentences:
            if sent not in known:
                known.add(sent)
                seen.append(sent)
        object.__setattr__(self, "sentences", tuple(seen))

    def token_set(self) -> frozenset[str]:
        return frozenset(tok for sent in self.sentences for tok in sent)


@dataclass(frozen=True)
class DocMatch:
    doc_a: int
    doc_b: int
    sim: float


# Elements of the (len_b + 1, a, b) DP rows `_lev_sims` holds at once: the
# a-URLs run in chunks whose rows fit, a chunk holding at least one a. On
# the bench's `mine` inputs (seed 1: 60 x 60 URLs whose middles are 15 code
# points once the shared head and tail are cut, 57,600 row elements) the
# DP is one chunk at this bound and at 2**16: it peaked at 0.64 MB of traced
# heap (tracemalloc) and took a median of 5.1 ms, against 0.27 MB and
# 6.2 ms at 2**14 (chunks of 17 a-URLs) and 0.25 MB and 16.5 ms for the one
# DP per a-URL it replaced (25 interleaved runs each, on a shared 2-core
# host).
_LEV_CHUNK = 1 << 17


def _code_points(strings: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The strings' code points as the rows of an int32 array, padded with
    -1, and the strings' lengths."""
    lens = np.array([len(s) for s in strings], dtype=np.intp)
    codes = np.full((len(strings), int(lens.max(initial=0))), -1, dtype=np.int32)
    codes[np.arange(codes.shape[1]) < lens[:, None]] = np.frombuffer(
        "".join(strings).encode("utf-32-le", "surrogatepass"), dtype="<u4")
    return codes, lens


def _lev_sims(urls_a: list[str], urls_b: list[str]) -> np.ndarray:
    """URL similarity of every (a, b) pair: 1 - editdistance / max(len), and
    1 for two empty strings; one exact edit-distance DP over all pairs.

    A prefix or suffix that two strings share never changes their distance,
    so the DP runs on the middles only: the prefix all URLs of both sides
    share is cut first, then the suffix the remainders share, so the two
    cuts never overlap. Each similarity still divides by the full lengths.

    The middles are padded code-point arrays. Row i of the DP holds the
    distances from the first i code points of every a-middle to every
    prefix of every b-middle, as a (len_b + 1, a, b) array; each row is two
    array steps from the one before: the deletion and substitution moves,
    then the insertion chain as one running minimum of row[j] - j down the
    first axis. An a is read at the row of its own length, at each b's
    length; the padding beyond a string never reaches a cell that is read.
    The a-URLs run in chunks of at most `_LEV_CHUNK` row elements.
    """
    head = len(os.path.commonprefix(urls_a + urls_b))
    rests = [url[head:] for url in urls_a + urls_b]
    tail = len(os.path.commonprefix([rest[::-1] for rest in rests]))
    mids = [rest[:len(rest) - tail] for rest in rests]
    codes_a, lens_a = _code_points(mids[:len(urls_a)])
    codes_b, lens_b = _code_points(mids[len(urls_a):])
    n_b = lens_b.size
    cols = np.arange(codes_b.shape[1] + 1, dtype=np.int32)[:, None, None]
    b_codes = codes_b.T[:, None, :]
    b_at = np.arange(n_b)
    dists = np.empty((lens_a.size, n_b), dtype=np.int64)
    per_chunk = max(1, _LEV_CHUNK // (cols.size * max(n_b, 1)))
    for lo in range(0, lens_a.size, per_chunk):
        a_codes, a_lens = codes_a[lo:lo + per_chunk], lens_a[lo:lo + per_chunk]
        row = np.broadcast_to(cols, (cols.size, a_lens.size, n_b))
        for i in range(int(a_lens.max()) + 1):
            if i:
                t = np.empty(row.shape, dtype=np.int32)
                t[0] = i
                # t[j] = min(row[j - 1] + cost, row[j] + 1) - j, as
                # min(row[j - 1] - match, row[j]) - 1 - (j - 1); shifted by -j,
                # the insertions are a running minimum
                np.subtract(row[:-1], b_codes == a_codes[:, i - 1, None], out=t[1:])
                np.minimum(t[1:], row[1:], out=t[1:])
                t[1:] -= cols[1:] - 1
                row = np.minimum.accumulate(t, axis=0, out=t)
                row += cols
            ended = np.flatnonzero(a_lens == i)
            dists[lo + ended] = row[lens_b, ended[:, None], b_at]
    longest = np.maximum(np.array([len(b) for b in urls_b], dtype=np.int64),
                         np.array([len(a) for a in urls_a], dtype=np.int64)[:, None])
    sims = np.ones(dists.shape)
    np.subtract(1.0, dists / np.maximum(longest, 1), out=sims, where=longest > 0)
    return sims


def _jaccards(docs_a: list[WebDoc], docs_b: list[WebDoc],
              lexicon: dict[str, str]) -> np.ndarray:
    """Token-set Jaccard of every (a, b) pair, each side augmented by its own
    tokens' translations, and 1 for two empty sets; intersections from one
    incidence matmul."""
    def augmented(doc):
        tokens = doc.token_set()
        return tokens | {lexicon[t] for t in tokens if t in lexicon}

    sets_a = [augmented(doc) for doc in docs_a]
    sets_b = [augmented(doc) for doc in docs_b]
    vocab = {tok: k for k, tok in enumerate(set().union(*sets_a, *sets_b))}

    def incidence(sets):
        out = np.zeros((len(sets), len(vocab)), dtype=np.int64)
        for k, s in enumerate(sets):
            out[k, [vocab[tok] for tok in s]] = 1
        return out

    # integer counts are exact; an integer matmul also runs NumPy's own loop,
    # not BLAS, whose worker threads would spin through the passes after it
    inc_a, inc_b = incidence(sets_a), incidence(sets_b)
    inter = inc_a @ inc_b.T
    union = inc_a.sum(axis=1)[:, None] + inc_b.sum(axis=1) - inter
    sims = np.ones(inter.shape)
    np.divide(inter, union, out=sims, where=union > 0)
    return sims


def build_lexicon(model: LexModel) -> dict[str, str]:
    """Unigram translation dictionary: argmax of each lexical row (the first
    of tied maxima), where it reaches LEXICON_MIN_PROB."""
    rows = model.t[1:]
    best = rows.argmax(axis=1)
    prob = rows[np.arange(best.size), best]
    return {sym: model.tgt_vocab[j]
            for sym, j, p in zip(model.src_vocab[1:], best.tolist(), prob.tolist())
            if p >= LEXICON_MIN_PROB}


def greedy_match(sims, threshold: float) -> list[tuple[int, int]]:
    """Greedy one-to-one bipartite matching over a similarity matrix.

    Pairs are visited by similarity descending (ties: lower row, then lower
    column) and accepted when both endpoints are unused and the similarity
    reaches the threshold; the accepted pairs are returned in that order.
    Every entry must be finite, whatever the threshold.

    `sims` is a 2-D array (or nested lists); it is the one block of
    `_match_blocks`.
    """
    sims = np.asarray(sims, dtype=np.float64)
    if sims.size == 0:
        return []
    _, rows, cols, _ = _match_blocks([sims], threshold)
    return list(zip(rows.tolist(), cols.tolist()))


# Score-array elements one run of `_match_blocks` holds at once, padding
# included. On the bench's `mine` inputs (seed 1: 60 matched document pairs
# of 30 x 30 sentences, 54,000 scores) the alignment's matching runs in two
# runs at this bound; it peaked at 0.85 MB of traced heap (tracemalloc) and
# took a median of 2.08 ms, against 0.46 MB and 2.18 ms at 2**14, 1.41 MB
# and 2.19 ms at 2**16 (one run) and 0.04 MB and 3.62 ms for the one
# `greedy_match` call per document pair it replaced (25 interleaved runs
# each, on a shared 2-core host).
_MATCH_RUN = 1 << 15


def _match_runs(shapes: list[tuple[int, int]]):
    """Runs of block indices, the blocks taken in (rows, columns) order and
    empty ones left out, while a run padded to its largest rows and columns
    holds at most `_MATCH_RUN` elements; a run holds at least one block."""
    run, rows, cols = [], 0, 0
    for k in sorted(range(len(shapes)), key=shapes.__getitem__):
        r, c = shapes[k]
        if not r * c:
            continue
        if run and (len(run) + 1) * max(rows, r) * max(cols, c) > _MATCH_RUN:
            yield run
            run, rows, cols = [], 0, 0
        run.append(k)
        rows, cols = max(rows, r), max(cols, c)
    if run:
        yield run


def _match_blocks(blocks: list[np.ndarray], threshold: float):
    """`greedy_match` of every 2-D float64 block at once: (block, row,
    column, score) arrays of the accepted pairs, sorted by block and within
    a block in scan order. Every entry must be finite.

    The scan's result is computed in rounds: under its strict order, a pair
    that reaches the threshold and comes first in both its row and its
    column among the unused rows and columns is accepted by the scan, since
    no pair before it can use either endpoint. Each round accepts every
    such pair of every block at once and marks their rows and columns
    used. The blocks are stacked in runs of similar shapes (see
    `_match_runs`); padding and used or below-threshold pairs hold -inf,
    which no finite score ties with, so argmax (the first of tied maxima)
    picks in each block what it would pick in the block alone. The accepted
    pairs are then sorted by (block, -score, row, column).
    """
    found = [(np.zeros(0, dtype=np.intp),) * 3 + (np.zeros(0),)]
    for run in _match_runs([b.shape for b in blocks]):
        stack = np.zeros((len(run),) + tuple(np.max([blocks[k].shape for k in run], axis=0)))
        inside = np.zeros(stack.shape, dtype=bool)
        for p, k in enumerate(run):
            rows, cols = blocks[k].shape
            stack[p, :rows, :cols] = blocks[k]
            inside[p, :rows, :cols] = True
        if not np.isfinite(stack).all():
            raise DataError("similarity matrix must contain finite scores")
        # -inf marks padding and pairs that can no longer be accepted
        live = np.where(inside & ~(stack < threshold), stack, -np.inf)
        ids, here = np.array(run, dtype=np.intp), np.arange(stack.shape[1])
        while True:
            best_col = live.argmax(axis=2)   # argmax keeps the first of tied maxima
            best_row = live.argmax(axis=1)
            score = np.take_along_axis(live, best_col[:, :, None], axis=2)[:, :, 0]
            mutual = (np.take_along_axis(best_row, best_col, axis=1) == here) & (score > -np.inf)
            if not mutual.any():
                break
            p, i = np.nonzero(mutual)
            j = best_col[p, i]
            found.append((ids[p], i, j, score[p, i]))
            live[p, i, :] = -np.inf
            live[p, :, j] = -np.inf
    k, i, j, score = (np.concatenate(part) for part in zip(*found))
    order = np.lexsort((j, i, -score, k))
    return k[order], i[order], j[order], score[order]


def match_documents(docs_a: list[WebDoc], docs_b: list[WebDoc],
                    lexicon: dict[str, str], threshold: float) -> list[DocMatch]:
    sims = (_lev_sims([a.url for a in docs_a], [b.url for b in docs_b])
            * _jaccards(docs_a, docs_b, lexicon))
    return [DocMatch(i, j, float(sims[i, j])) for i, j in greedy_match(sims, threshold)]


def _align(doc_pairs: list[tuple[WebDoc, WebDoc]], model: LexModel,
           floor: float) -> list[tuple[Sentence, Sentence, float]]:
    """Greedy one-to-one sentence pairs of every document pair, scored by
    the per-token channel score, concatenated in order.

    The model scores doc_a sentences given doc_b sentences (its source side
    is doc_b's language): a pair's score is its channel score ln P(a | b)
    (see `tm.pair_channel_scores`) over the doc_a sentence's length, and a
    document pair keeps the sentence pairs `greedy_match` would keep at or
    above the floor. An empty doc_a sentence to score is a DataError. The
    document pairs are the blocks of one `cross_channel_scores` call, which
    builds each doc_b sentence's row once and scores it against its own
    doc_a only, and of one `_match_blocks` call.
    """
    if any(not x for doc_a, doc_b in doc_pairs if doc_b.sentences for x in doc_a.sentences):
        raise DataError("cannot align an empty sentence: its score is per token")
    blocks = cross_channel_scores(model, [(doc_a.sentences, doc_b.sentences)
                                          for doc_a, doc_b in doc_pairs])
    per_token = [scores / np.array([len(x) for x in doc_a.sentences])[:, None]
                 for (doc_a, _), scores in zip(doc_pairs, blocks)]
    found = _match_blocks(per_token, floor)
    return [(doc_pairs[k][0].sentences[i], doc_pairs[k][1].sentences[j], score)
            for k, i, j, score in zip(*(a.tolist() for a in found))]


def mine_bitext(docs_a: list[WebDoc], docs_b: list[WebDoc], model: LexModel, *,
                doc_threshold: float, floor: float,
                lexicon: dict[str, str] | None = None):
    """Full mining pass: match documents, then align sentences within matches.

    Returns (pairs, doc matches); each pair is a (sentence a, sentence b,
    score) triple as `_align` gives it, in match order.
    """
    if lexicon is None:
        lexicon = build_lexicon(model)
    matches = match_documents(docs_a, docs_b, lexicon, doc_threshold)
    pairs = _align([(docs_a[m.doc_a], docs_b[m.doc_b]) for m in matches], model, floor)
    return pairs, matches


def load_doc_dir(path: str, url_index: dict[str, str], lang: str = "") -> list[WebDoc]:
    """One WebDoc per *.txt file (one sentence per line); URLs from the index."""
    docs = []
    try:
        names = sorted(n for n in os.listdir(path) if n.endswith(".txt"))
    except OSError as e:
        raise DataError(f"cannot list document directory {path}: {e}") from e
    for name in names:
        if name not in url_index:
            raise DataError(f"no URL recorded for document {name}")
        lines = read_text(os.path.join(path, name), "document").split("\n")
        sentences = tuple(tuple(line.split()) for line in lines if line.strip())
        docs.append(WebDoc(url=url_index[name], sentences=sentences, lang=lang))
    return docs


def load_url_index(path: str) -> dict[str, dict[str, str]]:
    """URL index file: lines of "side<TAB>filename<TAB>url", side in {src, tgt}.

    A (side, file) may be listed again with the same URL; listed with another
    URL, it is a DataError naming the line.
    """
    index: dict[str, dict[str, str]] = {"src": {}, "tgt": {}}
    for lineno, line in enumerate(read_text(path, "URL index").split("\n"), 1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3 or parts[0] not in index:
            raise DataError(f"{path}:{lineno}: expected 'src|tgt<TAB>file<TAB>url'")
        side, name, url = parts
        if index[side].setdefault(name, url) != url:
            raise DataError(f"{path}:{lineno}: {side} document {name} already has "
                            f"URL {index[side][name]!r}, not {url!r}")
    return index

