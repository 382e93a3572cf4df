"""Weak-supervision bitext mining from comparable document collections.

Documents are matched by the product of URL Levenshtein similarity and a
lexicon-augmented token Jaccard similarity, then reduced to a one-to-one
matching greedily. Within matched documents, sentence pairs are scored by the
length-normalized lexical channel score and greedily selected above a floor.

A mining pass works in a few whole-array passes rather than pair by pair.
The URL similarities come from one exact edit-distance DP per URL of one
side, run over all URLs of the other side at once as padded code-point
arrays, on the middles left once the prefix all URLs share and the suffix
their remainders share are cut: each DP row is an array minimum of the
deletion and substitution moves followed by a running minimum for the
insertions. Each document's token set is built once; the intersection sizes
of all pairs come from one integer matmul of 0/1 token incidence matrices.
The matched document pairs are aligned by one block cross-product channel
call (`tm.cross_channel_scores`): it builds each doc_b sentence's
log-marginal row once, over the target symbols its doc_a uses, and scores
every sentence of that doc_a against it.
`greedy_match` runs on a score array in rounds that accept every pair best
in both its row and its column at once. Distances and set sizes are exact
integers, so every similarity is the same float a per-pair edit distance or
set intersection gives; each sentence-pair score is the one
`tm.pair_channel_scores` gives for that pair alone, and each matching is the
one a scan of the pairs in (-score, row, column) order gives.
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


def _lev_sims(urls_a: list[str], urls_b: list[str]) -> np.ndarray:
    """URL similarity of every (a, b) pair: 1 - editdistance / max(len), and
    1 for two empty strings; one exact edit-distance DP per a.

    A prefix or suffix that two strings share never changes their distance,
    so the DP runs on the middles only: the prefix all URLs of both sides
    share is cut first, then the suffix the remainders share, so the two
    cuts never overlap. Each similarity still divides by the full lengths.
    The b middles are padded code-point arrays and each row of the DP over
    all of them is two array steps: the deletion and substitution moves,
    then the insertion chain as a running minimum of row[j] - j.
    """
    head = len(os.path.commonprefix(urls_a + urls_b))
    rests = [url[head:] for url in urls_a + urls_b]
    tail = len(os.path.commonprefix([rest[::-1] for rest in rests]))
    mids = [rest[:len(rest) - tail] for rest in rests]
    mids_a, mids_b = mids[:len(urls_a)], mids[len(urls_a):]
    lens_b = np.array([len(b) for b in mids_b], dtype=np.int64)
    cols = np.arange(int(lens_b.max(initial=0)) + 1)
    codes = np.full((len(mids_b), len(cols) - 1), -1, dtype=np.int64)
    for k, b in enumerate(mids_b):
        codes[k, :len(b)] = [ord(ch) for ch in b]
    rows = np.arange(len(mids_b))
    dists = np.empty((len(mids_a), len(mids_b)), dtype=np.int64)
    for k, a in enumerate(mids_a):
        prev = np.broadcast_to(cols, (len(mids_b), len(cols)))
        for i, ch in enumerate(a, 1):
            t = np.empty_like(prev)
            t[:, 0] = i
            np.minimum(prev[:, 1:] + 1, prev[:, :-1] + (codes != ord(ch)), out=t[:, 1:])
            prev = np.minimum.accumulate(t - cols, axis=1) + cols
        dists[k] = prev[rows, lens_b]
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
    """Unigram translation dictionary: argmax of each lexical row, where it
    reaches LEXICON_MIN_PROB."""
    lexicon = {}
    for i, sym in enumerate(model.src_vocab[1:], start=1):
        row = model.t[i]
        j = int(np.argmax(row))
        if row[j] >= LEXICON_MIN_PROB:
            lexicon[sym] = model.tgt_vocab[j]
    return lexicon


def greedy_match(sims, threshold: float) -> list[tuple[int, int]]:
    """Greedy one-to-one bipartite matching over a similarity matrix.

    Pairs are visited by similarity descending (ties: lower row, then lower
    column) and accepted when both endpoints are unused and the similarity
    reaches the threshold; the accepted pairs are returned in that order.
    Every entry must be finite, whatever the threshold.

    `sims` is a 2-D array (or nested lists). The scan's result is computed
    in rounds over the whole array: under that strict order, a pair that
    reaches the threshold and comes first in both its row and its column
    among the unused rows and columns is accepted by the scan, since no
    pair before it can use either endpoint. Each round accepts every such
    pair at once and drops their rows and columns; the accepted pairs are
    then sorted into scan order.
    """
    sims = np.asarray(sims, dtype=np.float64)
    if sims.size == 0:
        return []
    if not np.isfinite(sims).all():
        raise DataError("similarity matrix must contain finite scores")
    # -inf marks a pair that can no longer be accepted; every score is finite
    live = np.where(sims < threshold, -np.inf, sims)
    rows, cols = np.arange(sims.shape[0]), np.arange(sims.shape[1])
    found_rows, found_cols = [rows[:0]], [cols[:0]]
    while rows.size and cols.size:
        here = np.arange(rows.size)
        best_col = live.argmax(axis=1)   # argmax keeps the first of tied maxima
        best_row = live.argmax(axis=0)
        mutual = (best_row[best_col] == here) & (live[here, best_col] > -np.inf)
        if not mutual.any():
            break
        hit_cols = best_col[mutual]
        found_rows.append(rows[mutual])
        found_cols.append(cols[hit_cols])
        keep_cols = np.ones(cols.size, dtype=bool)
        keep_cols[hit_cols] = False
        live = live[~mutual][:, keep_cols]
        rows, cols = rows[~mutual], cols[keep_cols]
    i, j = np.concatenate(found_rows), np.concatenate(found_cols)
    order = np.lexsort((j, i, -sims[i, j]))
    return list(zip(i[order].tolist(), j[order].tolist()))


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
    (see `tm.pair_channel_scores`) over the doc_a sentence's length, and
    `greedy_match` keeps a document pair's sentence pairs at or above the
    floor. An empty doc_a sentence to score is a DataError. The document
    pairs are the blocks of one `cross_channel_scores` call, which builds
    each doc_b sentence's row once and scores it against its own doc_a only.
    """
    if any(not x for doc_a, doc_b in doc_pairs if doc_b.sentences for x in doc_a.sentences):
        raise DataError("cannot align an empty sentence: its score is per token")
    blocks = cross_channel_scores(model, [(doc_a.sentences, doc_b.sentences)
                                          for doc_a, doc_b in doc_pairs])
    pairs = []
    for (doc_a, doc_b), scores in zip(doc_pairs, blocks):
        x_len = np.array([len(x) for x in doc_a.sentences], dtype=np.intp)
        per_token = scores / x_len[:, None]
        values = per_token.tolist()
        pairs.extend((doc_a.sentences[i], doc_b.sentences[j], values[i][j])
                     for i, j in greedy_match(per_token, floor))
    return pairs


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

