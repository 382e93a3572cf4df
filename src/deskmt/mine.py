"""Weak-supervision bitext mining from comparable document collections.

Documents are matched by the product of URL Levenshtein similarity and a
lexicon-augmented token Jaccard similarity, then reduced to a one-to-one
matching greedily. Within matched documents, sentence pairs are scored by the
length-normalized lexical channel score and greedily selected above a floor.

Both score matrices are built whole rather than pair by pair. The URL
similarities come from one exact edit-distance DP per URL of one side, run
over all URLs of the other side at once as padded code-point arrays: each DP
row is an array minimum of the deletion and substitution moves followed by a
running minimum for the insertions. Each document's token set is built once;
the intersection sizes of all pairs come from one matmul of 0/1 token
incidence matrices. In a matched document pair, every sentence of one side
is scored against every sentence of the other with one batched channel call.
Distances and set sizes are exact integers, so every similarity is the same
float the per-pair definitions `lev_sim` and `jaccard` give, and each
sentence-pair score is the one `channel_scores` gives for that pair alone.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .corpus import Sentence
from .tm import LexModel, pair_channel_scores
from .util import DataError, read_text


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


def lev_sim(a: str, b: str) -> float:
    """1 - editdistance/max(len); two empty strings are perfectly similar."""
    return float(_lev_sims([a], [b])[0, 0])


def jaccard(a: WebDoc, b: WebDoc, lexicon: dict[str, str]) -> float:
    """Token-set Jaccard with each side augmented by its own tokens' translations."""
    return float(_jaccards([a], [b], lexicon)[0, 0])


def _lev_sims(urls_a: list[str], urls_b: list[str]) -> np.ndarray:
    """lev_sim of every (a, b) pair, one exact edit-distance DP per a.

    The b strings are padded code-point arrays and each row of the DP over
    all of them is two array steps: the deletion and substitution moves,
    then the insertion chain as a running minimum of row[j] - j.
    """
    lens_b = np.array([len(b) for b in urls_b], dtype=np.int64)
    cols = np.arange(int(lens_b.max(initial=0)) + 1)
    codes = np.full((len(urls_b), len(cols) - 1), -1, dtype=np.int64)
    for k, b in enumerate(urls_b):
        codes[k, :len(b)] = [ord(ch) for ch in b]
    rows = np.arange(len(urls_b))
    dists = np.empty((len(urls_a), len(urls_b)), dtype=np.int64)
    for k, a in enumerate(urls_a):
        prev = np.broadcast_to(cols, (len(urls_b), len(cols)))
        for i, ch in enumerate(a, 1):
            t = np.empty_like(prev)
            t[:, 0] = i
            np.minimum(prev[:, 1:] + 1, prev[:, :-1] + (codes != ord(ch)), out=t[:, 1:])
            prev = np.minimum.accumulate(t - cols, axis=1) + cols
        dists[k] = prev[rows, lens_b]
    longest = np.maximum(lens_b, np.array([len(a) for a in urls_a])[:, None])
    sims = np.ones(dists.shape)
    np.subtract(1.0, dists / np.maximum(longest, 1), out=sims, where=longest > 0)
    return sims


def _jaccards(docs_a: list[WebDoc], docs_b: list[WebDoc],
              lexicon: dict[str, str]) -> np.ndarray:
    """jaccard of every (a, b) pair; intersections from one incidence matmul."""
    def augmented(doc):
        tokens = doc.token_set()
        return tokens | {lexicon[t] for t in tokens if t in lexicon}

    sets_a = [augmented(doc) for doc in docs_a]
    sets_b = [augmented(doc) for doc in docs_b]
    vocab = {tok: k for k, tok in enumerate(set().union(*sets_a, *sets_b))}

    def incidence(sets):
        out = np.zeros((len(sets), len(vocab)))
        for k, s in enumerate(sets):
            out[k, [vocab[tok] for tok in s]] = 1.0
        return out

    # counts are small integers, so the float products and sums are exact
    inc_a, inc_b = incidence(sets_a), incidence(sets_b)
    inter = inc_a @ inc_b.T
    union = inc_a.sum(axis=1)[:, None] + inc_b.sum(axis=1) - inter
    sims = np.ones(inter.shape)
    np.divide(inter, union, out=sims, where=union > 0)
    return sims


def build_lexicon(model: LexModel, min_prob: float = 0.1) -> dict[str, str]:
    """Unigram translation dictionary: argmax of each lexical row above min_prob."""
    lexicon = {}
    for i, sym in enumerate(model.src_vocab[1:], start=1):
        row = model.t[i]
        j = int(np.argmax(row))
        if row[j] >= min_prob:
            lexicon[sym] = model.tgt_vocab[j]
    return lexicon


def greedy_match(sims: list[list[float]], threshold: float) -> list[tuple[int, int]]:
    """Greedy one-to-one bipartite matching over a similarity matrix.

    Pairs are visited by similarity descending (ties: lower row, then lower
    column) and accepted when both endpoints are unused and the similarity
    reaches the threshold.
    """
    candidates = []
    for i, row in enumerate(sims):
        for j, sim in enumerate(row):
            if sim != sim or sim in (float("inf"), float("-inf")):
                raise DataError("similarity matrix must contain finite scores")
            candidates.append((-sim, i, j))
    candidates.sort()
    used_a: set[int] = set()
    used_b: set[int] = set()
    matches = []
    for neg_sim, i, j in candidates:
        if -neg_sim < threshold:
            break
        if i in used_a or j in used_b:
            continue
        used_a.add(i)
        used_b.add(j)
        matches.append((i, j))
    return matches


def match_documents(docs_a: list[WebDoc], docs_b: list[WebDoc],
                    lexicon: dict[str, str], threshold: float) -> list[DocMatch]:
    sims = (_lev_sims([a.url for a in docs_a], [b.url for b in docs_b])
            * _jaccards(docs_a, docs_b, lexicon)).tolist()
    return [DocMatch(i, j, sims[i][j]) for i, j in greedy_match(sims, threshold)]


def align_sentences(doc_a: WebDoc, doc_b: WebDoc, model: LexModel,
                    floor: float) -> list[tuple[Sentence, Sentence, float]]:
    """Greedy one-to-one sentence pairs scored by the per-token channel score.

    The model scores doc_a sentences given doc_b sentences (its source side is
    doc_b's language); pairs below the floor are discarded.
    """
    height, width = len(doc_a.sentences), len(doc_b.sentences)
    flat = pair_channel_scores(model, list(doc_a.sentences), list(doc_b.sentences),
                               np.arange(height).repeat(width),
                               np.tile(np.arange(width), height)).tolist()
    scores = [[score / len(sa) for score in flat[i * width:(i + 1) * width]]
              for i, sa in enumerate(doc_a.sentences)]
    selected = greedy_match(scores, floor) if scores else []
    return [(doc_a.sentences[i], doc_b.sentences[j], scores[i][j])
            for i, j in selected]


def mine_bitext(docs_a: list[WebDoc], docs_b: list[WebDoc], model: LexModel, *,
                doc_threshold: float, floor: float,
                lexicon: dict[str, str] | None = None):
    """Full mining pass: match documents, then align sentences within matches.

    Returns (pairs, doc matches); each pair is a (sentence a, sentence b,
    score) triple from `align_sentences`, in match order.
    """
    if lexicon is None:
        lexicon = build_lexicon(model)
    matches = match_documents(docs_a, docs_b, lexicon, doc_threshold)
    pairs = []
    for match in matches:
        aligned = align_sentences(docs_a[match.doc_a], docs_b[match.doc_b],
                                  model, floor)
        pairs.extend(aligned)
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
    """URL index file: lines of "side<TAB>filename<TAB>url", side in {src, tgt}."""
    index: dict[str, dict[str, str]] = {"src": {}, "tgt": {}}
    for lineno, line in enumerate(read_text(path, "URL index").split("\n"), 1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3 or parts[0] not in index:
            raise DataError(f"{path}:{lineno}: expected 'src|tgt<TAB>file<TAB>url'")
        index[parts[0]][parts[1]] = parts[2]
    return index

