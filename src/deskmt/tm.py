"""Lexical translation models: IBM-Model-1 EM training, a windowed monotone
beam decoder producing n-best lists, the corpus decoder `translate_stack`
that every decode in the package goes through (`translate_corpus` is its
one-model case), and channel scoring of sentence pairs in batches
(`pair_channel_scores`, and `block_channel_scores` for the entries of an
n-best block). `cross_channel_scores` scores, in
each of a list of blocks, every sentence of one side given every sentence of
the other, as mining's alignment does for its document pairs: the IBM-1
marginal factorises over the observed sentence's positions, so each
conditioning sentence's floored log-marginal over the target symbols its
block's observed sentences use is built once, as a row, and a score is a sum
of its row's entries.

The decoder emits one target symbol per source position; at target step i it
may consume any unconsumed source position j with |j - i| <= window, so a
window of w allows local reorderings of radius w. Each step scores

    ln t(y | x_j) + lm_weight * ln P_lm(y | history)

and hypotheses are ranked by total score. Unknown source symbols translate to
the reserved unknown token at a configured floor probability.

`translate_stack` decodes the sources under each of a stack of models that
share one decoder (LM, target vocabulary and settings), such as the
checkpoints of a fine-tune, and `translate_corpus` is its one-model case. It
decodes in blocks of at most `_DECODE_STATES` live beam states (sentences x
beam width), running each beam step once for the whole block. Every sentence
keeps its own beam, its own pool order and its own selection (see
`_decode_block`), so a source's n-best list does not depend on the block it
is decoded in, nor on the other models of the stack: a one-source decode is
`translate_corpus` of a list of one. So blocks are filled from the sources
sorted by length, which keeps a block's steps close to what each of its
sources needs, and the lists of the sentences that finish at a step are
picked from the step's states with three sorts of three keys
(`_nbest_lists`): each state carries two sequence ids, its parent's with the
token appended as a digit (made dense ranks again before they could
overflow), that stand for its whole id sequence and its whole surface.
States are grouped by LM context through one key per state in the same way.

The lists stay arrays from the decoder to BLEU and the n-best file:
`translate_corpus` returns an `NBestBlock`, padded ext ids with their
lengths, the fwd scores and each list's offsets, over the model's ext
symbols. Reranking adds score arrays and reorders the entries
(`rerank.rerank`), callers turn only the entries they read into strings
(`NBestBlock.top_hyps`, `surfaces`), and the n-best file is written from a
block and read back into one (`rerank.write_nbest_file`, `read_nbest_file`).

A step scores only the pool entries that can reach the beam: the LM term is
at most 0, so an entry scores at most the state's score plus its lex term,
and each source symbol's candidates are kept in descending lex order, so
the entries of a pool row that can reach a score are a prefix of the row
(see `_decode_block`). On the bench's `recipe` (seed 1) a step scores 8.5 %
of the 17.9 M pool entries, and on `search` 3.8 % of 9.4 M.

A model's artifact is the stable JSON text `model_json` writes, with one
writer per document (`_lex_json`, beside its reader `model_from_dict`). The
large members come straight from arrays: the table rows from the table's
nonzero entries, each probability by `repr`, and the LM from
`lm.lm_json`; the small members are dumped by `stable_json_dumps` and the
text is spliced in at its sorted-key position (`util.stable_json_object`).
No dict or list of the document is built, and the dict form of an
artifact is `json.loads` of its text.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .corpus import MAX_COUNT, UNK_TOKEN, DataMix, Sentence
from .lm import LanguageModel, RowTable, lm_from_dict, lm_json, mixture, train_lm
from .util import (DataError, doc_field, doc_float, doc_strings, pair_runs_json, sha256_text,
                   stable_json_object)

NULL = "<null>"
DEFAULT_UNK_FLOOR = 1e-9

# The largest lm_weight a model takes. An LM probability is at least the
# smallest normal float (the LM rejects a smoothing k that would take an
# unseen event below it, and a mixture's weights sum to 1), so ln P > -710
# and lm_weight * ln P > -7.1e302. With the lex term (at least ln of the
# smallest float, -745) a step scores more than -7.2e302, so a path of up to
# 100,000 steps stays finite, as do the sums of two such scores that the
# decoder's bound forms.
LM_WEIGHT_MAX = 1e300

# The largest beam and n-best size the decoder takes: the beam width, the
# larger of the two, and the indices the decoder adds to it stay within
# int64.
WIDTH_MAX = 2**62


@dataclass(eq=False)
class NBestBlock:
    """The n-best lists of many sources as arrays.

    List k belongs to sources[k] and holds entries offsets[k]:offsets[k + 1],
    best first. Entry e spells symbols[hyps[e, :lengths[e]]] (the rest of
    the row is padding) and scored `fwd[e]` under the decoder; `rerank` adds
    its `channel`, `lm` and `combined` scores. The ids take the smallest
    unsigned type that holds them. A decoded block's symbols are the model's
    ext symbols; a block read from an n-best file (`rerank.read_nbest_file`)
    has the file's distinct tokens, sorted, as symbols. Strings are made
    only for the entries that are read (`surfaces`, `top_hyps`).
    """

    sources: list[Sentence]
    symbols: tuple[str, ...]
    hyps: np.ndarray
    lengths: np.ndarray
    fwd: np.ndarray
    offsets: np.ndarray
    channel: np.ndarray | None = None
    lm: np.ndarray | None = None
    combined: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.sources)

    def sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    def list_of_entries(self) -> np.ndarray:
        """The list index of every entry."""
        return np.repeat(np.arange(len(self.sources)), self.sizes())

    def tokens(self) -> tuple[np.ndarray, np.ndarray]:
        """(the ids of every entry laid end to end, each entry's length)."""
        return (self.hyps[np.arange(self.hyps.shape[1]) < self.lengths[:, None]],
                self.lengths)

    def surfaces(self, entries) -> list[Sentence]:
        """The symbol tuples of the given entries."""
        syms = np.array(self.symbols, dtype=object)
        return [tuple(row[:n]) for row, n in zip(syms[self.hyps[entries]].tolist(),
                                                 self.lengths[entries].tolist())]

    def top_hyps(self) -> list[Sentence]:
        """The first entry of every list as symbols."""
        if not self.sizes().all():
            raise DataError("an n-best list is empty")
        return self.surfaces(self.offsets[:-1])

    def take(self, entries: np.ndarray, offsets: np.ndarray, sources: list[Sentence],
             **scores) -> NBestBlock:
        """A block of the given entries, in that order, as lists at
        `offsets` of `sources`; `scores` sets score arrays of the new order."""
        for name in ("channel", "lm", "combined"):
            if name not in scores and getattr(self, name) is not None:
                scores[name] = getattr(self, name)[entries]
        return NBestBlock(sources, self.symbols, self.hyps[entries], self.lengths[entries],
                          self.fwd[entries], offsets, **scores)

    def select(self, lists: np.ndarray) -> NBestBlock:
        """The given lists, in that order."""
        sizes = self.sizes()[lists]
        offsets = np.concatenate(([0], sizes.cumsum()))
        entries = np.arange(offsets[-1]) + (self.offsets[lists] - offsets[:-1]).repeat(sizes)
        return self.take(entries, offsets, [self.sources[k] for k in lists.tolist()])

    @staticmethod
    def concat(blocks: list[NBestBlock]) -> NBestBlock:
        """The lists of every block, one block after another; the blocks
        share one symbol table and the score arrays the first one has."""
        first = blocks[0]
        if any(b.symbols != first.symbols for b in blocks[1:]):
            raise ValueError("blocks of different symbol tables")
        width = max(b.hyps.shape[1] for b in blocks)
        hyps = np.zeros((sum(b.fwd.size for b in blocks), width), dtype=first.hyps.dtype)
        at = 0
        for b in blocks:
            hyps[at:at + b.fwd.size, :b.hyps.shape[1]] = b.hyps
            at += b.fwd.size
        scores = {name: np.concatenate([getattr(b, name) for b in blocks])
                  for name in ("channel", "lm", "combined") if getattr(first, name) is not None}
        shifts = np.cumsum([0] + [b.fwd.size for b in blocks[:-1]])
        return NBestBlock([src for b in blocks for src in b.sources], first.symbols, hyps,
                          np.concatenate([b.lengths for b in blocks]),
                          np.concatenate([b.fwd for b in blocks]),
                          np.concatenate([[0]] + [b.offsets[1:] + shift
                                                  for b, shift in zip(blocks, shifts)]),
                          **scores)


def _id_type(n_symbols: int) -> np.dtype:
    """The smallest unsigned type that holds ids below n_symbols."""
    return np.min_scalar_type(max(n_symbols - 1, 0))


class LexModel:
    """Directional translation model: lexical table + target LM + decoder settings.

    The table `t` is a (|src_vocab|, |tgt_vocab|) array of probabilities
    in [0, 1]; any other table (the wrong shape, or a value that is NaN,
    infinite or outside [0, 1]) is a DataError naming 't'. So every model's
    document reads back through `model_from_dict`, and its probabilities
    are finite, whose `repr` is the text `json` writes (`_t_rows_json`).

    A model is immutable once it has been used: its decoding tables and
    the memoized `model_hash` are built from its table, LM and settings on
    first use and never invalidated, so changing any of them afterwards
    gives stale results. Derive a new model instead. `_caches` holds the
    ext vocabulary and the hash.

    The tables a decode or a channel score reads, the candidate table, the
    padded table and the LM's row tables (`_candidate_table`, `_t_ext`,
    `_row_tables`), are built by the call that reads them and die when it
    returns. The LM rows belong to the LM's parts, not the model: a row
    table holds one row per state of one n-gram part.
    """

    def __init__(self, src_vocab: tuple[str, ...], tgt_vocab: tuple[str, ...],
                 t: np.ndarray, lm: LanguageModel, *, beam: int = 5, window: int = 1,
                 lm_weight: float = 0.5, src_lang: str = "src", tgt_lang: str = "tgt",
                 unk_floor: float = DEFAULT_UNK_FLOOR,
                 train_ll_trace: tuple[float, ...] = ()):
        if not src_vocab or src_vocab[0] != NULL:
            raise DataError("source vocabulary must start with the NULL symbol")
        if not 1 <= beam <= WIDTH_MAX:
            raise DataError(f"decoder setting 'beam' must lie in [1, {WIDTH_MAX}], got {beam!r}")
        if window < 0:
            raise DataError(f"decoder setting 'window' must be at least 0, got {window!r}")
        if not 0.0 <= lm_weight <= LM_WEIGHT_MAX:
            raise DataError(f"decoder setting 'lm_weight' must lie in [0, {LM_WEIGHT_MAX}], "
                            f"got {lm_weight!r}")
        if not 0.0 < unk_floor <= 1.0:
            raise DataError(f"decoder setting 'unk_floor' must lie in (0, 1], got {unk_floor!r}")
        if t.shape != (len(src_vocab), len(tgt_vocab)):
            raise DataError(f"table 't' must have shape ({len(src_vocab)}, {len(tgt_vocab)}) "
                            f"for its vocabularies, got {t.shape}")
        if not (t.min(initial=0.0) >= 0.0 and t.max(initial=0.0) <= 1.0):
            raise DataError("table 't' must hold probabilities in [0, 1]")
        self.src_vocab = src_vocab
        self.tgt_vocab = tgt_vocab
        self.t = t
        self.lm = lm
        self.beam = beam
        self.window = window
        self.lm_weight = lm_weight
        self.src_lang = src_lang
        self.tgt_lang = tgt_lang
        self.unk_floor = unk_floor
        self.train_ll_trace = train_ll_trace
        self.src_id = {s: i for i, s in enumerate(src_vocab)}
        self.tgt_id = {s: i for i, s in enumerate(tgt_vocab)}
        self._caches: dict = {}

    def artifact_json(self) -> str:
        """The stable JSON text that `model_json` hashes (`_lex_json`)."""
        return _lex_json(self)

    @property
    def direction(self) -> str:
        return f"{self.src_lang}->{self.tgt_lang}"

    # decoding state: the ext vocabulary is kept, the tables built per call

    def _ext_vocab(self) -> tuple[str, ...]:
        ext = self._caches.get("ext_vocab")
        if ext is None:
            ext = self.tgt_vocab + (UNK_TOKEN,)
            self._caches["ext_vocab"] = ext
        return ext

    def _row_tables(self) -> tuple:
        """(weight, a new `RowTable` over the ext symbols) of each of the
        LM's parts, which `lm.mixture` mixes as it mixes the parts. A
        table's `ranks` order the ext symbols as strings, the two ext ids of
        the unknown token sharing one rank."""
        return tuple((weight, RowTable(part, self._ext_vocab()))
                     for weight, part in self.lm.parts)

    def _t_ext(self) -> np.ndarray:
        """Lexical table padded with a floor row/column for unknown symbols."""
        ns, nt = self.t.shape
        t_ext = np.full((ns + 1, nt + 1), self.unk_floor)
        t_ext[:ns, :nt] = self.t
        return t_ext

    def _candidate_table(self):
        """(ext ids, lex log-probs, start, count) of every source symbol's
        decodable targets, back to back.

        Source id s owns entries start[s]:start[s] + count[s], its run, in
        descending lex order, ties in ascending target id order, so the
        entries of a run that can reach a score are a prefix of it; id
        len(src_vocab) stands for unknown symbols. A symbol that is unknown
        or whose table row is all zero decodes to the unknown token at the
        floor probability, the last run.
        """
        ns, nt = self.t.shape
        rows, ids = np.nonzero(self.t)
        lex = np.log(self.t[rows, ids])
        # descending lex within each row, ties in the ascending id order
        # np.nonzero gives: a stable sort by -lex, then a stable one by row
        by_lex = np.argsort(-lex, kind="stable")
        by_lex = _by_sentence(by_lex, rows[by_lex])
        ids, lex = ids[by_lex], lex[by_lex]
        count = np.bincount(rows, minlength=ns + 1)
        start = count.cumsum() - count
        empty = count == 0
        start[empty], count[empty] = ids.size, 1
        return (np.append(ids, nt), np.append(lex, np.log(self.unk_floor)), start, count)


class PairLayout:
    """EM's view of a list of parallel datasets, for any upsampling of them.

    The distinct pairs come in order of first appearance, dataset by
    dataset (`DataMix.weighted_pairs`' key order), grouped by shape as
    `_group_pairs` groups them, with each dataset's count of every pair.
    A mix of these datasets upsampled by u weighs pair p
    sum_d u[d] * count_d(p) (`weights`), so the mixes of one search share
    one layout: its groups, vocabularies and id arrays are built once.
    """

    def __init__(self, datasets: Sequence):
        self.sources = tuple(ds.pairs for ds in datasets)
        index: dict = {}   # pair -> its row, in order of first appearance
        rows = [[index.setdefault(pair, len(index)) for pair in pairs]
                for pairs in self.sources]
        if not index:
            raise DataError("EM training needs at least one parallel pair")
        self._counts = np.zeros((len(index), len(rows)), dtype=np.int64)
        for d, at in enumerate(rows):
            np.add.at(self._counts[:, d], at, 1)
        self._most = self._counts.max(axis=0).tolist()
        self.src_vocab = (NULL,) + tuple(sorted({s for src, _ in index for s in src}))
        self.tgt_vocab = tuple(sorted({t for _, tgt in index for t in tgt}))
        self.groups = _group_pairs(list(index), {s: i for i, s in enumerate(self.src_vocab)},
                                   {s: i for i, s in enumerate(self.tgt_vocab)})

    def weights(self, upsample: Sequence[int]) -> np.ndarray:
        """Each pair's weight in the mix upsampled by `upsample`, one
        integer per dataset: exact, as a DataError stops any weight that
        could pass `MAX_COUNT`."""
        if sum(u * most for u, most in zip(upsample, self._most)) > MAX_COUNT:
            raise DataError(f"upsampling {list(upsample)} gives a pair a weight past 2**53, "
                            f"where float64 weights stop being exact")
        return (self._counts @ np.array(upsample, dtype=np.int64)).astype(np.float64)


class EMTrainer:
    """Stepwise IBM Model 1 EM over a training mix.

    Starts from a uniform table, or from an existing model's table when warm
    starting (symbols unknown to the warm model initialize uniform).
    Upsampled duplicates are folded into pair weights, which yields exactly
    the replicated-corpus estimates. The pairs come from `layout`, the
    `PairLayout` of the mix's datasets (ValueError for another), built
    here when none is given.
    """

    def __init__(self, mix: DataMix, warm_start: LexModel | None = None, *,
                 layout: PairLayout | None = None):
        if layout is None:
            layout = PairLayout(mix.datasets)
        elif list(layout.sources) != [ds.pairs for ds in mix.datasets]:
            raise ValueError("the pair layout is not of the mix's datasets")
        weights = layout.weights([ds.upsample for ds in mix.datasets])
        self.src_vocab, self.tgt_vocab = layout.src_vocab, layout.tgt_vocab
        self.groups = [(ls, lt, S, T, weights[rows]) for ls, lt, S, T, rows in layout.groups]
        if warm_start is not None:
            # the layout's ids move to their places in the larger vocabularies
            self.src_vocab = (NULL,) + tuple(sorted(set(self.src_vocab[1:])
                                                    | set(warm_start.src_vocab[1:])))
            self.tgt_vocab = tuple(sorted(set(self.tgt_vocab) | set(warm_start.tgt_vocab)))
            src_id = {s: i for i, s in enumerate(self.src_vocab)}
            tgt_id = {s: i for i, s in enumerate(self.tgt_vocab)}
            src_map = np.array([0] + [src_id[s] for s in layout.src_vocab[1:]], dtype=np.intp)
            tgt_map = np.array([tgt_id[s] for s in layout.tgt_vocab], dtype=np.intp)
            self.groups = [(ls, lt, src_map[S], tgt_map[T], W)
                           for ls, lt, S, T, W in self.groups]
        nt = len(self.tgt_vocab)
        self.t = np.full((len(self.src_vocab), nt), 1.0 / nt)
        if warm_start is not None:
            rows = [src_id[s] for s in warm_start.src_vocab]
            cols = [tgt_id[s] for s in warm_start.tgt_vocab]
            self.t[np.ix_(rows, cols)] = warm_start.t
        self.ll_trace: list[float] = []

    def step(self) -> float:
        """One EM iteration; returns the log-likelihood of the pre-update table."""
        self.t, ll = _em_iteration(self.t, self.groups)
        self.ll_trace.append(ll)
        return ll

    def snapshot(self, lm: LanguageModel, **settings) -> LexModel:
        """A model of the current table, shared read-only: each step makes
        a new table, so a later step leaves the snapshot's as it is."""
        self.t.flags.writeable = False
        return LexModel(self.src_vocab, self.tgt_vocab, self.t, lm,
                        train_ll_trace=tuple(self.ll_trace), **settings)


def em_train(mix: DataMix, iterations: int, *, lm_order: int = 3, lm_k: float = 0.5,
             beam: int = 5, window: int = 1, lm_weight: float = 0.5,
             src_lang: str = "src", tgt_lang: str = "tgt") -> LexModel:
    """Standard IBM Model 1 EM with a NULL source word, from uniform initialization.

    The target-side LM is trained from the mix.
    """
    if iterations < 1:
        raise DataError("EM needs at least one iteration")
    trainer = EMTrainer(mix)
    for _ in range(iterations):
        trainer.step()
    sents, weights = zip(*mix.target_sentences())
    lm = train_lm(list(sents), lm_order, lm_k, weights=list(weights))
    return trainer.snapshot(lm, beam=beam, window=window, lm_weight=lm_weight,
                            src_lang=src_lang, tgt_lang=tgt_lang)


def _group_pairs(pairs, src_id, tgt_id):
    """Group (src ids + NULL, tgt ids, rows) of distinct pairs by shape for
    batched EM updates; `rows` are the pairs' indices in `pairs`.

    Shapes come in ascending (source length, target length) order and each
    shape's rows in the order of `pairs`: `_em_iteration` accumulates its
    counts in that order. Each side's ids are read in one pass, and the
    shapes are grouped by one stable sort of their keys.
    """
    srcs, tgts = zip(*pairs)
    src_len = np.fromiter(map(len, srcs), dtype=np.intp, count=len(srcs))
    tgt_len = np.fromiter(map(len, tgts), dtype=np.intp, count=len(tgts))
    src_ids = np.fromiter(map(src_id.__getitem__, chain.from_iterable(srcs)),
                          dtype=np.intp, count=int(src_len.sum()))
    tgt_ids = np.fromiter(map(tgt_id.__getitem__, chain.from_iterable(tgts)),
                          dtype=np.intp, count=int(tgt_len.sum()))
    src_start, tgt_start = src_len.cumsum() - src_len, tgt_len.cumsum() - tgt_len
    shapes, shape = np.unique(src_len * (int(tgt_len.max()) + 1) + tgt_len,
                              return_inverse=True)
    groups = []
    for rows in _members(shape, len(shapes)):
        ls, lt = int(src_len[rows[0]]), int(tgt_len[rows[0]])
        S = np.zeros((rows.size, ls + 1), dtype=np.intp)     # NULL is source id 0
        S[:, 1:] = src_ids[src_start[rows, None] + np.arange(ls)]
        T = tgt_ids[tgt_start[rows, None] + np.arange(lt)]
        groups.append((ls, lt, S, T, rows))
    return groups


_GATHER_CHUNK = 400_000  # max gathered elements per batch, keeps memory bounded


def _em_iteration(t: np.ndarray, groups) -> tuple[np.ndarray, float]:
    ns, nt = t.shape
    counts = np.zeros(ns * nt)
    ll = 0.0
    for ls, lt, S, T, W in groups:
        rows_per_chunk = max(1, _GATHER_CHUNK // ((ls + 1) * lt))
        for lo in range(0, S.shape[0], rows_per_chunk):
            s = S[lo:lo + rows_per_chunk]
            tg = T[lo:lo + rows_per_chunk]
            w = W[lo:lo + rows_per_chunk]
            probs = t[s[:, :, None], tg[:, None, :]]        # (B, ls+1, lt)
            denom = probs.sum(axis=1)                       # (B, lt)
            ll += float((w * (np.log(denom).sum(axis=1) - lt * np.log(ls + 1))).sum())
            post = probs / denom[:, None, :] * w[:, None, None]
            flat = s[:, :, None] * nt + tg[:, None, :]
            counts += np.bincount(flat.ravel(), weights=post.ravel(), minlength=ns * nt)
    counts = counts.reshape(ns, nt)
    row_sums = counts.sum(axis=1, keepdims=True)
    new_t = np.divide(counts, row_sums, out=np.zeros_like(counts), where=row_sums > 0)
    return new_t, ll


# Live beam states per decoded block (sentences x beam width). A step scores
# only the pool entries that can reach the beam (see `_decode_block`), but its
# row arrays still grow with the block's states, so the block is bounded;
# larger blocks run fewer steps, and each step has a fixed cost. A decode
# builds its stack's candidate tables, back to back, and the row tables of
# the LM's parts once, and holds them for all its blocks. Decoding a
# 300-sentence pool at n=50 (the bench's `recipe` self-training pool, seed 1,
# with the LM's row table already filled) peaked at 10.7 MB of traced heap
# (tracemalloc) as one block, against 3.1 MB in length-sorted blocks of this
# size, 1.8 MB of 2048 states, 1.2 MB of 1024 or 256 states and 1.4 MB one
# sentence at a time; the returned `NBestBlock` of 13,008 entries holds
# 0.4 MB of it. Reranked block by block, the peaks are
# 3.4, 2.3 and 2.1 MB at 4096, 2048 and 1024 states. Decoding and reranking
# that pool took a median of 114, 132 and 152 ms of CPU at 4096, 2048 and 1024
# states (6 rounds each, interleaved).
_DECODE_STATES = 4096

# Relative slack of the bound's comparison; see `_decode_block`.
_SLACK = 1e-9

# The decoder's one-key sorts keep their keys below this, within int64.
_KEY_LIMIT = 2**62

# The n-best list size of decoding and reranking, unless a caller picks one.
DEFAULT_NBEST = 50


def translate_corpus(model: LexModel, sources: list[Sentence], nbest: int, *,
                     rerank_ctx=None) -> NBestBlock:
    """The n-best lists of every source, in source order, as one
    `NBestBlock` over the model's ext symbols: `translate_stack` of the one
    model.

    Every token of a source is translated. With a `rerank_ctx` (a
    `rerank.RerankContext`), the lists hold `rerank_ctx.nbest` entries and
    come back reranked by it, one `rerank_ctx.rerank` call per decoded block,
    which scores the block's entries in one pass; a list's order does not
    depend on the block it is reranked in. The decoded blocks are then
    joined and their lists put back in source order.

    Sources are decoded in blocks of max(1, `_DECODE_STATES` // width)
    sentences, width = max(model.beam, n), each beam step running once over
    the whole block. A block runs as many steps as its longest source, so
    blocks are filled from the sources sorted by length (stably): a block's
    sources have nondecreasing lengths, and the lists come back in source
    order. Each sentence keeps its own beam from its own pool by
    the (-score, pool index) rule of `_decode_block`, so every list equals
    the one its source gets alone, whichever block holds it. A step scores
    only the entries whose bound, state + lex, reaches a lower bound on the
    sentence's width-th best score (see `_decode_block`), so its cost
    follows what can survive rather than the whole pool; the block is still
    bounded, because a step's row arrays grow with it (see
    `_DECODE_STATES`).
    """
    return translate_stack([model], sources, nbest, rerank_ctx=rerank_ctx)[0]


def translate_stack(models: Sequence[LexModel], sources: list[Sentence], nbest: int, *,
                    rerank_ctx=None) -> list[NBestBlock]:
    """Each model's `translate_corpus` of the same sources, in one pass: one
    `NBestBlock` per model, in the order of `models`.

    The models must share one decoder: the same LM object, target
    vocabulary, window, LM weight and beam (ValueError otherwise). Only
    their candidate tables differ, so the stack decodes as one model would:
    model i's decode of source k is sentence i * len(sources) + k, and the
    sentences are sorted by length and cut into blocks as `translate_corpus`
    describes. The models' candidate tables are laid back to back once, and
    the row table of each of the LM's parts is built once, for every block
    (see `_decode_block`); both die when the call returns. Every list is the
    one its model gives alone, bit for bit, and a stack of k models runs the
    beam steps of one decode instead of k.
    """
    if not models:
        raise ValueError("a stack needs at least one model")
    first = models[0]
    if any(m.lm is not first.lm or m.tgt_vocab != first.tgt_vocab
           or (m.window, m.lm_weight, m.beam) != (first.window, first.lm_weight, first.beam)
           for m in models[1:]):
        raise ValueError("stacked models must share one LM, target vocabulary, window, "
                         "LM weight and beam")
    if rerank_ctx is not None:
        nbest = rerank_ctx.nbest
    if not 1 <= nbest <= WIDTH_MAX:
        raise DataError(f"n-best size 'nbest' must lie in [1, {WIDTH_MAX}], got {nbest!r}")
    if not sources:
        return [NBestBlock([], m._ext_vocab(), np.zeros((0, 0), dtype=np.uint8),
                           np.zeros(0, dtype=np.intp), np.zeros(0), np.zeros(1, dtype=np.intp))
                for m in models]
    if not all(sources):
        raise DataError("cannot translate an empty sentence")
    width = max(first.beam, nbest)
    size = max(1, _DECODE_STATES // width)
    k = len(sources)
    by_length = sorted(range(len(models) * k), key=lambda s: len(sources[s % k]))
    cands = _stacked_candidates(models)
    tables = first._row_tables()
    blocks = []
    for lo in range(0, len(by_length), size):
        stacked = np.array(by_length[lo:lo + size])
        block = _decode_block(models, cands, tables,
                              [sources[s] for s in (stacked % k).tolist()],
                              stacked // k, width, nbest)
        blocks.append(block if rerank_ctx is None else rerank_ctx.rerank(block))
    joined = NBestBlock.concat(blocks)
    at = np.argsort(by_length)
    return [joined.select(at[i * k:(i + 1) * k]) for i in range(len(models))]


def _decode_block(models: Sequence[LexModel], cands, tables: tuple, block: list[Sentence],
                  member: np.ndarray, width: int, n: int) -> NBestBlock:
    """Beam search for the top-n hypotheses of every source of a block,
    block[s] decoded by models[member[s]].

    The models share one decoder (see `translate_stack`), whose settings
    the block reads from the first model, and whose LM row tables, one per
    part of the LM, are `tables` (`LexModel._row_tables`); `cands` is their
    candidate tables laid back to back (`_stacked_candidates`), and a source
    reads only its own model's runs. Everything else the steps compute is per
    sentence, and a wider lex range across the stack only raises the slack
    below, which changes how many entries are scored, not which survive.

    The effective beam width is max(model.beam, n) so an n-best list can
    always be filled from completed hypotheses; a sentence's list is picked
    from its finished beam by `_nbest_lists`, and the lists come back as an
    `NBestBlock` of the block's sources in block order.

    Each state carries two sequence ids besides its emitted ext ids: `surf`,
    its parent's surf with the ext id's string rank appended as a digit in
    base |ext symbols|, and `seq`, its parent's seq with the ext id
    appended. Before a digit could take them past `_KEY_LIMIT`, both are
    made dense ranks over the step's states, which keeps their order. The
    states of one step all have one length, so equal ids mean equal
    surfaces (id sequences), and `surf` orders as the surfaces compare;
    `seq` is only compared for equality, so where no two ext ids spell one
    symbol it is `surf`. `_nbest_lists` sorts by one id where it would sort
    by every emitted token.

    Each target step has one pool of extensions per sentence. The contract
    is: each sentence's next beam is the first `width` entries of its pool
    in (-score, pool index) order, so of equal scores the lower pool index
    wins, at the beam's tail as well as within it. The pool order is
    therefore part of the contract: states are grouped by LM context in
    order of first appearance in the beam; within a group come the window
    positions j in ascending order; within a position, the admissible
    states in beam order, one pool row each; within a row, the candidate
    targets of source position j in ascending id order. A sentence leaves
    the block after its last step.

    A step scores only the entries that can reach the beam. An entry scores

        state + (lex + lm_weight * lm)

    where lm is the log of the parts' `lm.mixture` at the entry. Each part's
    probability is at most its table's `prob_max`, and a product by a weight
    >= 0, a sum and the log are monotone in floating point, so lm is at most
    top, the log of the parts' mixture of those maxima in the same order
    (about 0 or less). So an entry scores at most its bound state + lex +
    lift, lift = lm_weight * max(top, 0). A row's candidates come in
    descending lex order (`LexModel._candidate_table`), so the entries whose
    bound reaches a given score are a prefix of the row. The step first scores
    each row's first ceil(width / rows of its sentence) entries; their
    width-th best score per sentence, thr (-inf when they are fewer than
    width), is at most the pool's width-th best, so every entry of the next
    beam scores at least thr. Each row then also scores the rest of the prefix
    whose bound reaches thr, found for all rows by one searchsorted in a key
    over the candidate table. Its comparison, lex >= thr - state - lift, has a
    slack of `_SLACK` times 1 + |thr| + |state| + lift + max |lex|: the
    score's three roundings and the comparison's own move a value by at most
    2**-53 of a magnitude below that sum, so the slack covers them many times
    over. The scored entries at or above thr are sorted by (sentence, -score,
    row, candidate id), which is the pool's (-score, pool index) order, and
    each sentence keeps its first `width`: the beam the whole pool gives, bit
    for bit.
    """
    model = models[0]
    w = model.window
    order = model.lm.order
    ext_vocab = model._ext_vocab()
    # LM contexts compare by symbol, and a target vocabulary that holds the
    # unknown token spells it with two ext ids: both have one rank
    ext_rank = tables[0][1].ranks
    n_ranks = int(ext_rank.max()) + 1
    # without such a pair, equal surfaces are equal id sequences
    one_spelling = n_ranks == ext_rank.size
    cand_ids, cand_lex, cand_start, cand_count, src_base = cands
    # one ascending key over the table, run index * span - lex; every lex
    # is finite, the log of a nonzero probability or of a floor. The key's
    # rounding grows with the run index, by about 2**-52 of index * span,
    # which the bound's slack (at least _SLACK * span) covers while the
    # stacked table holds fewer than 10**6 runs
    lex_top, lex_bottom = cand_lex.max(initial=0.0), cand_lex.min(initial=0.0)
    run_start = np.zeros(cand_ids.size, dtype=bool)
    run_start[cand_start] = True
    run_base = (run_start.cumsum() - 1) * (lex_top - lex_bottom + 1.0)
    cand_key = run_base - cand_lex
    slack_floor = 1.0 + max(lex_top, -lex_bottom)

    # source position j of sentence s decodes to candidate entries
    # pos_start[s, j]:pos_start[s, j] + pos_count[s, j]; a sentence's ids
    # are its model's, shifted to the model's runs, and its padding reads
    # the model's first run but is never admissible
    lengths = np.array([len(src) for src in block])
    sids = np.zeros((len(block), lengths.max()), dtype=np.intp)
    for s, (src, i) in enumerate(zip(block, member.tolist())):
        ids, unknown = models[i].src_id, len(models[i].src_vocab)
        sids[s, :len(src)] = [ids.get(sym, unknown) for sym in src]
    sids += src_base[member][:, None]
    pos_start, pos_count = cand_start[sids], cand_count[sids]

    # live states, sentence by sentence, each sentence's in beam order
    score = np.zeros(len(block))
    sent = np.arange(len(block))
    consumed = np.zeros(sids.shape, dtype=bool)
    emitted = np.zeros((len(block), 0), dtype=np.intp)
    seq = np.zeros(len(block), dtype=np.int64)
    surf = np.zeros(len(block), dtype=np.int64)
    id_bound = 1   # seq and surf lie below it
    finished = []   # (sentence, emitted ext ids, score) of each step's list entries
    for i in range(1, sids.shape[1] + 1):
        lo = max(0, i - 1 - w)
        must = i - 1 - w  # this position can never be consumed after step i
        window = np.arange(lo, min(sids.shape[1], i + w))
        admissible = ~consumed[:, window] & (window < lengths[sent][:, None])
        if must >= 0:
            admissible &= (window == must) | consumed[:, must][:, None]

        # group states by (sentence, LM context), one key per state: the
        # context's symbol ranks as digits after the sentence, made dense
        # ranks again whenever the next digit could pass _KEY_LIMIT. A group
        # is ordered by its first state
        c0 = max(0, i - order)  # the LM context is emitted[:, c0:i - 1]
        key, bound = sent, len(block)
        for column in ext_rank[emitted[:, c0:i - 1]].T:
            if bound * n_ranks > _KEY_LIMIT:
                key, bound = _dense_rank(key), sent.size
            key, bound = key * n_ranks + column, bound * n_ranks
        _, group_first, group = np.unique(key, return_index=True, return_inverse=True)

        # one pool row per (group, window position, admissible state), in
        # pool order, so each sentence's rows lie together
        row_state, row_win = np.nonzero(admissible)
        pool_key = (group_first[group[row_state]] * window.size + row_win) * sent.size
        by_pool = (pool_key + row_state).argsort()
        row_state = row_state[by_pool]
        row_pos = window[row_win[by_pool]]
        row_sent = sent[row_state]
        rows_per_sent = np.bincount(row_sent, minlength=len(block))
        if not rows_per_sent[lengths >= i].all():
            raise DataError("no admissible decoding path (window too small)")
        # each group's LM row in each part's table is the row at the group's
        # slot there; a table holds one row per state of its part and is
        # gathered from in place
        contexts = emitted[group_first, c0:i - 1]
        row_lm = [table.slots(contexts)[group[row_state]] * len(ext_vocab)
                  for _, table in tables]
        row_score = score[row_state]
        row_first = pos_start[row_sent, row_pos]
        row_count = pos_count[row_sent, row_pos]

        # the sample, each row's first ceil(width / rows of its sentence)
        # entries, and thr, each sentence's width-th best sampled score
        sampled = np.minimum(row_count, (-(-width // np.maximum(rows_per_sent, 1)))[row_sent])
        flat, cols = _entry_scores(tables, model.lm_weight, cand_ids, cand_lex,
                                   row_lm, row_score, row_first, sampled)
        sample_sent = row_sent.repeat(sampled)
        per_sent = np.bincount(sample_sent, minlength=len(block))
        by_score = (-flat).argsort()
        by_score = _by_sentence(by_score, sample_sent[by_score])
        thr = np.full(len(block), -np.inf)
        bounded = np.flatnonzero(per_sent >= width)
        thr[bounded] = flat[by_score[(per_sent.cumsum() - per_sent)[bounded] + width - 1]]

        # the rest of each row's prefix whose bound reaches thr
        top = float(np.log(mixture(tables, [table.prob_max for _, table in tables])))
        lift = model.lm_weight * max(top, 0.0)
        row_thr = thr[row_sent]
        with np.errstate(invalid="ignore"):  # -inf - -inf: the row keeps all
            least = row_thr - row_score - (
                lift + _SLACK * (slack_floor + lift + np.abs(row_thr) + np.abs(row_score)))
        reach = cand_key.searchsorted(run_base[row_first] - least, "right") - row_first
        more = np.clip(reach, sampled, row_count) - sampled
        more_flat, more_cols = _entry_scores(tables, model.lm_weight, cand_ids, cand_lex,
                                             row_lm, row_score, row_first + sampled, more)
        flat = np.concatenate((flat, more_flat))
        cols = np.concatenate((cols, more_cols))
        rows = np.concatenate((np.arange(row_sent.size).repeat(sampled),
                               np.arange(row_sent.size).repeat(more)))
        del more_flat, more_cols

        # each sentence keeps the first `width` of its entries at or above
        # thr by (-score, row, candidate id): one sort per key, the least
        # significant first, (row, candidate id) being distinct
        keep = np.flatnonzero(flat >= row_thr[rows])
        keep = keep[(rows[keep] * len(ext_vocab) + cand_ids[cols[keep]]).argsort()]
        keep = keep[(-flat[keep]).argsort(kind="stable")]
        keep_sent = row_sent[rows[keep]]
        keep = _by_sentence(keep, keep_sent)
        counts = np.bincount(keep_sent, minlength=len(block))
        keep = keep[np.arange(keep.size) - (counts.cumsum() - counts).repeat(counts) < width]

        rows = rows[keep]
        parent = row_state[rows]
        token = cand_ids[cols[keep]]
        score = flat[keep]
        sent = sent[parent]
        consumed = consumed[parent]
        consumed[np.arange(keep.size), row_pos[rows]] = True
        emitted = np.concatenate((emitted[parent], token[:, None]), axis=1)
        if id_bound * len(ext_vocab) > _KEY_LIMIT:
            surf, id_bound = _dense_rank(surf), surf.size
            seq = surf if one_spelling else _dense_rank(seq)
        surf = surf[parent] * len(ext_vocab) + ext_rank[token]
        seq = surf if one_spelling else seq[parent] * len(ext_vocab) + token
        id_bound *= len(ext_vocab)
        del flat, cols

        done = lengths[sent] == i
        if done.any():
            at = np.flatnonzero(done)
            at = at[_nbest_lists(sent[at], score[at], seq[at], surf[at], n)]
            finished.append((sent[at], emitted[at], score[at]))
            live = ~done
            score, sent, seq, surf = score[live], sent[live], seq[live], surf[live]
            consumed, emitted = consumed[live], emitted[live]

    # the lists in block order: each sentence finished at one step, and a
    # step's entries come sentence by sentence, each list in its order
    sent = np.concatenate([s for s, _, _ in finished])
    by_sent = _by_sentence(np.arange(sent.size), sent)
    hyps = np.zeros((sent.size, sids.shape[1]), dtype=_id_type(len(ext_vocab)))
    at = 0
    for _, ids, _ in finished:
        hyps[at:at + len(ids), :ids.shape[1]] = ids
        at += len(ids)
    sizes = np.bincount(sent, minlength=len(block))
    return NBestBlock(list(block), ext_vocab, hyps[by_sent], lengths[sent[by_sent]],
                      np.concatenate([v for _, _, v in finished])[by_sent],
                      np.concatenate(([0], sizes.cumsum())))


def _stacked_candidates(models: Sequence[LexModel]):
    """The models' candidate tables (`LexModel._candidate_table`) back to
    back, as (ext ids, lex log-probs, start, count, base): model i's source
    id s owns the run at start[base[i] + s], whose starts are shifted past
    the entries of the models before it."""
    ids, lex, start, count = zip(*(m._candidate_table() for m in models))
    shift = np.cumsum([0] + [a.size for a in ids[:-1]])
    base = np.cumsum([0] + [a.size for a in start[:-1]])
    return (np.concatenate(ids), np.concatenate(lex),
            np.concatenate([a + at for a, at in zip(start, shift.tolist())]),
            np.concatenate(count), base)


def _dense_rank(key: np.ndarray) -> np.ndarray:
    """Each key's rank among the distinct keys."""
    return np.unique(key, return_inverse=True)[1]


def _by_sentence(order: np.ndarray, sent: np.ndarray) -> np.ndarray:
    """`order` stably sorted by `sent`, the sentence of each of its entries.
    The ids are cast to the smallest unsigned type that holds them, which
    numpy sorts stably by radix: several times faster than `np.lexsort`,
    whose keys take merge sorts."""
    return order[sent.astype(np.min_scalar_type(sent.max(initial=0))).argsort(kind="stable")]


def _entry_scores(tables: tuple, lm_weight: float, cand_ids: np.ndarray,
                  cand_lex: np.ndarray, row_lm: list, row_score: np.ndarray,
                  first: np.ndarray, lens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(scores, candidate entries) of candidate entries first[r]:first[r] +
    lens[r] of every pool row r, row by row. Row r extends a state scored
    row_score[r]; in the p-th of the (weight, table) pairs `tables`, its LM
    row is at table.probs.flat[row_lm[p][r]:]. Each entry gathers every
    part's probability, `lm.mixture` mixes them with the tables' weights,
    and lm is the log of the mixture; an entry scores

        score + (lex + lm_weight * lm)

    with each addition and product as written (a + b is b + a and a * b is
    b * a, bit for bit), so an entry's score does not depend on which
    entries are scored with it. The LM gathers are freed once mixed.
    """
    ends = lens.cumsum()
    cols = (first - ends + lens).repeat(lens)
    cols += np.arange(cols.size)
    at = cand_ids.take(cols)
    flat = mixture(tables, [table.probs.take(at + lm.repeat(lens))
                            for (_, table), lm in zip(tables, row_lm)])
    del at
    np.log(flat, out=flat)
    flat *= lm_weight
    flat += cand_lex.take(cols)
    flat += row_score.repeat(lens)
    return flat, cols


def _nbest_lists(sent: np.ndarray, score: np.ndarray, seq: np.ndarray,
                 surf: np.ndarray, n: int) -> np.ndarray:
    """The states that make the n-best lists of a step's finished sentences:
    their indices, sentence by sentence in ascending order, each list in its
    order.

    State k of sentence sent[k] scores score[k]; seq[k] and surf[k] are its
    sequence ids (see `_decode_block`): seq is equal for equal id sequences
    and surf for equal surfaces, and surf orders as the surfaces' symbol
    strings compare. Each sentence's states are given in beam order. A list
    holds:

    - each id sequence once, with the first of its best scores; a state
      scored -inf enters no list;
    - each surface once: two id sequences that spell the same symbols (the
      two ext ids of the unknown token) keep the one whose first state comes
      later, with its score;
    - the top n in (-score, surface) order.

    Each rule is one stable lexsort of three keys over all the states, runs
    of equal keys marking the groups.
    """
    state = np.flatnonzero(score > -np.inf)
    # id sequences: within a run, the best score comes first, earliest first
    by_ids = state[np.lexsort((-score[state], seq[state], sent[state]))]
    starts = np.flatnonzero(_run_starts(sent[by_ids], seq[by_ids]))
    best = by_ids[starts]
    first = np.minimum.reduceat(by_ids, starts) if by_ids.size else by_ids
    # surfaces: within a run, the id sequence with the latest first state first
    by_surface = np.lexsort((-first, surf[best], sent[best]))
    won = by_surface[_run_starts(sent[best][by_surface], surf[best][by_surface])]
    # each list: (-score, surface) order, top n
    kept = best[won]
    kept = kept[np.lexsort((surf[kept], -score[kept], sent[kept]))]
    _, counts = np.unique(sent[kept], return_counts=True)
    return kept[np.arange(kept.size) - (counts.cumsum() - counts).repeat(counts) < n]


def _run_starts(*keys: np.ndarray) -> np.ndarray:
    """Whether each element, in sorted order, starts a run of equal keys."""
    starts = np.zeros(keys[0].size, dtype=bool)
    starts[:1] = True
    for key in keys:
        starts[1:] |= key[1:] != key[:-1]
    return starts


def pair_channel_scores(model: LexModel, xs: list[Sentence], ys: list[Sentence],
                        x_at: np.ndarray, y_at: np.ndarray) -> np.ndarray:
    """IBM1 marginal ln P(x | y) of every pair (xs[x_at[k]], ys[y_at[k]])
    under a model trained in the y->x direction, as one gather per (|y|, |x|)
    shape:

        sum_j ln max( (1/(l+1)) * sum_{i=0..l} t_ext(y_i, x_j), unk_floor ),

    l = |y|, y index 0 = NULL. Unknown symbols look up at the floor
    probability; each position's inner marginal is also floored so the score
    stays finite. Each sentence is mapped to ids once; a gather holds at most
    about `_GATHER_CHUNK` elements, and a score does not depend on the other
    pairs it is computed with.
    """
    ns, nt = model.t.shape
    return _pair_scores(model, model._t_ext(), _ids_end_to_end(xs, model.tgt_id, nt),
                        _ids_end_to_end(ys, model.src_id, ns), x_at, y_at)


def block_channel_scores(model: LexModel, block: NBestBlock) -> np.ndarray:
    """`pair_channel_scores` of every entry of a block with its list's
    source: ln P(source | entry) under a model trained opposite to the
    block's decoder. The entries' ids go through one map from the block's
    symbols to the model's source ids."""
    ns, nt = model.t.shape
    to_src = np.fromiter(map(model.src_id.get, block.symbols, repeat(ns)), dtype=np.intp,
                         count=len(block.symbols))
    ids, lengths = block.tokens()
    return _pair_scores(model, model._t_ext(), _ids_end_to_end(block.sources, model.tgt_id, nt),
                        (to_src.take(ids), lengths.cumsum() - lengths, lengths),
                        block.list_of_entries(), np.arange(lengths.size))


def _pair_scores(model: LexModel, t_ext: np.ndarray, x, y, x_at: np.ndarray,
                 y_at: np.ndarray) -> np.ndarray:
    """`pair_channel_scores` of sentences given as (ids laid end to end,
    each sentence's start, its length): x in the model's target ids, y in
    its source ids; `t_ext` is the model's padded table (`LexModel._t_ext`)."""
    (x_ids, x_start, x_len), (y_ids, y_start, y_len) = x, y
    out = np.zeros(len(x_at))
    base = int(x_len.max(initial=0)) + 1
    shapes, group = np.unique(y_len[y_at] * base + x_len[x_at], return_inverse=True)
    for shape, members in zip(shapes.tolist(), _members(group, len(shapes))):
        l, m = divmod(shape, base)
        step = max(1, _GATHER_CHUNK // ((l + 1) * max(m, 1)))
        for lo in range(0, members.size, step):
            chunk = members[lo:lo + step]
            rows = np.zeros((chunk.size, l + 1), dtype=np.intp)   # column 0: NULL
            rows[:, 1:] = y_ids[y_start[y_at[chunk]][:, None] + np.arange(l)]
            cols = x_ids[x_start[x_at[chunk]][:, None] + np.arange(m)]
            # sum / count is the mean bit for bit, without np.mean's call overhead
            inner = t_ext[rows[:, :, None], cols[:, None, :]].sum(axis=1) / (l + 1)
            out[chunk] = np.log(np.maximum(inner, model.unk_floor)).sum(axis=1)
    return out


# Row elements, and sentence pairs, that `cross_channel_scores` holds at
# once: a run takes whole blocks, or pieces of a block's ys, while their rows
# and pairs fit. On the bench's `mine` inputs (seed 1: 60 matched document
# pairs of 30 x 30 sentences, about 180 doc_a tokens a pair), the
# alignment's traced heap (tracemalloc, from the end of `match_documents`)
# peaked at 1.13 MB at this bound (about 6 document pairs a run), against
# 0.59 MB at 2**13, 0.82 MB at 2**14, 1.73 MB at 2**16 and 2.93 MB at
# 2**17, and 1.21 MB for the batches of 8192 pairs through
# `pair_channel_scores` it replaced; `em_train` on the same inputs peaks at
# 2.19 MB. The alignment took a median of 22.5 ms at this bound, 33.0 ms at
# 2**13, 24.3 ms at 2**14, 20.5 ms at 2**16, 21.9 ms at 2**17 and 44.6 ms
# with the batches of pairs (25 interleaved runs each, on a shared 2-core
# host).
_CROSS_RUN = 1 << 15


def cross_channel_scores(model: LexModel, blocks: list[tuple[Sequence[Sentence], Sequence[Sentence]]]
                         ) -> list[np.ndarray]:
    """For each block (xs, ys), the (len(xs), len(ys)) matrix of ln P(x | y):
    `pair_channel_scores` of every x of the block with every y of it, through
    one log-marginal row per y.

    A position's floored inner marginal depends only on y and on the target
    symbol there, so y's row holds it for each ext target id its block's xs
    use:

        ln max( (t_ext(NULL, .) + t_ext(y_1, .) + ... + t_ext(y_l, .)) / (l+1), unk_floor ),

    summed in sentence order, the order in which `_pair_scores` sums its
    gather over y when |x| >= 2. A score is its y's row gathered at x's ids
    and summed along the last axis, as there. A gather over one x sums over
    y pairwise once l + 1 >= 8, so the |x| = 1 pairs go through
    `_pair_scores`. Every score is the one `pair_channel_scores` gives, bit
    for bit.

    A row costs (l+1) additions per column, and it has at most as many
    columns as its block's xs have tokens, so the rows never gather more than
    `_pair_scores` does for the same pairs, (l+1) * |x| a pair, and they take
    one log per y and column where it takes one per pair and position. The
    blocks are scored in runs (see `_CROSS_RUN`), each run's rows laid end to
    end and its pairs scored together, so a run costs a fixed number of
    NumPy calls however many blocks it holds. The model's table is padded
    once per call, for every run.
    """
    ns, nt = model.t.shape
    t_ext = model._t_ext()
    out = [np.zeros((len(xs), len(ys))) for xs, ys in blocks]
    for run in _cross_runs(blocks, nt):
        _cross_run(model, t_ext, blocks, run, out)
    return out


def _cross_runs(blocks, nt: int):
    """Runs of pieces (block, first y, end y), in order: whole blocks, or a
    block's ys cut into pieces, while the run's rows and pairs number at
    most `_CROSS_RUN`; a piece holds at least one y."""
    run, size = [], 0
    for k, (xs, ys) in enumerate(blocks):
        # a y's row has at most nt + 1 columns and one per token of the xs,
        # and the y pairs with every x
        per_y = max(min(nt + 1, sum(map(len, xs))), len(xs), 1)
        width = max(1, _CROSS_RUN // per_y)
        for lo in range(0, len(ys), width):
            hi = min(lo + width, len(ys))
            if run and size + (hi - lo) * per_y > _CROSS_RUN:
                yield run
                run, size = [], 0
            run.append((k, lo, hi))
            size += (hi - lo) * per_y
    if run:
        yield run


def _cross_run(model: LexModel, t_ext: np.ndarray, blocks, run, out: list[np.ndarray]) -> None:
    """Score one run of `_cross_runs` into the blocks' matrices `out`, from
    the model's padded table `t_ext`."""
    ns, nt = model.t.shape
    heights = np.array([len(blocks[k][0]) for k, _, _ in run], dtype=np.intp)
    widths = np.array([hi - lo for _, lo, hi in run], dtype=np.intp)
    pieces = np.arange(len(run))
    x_ids, x_start, x_len = x = _ids_end_to_end(
        [x for k, _, _ in run for x in blocks[k][0]], model.tgt_id, nt)
    y = _ids_end_to_end([y for k, lo, hi in run for y in blocks[k][1][lo:hi]],
                        model.src_id, ns)
    # each piece's columns: the ext target ids its xs use, pieces in order;
    # tok_col[j] is token j's column among all of them
    keys, tok_col = np.unique(np.repeat(np.repeat(pieces, heights), x_len) * (nt + 1) + x_ids,
                              return_inverse=True)
    first = np.searchsorted(keys // (nt + 1), np.arange(len(run) + 1))
    rows, row_base = _cross_rows(model, t_ext, y, np.repeat(pieces, widths), keys % (nt + 1),
                                 first)
    # each piece's pairs, row by row
    sizes = heights * widths
    pair_first = sizes.cumsum() - sizes
    piece = np.repeat(pieces, sizes)
    row, col = np.divmod(np.arange(int(sizes.sum())) - pair_first[piece], widths[piece])
    x_at = row + (heights.cumsum() - heights)[piece]
    y_at = col + (widths.cumsum() - widths)[piece]
    scores = np.zeros(x_at.size)
    lengths, group = np.unique(x_len[x_at], return_inverse=True)
    for m, members in zip(lengths.tolist(), _members(group, len(lengths))):
        if m == 1:
            scores[members] = _pair_scores(model, t_ext, x, y, x_at[members], y_at[members])
            continue
        step = max(1, _CROSS_RUN // max(m, 1))
        for lo in range(0, members.size, step):
            chunk = members[lo:lo + step]
            at = row_base[y_at[chunk], None] + tok_col[x_start[x_at[chunk], None] + np.arange(m)]
            # a (pairs, m) gather, each sum over a contiguous row, as in
            # `_pair_scores`
            scores[chunk] = rows[at].sum(axis=1)
    for p, (k, lo, hi) in enumerate(run):
        out[k][:, lo:hi] = scores[pair_first[p]:pair_first[p] + sizes[p]].reshape(heights[p], hi - lo)


def _cross_rows(model: LexModel, t_ext: np.ndarray, y, y_piece: np.ndarray,
                symbols: np.ndarray, first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of `cross_channel_scores` for the ys `y`, laid end to end,
    and each y's base: y's entry for its piece's column c (counted across
    all pieces) is rows[base[y] + c]. Piece p's columns are the ext target
    ids symbols[first[p]:first[p + 1]]; y_piece is each y's piece, and
    `t_ext` the model's padded table."""
    y_ids, y_start, y_len = y
    # ys longest first, so the ys with an i-th symbol are a prefix, and so
    # are their rows' elements
    longest = np.argsort(-y_len, kind="stable")
    piece = y_piece[longest]
    lens, starts, n_cols = y_len[longest], y_start[longest], np.diff(first)[piece]
    row_end = n_cols.cumsum()
    row_start = row_end - n_cols
    elements = symbols[np.arange(int(row_end[-1]) if row_end.size else 0)
                       + np.repeat(first[piece] - row_start, n_cols)]
    acc = t_ext[0, elements]   # NULL
    for i in range(int(lens.max(initial=0))):
        alive = int(np.count_nonzero(lens > i))
        end = int(row_end[alive - 1])
        acc[:end] += t_ext[np.repeat(y_ids[starts[:alive] + i], n_cols[:alive]), elements[:end]]
    base = np.empty(lens.size, dtype=np.intp)
    base[longest] = row_start - first[piece]
    return np.log(np.maximum(acc / np.repeat(lens + 1, n_cols), model.unk_floor)), base


def _ids_end_to_end(sentences: list[Sentence], ids: dict[str, int], unknown: int):
    """(ids of all tokens laid end to end, each sentence's start, its length)."""
    lengths = np.array([len(s) for s in sentences], dtype=np.intp)
    flat = np.fromiter(map(ids.get, chain.from_iterable(sentences), repeat(unknown)),
                       dtype=np.intp, count=int(lengths.sum()))
    return flat, lengths.cumsum() - lengths, lengths


def _members(group: np.ndarray, n_groups: int) -> list[np.ndarray]:
    """Indices of each group's members, in ascending order."""
    by_group = np.argsort(group, kind="stable")
    return np.split(by_group, np.bincount(group, minlength=n_groups).cumsum()[:-1])


FORMAT_VERSION = 1


def _t_rows_json(model: LexModel) -> str:
    """The text of the `t_rows` member: each source symbol's row of
    [target id, probability] entries, from the table's nonzero entries in
    row-major order."""
    rows, ids = np.nonzero(model.t)
    return pair_runs_json(ids, model.t[rows, ids],
                          np.bincount(rows, minlength=len(model.src_vocab)))


def _lex_json(model: LexModel) -> str:
    """The stable JSON text of a model's document, which `model_from_dict`
    reads: its settings, vocabularies, table rows and LM."""
    return stable_json_object(
        {"version": FORMAT_VERSION, "kind": "lex",
         "src_lang": model.src_lang, "tgt_lang": model.tgt_lang,
         "src_vocab": list(model.src_vocab), "tgt_vocab": list(model.tgt_vocab),
         "beam": model.beam, "window": model.window, "lm_weight": model.lm_weight,
         "unk_floor": model.unk_floor, "train_ll_trace": list(model.train_ll_trace)},
        {"t_rows": _t_rows_json(model), "lm": lm_json(model.lm)})


def _t_table(rows: list, n_src: int, n_tgt: int) -> np.ndarray:
    """The translation table of `t_rows`, row i holding [target id,
    probability] entries of source symbol i; ValueError for a malformed row.
    Ids are distinct within a row and lie in [0, n_tgt); probabilities lie
    in [0, 1], as EM's normalized rows do."""
    if len(rows) > n_src:
        raise ValueError(f"{len(rows)} rows for {n_src} source symbols")
    t = np.zeros((n_src, n_tgt))
    for i, row in enumerate(rows):
        if not isinstance(row, list) or \
                not all(isinstance(e, (list, tuple)) and len(e) == 2 for e in row):
            raise ValueError(f"row {i}: entries must be [target id, probability] pairs")
        ids = [j for j, _ in row]
        values = [v for _, v in row]
        if not all(type(j) is int and 0 <= j < n_tgt for j in ids) or len(set(ids)) < len(ids):
            raise ValueError(f"row {i}: target ids must be distinct ids in [0, {n_tgt})")
        if not all(type(v) in (int, float) and 0 <= v <= 1 for v in values):
            raise ValueError(f"row {i}: probabilities must be numbers in [0, 1]")
        t[i, ids] = values
    return t


def model_from_dict(doc: dict) -> LexModel:
    """The model of a document `model_json` writes; a malformed document
    raises DataError naming the key."""
    what = "model document"
    if not isinstance(doc, dict) or doc.get("version") != FORMAT_VERSION \
            or doc.get("kind") != "lex":
        raise DataError("unsupported model serialization")
    src_vocab = doc_strings(doc, "src_vocab", what)
    tgt_vocab = doc_strings(doc, "tgt_vocab", what)
    try:
        t = _t_table(doc_field(doc, "t_rows", list, what), len(src_vocab), len(tgt_vocab))
    except ValueError as e:
        raise DataError(f"{what}: malformed key 't_rows': {e}") from e
    trace = doc_field(doc, "train_ll_trace", list, what)
    if not all(type(v) in (int, float) and -sys.float_info.max <= v <= sys.float_info.max
               for v in trace):
        raise DataError(f"{what}: key 'train_ll_trace' must hold finite numbers")
    return LexModel(src_vocab, tgt_vocab, t, lm_from_dict(doc_field(doc, "lm", dict, what)),
                    beam=doc_field(doc, "beam", int, what),
                    window=doc_field(doc, "window", int, what),
                    lm_weight=doc_float(doc, "lm_weight", what),
                    src_lang=doc_field(doc, "src_lang", str, what),
                    tgt_lang=doc_field(doc, "tgt_lang", str, what),
                    unk_floor=doc_float(doc, "unk_floor", what),
                    train_ll_trace=tuple(trace))


def model_json(model: LexModel) -> tuple[str, str]:
    """Stable JSON text of a model's artifact and its content hash.

    The text is `model.artifact_json()`: an Ensemble's document lists its
    members' hashes; any other model's holds its table, LM and settings,
    written from the table's and the LM's arrays (`_lex_json`). The text is
    `stable_json_dumps` of the document, so the dict form of an artifact is
    `json.loads` of its text and `model_from_dict` reads it back. The hash
    is `content_hash` of that document, memoized for `model_hash`.
    """
    text = model.artifact_json()
    return text, model._caches.setdefault("hash", sha256_text(text))


def model_hash(model: LexModel) -> str:
    """Content hash of a model's artifact (memoized on the model)."""
    digest = model._caches.get("hash")
    return digest if digest is not None else model_json(model)[1]
