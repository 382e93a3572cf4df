"""Lexical translation models: IBM-Model-1 EM training, a windowed monotone
beam decoder producing n-best lists, the corpus decoder `translate_corpus`
that every decode in the package goes through, and channel scoring of
sentence pairs in batches (`pair_channel_scores`).

The decoder emits one target symbol per source position; at target step i it
may consume any unconsumed source position j with |j - i| <= window, so a
window of w allows local reorderings of radius w. Each step scores

    ln t(y | x_j) + lm_weight * ln P_lm(y | history)

and hypotheses are ranked by total score. Unknown source symbols translate to
the reserved unknown token at a configured floor probability.

`translate_corpus` decodes its sources in blocks of at most `_DECODE_STATES`
live beam states (sentences x beam width), running each beam step once for
the whole block. Every sentence keeps its own beam, its own pool order and
its own selection (see `_decode_block`), so a source's n-best list does not
depend on the block it is decoded in; `translate_nbest` is the one-source
case. So blocks are filled from the sources sorted by length, which keeps
a block's steps close to what each of its sources needs, and the lists of
the sentences that finish at a step are built from the step's arrays with
a few sorts (`_nbest_lists`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .corpus import UNK_TOKEN, DataMix, Sentence
from .lm import LanguageModel, lm_from_dict, lm_to_dict, row_table, train_lm
from .util import NUMBER, DataError, doc_field, doc_strings, sha256_text, stable_json_dumps

NULL = "<null>"
DEFAULT_UNK_FLOOR = 1e-9


@dataclass
class NBestEntry:
    hyp: Sentence
    fwd: float
    channel: float | None = None
    lm: float | None = None
    combined: float | None = None


@dataclass
class NBestList:
    source: Sentence
    entries: list[NBestEntry]

    def top(self) -> NBestEntry:
        return self.entries[0]


class LexModel:
    """Directional translation model: lexical table + target LM + decoder settings.

    A model is immutable once it has been used: the decoding state in
    `_caches` and the memoized `model_hash` are built from its table, LM
    and settings on first use and never invalidated, so changing any of
    them afterwards gives stale results. Derive a new model instead.

    The LM rows the decoder reads live on the LM, not the model:
    `_row_table` returns `lm.row_table(lm, tgt_vocab + <unk>)`, which holds
    one row per LM state, so models that share an LM and a target vocabulary
    (fine-tune candidates, an ensemble and its first member) share one table.
    """

    def __init__(self, src_vocab: tuple[str, ...], tgt_vocab: tuple[str, ...],
                 t: np.ndarray, lm: LanguageModel, *, beam: int = 5, window: int = 1,
                 lm_weight: float = 0.5, src_lang: str = "src", tgt_lang: str = "tgt",
                 unk_floor: float = DEFAULT_UNK_FLOOR,
                 train_ll_trace: tuple[float, ...] = ()):
        if not src_vocab or src_vocab[0] != NULL:
            raise DataError("source vocabulary must start with the NULL symbol")
        if beam < 1 or window < 0 or lm_weight < 0:
            raise DataError("invalid decoder settings")
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

    def artifact(self) -> dict:
        """The JSON document that `model_json` serializes and hashes."""
        return model_to_dict(self)

    @property
    def direction(self) -> str:
        return f"{self.src_lang}->{self.tgt_lang}"

    # decoding state, built lazily and shared across calls

    def _ext_vocab(self) -> tuple[str, ...]:
        ext = self._caches.get("ext_vocab")
        if ext is None:
            ext = self.tgt_vocab + (UNK_TOKEN,)
            self._caches["ext_vocab"] = ext
        return ext

    def _row_table(self):
        """The LM's `RowTable` over the ext symbols; its `ranks` order the
        ext symbols as strings, the two ext ids of the unknown token sharing
        one rank."""
        return row_table(self.lm, self._ext_vocab())

    def _t_ext(self) -> np.ndarray:
        """Lexical table padded with a floor row/column for unknown symbols."""
        t_ext = self._caches.get("t_ext")
        if t_ext is None:
            ns, nt = self.t.shape
            t_ext = np.full((ns + 1, nt + 1), self.unk_floor)
            t_ext[:ns, :nt] = self.t
            self._caches["t_ext"] = t_ext
        return t_ext

    def _candidate_table(self):
        """(ext ids, lex log-probs, start, count) of every source symbol's
        decodable targets, back to back.

        Source id s owns entries start[s]:start[s] + count[s], in ascending
        target id order; id len(src_vocab) stands for unknown symbols. A symbol
        that is unknown or whose table row is all zero decodes to the unknown
        token at the floor probability.
        """
        table = self._caches.get("cands")
        if table is None:
            ns, nt = self.t.shape
            rows, ids = np.nonzero(self.t)
            lex = np.log(self.t[rows, ids])
            count = np.bincount(rows, minlength=ns + 1)
            start = count.cumsum() - count
            empty = count == 0
            start[empty], count[empty] = ids.size, 1
            table = (np.append(ids, nt), np.append(lex, np.log(self.unk_floor)),
                     start, count)
            self._caches["cands"] = table
        return table


class EMTrainer:
    """Stepwise IBM Model 1 EM over a training mix.

    Starts from a uniform table, or from an existing model's table when warm
    starting (symbols unknown to the warm model initialize uniform).
    Upsampled duplicates are folded into pair weights, which yields exactly
    the replicated-corpus estimates.
    """

    def __init__(self, mix: DataMix, warm_start: LexModel | None = None):
        pairs = mix.weighted_pairs().items()
        if not pairs:
            raise DataError("EM training needs at least one parallel pair")
        src_syms = {s for (src, _), _ in pairs for s in src}
        tgt_syms = {t for (_, tgt), _ in pairs for t in tgt}
        if warm_start is not None:
            src_syms |= set(warm_start.src_vocab[1:])
            tgt_syms |= set(warm_start.tgt_vocab)
        self.src_vocab = (NULL,) + tuple(sorted(src_syms))
        self.tgt_vocab = tuple(sorted(tgt_syms))
        src_id = {s: i for i, s in enumerate(self.src_vocab)}
        tgt_id = {s: i for i, s in enumerate(self.tgt_vocab)}
        self.groups = _group_pairs(pairs, src_id, tgt_id)
        nt = len(self.tgt_vocab)
        if warm_start is None:
            self.t = np.full((len(self.src_vocab), nt), 1.0 / nt)
        else:
            self.t = np.full((len(self.src_vocab), nt), 1.0 / nt)
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
        return LexModel(self.src_vocab, self.tgt_vocab, self.t.copy(), lm,
                        train_ll_trace=tuple(self.ll_trace), **settings)


def em_train(mix: DataMix, iterations: int, *, lm: LanguageModel | None = None,
             lm_order: int = 3, lm_k: float = 0.5, beam: int = 5, window: int = 1,
             lm_weight: float = 0.5, src_lang: str = "src", tgt_lang: str = "tgt") -> LexModel:
    """Standard IBM Model 1 EM with a NULL source word, from uniform initialization.

    The target-side LM is trained from the mix unless one is supplied.
    """
    if iterations < 1:
        raise DataError("EM needs at least one iteration")
    trainer = EMTrainer(mix)
    for _ in range(iterations):
        trainer.step()
    if lm is None:
        sents, weights = zip(*mix.target_sentences())
        lm = train_lm(list(sents), lm_order, lm_k, weights=list(weights))
    return trainer.snapshot(lm, beam=beam, window=window, lm_weight=lm_weight,
                            src_lang=src_lang, tgt_lang=tgt_lang)


def _group_pairs(pairs, src_id, tgt_id):
    """Group (src ids + NULL, tgt ids, weight) by shape for batched EM updates."""
    by_shape: dict[tuple[int, int], list] = {}
    for (src, tgt), w in pairs:
        by_shape.setdefault((len(src), len(tgt)), []).append(
            ([0] + [src_id[s] for s in src], [tgt_id[t] for t in tgt], w))
    groups = []
    for (ls, lt), rows in sorted(by_shape.items()):
        S = np.array([r[0] for r in rows], dtype=np.intp)
        T = np.array([r[1] for r in rows], dtype=np.intp)
        W = np.array([r[2] for r in rows], dtype=np.float64)
        groups.append((ls, lt, S, T, W))
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


# Live beam states per decoded block (sentences x beam width). A step's pool
# arrays grow with the block's states, so the block is bounded: decoding a
# 300-sentence pool at n=50 (the bench's `recipe` self-training pool, seed 1)
# as one block peaked at 57.8 MB of traced heap (tracemalloc), against 2.9 MB
# in length-sorted blocks of this size and 2.2 MB one sentence at a time
# (1.9 MB of each is the n-best lists).
_DECODE_STATES = 256


def translate_nbest(model: LexModel, x: Sentence, n: int) -> NBestList:
    """Beam search for the top-n target hypotheses of one source.

    The one-source case of `translate_corpus`: a block of one sentence, with
    the pool order and tie breaking that `_decode_block` documents.
    """
    return translate_corpus(model, [x], n)[0]


def translate_corpus(model: LexModel, sources: list[Sentence], nbest: int, *,
                     rerank_ctx=None) -> list[NBestList]:
    """n-best lists of every source, in source order.

    Every token of a source is translated. With a `rerank_ctx` (a
    `rerank.RerankContext`), the lists hold `rerank_ctx.nbest` entries and
    come back reranked by it, one `rerank_ctx.rerank` call per decoded block,
    which scores the block's entries in one pass; a list's order does not
    depend on the block it is reranked in.

    Sources are decoded in blocks of max(1, `_DECODE_STATES` // width)
    sentences, width = max(model.beam, n), each beam step running once over
    the whole block. A block runs as many steps as its longest source, so
    blocks are filled from the sources sorted by length (stably): a block's
    sources have nondecreasing lengths, and the lists come back in source
    order. Each sentence keeps its own beam from its own pool by
    the (-score, pool index) rule of `_decode_block`, so every list equals
    `translate_nbest` of its source whichever block holds it. The block is
    bounded because a step's arrays grow with it: one block for a whole
    n=50 pool would multiply the decoder's peak memory (see
    `_DECODE_STATES`).
    """
    if rerank_ctx is not None:
        nbest = rerank_ctx.nbest
    if not sources:
        return []
    if nbest < 1:
        raise DataError("n-best size must be >= 1")
    if not all(sources):
        raise DataError("cannot translate an empty sentence")
    width = max(model.beam, nbest)
    size = max(1, _DECODE_STATES // width)
    by_length = sorted(range(len(sources)), key=lambda k: len(sources[k]))
    lists: list[NBestList | None] = [None] * len(sources)
    for lo in range(0, len(sources), size):
        at = by_length[lo:lo + size]
        block = _decode_block(model, [sources[k] for k in at], width, nbest)
        if rerank_ctx is not None:
            block = rerank_ctx.rerank(block)
        for k, nb in zip(at, block):
            lists[k] = nb
    return lists


def _decode_block(model: LexModel, block: list[Sentence], width: int,
                  n: int) -> list[NBestList]:
    """Beam search for the top-n hypotheses of every source of a block.

    The effective beam width is max(model.beam, n) so an n-best list can
    always be filled from completed hypotheses; a sentence's list is built
    from its finished beam by `_nbest_lists`.

    Each target step scores one pool of extensions per sentence, and the
    pools of all sentences lie back to back in one array. The contract is:
    each sentence's next beam is the first `width` entries of its pool in
    (-score, pool index) order, so of equal scores the lower pool index
    wins, at the beam's tail as well as within it. The pool order is
    therefore part of the contract: states are grouped by LM context in
    order of first appearance in the beam; within a group come the window
    positions j in ascending order; within a position, the admissible
    states in beam order; within a state, the candidate targets of source
    position j in ascending id order. A sentence leaves the block after its
    last step.
    """
    w = model.window
    table = model._row_table()
    order = getattr(model.lm, "order", 1)
    ext_vocab = model._ext_vocab()
    ext_sym = np.array(ext_vocab, dtype=object)
    # LM contexts compare by symbol, and a target vocabulary that holds the
    # unknown token spells it with two ext ids: both have one rank
    ext_rank = table.ranks
    cand_ids, cand_lex, cand_start, cand_count = model._candidate_table()

    # source position j of sentence s decodes to candidate entries
    # pos_start[s, j]:pos_start[s, j] + pos_count[s, j]
    lengths = np.array([len(src) for src in block])
    unknown = len(model.src_vocab)
    sids = np.full((len(block), lengths.max()), unknown)
    for s, src in enumerate(block):
        sids[s, :len(src)] = [model.src_id.get(sym, unknown) for sym in src]
    pos_start, pos_count = cand_start[sids], cand_count[sids]

    # live states, sentence by sentence, each sentence's in beam order
    score = np.zeros(len(block))
    sent = np.arange(len(block))
    consumed = np.zeros(sids.shape, dtype=bool)
    emitted = np.zeros((len(block), 0), dtype=np.intp)
    lists: list[NBestList | None] = [None] * len(block)
    for i in range(1, sids.shape[1] + 1):
        lo = max(0, i - 1 - w)
        must = i - 1 - w  # this position can never be consumed after step i
        window = np.arange(lo, min(sids.shape[1], i + w))
        admissible = ~consumed[:, window] & (window < lengths[sent][:, None])
        if must >= 0:
            admissible &= (window == must) | consumed[:, must][:, None]

        # group states by (sentence, LM context); a group is ordered by its
        # first state, which lexsort (stable) puts first in the group's run
        c0 = max(0, i - order)  # the LM context is emitted[:, c0:i - 1]
        ctx = ext_rank[emitted[:, c0:i - 1]]
        by_key = np.lexsort((*ctx.T[::-1], sent))
        new_group = _run_starts(sent[by_key], ctx[by_key])
        group = np.empty_like(by_key)
        group[by_key] = new_group.cumsum() - 1
        group_first = by_key[new_group]

        # one pool row per (group, window position, admissible state): the
        # state's score plus the step scores of the position's candidates
        row_state, row_win = np.nonzero(admissible)
        pool_key = (group_first[group[row_state]] * window.size + row_win) * sent.size
        by_pool = (pool_key + row_state).argsort()
        row_state = row_state[by_pool]
        row_pos = window[row_win[by_pool]]
        row_sent = sent[row_state]
        live = np.flatnonzero(lengths >= i)
        rows_per_sent = np.bincount(row_sent, minlength=len(block))
        if not rows_per_sent[live].all():
            raise DataError("no admissible decoding path (window too small)")
        # each group's LM row is the table's row at the group's slot; the
        # table holds one row per LM state and is gathered from in place.
        # Pool entry e extends state row_state[r] of the row r that holds it
        # by candidate entry cols[e], and scores
        #     score + (lex + lm_weight * lm)
        # with each addition and product as written (a + b is b + a and
        # a * b is b * a, bit for bit). Pool-sized arrays are freed as soon
        # as they are used.
        slot = table.slots(emitted[group_first, c0:i - 1])
        lens = pos_count[row_sent, row_pos]
        ends = lens.cumsum()
        cols = (pos_start[row_sent, row_pos] - ends + lens).repeat(lens)
        cols += np.arange(ends[-1])
        at = cand_ids.take(cols)
        at += (slot[group[row_state]] * len(ext_vocab)).repeat(lens)
        flat = table.rows.take(at)
        del at
        flat *= model.lm_weight
        flat += cand_lex.take(cols)
        flat += score[row_state].repeat(lens)

        # each sentence keeps the first `width` of its pool by (-score, pool
        # index): a pool larger than that gets its width-th best score as a
        # threshold, which ties cannot move; the entries at or above it are
        # sorted stably by (sentence, -score), and each sentence's first
        # `width` are kept
        bounds = np.concatenate(([0], ends))[np.concatenate(([0], rows_per_sent.cumsum()))]
        first_el, sizes = bounds[live], np.diff(bounds)[live]
        thr = np.full(live.size, -np.inf)
        big = np.flatnonzero(sizes > width)
        for k, a, b in zip(big.tolist(), first_el[big].tolist(),
                           (first_el + sizes)[big].tolist()):
            thr[k] = np.partition(flat[a:b], -width)[-width]
        keep = np.flatnonzero(flat >= thr.repeat(sizes))
        seg = first_el.searchsorted(keep, "right") - 1
        keep = keep[np.lexsort((-flat[keep], seg))]
        counts = np.bincount(seg, minlength=live.size)
        keep = keep[np.arange(keep.size) - (counts.cumsum() - counts).repeat(counts) < width]

        rows = ends.searchsorted(keep, "right")
        parent = row_state[rows]
        score = flat[keep]
        sent = sent[parent]
        consumed = consumed[parent]
        consumed[np.arange(keep.size), row_pos[rows]] = True
        emitted = np.concatenate((emitted[parent], cand_ids[cols[keep]][:, None]), axis=1)
        del flat, cols

        done = lengths[sent] == i
        if done.any():
            for s, nb in _nbest_lists(block, sent[done], score[done], emitted[done],
                                      ext_sym, ext_rank, n).items():
                lists[s] = nb
            score, sent = score[~done], sent[~done]
            consumed, emitted = consumed[~done], emitted[~done]
    return lists


def _nbest_lists(block: list[Sentence], sent: np.ndarray, score: np.ndarray,
                 emitted: np.ndarray, ext_sym: np.ndarray, ext_rank: np.ndarray,
                 n: int) -> dict[int, NBestList]:
    """The n-best list of every finished sentence of a block.

    State k of sentence sent[k] emitted the ext ids emitted[k] (all states
    finish at one step, so the rows have one length) and scores score[k];
    each sentence's states are given in beam order. A list holds:

    - each id sequence once, with the first of its best scores; a state
      scored -inf enters no list;
    - each surface once: two id sequences that spell the same symbols (the
      two ext ids of the unknown token) keep the one whose first state comes
      later, with its score;
    - the top n in (-score, surface) order.

    `ext_rank` orders surfaces as their symbol strings compare. Each rule is
    one stable lexsort over all the states, runs of equal keys marking the
    groups.
    """
    lists = {s: NBestList(source=block[s], entries=[]) for s in np.unique(sent).tolist()}
    state = np.flatnonzero(score > -np.inf)
    # id sequences: within a run, the best score comes first, earliest first
    by_ids = state[np.lexsort((-score[state], *emitted[state].T[::-1], sent[state]))]
    starts = np.flatnonzero(_run_starts(sent[by_ids], emitted[by_ids]))
    best = by_ids[starts]
    first = np.minimum.reduceat(by_ids, starts) if by_ids.size else by_ids
    # surfaces: within a run, the id sequence with the latest first state first
    ranks = ext_rank[emitted[best]]
    by_surface = np.lexsort((-first, *ranks.T[::-1], sent[best]))
    won = by_surface[_run_starts(sent[best][by_surface], ranks[by_surface])]
    # each list: (-score, surface) order, top n
    kept = best[won]
    kept = kept[np.lexsort((*ranks[won].T[::-1], -score[kept], sent[kept]))]
    _, counts = np.unique(sent[kept], return_counts=True)
    kept = kept[np.arange(kept.size) - (counts.cumsum() - counts).repeat(counts) < n]
    for s, hyp, fwd in zip(sent[kept].tolist(), ext_sym[emitted[kept]].tolist(),
                           score[kept].tolist()):
        lists[s].entries.append(NBestEntry(hyp=tuple(hyp), fwd=fwd))
    return lists


def _run_starts(sent: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Whether each row, in sorted order, starts a run of equal (sent, row)."""
    starts = np.ones(sent.size, dtype=bool)
    starts[1:] = (sent[1:] != sent[:-1]) | (rows[1:] != rows[:-1]).any(axis=1)
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
    x_ids, x_start, x_len = _ids_end_to_end(xs, model.tgt_id, nt)
    y_ids, y_start, y_len = _ids_end_to_end(ys, model.src_id, ns)
    t_ext = model._t_ext()
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


def channel_scores(model: LexModel, x: Sentence, ys: list[Sentence]) -> list[float]:
    """`pair_channel_scores` of x with every y: ln P(x | y) for each y."""
    return pair_channel_scores(model, [x], ys, np.zeros(len(ys), dtype=np.intp),
                               np.arange(len(ys))).tolist()


FORMAT_VERSION = 1


def model_to_dict(model: LexModel) -> dict:
    rows = []
    for i in range(len(model.src_vocab)):
        nz = np.flatnonzero(model.t[i])
        rows.append([[j, v] for j, v in zip(nz.tolist(), model.t[i, nz].tolist())])
    return {
        "version": FORMAT_VERSION, "kind": "lex",
        "src_lang": model.src_lang, "tgt_lang": model.tgt_lang,
        "src_vocab": list(model.src_vocab), "tgt_vocab": list(model.tgt_vocab),
        "beam": model.beam, "window": model.window, "lm_weight": model.lm_weight,
        "unk_floor": model.unk_floor,
        "train_ll_trace": list(model.train_ll_trace),
        "t_rows": rows, "lm": lm_to_dict(model.lm),
    }


def model_from_dict(doc: dict) -> LexModel:
    """Inverse of model_to_dict; a malformed document raises DataError naming the key."""
    what = "model document"
    if not isinstance(doc, dict) or doc.get("version") != FORMAT_VERSION \
            or doc.get("kind") != "lex":
        raise DataError("unsupported model serialization")
    src_vocab = doc_strings(doc, "src_vocab", what)
    tgt_vocab = doc_strings(doc, "tgt_vocab", what)
    t = np.zeros((len(src_vocab), len(tgt_vocab)))
    try:
        for i, row in enumerate(doc_field(doc, "t_rows", list, what)):
            for j, value in row:
                t[i, int(j)] = float(value)
    except (TypeError, ValueError, IndexError) as e:
        raise DataError(f"{what}: malformed key 't_rows': {e}") from e
    return LexModel(src_vocab, tgt_vocab, t, lm_from_dict(doc_field(doc, "lm", dict, what)),
                    beam=doc_field(doc, "beam", int, what),
                    window=doc_field(doc, "window", int, what),
                    lm_weight=float(doc_field(doc, "lm_weight", NUMBER, what)),
                    src_lang=doc_field(doc, "src_lang", str, what),
                    tgt_lang=doc_field(doc, "tgt_lang", str, what),
                    unk_floor=float(doc_field(doc, "unk_floor", NUMBER, what)),
                    train_ll_trace=tuple(doc_field(doc, "train_ll_trace", list, what)))


def model_json(model: LexModel) -> tuple[str, str]:
    """Stable JSON text of a model's artifact and its content hash.

    The document is `model.artifact()`: an Ensemble's lists its members'
    hashes; any other model's holds its table, LM and settings. The hash is
    `content_hash` of that document, memoized for `model_hash`.
    """
    text = stable_json_dumps(model.artifact())
    return text, model._caches.setdefault("hash", sha256_text(text))


def model_hash(model: LexModel) -> str:
    """Content hash of a model's artifact (memoized on the model)."""
    digest = model._caches.get("hash")
    return digest if digest is not None else model_json(model)[1]
