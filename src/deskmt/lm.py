"""Smoothed n-gram language models with optional in-domain interpolation.

Estimates are add-k smoothed with backoff-by-interpolation to lower orders:

    P_j(w | ctx) = (c_j(ctx, w) + k*|S| * P_{j-1}(w | ctx[1:])) / (c_j(ctx) + k*|S|)

with P_0 uniform over the prediction space S = vocabulary + unknown. Training
counts token events only; the end-of-sentence marker is part of the
vocabulary and is scored context-free from its unigram (pure smoothing)
estimate, which keeps log-probabilities strictly decreasing under extension.

Counts live in sorted arrays over a context trie. Level j (1..order) counts
words after contexts of length j - 1. The root, the empty context of level
1, is node 0; a context of length j is the child of its newest j - 1 tokens'
node under its oldest token c, with key node * B + c, where B = |S| + 1 so
that the context-only BOS id |S| fits. A level's nodes are numbered by the
rank of their keys, so keys stay below (number of contexts) * B. Per level:

- `_count_keys`: sorted node * B + word keys; `_count_vals`: their counts,
  then 0.0, the count of any absent key;
- `_totals`: each node's total count, then 0.0 for an absent context;
- `_child_keys` (levels below `order`): the keys of the next level's nodes.

`logprobs` scores many sentences in one pass. It maps the batch's tokens to
ids once and scores each distinct event, a word after its BOS-padded
context, once: each level of the recurrence runs once over the events, by
key lookups in these arrays (for an interpolated model, once per part).
The entries of an n-best batch share prefixes, so there are far fewer
events than tokens: 13,565 against 88,198 over the 300 reranked lists of
the bench's `recipe` self-training pool (seed 1).

Rows are computed in batches, one array operation per level for all the
contexts a call asks for. Caches, each cleared before it would pass
`_CACHE_CAP` entries:

- `NGramLM._prob_cache`: (level, context ids) -> (row of P_level, the
  context's node), for levels below `order` only. Many top-order contexts
  back off to each of these rows. A top-order row is computed on request and
  not kept.
- `_scorer_rows` (both classes): symbol tuple -> (index, rows), where rows
  maps a token context to `cond_logprobs_at(context, index)`. Every
  `scorer_for` the same symbols returns a `_Scorer` over these shared rows,
  so models that share an LM and a target vocabulary share one set of rows.
  The LM holds no reference to a `_Scorer`, so the rows form no cycle and
  die with the LM.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

from .corpus import Sentence
from .util import NUMBER, DataError, doc_field, doc_strings

EOS = "</s>"
BOS = "<s>"

_CACHE_CAP = 200_000
_KEY_LIMIT = 2**62  # event keys stay below this, so within int64


class NGramLM:
    """Add-k interpolated n-gram model over a fixed symbol inventory."""

    def __init__(self, order: int, k: float, vocab: tuple[str, ...],
                 events: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
                 token_total: float):
        """`events[j]` holds the counts of level j + 1 as (history, word,
        count) rows; history[:, d - 1] is the id of the token d back."""
        self.order = order
        self.k = k
        self.vocab = vocab                      # observed tokens + EOS, sorted
        self.syms = vocab + ("<unk>",)          # prediction space S
        self.sym_id = {s: i for i, s in enumerate(self.syms)}
        self.unk_id = len(self.syms) - 1
        self.eos_id = self.sym_id[EOS]
        self.bos_id = len(self.syms)            # context-only marker
        self.token_total = token_total
        self._width = len(self.syms) + 1
        self._context_id = dict(self.sym_id)
        self._context_id[BOS] = self.bos_id
        self._count_tables(events)
        self._prob_cache: dict = {}
        self._scorer_rows: dict = {}
        self._uniform = np.full(len(self.syms), 1.0 / len(self.syms))
        self.interp_alpha = 0.0
        self.eos_logprob = float(np.log(self.eos_prob()))

    def _count_tables(self, events) -> None:
        """Build the trie tables; repeated (context, word) rows add up in row order."""
        width = self._width
        nodes = [np.zeros(len(words), dtype=np.int64) for _, words, _ in events]
        self._child_keys = []
        for level in range(1, self.order):
            # the contexts of length `level`: every row's context cut to it
            keys = [nodes[j] * width + events[j][0][:, level - 1]
                    for j in range(level, self.order)]
            level_keys = np.unique(np.concatenate(keys))
            self._child_keys.append(level_keys)
            for j, key in zip(range(level, self.order), keys):
                nodes[j] = level_keys.searchsorted(key)
        self._count_keys, self._count_vals, self._totals = [], [], []
        for j, (_, words, counts) in enumerate(events):
            keys, at = np.unique(nodes[j] * width + words, return_inverse=True)
            size = self._child_keys[j - 1].size if j else 1
            self._count_keys.append(keys)
            self._count_vals.append(np.append(np.bincount(at, counts, keys.size), 0.0))
            self._totals.append(np.append(np.bincount(nodes[j], counts, size), 0.0))
        if not all(np.isfinite(totals).all() for totals in self._totals):
            raise DataError("the counts of a context sum past the float range")

    def eos_prob(self) -> float:
        """Unigram (context-free) end-of-sentence probability."""
        return float(self._rows(1, [()])[0][0, self.eos_id])

    def id_or_unk(self, token: str) -> int:
        return self.sym_id.get(token, self.unk_id)

    def _ctx_ids(self, context: tuple[str, ...]) -> tuple[int, ...]:
        ids = tuple(self.id_or_unk(t) if t != BOS else self.bos_id for t in context)
        if len(ids) >= self.order:
            ids = ids[-(self.order - 1):] if self.order > 1 else ()
        else:
            ids = (self.bos_id,) * (self.order - 1 - len(ids)) + ids
        return ids

    def _lower_rows(self, level: int, ctxs: list[tuple[int, ...]]) -> list:
        """(row of P_level(. | ctx), ctx's node) of every ctx, for a level
        below `order`; kept in `_prob_cache`."""
        if level == 0:
            return [(self._uniform, 0)] * len(ctxs)

        def compute(keys):
            rows, nodes = self._rows(level, [ctx for _, ctx in keys])
            return zip(rows, nodes.tolist())

        return _cached(self._prob_cache, [(level, ctx) for ctx in ctxs], compute)

    def _rows(self, level: int, ctxs: list[tuple[int, ...]]) -> tuple[np.ndarray, np.ndarray]:
        """Rows of P_level(. | ctx) for every ctx, one per row of an array,
        and the contexts' nodes; the rows they back off to come from
        `_lower_rows`."""
        lower = self._lower_rows(level - 1, [ctx[1:] for ctx in ctxs])
        nodes = np.array([node for _, node in lower], dtype=np.int64)
        if level > 1:  # extend each context by its oldest token
            nodes = _find(self._child_keys[level - 2],
                          nodes * self._width + np.array([ctx[0] for ctx in ctxs]))
        # each node's counts: the run of keys from node * B up to (node + 1) * B
        keys = self._count_keys[level - 1]
        start = keys.searchsorted(nodes * self._width)
        counts = keys.searchsorted((nodes + 1) * self._width) - start
        at = np.arange(counts.sum()) + np.repeat(start - counts.cumsum() + counts, counts)
        owner = np.repeat(np.arange(len(ctxs)), counts)
        ks = self.k * len(self.syms)
        rows = ks * np.array([row for row, _ in lower])
        rows[owner, keys[at] - nodes[owner] * self._width] += self._count_vals[level - 1][at]
        rows /= (self._totals[level - 1][nodes] + ks)[:, None]
        return rows, nodes

    def _event_probs(self, vocab: list[str], history: np.ndarray,
                     word: np.ndarray) -> np.ndarray:
        """P(word | history) of every event, over a batch vocabulary.

        Ids index `vocab`; len(vocab) is the BOS padding before a sentence's
        start, and history[:, d - 1] is the token d back. `_rows`'
        recurrence at one element per event, run level by level over all
        events at once in its operation order, so each value equals the
        row's element bit for bit.
        """
        unk = self.unk_id
        ctx = np.array([self._context_id.get(t, unk) for t in vocab] + [self.bos_id],
                       dtype=np.int64)
        word = np.array([self.id_or_unk(t) for t in vocab], dtype=np.int64)[word]
        node = np.zeros(word.size, dtype=np.int64)
        prob = np.full(word.size, self._uniform[0])
        ks = self.k * len(self.syms)
        for level in range(self.order):
            if level:  # extend each context by the token `level` back
                node = _find(self._child_keys[level - 1],
                             node * self._width + ctx[history[:, level - 1]])
            count = self._count_vals[level][_find(self._count_keys[level],
                                                  node * self._width + word)]
            prob = (ks * prob + count) / (self._totals[level][node] + ks)
        return prob

    def _event_logprobs(self, vocab: list[str], history: np.ndarray,
                        word: np.ndarray) -> np.ndarray:
        return np.log(self._event_probs(vocab, history, word))

    def cond_probs(self, context: tuple[str, ...]) -> np.ndarray:
        """Conditional distribution over the prediction space, given token context."""
        return self._top_rows([context])[0]

    def _top_rows(self, contexts: list[tuple[str, ...]]) -> np.ndarray:
        return self._rows(self.order, [self._ctx_ids(c) for c in contexts])[0]

    def cond_logprobs(self, context: tuple[str, ...]) -> np.ndarray:
        return np.log(self.cond_probs(context))

    def symbol_index(self, symbols: tuple[str, ...]) -> np.ndarray:
        """Prediction-space ids of `symbols`; unknown symbols map to <unk>."""
        return np.array([self.id_or_unk(s) for s in symbols], dtype=np.intp)

    def cond_logprobs_at(self, context: tuple[str, ...], index: np.ndarray) -> np.ndarray:
        """cond_logprobs(context) gathered at a `symbol_index`."""
        return self._logprob_rows([context], index)[0]

    def _logprob_rows(self, contexts: list[tuple[str, ...]], index: np.ndarray) -> np.ndarray:
        return np.log(self._top_rows(contexts))[:, index]

    def scorer_for(self, symbols: tuple[str, ...]) -> "_Scorer":
        """A scorer over the rows this LM caches for `symbols`."""
        return _Scorer(self, symbols)


def _cached(cache: dict, keys: list, compute) -> list:
    """cache[key] of every key; the missing values come from one
    `compute(missing keys)` call. A cache that would pass `_CACHE_CAP`
    entries is cleared first."""
    values = [cache.get(key) for key in keys]
    missing = list(dict.fromkeys(k for k, v in zip(keys, values) if v is None))
    if missing:
        new = dict(zip(missing, compute(missing)))
        if len(cache) + len(new) > _CACHE_CAP:
            cache.clear()
        cache.update(new)
        values = [new[k] if v is None else v for k, v in zip(keys, values)]
    return values


def _find(keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Rank of each query in the sorted unique `keys`; keys.size where absent."""
    at = keys.searchsorted(queries)
    if keys.size:
        at[keys[np.minimum(at, keys.size - 1)] != queries] = keys.size
    return at


def _back(ids: np.ndarray, lengths: np.ndarray, d: int, fill: int) -> np.ndarray:
    """For sentences laid end to end: each token's id d tokens back, or
    `fill` where that is before its sentence's start."""
    at = np.arange(len(ids)) - d
    start = np.repeat(np.cumsum(lengths) - lengths, lengths)
    return np.where(at >= start, ids[np.maximum(at, 0)], fill)


class _Scorer:
    """Conditional log-probability vectors aligned to a fixed symbol list.

    The vectors are cached on the LM (`_scorer_rows`), shared by every
    scorer for the same symbols.
    """

    def __init__(self, lm, symbols: tuple[str, ...]):
        self.lm = lm
        shared = lm._scorer_rows.get(symbols)
        if shared is None:
            shared = lm._scorer_rows[symbols] = (lm.symbol_index(symbols), {})
        self._index, self._cache = shared

    def logvecs(self, contexts: list[tuple[str, ...]]) -> np.ndarray:
        """The vector of every context, one per row."""
        return np.array(_cached(self._cache, contexts,
                                lambda missing: self.lm._logprob_rows(missing, self._index)))


def train_lm(corpus: list[Sentence], order: int, k: float,
             *, weights: list[int] | None = None) -> NGramLM:
    """Count-based training; `weights` replicates sentences without materializing them."""
    if order < 1:
        raise DataError("LM order must be >= 1")
    if not corpus:
        raise DataError("cannot train an LM on an empty corpus")
    if k <= 0:
        raise DataError("smoothing k must be positive")
    if weights is None:
        weights = [1] * len(corpus)

    tokens = sorted({t for sent in corpus for t in sent})
    vocab = tuple(tokens) + (EOS,)
    syms = vocab + ("<unk>",)
    sym_id = {s: i for i, s in enumerate(syms)}
    bos_id = len(syms)

    token_total = 0.0
    for sent, w in zip(corpus, weights):
        token_total += w * len(sent)
    lengths = np.array([len(sent) for sent in corpus], dtype=np.intp)
    ids = np.array([sym_id[t] for sent in corpus for t in sent], dtype=np.int64)
    counts = np.repeat(np.asarray(weights, dtype=np.float64), lengths)
    history = np.column_stack([np.zeros((ids.size, 0), dtype=np.int64)]
                              + [_back(ids, lengths, d, bos_id) for d in range(1, order)])
    return NGramLM(order, k, vocab,
                   [(history[:, :j], ids, counts) for j in range(order)], token_total)


class InterpolatedLM:
    """Probability-space mixture of a base model and an in-domain model."""

    def __init__(self, base: NGramLM, indomain: NGramLM, alpha: float):
        if not 0.0 <= alpha <= 1.0:
            raise DataError("interpolation alpha must be in [0, 1]")
        if base.order != indomain.order:
            raise DataError("interpolated models must share the n-gram order")
        self.base = base
        self.indomain = indomain
        self.interp_alpha = alpha
        self.order = base.order
        self.k = base.k
        eos = (1.0 - alpha) * base.eos_prob() + alpha * indomain.eos_prob()
        self.eos_logprob = float(np.log(eos))
        self._scorer_rows: dict = {}

    def _event_logprobs(self, vocab: list[str], history: np.ndarray,
                        word: np.ndarray) -> np.ndarray:
        a = self.interp_alpha
        pb = self.base._event_probs(vocab, history, word)
        pi = self.indomain._event_probs(vocab, history, word)
        return np.log((1.0 - a) * pb + a * pi)

    def symbol_index(self, symbols: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
        return self.base.symbol_index(symbols), self.indomain.symbol_index(symbols)

    def cond_logprobs_at(self, context: tuple[str, ...],
                         index: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """Log-probabilities at a `symbol_index`, mixed in probability space."""
        return self._logprob_rows([context], index)[0]

    def _logprob_rows(self, contexts: list[tuple[str, ...]],
                      index: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        base_idx, in_idx = index
        a = self.interp_alpha
        pb = self.base._top_rows(contexts)[:, base_idx]
        pi = self.indomain._top_rows(contexts)[:, in_idx]
        return np.log((1.0 - a) * pb + a * pi)

    def scorer_for(self, symbols: tuple[str, ...]) -> _Scorer:
        return _Scorer(self, symbols)


LanguageModel = NGramLM | InterpolatedLM


def logprobs(model: LanguageModel, sentences: list[Sentence]) -> np.ndarray:
    """Natural-log probability of every sentence, including end-of-sentence.

    The tokens are mapped to batch ids once. Each distinct event, a word
    after its BOS-padded context of order - 1 tokens, is scored once
    (`_event_logprobs`) and every token gathers its event's term; each
    sentence then adds its terms left to right, then the end-of-sentence
    term, so a sentence's score does not depend on the others.
    """
    lengths = np.array([len(s) for s in sentences], dtype=np.intp)
    tokens = list(chain.from_iterable(sentences))
    index = {t: i for i, t in enumerate(dict.fromkeys(tokens))}
    ids = np.fromiter(map(index.__getitem__, tokens), dtype=np.int64, count=len(tokens))
    history = np.column_stack([np.zeros((ids.size, 0), dtype=np.int64)]
                              + [_back(ids, lengths, d, len(index))
                                 for d in range(1, model.order)])
    # one key per event: (word, history) as digits in base len(index) + 1,
    # replaced by their ranks whenever the next digit could pass _KEY_LIMIT
    key, bound, base = ids, len(index), len(index) + 1
    for column in history.T:
        if bound * base > _KEY_LIMIT:
            key = np.unique(key, return_inverse=True)[1]
            bound = ids.size
        key, bound = key * base + column, bound * base
    keys, event = np.unique(key, return_inverse=True)
    rep = np.empty(keys.size, dtype=np.intp)   # a token of each event
    rep[event] = np.arange(ids.size)
    terms = model._event_logprobs(list(index), history[rep], ids[rep])[event]
    grid = np.zeros((len(sentences), int(lengths.max(initial=0))))
    grid[np.arange(grid.shape[1]) < lengths[:, None]] = terms
    total = np.zeros(len(sentences))
    for column in grid.T:
        total += column
    return total + model.eos_logprob


def logprob(model: LanguageModel, sentence: Sentence) -> float:
    """Natural-log probability of the sentence, including end-of-sentence."""
    return float(logprobs(model, [sentence])[0])


def perplexity(model: LanguageModel, corpus: list[Sentence]) -> float:
    """exp(-mean log-probability per token), tokens counted incl. EOS per sentence."""
    if not corpus:
        raise DataError("perplexity needs a non-empty corpus")
    total = sum(logprobs(model, corpus).tolist())
    n_tokens = sum(len(s) + 1 for s in corpus)
    return math.exp(-total / n_tokens)


def finetune_lm(base: NGramLM, in_domain: list[Sentence], alpha: float) -> LanguageModel:
    """Interpolate the base model with fresh in-domain estimates.

    alpha = 0 reproduces the base scores exactly; alpha = 1 reproduces a model
    trained on the in-domain corpus alone.
    """
    if isinstance(base, InterpolatedLM):
        # collapse: re-interpolate from the original base instead of nesting
        base = base.base
    indomain = train_lm(in_domain, base.order, base.k)
    return InterpolatedLM(base, indomain, alpha)


FORMAT_VERSION = 1


def _counts_doc(model: NGramLM) -> list:
    """Per level, [context ids oldest first, [(word id, count), ...]] of
    every context that holds a count, in context then word order."""
    width = model._width
    history = np.zeros((1, 0), dtype=np.int64)   # the root's context
    levels = []
    for level in range(model.order):
        if level:
            keys = model._child_keys[level - 1]
            history = np.column_stack((history[keys // width], keys % width))
        keys = model._count_keys[level]
        node = keys // width
        held = np.unique(node)
        contexts = history[held][:, ::-1]
        by_context = np.lexsort(contexts.T[::-1]) if level else np.arange(held.size)
        lo = node.searchsorted(held[by_context])
        hi = node.searchsorted(held[by_context], "right")
        words = (keys % width).tolist()
        counts = model._count_vals[level].tolist()
        levels.append([[ctx, list(zip(words[a:b], counts[a:b]))] for ctx, a, b in
                       zip(contexts[by_context].tolist(), lo.tolist(), hi.tolist())])
    return levels


def lm_to_dict(model: LanguageModel) -> dict:
    if isinstance(model, InterpolatedLM):
        return {"version": FORMAT_VERSION, "kind": "interpolated",
                "alpha": model.interp_alpha,
                "base": lm_to_dict(model.base), "indomain": lm_to_dict(model.indomain)}
    return {
        "version": FORMAT_VERSION, "kind": "ngram",
        "order": model.order, "k": model.k,
        "vocab": list(model.vocab),
        "token_total": model.token_total,
        "counts": _counts_doc(model),
    }


def _level_events(level: int, entries, n_syms: int):
    """(history, word, count) rows of one level's `counts` entries, in
    document order; ValueError for a malformed entry."""
    if not isinstance(entries, list):
        raise ValueError(f"level {level + 1} must be a list")
    history, words, counts = [], [], []
    seen = set()
    for entry in entries:
        if not isinstance(entry, list) or len(entry) != 2 \
                or not isinstance(entry[0], list) or not isinstance(entry[1], list):
            raise ValueError(f"level {level + 1}: an entry must be [context, items]")
        ctx, items = entry
        if len(ctx) != level or not all(type(c) is int and 0 <= c <= n_syms for c in ctx):
            raise ValueError(f"level {level + 1}: context {ctx!r} needs {level} ids "
                             f"in [0, {n_syms}]")
        if tuple(ctx) in seen:
            raise ValueError(f"level {level + 1}: context {ctx!r} repeats")
        seen.add(tuple(ctx))
        backwards = ctx[::-1]
        held = set()
        for item in items:
            if not isinstance(item, (list, tuple)) or len(item) != 2:
                raise ValueError(f"level {level + 1}: an item must be [word id, count]")
            wid, count = item
            if type(wid) is not int or not 0 <= wid < n_syms or wid in held:
                raise ValueError(f"level {level + 1}: word id {wid!r} is not a distinct "
                                 f"id in [0, {n_syms})")
            if type(count) not in (int, float) or not (math.isfinite(count) and count >= 0):
                raise ValueError(f"level {level + 1}: count {count!r} is not a finite "
                                 f"number >= 0")
            held.add(wid)
            history.append(backwards)
            words.append(wid)
            counts.append(count)
    return (np.array(history, dtype=np.int64).reshape(len(words), level),
            np.array(words, dtype=np.int64), np.array(counts, dtype=np.float64))


def lm_from_dict(doc: dict) -> LanguageModel:
    """Inverse of lm_to_dict; a malformed document raises DataError naming the key.

    Context ids lie in [0, |S|], |S| (BOS) allowed in contexts only; word
    ids lie in [0, |S|); counts are finite and >= 0. A context listed
    without counts scores as an unseen one and is not written back.
    """
    what = "language model document"
    if not isinstance(doc, dict) or doc.get("version") != FORMAT_VERSION:
        raise DataError("unsupported LM serialization version")
    kind = doc_field(doc, "kind", str, what)
    if kind == "interpolated":
        return InterpolatedLM(lm_from_dict(doc_field(doc, "base", dict, what)),
                              lm_from_dict(doc_field(doc, "indomain", dict, what)),
                              doc_field(doc, "alpha", NUMBER, what))
    if kind != "ngram":
        raise DataError(f"{what}: unknown kind {kind!r}")
    order = doc_field(doc, "order", int, what)
    vocab = doc_strings(doc, "vocab", what)
    levels = doc_field(doc, "counts", list, what)
    if order < 1 or len(levels) != order:
        raise DataError(f"{what}: key 'counts' needs one level per order "
                        f"(order {order}, {len(levels)} levels)")
    if EOS not in vocab:
        raise DataError(f"{what}: key 'vocab' lacks {EOS}")
    k = float(doc_field(doc, "k", NUMBER, what))
    if not (k > 0 and math.isfinite(k * (len(vocab) + 1))):
        raise DataError(f"{what}: key 'k' must be positive and finite, got {k!r}")
    try:
        events = [_level_events(j, level, len(vocab) + 1) for j, level in enumerate(levels)]
    except ValueError as e:
        raise DataError(f"{what}: malformed key 'counts': {e}") from e
    return NGramLM(order, k, vocab, events,
                   float(doc_field(doc, "token_total", NUMBER, what)))
