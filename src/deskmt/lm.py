"""Smoothed n-gram language models with optional in-domain interpolation.

Estimates are add-k smoothed with backoff-by-interpolation to lower orders:

    P_j(w | ctx) = (c_j(ctx, w) + k*|S| * P_{j-1}(w | ctx[1:])) / (c_j(ctx) + k*|S|)

with P_0 uniform over the prediction space S = vocabulary + unknown. Training
counts token events only; the end-of-sentence marker is part of the
vocabulary and is scored context-free from its unigram (pure smoothing)
estimate, which keeps log-probabilities strictly decreasing under extension.
A model is rejected (DataError naming 'k') when its k lets an unseen
event's probability fall below the smallest normal float, so every
log-probability is finite (above -710 for a mixture too); `tm.LM_WEIGHT_MAX`
rests on that.

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

An LM's document is the stable JSON text `lm_json` writes and
`lm_from_dict` reads; its counts are formatted from these arrays level by
level (`_counts_json`), with no list built per count.

Both LM kinds are weighted mixtures of count models: `parts` lists
(weight, `NGramLM`) pairs, `((1.0, lm),)` for an `NGramLM` and
`((1 - a, base), (a, indomain))` for an `InterpolatedLM`. Every score,
`logprobs`' event terms, the end-of-sentence term and the entries the
decoder takes, is computed per part in probability space and mixed by the
one function `mixture`, which adds weight * p in part order, element by
element; the log is taken last (`_mix`). For one part of weight 1 that is
ln p bit for bit.

Counting is separate from the model. `NGramCounts` counts a corpus once
on one trie, with one count array per group of sentence weights, and its
`lm(k, scale)` builds the model of any weighting of the groups by adding
the groups' arrays; `train_lm` is its one-group case. A search counts its
trial sets once per LM order and direction, one group per set, and every
trial's LM, upsampled by integer ratios, equals the one counted from the
trial's mix bit for bit (see `NGramCounts`).

`logprobs` scores many sentences in one pass. It maps the batch's tokens to
ids once, and `logprobs_of_ids`, which reranking calls with an n-best
block's ids and symbols, scores each distinct event, a word after its
BOS-padded context, once: each level of the recurrence runs once over the
events, by key lookups in these arrays, once per part.
The entries of an n-best batch share prefixes, so there are far fewer
events than tokens: 13,565 against 88,198 over the 300 reranked lists of
the bench's `recipe` self-training pool (seed 1).

The decoder reads rows, a word's probability after a context at every
symbol of a fixed list, from a `RowTable` of an n-gram LM. An interpolated
LM has no table of its own: the decoder reads each part's table and mixes
the parts' probabilities at the entries it takes (`tm._entry_scores`). A
decode builds its LM's part tables as it starts and drops them when it
returns (`tm.translate_stack`), so a table lives for one call, and the
models of a stack, which share one LM, share its tables. A table holds
probability rows; the decoder logs the entries it scores.

A row depends only on the context's LM state, the longest suffix of the
BOS-padded context that is a node of the count trie, as (depth, node): the
levels above it hold no counts and a total of 0, so each turns a row r into
(ks * r) / ks whatever the tokens are. So a table holds one row per state:
on the bench's `recipe` (seed 1) the tables compute 6,848 top-order rows for
20,026 distinct (n-gram LM, context) pairs decoded. Every context is walked
down the count trie (one `_find` per level) to its state key, and one
`searchsorted` in the table's sorted state keys gives its slot; rows are
computed only for the states not held, in one batch per call.

A table's caches, each cleared before it would pass `_CACHE_CAP` entries:

- its lower-order rows: (level, state key) -> row of P_level after the
  contexts of that state, for levels below `order` only; many states back
  off to each of these rows. A top-order row is computed when its state is
  first met and kept only as the table's row. The rows die with the table.
- its rows and its state index, cleared together.
"""

from __future__ import annotations

import math
import sys
from itertools import chain

import numpy as np

from .corpus import Sentence
from .util import (NUMBER, DataError, doc_field, doc_float, doc_strings, pair_runs_json,
                   sorted_distinct, stable_json_object)

EOS = "</s>"
BOS = "<s>"

_CACHE_CAP = 200_000
_KEY_LIMIT = 2**62  # `logprobs`' event keys stay below this, so within int64


class NGramLM:
    """Add-k interpolated n-gram model over a fixed symbol inventory."""

    def __init__(self, order: int, k: float, vocab: tuple[str, ...], tables: tuple,
                 token_total: float):
        """`tables` holds the count trie's arrays of `_count_tables`, each a
        list by level: (child keys, count keys, count values, totals)."""
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
        self._child_keys, self._count_keys, self._count_vals, self._totals = tables
        if not all(np.isfinite(totals).all() for totals in self._totals):
            raise DataError("the counts of a context sum past the float range")
        self._check_unseen_floor()
        # state key of (level, node): node + the number of nodes of lower levels
        sizes = [1] + [keys.size for keys in self._child_keys]
        self._level_start = np.cumsum([0] + sizes)
        self._uniform = np.full(len(self.syms), 1.0 / len(self.syms))
        self.eos_logprob = float(_mix(self.parts, [part.eos_prob() for _, part in self.parts]))

    @property
    def parts(self) -> tuple:
        """The model as a mixture of one part; computed, as a stored tuple
        holding the model would be a reference cycle."""
        return ((1.0, self),)

    def _check_unseen_floor(self) -> None:
        """DataError unless every event's probability is at least the
        smallest normal float. The least is that of a word unseen at every
        level after contexts of the largest totals, and the recurrence's
        float operations are monotone, so it is computed as they run."""
        ks = self.k * len(self.syms)
        prob = 1.0 / len(self.syms)
        for totals in self._totals:
            prob = ks * prob / (float(totals.max()) + ks)
        if not prob >= sys.float_info.min:
            raise DataError(f"smoothing 'k' = {self.k!r} is too small: an unseen event's "
                            f"probability falls to {prob!r}, below {sys.float_info.min!r}")

    def eos_prob(self) -> float:
        """Unigram (context-free) end-of-sentence probability."""
        root = np.zeros(1, dtype=np.int64)
        return float(self._rows(1, root + 1, root, {})[0, self.eos_id])

    def id_or_unk(self, token: str) -> int:
        return self.sym_id.get(token, self.unk_id)

    def _walk(self, ctx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(depth, node) of every context's LM state: the node of the count
        trie of its longest BOS-padded suffix that has one, and that node's
        level. `ctx` holds context ids, a row per context, oldest first;
        columns before the first are BOS."""
        depth = np.ones(len(ctx), dtype=np.int64)
        found = np.zeros(len(ctx), dtype=np.int64)   # the root
        node = found
        for back in range(1, self.order):  # extend by the token `back` back
            token = ctx[:, -back] if back <= ctx.shape[1] else self.bos_id
            keys = self._child_keys[back - 1]
            node = _find(keys, node * self._width + token)
            held = node < keys.size   # an absent context has no longer node
            found = np.where(held, node, found)
            depth += held
        return depth, found

    def _level_rows(self, level: int, depth: np.ndarray, node: np.ndarray,
                    kept: dict) -> np.ndarray:
        """`_rows`, with the rows of levels below `order` kept in `kept` by
        (level, state key)."""
        if level == self.order:
            return self._rows(level, depth, node, kept)
        keys = (self._level_start[depth - 1] + node).tolist()
        rows = [kept.get((level, key)) for key in keys]
        missing: dict = {}   # key -> its first context
        for at, (key, row) in enumerate(zip(keys, rows)):
            if row is None:
                missing.setdefault(key, at)
        if missing:
            at = np.fromiter(missing.values(), dtype=np.intp, count=len(missing))
            new = dict(zip(((level, key) for key in missing),
                           self._rows(level, depth[at], node[at], kept)))
            if len(kept) + len(new) > _CACHE_CAP:
                kept.clear()
            kept.update(new)
            rows = [new[level, key] if row is None else row for key, row in zip(keys, rows)]
        return np.array(rows)

    def _rows(self, level: int, depth: np.ndarray, node: np.ndarray,
              kept: dict) -> np.ndarray:
        """Rows of P_level after contexts whose LM state (see `_walk`), at
        depth <= level, is (depth, node), one per row: a context without a
        node at this level has no counts here and a total of 0. The rows of
        lower levels it builds from are read from and kept in `kept`."""
        own = depth == level   # the context's node is of this level
        if level == 1:
            lower = np.broadcast_to(self._uniform, (len(node), len(self.syms)))
        else:  # the rows of the contexts without their oldest token
            below = node.copy()
            below[own] = self._child_keys[level - 2][node[own]] // self._width
            lower = self._level_rows(level - 1, depth - own, below, kept)
        nodes = np.where(own, node, self._totals[level - 1].size - 1)
        # each node's counts: the run of keys from node * B up to (node + 1) * B
        keys = self._count_keys[level - 1]
        start = keys.searchsorted(nodes * self._width)
        counts = keys.searchsorted((nodes + 1) * self._width) - start
        at = np.arange(counts.sum()) + np.repeat(start - counts.cumsum() + counts, counts)
        owner = np.repeat(np.arange(len(nodes)), counts)
        ks = self.k * len(self.syms)
        rows = ks * lower
        rows[owner, keys[at] % self._width] += self._count_vals[level - 1][at]
        rows /= (self._totals[level - 1][nodes] + ks)[:, None]
        return rows

    def _symbol_ids(self, symbols) -> tuple[np.ndarray, np.ndarray]:
        """(prediction ids, context ids) of the symbols: unknown symbols
        predict and extend as <unk>, a literal BOS extends as BOS."""
        return (np.array([self.id_or_unk(s) for s in symbols], dtype=np.int64),
                np.array([self._context_id.get(s, self.unk_id) for s in symbols],
                         dtype=np.int64))

    def _event_probs(self, vocab: list[str], history: np.ndarray,
                     word: np.ndarray) -> np.ndarray:
        """P(word | history) of every event, over a batch vocabulary.

        Ids index `vocab`; len(vocab) is the BOS padding before a sentence's
        start, and history[:, d - 1] is the token d back. `_rows`'
        recurrence at one element per event, run level by level over all
        events at once in its operation order, so each value equals the
        row's element bit for bit.
        """
        word_id, ctx = self._symbol_ids(vocab)
        ctx = np.append(ctx, self.bos_id)
        word = word_id[word]
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


def mixture(parts, probs: list):
    """sum of weight * p over the (weight, part) pairs, added in part
    order, where probs[i] holds part i's probabilities, element by element;
    one part of weight 1 gives p bit for bit."""
    total = 0.0
    for (weight, _), prob in zip(parts, probs):
        total = total + weight * prob
    return total


def _mix(parts: tuple, probs: list):
    """ln of the parts' `mixture`."""
    return np.log(mixture(parts, probs))


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


class RowTable:
    """Probability rows of one n-gram LM at a fixed symbol list, one row per
    LM state met (see the module docstring).

    `probs[slots(contexts)[g], i]` is P(symbols[i] | contexts[g]); read
    `probs` after the `slots` call, which may grow or clear the buffer. The
    decoder mixes the entries it takes from its LM's parts' tables by
    `mixture` and logs them. `ranks` is each symbol's rank among the
    distinct symbols in string order, so two ids that spell one symbol
    share a rank. `prob_max` is the largest probability held (0.0 with
    none); the decoder bounds an LM term by the log of the parts' mixture of
    these, so a table that has met other states holds another `prob_max`,
    which changes how many entries a beam step scores, not which survive.
    The table also keeps the lower-order rows it builds from.
    """

    def __init__(self, model: NGramLM, symbols: tuple[str, ...]):
        rank = {sym: r for r, sym in enumerate(sorted(set(symbols)))}
        self.ranks = np.array([rank[sym] for sym in symbols], dtype=np.int64)
        self._lm = model
        self._word_ids, self._context_ids = model._symbol_ids(symbols)
        self._lower: dict = {}   # the lower-order rows
        self._clear()

    def _clear(self) -> None:
        self._buffer = np.empty((0, self.ranks.size))
        self.held = 0
        self.prob_max = 0.0
        self._states = np.empty(0, dtype=np.int64)   # state keys held, sorted
        self._state_slots = np.empty(0, dtype=np.intp)

    @property
    def probs(self) -> np.ndarray:
        return self._buffer[:self.held]

    def slots(self, contexts: np.ndarray) -> np.ndarray:
        """The row slot of every context: a row of symbol ids, oldest first,
        at most order - 1 long (a shorter one is BOS-padded). Every context
        is walked to its state; only the states not held get rows."""
        model = self._lm
        depth, node = model._walk(self._context_ids[contexts])
        state = model._level_start[depth - 1] + node
        found = _find(self._states, state)
        miss = np.flatnonzero(found == self._states.size)
        if not miss.size:
            return self._state_slots[found]
        new, first, inverse = np.unique(state[miss], return_index=True, return_inverse=True)
        if self.held and self.held + new.size > _CACHE_CAP:
            self._clear()
            return self.slots(contexts)
        at = miss[first]
        self._append(model._rows(model.order, depth[at], node[at], self._lower)[:, self._word_ids])
        new_slots = np.arange(self.held - new.size, self.held)
        slot = np.empty(len(state), dtype=np.intp)
        hit = found < self._states.size
        slot[hit] = self._state_slots[found[hit]]
        slot[miss] = new_slots[inverse]
        # merge the new states into the sorted index
        place = self._states.searchsorted(new) + np.arange(new.size)
        old = np.ones(self._states.size + new.size, dtype=bool)
        old[place] = False
        states = np.empty(old.size, dtype=np.int64)
        state_slots = np.empty(old.size, dtype=np.intp)
        states[place], states[old] = new, self._states
        state_slots[place], state_slots[old] = new_slots, self._state_slots
        self._states, self._state_slots = states, state_slots
        return slot

    def _append(self, rows: np.ndarray) -> None:
        # the buffer grows by a quarter: tables of many LMs live at once, so
        # doubling would leave up to half of every buffer unused
        need = self.held + len(rows)
        if need > len(self._buffer):
            grown = np.empty((max(need, min(len(self._buffer) * 5 // 4, _CACHE_CAP)),
                              self.ranks.size))
            grown[:self.held] = self.probs
            self._buffer = grown
        self._buffer[self.held:need] = rows
        self.held = need
        self.prob_max = max(self.prob_max, float(rows.max()))


def _count_tables(order: int, width: int, events) -> tuple:
    """The count trie of `events`, where `events[j]` holds the counts of
    level j + 1 as (history, word, counts) rows, history[:, d - 1] the id of
    the token d back and counts[:, g] the row's count in group g: (child
    keys, count keys, count values, totals), each a list by level, the last
    two a list by group. Repeated (context, word) rows add up in row order."""
    nodes = [np.zeros(len(words), dtype=np.int64) for _, words, _ in events]
    child_keys = []
    for level in range(1, order):
        # the contexts of length `level`: every row's context cut to it
        keys = [nodes[j] * width + events[j][0][:, level - 1] for j in range(level, order)]
        level_keys = sorted_distinct(np.concatenate(keys))
        child_keys.append(level_keys)
        for j, key in zip(range(level, order), keys):
            nodes[j] = level_keys.searchsorted(key)
    count_keys, count_vals, totals = [], [], []
    for j, (_, words, counts) in enumerate(events):
        keys, at = np.unique(nodes[j] * width + words, return_inverse=True)
        size = child_keys[j - 1].size if j else 1
        count_keys.append(keys)
        count_vals.append([np.append(np.bincount(at, column, keys.size), 0.0)
                           for column in counts.T])
        totals.append([np.append(np.bincount(nodes[j], column, size), 0.0)
                       for column in counts.T])
    return child_keys, count_keys, count_vals, totals


def _weighted(scale, groups: list) -> np.ndarray:
    """sum of scale[g] * groups[g], added in group order."""
    total = scale[0] * groups[0]
    for weight, values in zip(scale[1:], groups[1:]):
        total = total + weight * values
    return total


class NGramCounts:
    """The n-gram counts of one order over a corpus whose sentences carry
    weights in several groups, each group's counts kept apart on one count
    trie: `lm(k, scale)` is the LM of the corpus with sentence i weighted
    sum_g scale[g] * weights[i, g], built without counting again.

    That LM equals, bit for bit, `train_lm` of the corpus with those
    weights while every count is an integer of at most `MAX_COUNT`: such
    sums are exact in float64 in any order. A search builds one per
    direction and LM order, one group per training set, so a trial's LM
    only combines counts (`search.TrainingLayouts`).
    """

    def __init__(self, corpus: list[Sentence], order: int, weights: np.ndarray):
        if order < 1:
            raise DataError("LM order must be >= 1")
        if not corpus:
            raise DataError("cannot train an LM on an empty corpus")
        tokens = sorted({t for sent in corpus for t in sent})
        self.order = order
        self.vocab = tuple(tokens) + (EOS,)
        syms = self.vocab + ("<unk>",)
        sym_id = {s: i for i, s in enumerate(syms)}
        bos_id = len(syms)
        weights = np.asarray(weights, dtype=np.float64)
        lengths = np.array([len(sent) for sent in corpus], dtype=np.intp)
        self._token_totals = []
        for column in weights.T.tolist():
            total = 0.0
            for w, length in zip(column, lengths.tolist()):
                total += w * length
            self._token_totals.append(total)
        ids = np.array([sym_id[t] for sent in corpus for t in sent], dtype=np.int64)
        counts = np.repeat(weights, lengths, axis=0)
        history = np.column_stack([np.zeros((ids.size, 0), dtype=np.int64)]
                                  + [_back(ids, lengths, d, bos_id) for d in range(1, order)])
        self._tables = _count_tables(order, len(syms) + 1,
                                     [(history[:, :j], ids, counts) for j in range(order)])

    def lm(self, k: float, scale) -> NGramLM:
        """The LM of the corpus weighted by `scale`, one weight per group."""
        if k <= 0:
            raise DataError("smoothing k must be positive")
        token_total = _weighted(scale, self._token_totals)
        child_keys, count_keys, count_vals, totals = self._tables
        return NGramLM(self.order, k, self.vocab,
                       (child_keys, count_keys, [_weighted(scale, v) for v in count_vals],
                        [_weighted(scale, t) for t in totals]), token_total)


def train_lm(corpus: list[Sentence], order: int, k: float,
             *, weights: list[int] | None = None) -> NGramLM:
    """Count-based training; `weights` replicates sentences without materializing them."""
    if weights is None:
        weights = [1] * len(corpus)
    return NGramCounts(corpus, order, np.reshape(weights, (-1, 1))).lm(k, (1,))


class InterpolatedLM:
    """Probability-space mixture of a base model and an in-domain model:
    `parts` weighs them 1 - alpha and alpha."""

    def __init__(self, base: NGramLM, indomain: NGramLM, alpha: float):
        if not 0.0 <= alpha <= 1.0:
            raise DataError("interpolation alpha must be in [0, 1]")
        if base.order != indomain.order:
            raise DataError("interpolated models must share the n-gram order")
        self.base = base
        self.indomain = indomain
        self.interp_alpha = alpha
        self.order = base.order
        self.parts = ((1.0 - alpha, base), (alpha, indomain))
        self.eos_logprob = float(_mix(self.parts, [part.eos_prob() for _, part in self.parts]))


LanguageModel = NGramLM | InterpolatedLM


def _event_logprobs(model: LanguageModel, vocab: list[str], history: np.ndarray,
                    word: np.ndarray) -> np.ndarray:
    """ln P(word | history) of every event (see `NGramLM._event_probs`),
    mixed over the model's parts."""
    return _mix(model.parts, [part._event_probs(vocab, history, word)
                              for _, part in model.parts])


def logprobs(model: LanguageModel, sentences: list[Sentence]) -> np.ndarray:
    """Natural-log probability of every sentence, including end-of-sentence.

    The tokens are mapped to batch ids once and scored by `logprobs_of_ids`.
    """
    lengths = np.array([len(s) for s in sentences], dtype=np.intp)
    tokens = list(chain.from_iterable(sentences))
    index = {t: i for i, t in enumerate(dict.fromkeys(tokens))}
    ids = np.fromiter(map(index.__getitem__, tokens), dtype=np.int64, count=len(tokens))
    return logprobs_of_ids(model, list(index), ids, lengths)


def logprobs_of_ids(model: LanguageModel, symbols, ids: np.ndarray,
                    lengths: np.ndarray) -> np.ndarray:
    """`logprobs` of sentences given as ids into `symbols`, laid end to end
    with the given lengths.

    Each distinct event, a word after its BOS-padded context of order - 1
    tokens, is scored once (`_event_logprobs`, which maps `symbols` to the
    model's ids once per part) and every token gathers its event's term;
    each sentence then adds its terms left to right, then the
    end-of-sentence term, so a sentence's score does not depend on the
    others or on how its symbols are numbered.
    """
    ids = ids.astype(np.int64, copy=False)
    history = np.column_stack([np.zeros((ids.size, 0), dtype=np.int64)]
                              + [_back(ids, lengths, d, len(symbols))
                                 for d in range(1, model.order)])
    # one key per event: (word, history) as digits in base len(symbols) + 1,
    # replaced by their ranks whenever the next digit could pass _KEY_LIMIT
    key, bound, base = ids, len(symbols), len(symbols) + 1
    for column in history.T:
        if bound * base > _KEY_LIMIT:
            key = np.unique(key, return_inverse=True)[1]
            bound = ids.size
        key, bound = key * base + column, bound * base
    keys, event = np.unique(key, return_inverse=True)
    rep = np.empty(keys.size, dtype=np.intp)   # a token of each event
    rep[event] = np.arange(ids.size)
    terms = _event_logprobs(model, symbols, history[rep], ids[rep])[event]
    grid = np.zeros((lengths.size, int(lengths.max(initial=0))))
    grid[np.arange(grid.shape[1]) < lengths[:, None]] = terms
    total = np.zeros(lengths.size)
    for column in grid.T:
        total += column
    return total + model.eos_logprob


def perplexity(model: LanguageModel, corpus: list[Sentence]) -> float:
    """exp(-mean log-probability per token), tokens counted incl. EOS per sentence."""
    if not corpus:
        raise DataError("perplexity needs a non-empty corpus")
    total = sum(logprobs(model, corpus).tolist())
    n_tokens = sum(len(s) + 1 for s in corpus)
    return math.exp(-total / n_tokens)


# The in-domain weight wherever the library interpolates an LM toward
# in-domain counts: the pipeline's reranking LMs and fine-tuning.
FINETUNE_ALPHA = 0.5


def finetune_lm(base: LanguageModel, in_domain: list[Sentence], alpha: float) -> LanguageModel:
    """Interpolate the base model with fresh in-domain estimates.

    alpha = 0 reproduces the base scores exactly; alpha = 1 reproduces a model
    trained on the in-domain corpus alone.
    """
    base = base_ngram(base)
    return InterpolatedLM(base, train_lm(in_domain, base.order, base.k), alpha)


def base_ngram(model: LanguageModel) -> NGramLM:
    """The n-gram model fine-tuning interpolates from: the model itself, or
    an interpolated model's base, so fine-tunes re-interpolate from the
    original base instead of nesting."""
    return model.base if isinstance(model, InterpolatedLM) else model


FORMAT_VERSION = 1


def _counts_json(model: NGramLM) -> str:
    """The text of the `counts` member: per level, [context ids oldest
    first, [[word id, count], ...]] of every context that holds a count, in
    context then word order."""
    width = model._width
    history = np.zeros((1, 0), dtype=np.int64)   # the root's context
    levels = []
    for level in range(model.order):
        if level:
            keys = model._child_keys[level - 1]
            history = np.column_stack((history[keys // width], keys % width))
        keys = model._count_keys[level]
        node = keys // width
        held = sorted_distinct(node)
        contexts = history[held][:, ::-1]
        by_context = np.lexsort(contexts.T[::-1]) if level else np.arange(held.size)
        lo = node.searchsorted(held[by_context])
        sizes = node.searchsorted(held[by_context], "right") - lo
        # each context's keys are a run of `keys`: their order by context
        entries = np.arange(keys.size) + np.repeat(lo - (sizes.cumsum() - sizes), sizes)
        levels.append(pair_runs_json(keys[entries] % width, model._count_vals[level][entries],
                                     sizes, contexts[by_context]))
    return "[" + ",".join(levels) + "]"


def lm_json(model: LanguageModel) -> str:
    """The stable JSON text of an LM's document, which `lm_from_dict`
    reads: an n-gram model's settings, vocabulary and counts, or an
    interpolated model's weight and two parts."""
    if isinstance(model, InterpolatedLM):
        return stable_json_object(
            {"version": FORMAT_VERSION, "kind": "interpolated", "alpha": model.interp_alpha},
            {"base": lm_json(model.base), "indomain": lm_json(model.indomain)})
    return stable_json_object(
        {"version": FORMAT_VERSION, "kind": "ngram", "order": model.order, "k": model.k,
         "vocab": list(model.vocab), "token_total": model.token_total},
        {"counts": _counts_json(model)})


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
            if type(count) not in (int, float) or not 0 <= count <= sys.float_info.max:
                raise ValueError(f"level {level + 1}: count {count!r} is not a finite "
                                 f"number >= 0")
            held.add(wid)
            history.append(backwards)
            words.append(wid)
            counts.append(count)
    return (np.array(history, dtype=np.int64).reshape(len(words), level),
            np.array(words, dtype=np.int64), np.array(counts, dtype=np.float64))


def lm_from_dict(doc: dict) -> LanguageModel:
    """The LM of a document `lm_json` writes; a malformed document raises
    DataError naming the key.

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
    k = doc_float(doc, "k", what)
    if not (k > 0 and math.isfinite(k * (len(vocab) + 1))):
        raise DataError(f"{what}: key 'k' must be positive and finite, got {k!r}")
    try:
        events = [_level_events(j, level, len(vocab) + 1) for j, level in enumerate(levels)]
    except ValueError as e:
        raise DataError(f"{what}: malformed key 'counts': {e}") from e
    child_keys, count_keys, count_vals, totals = _count_tables(
        order, len(vocab) + 2, [(history, words, counts[:, None])
                                for history, words, counts in events])
    return NGramLM(order, k, vocab, (child_keys, count_keys, [v[0] for v in count_vals],
                                     [t[0] for t in totals]),
                   doc_float(doc, "token_total", what))
