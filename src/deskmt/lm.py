"""Smoothed n-gram language models with optional in-domain interpolation.

Estimates are add-k smoothed with backoff-by-interpolation to lower orders:

    P_j(w | ctx) = (c_j(ctx, w) + k*|S| * P_{j-1}(w | ctx[1:])) / (c_j(ctx) + k*|S|)

with P_0 uniform over the prediction space S = vocabulary + unknown. Training
counts token events only; the end-of-sentence marker is part of the
vocabulary and is scored context-free from its unigram (pure smoothing)
estimate, which keeps log-probabilities strictly decreasing under extension.

Caches, each capped at `_CACHE_CAP` entries and cleared when full:

- `NGramLM._prob_cache`: (level, context ids) -> row of P_level, for levels
  below `order` only. Many top-order contexts back off to each of these rows.
  A top-order row is computed on request and not kept.
- `_term_cache` (both classes): (history, token) -> the log term of
  `logprob`. A miss computes the top-order probability of that one token
  with the scalar form of the row recurrence, so no row is built.
- `_scorer_rows` (both classes): symbol tuple -> (index, rows), where rows
  maps a token context to `cond_logprobs_at(context, index)`. Every
  `scorer_for` the same symbols returns a `_Scorer` over these shared rows,
  so models that share an LM and a target vocabulary share one set of rows.
  The LM holds no reference to a `_Scorer`, so the rows form no cycle and
  die with the LM.
"""

from __future__ import annotations

import math

import numpy as np

from .corpus import Sentence
from .util import NUMBER, DataError, doc_field, doc_strings

EOS = "</s>"
BOS = "<s>"

_CACHE_CAP = 200_000


class NGramLM:
    """Add-k interpolated n-gram model over a fixed symbol inventory."""

    def __init__(self, order: int, k: float, vocab: tuple[str, ...],
                 counts: list[dict], totals: list[dict], token_total: float):
        self.order = order
        self.k = k
        self.vocab = vocab                      # observed tokens + EOS, sorted
        self.syms = vocab + ("<unk>",)          # prediction space S
        self.sym_id = {s: i for i, s in enumerate(self.syms)}
        self.unk_id = len(self.syms) - 1
        self.eos_id = self.sym_id[EOS]
        self.bos_id = len(self.syms)            # context-only marker
        self.counts = counts                    # per level: ctx ids -> {word id: count}
        self.totals = totals                    # per level: ctx ids -> total count
        self.token_total = token_total
        self._prob_cache: dict = {}
        self._term_cache: dict = {}
        self._scorer_rows: dict = {}
        self._uniform = np.full(len(self.syms), 1.0 / len(self.syms))
        self.interp_alpha = 0.0
        self.eos_logprob = float(np.log(self.eos_prob()))

    def eos_prob(self) -> float:
        """Unigram (context-free) end-of-sentence probability."""
        return float(self._probs_level(1, ())[self.eos_id])

    def id_or_unk(self, token: str) -> int:
        return self.sym_id.get(token, self.unk_id)

    def _ctx_ids(self, context: tuple[str, ...]) -> tuple[int, ...]:
        ids = tuple(self.id_or_unk(t) if t != BOS else self.bos_id for t in context)
        if len(ids) >= self.order:
            ids = ids[-(self.order - 1):] if self.order > 1 else ()
        else:
            ids = (self.bos_id,) * (self.order - 1 - len(ids)) + ids
        return ids

    def _probs_level(self, level: int, ctx: tuple[int, ...]) -> np.ndarray:
        """Row of P_level(. | ctx); kept in `_prob_cache` for levels below `order`."""
        if level == 0:
            return self._uniform
        key = (level, ctx)
        cached = self._prob_cache.get(key)
        if cached is not None:
            return cached
        lower = self._probs_level(level - 1, ctx[1:])
        ks = self.k * len(self.syms)
        level_counts = self.counts[level - 1].get(ctx)
        total = self.totals[level - 1].get(ctx, 0.0)
        if level_counts is None:
            vec = (ks * lower) / (total + ks)
        else:
            vec = ks * lower
            for wid, c in level_counts.items():
                vec[wid] += c
            vec /= total + ks
        if level < self.order:
            if len(self._prob_cache) > _CACHE_CAP:
                self._prob_cache.clear()
            self._prob_cache[key] = vec
        return vec

    def _token_prob(self, history: tuple[str, ...], token: str) -> float:
        """cond_probs(history) at `token`, without building the row.

        The scalar form of `_probs_level`'s recurrence, in its operation
        order, so the value equals the row's element bit for bit.
        """
        ctx = self._ctx_ids(history)
        wid = self.id_or_unk(token)
        level = self.order
        ks = self.k * len(self.syms)
        p = ks * float(self._probs_level(level - 1, ctx[1:])[wid])
        level_counts = self.counts[level - 1].get(ctx)
        if level_counts is not None and wid in level_counts:
            p += level_counts[wid]
        return p / (self.totals[level - 1].get(ctx, 0.0) + ks)

    def cond_probs(self, context: tuple[str, ...]) -> np.ndarray:
        """Conditional distribution over the prediction space, given token context."""
        return self._probs_level(self.order, self._ctx_ids(context))

    def cond_logprobs(self, context: tuple[str, ...]) -> np.ndarray:
        return np.log(self.cond_probs(context))

    def logprob(self, sentence: Sentence) -> float:
        """Natural-log probability of the sentence, including end-of-sentence."""
        return _sum_terms(self, sentence)

    def _term(self, history: tuple[str, ...], token: str) -> float:
        return float(np.log(self._token_prob(history, token)))

    def symbol_index(self, symbols: tuple[str, ...]) -> np.ndarray:
        """Prediction-space ids of `symbols`; unknown symbols map to <unk>."""
        return np.array([self.id_or_unk(s) for s in symbols], dtype=np.intp)

    def cond_logprobs_at(self, context: tuple[str, ...], index: np.ndarray) -> np.ndarray:
        """cond_logprobs(context) gathered at a `symbol_index`."""
        return self.cond_logprobs(context)[index]

    def scorer_for(self, symbols: tuple[str, ...]) -> "_Scorer":
        """A scorer over the rows this LM caches for `symbols`."""
        return _Scorer(self, symbols)


def _sum_terms(model, sentence: Sentence) -> float:
    """Sum of the per-token log terms plus end-of-sentence, left to right.

    Each (history, token) term is memoized on the model; a miss computes it
    with the model's scalar formula, so cached and uncached sums agree bit
    for bit.
    """
    cache = model._term_cache
    order = model.order
    total = 0.0
    history: tuple[str, ...] = ()
    for token in sentence:
        key = (history, token)
        term = cache.get(key)
        if term is None:
            term = model._term(history, token)
            if len(cache) > _CACHE_CAP:
                cache.clear()
            cache[key] = term
        total += term
        history = history + (token,)
        if len(history) >= order:
            history = history[len(history) - order + 1:]
    return total + model.eos_logprob


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

    def logvec(self, context: tuple[str, ...]) -> np.ndarray:
        vec = self._cache.get(context)
        if vec is not None:
            return vec
        vec = self.lm.cond_logprobs_at(context, self._index)
        if len(self._cache) > _CACHE_CAP:
            self._cache.clear()
        self._cache[context] = vec
        return vec


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

    counts: list[dict] = [{} for _ in range(order)]
    totals: list[dict] = [{} for _ in range(order)]
    token_total = 0.0
    for sent, w in zip(corpus, weights):
        ids = [sym_id[t] for t in sent]
        token_total += w * len(ids)
        padded = [bos_id] * (order - 1) + ids
        for pos, wid in enumerate(ids):
            end = pos + order - 1
            for level in range(1, order + 1):
                ctx = tuple(padded[end - (level - 1):end])
                level_counts = counts[level - 1].setdefault(ctx, {})
                level_counts[wid] = level_counts.get(wid, 0.0) + w
                totals[level - 1][ctx] = totals[level - 1].get(ctx, 0.0) + w
    return NGramLM(order, k, vocab, counts, totals, token_total)


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
        self._term_cache: dict = {}
        self._scorer_rows: dict = {}

    def logprob(self, sentence: Sentence) -> float:
        return _sum_terms(self, sentence)

    def _term(self, history: tuple[str, ...], token: str) -> float:
        a = self.interp_alpha
        pb = self.base._token_prob(history, token)
        pi = self.indomain._token_prob(history, token)
        return float(np.log((1.0 - a) * pb + a * pi))

    def symbol_index(self, symbols: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
        return self.base.symbol_index(symbols), self.indomain.symbol_index(symbols)

    def cond_logprobs_at(self, context: tuple[str, ...],
                         index: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """Log-probabilities at a `symbol_index`, mixed in probability space."""
        base_idx, in_idx = index
        a = self.interp_alpha
        pb = self.base.cond_probs(context)[base_idx]
        pi = self.indomain.cond_probs(context)[in_idx]
        return np.log((1.0 - a) * pb + a * pi)

    def scorer_for(self, symbols: tuple[str, ...]) -> _Scorer:
        return _Scorer(self, symbols)


LanguageModel = NGramLM | InterpolatedLM


def logprob(model: LanguageModel, sentence: Sentence) -> float:
    return model.logprob(sentence)


def perplexity(model: LanguageModel, corpus: list[Sentence]) -> float:
    """exp(-mean log-probability per token), tokens counted incl. EOS per sentence."""
    if not corpus:
        raise DataError("perplexity needs a non-empty corpus")
    total = sum(model.logprob(s) for s in corpus)
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
        "counts": [
            [[list(ctx), sorted((wid, c) for wid, c in cdict.items())]
             for ctx, cdict in sorted(level.items())]
            for level in model.counts
        ],
    }


def lm_from_dict(doc: dict) -> LanguageModel:
    """Inverse of lm_to_dict; a malformed document raises DataError naming the key."""
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
    counts: list[dict] = []
    totals: list[dict] = []
    try:
        for level in levels:
            level_counts = {}
            level_totals = {}
            for ctx, items in level:
                cdict = {int(wid): float(c) for wid, c in items}
                level_counts[tuple(ctx)] = cdict
                level_totals[tuple(ctx)] = float(sum(cdict.values()))
            counts.append(level_counts)
            totals.append(level_totals)
    except (TypeError, ValueError) as e:
        raise DataError(f"{what}: malformed key 'counts': {e}") from e
    return NGramLM(order, float(doc_field(doc, "k", NUMBER, what)), vocab,
                   counts, totals, float(doc_field(doc, "token_total", NUMBER, what)))
