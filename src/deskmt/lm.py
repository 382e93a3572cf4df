"""Smoothed n-gram language models with optional in-domain interpolation.

Estimates are add-k smoothed with backoff-by-interpolation to lower orders:

    P_j(w | ctx) = (c_j(ctx, w) + k*|S| * P_{j-1}(w | ctx[1:])) / (c_j(ctx) + k*|S|)

with P_0 uniform over the prediction space S = vocabulary + unknown. Training
counts token events only; the end-of-sentence marker is part of the
vocabulary and is scored context-free from its unigram (pure smoothing)
estimate, which keeps log-probabilities strictly decreasing under extension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import Sentence
from .util import DataError

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
        self._log_cache: dict = {}
        self._term_cache: dict = {}
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
        if len(self._prob_cache) > _CACHE_CAP:
            self._prob_cache.clear()
            self._log_cache.clear()
        self._prob_cache[key] = vec
        return vec

    def cond_probs(self, context: tuple[str, ...]) -> np.ndarray:
        """Conditional distribution over the prediction space, given token context."""
        return self._probs_level(self.order, self._ctx_ids(context))

    def cond_logprobs(self, context: tuple[str, ...]) -> np.ndarray:
        ctx = self._ctx_ids(context)
        vec = self._log_cache.get(ctx)
        if vec is None:
            vec = np.log(self._probs_level(self.order, ctx))
            self._log_cache[ctx] = vec
        return vec

    def logprob(self, sentence: Sentence) -> float:
        """Natural-log probability of the sentence, including end-of-sentence."""
        return _sum_terms(self, sentence)

    def _term(self, history: tuple[str, ...], token: str) -> float:
        return float(self.cond_logprobs(history)[self.id_or_unk(token)])

    def scorer_for(self, symbols: tuple[str, ...]) -> "_Scorer":
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
    """Cached conditional log-probability vectors aligned to a fixed symbol list."""

    def __init__(self, lm, symbols: tuple[str, ...]):
        self.lm = lm
        self.symbols = symbols
        self.eos_logprob = lm.eos_logprob
        if isinstance(lm, InterpolatedLM):
            self._base_idx = np.array([lm.base.id_or_unk(s) for s in symbols])
            self._in_idx = np.array([lm.indomain.id_or_unk(s) for s in symbols])
        else:
            self._idx = np.array([lm.id_or_unk(s) for s in symbols], dtype=np.intp)
        self._cache: dict = {}

    def logvec(self, context: tuple[str, ...]) -> np.ndarray:
        vec = self._cache.get(context)
        if vec is not None:
            return vec
        lm = self.lm
        if isinstance(lm, InterpolatedLM):
            pb = lm.base.cond_probs(context)[self._base_idx]
            pi = lm.indomain.cond_probs(context)[self._in_idx]
            vec = np.log((1.0 - lm.interp_alpha) * pb + lm.interp_alpha * pi)
        else:
            vec = lm.cond_logprobs(context)[self._idx]
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

    def logprob(self, sentence: Sentence) -> float:
        return _sum_terms(self, sentence)

    def _term(self, history: tuple[str, ...], token: str) -> float:
        a = self.interp_alpha
        pb = self.base.cond_probs(history)[self.base.id_or_unk(token)]
        pi = self.indomain.cond_probs(history)[self.indomain.id_or_unk(token)]
        return float(np.log((1.0 - a) * pb + a * pi))

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
    if doc.get("version") != FORMAT_VERSION:
        raise DataError("unsupported LM serialization version")
    if doc["kind"] == "interpolated":
        return InterpolatedLM(lm_from_dict(doc["base"]), lm_from_dict(doc["indomain"]),
                              doc["alpha"])
    counts: list[dict] = []
    totals: list[dict] = []
    for level in doc["counts"]:
        level_counts = {}
        level_totals = {}
        for ctx, items in level:
            cdict = {int(wid): float(c) for wid, c in items}
            level_counts[tuple(ctx)] = cdict
            level_totals[tuple(ctx)] = float(sum(cdict.values()))
        counts.append(level_counts)
        totals.append(level_totals)
    return NGramLM(int(doc["order"]), float(doc["k"]), tuple(doc["vocab"]),
                   counts, totals, float(doc["token_total"]))
