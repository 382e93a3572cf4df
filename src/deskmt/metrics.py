"""Corpus BLEU and system evaluation reports.

BLEU-4 with clipped modified n-gram precisions aggregated over the corpus,
geometric mean, and the standard brevity penalty. Smoothing: a precision with
zero matches becomes 1/(2 * corpus n-gram count); an order with no n-grams at
all (every hypothesis shorter than n) contributes a factor of 1.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from .corpus import Sentence
from .subword import POLICY_SPACED, BpeModel, decode as bpe_decode
from .tm import model_hash, translate_corpus
from .util import DataError

BLEU_ORDER = 4


@dataclass
class EvalContext:
    """How decoder output is turned back into scoreable surface tokens.

    `bpe` inverts subword segmentation (None scores raw tokens) and `policy`
    picks the detokenization rule.
    """

    bpe: BpeModel | None = None
    policy: str = POLICY_SPACED
    # Nothing reads the tag: sources are decoded as they are. The field stays
    # only because bench/workloads.py passes tag=, and goes with the next
    # change to bench/.
    tag: str | None = None
    # id(dataset) -> (dataset, its References); holding the dataset keeps its id
    _references: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)

    def detok_tokens(self, sentence: Sentence) -> tuple[str, ...]:
        """Detokenize then re-tokenize by whitespace (the evaluation tokenization)."""
        if self.bpe is None:
            return tuple(sentence)
        return tuple(bpe_decode(sentence, self.bpe, self.policy).split())

    def references(self, dataset) -> "References":
        """The scored targets of `dataset`, surfaced and counted once for the
        life of this context."""
        got = self._references.get(id(dataset))
        if got is None:
            surface = surface_of(self)
            got = self._references[id(dataset)] = (
                dataset, References([surface(ref) for _, ref in dataset.pairs]))
        return got[1]


def surface_of(eval_ctx: EvalContext | None):
    """The tokens BLEU scores of a decoded or reference sentence.

    Subword output is detokenized through the context; without a BPE model
    the sentence is scored as it is.
    """
    if eval_ctx is not None and eval_ctx.bpe is not None:
        return eval_ctx.detok_tokens
    return tuple


def _ngrams(sentence: Sentence, n: int) -> Counter:
    return Counter(tuple(sentence[i:i + n]) for i in range(len(sentence) - n + 1))


# Layout of one row of sufficient statistics: hypothesis length, reference
# length, then clipped matches for orders 1..BLEU_ORDER, then hypothesis
# n-gram totals for orders 1..BLEU_ORDER.
STATS_WIDTH = 2 + 2 * BLEU_ORDER


def _ref_counts(ref: Sentence) -> list[Counter]:
    return [_ngrams(ref, n) for n in range(1, BLEU_ORDER + 1)]


def _stats(hyp: Sentence, ref_len: int, ref_counts: list[Counter]) -> tuple[int, ...]:
    matches = [0] * BLEU_ORDER
    totals = [0] * BLEU_ORDER
    for n in range(1, BLEU_ORDER + 1):
        hyp_counts = _ngrams(hyp, n)
        if not hyp_counts:
            continue
        totals[n - 1] = sum(hyp_counts.values())
        matches[n - 1] = sum(min(c, ref_counts[n - 1][g]) for g, c in hyp_counts.items())
    return (len(hyp), ref_len, *matches, *totals)


def sentence_stats(hyp: Sentence, ref: Sentence) -> tuple[int, ...]:
    """Integer BLEU sufficient statistics of one hypothesis against its reference.

    Rows add up to the corpus statistics, so their sum is order-independent.
    """
    ref = tuple(ref)
    return _stats(tuple(hyp), len(ref), _ref_counts(ref))


class References:
    """The reference side of a scored corpus: each reference's length and
    n-gram counts, computed once for every hypothesis scored against it."""

    def __init__(self, refs):
        refs = [tuple(ref) for ref in refs]
        self._lengths = [len(ref) for ref in refs]
        self._counts = [_ref_counts(ref) for ref in refs]

    def __len__(self) -> int:
        return len(self._lengths)

    def stats(self, k: int, hyp: Sentence) -> tuple[int, ...]:
        """`sentence_stats` of `hyp` against reference k."""
        return _stats(tuple(hyp), self._lengths[k], self._counts[k])


def bleu_from_stats(stats) -> float:
    """Corpus BLEU-4 in [0, 100] from summed sufficient statistics."""
    hyp_len, ref_len = int(stats[0]), int(stats[1])
    matches = [int(v) for v in stats[2:2 + BLEU_ORDER]]
    totals = [int(v) for v in stats[2 + BLEU_ORDER:STATS_WIDTH]]
    if hyp_len == 0:
        return 0.0
    log_sum = 0.0
    for n in range(BLEU_ORDER):
        if totals[n] == 0:
            continue  # order absent from the corpus: neutral factor
        p = matches[n] / totals[n] if matches[n] > 0 else 1.0 / (2.0 * totals[n])
        log_sum += math.log(p) / BLEU_ORDER
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * bp * math.exp(log_sum)


def bleu(hyps: list[Sentence], refs) -> float:
    """Corpus-level BLEU-4 in [0, 100] against single references.

    `refs` is a list of reference sentences or their `References`.
    """
    if not hyps:
        raise DataError("BLEU needs a non-empty corpus")
    if len(hyps) != len(refs):
        raise DataError(f"hypothesis/reference count mismatch: {len(hyps)} vs {len(refs)}")
    if not isinstance(refs, References):
        refs = References(refs)
    total = [0] * STATS_WIDTH
    for k, hyp in enumerate(hyps):
        for j, v in enumerate(refs.stats(k, hyp)):
            total[j] += v
    return bleu_from_stats(total)


def references_of(dataset, eval_ctx: EvalContext | None) -> References:
    """The scored targets of `dataset`: the context's, counted once per
    context, or counted now when there is no context."""
    if eval_ctx is None:
        return References([ref for _, ref in dataset.pairs])
    return eval_ctx.references(dataset)


@dataclass
class EvalReport:
    """Machine-readable evaluation record plus a human-readable rendering."""

    bleu: float
    sentence_count: int
    decode: str
    lambdas: tuple[float, float] | None
    model_hash: str
    per_sentence: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "bleu": self.bleu,
            "sentence_count": self.sentence_count,
            "decode": self.decode,
            "lambdas": list(self.lambdas) if self.lambdas else None,
            "model_hash": self.model_hash,
            "per_sentence": self.per_sentence,
        }

    def format_text(self) -> str:
        lines = [
            f"BLEU          {self.bleu:.2f}",
            f"sentences     {self.sentence_count}",
            f"decode        {self.decode}",
            f"lambdas       {self.lambdas if self.lambdas else '-'}",
            f"model         {self.model_hash[:12]}",
        ]
        return "\n".join(lines)


def evaluate_system(model, test, decode: str = "beam", *, rerank_ctx=None,
                    eval_ctx=None, nbest: int = 50) -> EvalReport:
    """Decode every test source and score BLEU against the references.

    `model` is a LexModel (an Ensemble too); `decode` is "beam" or "rerank".
    "beam" ignores `rerank_ctx`; "rerank" needs one. An EvalContext controls
    subword inversion.
    """
    if decode == "beam":
        rerank_ctx = None
    elif decode != "rerank":
        raise DataError(f"unknown decode mode {decode!r}")
    elif rerank_ctx is None:
        raise DataError("rerank decoding needs a RerankContext")
    pairs = list(test.pairs)
    if not pairs:
        raise DataError("evaluation needs a non-empty test set")
    lists = translate_corpus(model, [src for src, _ in pairs], nbest,
                             rerank_ctx=rerank_ctx)
    surface = surface_of(eval_ctx)
    hyp_tokens = [surface(nb.top().hyp) for nb in lists]
    ref_tokens = [surface(r) for _, r in pairs]

    score = bleu(hyp_tokens, ref_tokens)
    per_sentence = [
        {"source": " ".join(src), "hypothesis": " ".join(h),
         "reference": " ".join(r)}
        for (src, _), h, r in zip(pairs, hyp_tokens, ref_tokens)
    ]
    lambdas = None
    if rerank_ctx is not None:
        lambdas = (rerank_ctx.weights.lambda1, rerank_ctx.weights.lambda2)
    return EvalReport(bleu=score, sentence_count=len(pairs), decode=decode,
                      lambdas=lambdas, model_hash=model_hash(model),
                      per_sentence=per_sentence)
