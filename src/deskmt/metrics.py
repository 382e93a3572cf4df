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
    """The one way BLEU is scored: how decoder output and references become
    the surface tokens BLEU counts.

    Every BLEU the library reports for a choice or a system (trial and
    fine-tune checkpoint scores, lambda tuning, evaluation) is scored
    through one. `bpe` inverts subword segmentation (None scores raw tokens)
    and `policy` picks the detokenization rule. A context surfaces and
    counts the references of each dataset it scores once, for its life.
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
            got = self._references[id(dataset)] = (
                dataset, References([self.detok_tokens(ref) for _, ref in dataset.pairs]))
        return got[1]


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


class References:
    """The reference side of a scored corpus: each reference's length and
    n-gram counts, computed once for every hypothesis scored against it, and
    the statistics of each (reference, hypothesis) pair, computed once: the
    decodes of a dev set by trials, tuning and evaluation repeat many
    hypotheses."""

    def __init__(self, refs):
        refs = [tuple(ref) for ref in refs]
        self._lengths = [len(ref) for ref in refs]
        self._counts = [_ref_counts(ref) for ref in refs]
        self._memo: dict = {}

    def __len__(self) -> int:
        return len(self._lengths)

    def stats(self, k: int, hyp: Sentence) -> tuple[int, ...]:
        """Integer BLEU sufficient statistics of `hyp` against reference k.

        Rows add up to the corpus statistics, so their sum is order-independent.
        """
        key = (k, tuple(hyp))
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = _stats(key[1], self._lengths[k], self._counts[k])
        return got


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
                    eval_ctx: EvalContext, nbest: int = 50) -> EvalReport:
    """Decode every test source and score BLEU against the references.

    `model` is a LexModel (an Ensemble too); `decode` is "beam" or "rerank".
    "beam" ignores `rerank_ctx`; "rerank" needs one. `eval_ctx` turns the
    hypotheses and references into the surfaces BLEU scores and the report
    lists.
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
    block = translate_corpus(model, [src for src, _ in pairs], nbest,
                             rerank_ctx=rerank_ctx)
    hyp_tokens = [eval_ctx.detok_tokens(hyp) for hyp in block.top_hyps()]
    ref_tokens = [eval_ctx.detok_tokens(r) for _, r in pairs]

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
