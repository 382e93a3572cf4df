"""Noisy-channel reranking of n-best lists and weight tuning by random search.

Candidates are rescored as  fwd + lambda1 * channel + lambda2 * lm  where the
channel term is the backward model's score of the source given the hypothesis
and the lm term is the target language model score. Weights are tuned by
uniform random search over [0, 3]^2 with the null pair (0, 0) always included,
so reranking can never lose to plain beam search on the tuning set.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

from .corpus import Sentence, TaggedDataset
from .lm import LanguageModel, logprob
from .metrics import bleu
from .tm import LexModel, NBestEntry, NBestList, channel_scores, translate_nbest
from .util import DataError

LAMBDA_MAX = 3.0
DEFAULT_NBEST = 50
DEFAULT_TUNE_TRIALS = 30


@dataclass(frozen=True)
class NoisyChannelWeights:
    lambda1: float
    lambda2: float

    def __post_init__(self) -> None:
        for name, value in (("lambda1", self.lambda1), ("lambda2", self.lambda2)):
            if not 0.0 <= value <= LAMBDA_MAX:
                raise DataError(f"{name} must lie in [0, {LAMBDA_MAX}], got {value}")


NULL_WEIGHTS = NoisyChannelWeights(0.0, 0.0)


@dataclass
class RerankContext:
    """Everything needed to rerank: channel model, LM, weights, n-best size."""

    channel_model: object  # LexModel or Ensemble, trained opposite to the decoder
    lm: LanguageModel
    weights: NoisyChannelWeights = NULL_WEIGHTS
    nbest: int = DEFAULT_NBEST


def combined_score(fwd: float, channel: float, lm: float,
                   w: NoisyChannelWeights) -> float:
    if not (math.isfinite(fwd) and math.isfinite(channel) and math.isfinite(lm)):
        raise DataError("combined_score needs finite component scores")
    return fwd + w.lambda1 * channel + w.lambda2 * lm


def _channel_of(model):
    from .ensemble import Ensemble
    return model.fused() if isinstance(model, Ensemble) else model


def fill_scores(nbest: NBestList, backward, lm: LanguageModel) -> NBestList:
    """Fill the channel and lm slots of every entry (idempotent).

    The channel scores of all unfilled entries come from one batched
    `channel_scores` call; each equals `channel_score` of its entry exactly.
    """
    missing = [e.hyp for e in nbest.entries if e.channel is None]
    fresh = iter(channel_scores(_channel_of(backward), nbest.source, missing))
    entries = []
    for e in nbest.entries:
        ch = e.channel if e.channel is not None else next(fresh)
        lp = e.lm if e.lm is not None else logprob(lm, e.hyp)
        entries.append(replace(e, channel=ch, lm=lp))
    return NBestList(source=nbest.source, entries=entries)


def rerank(nbest: NBestList, backward, lm: LanguageModel,
           w: NoisyChannelWeights) -> NBestList:
    """Re-sort candidates by combined score, descending; ties keep prior order."""
    if not nbest.entries:
        raise DataError("cannot rerank an empty n-best list")
    scored = fill_scores(nbest, backward, lm)
    entries = [replace(e, combined=combined_score(e.fwd, e.channel, e.lm, w))
               for e in scored.entries]
    entries.sort(key=lambda e: -e.combined)  # stable: ties keep beam order
    return NBestList(source=nbest.source, entries=entries)


def rerank_top1(model, x: Sentence, ctx: RerankContext) -> Sentence:
    """Convenience: decode an n-best list and return the reranked best hypothesis."""
    from .ensemble import Ensemble, ensemble_nbest
    if isinstance(model, Ensemble):
        nbest = ensemble_nbest(model, x, ctx.nbest)
    else:
        nbest = translate_nbest(model, x, ctx.nbest)
    return rerank(nbest, ctx.channel_model, ctx.lm, ctx.weights).top().hyp


def sample_weights(trials: int, seed: int) -> list[NoisyChannelWeights]:
    """Trial 0 is always the null pair; the rest are uniform over [0, 3]^2."""
    rng = random.Random(seed)
    weights = [NULL_WEIGHTS]
    for _ in range(trials - 1):
        weights.append(NoisyChannelWeights(rng.uniform(0.0, LAMBDA_MAX),
                                           rng.uniform(0.0, LAMBDA_MAX)))
    return weights


def tune_lambdas(dev: TaggedDataset, forward, backward, lm: LanguageModel,
                 trials: int = DEFAULT_TUNE_TRIALS, seed: int = 0, *,
                 nbest: int = DEFAULT_NBEST, eval_ctx=None) -> NoisyChannelWeights:
    """Pick the weight pair maximizing dev BLEU of reranked top-1 outputs.

    Candidate scores are computed once; each trial only recombines and
    re-ranks them. With an EvalContext, BLEU is measured on detokenized
    surfaces (the same objective evaluate_system reports); ties keep the
    earlier trial.
    """
    if trials < 1:
        raise DataError("tuning needs at least one trial")
    if not dev.pairs:
        raise DataError("tuning needs a non-empty dev set")
    from .augment import decode_nbest_lists

    lists = decode_nbest_lists(forward, [src for src, _ in dev.pairs],
                               nbest=nbest, eval_ctx=eval_ctx)
    lists = [fill_scores(nb, backward, lm) for nb in lists]
    if eval_ctx is not None and eval_ctx.bpe is not None:
        refs = [eval_ctx.detok_tokens(ref) for _, ref in dev.pairs]
    else:
        refs = [tuple(ref) for _, ref in dev.pairs]

    best_weights = None
    best_bleu = -1.0
    for w in sample_weights(trials, seed):
        hyps = []
        for nb in lists:
            top = max(enumerate(nb.entries),
                      key=lambda ie: (combined_score(ie[1].fwd, ie[1].channel,
                                                     ie[1].lm, w), -ie[0]))[1]
            hyps.append(top.hyp)
        if eval_ctx is not None and eval_ctx.bpe is not None:
            hyps = [eval_ctx.detok_tokens(h) for h in hyps]
        score = bleu(hyps, refs)
        if score > best_bleu:
            best_bleu = score
            best_weights = w
    return best_weights


NBEST_FILE_VERSION = 1
_UNSET = "-"


def write_nbest_file(lists: list[NBestList], path: str) -> None:
    """Line-oriented interchange: id, rank, hypothesis, fwd/channel/lm/combined."""
    def fmt(value):
        return _UNSET if value is None else repr(value)

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#nbest v{NBEST_FILE_VERSION}\n")
        for sid, nb in enumerate(lists):
            fh.write(f"#source {sid} {' '.join(nb.source)}\n")
            for rank, e in enumerate(nb.entries):
                fields = [str(sid), str(rank), " ".join(e.hyp), fmt(e.fwd),
                          fmt(e.channel), fmt(e.lm), fmt(e.combined)]
                fh.write("\t".join(fields) + "\n")


def read_nbest_file(path: str) -> list[NBestList]:
    """Inverse of write_nbest_file; any malformed line raises DataError."""
    def parse(value):
        return None if value == _UNSET else float(value)

    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline()
            if not header.startswith(f"#nbest v{NBEST_FILE_VERSION}"):
                raise DataError(f"{path}: unsupported n-best file version")
            lists: list[NBestList] = []
            for lineno, line in enumerate(fh, start=2):
                line = line.rstrip("\n")
                where = f"{path}:{lineno}"
                if line.startswith("#source "):
                    source_text = line.partition(" ")[2].partition(" ")[2]
                    lists.append(NBestList(source=tuple(source_text.split()), entries=[]))
                    continue
                fields = line.split("\t")
                if len(fields) != 7:
                    raise DataError(f"{where}: expected 7 tab-separated fields, "
                                    f"got {len(fields)}")
                sid, _, hyp, fwd, ch, lp, comb = fields
                if not lists:
                    raise DataError(f"{where}: entry before any #source line")
                try:
                    sid = int(sid)
                    entry = NBestEntry(hyp=tuple(hyp.split()), fwd=float(fwd),
                                       channel=parse(ch), lm=parse(lp), combined=parse(comb))
                except ValueError as e:
                    raise DataError(f"{where}: {e}") from e
                if not 0 <= sid < len(lists):
                    raise DataError(f"{where}: sentence id {sid} out of range "
                                    f"[0, {len(lists)})")
                lists[sid].entries.append(entry)
    except OSError as e:
        raise DataError(f"cannot read n-best file {path}: {e}") from e
    return lists
