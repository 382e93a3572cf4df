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

import numpy as np

from .corpus import TaggedDataset
from .lm import LanguageModel, logprob
from .metrics import STATS_WIDTH, bleu_from_stats, references_of, surface_of
from .tm import LexModel, NBestEntry, NBestList, channel_scores, translate_corpus
from .util import DataError, read_text, write_text_atomic

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

    channel_model: LexModel  # trained opposite to the decoder
    lm: LanguageModel
    weights: NoisyChannelWeights = NULL_WEIGHTS
    nbest: int = DEFAULT_NBEST

    def rerank(self, nbest: NBestList) -> NBestList:
        return rerank(nbest, self.channel_model, self.lm, self.weights)


def combined_score(fwd: float, channel: float, lm: float,
                   w: NoisyChannelWeights) -> float:
    if not (math.isfinite(fwd) and math.isfinite(channel) and math.isfinite(lm)):
        raise DataError("combined_score needs finite component scores")
    return fwd + w.lambda1 * channel + w.lambda2 * lm


def fill_scores(nbest: NBestList, backward: LexModel, lm: LanguageModel) -> NBestList:
    """Score the channel and lm slots of every entry with the given models,
    replacing any scores the entries already hold.

    The channel scores come from one batched `channel_scores` call; each
    equals the score of its entry scored alone.
    """
    channel = channel_scores(backward, nbest.source, [e.hyp for e in nbest.entries])
    return NBestList(source=nbest.source,
                     entries=[replace(e, channel=ch, lm=logprob(lm, e.hyp))
                              for e, ch in zip(nbest.entries, channel)])


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
                 nbest: int = DEFAULT_NBEST,
                 eval_ctx=None) -> tuple[NoisyChannelWeights, float]:
    """Pick the weight pair maximizing dev BLEU of reranked top-1 outputs.

    Returns the weights with their dev BLEU, which equals `dev_bleu` of
    rerank decoding with those weights: the same n-best lists, the same
    combined scores, and the same top-1 choice (ties keep the earlier entry,
    as `rerank`'s stable sort does). Candidate scores are computed once; each
    trial only recombines them. An entry's BLEU statistics against its
    reference are computed the first time a trial picks it, and each trial
    sums the rows it picked. With an EvalContext, BLEU is measured on
    detokenized surfaces (the same objective evaluate_system reports); ties
    between trials keep the earlier trial.
    """
    if trials < 1:
        raise DataError("tuning needs at least one trial")
    if not dev.pairs:
        raise DataError("tuning needs a non-empty dev set")
    lists = translate_corpus(forward, [src for src, _ in dev.pairs], nbest)
    lists = [fill_scores(nb, backward, lm) for nb in lists]
    surface = surface_of(eval_ctx)
    refs = references_of(dev, eval_ctx)

    components = [(e.fwd, e.channel, e.lm) for nb in lists for e in nb.entries]
    if not np.isfinite(components).all():
        raise DataError("combined_score needs finite component scores")
    # one row per list; padding (fwd -inf) never wins the argmax
    width = max(len(nb.entries) for nb in lists)
    fwd = np.full((len(lists), width), -np.inf)
    channel = np.zeros((len(lists), width))
    lm_score = np.zeros((len(lists), width))
    for i, nb in enumerate(lists):
        for j, e in enumerate(nb.entries):
            fwd[i, j], channel[i, j], lm_score[i, j] = e.fwd, e.channel, e.lm

    stats = np.zeros((len(lists), width, STATS_WIDTH), dtype=np.int64)
    known = np.zeros((len(lists), width), dtype=bool)
    rows = np.arange(len(lists))
    best_weights = None
    best_bleu = -1.0
    for w in sample_weights(trials, seed):
        # same operation order as combined_score, so the argmax is the same
        picks = (fwd + w.lambda1 * channel + w.lambda2 * lm_score).argmax(axis=1)
        for i in np.flatnonzero(~known[rows, picks]).tolist():
            j = int(picks[i])
            stats[i, j] = refs.stats(i, surface(lists[i].entries[j].hyp))
            known[i, j] = True
        score = bleu_from_stats(stats[rows, picks].sum(axis=0))
        if score > best_bleu:
            best_bleu = score
            best_weights = w
    return best_weights, best_bleu


NBEST_FILE_VERSION = 1
_UNSET = "-"


def write_nbest_file(lists: list[NBestList], path: str) -> None:
    """Line-oriented interchange: id, rank, hypothesis, fwd/channel/lm/combined."""
    def fmt(value):
        return _UNSET if value is None else repr(value)

    lines = [f"#nbest v{NBEST_FILE_VERSION}\n"]
    for sid, nb in enumerate(lists):
        lines.append(f"#source {sid} {' '.join(nb.source)}\n")
        for rank, e in enumerate(nb.entries):
            fields = [str(sid), str(rank), " ".join(e.hyp), fmt(e.fwd),
                      fmt(e.channel), fmt(e.lm), fmt(e.combined)]
            lines.append("\t".join(fields) + "\n")
    write_text_atomic(path, "".join(lines))


def read_nbest_file(path: str) -> list[NBestList]:
    """Inverse of write_nbest_file; any malformed line raises DataError."""
    def parse(value):
        return None if value == _UNSET else float(value)

    lines = read_text(path, "n-best file").split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines or not lines[0].startswith(f"#nbest v{NBEST_FILE_VERSION}"):
        raise DataError(f"{path}: unsupported n-best file version")
    lists: list[NBestList] = []
    for lineno, line in enumerate(lines[1:], start=2):
        where = f"{path}:{lineno}"
        if line.startswith("#source "):
            sid, _, source_text = line.partition(" ")[2].partition(" ")
            if sid != str(len(lists)):
                raise DataError(f"{where}: #source id {sid!r}, expected {len(lists)}")
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
    return lists
