"""Noisy-channel reranking of n-best lists and weight tuning by random search.

Candidates are rescored as  fwd + lambda1 * channel + lambda2 * lm  where the
channel term is the backward model's score of the source given the hypothesis
and the lm term is the target language model score. Weights are tuned by
uniform random search over [0, 3]^2 with the null pair (0, 0) always included,
so reranking can never lose to plain beam search on the tuning set.

Both work on batches of lists held as flat arrays: one
`tm.pair_channel_scores` call and one `lm.logprobs` call score every entry
of a batch, each score being the one its entry gets alone. The LM scores
each distinct (context, word) event of the batch once, so the prefixes that
a list's entries share cost nothing extra. `rerank` orders a batch with one
stable sort; `tune_lambdas` recombines the dev batch's arrays for every
trial.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .corpus import TaggedDataset
from .lm import LanguageModel, logprobs
from .metrics import STATS_WIDTH, bleu_from_stats, references_of, surface_of
from .tm import LexModel, NBestEntry, NBestList, pair_channel_scores, translate_corpus
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

    def rerank(self, lists: list[NBestList]) -> list[NBestList]:
        return rerank(lists, self.channel_model, self.lm, self.weights)


def _components(lists: list[NBestList], backward: LexModel,
                lm: LanguageModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fwd, channel and lm scores of every entry of `lists`, list after
    list; DataError unless all are finite."""
    hyps = [e.hyp for nb in lists for e in nb.entries]
    fwd = np.array([e.fwd for nb in lists for e in nb.entries], dtype=np.float64)
    source_at = np.repeat(np.arange(len(lists)), [len(nb.entries) for nb in lists])
    channel = pair_channel_scores(backward, [nb.source for nb in lists], hyps,
                                  source_at, np.arange(len(hyps)))
    lm_score = logprobs(lm, hyps)
    if not (np.isfinite(fwd).all() and np.isfinite(channel).all()
            and np.isfinite(lm_score).all()):
        raise DataError("reranking needs finite component scores")
    return fwd, channel, lm_score


def rerank(lists: list[NBestList], backward: LexModel, lm: LanguageModel,
           w: NoisyChannelWeights) -> list[NBestList]:
    """Every list re-sorted by combined score, descending; ties keep prior order.

    The channel and lm slots are (re)scored and `combined` is set. All
    entries are ordered by one stable sort on (list, -combined), so a list
    comes out as it would reranked alone.
    """
    if not all(nb.entries for nb in lists):
        raise DataError("cannot rerank an empty n-best list")
    fwd, channel, lm_score = _components(lists, backward, lm)
    combined = fwd + w.lambda1 * channel + w.lambda2 * lm_score
    sizes = [len(nb.entries) for nb in lists]
    order = np.lexsort((-combined, np.repeat(np.arange(len(lists)), sizes))).tolist()
    entries = [e for nb in lists for e in nb.entries]
    channel, lm_score, combined = channel.tolist(), lm_score.tolist(), combined.tolist()
    ranked = [NBestEntry(hyp=entries[k].hyp, fwd=entries[k].fwd, channel=channel[k],
                         lm=lm_score[k], combined=combined[k]) for k in order]
    ends = np.cumsum(sizes).tolist()
    return [NBestList(source=nb.source, entries=ranked[end - size:end])
            for nb, size, end in zip(lists, sizes, ends)]


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
    surface = surface_of(eval_ctx)
    refs = references_of(dev, eval_ctx)

    # one row per list; padding (fwd -inf) never wins the argmax
    sizes = np.array([len(nb.entries) for nb in lists])
    held = np.arange(sizes.max()) < sizes[:, None]
    fwd = np.full(held.shape, -np.inf)
    channel = np.zeros(held.shape)
    lm_score = np.zeros(held.shape)
    fwd[held], channel[held], lm_score[held] = _components(lists, backward, lm)

    stats = np.zeros(held.shape + (STATS_WIDTH,), dtype=np.int64)
    known = np.zeros(held.shape, dtype=bool)
    rows = np.arange(len(lists))
    best_weights = None
    best_bleu = -1.0
    for w in sample_weights(trials, seed):
        # same operation order as rerank's, so the argmax is the same
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
