"""Noisy-channel reranking of n-best lists and weight tuning by random search.

Candidates are rescored as  fwd + lambda1 * channel + lambda2 * lm  where the
channel term is the backward model's score of the source given the hypothesis
and the lm term is the target language model score. Weights are tuned by
uniform random search over [0, 3]^2 with the null pair (0, 0) always included,
so reranking can never lose to plain beam search on the tuning set.

Both work on blocks of lists held as arrays (`tm.NBestBlock`: padded symbol
ids with their lengths, fwd scores and list offsets). A decoded block holds
each surface once per list: the decoder tells hypotheses apart by sequence
ids kept per beam state (its parent's with the token appended), not by
strings. One
`tm.block_channel_scores` call and one `lm.logprobs_of_ids` call score every
entry of a block from its ids, each score being the one its entry gets
alone; the block's symbols are mapped to each model's ids once. The LM
scores each distinct (context, word) event of the block once, so the
prefixes that a list's entries share cost nothing extra. `rerank` orders a
block with one stable sort and returns it taken in that order, with the
`channel`, `lm` and `combined` arrays set; `tune_lambdas` recombines the dev
block's arrays for every trial and turns only the entries a trial picks into
strings. An n-best file is written straight from a block's arrays and read
back into a block whose symbols are the file's distinct tokens, so files and
decodes are reranked by the same code.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .corpus import TaggedDataset
from .lm import LanguageModel, logprobs_of_ids
from .metrics import STATS_WIDTH, EvalContext, bleu_from_stats
from .tm import LexModel, NBestBlock, block_channel_scores, translate_corpus
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

    def rerank(self, block: NBestBlock) -> NBestBlock:
        return rerank(block, self.channel_model, self.lm, self.weights)


def _components(block: NBestBlock, backward: LexModel,
                lm: LanguageModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fwd, channel and lm scores of every entry of `block`; DataError
    unless all are finite."""
    channel = block_channel_scores(backward, block)
    lm_score = logprobs_of_ids(lm, block.symbols, *block.tokens())
    if not (np.isfinite(block.fwd).all() and np.isfinite(channel).all()
            and np.isfinite(lm_score).all()):
        raise DataError("reranking needs finite component scores")
    return block.fwd, channel, lm_score


def rerank(block: NBestBlock, backward: LexModel, lm: LanguageModel,
           w: NoisyChannelWeights) -> NBestBlock:
    """Every list re-sorted by combined score, descending; ties keep prior order.

    The channel and lm scores are (re)computed and `combined` is set. The
    entries are ordered by one stable sort on (list, -combined), so a list
    comes out as it would reranked alone; the block comes back taken in
    that order, with its channel, lm and combined arrays.
    """
    if not block.sizes().all():
        raise DataError("cannot rerank an empty n-best list")
    fwd, channel, lm_score = _components(block, backward, lm)
    combined = fwd + w.lambda1 * channel + w.lambda2 * lm_score
    order = np.lexsort((-combined, block.list_of_entries()))
    return block.take(order, block.offsets, block.sources, channel=channel[order],
                      lm=lm_score[order], combined=combined[order])


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
                 eval_ctx: EvalContext) -> tuple[NoisyChannelWeights, float]:
    """Pick the weight pair maximizing dev BLEU of reranked top-1 outputs.

    Returns the weights with their dev BLEU, which equals the BLEU
    `evaluate_system` reports for rerank decoding with those weights: the
    same n-best lists, the same combined scores, and the same top-1 choice
    (ties keep the earlier entry, as `rerank`'s stable sort does), scored
    through the same context. Candidate scores are computed once; each
    trial only recombines them. An entry's BLEU statistics against its
    reference are computed the first time a trial picks it, and each trial
    sums the rows it picked. BLEU is measured on the surfaces of `eval_ctx`
    (the same objective evaluate_system reports); ties between trials keep
    the earlier trial.
    """
    if trials < 1:
        raise DataError("tuning needs at least one trial")
    if not dev.pairs:
        raise DataError("tuning needs a non-empty dev set")
    block = translate_corpus(forward, [src for src, _ in dev.pairs], nbest)
    refs = eval_ctx.references(dev)

    # one row per list; padding (fwd -inf) never wins the argmax
    sizes = block.sizes()
    held = np.arange(sizes.max()) < sizes[:, None]
    fwd = np.full(held.shape, -np.inf)
    channel = np.zeros(held.shape)
    lm_score = np.zeros(held.shape)
    fwd[held], channel[held], lm_score[held] = _components(block, backward, lm)

    stats = np.zeros(held.shape + (STATS_WIDTH,), dtype=np.int64)
    known = np.zeros(held.shape, dtype=bool)
    rows = np.arange(len(block))
    best_weights = None
    best_bleu = -1.0
    for w in sample_weights(trials, seed):
        # same operation order as rerank's, so the argmax is the same
        picks = (fwd + w.lambda1 * channel + w.lambda2 * lm_score).argmax(axis=1)
        new = np.flatnonzero(~known[rows, picks])
        for i, hyp in zip(new.tolist(), block.surfaces(block.offsets[new] + picks[new])):
            stats[i, picks[i]] = refs.stats(i, eval_ctx.detok_tokens(hyp))
        known[new, picks[new]] = True
        score = bleu_from_stats(stats[rows, picks].sum(axis=0))
        if score > best_bleu:
            best_bleu = score
            best_weights = w
    return best_weights, best_bleu


NBEST_FILE_VERSION = 1
_UNSET = "-"
_SCORE_COLUMNS = ("fwd", "channel", "lm", "combined")


def write_nbest_file(block: NBestBlock, path: str) -> None:
    """Line-oriented interchange: a `#source` line per list, then a line per
    entry of id, rank, hypothesis and fwd/channel/lm/combined, each score by
    `repr` and `-` where the block has no array for it."""
    n = block.fwd.size
    columns = [[repr(v) for v in scores.tolist()] if scores is not None else [_UNSET] * n
               for scores in (block.fwd, block.channel, block.lm, block.combined)]
    rows = ["\t".join(row) for row in zip(map(" ".join, block.surfaces(np.arange(n))),
                                           *columns)]
    ends = block.offsets.tolist()
    lines = [f"#nbest v{NBEST_FILE_VERSION}\n"]
    for sid, source in enumerate(block.sources):
        lines.append(f"#source {sid} {' '.join(source)}\n")
        lines += [f"{sid}\t{e - ends[sid]}\t{rows[e]}\n" for e in range(ends[sid], ends[sid + 1])]
    write_text_atomic(path, "".join(lines))


def read_nbest_file(path: str) -> NBestBlock:
    """The block `write_nbest_file` wrote: its symbols are the file's
    distinct tokens, sorted, and a channel, lm or combined array is kept
    when every entry sets it and left out when none does. Any malformed
    line raises DataError; an entry's id must be that of the latest
    `#source` line, its rank its place in that list, and every score it
    sets finite (the writer never writes another)."""
    lines = read_text(path, "n-best file").split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != f"#nbest v{NBEST_FILE_VERSION}":
        raise DataError(f"{path}: unsupported n-best file version")
    sources, sizes, hyps, fwd, rest = [], [], [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        where = f"{path}:{lineno}"
        if line.startswith("#source "):
            sid, _, source_text = line.partition(" ")[2].partition(" ")
            if sid != str(len(sources)):
                raise DataError(f"{where}: #source id {sid!r}, expected {len(sources)}")
            sources.append(tuple(source_text.split()))
            sizes.append(0)
            continue
        fields = line.split("\t")
        if len(fields) != 7:
            raise DataError(f"{where}: expected 7 tab-separated fields, "
                            f"got {len(fields)}")
        if not sources:
            raise DataError(f"{where}: entry before any #source line")
        if fields[0] != str(len(sources) - 1):
            raise DataError(f"{where}: sentence id {fields[0]!r}, expected "
                            f"{len(sources) - 1} of the latest #source line")
        if fields[1] != str(sizes[-1]):
            raise DataError(f"{where}: rank {fields[1]!r}, expected {sizes[-1]}")
        try:
            values = [float(fields[3])] + [None if v == _UNSET else float(v)
                                           for v in fields[4:]]
        except ValueError as e:
            raise DataError(f"{where}: {e}") from e
        for name, text, value in zip(_SCORE_COLUMNS, fields[3:], values):
            if value is not None and not math.isfinite(value):
                raise DataError(f"{where}: {name} score {text!r} is not finite")
        fwd.append(values[0])
        rest.append(values[1:])
        hyps.append(tuple(fields[2].split()))
        sizes[-1] += 1
    scores = {}
    for name, column in zip(_SCORE_COLUMNS[1:], zip(*rest)):
        unset = column.count(None)
        if 0 < unset < len(column):
            raise DataError(f"{path}: {name} scores set on some entries and "
                            f"{_UNSET!r} on others")
        if not unset:
            scores[name] = np.array(column, dtype=np.float64)
    symbols = tuple(sorted({tok for hyp in hyps for tok in hyp}))
    sym_id = {s: i for i, s in enumerate(symbols)}
    lengths = np.array([len(hyp) for hyp in hyps], dtype=np.intp)
    ids = np.zeros((len(hyps), int(lengths.max(initial=0))),
                   dtype=np.min_scalar_type(max(len(symbols) - 1, 0)))
    ids[np.arange(ids.shape[1]) < lengths[:, None]] = [sym_id[tok] for hyp in hyps for tok in hyp]
    return NBestBlock(sources, symbols, ids, lengths, np.array(fwd, dtype=np.float64),
                      np.concatenate(([0], np.cumsum(sizes, dtype=np.intp))), **scores)
