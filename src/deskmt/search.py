"""Random hyperparameter search with perplexity early stopping, top-k model
selection, and in-domain fine-tuning.

The searchable knobs are the lexical model's (EM iterations, LM order,
smoothing, LM weight, reordering window, beam) plus the data upsampling
ratios. Each dimension is a finite value list; configurations are sampled
uniformly and independently per dimension, and a sample holds no
configuration twice.
"""

from __future__ import annotations

import json
import math
import random
from collections.abc import Callable
from dataclasses import asdict, dataclass, replace

import numpy as np

from .corpus import MAX_COUNT, DataMix, TaggedDataset, build_mix
from .ensemble import Ensemble
from .lm import FINETUNE_ALPHA, InterpolatedLM, NGramCounts, NGramLM, base_ngram, logprobs
from .metrics import EvalContext, bleu
from .tm import (LM_WEIGHT_MAX, WIDTH_MAX, EMTrainer, LexModel, PairLayout, model_hash,
                 pair_channel_scores, translate_stack)
from .util import NUMBER, DataError, doc_field, read_json, write_text_atomic

DEFAULT_TRIALS = 30
DEFAULT_PATIENCE = 2
DEFAULT_FINETUNE_STEPS = 3


def _whole(least: int, most: float = math.inf):
    return lambda v: isinstance(v, int) and not isinstance(v, bool) and least <= v <= most


def _number(test):
    return lambda v: isinstance(v, NUMBER) and not isinstance(v, bool) and test(v)


# The values each trial setting, and so each search dimension, can take.
_SETTINGS = {
    "em_iterations": (_whole(1), "an integer of at least 1"),
    "lm_order": (_whole(1), "an integer of at least 1"),
    "smoothing_k": (_number(lambda v: 0 < v < math.inf), "a positive finite number"),
    "lm_weight": (_number(lambda v: 0 <= v <= LM_WEIGHT_MAX),
                  f"a number in [0, {LM_WEIGHT_MAX}]"),
    "window": (_whole(0), "an integer of at least 0"),
    "beam": (_whole(1, WIDTH_MAX), "an integer in [1, 2**62]"),
    **{name: (_whole(1, MAX_COUNT), "an integer in [1, 2**53]")
       for name in ("up_bitext", "up_fwd", "up_bt")},
}


@dataclass(frozen=True)
class TrialConfig:
    em_iterations: int = 5
    lm_order: int = 3
    smoothing_k: float = 0.5
    lm_weight: float = 0.5
    window: int = 1
    beam: int = 5
    up_bitext: int = 3
    up_fwd: int = 1
    up_bt: int = 1

    def __post_init__(self) -> None:
        for name, (valid, kind) in _SETTINGS.items():
            value = getattr(self, name)
            if not valid(value):
                raise DataError(f"trial setting {name!r}: {value!r} is not {kind}")

    def to_dict(self) -> dict:
        return asdict(self)


DEFAULT_CONFIG = TrialConfig()

# Data upsampling ratios are the published search ranges; the model knobs
# translate the architecture grid onto this model family.
DEFAULT_SEARCH_SPACE_DIMS = {
    "em_iterations": [2, 3, 5],
    "lm_order": [2, 3],
    "smoothing_k": [0.1, 0.3, 1.0],
    "lm_weight": [0.1, 0.3, 0.5, 1.0],
    "window": [0, 1],
    "beam": [2, 5],
    "up_bitext": [1, 2, 3, 4, 6, 8, 12, 16, 20, 32, 40, 64],
    "up_fwd": [1, 2, 3, 4, 6, 8, 9],
    "up_bt": [1, 2, 3, 4, 6, 8, 9],
}


@dataclass(frozen=True)
class SearchSpace:
    """Each dimension's value list; a value its trial setting cannot take
    is a DataError naming the dimension."""
    dims: dict

    def __post_init__(self) -> None:
        unknown = set(self.dims) - set(DEFAULT_SEARCH_SPACE_DIMS)
        if unknown:
            raise DataError(f"unknown search dimensions: {sorted(unknown)}")
        for name, values in self.dims.items():
            if not values:
                raise DataError(f"search dimension {name!r} is empty")
            valid, kind = _SETTINGS[name]
            for value in values:
                if not valid(value):
                    raise DataError(f"search dimension {name!r}: {value!r} is not {kind}")

    def save(self, path: str) -> None:
        write_text_atomic(path, json.dumps({"version": 1, "dims": self.dims},
                                           indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str) -> "SearchSpace":
        dims = doc_field(read_json(path, "search space"), "dims", dict, path)
        for name in dims:
            if not doc_field(dims, name, list, f"{path}: dims"):
                raise DataError(f"{path}: dims: key {name!r} must be a non-empty list")
        try:
            return cls(dims=dims)
        except DataError as e:
            raise DataError(f"{path}: {e}") from e


def default_search_space() -> SearchSpace:
    return SearchSpace(dims={k: list(v) for k, v in DEFAULT_SEARCH_SPACE_DIMS.items()})


def check_sample_size(space: SearchSpace, n: int) -> None:
    """Raise DataError unless `space` holds at least n distinct configurations."""
    if n < 1:
        raise DataError("need at least one configuration")
    size = math.prod(len(set(values)) for values in space.dims.values())
    if n > size:
        raise DataError(f"cannot sample {n} distinct configurations from a search "
                        f"space of {size}")


def sample_configs(space: SearchSpace, n: int, seed: int) -> list[TrialConfig]:
    """n distinct configurations, each drawn uniformly per dimension (in
    sorted dimension order); a draw equal to an earlier one is redrawn."""
    check_sample_size(space, n)
    rng = random.Random(seed)
    configs: dict[TrialConfig, None] = {}
    while len(configs) < n:
        configs.setdefault(TrialConfig(**{name: rng.choice(space.dims[name])
                                          for name in sorted(space.dims)}))
    return list(configs)


@dataclass
class TrialResult:
    """One trial: its configuration, dev perplexity trace, dev BLEU and final
    model (fine-tuned when the search fine-tunes).

    `run_search` holds a trial's model only while the trial ranks in its
    running top-k; once the trial falls out, `model` is None and
    `model_hash` names the model's saved artifact.
    """
    config: TrialConfig
    model: LexModel | None
    dev_ppl_trace: tuple[float, ...]
    dev_bleu: float
    model_hash: str | None = None

    def record(self) -> dict:
        """Machine-readable run-log record (model referenced by hash)."""
        digest = self.model_hash if self.model is None else model_hash(self.model)
        return {"config": self.config.to_dict(), "model_hash": digest,
                "dev_ppl_trace": list(self.dev_ppl_trace), "dev_bleu": self.dev_bleu}


class TrialError(DataError):
    """A trial's DataError with the offending configuration attached (so a
    CLI run that trains with bad settings exits 2)."""

    def __init__(self, config: TrialConfig, cause: Exception):
        super().__init__(f"trial failed for {config}: {cause}")
        self.config = config


def dev_perplexity(model: LexModel, dev: TaggedDataset, *,
                   lm_score: np.ndarray | None = None) -> float:
    """Early-stopping signal: perplexity of the composed model score on dev.

    The composed score of a pair is the length-agnostic lexical marginal of
    the target given the source plus lm_weight times the LM score; tokens are
    counted including end-of-sentence. The marginal ln P(tgt | src) is the
    channel score of `tgt` given the hypothesis `src`. `lm_score` holds the
    dev targets' `logprobs` under `model.lm` when the caller has them:
    `run_trial`'s checkpoints share one LM, so it scores them once.
    """
    sources = [src for src, _ in dev.pairs]
    targets = [tgt for _, tgt in dev.pairs]
    each = np.arange(len(dev.pairs))
    channel = pair_channel_scores(model, targets, sources, each, each)
    if lm_score is None:
        lm_score = logprobs(model.lm, targets)
    total = 0.0
    for ch, lp in zip(channel.tolist(), lm_score.tolist()):
        total += ch
        total += model.lm_weight * lp
    return math.exp(-total / sum(len(tgt) + 1 for tgt in targets))


def dev_bleu(model, dev: TaggedDataset, *, eval_ctx: EvalContext) -> float:
    """Dev BLEU of the top-1 beam outputs, the score that ranks trials and
    fine-tune checkpoints.

    BLEU is measured on the surfaces of `eval_ctx`, which counts the
    references of `dev` once for every call that scores against them. A
    reranked dev BLEU is `metrics.evaluate_system(..., decode="rerank").bleu`.
    """
    return _dev_bleus([model], dev, eval_ctx)[0]


def _dev_bleus(models, dev: TaggedDataset, eval_ctx: EvalContext) -> list[float]:
    """`dev_bleu` of each model, decoded in one `translate_stack` pass."""
    refs = eval_ctx.references(dev)
    return [bleu([eval_ctx.detok_tokens(hyp) for hyp in block.top_hyps()], refs)
            for block in translate_stack(models, [src for src, _ in dev.pairs], 1)]


class TrainingLayouts:
    """What every mix of one list of training sets shares, whatever its
    upsampling, built once on first use: EM's `tm.PairLayout` of the sets,
    and per LM order the `lm.NGramCounts` of their target sides, one group
    per set. A mix's trainer then only weighs the layout's pairs, and its LM
    only combines counts; both equal, bit for bit, what the mix alone would
    build (`EMTrainer(mix)`, `train_lm` of `mix.target_sentences()`),
    because every weight is an integer and no count passes
    `corpus.MAX_COUNT` (a DataError stops a mix that could).

    `indomain_lm(order, k)` is the LM of the sets' target sides, each pair
    counted once, kept per (order, k): the in-domain part every fine-tune
    of a search interpolates toward, so those fine-tune LMs share it.

    What it holds grows with the sets, not with the trials: the layout's id
    arrays (one per pair token) and per order a count trie with one count
    array per set, and the kept in-domain LMs.
    """

    def __init__(self, datasets: list[TaggedDataset]):
        self.datasets = tuple(datasets)
        self._pairs: PairLayout | None = None
        self._targets: dict | None = None   # target sentence -> its count per set
        self._tokens: list[int] = []        # each set's target tokens
        self._counts: dict[int, NGramCounts] = {}
        self._indomain: dict[tuple, NGramLM] = {}

    def trainer(self, mix: DataMix, warm_start: LexModel | None = None) -> EMTrainer:
        """`EMTrainer(mix, warm_start)` of a mix of these sets."""
        if self._pairs is None:
            self._pairs = PairLayout(self.datasets)
        return EMTrainer(mix, warm_start, layout=self._pairs)

    def lm(self, mix: DataMix, order: int, k: float) -> NGramLM:
        """The target-side LM of a mix of these sets: `train_lm` of its
        `target_sentences()`."""
        if [ds.pairs for ds in mix.datasets] != [ds.pairs for ds in self.datasets]:
            raise ValueError("the mix is not of the layouts' training sets")
        return self._lm(order, k, [ds.upsample for ds in mix.datasets])

    def indomain_lm(self, order: int, k: float) -> NGramLM:
        """The LM of the sets' targets, each pair's target counted once;
        built once per (order, k)."""
        key = (order, k)
        if key not in self._indomain:
            self._indomain[key] = self._lm(order, k, [1] * len(self.datasets))
        return self._indomain[key]

    def _lm(self, order: int, k: float, upsample: list[int]) -> NGramLM:
        if self._targets is None:
            self._targets = {}
            for d, ds in enumerate(self.datasets):
                for _, tgt in ds.pairs:
                    self._targets.setdefault(tgt, [0] * len(self.datasets))[d] += 1
            self._tokens = [sum(len(tgt) for _, tgt in ds.pairs) for ds in self.datasets]
        if sum(u * n for u, n in zip(upsample, self._tokens)) > MAX_COUNT:
            raise DataError(f"upsampling {upsample} gives an LM more than 2**53 tokens, "
                            f"where float64 counts stop being exact")
        counts = self._counts.get(order)
        if counts is None:
            counts = self._counts[order] = NGramCounts(
                list(self._targets), order, np.array(list(self._targets.values())))
        return counts.lm(k, upsample)


def run_trial(config: TrialConfig, mix: DataMix, dev: TaggedDataset, *,
              eval_ctx: EvalContext,
              patience: int | None = DEFAULT_PATIENCE,
              src_lang: str = "src", tgt_lang: str = "tgt",
              layouts: TrainingLayouts | None = None) -> TrialResult:
    """Train one model per the config, early-stopping on dev perplexity.

    After each EM iteration the dev perplexity of the composed model is
    recorded; training stops once it fails to improve for `patience`
    consecutive checks (None disables stopping). The returned model is the
    best-perplexity checkpoint; its dev BLEU comes from beam decoding.

    The trainer and the LM come from `layouts`, the `TrainingLayouts` of
    the mix's sets that `run_search` builds once per direction; a trial run
    alone builds its own. The checkpoints share the LM, so the dev targets'
    LM scores are computed once, not at every EM step.
    """
    try:
        if layouts is None:
            layouts = TrainingLayouts(list(mix.datasets))
        lm = layouts.lm(mix, config.lm_order, config.smoothing_k)
        settings = dict(beam=config.beam, window=config.window,
                        lm_weight=config.lm_weight, src_lang=src_lang,
                        tgt_lang=tgt_lang)
        trainer = layouts.trainer(mix)
        lm_score = logprobs(lm, [tgt for _, tgt in dev.pairs])
        trace: list[float] = []
        best_ppl = math.inf
        best_model: LexModel | None = None
        bad = 0
        for _ in range(config.em_iterations):
            trainer.step()
            model = trainer.snapshot(lm, **settings)
            ppl = dev_perplexity(model, dev, lm_score=lm_score)
            trace.append(ppl)
            if ppl < best_ppl:
                best_ppl = ppl
                best_model = model
                bad = 0
            else:
                bad += 1
                if patience is not None and bad >= patience:
                    break
        score = dev_bleu(best_model, dev, eval_ctx=eval_ctx)
        return TrialResult(config=config, model=best_model,
                           dev_ppl_trace=tuple(trace), dev_bleu=score)
    except DataError as e:
        raise TrialError(config, e) from e


def _trial_sets(bitext: TaggedDataset, st: TaggedDataset | None,
                bt: TaggedDataset | None) -> list[tuple[TaggedDataset, str]]:
    """The sets a trial trains on, bitext and the non-empty synthetic sets,
    each with the config field that upsamples it."""
    if bitext is None or not bitext.pairs:
        raise DataError("the training mix needs non-empty bitext")
    sets = [(bitext, "up_bitext")]
    if st is not None and st.pairs:
        sets.append((st, "up_fwd"))
    if bt is not None and bt.pairs:
        sets.append((bt, "up_bt"))
    return sets


def trial_mix(config: TrialConfig, bitext: TaggedDataset, st: TaggedDataset | None,
              bt: TaggedDataset | None) -> DataMix:
    """Training mix of one trial: bitext plus the non-empty synthetic sets,
    upsampled by the config's ratios."""
    return build_mix([replace(ds, upsample=getattr(config, field))
                      for ds, field in _trial_sets(bitext, st, bt)])


def run_search(space: SearchSpace, n: int, seed: int, bitext: TaggedDataset,
               st: TaggedDataset | None, bt: TaggedDataset | None, dev: TaggedDataset,
               *, topk: int, save: Callable[[int, LexModel], object] | None = None,
               finetune_steps: int = 0, eval_ctx: EvalContext,
               patience: int | None = DEFAULT_PATIENCE,
               src_lang: str = "src", tgt_lang: str = "tgt") -> list[TrialResult]:
    """Sample n configs and run every trial, in sampling order, holding the
    models of at most `topk` finished trials at a time.

    Each trial trains on its own `trial_mix` of bitext, st and bt, since the
    upsampling ratios are config knobs. Its model is then fine-tuned for
    `finetune_steps` steps on `bitext`, the in-domain data. When a trial
    ends, `save(index, model)` writes its final model; the model stays alive
    only while the trial ranks in the first `topk` of `rank_trials` so far.
    So the results hold the models `select_top_k(results, topk)` takes, and
    the memory a search holds does not grow with n. It grows with
    `finetune_steps` instead: `finetune` holds every checkpoint's table
    until its one stacked dev decode has scored them.

    What the trials share is built once, before the first: the
    `TrainingLayouts` of the trial sets (EM's pair layout and the n-gram
    counts per LM order, with one count array per set) and of the bitext
    (the fine-tunes' pair layout and their in-domain LM per (LM order,
    smoothing k)). The search holds them until it returns; they grow with
    the training sets, not with n.
    """
    trial_layouts = TrainingLayouts([ds for ds, _ in _trial_sets(bitext, st, bt)])
    tuning_layouts = TrainingLayouts([bitext])
    results: list[TrialResult] = []
    held: list[int] = []  # the trials whose models are alive, best first
    for i, config in enumerate(sample_configs(space, n, seed)):
        result = run_trial(config, trial_mix(config, bitext, st, bt), dev,
                           eval_ctx=eval_ctx, patience=patience,
                           src_lang=src_lang, tgt_lang=tgt_lang, layouts=trial_layouts)
        result.model, result.dev_bleu = finetune(
            result.model, bitext, dev, finetune_steps, base_bleu=result.dev_bleu,
            eval_ctx=eval_ctx, layouts=tuning_layouts)
        if save is not None:
            save(i, result.model)
        results.append(result)
        held = sorted(held + [i], key=lambda j: (-results[j].dev_bleu, j))
        for j in held[topk:]:
            results[j].model_hash = model_hash(results[j].model)
            results[j].model = None
        del held[topk:]
    return results


def write_trial_log(results: list[TrialResult], path: str) -> None:
    """Write a run log of one JSON record per trial, replacing any earlier one."""
    write_text_atomic(path, "".join(json.dumps(r.record(), sort_keys=True) + "\n"
                                    for r in results))


def rank_trials(results: list[TrialResult]) -> list[int]:
    """Trial indices by dev BLEU, best first; ties keep the lower trial index."""
    return sorted(range(len(results)), key=lambda i: (-results[i].dev_bleu, i))


def select_top_k(results: list[TrialResult], k: int) -> Ensemble:
    """Ensemble of the first k models of `rank_trials`; `run_search`'s
    results hold them for any k up to its `topk`."""
    if k < 1:
        raise DataError("k must be at least 1")
    if k > len(results):
        raise DataError(f"cannot select top {k} from {len(results)} trials")
    return Ensemble([results[i].model for i in rank_trials(results)[:k]])


def finetune(model: LexModel, in_domain: TaggedDataset, dev: TaggedDataset,
             max_steps: int, *, base_bleu: float, lm_alpha: float = FINETUNE_ALPHA,
             eval_ctx: EvalContext,
             layouts: TrainingLayouts | None = None) -> tuple[LexModel, float]:
    """Continue EM on in-domain data; return the best dev-BLEU checkpoint and its BLEU.

    Step 0 is the input model, whose dev BLEU the caller passes as
    `base_bleu` (`run_trial` has already computed it), so fine-tuning can
    never reduce tuning-set BLEU. The LM is interpolated toward in-domain
    counts with weight `lm_alpha`. All `max_steps` EM steps run first, and
    their checkpoints, which share the fine-tuned LM and the decoder
    settings, are scored on dev in one stacked decode (`tm.translate_stack`),
    so the checkpoints' tables are held at once. A checkpoint wins when it
    scores above `base_bleu` and every earlier checkpoint: ties keep the
    earliest.

    The pair layout and the in-domain LM come from `layouts`, the
    `TrainingLayouts` of `[in_domain]`, which `run_search` builds once per
    direction and shares across its trials; a fine-tune run alone builds
    its own. So the fine-tune LMs of a search's trials with one (LM order,
    smoothing k) share their in-domain part.
    """
    if not in_domain.pairs:
        raise DataError("fine-tuning needs non-empty in-domain data")
    if max_steps <= 0:
        return model, base_bleu
    if layouts is None:
        layouts = TrainingLayouts([in_domain])
    base = base_ngram(model.lm)
    ft_lm = InterpolatedLM(base, layouts.indomain_lm(base.order, base.k), lm_alpha)
    settings = dict(beam=model.beam, window=model.window, lm_weight=model.lm_weight,
                    src_lang=model.src_lang, tgt_lang=model.tgt_lang,
                    unk_floor=model.unk_floor)
    trainer = layouts.trainer(build_mix([in_domain]), warm_start=model)
    checkpoints = []
    for _ in range(max_steps):
        trainer.step()
        checkpoints.append(trainer.snapshot(ft_lm, **settings))
    best_model, best_bleu = model, base_bleu
    for candidate, score in zip(checkpoints, _dev_bleus(checkpoints, dev, eval_ctx)):
        if score > best_bleu:
            best_model, best_bleu = candidate, score
    return best_model, best_bleu
