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

from .corpus import DataMix, TaggedDataset, build_mix
from .ensemble import Ensemble
from .lm import finetune_lm, logprobs, train_lm
from .metrics import EvalContext, bleu
from .tm import EMTrainer, LexModel, model_hash, pair_channel_scores, translate_corpus
from .util import NUMBER, DataError, doc_field, read_json, write_text_atomic

DEFAULT_TRIALS = 30
DEFAULT_PATIENCE = 2


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
    dims: dict

    def __post_init__(self) -> None:
        unknown = set(self.dims) - set(DEFAULT_SEARCH_SPACE_DIMS)
        if unknown:
            raise DataError(f"unknown search dimensions: {sorted(unknown)}")
        for name, values in self.dims.items():
            if not values:
                raise DataError(f"search dimension {name!r} is empty")
            if not all(isinstance(v, NUMBER) and not isinstance(v, bool) for v in values):
                raise DataError(f"search dimension {name!r} must hold numbers")

    def save(self, path: str) -> None:
        write_text_atomic(path, json.dumps({"version": 1, "dims": self.dims},
                                           indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str) -> "SearchSpace":
        dims = doc_field(read_json(path, "search space"), "dims", dict, path)
        for name in dims:
            if not doc_field(dims, name, list, f"{path}: dims"):
                raise DataError(f"{path}: dims: key {name!r} must be a non-empty list")
        return cls(dims=dims)


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


def dev_perplexity(model: LexModel, dev: TaggedDataset) -> float:
    """Early-stopping signal: perplexity of the composed model score on dev.

    The composed score of a pair is the length-agnostic lexical marginal of
    the target given the source plus lm_weight times the LM score; tokens are
    counted including end-of-sentence. The marginal ln P(tgt | src) is the
    channel score of `tgt` given the hypothesis `src`.
    """
    sources = [src for src, _ in dev.pairs]
    targets = [tgt for _, tgt in dev.pairs]
    each = np.arange(len(dev.pairs))
    channel = pair_channel_scores(model, targets, sources, each, each)
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
    block = translate_corpus(model, [src for src, _ in dev.pairs], 1)
    return bleu([eval_ctx.detok_tokens(hyp) for hyp in block.top_hyps()],
                eval_ctx.references(dev))


def run_trial(config: TrialConfig, mix: DataMix, dev: TaggedDataset, *,
              eval_ctx: EvalContext,
              patience: int | None = DEFAULT_PATIENCE,
              src_lang: str = "src", tgt_lang: str = "tgt") -> TrialResult:
    """Train one model per the config, early-stopping on dev perplexity.

    After each EM iteration the dev perplexity of the composed model is
    recorded; training stops once it fails to improve for `patience`
    consecutive checks (None disables stopping). The returned model is the
    best-perplexity checkpoint; its dev BLEU comes from beam decoding.
    """
    try:
        sents, weights = zip(*mix.target_sentences())
        lm = train_lm(list(sents), config.lm_order, config.smoothing_k,
                      weights=list(weights))
        settings = dict(beam=config.beam, window=config.window,
                        lm_weight=config.lm_weight, src_lang=src_lang,
                        tgt_lang=tgt_lang)
        trainer = EMTrainer(mix)
        trace: list[float] = []
        best_ppl = math.inf
        best_model: LexModel | None = None
        bad = 0
        for _ in range(config.em_iterations):
            trainer.step()
            model = trainer.snapshot(lm, **settings)
            ppl = dev_perplexity(model, dev)
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


def trial_mix(config: TrialConfig, bitext: TaggedDataset, st: TaggedDataset | None,
              bt: TaggedDataset | None) -> DataMix:
    """Training mix of one trial: bitext plus the non-empty synthetic sets,
    upsampled by the config's ratios."""
    if bitext is None or not bitext.pairs:
        raise DataError("the training mix needs non-empty bitext")
    datasets = [replace(bitext, upsample=config.up_bitext)]
    if st is not None and st.pairs:
        datasets.append(replace(st, upsample=config.up_fwd))
    if bt is not None and bt.pairs:
        datasets.append(replace(bt, upsample=config.up_bt))
    return build_mix(datasets)


def run_search(space: SearchSpace, n: int, seed: int, bitext: TaggedDataset,
               st: TaggedDataset | None, bt: TaggedDataset | None, dev: TaggedDataset,
               *, topk: int, save: Callable[[int, LexModel], object] | None = None,
               finetune_steps: int | None = None, lm_alpha: float = 0.5,
               eval_ctx: EvalContext,
               patience: int | None = DEFAULT_PATIENCE,
               src_lang: str = "src", tgt_lang: str = "tgt") -> list[TrialResult]:
    """Sample n configs and run every trial, in sampling order, holding the
    models of at most `topk` finished trials at a time.

    Each trial trains on its own `trial_mix` of bitext, st and bt, since the
    upsampling ratios are config knobs. With `finetune_steps` (not None) its
    model is then fine-tuned on `bitext`, the in-domain data. When a trial
    ends, `save(index, model)` writes its final model; the model stays alive
    only while the trial ranks in the first `topk` of `rank_trials` so far.
    So the results hold the models `select_top_k(results, topk)` takes, and
    the memory a search holds does not grow with n.
    """
    results: list[TrialResult] = []
    held: list[int] = []  # the trials whose models are alive, best first
    for i, config in enumerate(sample_configs(space, n, seed)):
        result = run_trial(config, trial_mix(config, bitext, st, bt), dev,
                           eval_ctx=eval_ctx, patience=patience,
                           src_lang=src_lang, tgt_lang=tgt_lang)
        if finetune_steps is not None:
            result.model, result.dev_bleu = finetune(
                result.model, bitext, dev, finetune_steps, base_bleu=result.dev_bleu,
                lm_alpha=lm_alpha, eval_ctx=eval_ctx)
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
             max_steps: int, *, base_bleu: float, lm_alpha: float = 0.5,
             eval_ctx: EvalContext) -> tuple[LexModel, float]:
    """Continue EM on in-domain data; return the best dev-BLEU checkpoint and its BLEU.

    Step 0 is the input model, whose dev BLEU the caller passes as
    `base_bleu` (`run_trial` has already computed it), so fine-tuning can
    never reduce tuning-set BLEU. The LM is interpolated toward in-domain
    counts with weight `lm_alpha`; ties between checkpoints keep the
    earliest.
    """
    if not in_domain.pairs:
        raise DataError("fine-tuning needs non-empty in-domain data")
    if max_steps <= 0:
        return model, base_bleu
    targets = [tgt for _, tgt in in_domain.pairs]
    ft_lm = finetune_lm(model.lm, targets, lm_alpha)
    settings = dict(beam=model.beam, window=model.window, lm_weight=model.lm_weight,
                    src_lang=model.src_lang, tgt_lang=model.tgt_lang,
                    unk_floor=model.unk_floor)
    trainer = EMTrainer(build_mix([in_domain]), warm_start=model)
    best_model, best_bleu = model, base_bleu
    for _ in range(max_steps):
        trainer.step()
        candidate = trainer.snapshot(ft_lm, **settings)
        score = dev_bleu(candidate, dev, eval_ctx=eval_ctx)
        if score > best_bleu:
            best_model, best_bleu = candidate, score
    return best_model, best_bleu
