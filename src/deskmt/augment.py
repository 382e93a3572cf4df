"""Synthetic data generation: back-translation and self-training.

Back-translation pairs machine-translated sources with real monolingual
targets; self-training pairs real monolingual sources with machine-translated
targets. Either decodes with plain beam search or with noisy-channel
reranking. Generated pairs whose output side is empty or entirely unknown
tokens are dropped and counted.
"""

from __future__ import annotations

from .corpus import (
    SIDE_MONO_SOURCE,
    SIDE_MONO_TARGET,
    SIDE_PARALLEL,
    TAG_BACK_TRANSLATED,
    TAG_SELF_TRAINED,
    UNK_TOKEN,
    DataMix,
    Sentence,
    TaggedDataset,
    build_mix,
)
from .rerank import RerankContext, rerank
from .tm import translate_nbest
from .util import DataError

DECODE_BEAM = "beam"
DECODE_RERANK = "rerank"


def decode_nbest_lists(model, sources: list[Sentence], *, nbest: int,
                       eval_ctx=None, rerank_ctx: RerankContext | None = None):
    """Decode each source to an n-best list, optionally rerank-scoring it."""
    tagged = list(sources)
    if eval_ctx is not None and eval_ctx.tag is not None:
        tagged = [s if s and s[0] == eval_ctx.tag else (eval_ctx.tag,) + tuple(s)
                  for s in tagged]
    out = []
    for source in tagged:
        nb = translate_nbest(model, source, nbest)
        if rerank_ctx is not None:
            nb = rerank(nb, rerank_ctx.channel_model, rerank_ctx.lm, rerank_ctx.weights)
        out.append(nb)
    return out


def translate_corpus(model, sources: list[Sentence], *, decode: str = DECODE_BEAM,
                     rerank_ctx: RerankContext | None = None, eval_ctx=None,
                     nbest: int = 50) -> list[Sentence]:
    """Top-1 translations for a list of sources, beam or reranked."""
    if decode == DECODE_RERANK:
        if rerank_ctx is None:
            raise DataError("rerank decoding needs a RerankContext")
        lists = decode_nbest_lists(model, sources, nbest=rerank_ctx.nbest,
                                   eval_ctx=eval_ctx, rerank_ctx=rerank_ctx)
    elif decode == DECODE_BEAM:
        lists = decode_nbest_lists(model, sources, nbest=nbest, eval_ctx=eval_ctx)
    else:
        raise DataError(f"unknown decode mode {decode!r}")
    return [nb.top().hyp for nb in lists]


def _generate(model, mono: TaggedDataset, decode: str,
              rerank_ctx: RerankContext | None, keep_side: str, tag: str,
              name: str) -> TaggedDataset:
    hyps = translate_corpus(model, list(mono.sentences), decode=decode,
                            rerank_ctx=rerank_ctx)
    pairs = []
    dropped = 0
    for sent, hyp in zip(mono.sentences, hyps):
        if not hyp or all(tok == UNK_TOKEN for tok in hyp):
            dropped += 1
            continue
        pairs.append((hyp, sent) if keep_side == "target" else (sent, hyp))
    return TaggedDataset(name=name, side=SIDE_PARALLEL, tag=tag,
                         pairs=tuple(pairs), upsample=1, dropped=dropped)


def back_translate(g, mono_target: TaggedDataset, decode: str = DECODE_BEAM,
                   rerank_ctx: RerankContext | None = None, *,
                   target_lang: str = "tgt") -> TaggedDataset:
    """Pair each monolingual target sentence with its backward translation.

    `g` must translate target -> source; real targets are preserved verbatim
    and the dataset carries the back-translation tag.
    """
    if g.src_lang != target_lang:
        raise DataError(
            f"back-translation needs a {target_lang}->... model, got {g.direction}")
    if mono_target.side != SIDE_MONO_TARGET:
        raise DataError(f"{mono_target.name}: expected a mono-target dataset")
    if decode == DECODE_RERANK and rerank_ctx is None:
        raise DataError("rerank decoding needs a RerankContext")
    return _generate(g, mono_target, decode, rerank_ctx, keep_side="target",
                     tag=TAG_BACK_TRANSLATED, name=f"bt-{mono_target.name}")


def self_train(f, mono_source: TaggedDataset, decode: str = DECODE_BEAM,
               rerank_ctx: RerankContext | None = None, *,
               source_lang: str = "src") -> TaggedDataset:
    """Pair each monolingual source sentence with its forward translation.

    `f` must translate source -> target; real sources are preserved verbatim
    and the dataset carries the self-training tag.
    """
    if f.src_lang != source_lang:
        raise DataError(
            f"self-training needs a {source_lang}->... model, got {f.direction}")
    if mono_source.side != SIDE_MONO_SOURCE:
        raise DataError(f"{mono_source.name}: expected a mono-source dataset")
    if decode == DECODE_RERANK and rerank_ctx is None:
        raise DataError("rerank decoding needs a RerankContext")
    return _generate(f, mono_source, decode, rerank_ctx, keep_side="source",
                     tag=TAG_SELF_TRAINED, name=f"st-{mono_source.name}")


def assemble_training_mix(bitext: TaggedDataset, st: TaggedDataset | None = None,
                          bt: TaggedDataset | None = None, *,
                          upsample_bitext: int = 1, upsample_st: int = 1,
                          upsample_bt: int = 1) -> DataMix:
    """Mix bitext with optional self-trained / back-translated datasets.

    Supports the three augmentation regimes: BT only, ST only, and BT + ST.
    """
    if bitext is None or not bitext.pairs:
        raise DataError("the training mix needs non-empty bitext")
    from dataclasses import replace
    datasets = [replace(bitext, upsample=upsample_bitext)]
    if st is not None:
        datasets.append(replace(st, upsample=upsample_st))
    if bt is not None:
        datasets.append(replace(bt, upsample=upsample_bt))
    return build_mix(datasets)
