"""Synthetic data generation: back-translation and self-training.

Back-translation pairs machine-translated sources with real monolingual
targets; self-training pairs real monolingual sources with machine-translated
targets. The machine side is the top-1 of each n-best list that
`tm.translate_corpus` returns, reranked when a `RerankContext` is given.
Generated pairs whose output side is empty or entirely unknown tokens are
dropped and counted.

`training_roles` is the one statement of which synthetic set plays which
role in each translation direction of `DIRECTIONS`.
"""

from __future__ import annotations

from .corpus import (
    SIDE_MONO_SOURCE,
    SIDE_MONO_TARGET,
    SIDE_PARALLEL,
    TAG_BACK_TRANSLATED,
    TAG_SELF_TRAINED,
    UNK_TOKEN,
    TaggedDataset,
    swap_dataset,
)
from .rerank import RerankContext
from .tm import DEFAULT_NBEST, translate_corpus
from .util import DataError


def _generate(model, mono: TaggedDataset, rerank_ctx: RerankContext | None,
              keep_side: str, tag: str, name: str) -> TaggedDataset:
    block = translate_corpus(model, list(mono.sentences), DEFAULT_NBEST,
                             rerank_ctx=rerank_ctx)
    pairs = []
    dropped = 0
    for sent, hyp in zip(mono.sentences, block.top_hyps()):
        if not hyp or all(tok == UNK_TOKEN for tok in hyp):
            dropped += 1
            continue
        pairs.append((hyp, sent) if keep_side == "target" else (sent, hyp))
    return TaggedDataset(name=name, side=SIDE_PARALLEL, tag=tag,
                         pairs=tuple(pairs), upsample=1, dropped=dropped)


def back_translate(g, mono_target: TaggedDataset,
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
    return _generate(g, mono_target, rerank_ctx, keep_side="target",
                     tag=TAG_BACK_TRANSLATED, name=f"bt-{mono_target.name}")


def self_train(f, mono_source: TaggedDataset,
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
    return _generate(f, mono_source, rerank_ctx, keep_side="source",
                     tag=TAG_SELF_TRAINED, name=f"st-{mono_source.name}")


# (source, target) languages of each translation direction, forward first.
DIRECTIONS = {"fwd": ("src", "tgt"), "bwd": ("tgt", "src")}


def orient(direction: str, ds: TaggedDataset | None) -> TaggedDataset | None:
    """A source-target parallel set (or None) as `direction` trains on it."""
    return ds if direction == "fwd" or ds is None else swap_dataset(ds)


def training_roles(direction: str, by_fwd: TaggedDataset | None,
                   by_bwd: TaggedDataset | None):
    """`direction`'s (self-trained, back-translated) sets, in its orientation.

    A round is symmetric: the forward system translates the source-side pool
    (`by_fwd`, real sources) and the backward system the target-side pool
    (`by_bwd`, real targets), both held source-target. A direction's own
    translations are its self-training data and the other direction's are
    its back-translated data (He et al. 2019, arXiv:1909.13788), so fwd gets
    (by_fwd, by_bwd) and bwd gets (swapped by_bwd, swapped by_fwd).
    """
    own, other = (by_fwd, by_bwd) if direction == "fwd" else (by_bwd, by_fwd)
    return orient(direction, own), orient(direction, other)
