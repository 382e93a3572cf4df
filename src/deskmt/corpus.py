"""Sentence corpora: loading, domain tagging, upsampled mixing, direction swaps.

A Sentence is a tuple of unicode tokens. Datasets carry a domain tag (a single
reserved token like ``<d:in>``) and an integer upsampling weight; a DataMix
flattens several tagged datasets into one training multiset.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from .util import DataError, read_text, write_text_atomic

Sentence = tuple[str, ...]
Pair = tuple[Sentence, Sentence]

SIDE_PARALLEL = "parallel"
SIDE_MONO_SOURCE = "mono-source"
SIDE_MONO_TARGET = "mono-target"
SIDES = (SIDE_PARALLEL, SIDE_MONO_SOURCE, SIDE_MONO_TARGET)

# The four domain tokens shipped in default configs: in-domain parallel,
# out-of-domain parallel, self-trained and back-translated data.
TAG_IN_DOMAIN = "<d:in>"
TAG_OUT_DOMAIN = "<d:out>"
TAG_SELF_TRAINED = "<st>"
TAG_BACK_TRANSLATED = "<bt>"
TAG_MONO = "<mono>"  # placeholder tag for raw monolingual inputs
DEFAULT_TAGS = (TAG_IN_DOMAIN, TAG_OUT_DOMAIN, TAG_SELF_TRAINED, TAG_BACK_TRANSLATED)

UNK_TOKEN = "<unk>"


def is_tag(token: str) -> bool:
    """A domain tag is a token of the form <...>; the unknown token is not one."""
    return len(token) > 2 and token.startswith("<") and token.endswith(">") \
        and token != UNK_TOKEN


def strip_tag(sentence: Sentence) -> Sentence:
    """Drop the leading domain tag, if any."""
    if sentence and is_tag(sentence[0]):
        return sentence[1:]
    return sentence


def _check_tag(tag: str) -> None:
    if not is_tag(tag) or any(ch.isspace() for ch in tag):
        raise DataError(f"tag must be a single token of the form <...>, got {tag!r}")


@dataclass(frozen=True)
class TaggedDataset:
    """A named set of sentence pairs (or monolingual sentences) with a domain tag.

    ``pairs`` is used for the parallel side, ``sentences`` for either mono
    side. ``dropped`` counts lines discarded at load/generation time.
    """

    name: str
    side: str
    tag: str
    pairs: tuple[Pair, ...] = ()
    sentences: tuple[Sentence, ...] = ()
    upsample: int = 1
    dropped: int = 0

    def __post_init__(self) -> None:
        if self.side not in SIDES:
            raise DataError(f"unknown side {self.side!r}")
        _check_tag(self.tag)
        if self.upsample < 1:
            raise DataError("upsample must be a positive integer")
        if self.side == SIDE_PARALLEL:
            if self.sentences:
                raise DataError("parallel dataset must not carry mono sentences")
            for src, tgt in self.pairs:
                if not src or not tgt:
                    raise DataError(f"{self.name}: parallel entry with an empty side")
        elif self.pairs:
            raise DataError("monolingual dataset must not carry pairs")

    def __len__(self) -> int:
        return len(self.pairs) if self.side == SIDE_PARALLEL else len(self.sentences)


def load_corpus(path: str, side: str, *, name: str | None = None,
                tag: str = TAG_IN_DOMAIN, upsample: int = 1) -> TaggedDataset:
    """Load a UTF-8 corpus file: one sentence per line, parallel lines tab-separated.

    Tokenization is whitespace splitting. Blank lines and parallel lines with
    an empty side are dropped and counted; a parallel line without exactly one
    tab is an error.
    """
    if name is None:
        name = os.path.splitext(os.path.basename(path))[0]
    lines = read_text(path, "corpus file").split("\n")
    if lines and lines[-1] == "":
        lines.pop()

    dropped = 0
    if side == SIDE_PARALLEL:
        pairs = []
        for lineno, line in enumerate(lines, 1):
            if not line.strip():
                dropped += 1
                continue
            if line.count("\t") != 1:
                raise DataError(f"{path}:{lineno}: expected exactly one tab separator")
            src_text, tgt_text = line.split("\t")
            src, tgt = tuple(src_text.split()), tuple(tgt_text.split())
            if not src or not tgt:
                dropped += 1
                continue
            pairs.append((src, tgt))
        return TaggedDataset(name, side, tag, pairs=tuple(pairs),
                             upsample=upsample, dropped=dropped)

    sentences = []
    for line in lines:
        tokens = tuple(line.split())
        if not tokens:
            dropped += 1
            continue
        sentences.append(tokens)
    return TaggedDataset(name, side, tag, sentences=tuple(sentences),
                         upsample=upsample, dropped=dropped)


def save_corpus(ds: TaggedDataset, path: str) -> str:
    """Write a dataset back to the line-oriented text formats used by load_corpus.

    The file is replaced atomically; returns the text written.
    """
    if ds.side == SIDE_PARALLEL:
        lines = [" ".join(src) + "\t" + " ".join(tgt) + "\n" for src, tgt in ds.pairs]
    else:
        lines = [" ".join(sent) + "\n" for sent in ds.sentences]
    text = "".join(lines)
    write_text_atomic(path, text)
    return text


def apply_tag(ds: TaggedDataset) -> TaggedDataset:
    """Prepend the dataset's tag to every source sentence; idempotent.

    Tags apply to sources only: parallel source sides and mono-source
    sentences gain the tag, targets and mono-target sentences are unchanged.
    """
    def tagged(sentence: Sentence) -> Sentence:
        if sentence and sentence[0] == ds.tag:
            return sentence
        return (ds.tag,) + sentence

    if ds.side == SIDE_PARALLEL:
        return replace(ds, pairs=tuple((tagged(src), tgt) for src, tgt in ds.pairs))
    if ds.side == SIDE_MONO_SOURCE:
        return replace(ds, sentences=tuple(tagged(s) for s in ds.sentences))
    return ds


@dataclass(frozen=True)
class DataMix:
    """Several tagged parallel datasets flattened into one training multiset."""

    datasets: tuple[TaggedDataset, ...]
    examples: tuple[Pair, ...] = field(default=(), compare=False)

    def __len__(self) -> int:
        return len(self.examples)

    def weighted_pairs(self) -> dict[Pair, int]:
        """Multiset view as (untagged source, target) -> multiplicity.

        This is the view EM trains on: domain tags are stripped, and keys
        keep the order in which they first appear in `examples`. `examples`
        holds each dataset's pairs `upsample` times in dataset order, so one
        walk over the datasets, adding `upsample` per pair, gives the same
        dict without visiting the replicas.
        """
        weights: dict[Pair, int] = {}
        for ds in self.datasets:
            for src, tgt in ds.pairs:
                key = (strip_tag(src), tgt)
                weights[key] = weights.get(key, 0) + ds.upsample
        return weights

    def target_sentences(self) -> list[tuple[Sentence, int]]:
        """Target-side sentences with multiplicities (for LM training)."""
        out: dict[Sentence, int] = {}
        for ds in self.datasets:
            for _, tgt in ds.pairs:
                out[tgt] = out.get(tgt, 0) + ds.upsample
        return sorted(out.items())


def build_mix(datasets: list[TaggedDataset]) -> DataMix:
    """Flatten tagged parallel datasets, replicating each `upsample` times.

    Order is deterministic: dataset order, then line order, then replica
    index. Tag prepending is applied (idempotently) to every source side.
    """
    tagged = [apply_tag(ds) for ds in datasets]
    if not any(ds.side == SIDE_PARALLEL and ds.pairs for ds in tagged):
        raise DataError("a training mix needs at least one non-empty parallel dataset")
    for ds in tagged:
        if ds.side != SIDE_PARALLEL:
            raise DataError(f"{ds.name}: only parallel datasets can enter a training mix")
    examples = []
    for ds in tagged:
        for _ in range(ds.upsample):
            examples.extend(ds.pairs)
    return DataMix(datasets=tuple(tagged), examples=tuple(examples))


def swap_dataset(ds: TaggedDataset, *, tag: str | None = None,
                 name: str | None = None) -> TaggedDataset:
    """Swap source/target on every pair, dropping the old source's tag.

    The result keeps the dataset's tag and name unless new ones are given.
    """
    return replace(ds, pairs=tuple((tgt, strip_tag(src)) for src, tgt in ds.pairs),
                   tag=ds.tag if tag is None else tag,
                   name=ds.name if name is None else name)


def swap_direction(mix: DataMix) -> DataMix:
    """Swap source/target on every pair, re-applying tags on the new source side."""
    return build_mix([swap_dataset(ds) for ds in mix.datasets])

