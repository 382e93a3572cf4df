"""Sentence corpora: loading, upsampled mixing, direction swaps.

A Sentence is a tuple of unicode tokens. Datasets carry a domain tag and an
integer upsampling weight; a DataMix weights several parallel datasets into
one training multiset. A tag (a string like ``<d:in>``) is a label recorded
in manifests and provenance, never a token: no sentence is ever given one,
and a leading ``<...>`` token read from a file is an ordinary word.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from .util import DataError, read_text, write_text_atomic

Sentence = tuple[str, ...]
Pair = tuple[Sentence, Sentence]

SIDE_PARALLEL = "parallel"
SIDE_MONO_SOURCE = "mono-source"
SIDE_MONO_TARGET = "mono-target"
SIDES = (SIDE_PARALLEL, SIDE_MONO_SOURCE, SIDE_MONO_TARGET)

# The four domain labels shipped in default configs: in-domain parallel,
# out-of-domain parallel, self-trained and back-translated data.
TAG_IN_DOMAIN = "<d:in>"
TAG_OUT_DOMAIN = "<d:out>"
TAG_SELF_TRAINED = "<st>"
TAG_BACK_TRANSLATED = "<bt>"
TAG_MONO = "<mono>"  # placeholder tag for raw monolingual inputs
DEFAULT_TAGS = (TAG_IN_DOMAIN, TAG_OUT_DOMAIN, TAG_SELF_TRAINED, TAG_BACK_TRANSLATED)

UNK_TOKEN = "<unk>"


def is_tag(token: str) -> bool:
    """A domain tag has the form <...>; the unknown token is not one."""
    return len(token) > 2 and token.startswith("<") and token.endswith(">") \
        and token != UNK_TOKEN


# No sentence carries a tag, so nothing in deskmt calls strip_tag. It stays
# only because bench/workloads.py imports it, and goes with the next change
# to bench/.
def strip_tag(sentence: Sentence) -> Sentence:
    """Drop the leading <...> token, if any."""
    if sentence and is_tag(sentence[0]):
        return sentence[1:]
    return sentence


def _check_tag(tag: str) -> None:
    if not is_tag(tag) or any(ch.isspace() for ch in tag):
        raise DataError(f"tag must be a single token of the form <...>, got {tag!r}")


@dataclass(frozen=True)
class TaggedDataset:
    """A named set of sentence pairs (or monolingual sentences) with a domain tag.

    The tag is a label recorded in manifests, never a token of a sentence.

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


@dataclass(frozen=True)
class DataMix:
    """Several parallel datasets, each weighted by its upsampling factor."""

    datasets: tuple[TaggedDataset, ...]

    def weighted_pairs(self) -> dict[Pair, int]:
        """Multiset view as (source, target) -> multiplicity, the view EM
        trains on. A pair counts `upsample` times per occurrence in a
        dataset; keys keep the order of first appearance, dataset by dataset.
        """
        weights: dict[Pair, int] = {}
        for ds in self.datasets:
            for pair in ds.pairs:
                weights[pair] = weights.get(pair, 0) + ds.upsample
        return weights

    def target_sentences(self) -> list[tuple[Sentence, int]]:
        """Target-side sentences with multiplicities (for LM training)."""
        out: dict[Sentence, int] = {}
        for ds in self.datasets:
            for _, tgt in ds.pairs:
                out[tgt] = out.get(tgt, 0) + ds.upsample
        return sorted(out.items())


def build_mix(datasets: list[TaggedDataset]) -> DataMix:
    """A training mix of parallel datasets, in the given order.

    Sentences enter the mix as they are; each dataset's tag stays a label.
    """
    if not any(ds.side == SIDE_PARALLEL and ds.pairs for ds in datasets):
        raise DataError("a training mix needs at least one non-empty parallel dataset")
    for ds in datasets:
        if ds.side != SIDE_PARALLEL:
            raise DataError(f"{ds.name}: only parallel datasets can enter a training mix")
    return DataMix(datasets=tuple(datasets))


def swap_dataset(ds: TaggedDataset, *, name: str | None = None) -> TaggedDataset:
    """Swap source/target on every pair; the tag is kept, and so is the name
    unless a new one is given."""
    return replace(ds, pairs=tuple((tgt, src) for src, tgt in ds.pairs),
                   name=ds.name if name is None else name)


def swap_direction(mix: DataMix) -> DataMix:
    """Swap source/target on every pair of every dataset of the mix."""
    return build_mix([swap_dataset(ds) for ds in mix.datasets])
