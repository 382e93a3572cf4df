"""Synthetic language pairs with exact ground truth and controllable domain
mismatch.

Source sentences are drawn from topic-conditioned bigram chains over a
two-letter symbol vocabulary. The target language applies a bijective symbol
lexicon followed by local transpositions: whenever a swap-class symbol is the
left element of an untouched pair, the pair is transposed (left to right,
non-overlapping). Generated sentences never place swap-class symbols
adjacently or sentence-finally, which makes the mapping invertible.

The in-domain topic feeds the parallel/dev/test data and the source-side
monolingual pool; the out-of-domain topic feeds the target-side monolingual
pool, reproducing the asymmetric domain-mismatch regime. Parallel training
targets are corrupted at a configurable noise rate; everything else is clean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import (
    SIDE_MONO_SOURCE,
    SIDE_MONO_TARGET,
    SIDE_PARALLEL,
    TAG_IN_DOMAIN,
    TAG_MONO,
    Sentence,
    TaggedDataset,
)
from .util import DataError, derive_seed

_ALPHABET = "abcdefghijklmnop"
DEFAULT_VOCAB = 200
DEFAULT_NOISE = 0.06
MIN_TOPIC_TV = 0.2
MAX_SPEC_REDRAWS = 100
SWAP_FRACTION = 0.12  # share of source symbols in the swap class
ZIPF_S = 1.1          # exponent of the topic profiles' Zipf ranks
BIGRAM_BOOST = 8.0    # ring affinity added to a symbol's next two transitions

DEFAULT_SIZES = {"parallel": 2000, "mono_src": 50000, "mono_tgt": 50000,
                 "dev": 500, "test": 500}


def _symbol(i: int) -> str:
    return _ALPHABET[i // len(_ALPHABET)] + _ALPHABET[i % len(_ALPHABET)]


@dataclass(frozen=True)
class SynthSpec:
    vocab_size: int
    lexicon: dict          # source symbol -> target symbol, bijective
    swap_class: frozenset  # source symbols triggering adjacent transposition
    in_weights: tuple      # in-domain unigram weights over source symbols
    out_weights: tuple     # out-of-domain unigram weights
    noise_rate: float
    seed: int
    min_len: int = 3
    max_len: int = 9

    def __post_init__(self) -> None:
        if len(set(self.lexicon.values())) != len(self.lexicon):
            raise DataError("lexicon must be a bijection")
        if not 0.0 <= self.noise_rate < 1.0:
            raise DataError("noise rate must lie in [0, 1)")
        if self.min_len < 1 or self.max_len < self.min_len:
            raise DataError("invalid sentence length bounds")
        if topic_tv_distance(self.in_weights, self.out_weights) <= MIN_TOPIC_TV:
            raise DataError("topic distributions are not separated enough")

    @property
    def source_vocab(self) -> tuple[str, ...]:
        return tuple(sorted(self.lexicon))

    @property
    def target_vocab(self) -> tuple[str, ...]:
        return tuple(sorted(self.lexicon.values()))


def topic_tv_distance(p, q) -> float:
    """Total-variation distance between two weight vectors (normalized first)."""
    a = np.asarray(p, dtype=float)
    b = np.asarray(q, dtype=float)
    a = a / a.sum()
    b = b / b.sum()
    return 0.5 * float(np.abs(a - b).sum())


def make_spec(vocab_size: int = DEFAULT_VOCAB, *, noise_rate: float = DEFAULT_NOISE,
              seed: int = 0, mismatch: float = 0.5, min_len: int = 3,
              max_len: int = 9) -> SynthSpec:
    """Construct a spec: random bijective lexicon, random swap class, and two
    Zipf topic profiles over shuffled symbol ranks.

    `mismatch` in (0, 1] blends the out-of-domain profile between the
    in-domain one and an independently permuted one, controlling how severe
    the domain shift is. A permutation that leaves the profiles within
    MIN_TOPIC_TV of each other is redrawn, at most MAX_SPEC_REDRAWS times,
    before DataError is raised.
    """
    if vocab_size < 4 or vocab_size > len(_ALPHABET) ** 2:
        raise DataError(f"vocab_size must lie in [4, {len(_ALPHABET) ** 2}]")
    if not 0.0 < mismatch <= 1.0:
        raise DataError("mismatch must lie in (0, 1]")
    rng = np.random.default_rng(derive_seed(seed, "spec"))
    source = [_symbol(i) for i in range(vocab_size)]
    targets = [s.upper() for s in source]
    shuffled = list(targets)
    rng.shuffle(shuffled)
    lexicon = dict(zip(source, shuffled))

    n_swap = max(1, int(vocab_size * SWAP_FRACTION))
    swap_class = frozenset(str(s) for s in rng.choice(source, size=n_swap, replace=False))

    ranks = 1.0 / np.arange(1, vocab_size + 1) ** ZIPF_S
    ranks /= ranks.sum()
    in_weights = np.empty(vocab_size)
    permuted = np.empty(vocab_size)
    in_weights[rng.permutation(vocab_size)] = ranks
    permuted[rng.permutation(vocab_size)] = ranks
    out_weights = (1.0 - mismatch) * in_weights + mismatch * permuted
    # Small vocabularies can land under the separation floor; redraw the
    # out-of-domain permutation from derived sub-seeds (first draws that pass
    # are kept as they are).
    redraw = 0
    while topic_tv_distance(in_weights, out_weights) <= MIN_TOPIC_TV:
        if redraw == MAX_SPEC_REDRAWS:
            raise DataError(f"no topic profile separated by more than {MIN_TOPIC_TV} "
                            f"after {MAX_SPEC_REDRAWS} redraws; raise mismatch")
        redraw += 1
        sub = np.random.default_rng(derive_seed(seed, f"spec-redraw:{redraw}"))
        permuted[sub.permutation(vocab_size)] = ranks
        out_weights = (1.0 - mismatch) * in_weights + mismatch * permuted
    return SynthSpec(vocab_size=vocab_size, lexicon=lexicon, swap_class=swap_class,
                     in_weights=tuple(float(w) for w in in_weights),
                     out_weights=tuple(float(w) for w in out_weights),
                     noise_rate=noise_rate, seed=seed,
                     min_len=min_len, max_len=max_len)


def ground_truth(spec: SynthSpec, x: Sentence) -> Sentence:
    """Map symbols through the lexicon, then transpose swap-class pairs."""
    try:
        mapped = [spec.lexicon[s] for s in x]
    except KeyError as e:
        raise DataError(f"unknown source symbol {e.args[0]!r}") from e
    out = list(mapped)
    i = 0
    while i < len(out):
        if x[i] in spec.swap_class and i + 1 < len(out):
            out[i], out[i + 1] = out[i + 1], out[i]
            i += 2
        else:
            i += 1
    return tuple(out)


class _TopicSampler:
    """Bigram chain: transitions mix topic unigram weights with a fixed ring
    affinity; swap-class symbols never follow each other or end a sentence."""

    def __init__(self, spec: SynthSpec, weights, rng: np.random.Generator):
        self.spec = spec
        self.rng = rng
        vocab = spec.source_vocab
        self.vocab = vocab
        v = len(vocab)
        w = np.asarray(weights, dtype=float)
        w = w / w.sum()
        swap_mask = np.array([s in spec.swap_class for s in vocab])

        affinity = np.ones((v, v))
        idx = np.arange(v)
        for offset in (1, 2):
            affinity[idx, (idx + offset) % v] += BIGRAM_BOOST
        trans = affinity * w[None, :]
        trans[np.ix_(swap_mask, swap_mask)] = 0.0  # no adjacent swap symbols
        trans /= trans.sum(axis=1, keepdims=True)

        start = w.copy()
        self._cum_start = np.cumsum(start / start.sum())
        self._cum_trans = np.cumsum(trans, axis=1)
        nonswap = trans * ~swap_mask[None, :]
        nonswap /= nonswap.sum(axis=1, keepdims=True)
        self._cum_trans_nonswap = np.cumsum(nonswap, axis=1)
        start_nonswap = np.where(~swap_mask, start, 0.0)
        self._cum_start_nonswap = np.cumsum(start_nonswap / start_nonswap.sum())
        self._swap_mask = swap_mask

    def sentence(self) -> Sentence:
        spec = self.spec
        length = int(self.rng.integers(spec.min_len, spec.max_len + 1))
        u = self.rng.random(length)
        ids = np.empty(length, dtype=int)
        final = length - 1
        cum0 = self._cum_start_nonswap if final == 0 else self._cum_start
        ids[0] = np.searchsorted(cum0, u[0], side="right")
        for t in range(1, length):
            rows = self._cum_trans_nonswap if t == final else self._cum_trans
            ids[t] = np.searchsorted(rows[ids[t - 1]], u[t], side="right")
        return tuple(self.vocab[i] for i in ids)


@dataclass
class SynthBundle:
    spec: SynthSpec
    parallel: TaggedDataset
    mono_src: TaggedDataset
    mono_tgt: TaggedDataset
    dev: TaggedDataset
    test: TaggedDataset

    def datasets(self) -> list[TaggedDataset]:
        return [self.parallel, self.mono_src, self.mono_tgt, self.dev, self.test]


def gen_corpora(spec: SynthSpec, sizes: dict | None = None) -> SynthBundle:
    """Generate the full benchmark bundle, deterministic in the spec's seed.

    parallel/dev/test come from the in-domain topic; the source monolingual
    pool is in-domain while the target monolingual pool is out-of-domain.
    Only parallel training targets receive noise.
    """
    sizes = dict(DEFAULT_SIZES if sizes is None else sizes)
    for name in DEFAULT_SIZES:
        if sizes.get(name, 0) < 1:
            raise DataError(f"size {name!r} must be >= 1")

    def sampler(topic_weights, label):
        rng = np.random.default_rng(derive_seed(spec.seed, label))
        return _TopicSampler(spec, topic_weights, rng)

    noise_rng = np.random.default_rng(derive_seed(spec.seed, "noise"))
    tgt_vocab = spec.target_vocab

    def noisy(tgt: Sentence) -> Sentence:
        if spec.noise_rate == 0.0:
            return tgt
        out = list(tgt)
        for i in range(len(out)):
            if noise_rng.random() < spec.noise_rate:
                out[i] = tgt_vocab[int(noise_rng.integers(len(tgt_vocab)))]
        return tuple(out)

    def parallel_pairs(smp, n, noise):
        pairs = []
        for _ in range(n):
            src = smp.sentence()
            tgt = ground_truth(spec, src)
            pairs.append((src, noisy(tgt) if noise else tgt))
        return tuple(pairs)

    smp_parallel = sampler(spec.in_weights, "parallel")
    smp_dev = sampler(spec.in_weights, "dev")
    smp_test = sampler(spec.in_weights, "test")
    smp_mono_src = sampler(spec.in_weights, "mono-src")
    smp_mono_tgt = sampler(spec.out_weights, "mono-tgt")

    parallel = TaggedDataset("parallel", SIDE_PARALLEL, TAG_IN_DOMAIN,
                             pairs=parallel_pairs(smp_parallel, sizes["parallel"], True))
    dev = TaggedDataset("dev", SIDE_PARALLEL, TAG_IN_DOMAIN,
                        pairs=parallel_pairs(smp_dev, sizes["dev"], False))
    test = TaggedDataset("test", SIDE_PARALLEL, TAG_IN_DOMAIN,
                         pairs=parallel_pairs(smp_test, sizes["test"], False))
    mono_src = TaggedDataset(
        "mono_src", SIDE_MONO_SOURCE, TAG_MONO,
        sentences=tuple(smp_mono_src.sentence() for _ in range(sizes["mono_src"])))
    mono_tgt = TaggedDataset(
        "mono_tgt", SIDE_MONO_TARGET, TAG_MONO,
        sentences=tuple(ground_truth(spec, smp_mono_tgt.sentence())
                        for _ in range(sizes["mono_tgt"])))
    return SynthBundle(spec=spec, parallel=parallel, mono_src=mono_src,
                       mono_tgt=mono_tgt, dev=dev, test=test)

