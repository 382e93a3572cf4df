"""Byte-pair encoding over a combined bilingual corpus.

Merges are learned greedily from word frequencies (most frequent adjacent
symbol pair first) and replayed in order at encode time. Reserved tokens
(domain tags, specials) pass through unsplit. Decoding strips the joiner and
re-assembles words; the "unspaced" policy additionally removes all spaces
between words.

Learning counts pairs once and then keeps the counts up to date, as
subword-nmt does (Sennrich et al. 2016): an index maps each pair to the words
that hold it, and a merge re-counts only the words that held the merged pair.
The next merge comes from a heap of (-count, pair) whose stale entries are
skipped, so it is the most frequent pair with ties broken toward the
lexicographically smallest (left, right), exactly what a full recount and
`min(counts, key=lambda p: (-counts[p], p))` would pick. A model segments
each distinct word once and keeps its pieces for every later encode.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field, replace

from .corpus import DEFAULT_TAGS, SIDE_PARALLEL, UNK_TOKEN, Sentence, TaggedDataset
from .util import DataError, read_text, write_text_atomic

DEFAULT_JOINER = "##"
DEFAULT_RESERVED = frozenset(DEFAULT_TAGS) | {UNK_TOKEN}

POLICY_SPACED = "space-joined"
POLICY_UNSPACED = "unspaced"


@dataclass(frozen=True)
class BpeModel:
    merges: tuple[tuple[str, str], ...]
    vocab_size_target: int
    joiner: str = DEFAULT_JOINER
    reserved: frozenset[str] = DEFAULT_RESERVED
    # initial character inventory plus one entry per merge, in learned order
    symbols: tuple[str, ...] = field(default=(), compare=False)
    # word -> its encoded pieces, filled by every encode with this model
    _pieces: dict[str, Sentence] = field(default_factory=dict, init=False,
                                         compare=False, repr=False)
    # pair -> the ranks of its merges, ascending (a merge file may repeat one)
    _ranks: dict[tuple[str, str], list[int]] = field(default_factory=dict, init=False,
                                                     compare=False, repr=False)

    def __post_init__(self) -> None:
        for rank, pair in enumerate(self.merges):
            self._ranks.setdefault(pair, []).append(rank)

    def inventory_size(self) -> int:
        return len(self.symbols)


def _merge_pass(pieces: list[str], left: str, right: str) -> list[str]:
    """One leftmost-first, non-overlapping replacement pass for a single merge."""
    out = []
    i = 0
    while i < len(pieces):
        if i + 1 < len(pieces) and pieces[i] == left and pieces[i + 1] == right:
            out.append(left + right)
            i += 2
        else:
            out.append(pieces[i])
            i += 1
    return out


def _word_pieces(word: str, ranks: dict[tuple[str, str], list[int]]) -> list[str]:
    """The pieces of replaying every merge in rank order over the word's
    characters.

    A merge whose pair the pieces do not hold is a no-op, and a pass leaves
    no occurrence of its pair, so the replay jumps to the lowest rank above
    the last one applied among the pairs the pieces hold.
    """
    pieces = list(word)
    last = -1
    while len(pieces) > 1:
        following = [(held[at], pair) for pair in _pairs(pieces)
                     if (held := ranks.get(pair))
                     and (at := bisect_right(held, last)) < len(held)]
        if not following:
            break
        last, pair = min(following)
        pieces = _merge_pass(pieces, *pair)
    return pieces


def _pairs(pieces: list[str]) -> list[tuple[str, str]]:
    return list(zip(pieces, pieces[1:]))


def learn_bpe(corpus: list[Sentence], vocab_size: int) -> BpeModel:
    """Learn merges until the symbol inventory reaches vocab_size or no pair repeats.

    The inventory is the initial character set plus one symbol per merge. Ties
    in pair frequency break toward the lexicographically smallest (left,
    right) pair, so learning is deterministic and independent of corpus order.
    """
    if not corpus:
        raise DataError("cannot learn BPE from an empty corpus")
    word_freq = Counter(tok for sent in corpus for tok in sent
                        if tok not in DEFAULT_RESERVED)
    chars = sorted({ch for word in word_freq for ch in word})
    if vocab_size < len(chars):
        raise DataError(
            f"vocab_size {vocab_size} is smaller than the character inventory ({len(chars)})")

    words = {w: list(w) for w in word_freq}
    pair_freq: Counter[tuple[str, str]] = Counter()
    holders: dict[tuple[str, str], set[str]] = {}  # pair -> words that hold it
    for word, pieces in words.items():
        for pair in _pairs(pieces):
            pair_freq[pair] += word_freq[word]
            holders.setdefault(pair, set()).add(word)
    heap = [(-count, pair) for pair, count in pair_freq.items()]
    heapq.heapify(heap)

    merges: list[tuple[str, str]] = []
    symbols = list(chars)
    while len(symbols) < vocab_size and heap:
        neg_count, best = heapq.heappop(heap)
        if pair_freq.get(best) != -neg_count:
            continue  # stale: the pair's count changed after this entry was pushed
        if -neg_count < 2:
            break
        merges.append(best)
        symbols.append(best[0] + best[1])
        changed = set()
        for word in holders.pop(best):
            freq = word_freq[word]
            old = _pairs(words[word])
            pieces = words[word] = _merge_pass(words[word], *best)
            new = _pairs(pieces)
            for pair in old:
                pair_freq[pair] -= freq
            for pair in new:
                pair_freq[pair] += freq
            changed.update(old, new)
            for pair in set(old) - set(new) - {best}:
                holders[pair].discard(word)
            for pair in set(new) - set(old):
                holders.setdefault(pair, set()).add(word)
        for pair in changed:
            count = pair_freq[pair]
            if count:
                heapq.heappush(heap, (-count, pair))
            else:
                del pair_freq[pair]
    return BpeModel(merges=tuple(merges), vocab_size_target=vocab_size,
                    symbols=tuple(symbols))


def encode(sentence: Sentence, model: BpeModel) -> Sentence:
    """Segment each token into subword pieces; continuation pieces carry the joiner.

    Each distinct word is segmented once per model: its pieces are kept on
    the model for every later encode.
    """
    memo = model._pieces
    out: list[str] = []
    for token in sentence:
        if token in model.reserved:
            out.append(token)
            continue
        encoded = memo.get(token)
        if encoded is None:
            pieces = _word_pieces(token, model._ranks)
            encoded = memo[token] = (pieces[0],) + tuple(model.joiner + p
                                                         for p in pieces[1:])
        out.extend(encoded)
    return tuple(out)


def decode(sentence: Sentence, model: BpeModel, policy: str = POLICY_SPACED) -> str:
    """Invert segmentation to a surface string; "unspaced" also removes word breaks."""
    if policy not in (POLICY_SPACED, POLICY_UNSPACED):
        raise DataError(f"unknown detokenization policy {policy!r}")
    words: list[str] = []
    for piece in sentence:
        if piece.startswith(model.joiner) and words and piece not in model.reserved:
            words[-1] += piece[len(model.joiner):]
        else:
            words.append(piece)
    sep = " " if policy == POLICY_SPACED else ""
    return sep.join(words)


def encode_dataset(ds: TaggedDataset, model: BpeModel) -> TaggedDataset:
    """Encode every sentence of a TaggedDataset (both sides of parallel data)."""
    if ds.side == SIDE_PARALLEL:
        return replace(ds, pairs=tuple((encode(s, model), encode(t, model))
                                       for s, t in ds.pairs))
    return replace(ds, sentences=tuple(encode(s, model) for s in ds.sentences))


FORMAT_VERSION = 1


def save_bpe(model: BpeModel, path: str) -> str:
    """Write merges as text: two header lines, then one "left right" pair per line.

    The file is replaced atomically; returns the text written.
    """
    n_chars = len(model.symbols) - len(model.merges)
    reserved = " ".join(sorted(model.reserved))
    lines = [f"#bpe v{FORMAT_VERSION} vocab={model.vocab_size_target} "
             f"joiner={model.joiner} reserved={reserved}\n",
             "#chars " + " ".join(model.symbols[:n_chars]) + "\n"]
    lines += [f"{left} {right}\n" for left, right in model.merges]
    text = "".join(lines)
    write_text_atomic(path, text)
    return text


def load_bpe(path: str) -> BpeModel:
    lines = read_text(path, "BPE model").split("\n")
    if lines[-1] == "":
        lines.pop()
    header = lines[0] if lines else ""
    if not header.startswith(f"#bpe v{FORMAT_VERSION}"):
        raise DataError(f"{path}: unsupported BPE file header")
    parts = header.split()
    fields = {}
    for part in parts[2:]:
        key, _, value = part.partition("=")
        if key == "reserved":
            fields["reserved"] = header.split("reserved=", 1)[1]
            break
        fields[key] = value
    chars_line = lines[1] if len(lines) > 1 else ""
    if not chars_line.startswith("#chars"):
        raise DataError(f"{path}: missing character inventory line")
    chars = tuple(chars_line.split()[1:])
    merges = []
    for lineno, line in enumerate(lines[2:], start=3):
        pair = line.split(" ")
        if len(pair) != 2 or not all(pair):
            raise DataError(f"{path}:{lineno}: a merge line needs exactly "
                            f"two symbols separated by one space")
        merges.append((pair[0], pair[1]))
    vocab = fields.get("vocab", "")
    try:   # ASCII digits only: str.isdigit also passes "²"
        vocab_size = int(vocab) if vocab.isascii() and vocab.isdigit() else None
    except ValueError:   # more digits than `int` converts
        vocab_size = None
    if vocab_size is None or "joiner" not in fields:
        raise DataError(f"{path}:1: the header needs vocab=<int> and joiner=")
    reserved = frozenset(fields.get("reserved", "").split())
    symbols = chars + tuple(l + r for l, r in merges)
    return BpeModel(merges=tuple(merges), vocab_size_target=vocab_size,
                    joiner=fields["joiner"], reserved=reserved, symbols=symbols)
