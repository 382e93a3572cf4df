"""The lists of an `NBestBlock` as plain values, for tests to compare, and
blocks built from such values."""

from typing import NamedTuple

import numpy as np

from deskmt.tm import NBestBlock, translate_corpus


class Entry(NamedTuple):
    hyp: tuple
    fwd: float
    channel: float | None
    lm: float | None
    combined: float | None


def nbest_lists(block):
    """Each list of `block`, best first, as Entry tuples read from its
    surfaces and score arrays; a score the block has no array for is None."""
    n = block.fwd.size
    columns = [block.fwd.tolist()] + [[None] * n if v is None else v.tolist()
                                      for v in (block.channel, block.lm, block.combined)]
    entries = [Entry(*row) for row in zip(block.surfaces(np.arange(n)), *columns)]
    ends = block.offsets.tolist()
    return [entries[ends[k]:ends[k + 1]] for k in range(len(block))]


def decode_one(model, source, n):
    """The n-best list of one source: `translate_corpus` of a list of one."""
    return nbest_lists(translate_corpus(model, [source], n))[0]


def block_of(lists):
    """An NBestBlock of (source, [(hyp, fwd), ...]) lists, whose symbols are
    the hypotheses' distinct tokens, sorted, as an n-best file's are."""
    entries = [entry for _, list_entries in lists for entry in list_entries]
    symbols = tuple(sorted({tok for hyp, _ in entries for tok in hyp}))
    lengths = np.array([len(hyp) for hyp, _ in entries], dtype=np.intp)
    hyps = np.zeros((len(entries), int(lengths.max(initial=0))), dtype=np.intp)
    for e, (hyp, _) in enumerate(entries):
        hyps[e, :len(hyp)] = [symbols.index(tok) for tok in hyp]
    sizes = [len(list_entries) for _, list_entries in lists]
    return NBestBlock([source for source, _ in lists], symbols, hyps, lengths,
                      np.array([fwd for _, fwd in entries], dtype=np.float64),
                      np.concatenate(([0], np.cumsum(sizes, dtype=np.intp))))
