"""The decoder's derived tables, held in one bounded store.

Decoding and channel scoring read tables derived from a model or an LM: a
model's candidate table and padded lexical table (`tm.LexModel`) and an
n-gram LM's row tables (`lm.row_table`), which also hold the lower-order
rows they are built from. An interpolated LM owns no entry: the decoder
reads its parts' tables. Each table is built on first request and kept
here, keyed by its owner and a name. Past `BOUND` entries the least
recently used one is evicted, and a later request builds it again. A table
is a function of its owner, so a rebuilt one gives the same outputs.

The store reaches an owner through a weak reference whose callback drops
the owner's entries, so a table dies with its owner without the collector,
and no table keeps a model alive. A caller that holds a table keeps it
alive past its eviction: `tm.translate_stack` reads its stack's candidate
tables once and holds them, back to back, for the whole decode, and
`tm._decode_block` holds the row tables of its LM's parts for its block.

The store counts hits, builds and evictions (`cache_counts`).
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from functools import partial

# Entries held at most. The reuse that must survive, in entries read:
# - a fine-tune's k checkpoints share one LM and are decoded in one stacked
#   decode, which reads the k checkpoints' candidate tables once, as it
#   starts, and block after block the row tables of the fine-tune LM's two
#   parts: the trial LM's, which the trial's own dev decode filled, and the
#   in-domain LM's (2, whatever k);
# - the in-domain LM is shared by the fine-tunes of a search's trials with
#   one LM order and smoothing k, so its table serves the next such trial
#   only if it outlives the entries one trial adds between its two
#   fine-tune decodes: the best checkpoint's padded table, its candidate
#   table, the trial LM's table and k = 3 checkpoints' candidate tables
#   (6), with the tables of the trials still held in the top-k. At 9 and
#   10, `search` and `recipe` compute the same rows and make the same
#   builds (seeds 1 to 3); at 8, `search` computes 9,538 top-order rows
#   against 8,935 (seed 1);
# - a reranked decode reads its decoder's candidate table once, and its
#   LM's part tables (one or two) and its channel model's padded table
#   block after block (3);
# - `tune_lambdas` decodes with both directions' systems, each reranked by
#   the other, and the next round's augment repeats those two reranked
#   decodes (6; 8 for fine-tuned systems, whose LMs have two parts);
# - `mine` reuses one channel model's padded table across 60 document
#   pairs (1).
BOUND = 9


class _Store:
    def __init__(self):
        self._entries: OrderedDict = OrderedDict()   # (id(owner), name) -> (ref, table)
        self.counts = {"hits": 0, "builds": 0, "evictions": 0}

    def get(self, owner, name, build):
        # an owner's entries go when it dies, before its id can be reused
        key = (id(owner), name)
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.counts["hits"] += 1
            return entry[1]
        table = build()
        self.counts["builds"] += 1
        self._entries[key] = (weakref.ref(owner, partial(self._forget, key)), table)
        while len(self._entries) > BOUND:
            self._entries.popitem(last=False)
            self.counts["evictions"] += 1
        return table

    def _forget(self, key, ref) -> None:
        """The weak reference's callback: its owner died."""
        del self._entries[key]


_STORE = _Store()


def cached(owner, name, build):
    """The table `name` of `owner`, from the store or from `build()`."""
    return _STORE.get(owner, name, build)


def cache_counts() -> dict:
    """The store's hits, builds and evictions so far, and the entries held."""
    return dict(_STORE.counts, held=len(_STORE._entries))
