"""The decoder's LM rows as one table per LM mixed them: each table held
its LM's mixed probability rows, one per state of all its parts together,
and computed every part's rows itself, with one lower-order dict per part.
Kept as the reference the entries the decoder mixes from its parts' own
tables are checked against, bit for bit: patched in as a model's one table
of weight 1 (`reference_row_tables`), the decoder reads its entries from
here."""

import numpy as np

from deskmt.lm import _CACHE_CAP, _find, mixture


class ReferenceRowTable:
    """Probability rows of one LM at a fixed symbol list, one row per LM
    state met, a state being the tuple of its parts' states.

    `probs[slots(contexts)[g], i]` is the parts' `mixture` of P(symbols[i] |
    contexts[g]); read `probs` after the `slots` call, which may grow or
    clear the buffer. `ranks` is each symbol's rank among the distinct
    symbols in string order. `prob_max` is the largest probability held
    (0.0 with none).
    """

    def __init__(self, model, symbols: tuple[str, ...]):
        rank = {sym: r for r, sym in enumerate(sorted(set(symbols)))}
        self.ranks = np.array([rank[sym] for sym in symbols], dtype=np.int64)
        self._lm = model
        self._ids = [part._symbol_ids(symbols) for _, part in model.parts]
        self._lower = [{} for _ in model.parts]   # each part's lower-order rows
        self._clear()

    def _clear(self) -> None:
        self._buffer = np.empty((0, self.ranks.size))
        self.held = 0
        self.prob_max = 0.0
        self._states = np.empty(0, dtype=np.int64)   # state keys held, sorted
        self._state_slots = np.empty(0, dtype=np.intp)

    @property
    def probs(self) -> np.ndarray:
        return self._buffer[:self.held]

    def slots(self, contexts: np.ndarray) -> np.ndarray:
        """The row slot of every context: a row of symbol ids, oldest first,
        at most order - 1 long (a shorter one is BOS-padded). Every context
        is walked to its state; only the states not held get rows."""
        model = self._lm
        state, walked = 0, []   # each part's (depth, node) of every context
        for (_, part), (_, context_id) in zip(model.parts, self._ids):
            depth, node = part._walk(context_id[contexts])
            walked.append((depth, node))
            # a digit per part, in base its number of states
            state = state * int(part._level_start[-1]) + part._level_start[depth - 1] + node
        found = _find(self._states, state)
        miss = np.flatnonzero(found == self._states.size)
        if not miss.size:
            return self._state_slots[found]
        new, first, inverse = np.unique(state[miss], return_index=True, return_inverse=True)
        if self.held and self.held + new.size > _CACHE_CAP:
            self._clear()
            return self.slots(contexts)
        at = miss[first]
        self._append(mixture(model.parts, [
            part._rows(part.order, depth[at], node[at], kept)[:, index]
            for (_, part), (depth, node), (index, _), kept
            in zip(model.parts, walked, self._ids, self._lower)]))
        new_slots = np.arange(self.held - new.size, self.held)
        slot = np.empty(len(contexts), dtype=np.intp)
        hit = found < self._states.size
        slot[hit] = self._state_slots[found[hit]]
        slot[miss] = new_slots[inverse]
        # merge the new states into the sorted index
        place = self._states.searchsorted(new) + np.arange(new.size)
        old = np.ones(self._states.size + new.size, dtype=bool)
        old[place] = False
        states = np.empty(old.size, dtype=np.int64)
        state_slots = np.empty(old.size, dtype=np.intp)
        states[place], states[old] = new, self._states
        state_slots[place], state_slots[old] = new_slots, self._state_slots
        self._states, self._state_slots = states, state_slots
        return slot

    def _append(self, rows: np.ndarray) -> None:
        need = self.held + len(rows)
        if need > len(self._buffer):
            grown = np.empty((max(need, min(len(self._buffer) * 5 // 4, _CACHE_CAP)),
                              self.ranks.size))
            grown[:self.held] = self.probs
            self._buffer = grown
        self._buffer[self.held:need] = rows
        self.held = need
        self.prob_max = max(self.prob_max, float(rows.max()))


def reference_row_tables(model):
    """A stand-in for `LexModel._row_tables`: the model's LM as one part of
    weight 1, its table a new `ReferenceRowTable`, which the decode that
    builds it holds for all its blocks."""
    return ((1.0, ReferenceRowTable(model.lm, model._ext_vocab())),)
