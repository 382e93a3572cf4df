"""`lm.RowTable` as it was before its rows were mixed from per-part tables:
each table computed its parts' rows itself, with one lower-order dict per
part, and held log-probability rows. Kept as the reference the per-part
tables are checked against, bit for bit."""

import weakref

import numpy as np

from deskmt.lm import _CACHE_CAP, _find, _mix



class ReferenceRowTable:
    """Log-probability rows of one LM at a fixed symbol list, one row per
    LM state met (see the module docstring).

    `rows[slots(contexts)[g], i]` is ln P(symbols[i] | contexts[g]); read
    `rows` after the `slots` call, which may grow or clear the buffer.
    `ranks` is each symbol's rank among the distinct symbols in string
    order, so two ids that spell one symbol share a rank. `row_max` is the
    largest element of the rows held (-inf with none), the bound the decoder
    puts on an LM term; a table built again after its eviction from the
    decoder cache may hold other rows and so another `row_max`, which
    changes how many entries a beam step scores, not which survive. The
    table reaches its LM through a weak reference, so it keeps no LM alive.
    """

    def __init__(self, model, symbols: tuple[str, ...]):
        rank = {sym: r for r, sym in enumerate(sorted(set(symbols)))}
        self.ranks = np.array([rank[sym] for sym in symbols], dtype=np.int64)
        self._lm = weakref.ref(model)
        self._ids = [part._symbol_ids(symbols) for _, part in model.parts]
        self._lower = [{} for _ in model.parts]   # each part's lower-order rows
        self._clear()

    def _clear(self) -> None:
        self._buffer = np.empty((0, self.ranks.size))
        self.held = 0
        self.row_max = -np.inf
        self._states = np.empty(0, dtype=np.int64)   # state keys held, sorted
        self._state_slots = np.empty(0, dtype=np.intp)

    @property
    def rows(self) -> np.ndarray:
        return self._buffer[:self.held]

    def slots(self, contexts: np.ndarray) -> np.ndarray:
        """The row slot of every context: a row of symbol ids, oldest first,
        at most order - 1 long (a shorter one is BOS-padded). Every context
        is walked to its state; only the states not held get rows."""
        model = self._lm()
        if model is None:
            raise ValueError("the row table's language model is gone")
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
        self._append(_mix(model.parts, [
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
        # the buffer grows by a quarter: tables of many LMs live at once, so
        # doubling would leave up to half of every buffer unused
        need = self.held + len(rows)
        if need > len(self._buffer):
            grown = np.empty((max(need, min(len(self._buffer) * 5 // 4, _CACHE_CAP)),
                              self.ranks.size))
            grown[:self.held] = self.rows
            self._buffer = grown
        self._buffer[self.held:need] = rows
        self.held = need
        self.row_max = max(self.row_max, float(rows.max()))
