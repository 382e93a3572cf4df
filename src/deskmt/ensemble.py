"""Probability-averaged ensembles of lexical translation models.

An ensemble is itself a `LexModel`: its table is the mean of the members'
tables, and it carries the first member's LM and decoder settings. A
one-member ensemble (the pipeline's default top-k of 1) reads its member's
table through a read-only view rather than a copy. Decoding
and channel scoring therefore treat it like any other model, and averaging
probabilities keeps every per-step distribution normalized. The search
orders members by dev BLEU, so the first member is the best one; the other
members contribute only their tables, and their LMs are not used.
"""

from __future__ import annotations

from .tm import LexModel, model_hash
from .util import DataError, stable_json_dumps


class Ensemble(LexModel):
    """Mean-table model over `members`, with the first member's LM and settings.

    The table of one member is a read-only view of that member's table; of
    several, a new array. The artifact of an ensemble is the ordered list of
    its members' hashes (see `artifact`), not its table.
    """

    def __init__(self, members: list[LexModel]):
        if not members:
            raise DataError("an ensemble needs at least one member")
        first = members[0]
        for m in members[1:]:
            if m.direction != first.direction:
                raise DataError("ensemble members must share direction")
            if m.src_vocab != first.src_vocab or m.tgt_vocab != first.tgt_vocab:
                raise DataError("ensemble members must share symbol inventories")
        if len(members) == 1:
            t = first.t.view()
            t.flags.writeable = False
        else:
            t = first.t.copy()
            for m in members[1:]:
                t += m.t
            t /= len(members)
        super().__init__(first.src_vocab, first.tgt_vocab, t, first.lm, beam=first.beam,
                         window=first.window, lm_weight=first.lm_weight,
                         src_lang=first.src_lang, tgt_lang=first.tgt_lang,
                         unk_floor=first.unk_floor)
        self.members = list(members)

    def artifact(self) -> dict:
        """Ensemble manifest: the ordered list of member artifact hashes."""
        return {"kind": "ensemble", "members": [model_hash(m) for m in self.members]}

    def artifact_json(self) -> str:
        """The stable JSON text of `artifact`, which `model_json` hashes."""
        return stable_json_dumps(self.artifact())
