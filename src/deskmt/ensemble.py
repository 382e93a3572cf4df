"""Probability-averaged ensembles of lexical translation models.

Members must share direction and symbol inventories. Scoring averages lexical
probabilities (log of the mean probability), which keeps every per-step
distribution normalized; decoding reuses the standard beam decoder on a fused
view that carries the first member's LM and decoder settings.
"""

from __future__ import annotations

import math

import numpy as np

from .corpus import Sentence
from .tm import LexModel, NBestList, translate_nbest
from .util import DataError


class Ensemble:
    def __init__(self, members: list[LexModel]):
        if not members:
            raise DataError("an ensemble needs at least one member")
        first = members[0]
        for m in members[1:]:
            if m.direction != first.direction:
                raise DataError("ensemble members must share direction")
            if m.src_vocab != first.src_vocab or m.tgt_vocab != first.tgt_vocab:
                raise DataError("ensemble members must share symbol inventories")
        self.members = list(members)
        self.k = len(members)
        self.src_lang = first.src_lang
        self.tgt_lang = first.tgt_lang
        self._fused: LexModel | None = None

    @property
    def direction(self) -> str:
        return self.members[0].direction

    def fused(self) -> LexModel:
        """LexModel view with the averaged table and the first member's settings."""
        if self._fused is None:
            first = self.members[0]
            t = self.members[0].t.copy()
            for m in self.members[1:]:
                t += m.t
            t /= self.k
            self._fused = LexModel(
                first.src_vocab, first.tgt_vocab, t, first.lm, beam=first.beam,
                window=first.window, lm_weight=first.lm_weight,
                src_lang=first.src_lang, tgt_lang=first.tgt_lang,
                unk_floor=first.unk_floor, tag_bias=first.tag_bias)
        return self._fused


def ensemble_step_logprob(e: Ensemble, source_symbol: str, target_symbol: str) -> float:
    """ln of the mean member probability t(target | source)."""
    total = 0.0
    for m in e.members:
        sid = m.src_id.get(source_symbol)
        tid = m.tgt_id.get(target_symbol)
        if sid is None or tid is None:
            total += m.unk_floor
        else:
            total += float(m.t[sid, tid])
    return math.log(total / e.k) if total > 0 else -math.inf


def ensemble_nbest(e: Ensemble, x: Sentence, n: int) -> NBestList:
    return translate_nbest(e.fused(), x, n)


def ensemble_to_dict(e: Ensemble) -> dict:
    """Ensemble manifest: the ordered list of member artifact hashes."""
    from .tm import model_hash
    return {"kind": "ensemble", "members": [model_hash(m) for m in e.members]}
