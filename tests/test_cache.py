"""The decoder's tables without a cache: a stacked decode builds each
candidate table and each LM row table once per call, and every block of
the call reads those same tables.

The decoder cache these tables once lived in held at most 9 of them (its
bound); a stack of more checkpoints than that is still decoded reading
each table once. Table lifetimes are checked in `test_table_lifetime`.
"""

import random
from unittest import mock

import numpy as np

import deskmt.tm as tm
from deskmt.lm import RowTable
from test_rerank import random_models

# the bound of the decoder cache that held these tables
OLD_BOUND = 9


class TestStackedDecodeReadsEachTableOnce:
    def test_a_stack_larger_than_the_bound_over_several_blocks(self, monkeypatch):
        # more checkpoints than the old store held, decoded in several
        # blocks: each candidate table is built once per decode, the row
        # table once, and every block reads the same tables
        rng = random.Random(3)
        mix, fwd, _ = random_models(rng, n_pairs=30)
        stack = [fwd] + [tm.LexModel(fwd.src_vocab, fwd.tgt_vocab, fwd.t * scale, fwd.lm,
                                     beam=fwd.beam, window=fwd.window, lm_weight=fwd.lm_weight)
                         for scale in np.linspace(0.9, 0.3, OLD_BOUND + 1)]
        sources = [src for (src, _), _ in mix.weighted_pairs().items()]
        builds = []
        candidate_table, row_init = tm.LexModel._candidate_table, RowTable.__init__

        def counted_candidates(self):
            builds.append(self)
            return candidate_table(self)

        def counted_rows(self, model, symbols):
            builds.append(self)
            row_init(self, model, symbols)

        monkeypatch.setattr(tm.LexModel, "_candidate_table", counted_candidates)
        monkeypatch.setattr(RowTable, "__init__", counted_rows)
        read = []
        real = tm._decode_block

        def recording(models, cands, tables, block, member, width, n):
            read.append((cands, tables))
            return real(models, cands, tables, block, member, width, n)

        with mock.patch.object(tm, "_DECODE_STATES", 40), \
                mock.patch.object(tm, "_decode_block", recording):
            tm.translate_stack(stack, sources, 4)
        assert len(stack) > OLD_BOUND and len(read) > 1
        assert len(builds) == len(stack) + len(fwd.lm.parts)
        assert [m for m in builds if isinstance(m, tm.LexModel)] == stack
        assert all(cands is read[0][0] and tables is read[0][1] for cands, tables in read)
