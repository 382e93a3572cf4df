"""The dict builders of the model and LM documents, as the library had them
before its writers formatted the text from arrays: the reference that
`tm.model_json` and `lm.lm_json` are checked against. Each document's text
is `stable_json_dumps` of the dict built here. The builders are the
library's own, but for the name of the LM's format version.
"""

import numpy as np

from deskmt.lm import FORMAT_VERSION as LM_FORMAT_VERSION
from deskmt.lm import InterpolatedLM, LanguageModel, NGramLM
from deskmt.tm import FORMAT_VERSION, LexModel
from deskmt.util import sorted_distinct


def _counts_doc(model: NGramLM) -> list:
    """Per level, [context ids oldest first, [(word id, count), ...]] of
    every context that holds a count, in context then word order."""
    width = model._width
    history = np.zeros((1, 0), dtype=np.int64)   # the root's context
    levels = []
    for level in range(model.order):
        if level:
            keys = model._child_keys[level - 1]
            history = np.column_stack((history[keys // width], keys % width))
        keys = model._count_keys[level]
        node = keys // width
        held = sorted_distinct(node)
        contexts = history[held][:, ::-1]
        by_context = np.lexsort(contexts.T[::-1]) if level else np.arange(held.size)
        lo = node.searchsorted(held[by_context])
        hi = node.searchsorted(held[by_context], "right")
        words = (keys % width).tolist()
        counts = model._count_vals[level].tolist()
        levels.append([[ctx, list(zip(words[a:b], counts[a:b]))] for ctx, a, b in
                       zip(contexts[by_context].tolist(), lo.tolist(), hi.tolist())])
    return levels


def lm_to_dict(model: LanguageModel) -> dict:
    if isinstance(model, InterpolatedLM):
        return {"version": LM_FORMAT_VERSION, "kind": "interpolated",
                "alpha": model.interp_alpha,
                "base": lm_to_dict(model.base), "indomain": lm_to_dict(model.indomain)}
    return {
        "version": LM_FORMAT_VERSION, "kind": "ngram",
        "order": model.order, "k": model.k,
        "vocab": list(model.vocab),
        "token_total": model.token_total,
        "counts": _counts_doc(model),
    }


def _lex_document(model: LexModel, t_rows) -> dict:
    """A model's document with the given `t_rows`."""
    return {
        "version": FORMAT_VERSION, "kind": "lex",
        "src_lang": model.src_lang, "tgt_lang": model.tgt_lang,
        "src_vocab": list(model.src_vocab), "tgt_vocab": list(model.tgt_vocab),
        "beam": model.beam, "window": model.window, "lm_weight": model.lm_weight,
        "unk_floor": model.unk_floor,
        "train_ll_trace": list(model.train_ll_trace),
        "t_rows": t_rows, "lm": lm_to_dict(model.lm),
    }


def _t_rows(model: LexModel):
    """The [target id, probability] entries of each source symbol's row, a
    row at a time."""
    for i in range(len(model.src_vocab)):
        nz = np.flatnonzero(model.t[i])
        yield [[j, v] for j, v in zip(nz.tolist(), model.t[i, nz].tolist())]


def model_to_dict(model: LexModel) -> dict:
    return _lex_document(model, list(_t_rows(model)))

