"""The LM and model readers on structurally mutated documents.

Each example takes a document written by `lm_json` (a plain and an
interpolated LM) or `model_json` (a model with a plain and one with a
fine-tuned LM), replaces one of its nodes, a leaf or a whole subtree, with
another JSON value or deletes it, and loads the result. A load either
succeeds or raises DataError; any other exception is an escape.
"""

import copy
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from deskmt.corpus import SIDE_PARALLEL, TaggedDataset, build_mix
from deskmt.lm import finetune_lm, lm_from_dict, lm_json, train_lm
from deskmt.tm import EMTrainer, model_from_dict, model_json
from deskmt.util import DataError


def _documents():
    rng = random.Random(8)
    words = ["a", "b", "c", "d"]
    pairs = tuple((tuple(rng.choices(words, k=rng.randint(1, 4))),
                   tuple(rng.choices(words, k=rng.randint(1, 4)))) for _ in range(6))
    mix = build_mix([TaggedDataset("d", SIDE_PARALLEL, "<t>", pairs=pairs)])
    lm = train_lm([tgt for _, tgt in pairs], 2, 0.3)
    tuned = finetune_lm(lm, [("b", "e"), ("e", "a")], 0.4)
    trainer = EMTrainer(mix)
    trainer.step()
    texts = {"lm": lm_json(lm), "interpolated lm": lm_json(tuned),
             "model": model_json(trainer.snapshot(lm))[0],
             "fine-tuned model": model_json(trainer.snapshot(tuned))[0]}
    # from JSON text, as the readers meet documents in files
    return {kind: json.loads(text) for kind, text in texts.items()}


DOCUMENTS = _documents()
READERS = {"lm": lm_from_dict, "interpolated lm": lm_from_dict,
           "model": model_from_dict, "fine-tuned model": model_from_dict}


def _paths(node, path=()):
    """The path of every node under the root, parents before children."""
    keys = node.keys() if isinstance(node, dict) else \
        range(len(node)) if isinstance(node, list) else ()
    for key in keys:
        yield path + (key,)
        yield from _paths(node[key], path + (key,))


PATHS = {kind: list(_paths(doc)) for kind, doc in DOCUMENTS.items()}

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from([10**400, -10**400])
    | st.text(max_size=4)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


DELETE = object()


@pytest.mark.parametrize("kind", sorted(DOCUMENTS))
@settings(max_examples=400, deadline=None, derandomize=True)
@given(at=st.integers(min_value=0), value=st.just(DELETE) | _json_values)
def test_a_mutated_document_loads_or_raises_data_error(kind, at, value):
    """`value` DELETE deletes the node; any other value replaces it."""
    doc = copy.deepcopy(DOCUMENTS[kind])
    *parent_path, key = PATHS[kind][at % len(PATHS[kind])]
    parent = doc
    for step in parent_path:
        parent = parent[step]
    if value is DELETE:
        del parent[key]
    else:
        parent[key] = value
    try:
        READERS[kind](doc)
    except DataError:
        pass
