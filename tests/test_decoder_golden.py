"""Golden n-best lists of the beam decoder.

The fixture holds, for every case, each hypothesis and the `repr` of its
score. The cases cover beam {2, 5} x window {0, 1, 2} x n {1, 10, 50}, sources
with repeated unknown symbols (whose candidates tie exactly) and a symmetric
model whose distinct hypotheses tie exactly, so the beam's tie rule decides
which of them survive. Any change to the decoder's arithmetic or to its pool
order and tie rule shows up here as a mismatch. Every case is checked twice: decoded on its own, and inside one
`translate_corpus` call per group of cases that share a model and n.

To regenerate the fixture, deliberately, from a given source tree:

    PYTHONPATH=src python tests/test_decoder_golden.py --write
"""

import json
import os
import sys

import numpy as np
import pytest

from deskmt.corpus import build_mix
from deskmt.lm import train_lm
from deskmt.synth import gen_corpora, make_spec
from deskmt.tm import NULL, LexModel, em_train, translate_corpus
from nbest_lists import decode_one, nbest_lists

pytestmark = pytest.mark.hashseed

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "decoder_golden.json")

BEAMS = (2, 5)
WINDOWS = (0, 1, 2)
NBEST = (1, 10, 50)


def _sources(bundle):
    mono = list(bundle.mono_src.sentences)
    return [
        mono[0],
        mono[1],
        ("zz", "zz", "zz"),                       # every candidate ties
        ("zz",) + mono[2][:2] + ("zz", "zz"),     # ties mixed with known symbols
        mono[3] + mono[4],                        # longer source
    ]


def golden_groups():
    """Yield (case id prefix, model, sources, n), one group per decoder setting.

    The symmetric model's beam is set before each of its groups, so decode a
    group before taking the next one.
    """
    spec = make_spec(24, seed=5, min_len=2, max_len=5)
    bundle = gen_corpora(spec, {"parallel": 80, "mono_src": 8, "mono_tgt": 4,
                                "dev": 4, "test": 4})
    mix = build_mix([bundle.parallel])
    sources = _sources(bundle)
    for beam in BEAMS:
        for window in WINDOWS:
            model = em_train(mix, 3, lm_order=3, beam=beam, window=window,
                             lm_weight=0.4)
            for n in NBEST:
                yield f"b{beam}-w{window}-n{n}", model, sources, n

    # t(A|x) = t(B|x) and a unigram LM with equal A/B counts: every A/B
    # string of a given length scores the same
    symmetric = LexModel((NULL, "x", "y"), ("A", "B", "C"),
                         np.array([[0.4, 0.4, 0.2], [0.45, 0.45, 0.1], [0.1, 0.1, 0.8]]),
                         train_lm([("A", "B", "C"), ("B", "A")], 1, 0.5),
                         beam=2, window=1, lm_weight=0.5)
    for beam in BEAMS:
        symmetric.beam = beam
        for n in NBEST:
            yield (f"tie-b{beam}-n{n}", symmetric,
                   [("x", "x", "x", "x"), ("x", "y", "x", "zz", "x")], n)


def _entries(nbest):
    return [[" ".join(e.hyp), repr(e.fwd)] for e in nbest]


def decode_all() -> dict:
    """Every case decoded on its own."""
    out = {}
    for prefix, model, sources, n in golden_groups():
        for k, source in enumerate(sources):
            out[f"{prefix}-s{k}"] = _entries(decode_one(model, source, n))
    return out


def decode_all_in_blocks() -> dict:
    """Every case decoded inside one corpus call per group."""
    out = {}
    for prefix, model, sources, n in golden_groups():
        for k, nbest in enumerate(nbest_lists(translate_corpus(model, sources, n))):
            out[f"{prefix}-s{k}"] = _entries(nbest)
    return out


def _assert_matches_fixture(got: dict) -> None:
    with open(FIXTURE, encoding="utf-8") as fh:
        expected = json.load(fh)
    assert sorted(got) == sorted(expected)
    for case in expected:
        assert got[case] == expected[case], case


def test_decoder_matches_golden_fixture():
    _assert_matches_fixture(decode_all())


def test_corpus_decode_matches_golden_fixture():
    _assert_matches_fixture(decode_all_in_blocks())


def test_fixture_exercises_ties():
    with open(FIXTURE, encoding="utf-8") as fh:
        expected = json.load(fh)
    tied = [case for case, entries in expected.items()
            if len({score for _, score in entries}) < len(entries)]
    assert any(case.startswith("tie-") for case in tied)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_decoder_golden.py --write")
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    cases = decode_all()
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        fh.write(",\n".join(f"{json.dumps(case)}: {json.dumps(entries)}"
                            for case, entries in cases.items()))
        fh.write("\n}\n")
