"""Golden output of the bitext miner.

The fixture holds, for a fixed small document set, every mined sentence pair
with the `repr` of its score and every document match with the `repr` of its
similarity. The documents repeat tokens and sentences, carry tokens the
channel model and the lexicon have never seen, and have URLs with non-ASCII
characters and of unequal lengths, and one document pair has no sentences in
common. Any change to the URL edit distance, the token-set Jaccard, the
channel scores or the greedy matching shows up here as a mismatch.

To regenerate the fixture, deliberately, from a given source tree:

    PYTHONPATH=src python tests/test_mine_golden.py --write
"""

import json
import os
import random
import sys

from deskmt.corpus import build_mix, swap_direction
from deskmt.mine import WebDoc, mine_bitext
from deskmt.synth import gen_corpora, ground_truth, make_spec
from deskmt.tm import em_train

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "mine_golden.json")

DOCS = 6
PER_DOC = 4
THRESHOLDS = (0.05, 0.3)
FLOORS = (-2.5, -6.0)


def golden_inputs():
    """(source docs, target docs, channel model) of the golden mining runs."""
    spec = make_spec(24, seed=5, min_len=2, max_len=5)
    bundle = gen_corpora(spec, {"parallel": 80, "mono_src": DOCS * PER_DOC + 6,
                                "mono_tgt": 1, "dev": 1, "test": 1})
    model = em_train(swap_direction(build_mix([bundle.parallel])), 3,
                     src_lang="tgt", tgt_lang="src")
    mono = list(bundle.mono_src.sentences)
    rng = random.Random(11)
    docs_a, docs_b = [], []
    for i in range(DOCS):
        src = mono[i * PER_DOC:(i + 1) * PER_DOC]
        if i == 1:
            src = src + [src[0], src[0] + src[0], ("zz",) + src[1]]  # repeats, unknowns
        tgt = [ground_truth(spec, s) for s in src[:PER_DOC - 1]]
        tgt.append(mono[DOCS * PER_DOC + i])                        # untranslated
        if i == 2:
            tgt = [("qq", "qq")] + [t + ("qq",) for t in tgt]      # unknown target tokens
        if i == 4:
            tgt = [ground_truth(spec, s) for s in mono[-2:]]       # nothing in common
        rng.shuffle(tgt)
        slug = "".join(rng.choice("abcdeé") for _ in range(3 + i))
        docs_a.append(WebDoc(f"ex.org/en/{slug}", tuple(src), lang="src"))
        docs_b.append(WebDoc(f"ex.org/de/{slug}ü" if i % 2 else f"ex.org/de/{slug}",
                             tuple(tgt), lang="tgt"))
    docs_b.append(WebDoc("other.net/x", (tuple(mono[0][::-1]),), lang="tgt"))
    rng.shuffle(docs_b)
    return docs_a, docs_b, model


def mine_all() -> dict:
    docs_a, docs_b, model = golden_inputs()
    out = {}
    for threshold in THRESHOLDS:
        for floor in FLOORS:
            pairs, matches = mine_bitext(docs_a, docs_b, model,
                                         doc_threshold=threshold, floor=floor)
            out[f"t{threshold}-f{floor}"] = {
                "pairs": [[" ".join(sa), " ".join(sb), repr(score)]
                          for sa, sb, score in pairs],
                "matches": [[m.doc_a, m.doc_b, repr(m.sim)] for m in matches],
            }
    return out


def test_miner_matches_golden_fixture():
    with open(FIXTURE, encoding="utf-8") as fh:
        expected = json.load(fh)
    got = mine_all()
    assert sorted(got) == sorted(expected)
    for case in expected:
        assert got[case] == expected[case], case


def test_fixture_is_not_trivial():
    with open(FIXTURE, encoding="utf-8") as fh:
        expected = json.load(fh)
    loose = expected[f"t{THRESHOLDS[0]}-f{FLOORS[-1]}"]
    strict = expected[f"t{THRESHOLDS[-1]}-f{FLOORS[0]}"]
    assert len(loose["matches"]) > len(strict["matches"]) > 0
    assert len(loose["pairs"]) > len(strict["pairs"]) > 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_mine_golden.py --write")
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    cases = mine_all()
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        fh.write(",\n".join(f"{json.dumps(case)}: {json.dumps(entries, ensure_ascii=False)}"
                            for case, entries in cases.items()))
        fh.write("\n}\n")
