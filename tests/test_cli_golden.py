"""Golden output of the command-line interface.

The fixture holds the sha256 of what each command of a fixed sequence prints
and of every file the sequence leaves behind. The sequence runs on a tiny
synthetic bundle, in a fresh working directory and with relative paths, and
calls every subcommand but `mine`: synth-gen, learn-bpe, train (forward, and
`--swap` without synthetic sets), search with `--topk`, translate (beam, and
rerank with `--dump-nbest`), rerank, tune-lambdas, augment-st, augment-bt,
evaluate (beam and rerank), finetune, train with `--st`/`--bt`, and pipeline.
The reranking LM is the one input the CLI cannot make; it is written through
the library before the sequence. Any change to what a command computes,
prints or writes shows up here as a mismatch.

To regenerate the fixture, deliberately, from a given source tree:

    PYTHONPATH=src python tests/test_cli_golden.py --write
"""

import contextlib
import io
import json
import os
import sys
import tempfile

import pytest

from deskmt.cli import EXIT_OK, main
from deskmt.corpus import load_corpus
from deskmt.lm import lm_json, train_lm
from deskmt.search import SearchSpace
from deskmt.subword import encode, load_bpe
from deskmt.util import sha256_bytes, sha256_text, write_text_atomic

pytestmark = pytest.mark.hashseed

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "cli_golden.json")

TRAIN = ["--parallel", "bundle/parallel.tsv", "--dev", "bundle/dev.tsv",
         "--bpe", "bpe.txt", "--em-iterations", "2", "--lm-order", "2", "--beam", "2"]
RERANK = ["--channel-model", "bwd.json", "--lm", "lm_tgt.json",
          "--lambda1", "0.5", "--lambda2", "0.3", "--nbest", "4"]

SEQUENCE = [
    ("synth-gen", ["synth-gen", "--out", "bundle", "--vocab", "24", "--seed", "3",
                   "--parallel", "40", "--mono-src", "20", "--mono-tgt", "20",
                   "--dev", "10", "--test", "10", "--min-len", "2", "--max-len", "5"]),
    ("learn-bpe", ["learn-bpe", "--parallel", "bundle/parallel.tsv",
                   "--vocab-size", "60", "--out", "bpe.txt"]),
    ("train-fwd", ["train", *TRAIN, "--out", "fwd.json"]),
    ("train-swap", ["train", *TRAIN, "--swap", "--out", "bwd.json"]),
    ("search", ["search", *TRAIN[:6], "--space", "space.json", "--trials", "3",
                "--topk", "2", "--seed", "5", "--out-dir", "search"]),
    ("translate-beam", ["translate", "--model", "fwd.json", "--input",
                        "bundle/mono_src.txt", "--bpe", "bpe.txt", "--nbest", "4",
                        "--output", "beam.txt", "--dump-nbest", "beam.nbest"]),
    ("translate-rerank", ["translate", "--model", "fwd.json", "--input",
                          "bundle/mono_src.txt", "--bpe", "bpe.txt", *RERANK,
                          "--output", "rerank.txt", "--dump-nbest", "rerank.nbest"]),
    ("rerank", ["rerank", "--nbest-file", "beam.nbest", "--channel-model", "bwd.json",
                "--lm", "lm_tgt.json", "--lambda1", "0.5", "--lambda2", "0.3",
                "--out", "reranked.nbest"]),
    ("tune-lambdas", ["tune-lambdas", "--dev", "bundle/dev.tsv", "--model", "fwd.json",
                      "--channel-model", "bwd.json", "--lm", "lm_tgt.json",
                      "--bpe", "bpe.txt", "--tune-trials", "3", "--nbest", "4",
                      "--seed", "1", "--out", "lambdas.json"]),
    ("augment-st", ["augment-st", "--model", "fwd.json", "--mono", "bundle/mono_src.txt",
                    "--bpe", "bpe.txt", *RERANK, "--out", "st.tsv"]),
    ("augment-bt", ["augment-bt", "--model", "bwd.json", "--mono", "bundle/mono_tgt.txt",
                    "--bpe", "bpe.txt", "--out", "bt.tsv"]),
    ("evaluate-beam", ["evaluate", "--model", "fwd.json", "--test", "bundle/test.tsv",
                       "--bpe", "bpe.txt", "--report", "eval_beam.json"]),
    ("evaluate-rerank", ["evaluate", "--model", "fwd.json", "--test", "bundle/test.tsv",
                         "--bpe", "bpe.txt", *RERANK, "--report", "eval_rerank.json"]),
    ("finetune", ["finetune", "--model", "fwd.json", "--in-domain", "bundle/parallel.tsv",
                  "--dev", "bundle/dev.tsv", "--bpe", "bpe.txt", "--max-steps", "2",
                  "--out", "finetuned.json"]),
    ("train-synthetic", ["train", *TRAIN, "--st", "st.tsv", "--bt", "bt.tsv",
                         "--up-fwd", "3", "--out", "mixed.json"]),
    ("pipeline", ["pipeline", "--parallel", "bundle/parallel.tsv",
                  "--mono-source", "bundle/mono_src.txt",
                  "--mono-target", "bundle/mono_tgt.txt", "--dev", "bundle/dev.tsv",
                  "--run-dir", "run", "--iterations", "1", "--trials", "2",
                  "--topk", "1", "--bpe-vocab", "60", "--nbest", "4",
                  "--tune-trials", "3", "--finetune-steps", "1",
                  "--space", "space.json"]),
]

SPACE = {"em_iterations": [2], "lm_order": [2], "smoothing_k": [0.3],
         "lm_weight": [0.3, 0.5], "window": [0, 1], "beam": [2],
         "up_bitext": [1, 2], "up_fwd": [1, 3], "up_bt": [1]}


def _write_rerank_lm() -> None:
    """A target-side LM over the BPE-encoded bitext, which reranking needs."""
    bpe = load_bpe("bpe.txt")
    targets = [encode(t, bpe) for _, t in load_corpus("bundle/parallel.tsv",
                                                      "parallel").pairs]
    lm = train_lm(targets, 2, 0.3)
    write_text_atomic("lm_tgt.json", lm_json(lm))


def run_sequence(cwd: str, names=None) -> dict:
    """Run SEQUENCE in `cwd`, or only its steps in `names`; the sha256 of
    each step's stdout and of every file."""
    old = os.getcwd()
    os.chdir(cwd)
    try:
        SearchSpace(dims=SPACE).save("space.json")
        stdout = {}
        for name, argv in SEQUENCE:
            if names is not None and name not in names:
                continue
            if name == "train-fwd":
                _write_rerank_lm()
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            assert code == EXIT_OK, f"{name} exited {code}"
            stdout[name] = sha256_text(out.getvalue())
        files = {}
        for root, _, names in os.walk("."):
            for fname in names:
                path = os.path.relpath(os.path.join(root, fname)).replace(os.sep, "/")
                with open(path, "rb") as fh:
                    files[path] = sha256_bytes(fh.read())
        return {"stdout": stdout, "files": dict(sorted(files.items()))}
    finally:
        os.chdir(old)


def test_cli_outputs_match_golden_fixture(tmp_path):
    with open(FIXTURE, encoding="utf-8") as fh:
        expected = json.load(fh)
    got = run_sequence(str(tmp_path))
    assert got["stdout"] == expected["stdout"]
    assert sorted(got["files"]) == sorted(expected["files"])
    assert got["files"] == expected["files"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_cli_golden.py --write")
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with tempfile.TemporaryDirectory() as base:
        got = run_sequence(base)
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(got, fh, indent=2, sort_keys=True)
        fh.write("\n")
