"""Golden manifest digests of the pipeline.

The fixture holds the sha256 of `manifest.json` after the two-round, top-2
run of `test_pipeline.py`'s `finished_run` fixture. The manifest records the hash of every model, ensemble,
dataset and language model the run wrote, and the dev BLEU and tuned weights
of each round, so any change to training, decoding, reranking, ensembling or
serialization shows up here as a mismatch.

To regenerate the fixture, deliberately, from a given source tree:

    PYTHONPATH=src python tests/test_pipeline_golden.py --write
"""

import json
import os
import sys
import tempfile

from deskmt.pipeline import run_pipeline
from deskmt.util import sha256_bytes
from test_pipeline import tiny_bundle, tiny_config

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "pipeline_golden.json")

def manifest_digest(run_dir: str) -> str:
    bundle = tiny_bundle()
    manifest = run_pipeline(bundle.parallel, bundle.mono_src, bundle.mono_tgt,
                            bundle.dev, run_dir, tiny_config(iterations=2))
    with open(manifest.path, "rb") as fh:
        return sha256_bytes(fh.read())


def digests(base: str) -> dict:
    return {"workers=1": manifest_digest(os.path.join(base, "w1"))}


def test_pipeline_manifests_match_golden_fixture(tmp_path):
    with open(FIXTURE, encoding="utf-8") as fh:
        expected = json.load(fh)
    assert digests(str(tmp_path)) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_pipeline_golden.py --write")
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with tempfile.TemporaryDirectory() as base:
        got = digests(base)
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(got, fh, indent=2, sort_keys=True)
        fh.write("\n")
