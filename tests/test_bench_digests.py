"""The benchmark's output digests, pinned.

Each case runs one repetition of a workload through `bench/workloads.py`,
in a fresh process as `bench/run.py` starts it, untraced and without the
test-split evaluation, and checks the sha256 of its output: the pipeline
manifest for `recipe` and `search`, the mined pairs for `mine`. A change
that moves a digest on purpose re-pins it here.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = os.path.join(ROOT, "bench", "workloads.py")

PINNED = [
    ("recipe", 1, "c34de0389a07fa59e1d75742392b573f0a682ee081b4f34cd27ce6f25c4475b6"),
    ("search", 1, "91cda3304daa749c90358f420620c8abd3b4e4085e34be04bc834532c039c40b"),
    ("mine", 1, "97b0943701906e30d41e5b5b1d1b634deb78e0d49ace81c77a8cc230b99cd434"),
    ("mine", 2, "25260dd22c4bf451615087ceee59179bb036a8f0ffa03b53600f6595b43b5142"),
    ("mine", 3, "bc059b1d69fd5cb1439ebcd6d676de856b63603cee4f711b6e98ec108a8313f7"),
]


@pytest.mark.parametrize("workload, seed, digest", PINNED,
                         ids=[f"{w}-{s}" for w, s, _ in PINNED])
def test_one_repetition_gives_the_pinned_digest(tmp_path, workload, seed, digest):
    request = {"workload": workload, "seed": seed, "scale": "full", "trace": False,
               "evaluate_test": False, "work_dir": str(tmp_path)}
    proc = subprocess.run([sys.executable, WORKLOADS, json.dumps(request)], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    assert rep["ok"], rep.get("error")
    assert rep["checks"] == []
    assert rep["digest"] == digest
