import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import deskmt
from deskmt.util import (DataError, pair_runs_json, read_json, read_text, sorted_distinct,
                         stable_json_dumps, stable_json_object)


class TestJsonFromArrays:
    @settings(max_examples=200, deadline=None)
    @given(sizes=st.lists(st.integers(0, 4), max_size=6), width=st.none() | st.integers(0, 3),
           data=st.data())
    def test_pair_runs_are_the_stable_json_of_the_lists(self, sizes, width, data):
        n = sum(sizes)
        ids = data.draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n))
        values = data.draw(st.lists(st.sampled_from([0.0, 5e-324, 1e-05, 1e16, 1.0, 2])
                                    | st.floats(-1e300, 1e300), min_size=n, max_size=n))
        heads = data.draw(st.lists(st.lists(st.integers(0, 99), min_size=width or 0,
                                            max_size=width or 0),
                                   min_size=len(sizes), max_size=len(sizes)))
        runs, at = [], 0
        for size, head in zip(sizes, heads):
            pairs = [[i, float(v)] for i, v in zip(ids[at:at + size], values[at:at + size])]
            runs.append(pairs if width is None else [head, pairs])
            at += size
        text = pair_runs_json(np.array(ids, dtype=np.int64), np.array(values, dtype=float),
                              np.array(sizes, dtype=np.intp),
                              None if width is None else
                              np.array(heads, dtype=np.int64).reshape(len(sizes), width))
        assert text == stable_json_dumps(runs)

    def test_object_splices_texts_at_their_sorted_keys(self):
        members = {"z": [1, "é"], "a": 0.5, "m\"": None}
        texts = {"b": "[1,2]", "n": '{"x":1}'}
        assert stable_json_object(members, texts) == stable_json_dumps(
            members | {"b": [1, 2], "n": {"x": 1}})
        assert stable_json_object({}, {}) == "{}"


class TestReadText:
    def test_newlines_translated_as_text_mode_reading_does(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes("a\r\nb\rc\x0cd\u2028e".encode("utf-8"))
        text = read_text(str(path), "test file")
        with open(path, encoding="utf-8") as fh:
            assert text == fh.read()
        # \x0c and \u2028 end no line, unlike str.splitlines
        assert text.split("\n") == ["a", "b", "c\x0cd\u2028e"]

    def test_bad_utf8_is_located_by_line(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"a\r\nb\rc \xff\n")
        with pytest.raises(DataError, match=re.escape(f"{path}:3: test file is not valid UTF-8")):
            read_text(str(path), "test file")

    def test_missing_file_names_what_and_path(self, tmp_path):
        path = tmp_path / "missing.txt"
        with pytest.raises(DataError, match=re.escape(f"cannot read test file {path}")):
            read_text(str(path), "test file")


class TestReadJson:
    def test_object(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text('{"a": [1, 2]}\n', encoding="utf-8")
        assert read_json(str(path), "doc") == {"a": [1, 2]}

    @pytest.mark.parametrize("text, problem", [
        ('{"a": ', "doc is not JSON"),
        ("[1, 2]", "doc is not a JSON object"),
        ('"a"', "doc is not a JSON object"),
    ], ids=["truncated", "list", "string"])
    def test_not_an_object_is_data_error(self, tmp_path, text, problem):
        path = tmp_path / "d.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{path}: {problem}")):
            read_json(str(path), "doc")

    @pytest.mark.parametrize("text, problem", [
        ('{"a": ' + "[" * 100_000 + "]" * 100_000 + "}", "doc is nested too deeply to read"),
        ('{"a": [' + "9" * 5000 + "]}", "doc holds an integer too long to read"),
        ('{"a": -' + "1" * 4301 + "}", "doc holds an integer too long to read"),
    ], ids=["deep", "long-int", "negative-long-int"])
    def test_past_the_parser_limits_is_data_error(self, tmp_path, text, problem):
        path = tmp_path / "d.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{path}: {problem}")):
            read_json(str(path), "doc")


class TestSortedDistinct:
    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.integers(-5, 5), max_size=30), floats=st.booleans())
    def test_equals_np_unique(self, values, floats):
        array = np.array(values, dtype=np.float64 if floats else np.int64)
        got = sorted_distinct(array)
        assert got.dtype == array.dtype
        assert got.tolist() == np.unique(array).tolist()

    def test_a_fresh_process_never_imports_numpy_ma(self):
        # np.unique without options imports numpy.ma on first use; training
        # an LM, decoding and mining must not reach it
        script = """
import sys
from deskmt import mine, synth, tm
from deskmt.corpus import build_mix, swap_direction
from deskmt.lm import train_lm

spec = synth.make_spec(30, seed=5)
bundle = synth.gen_corpora(spec, {"parallel": 40, "mono_src": 12, "mono_tgt": 12,
                                  "dev": 2, "test": 2})
mix = build_mix([bundle.parallel])
trainer = tm.EMTrainer(mix)
trainer.step()
trainer.step()
model = trainer.snapshot(train_lm(list(bundle.mono_tgt.sentences), 3, 0.5))
lists = tm.translate_corpus(model, list(bundle.mono_src.sentences), 5)
channel = tm.em_train(swap_direction(mix), 2, src_lang="tgt", tgt_lang="src")
pairs = bundle.parallel.pairs
docs_a = [mine.WebDoc(f"example.com/{d}", tuple(s for s, _ in pairs[4 * d:4 * d + 4]),
                      lang="src") for d in range(3)]
docs_b = [mine.WebDoc(f"example.com/{d}?tr=1", tuple(t for _, t in pairs[4 * d:4 * d + 4]),
                      lang="tgt") for d in range(3)]
mined, matches = mine.mine_bitext(docs_a, docs_b, channel, doc_threshold=0.1, floor=-50.0)
assert len(lists) == 12 and mined and len(matches) == 3
assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
"""
        src = os.path.dirname(os.path.dirname(os.path.abspath(deskmt.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
