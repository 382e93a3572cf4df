"""n-best lists as arrays: `tm.NBestBlock` from the decoder through reranking
to the n-best file.

A decoded block is reranked, tuned on, read by BLEU and written to a file
from its arrays, and a file is read back into a block whose symbols are its
distinct tokens. The file path reranks to the bytes the decoder's own block
gives, and reading then writing a file the writer made gives back its bytes.
The reader checks the version header, each entry's list id and rank, and
that a score column is set on every entry or on none; any other file, also
one mutated line by line and field by field, loads or raises DataError.
"""

import dataclasses
import json
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deskmt import synth, tm
from deskmt.cli import EXIT_OK, main
from deskmt.corpus import SIDE_PARALLEL, UNK_TOKEN, TaggedDataset, build_mix, swap_direction
from deskmt.lm import lm_json, train_lm
from deskmt.rerank import (NoisyChannelWeights, RerankContext, read_nbest_file, rerank,
                           write_nbest_file)
from deskmt.subword import encode_dataset, learn_bpe
from deskmt.tm import NBestBlock, em_train, translate_corpus
from deskmt.util import DataError
from nbest_lists import nbest_lists
from test_cli_golden import FIXTURE as CLI_FIXTURE, run_sequence
from test_document_fuzz import _json_values
from test_tm import reference_marginal


@pytest.fixture(scope="module")
def system():
    """A bundle, BPE-encoded, with forward and backward models and an LM.
    The forward model's targets hold the unknown token, so its ext symbols
    spell it twice."""
    bundle = synth.gen_corpora(synth.make_spec(40, seed=11),
                               {"parallel": 60, "mono_src": 30, "mono_tgt": 30,
                                "dev": 10, "test": 10})
    bpe = learn_bpe([s for s, _ in bundle.parallel.pairs] + [t for _, t in bundle.parallel.pairs],
                    120)
    parallel = encode_dataset(bundle.parallel, bpe)
    pairs = list(parallel.pairs)
    pairs[0] = (pairs[0][0], pairs[0][1] + (UNK_TOKEN,))
    mix = build_mix([type(parallel)(parallel.name, parallel.side, parallel.tag,
                                    pairs=tuple(pairs))])
    fwd = em_train(mix, 2, lm_order=2, beam=3, window=1, lm_weight=0.4)
    bwd = em_train(swap_direction(mix), 2, lm_order=2, src_lang="tgt", tgt_lang="src")
    assert fwd._ext_vocab().count(UNK_TOKEN) == 2
    lm = train_lm([t for _, t in pairs], 3, 0.3)
    return {"bpe": bpe, "fwd": fwd, "bwd": bwd, "lm": lm,
            "mono": encode_dataset(bundle.mono_src, bpe)}


def sources_of(system):
    return list(system["mono"].sentences) + [("zz", "qq")]


def reread(block, path):
    """`block` written to `path` and read back."""
    write_nbest_file(block, path)
    return read_nbest_file(path)


def write_lines(tmp_path, lines, header="#nbest v1"):
    path = tmp_path / "nbest.txt"
    path.write_text("".join(line + "\n" for line in [header] + lines), encoding="utf-8")
    return str(path)


class TestBlock:
    def test_file_round_trip(self, system, tmp_path):
        block = translate_corpus(system["fwd"], sources_of(system), 6)
        again = reread(block, str(tmp_path / "nbest.txt"))
        lists = nbest_lists(block)
        assert again.sources == block.sources
        assert nbest_lists(again) == lists
        assert again.symbols == tuple(sorted({t for nb in lists for e in nb for t in e.hyp}))
        assert block.top_hyps() == [nb[0].hyp for nb in lists]
        assert block.sizes().tolist() == [len(nb) for nb in lists]
        assert block.hyps.dtype == np.min_scalar_type(len(block.symbols) - 1)
        assert again.hyps.dtype == np.min_scalar_type(len(again.symbols) - 1)

    def test_select_and_concat(self, system, tmp_path):
        # the sources differ in length, so the blocks' rows differ in width
        sources = sources_of(system)[:7]
        lists = nbest_lists(translate_corpus(system["fwd"], sources, 4))
        a = translate_corpus(system["fwd"], sources[:3], 4)
        b = translate_corpus(system["fwd"], sources[3:], 4)
        assert a.hyps.shape[1] != b.hyps.shape[1]
        joined = NBestBlock.concat([a, b])
        assert joined.sources == sources
        assert nbest_lists(joined) == lists
        order = np.array([6, 0, 3, 3, 1])
        assert nbest_lists(joined.select(order)) == [lists[k] for k in order.tolist()]
        with pytest.raises(ValueError):
            NBestBlock.concat([a, reread(b, str(tmp_path / "b.txt"))])

    def test_symbols_of_a_file_block_are_sorted_tokens(self, tmp_path):
        block = read_nbest_file(write_lines(tmp_path, [
            "#source 0 s", "0\t0\tb <unk> a\t-1.0\t-\t-\t-", "0\t1\t\t-2.0\t-\t-\t-",
            "#source 1 t", "1\t0\ta\t-0.5\t-\t-\t-"]))
        assert block.symbols == ("<unk>", "a", "b")
        assert block.lengths.tolist() == [3, 0, 1]
        assert block.offsets.tolist() == [0, 2, 3]
        assert nbest_lists(block) == [[(("b", "<unk>", "a"), -1.0, None, None, None),
                                       ((), -2.0, None, None, None)],
                                      [(("a",), -0.5, None, None, None)]]

    def test_an_empty_list_has_no_top(self, tmp_path):
        block = read_nbest_file(write_lines(tmp_path, ["#source 0 s"]))
        assert block.sizes().tolist() == [0]
        with pytest.raises(DataError):
            block.top_hyps()


class TestFileAndDecoderPathsAgree:
    @pytest.mark.parametrize("lambdas", [(0.0, 0.0), (0.7, 1.3), (2.5, 0.25)])
    def test_reranked_in_memory_writes_the_bytes_of_the_file_path(self, system, tmp_path,
                                                                  monkeypatch, lambdas):
        weights = NoisyChannelWeights(*lambdas)
        sources = sources_of(system)
        ctx = RerankContext(system["bwd"], system["lm"], weights, nbest=8)
        write_nbest_file(translate_corpus(system["fwd"], sources, 1, rerank_ctx=ctx),
                         str(tmp_path / "memory.txt"))
        write_nbest_file(translate_corpus(system["fwd"], sources, 8),
                         str(tmp_path / "plain.txt"))
        with open(tmp_path / "bwd.json", "w", encoding="utf-8") as fh:
            fh.write(tm.model_json(system["bwd"])[0])
        with open(tmp_path / "lm.json", "w", encoding="utf-8") as fh:
            fh.write(lm_json(system["lm"]))
        monkeypatch.chdir(tmp_path)
        assert main(["rerank", "--nbest-file", "plain.txt", "--channel-model", "bwd.json",
                     "--lm", "lm.json", "--lambda1", repr(lambdas[0]),
                     "--lambda2", repr(lambdas[1]), "--out", "file.txt"]) == EXIT_OK
        memory = (tmp_path / "memory.txt").read_bytes()
        assert (tmp_path / "file.txt").read_bytes() == memory
        # the two spellings of <unk> print alike, and some entry holds one
        assert UNK_TOKEN.encode() in memory
        plain = read_nbest_file("plain.txt")
        assert UNK_TOKEN in plain.symbols
        assert len(plain.symbols) < len(system["fwd"]._ext_vocab())


class TestRerankedBlock:
    def test_scores_follow_their_entries(self, system):
        block = translate_corpus(system["fwd"], sources_of(system), 8)
        w = NoisyChannelWeights(1.1, 0.4)
        out = rerank(block, system["bwd"], system["lm"], w)
        assert out.offsets.tolist() == block.offsets.tolist()
        assert out.combined.tolist() == (out.fwd + w.lambda1 * out.channel
                                         + w.lambda2 * out.lm).tolist()
        for k, (before, after) in enumerate(zip(nbest_lists(block), nbest_lists(out))):
            assert sorted((e.hyp, e.fwd) for e in before) == \
                sorted((e.hyp, e.fwd) for e in after)
            combined = [e.combined for e in after]
            assert combined == sorted(combined, reverse=True)
            e = after[random.Random(k).randrange(len(after))]
            assert e.channel == reference_marginal(system["bwd"], e.hyp, out.sources[k])


class TestWrittenFilesReadBack:
    """Reading then writing a file the writer made gives back its bytes."""

    def blocks(self, system):
        sources = sources_of(system)[:5]
        plain = translate_corpus(system["fwd"], sources, 4)
        reranked = rerank(plain, system["bwd"], system["lm"], NoisyChannelWeights(0.9, 0.6))
        empty = translate_corpus(system["fwd"], [], 4)
        return {"plain": plain, "reranked": reranked, "no lists": empty,
                "channel only": dataclasses.replace(plain, channel=reranked.channel),
                "an empty list": NBestBlock.concat([plain, plain.take(
                    np.zeros(0, dtype=np.intp), np.zeros(2, dtype=np.intp), [("s",)])])}

    def test_read_then_write_is_the_identity(self, system, tmp_path):
        for kind, block in self.blocks(system).items():
            first, second = tmp_path / f"{kind}.1", tmp_path / f"{kind}.2"
            loaded = reread(block, str(first))
            write_nbest_file(loaded, str(second))
            assert second.read_bytes() == first.read_bytes(), kind
            assert loaded.sources == block.sources
            assert nbest_lists(loaded) == nbest_lists(block), kind

    def test_cli_golden_files(self, tmp_path):
        with open(CLI_FIXTURE, encoding="utf-8") as fh:
            expected = json.load(fh)["files"]
        got = run_sequence(str(tmp_path), {"synth-gen", "learn-bpe", "train-fwd",
                                           "train-swap", "translate-beam",
                                           "translate-rerank", "rerank"})["files"]
        for name in ("beam.nbest", "rerank.nbest", "reranked.nbest"):
            assert got[name] == expected[name]
            block = read_nbest_file(str(tmp_path / name))
            write_nbest_file(block, str(tmp_path / (name + ".again")))
            assert (tmp_path / (name + ".again")).read_bytes() == \
                (tmp_path / name).read_bytes(), name


class TestReaderChecks:
    @pytest.mark.parametrize("header", ["#nbest v10", "#nbest v1 ", "#nbest v2", "#nbest",
                                        "", "0\t0\tt0\t-1.0\t-\t-\t-"])
    def test_header_must_be_the_version_line(self, tmp_path, header):
        path = write_lines(tmp_path, ["#source 0 s0", "0\t0\tt0\t-1.0\t-\t-\t-"], header)
        with pytest.raises(DataError,
                           match=rf"^{re.escape(path)}: unsupported n-best file version"):
            read_nbest_file(path)

    @pytest.mark.parametrize("lines, bad_line, what", [
        pytest.param(["#source 0 s0", "0\tabc\tt0\t-1.0\t-\t-\t-"], 3, "rank", id="not-a-rank"),
        pytest.param(["#source 0 s0", "0\t\tt0\t-1.0\t-\t-\t-"], 3, "rank", id="empty-rank"),
        pytest.param(["#source 0 s0", "0\t1\tt0\t-1.0\t-\t-\t-"], 3, "rank", id="rank-skipped"),
        pytest.param(["#source 0 s0", "0\t0\tt0\t-1.0\t-\t-\t-", "0\t0\tt1\t-2.0\t-\t-\t-"],
                     4, "rank", id="rank-repeated"),
        pytest.param(["#source 0 s0", "0\t00\tt0\t-1.0\t-\t-\t-"], 3, "rank", id="rank-spelled"),
        pytest.param(["#source 0 a", "#source 1 b", "0\t0\tt0\t-1.0\t-\t-\t-"], 4,
                     "sentence id", id="entry-of-an-earlier-list"),
        pytest.param(["#source 0 a", "0\t0\tt0\t-1.0\t-\t-\t-", "#source 1 b",
                      "0\t1\tt1\t-2.0\t-\t-\t-"], 5, "sentence id", id="list-resumed"),
    ])
    def test_rank_and_list_of_an_entry(self, tmp_path, lines, bad_line, what):
        with pytest.raises(DataError, match=rf"nbest\.txt:{bad_line}: {what}"):
            read_nbest_file(write_lines(tmp_path, lines))

    @pytest.mark.parametrize("column", ["channel", "lm", "combined"])
    def test_a_column_set_on_some_entries_only(self, tmp_path, column):
        scores = {"channel": "-2.0\t-\t-", "lm": "-\t-3.0\t-", "combined": "-\t-\t-4.0"}
        path = write_lines(tmp_path, ["#source 0 s0", "0\t0\tt0\t-1.0\t-\t-\t-",
                                      "#source 1 s1", f"1\t0\tt1\t-1.0\t{scores[column]}"])
        with pytest.raises(DataError, match=rf"^{re.escape(path)}: {column} scores set on some"):
            read_nbest_file(path)

    @pytest.mark.parametrize("column", [0, 1, 2, 3])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400", "-1e400", "NaN"])
    def test_a_non_finite_score(self, tmp_path, column, value):
        # column 0 is fwd; the others are set on both entries, so only the
        # bad value can fail the read
        names = ("fwd", "channel", "lm", "combined")
        good = ["-1.0", "-2.0", "-3.0", "-4.0"]
        bad = list(good)
        bad[column] = value
        path = write_lines(tmp_path, ["#source 0 s0", "0\t0\tt0\t" + "\t".join(good),
                                      "0\t1\tt1\t" + "\t".join(bad)])
        with pytest.raises(DataError, match=rf"^{re.escape(path)}:4: {names[column]} score "
                                            rf"'{re.escape(value)}' is not finite"):
            read_nbest_file(path)


def _fuzz_blocks():
    """The texts of a plain and a reranked n-best file of three sources."""
    pairs = (("a b", "x y"), ("b c", "y z"), ("a", "x"), ("c a b", "z x y"))
    mix = build_mix([TaggedDataset("d", SIDE_PARALLEL, "<t>", pairs=tuple(
        (tuple(s.split()), tuple(t.split())) for s, t in pairs))])
    fwd = em_train(mix, 2, lm_order=2, beam=3, window=1, lm_weight=0.4)
    bwd = em_train(swap_direction(mix), 2, lm_order=2, src_lang="tgt", tgt_lang="src")
    plain = translate_corpus(fwd, [("a", "b"), ("c", "zz"), ("b",)], 3)
    reranked = rerank(plain, bwd, fwd.lm, NoisyChannelWeights(1.0, 0.5))
    return {"plain": plain, "reranked": reranked}


FUZZ_BLOCKS = _fuzz_blocks()
# the values a fuzzed field takes: the file's own troublemakers, then any
# JSON value's text
_field_values = (st.sampled_from(["abc", "nan", "1e400", str(10**400), str(-10**400), "",
                                  "-", "0", "1", "-1.0"])
                 | _json_values.map(str))


@pytest.fixture(scope="module")
def fuzz_texts(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    texts = {}
    for kind, block in FUZZ_BLOCKS.items():
        path = str(root / f"{kind}.nbest")
        write_nbest_file(block, path)
        with open(path, encoding="utf-8") as fh:
            texts[kind] = fh.read()
    return root, texts


@pytest.mark.parametrize("kind", sorted(FUZZ_BLOCKS))
@settings(max_examples=400, deadline=None, derandomize=True)
@given(op=st.sampled_from(["delete", "swap", "drop field", "add field", "set field"]),
       at=st.integers(min_value=0), other=st.integers(min_value=0),
       field=st.integers(min_value=0), value=_field_values)
def test_a_mutated_file_loads_or_raises_data_error(fuzz_texts, kind, op, at, other, field,
                                                  value):
    root, texts = fuzz_texts
    lines = texts[kind].split("\n")[:-1]
    at, other = at % len(lines), other % len(lines)
    fields = lines[at].split("\t")
    if op == "delete":
        del lines[at]
    elif op == "swap":
        lines[at], lines[other] = lines[other], lines[at]
    elif op == "drop field":
        del fields[field % len(fields)]
        lines[at] = "\t".join(fields)
    elif op == "add field":
        fields.insert(field % (len(fields) + 1), value)
        lines[at] = "\t".join(fields)
    else:
        fields[field % len(fields)] = value
        lines[at] = "\t".join(fields)
    path = str(root / "mutated.nbest")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines))
    try:
        read_nbest_file(path)
    except DataError as e:
        assert path in str(e)
