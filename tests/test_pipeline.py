import json
import os
import re
import shutil
import weakref
from pathlib import Path

import numpy as np
import pytest

from deskmt.corpus import (
    TAG_BACK_TRANSLATED,
    TAG_SELF_TRAINED,
    TaggedDataset,
    build_mix,
    load_corpus,
    save_corpus,
)
from deskmt.ensemble import Ensemble
from deskmt.lm import RowTable
from deskmt.pipeline import PipelineConfig, PipelineManifest, run_pipeline
from deskmt.rerank import write_nbest_file
from deskmt.search import SearchSpace, TrialConfig, default_search_space
from deskmt.subword import learn_bpe, save_bpe
from deskmt.synth import gen_corpora, make_spec
from deskmt.tm import NBestBlock, em_train
from deskmt.util import DataError, read_json, sha256_bytes, sha256_text
from reference_docs import model_to_dict


def tiny_bundle(seed=3):
    spec = make_spec(vocab_size=24, seed=seed, min_len=2, max_len=5)
    return gen_corpora(spec, {"parallel": 60, "mono_src": 40, "mono_tgt": 40,
                              "dev": 20, "test": 20})


def tiny_space():
    return SearchSpace(dims={
        "em_iterations": [2], "lm_order": [2], "smoothing_k": [0.3],
        "lm_weight": [0.3, 0.5], "window": [0, 1], "beam": [2],
        "up_bitext": [1, 2], "up_fwd": [1], "up_bt": [1]})


def tiny_config(**kw):
    defaults = dict(iterations=1, trials=2, topk=2, seed=7, bpe_vocab=80, nbest=4,
                    tune_trials=3, finetune_steps=1, search_space=tiny_space(),
                    init_config=TrialConfig(em_iterations=2, lm_order=2, beam=2,
                                            window=1))
    defaults.update(kw)
    return PipelineConfig(**defaults)


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    bundle = tiny_bundle()
    run_dir = str(tmp_path_factory.mktemp("run"))
    config = tiny_config(iterations=2)
    manifest = run_pipeline(bundle.parallel, bundle.mono_src, bundle.mono_tgt,
                            bundle.dev, run_dir, config)
    return bundle, config, run_dir, manifest


class TestStructure:
    def test_single_iteration_populates_both_directions(self, tmp_path):
        bundle = tiny_bundle(seed=5)
        manifest = run_pipeline(bundle.parallel, bundle.mono_src, bundle.mono_tgt,
                                bundle.dev, str(tmp_path / "r"),
                                tiny_config(iterations=1, trials=1, topk=1))
        assert len(manifest.data["iterations"]) == 1
        record = manifest.data["iterations"][0]
        for side in ("fwd", "bwd"):
            assert record["ensembles"][side]["model_hash"]
            assert record["trials"][side]
            assert record["dev_bleu"][side] >= 0.0
            assert len(record["lambdas"][side]) == 2

    def test_all_stages_completed(self, finished_run):
        _, config, _, manifest = finished_run
        expected = ["setup", "init"] + [f"iter{t}" for t in
                                        range(1, config.iterations + 1)]
        assert manifest.data["stages_completed"] == expected

    def test_artifacts_verify(self, finished_run):
        _, _, _, manifest = finished_run
        manifest.verify(manifest.data["bpe"])
        for side in ("fwd", "bwd"):
            manifest.verify(manifest.data["rerank_lms"][side])
            manifest.verify(manifest.data["init"][side]["model"])
        for record in manifest.data["iterations"]:
            manifest.verify(record["synthetic"]["F"])
            manifest.verify(record["synthetic"]["B"])
            for side in ("fwd", "bwd"):
                manifest.verify(record["ensembles"][side])

    def test_synthetic_data_is_tagged(self, finished_run):
        _, _, run_dir, manifest = finished_run
        record = manifest.data["iterations"][0]
        assert record["synthetic"]["F"]["tag"] == TAG_SELF_TRAINED
        assert record["synthetic"]["B"]["tag"] == TAG_BACK_TRANSLATED

    def test_provenance_chain(self, finished_run):
        # iteration-2 synthetic data must come from the iteration-1 ensembles
        _, _, _, manifest = finished_run
        it1, it2 = manifest.data["iterations"]
        assert it2["synthetic"]["F"]["provenance"]["generator"] == \
            it1["ensembles"]["fwd"]["model_hash"]
        assert it2["synthetic"]["B"]["provenance"]["generator"] == \
            it1["ensembles"]["bwd"]["model_hash"]
        assert it1["synthetic"]["F"]["provenance"]["generator"] == \
            manifest.data["init"]["fwd"]["model"]["model_hash"]

    def test_trials_of_a_round_are_distinct_models(self, finished_run):
        _, config, _, manifest = finished_run
        for record in manifest.data["iterations"]:
            for side in ("fwd", "bwd"):
                trials = record["trials"][side]
                assert len(trials) == config.trials
                assert len({json.dumps(r["config"], sort_keys=True) for r in trials}) \
                    == config.trials
                assert len({r["model_hash"] for r in trials}) == config.trials

    def test_finetune_only_at_last_iteration(self, finished_run):
        _, _, _, manifest = finished_run
        it1, it2 = manifest.data["iterations"]
        assert not it1["finetuned"]
        assert it2["finetuned"]


class TestDeterminismAndResume:
    def test_identical_manifests_across_run_dirs(self, tmp_path):
        bundle = tiny_bundle(seed=11)
        config = tiny_config()
        dirs = [str(tmp_path / "a"), str(tmp_path / "b")]
        for d in dirs:
            run_pipeline(bundle.parallel, bundle.mono_src, bundle.mono_tgt,
                         bundle.dev, d, config)
        blobs = [Path(d, "manifest.json").read_bytes() for d in dirs]
        assert blobs[0] == blobs[1]

    def test_resume_skips_and_reproduces(self, finished_run):
        bundle, config, run_dir, _ = finished_run
        before = Path(run_dir, "manifest.json").read_bytes()
        again = run_pipeline(bundle.parallel, bundle.mono_src, bundle.mono_tgt,
                             bundle.dev, run_dir, config)
        after = Path(run_dir, "manifest.json").read_bytes()
        assert before == after
        assert again.data["stages_completed"] == ["setup", "init", "iter1", "iter2"]

    def test_partial_run_resumes_to_same_result(self, tmp_path):
        bundle = tiny_bundle(seed=13)
        run_dir = str(tmp_path / "r")
        short = tiny_config(iterations=1)
        full = tiny_config(iterations=2)
        # an interrupted 2-iteration run looks like a completed 1-iteration
        # prefix: stages carry over because seeds are stage-local
        run_pipeline(bundle.parallel, bundle.mono_src, bundle.mono_tgt,
                     bundle.dev, str(tmp_path / "ref"), full)
        with pytest.raises(DataError):
            # different params -> different run id -> refuse to mix directories
            run_pipeline(bundle.parallel, bundle.mono_src, bundle.mono_tgt,
                         bundle.dev, str(tmp_path / "ref"), short)

    def test_mismatched_run_dir_rejected(self, finished_run, tmp_path):
        bundle, config, run_dir, _ = finished_run
        other = tiny_bundle(seed=99)
        with pytest.raises(DataError):
            run_pipeline(other.parallel, other.mono_src, other.mono_tgt,
                         other.dev, run_dir, config)


class TestParallelOnly:
    def test_completes_without_monolingual_data(self, tmp_path):
        bundle = tiny_bundle(seed=17)
        manifest = run_pipeline(bundle.parallel, None, None, bundle.dev,
                                str(tmp_path / "r"), tiny_config())
        assert manifest.data["inputs"]["parallel_only"] is True
        assert len(manifest.data["iterations"]) == 1

    def test_synthetic_data_comes_from_bitext_sides(self, tmp_path):
        bundle = tiny_bundle(seed=19)
        run_dir = str(tmp_path / "r")
        manifest = run_pipeline(bundle.parallel, None, None, bundle.dev, run_dir,
                                tiny_config(trials=1, topk=1))
        record = manifest.data["iterations"][0]
        f_path = manifest.artifact_path(record["synthetic"]["F"])
        st = load_corpus(f_path, "parallel", tag=TAG_SELF_TRAINED)
        n_sources = len({src for src, _ in st.pairs})
        bitext_sources = {tuple(s) for s, _ in bundle.parallel.pairs}
        assert 0 < len(st.pairs) <= len(bundle.parallel.pairs)
        # sources are the bitext's own (BPE re-encoded) source sentences
        assert n_sources <= len(bitext_sources)

    def test_default_single_iteration(self, tmp_path):
        bundle = tiny_bundle(seed=23)
        manifest = run_pipeline(bundle.parallel, None, None, bundle.dev,
                                str(tmp_path / "r"), tiny_config())
        assert manifest.data["params"]["iterations"] == 1


class TestValidation:
    def test_bad_parameters_rejected(self, tmp_path):
        bundle = tiny_bundle(seed=29)
        with pytest.raises(DataError):
            run_pipeline(bundle.parallel, bundle.mono_src, bundle.mono_tgt,
                         bundle.dev, str(tmp_path / "r"),
                         tiny_config(trials=1, topk=2))
        with pytest.raises(DataError):
            run_pipeline(bundle.parallel, bundle.mono_src, bundle.mono_tgt,
                         bundle.dev, str(tmp_path / "r"), tiny_config(iterations=0))

    def test_more_trials_than_distinct_configs_rejected_before_any_stage(self, tmp_path):
        bundle = tiny_bundle(seed=29)
        run_dir = tmp_path / "r"
        with pytest.raises(DataError, match="9 distinct configurations"):
            run_pipeline(bundle.parallel, bundle.mono_src, bundle.mono_tgt,
                         bundle.dev, str(run_dir), tiny_config(trials=9))
        assert not run_dir.exists()

    def test_more_than_one_worker_rejected(self, tmp_path):
        bundle = tiny_bundle(seed=29)
        with pytest.raises(DataError, match="workers"):
            run_pipeline(bundle.parallel, bundle.mono_src, bundle.mono_tgt,
                         bundle.dev, str(tmp_path / "r"), tiny_config(workers=2))
        assert not os.path.exists(tmp_path / "r")

    @pytest.mark.parametrize("doc", [
        {"version": 1},
        {"version": 1, "run_id": "x", "stages_completed": []},
        {"version": 1, "run_id": 7, "stages_completed": [], "iterations": []},
        {"version": 1, "run_id": "x", "stages_completed": "setup", "iterations": []},
        [1],
    ], ids=["no-run-id", "no-iterations", "int-run-id", "str-stages", "list"])
    def test_malformed_manifest_is_data_error(self, tmp_path, doc):
        (tmp_path / "manifest.json").write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(str(tmp_path / "manifest.json"))):
            PipelineManifest.load(str(tmp_path))
        bundle = tiny_bundle(seed=29)
        with pytest.raises(DataError):
            run_pipeline(bundle.parallel, bundle.mono_src, bundle.mono_tgt,
                         bundle.dev, str(tmp_path), tiny_config())


class TestResumeChecksStageRecords:
    @pytest.mark.parametrize("edit, key", [
        (lambda data: data.pop("bpe"), "bpe"),
        (lambda data: data.pop("rerank_lms"), "rerank_lms"),
        (lambda data: data.pop("init"), "init"),
        (lambda data: data.update(iterations=[]), "iterations"),
        (lambda data: data["bpe"].pop("path"), "path"),
        (lambda data: data["init"]["fwd"].update(lambdas=[9.0]), "lambdas"),
    ], ids=["no-bpe", "no-rerank-lms", "no-init", "no-iteration-record",
            "bpe-without-path", "one-lambda"])
    def test_malformed_record_is_data_error(self, finished_run, tmp_path, edit, key):
        bundle, config, run_dir, _ = finished_run
        copy = str(tmp_path / "run")
        shutil.copytree(run_dir, copy)
        path = os.path.join(copy, "manifest.json")
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        edit(data)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        with pytest.raises(DataError, match=re.escape(repr(key))):
            run_pipeline(bundle.parallel, bundle.mono_src, bundle.mono_tgt,
                         bundle.dev, copy, config)


def _first_init_member(run_dir):
    """Hash and file path of the first member of the saved forward init ensemble."""
    with open(os.path.join(run_dir, "manifest.json"), encoding="utf-8") as fh:
        ref = json.load(fh)["init"]["fwd"]["model"]
    with open(os.path.join(run_dir, ref["path"]), encoding="utf-8") as fh:
        member = json.load(fh)["members"][0]
    return member, os.path.join(run_dir, "artifacts", "models", f"{member}.json")


class TestResumeChecksEnsembleMembers:
    @pytest.mark.parametrize("text, problem", [
        ('{"trunc', "is not JSON"),
        ("[1]", "is not a JSON object"),
    ], ids=["truncated", "list"])
    def test_broken_member_is_data_error(self, finished_run, tmp_path, text, problem):
        bundle, config, run_dir, _ = finished_run
        copy = str(tmp_path / "run")
        shutil.copytree(run_dir, copy)
        member, path = _first_init_member(copy)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with pytest.raises(DataError, match=f"{member} {problem}"):
            run_pipeline(bundle.parallel, bundle.mono_src, bundle.mono_tgt,
                         bundle.dev, copy, config)


class TestLMCaches:
    def test_no_table_keeps_a_top_order_row_of_a_part(self, tmp_path, monkeypatch):
        # every row table of the run, kept past its eviction from the cache,
        # with its LM's parts' orders
        created = []
        init = RowTable.__init__

        def recording_init(self, model, symbols):
            init(self, model, symbols)
            created.append((self, [part.order for _, part in model.parts]))

        monkeypatch.setattr(RowTable, "__init__", recording_init)
        bundle = tiny_bundle(seed=31)
        run_pipeline(bundle.parallel, bundle.mono_src, bundle.mono_tgt, bundle.dev,
                     str(tmp_path / "r"), tiny_config())
        assert created and any(any(table._lower) for table, _ in created)
        for table, orders in created:
            for kept, order in zip(table._lower, orders):
                assert all(level < order for level, _ in kept)


class TestNoRecomputation:
    def test_no_decode_is_repeated(self, tmp_path, monkeypatch):
        import deskmt.tm as tm
        bundle = tiny_bundle()
        for sentences in (bundle.mono_src.sentences, bundle.mono_tgt.sentences,
                          [s for s, _ in bundle.dev.pairs],
                          [t for _, t in bundle.dev.pairs]):
            assert len(set(sentences)) == len(sentences)  # a repeat is the code's
        decode = tm._decode_block
        seen, repeats, decoders = set(), [], []

        def counting(model, block, width, n):
            for x in block:  # every source of every block the corpus decoder runs
                key = (id(model), tuple(x), n)
                (repeats.append if key in seen else seen.add)(key)
            decoders.append(model)  # keeps every id unique for the whole run
            return decode(model, block, width, n)

        monkeypatch.setattr(tm, "_decode_block", counting)
        run_pipeline(bundle.parallel, bundle.mono_src, bundle.mono_tgt, bundle.dev,
                     str(tmp_path / "r"), tiny_config(iterations=2, finetune_steps=2))
        assert seen and repeats == []

    def test_final_dev_bleu_is_rerank_dev_bleu(self, finished_run):
        from deskmt.lm import lm_from_dict
        from deskmt.metrics import EvalContext, evaluate_system
        from deskmt.corpus import swap_dataset
        from deskmt.pipeline import load_model
        from deskmt.rerank import NoisyChannelWeights, RerankContext
        from deskmt.subword import encode_dataset, load_bpe

        bundle, config, _, manifest = finished_run
        data = manifest.data
        bpe = load_bpe(manifest.verify(data["bpe"]))
        lms = {side: lm_from_dict(read_json(manifest.verify(ref), "language model"))
               for side, ref in data["rerank_lms"].items()}
        final = data["iterations"][-1]
        fwd = load_model(manifest, final["ensembles"]["fwd"])
        bwd = load_model(manifest, final["ensembles"]["bwd"])
        dev = encode_dataset(bundle.dev, bpe)
        ctx = EvalContext(bpe=bpe)
        got = {}
        for d, model, channel, ds in (("fwd", fwd, bwd, dev),
                                      ("bwd", bwd, fwd, swap_dataset(dev))):
            rerank_ctx = RerankContext(channel, lms[d],
                                       NoisyChannelWeights(*final["lambdas"][d]),
                                       config.nbest)
            got[d] = evaluate_system(model, ds, "rerank", rerank_ctx=rerank_ctx,
                                     eval_ctx=ctx, nbest=config.nbest).bleu
        assert got == final["dev_bleu"]

    def test_memoized_model_hash_matches_fresh_and_saved(self, tmp_path, monkeypatch):
        import deskmt.tm as tm
        from deskmt.pipeline import _save_model
        from deskmt.util import content_hash

        bundle = tiny_bundle()
        mix = build_mix([bundle.parallel])
        fresh = content_hash(model_to_dict(em_train(mix, 2)))
        hashed_first = em_train(mix, 2)
        saved_first = em_train(mix, 2)
        assert tm.model_hash(hashed_first) == fresh
        ref = _save_model(str(tmp_path), saved_first)
        assert ref["model_hash"] == fresh

        text = (tmp_path / ref["path"]).read_text(encoding="utf-8")
        assert content_hash(json.loads(text)) == fresh
        assert sha256_text(text.rstrip("\n")) == fresh

        def no_serialization(*args):
            raise AssertionError("model_hash serialized a model twice")

        # every serialization of a model writes its text here
        monkeypatch.setattr(tm, "_lex_json", no_serialization)
        assert tm.model_hash(hashed_first) == fresh
        assert tm.model_hash(saved_first) == fresh
        assert tm.model_hash(Ensemble([hashed_first, saved_first])) == \
            content_hash({"kind": "ensemble", "members": [fresh, fresh]})


def _round_config():
    return tiny_config(trials=5, topk=2, finetune_steps=2)


@pytest.mark.hashseed
class TestRoundHoldsTheRunningTopK:
    """A round saves each trial's final model when the trial ends and keeps
    alive only the models of each direction's running top-k."""

    def test_after_each_save_only_the_running_top_k_and_the_trial_in_flight_live(
            self, tmp_path, monkeypatch):
        import deskmt.pipeline as pipeline
        import deskmt.tm as tm

        snapshots = []  # every model EMTrainer.snapshot returns, by weak reference
        snapshot = tm.EMTrainer.snapshot

        def recording(trainer, lm, **settings):
            model = snapshot(trainer, lm, **settings)
            snapshots.append(weakref.ref(model))
            return model

        saves = []  # per saved model: its hash, and the hashes of the live snapshots
        save_model = pipeline._save_model

        def checking(run_dir, model):
            ref = save_model(run_dir, model)
            if not isinstance(model, Ensemble):
                live = (alive() for alive in snapshots)
                # a model that was never saved has no memoized hash: None
                saves.append((ref["model_hash"],
                               {m._caches.get("hash") for m in live if m is not None}))
            return ref

        monkeypatch.setattr(tm.EMTrainer, "snapshot", recording)
        monkeypatch.setattr(pipeline, "_save_model", checking)
        bundle = tiny_bundle(seed=5)
        config = _round_config()
        manifest = run_pipeline(bundle.parallel, bundle.mono_src, bundle.mono_tgt,
                                bundle.dev, str(tmp_path / "r"), config)

        def top_k(records, n):
            ranked = sorted(range(n), key=lambda j: (-records[j]["dev_bleu"], j))
            return {records[j]["model_hash"] for j in ranked[:config.topk]}

        # the init stage saves each direction's one member first
        assert len(saves) == 2 + 2 * config.trials
        systems = {saves[0][0], saves[1][0]}
        events = iter(saves[2:])
        held = set()  # the top-k of the directions whose search has ended
        for d, records in manifest.data["iterations"][0]["trials"].items():
            for i, record in enumerate(records):
                saved, live = next(events)
                assert saved == record["model_hash"] and saved in live
                assert live <= systems | held | top_k(records, i) | {saved}
            held |= top_k(records, len(records))
        assert len(snapshots) > len(saves)

    @pytest.fixture(scope="class")
    def uninterrupted(self, tmp_path_factory):
        bundle = tiny_bundle(seed=11)
        run_dir = str(tmp_path_factory.mktemp("uninterrupted"))
        run_pipeline(bundle.parallel, bundle.mono_src, bundle.mono_tgt, bundle.dev,
                     run_dir, _round_config())
        return (bundle, Path(run_dir, "manifest.json").read_bytes(),
                sorted(os.listdir(os.path.join(run_dir, "artifacts/models"))))

    # round 1 saves 5 forward trials, 5 backward ones, then the two
    # ensembles; the init stage saves 4 models before it
    @pytest.mark.parametrize("k", [1, 7, 12])
    def test_crash_at_a_model_save_then_rerun_gives_the_same_run(
            self, uninterrupted, tmp_path, monkeypatch, k):
        import deskmt.pipeline as pipeline

        bundle, manifest_bytes, models = uninterrupted
        run_dir = str(tmp_path / "r")
        save_model = pipeline._save_model
        saves = 0

        def crashing(directory, model):
            nonlocal saves
            saves += 1
            if saves == 4 + k:
                raise _Crash(f"simulated crash at round 1's model save {k}")
            return save_model(directory, model)

        with monkeypatch.context() as m:
            m.setattr(pipeline, "_save_model", crashing)
            with pytest.raises(_Crash):
                run_pipeline(bundle.parallel, bundle.mono_src, bundle.mono_tgt,
                             bundle.dev, run_dir, _round_config())
        assert read_json(os.path.join(run_dir, "manifest.json"),
                         "manifest")["stages_completed"] == ["setup", "init"]
        run_pipeline(bundle.parallel, bundle.mono_src, bundle.mono_tgt, bundle.dev,
                     run_dir, _round_config())
        assert Path(run_dir, "manifest.json").read_bytes() == manifest_bytes
        assert sorted(os.listdir(os.path.join(run_dir, "artifacts/models"))) == models


class _Crash(Exception):
    pass


class _HalfWriter:
    """Writes the first half of the text, then dies."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()
        return False

    def write(self, text):
        self.fh.write(text[:len(text) // 2])
        self.fh.flush()
        raise _Crash("simulated crash mid-write")


_BPE_CORPUS = [("abcabc", "abab")] * 3


def _parallel(n):
    return TaggedDataset("p", "parallel", "<d:in>", pairs=((("a",) * n, ("b",)),))


def _nbest(n):
    """One list of source a: n entries b, b b, ... scored -1, -2, ..."""
    return NBestBlock([("a",)], ("b",), np.zeros((n, n), dtype=np.uint8),
                      np.arange(1, n + 1), -1.0 - np.arange(n), np.array([0, n]))


class TestCrashSafety:
    @pytest.mark.parametrize("save,first,second", [
        (save_bpe, learn_bpe(_BPE_CORPUS, 4), learn_bpe(_BPE_CORPUS, 6)),
        (save_corpus, _parallel(1), _parallel(3)),
        (SearchSpace.save, tiny_space(), default_search_space()),
        (write_nbest_file, _nbest(1), _nbest(3)),
    ], ids=["save_bpe", "save_corpus", "SearchSpace.save", "write_nbest_file"])
    def test_crash_mid_write_keeps_previous_file(self, tmp_path, monkeypatch, save,
                                                 first, second):
        import deskmt.util as util
        path = str(tmp_path / "artifact.txt")
        save(first, path)
        text = Path(path).read_text(encoding="utf-8")
        real_open = open
        monkeypatch.setattr(util, "open",
                            lambda p, mode="r", **kw: _HalfWriter(real_open(p, mode, **kw)),
                            raising=False)
        with pytest.raises(_Crash):
            save(second, path)
        assert Path(path).read_text(encoding="utf-8") == text
        assert not os.path.exists(path + ".tmp")

    @pytest.mark.parametrize("text,data", [
        ("{}", b"{}\n"), ("{}\n", b"{}\n"), ("", b"\n"),
        ('{"w":"é中😀"}', '{"w":"é中😀"}\n'.encode("utf-8")),
    ])
    def test_text_artifact_is_the_bytes_it_hashes(self, tmp_path, text, data):
        from deskmt.pipeline import _write_text_artifact
        ref = _write_text_artifact(str(tmp_path), "artifacts/x.json", text)
        assert ref == {"path": "artifacts/x.json", "hash": sha256_bytes(data)}
        assert Path(tmp_path, "artifacts", "x.json").read_bytes() == data
        assert not os.path.exists(Path(tmp_path, "artifacts", "x.json.tmp"))

    @pytest.mark.parametrize("target", ["manifest.json", "artifacts/models/",
                                        "artifacts/bpe.txt", "artifacts/datasets/"])
    def test_crash_mid_write_keeps_previous_and_rerun_matches(self, tmp_path,
                                                              monkeypatch, target):
        import deskmt.util as util
        bundle = tiny_bundle(seed=11)
        config = tiny_config()
        ref_dir = str(tmp_path / "ref")
        run_pipeline(bundle.parallel, bundle.mono_src, bundle.mono_tgt, bundle.dev,
                     ref_dir, config)
        expected = Path(ref_dir, "manifest.json").read_bytes()

        run_dir = str(tmp_path / "crash")
        manifest_path = os.path.join(run_dir, "manifest.json")
        real_open = open
        hits = []
        before = {}

        def faulty_open(path, mode="r", **kwargs):
            rel = os.path.relpath(path, run_dir)
            if "w" not in mode or not rel.startswith(target):
                return real_open(path, mode, **kwargs)
            hits.append(rel)
            # manifest: crash from its third write (init done) onward
            if target.startswith("artifacts") or len(hits) >= 3:
                final = path[:-len(".tmp")] if path.endswith(".tmp") else path
                if final not in before:
                    before[final] = (Path(final).read_bytes()
                                     if os.path.exists(final) else None)
                return _HalfWriter(real_open(path, mode, **kwargs))
            return real_open(path, mode, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(util, "open", faulty_open, raising=False)
            with pytest.raises(_Crash):
                run_pipeline(bundle.parallel, bundle.mono_src, bundle.mono_tgt,
                             bundle.dev, run_dir, config)
        assert before
        for path, content in before.items():
            now = Path(path).read_bytes() if os.path.exists(path) else None
            assert now == content  # the previous file, or none, is intact
            assert not os.path.exists(path + ".tmp")
        json.loads(Path(manifest_path).read_bytes())

        run_pipeline(bundle.parallel, bundle.mono_src, bundle.mono_tgt, bundle.dev,
                     run_dir, config)
        assert Path(manifest_path).read_bytes() == expected


@pytest.fixture(scope="module")
def parallel_only_run(tmp_path_factory):
    bundle = tiny_bundle()
    run_dir = str(tmp_path_factory.mktemp("parallel-only"))
    run_pipeline(bundle.parallel, None, None, bundle.dev, run_dir,
                 tiny_config(iterations=2))
    return Path(run_dir, "manifest.json").read_bytes()


class TestResumeAtEveryStageBoundary:
    """A run that dies right after a stage is recorded resumes from the
    restored stage state to the manifest of a run that never stopped."""

    @pytest.mark.parametrize("stage", ["setup", "init", "iter1"])
    @pytest.mark.parametrize("pools", ["mono", "parallel-only"])
    def test_crash_after_stage_resumes_to_same_manifest(
            self, finished_run, parallel_only_run, tmp_path, monkeypatch, stage, pools):
        bundle, config, ref_dir, _ = finished_run
        if pools == "mono":
            mono = (bundle.mono_src, bundle.mono_tgt)
            expected = Path(ref_dir, "manifest.json").read_bytes()
        else:
            mono = (None, None)
            expected = parallel_only_run
        run_dir = str(tmp_path / "r")
        mark_completed = PipelineManifest.mark_completed

        def crash_after(manifest, name):
            mark_completed(manifest, name)
            if name == stage:
                raise _Crash(f"simulated crash after {name}")

        with monkeypatch.context() as m:
            m.setattr(PipelineManifest, "mark_completed", crash_after)
            with pytest.raises(_Crash):
                run_pipeline(bundle.parallel, *mono, bundle.dev, run_dir, config)
        assert read_json(os.path.join(run_dir, "manifest.json"),
                         "manifest")["stages_completed"][-1] == stage
        run_pipeline(bundle.parallel, *mono, bundle.dev, run_dir, config)
        assert Path(run_dir, "manifest.json").read_bytes() == expected
