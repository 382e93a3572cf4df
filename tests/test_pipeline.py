import json
import os

import pytest

from deskmt.corpus import TAG_BACK_TRANSLATED, TAG_SELF_TRAINED, load_corpus
from deskmt.pipeline import PipelineConfig, PipelineManifest, run_parallel_only, run_pipeline
from deskmt.search import SearchSpace, TrialConfig
from deskmt.synth import gen_corpora, make_spec
from deskmt.util import DataError


def tiny_bundle(seed=3):
    spec = make_spec(vocab_size=24, seed=seed, min_len=2, max_len=5)
    return gen_corpora(spec, {"parallel": 60, "mono_src": 40, "mono_tgt": 40,
                              "dev": 20, "test": 20})


def tiny_space():
    return SearchSpace(dims={
        "em_iterations": [2], "lm_order": [2], "smoothing_k": [0.3],
        "lm_weight": [0.3], "window": [0, 1], "beam": [2],
        "up_bitext": [1, 2], "up_fwd": [1], "up_bt": [1], "seed": [1, 2]})


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
        blobs = [open(os.path.join(d, "manifest.json"), "rb").read() for d in dirs]
        assert blobs[0] == blobs[1]

    def test_identical_manifests_across_worker_counts(self, tmp_path):
        bundle = tiny_bundle(seed=11)
        blobs = []
        for workers in (1, 2):
            run_dir = str(tmp_path / f"w{workers}")
            run_pipeline(bundle.parallel, bundle.mono_src, bundle.mono_tgt,
                         bundle.dev, run_dir, tiny_config(workers=workers))
            blobs.append(open(os.path.join(run_dir, "manifest.json"), "rb").read())
        assert blobs[0] == blobs[1]

    def test_resume_skips_and_reproduces(self, finished_run):
        bundle, config, run_dir, _ = finished_run
        before = open(os.path.join(run_dir, "manifest.json"), "rb").read()
        again = run_pipeline(bundle.parallel, bundle.mono_src, bundle.mono_tgt,
                             bundle.dev, run_dir, config)
        after = open(os.path.join(run_dir, "manifest.json"), "rb").read()
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
        manifest = run_parallel_only(bundle.parallel, bundle.dev,
                                     str(tmp_path / "r"), tiny_config())
        assert manifest.data["inputs"]["parallel_only"] is True
        assert len(manifest.data["iterations"]) == 1

    def test_synthetic_data_comes_from_bitext_sides(self, tmp_path):
        bundle = tiny_bundle(seed=19)
        run_dir = str(tmp_path / "r")
        manifest = run_parallel_only(bundle.parallel, bundle.dev, run_dir,
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
        manifest = run_parallel_only(bundle.parallel, bundle.dev,
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
