"""End-to-end iterative augmentation loop with persistent artifacts.

Each round: the current forward/backward systems translate the monolingual
pools with noisy-channel reranking; random search retrains both directions on
bitext + forward-translated + back-translated data; models are fine-tuned on
the in-domain bitext at the last round; the top-k models per direction become
the next round's systems. Every stage writes content-addressed artifacts
under a run directory and records them in a byte-stable manifest, so reruns
skip completed stages and two runs with one seed produce identical bytes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from .augment import back_translate, self_train
from .corpus import (
    SIDE_MONO_SOURCE,
    SIDE_MONO_TARGET,
    TaggedDataset,
    build_mix,
    save_corpus,
    swap_dataset,
)
from .ensemble import Ensemble
from .lm import finetune_lm, lm_from_dict, lm_to_dict, train_lm
from .metrics import EvalContext
from .rerank import NoisyChannelWeights, RerankContext, tune_lambdas
from .search import (
    DEFAULT_CONFIG,
    SearchSpace,
    TrialConfig,
    TrialResult,
    check_sample_size,
    default_search_space,
    finetune,
    run_search,
    select_top_k,
)
from .subword import encode_dataset, learn_bpe, load_bpe, save_bpe
from .tm import em_train, model_from_dict, model_hash, model_json
from .util import (
    NUMBER,
    DataError,
    content_hash,
    derive_seed,
    doc_field,
    doc_strings,
    read_json,
    sha256_bytes,
    sha256_text,
    stable_json_dumps,
    write_text_atomic,
)

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1


@dataclass
class PipelineConfig:
    iterations: int = 1
    trials: int = 4
    topk: int = 1
    seed: int = 0
    bpe_vocab: int = 400
    nbest: int = 50
    tune_trials: int = 30
    patience: int | None = 2
    finetune_steps: int = 3
    finetune_every_iteration: bool = False
    lm_alpha: float = 0.5
    init_config: TrialConfig = DEFAULT_CONFIG
    search_space: SearchSpace = field(default_factory=default_search_space)
    # Decoding and search run in one process; run_pipeline rejects workers != 1.
    # The field stays only because bench/workloads.py passes workers=1, and goes
    # with the next change to bench/. It is not in params_dict, so run ids and
    # manifests do not depend on it.
    workers: int = 1

    def params_dict(self) -> dict:
        return {
            "iterations": self.iterations, "trials": self.trials, "topk": self.topk,
            "seed": self.seed, "bpe_vocab": self.bpe_vocab, "nbest": self.nbest,
            "tune_trials": self.tune_trials, "patience": self.patience,
            "finetune_steps": self.finetune_steps,
            "finetune_every_iteration": self.finetune_every_iteration,
            "lm_alpha": self.lm_alpha, "init_config": self.init_config.to_dict(),
            "search_space": self.search_space.dims,
        }


class PipelineManifest:
    """Persistent record of one run; every referenced artifact is hash-checked."""

    def __init__(self, run_dir: str, data: dict):
        self.run_dir = run_dir
        self.data = data

    @property
    def path(self) -> str:
        return os.path.join(self.run_dir, MANIFEST_NAME)

    def save(self) -> None:
        write_text_atomic(self.path, stable_json_dumps(self.data) + "\n")

    @classmethod
    def load(cls, run_dir: str) -> "PipelineManifest":
        path = os.path.join(run_dir, MANIFEST_NAME)
        data = read_json(path, "run manifest")
        if data.get("version") != MANIFEST_VERSION:
            raise DataError(f"unsupported manifest version in {path}")
        doc_field(data, "run_id", str, path)
        doc_field(data, "stages_completed", list, path)
        doc_field(data, "iterations", list, path)
        return cls(run_dir, data)

    def completed(self, stage: str) -> bool:
        return stage in self.data["stages_completed"]

    def mark_completed(self, stage: str) -> None:
        if stage not in self.data["stages_completed"]:
            self.data["stages_completed"].append(stage)
        self.save()

    def artifact_path(self, ref: dict) -> str:
        return os.path.join(self.run_dir, doc_field(ref, "path", str, self.path))

    def verify(self, ref: dict) -> str:
        path = self.artifact_path(ref)
        expected = doc_field(ref, "hash", str, self.path)
        try:
            with open(path, "rb") as fh:
                digest = sha256_bytes(fh.read())
        except OSError as e:
            raise DataError(f"missing artifact {ref['path']}: {e}") from e
        if digest != expected:
            raise DataError(f"artifact {ref['path']} does not match its recorded hash")
        return path


def _weights(doc: dict, key: str, what: str) -> NoisyChannelWeights:
    """`doc[key]`, a list of two numbers, as reranking weights."""
    values = doc_field(doc, key, list, what)
    if len(values) != 2 or not all(isinstance(v, NUMBER) and not isinstance(v, bool)
                                   for v in values):
        raise DataError(f"{what}: key {key!r} must hold two numbers")
    return NoisyChannelWeights(*values)


def _write_text_artifact(run_dir: str, relpath: str, text: str) -> dict:
    path = os.path.join(run_dir, relpath)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    data = text if text.endswith("\n") else text + "\n"
    write_text_atomic(path, data)
    return {"path": relpath, "hash": sha256_text(data)}


def _save_model(run_dir: str, model) -> dict:
    """Write a model artifact named by its hash; an ensemble's members must be saved first."""
    text, digest = model_json(model)
    ref = _write_text_artifact(run_dir, f"artifacts/models/{digest}.json", text)
    ref["model_hash"] = digest
    return ref


def load_model(manifest: PipelineManifest, ref: dict):
    """Load the model a manifest entry names; an ensemble's members are hash-checked."""
    path = manifest.verify(ref)
    doc = read_json(path, "model")
    if doc.get("kind") == "ensemble":
        members = []
        for member_hash in doc_strings(doc, "members", path):
            member_doc = read_json(
                os.path.join(manifest.run_dir, f"artifacts/models/{member_hash}.json"),
                f"ensemble member {member_hash}")
            if content_hash(member_doc) != member_hash:
                raise DataError(f"ensemble member {member_hash} fails its hash check")
            members.append(model_from_dict(member_doc))
        return Ensemble(members)
    return model_from_dict(doc)


def _save_dataset(run_dir: str, ds: TaggedDataset, relpath: str,
                  provenance: dict | None = None) -> dict:
    path = os.path.join(run_dir, relpath)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    digest = sha256_text(save_corpus(ds, path))
    ref = {"path": relpath, "hash": digest, "name": ds.name, "tag": ds.tag,
           "dropped": ds.dropped}
    if provenance is not None:
        prov_ref = _write_text_artifact(run_dir, relpath + ".prov.json",
                                        stable_json_dumps(provenance))
        ref["provenance"] = provenance
        ref["provenance_path"] = prov_ref["path"]
    return ref


def run_pipeline(parallel: TaggedDataset, mono_src: TaggedDataset | None,
                 mono_tgt: TaggedDataset | None, dev: TaggedDataset,
                 run_dir: str, config: PipelineConfig) -> PipelineManifest:
    """Run the iterative algorithm for config.iterations rounds.

    Empty or missing (None) monolingual pools give the parallel-only regime:
    synthetic data is generated from the bitext's own sides and the reranking
    LMs are trained on the bitext alone. A failed stage leaves the manifest
    recording everything completed so far; rerunning skips completed stages.
    """
    if config.iterations < 1 or config.trials < 1:
        raise DataError("iterations and trials must be >= 1")
    if not 1 <= config.topk <= config.trials:
        raise DataError("need trials >= topk >= 1")
    check_sample_size(config.search_space, config.trials)
    if not parallel.pairs:
        raise DataError("the pipeline needs non-empty parallel data")
    if not dev.pairs:
        raise DataError("the pipeline needs a non-empty dev set")
    if config.workers != 1:
        raise DataError(f"workers must be 1 (decoding runs in one process), "
                        f"got {config.workers}")

    parallel_only = not (mono_src and mono_src.sentences) and \
        not (mono_tgt and mono_tgt.sentences)
    if mono_src is None or not mono_src.sentences:
        mono_src = TaggedDataset("mono-from-bitext-src", SIDE_MONO_SOURCE, "<mono>",
                                 sentences=tuple(s for s, _ in parallel.pairs))
    if mono_tgt is None or not mono_tgt.sentences:
        mono_tgt = TaggedDataset("mono-from-bitext-tgt", SIDE_MONO_TARGET, "<mono>",
                                 sentences=tuple(t for _, t in parallel.pairs))

    os.makedirs(os.path.join(run_dir, "artifacts"), exist_ok=True)
    os.makedirs(os.path.join(run_dir, "logs"), exist_ok=True)

    params = config.params_dict()
    inputs = {
        "parallel": content_hash([[list(s), list(t)] for s, t in parallel.pairs]),
        "mono_src": content_hash([list(s) for s in mono_src.sentences]),
        "mono_tgt": content_hash([list(s) for s in mono_tgt.sentences]),
        "dev": content_hash([[list(s), list(t)] for s, t in dev.pairs]),
        "parallel_only": parallel_only,
    }
    run_id = content_hash({"params": params, "inputs": inputs})[:12]

    manifest_path = os.path.join(run_dir, MANIFEST_NAME)
    if os.path.exists(manifest_path):
        manifest = PipelineManifest.load(run_dir)
        if manifest.data["run_id"] != run_id:
            raise DataError(
                f"{run_dir} holds a manifest for a different run "
                f"({manifest.data['run_id']} != {run_id})")
    else:
        manifest = PipelineManifest(run_dir, {
            "version": MANIFEST_VERSION, "run_id": run_id, "seed": config.seed,
            "params": params, "inputs": inputs, "stages_completed": [],
            "iterations": [],
        })
        manifest.save()

    state = _PipelineState(manifest, config, parallel, mono_src, mono_tgt, dev,
                           parallel_only)
    try:
        state.stage_setup()
        state.stage_init()
        for t in range(1, config.iterations + 1):
            state.stage_iteration(t)
    except Exception:
        manifest.save()
        raise
    manifest.save()
    return manifest


class _PipelineState:
    def __init__(self, manifest, config, parallel, mono_src, mono_tgt, dev,
                 parallel_only):
        self.manifest = manifest
        self.config = config
        self.raw_parallel = parallel
        self.raw_mono_src = mono_src
        self.raw_mono_tgt = mono_tgt
        self.raw_dev = dev
        self.parallel_only = parallel_only
        # populated by stages
        self.bpe = None
        self.eval_ctx = None
        self.lm_tgt = None  # reranking LM over the target language (fwd decode)
        self.lm_src = None  # reranking LM over the source language (bwd decode)
        self.fwd = None     # current forward system (Ensemble)
        self.bwd = None     # current backward system (Ensemble)
        self.lambdas_fwd = None
        self.lambdas_bwd = None

    def _seed(self, label: str) -> int:
        return derive_seed(self.config.seed, label)

    # -- setup: BPE + encoded corpora + reranking LMs ------------------------

    def stage_setup(self) -> None:
        cfg = self.config
        manifest = self.manifest
        if manifest.completed("setup"):
            self.bpe = load_bpe(manifest.verify(
                doc_field(manifest.data, "bpe", dict, manifest.path)))
            self._encode_all()
            lms = doc_field(manifest.data, "rerank_lms", dict, manifest.path)
            what = f"{manifest.path}: rerank_lms"
            self.lm_tgt = lm_from_dict(self._read_json(doc_field(lms, "fwd", dict, what)))
            self.lm_src = lm_from_dict(self._read_json(doc_field(lms, "bwd", dict, what)))
            return
        corpus = [s for s, _ in self.raw_parallel.pairs]
        corpus += [t for _, t in self.raw_parallel.pairs]
        self.bpe = learn_bpe(corpus, cfg.bpe_vocab)
        bpe_path = os.path.join(manifest.run_dir, "artifacts/bpe.txt")
        os.makedirs(os.path.dirname(bpe_path), exist_ok=True)
        manifest.data["bpe"] = {"path": "artifacts/bpe.txt",
                                "hash": sha256_text(save_bpe(self.bpe, bpe_path))}
        self._encode_all()

        init = cfg.init_config
        tgt_sents = [t for _, t in self.parallel.pairs]
        src_sents = [s for s, _ in self.parallel.pairs]
        if self.parallel_only:
            self.lm_tgt = train_lm(tgt_sents, init.lm_order, init.smoothing_k)
            self.lm_src = train_lm(src_sents, init.lm_order, init.smoothing_k)
        else:
            base_tgt = train_lm(list(self.mono_tgt.sentences), init.lm_order,
                                init.smoothing_k)
            base_src = train_lm(list(self.mono_src.sentences), init.lm_order,
                                init.smoothing_k)
            self.lm_tgt = finetune_lm(base_tgt, tgt_sents, cfg.lm_alpha)
            self.lm_src = finetune_lm(base_src, src_sents, cfg.lm_alpha)
        manifest.data["rerank_lms"] = {
            "fwd": self._write_json("artifacts/lm_fwd.json", lm_to_dict(self.lm_tgt)),
            "bwd": self._write_json("artifacts/lm_bwd.json", lm_to_dict(self.lm_src)),
        }
        manifest.mark_completed("setup")

    def _encode_all(self) -> None:
        self.parallel = encode_dataset(self.raw_parallel, self.bpe)
        self.mono_src = encode_dataset(self.raw_mono_src, self.bpe)
        self.mono_tgt = encode_dataset(self.raw_mono_tgt, self.bpe)
        self.dev = encode_dataset(self.raw_dev, self.bpe)
        self.dev_swapped = swap_dataset(self.dev, name="dev-swapped")
        self.parallel_swapped = swap_dataset(self.parallel,
                                             name=self.parallel.name + "-swapped")
        self.eval_ctx = EvalContext(bpe=self.bpe)

    def _write_json(self, relpath: str, doc: dict) -> dict:
        return _write_text_artifact(self.manifest.run_dir, relpath,
                                    stable_json_dumps(doc))

    def _read_json(self, ref: dict) -> dict:
        return read_json(self.manifest.verify(ref), "run artifact")

    # -- init: line-2 models + their tuned lambdas ---------------------------

    def stage_init(self) -> None:
        cfg = self.config
        manifest = self.manifest
        if manifest.completed("init"):
            record = doc_field(manifest.data, "init", dict, manifest.path)
            what = f"{manifest.path}: init"
            fwd = doc_field(record, "fwd", dict, what)
            bwd = doc_field(record, "bwd", dict, what)
            self.fwd = load_model(manifest, doc_field(fwd, "model", dict, what + ".fwd"))
            self.bwd = load_model(manifest, doc_field(bwd, "model", dict, what + ".bwd"))
            self.lambdas_fwd = _weights(fwd, "lambdas", what + ".fwd")
            self.lambdas_bwd = _weights(bwd, "lambdas", what + ".bwd")
            return
        init = cfg.init_config
        fwd_mix = build_mix([replace(self.parallel, upsample=init.up_bitext)])
        bwd_mix = build_mix([replace(self.parallel_swapped, upsample=init.up_bitext)])
        kwargs = dict(lm_order=init.lm_order, lm_k=init.smoothing_k, beam=init.beam,
                      window=init.window, lm_weight=init.lm_weight)
        f0 = em_train(fwd_mix, init.em_iterations, src_lang="src", tgt_lang="tgt",
                      **kwargs)
        g0 = em_train(bwd_mix, init.em_iterations, src_lang="tgt", tgt_lang="src",
                      **kwargs)
        self.fwd = Ensemble([f0])
        self.bwd = Ensemble([g0])
        (self.lambdas_fwd, _), (self.lambdas_bwd, _) = self._tune_both("init")
        for member in self.fwd.members + self.bwd.members:
            _save_model(manifest.run_dir, member)
        manifest.data["init"] = {
            "fwd": {"model": _save_model(manifest.run_dir, self.fwd),
                    "lambdas": [self.lambdas_fwd.lambda1, self.lambdas_fwd.lambda2]},
            "bwd": {"model": _save_model(manifest.run_dir, self.bwd),
                    "lambdas": [self.lambdas_bwd.lambda1, self.lambdas_bwd.lambda2]},
        }
        manifest.mark_completed("init")

    def _tune_both(self, label: str):
        """Tuned weights and their rerank dev BLEU, forward then backward."""
        cfg = self.config
        lf = tune_lambdas(self.dev, self.fwd, self.bwd, self.lm_tgt,
                          trials=cfg.tune_trials, seed=self._seed(f"{label}/lambda/fwd"),
                          nbest=cfg.nbest, eval_ctx=self.eval_ctx)
        lb = tune_lambdas(self.dev_swapped, self.bwd, self.fwd, self.lm_src,
                          trials=cfg.tune_trials, seed=self._seed(f"{label}/lambda/bwd"),
                          nbest=cfg.nbest, eval_ctx=self.eval_ctx)
        return lf, lb

    # -- one round of the iterative algorithm --------------------------------

    def stage_iteration(self, t: int) -> None:
        cfg = self.config
        manifest = self.manifest
        stage = f"iter{t}"
        if manifest.completed(stage):
            records = manifest.data["iterations"]
            if len(records) < t:
                raise DataError(f"{manifest.path}: key 'iterations' has no record "
                                f"of completed stage {stage!r}")
            what = f"{manifest.path}: iterations[{t - 1}]"
            ensembles = doc_field(records[t - 1], "ensembles", dict, what)
            lambdas = doc_field(records[t - 1], "lambdas", dict, what)
            self.fwd = load_model(manifest, doc_field(ensembles, "fwd", dict,
                                                      what + ".ensembles"))
            self.bwd = load_model(manifest, doc_field(ensembles, "bwd", dict,
                                                      what + ".ensembles"))
            self.lambdas_fwd = _weights(lambdas, "fwd", what + ".lambdas")
            self.lambdas_bwd = _weights(lambdas, "bwd", what + ".lambdas")
            return

        gen_lambdas = {"fwd": [self.lambdas_fwd.lambda1, self.lambdas_fwd.lambda2],
                       "bwd": [self.lambdas_bwd.lambda1, self.lambdas_bwd.lambda2]}
        fwd_gen_hash = model_hash(self.fwd)
        bwd_gen_hash = model_hash(self.bwd)

        # lines 6-7: translate the monolingual pools with reranking
        st_ctx = RerankContext(self.bwd, self.lm_tgt, self.lambdas_fwd, cfg.nbest)
        f_data = self_train(self.fwd, self.mono_src, rerank_ctx=st_ctx)
        bt_ctx = RerankContext(self.fwd, self.lm_src, self.lambdas_bwd, cfg.nbest)
        b_data = back_translate(self.bwd, self.mono_tgt, rerank_ctx=bt_ctx)

        f_ref = _save_dataset(
            manifest.run_dir, f_data, f"artifacts/datasets/iter{t}_F.tsv",
            provenance={"generator": fwd_gen_hash, "decode": "rerank",
                        "lambdas": gen_lambdas["fwd"], "seed": cfg.seed,
                        "dropped": f_data.dropped})
        b_ref = _save_dataset(
            manifest.run_dir, b_data, f"artifacts/datasets/iter{t}_B.tsv",
            provenance={"generator": bwd_gen_hash, "decode": "rerank",
                        "lambdas": gen_lambdas["bwd"], "seed": cfg.seed,
                        "dropped": b_data.dropped})

        # lines 8-9: random search, both directions
        fwd_results = run_search(
            cfg.search_space, cfg.trials, self._seed(f"iter{t}/search/fwd"),
            self.parallel, f_data, b_data, self.dev,
            eval_ctx=self.eval_ctx, patience=cfg.patience,
            src_lang="src", tgt_lang="tgt")
        # backward, B is self-trained data and F back-translated data
        bwd_results = run_search(
            cfg.search_space, cfg.trials, self._seed(f"iter{t}/search/bwd"),
            self.parallel_swapped, swap_dataset(b_data), swap_dataset(f_data),
            self.dev_swapped,
            eval_ctx=self.eval_ctx, patience=cfg.patience,
            src_lang="tgt", tgt_lang="src")

        # lines 10-12: fine-tune on the in-domain bitext at the last round
        finetuned = (t == cfg.iterations) or cfg.finetune_every_iteration
        if finetuned:
            fwd_results = [self._finetune_result(r, self.parallel, self.dev,
                                                 self.eval_ctx)
                           for r in fwd_results]
            bwd_results = [self._finetune_result(r, self.parallel_swapped,
                                                 self.dev_swapped, self.eval_ctx)
                           for r in bwd_results]

        # lines 13-14: ensemble the top-k models
        self.fwd = select_top_k(fwd_results, cfg.topk)
        self.bwd = select_top_k(bwd_results, cfg.topk)
        # the BLEU of the tuned weights is the rerank dev BLEU of the new systems
        (self.lambdas_fwd, eval_fwd), (self.lambdas_bwd, eval_bwd) = \
            self._tune_both(f"iter{t}")

        for r in fwd_results + bwd_results:
            _save_model(manifest.run_dir, r.model)
        record = {
            "t": t,
            "gen_lambdas": gen_lambdas,
            "synthetic": {"F": f_ref, "B": b_ref},
            "trials": {
                "fwd": [r.record() for r in fwd_results],
                "bwd": [r.record() for r in bwd_results],
            },
            "finetuned": finetuned,
            "ensembles": {"fwd": _save_model(manifest.run_dir, self.fwd),
                          "bwd": _save_model(manifest.run_dir, self.bwd)},
            "lambdas": {"fwd": [self.lambdas_fwd.lambda1, self.lambdas_fwd.lambda2],
                        "bwd": [self.lambdas_bwd.lambda1, self.lambdas_bwd.lambda2]},
            "dev_bleu": {"fwd": eval_fwd, "bwd": eval_bwd},
        }
        manifest.data["iterations"].append(record)
        manifest.mark_completed(stage)

    def _finetune_result(self, result: TrialResult, in_domain, dev, eval_ctx):
        model, score = finetune(result.model, in_domain, dev,
                                self.config.finetune_steps, base_bleu=result.dev_bleu,
                                lm_alpha=self.config.lm_alpha, eval_ctx=eval_ctx)
        return TrialResult(config=result.config, model=model,
                           dev_ppl_trace=result.dev_ppl_trace, dev_bleu=score)
