"""End-to-end iterative augmentation loop with persistent artifacts.

A round is symmetric, and each stage is written once and run for each
direction of `augment.DIRECTIONS`, forward then backward. Each system
translates the monolingual pool on its source side with noisy-channel
reranking. A direction's own translations are its self-training data and the
other direction's are its back-translated data (`augment.training_roles`).
Random search retrains each direction on bitext plus those two sets; models
are fine-tuned on the in-domain bitext at the last round; the top-k models
per direction become the next round's systems. Each trial's final model is
saved when its trial ends, and a round holds at most the top-k of each
direction plus the trial in flight, so its memory does not grow with the
trial count. Every stage writes
content-addressed artifacts under a run directory and records them in a
byte-stable manifest, so reruns skip completed stages and two runs with one
seed produce identical bytes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from .augment import DIRECTIONS, back_translate, orient, self_train, training_roles
from .corpus import (
    SIDE_MONO_SOURCE,
    SIDE_MONO_TARGET,
    TaggedDataset,
    build_mix,
    save_corpus,
)
from .ensemble import Ensemble
from .lm import FINETUNE_ALPHA, finetune_lm, lm_from_dict, lm_json, train_lm
from .metrics import EvalContext
from .rerank import DEFAULT_TUNE_TRIALS, NoisyChannelWeights, RerankContext, tune_lambdas
from .search import (
    DEFAULT_CONFIG,
    DEFAULT_FINETUNE_STEPS,
    DEFAULT_PATIENCE,
    SearchSpace,
    TrialConfig,
    check_sample_size,
    default_search_space,
    run_search,
    select_top_k,
)
from .subword import encode_dataset, learn_bpe, load_bpe, save_bpe
from .tm import DEFAULT_NBEST, em_train, model_from_dict, model_hash, model_json
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
    write_bytes_atomic,
    write_text_atomic,
)

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1
DEFAULT_BPE_VOCAB = 400


@dataclass
class PipelineConfig:
    iterations: int = 1
    trials: int = 4
    topk: int = 1
    seed: int = 0
    bpe_vocab: int = DEFAULT_BPE_VOCAB
    nbest: int = DEFAULT_NBEST
    tune_trials: int = DEFAULT_TUNE_TRIALS
    patience: int | None = DEFAULT_PATIENCE
    finetune_steps: int = DEFAULT_FINETUNE_STEPS
    init_config: TrialConfig = DEFAULT_CONFIG
    search_space: SearchSpace = field(default_factory=default_search_space)
    # Decoding and search run in one process; run_pipeline rejects workers != 1.
    # The field stays only because bench/workloads.py passes workers=1, and goes
    # with the next change to bench/. It is not in params_dict, so run ids and
    # manifests do not depend on it.
    workers: int = 1

    def params_dict(self) -> dict:
        # only the last round fine-tunes, and every fine-tuned LM weighs the
        # in-domain counts by FINETUNE_ALPHA; both keys stay, so run ids and
        # manifests keep their bytes
        return {
            "iterations": self.iterations, "trials": self.trials, "topk": self.topk,
            "seed": self.seed, "bpe_vocab": self.bpe_vocab, "nbest": self.nbest,
            "tune_trials": self.tune_trials, "patience": self.patience,
            "finetune_steps": self.finetune_steps,
            "finetune_every_iteration": False,
            "lm_alpha": FINETUNE_ALPHA, "init_config": self.init_config.to_dict(),
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
    # the text is encoded once; a copy with the newline appended would hold
    # a third copy of a model's text at the peak
    data = text.encode("utf-8")
    parts = (data,) if data.endswith(b"\n") else (data, b"\n")
    write_bytes_atomic(path, *parts)
    return {"path": relpath, "hash": sha256_bytes(*parts)}


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

    pools = {"fwd": mono_src, "bwd": mono_tgt}  # each on its direction's source side
    parallel_only = not any(pool and pool.sentences for pool in pools.values())
    for d, side in (("fwd", SIDE_MONO_SOURCE), ("bwd", SIDE_MONO_TARGET)):
        if pools[d] is None or not pools[d].sentences:
            sources = tuple(s for s, _ in orient(d, parallel).pairs)
            pools[d] = TaggedDataset(f"mono-from-bitext-{DIRECTIONS[d][0]}", side, "<mono>",
                                     sentences=sources)

    os.makedirs(os.path.join(run_dir, "artifacts"), exist_ok=True)
    os.makedirs(os.path.join(run_dir, "logs"), exist_ok=True)

    params = config.params_dict()
    inputs = {
        "parallel": content_hash([[list(s), list(t)] for s, t in parallel.pairs]),
        "mono_src": content_hash([list(s) for s in pools["fwd"].sentences]),
        "mono_tgt": content_hash([list(s) for s in pools["bwd"].sentences]),
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

    state = _PipelineState(manifest, config, parallel, pools, dev, parallel_only)
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


# the direction whose system is a direction's reranking channel model
_OTHER = {"fwd": "bwd", "bwd": "fwd"}


class _PipelineState:
    """The run's state; every per-direction field is keyed by "fwd" / "bwd"."""

    def __init__(self, manifest, config, parallel, pools, dev, parallel_only):
        self.manifest = manifest
        self.config = config
        self.raw_parallel = parallel
        self.raw_pools = pools
        self.raw_dev = dev
        self.parallel_only = parallel_only
        # populated by stages
        self.bpe = None
        self.eval_ctx = None
        self.parallel = {}  # encoded bitext in the direction's orientation
        self.dev = {}       # encoded dev set in the direction's orientation
        self.pool = {}      # encoded monolingual pool on the direction's source side
        self.lm = {}        # reranking LM over the direction's target language
        self.system = {}    # current system (Ensemble)
        self.lambdas = {}   # its reranking weights

    def _seed(self, label: str) -> int:
        return derive_seed(self.config.seed, label)

    def _lambda_lists(self) -> dict:
        return {d: [w.lambda1, w.lambda2] for d, w in self.lambdas.items()}

    # -- setup: BPE + encoded corpora + reranking LMs ------------------------

    def stage_setup(self) -> None:
        cfg = self.config
        manifest = self.manifest
        if manifest.completed("setup"):
            self.bpe = load_bpe(manifest.verify(
                doc_field(manifest.data, "bpe", dict, manifest.path)))
            self._encode_all()
            lms = doc_field(manifest.data, "rerank_lms", dict, manifest.path)
            for d in DIRECTIONS:
                ref = doc_field(lms, d, dict, f"{manifest.path}: rerank_lms")
                self.lm[d] = lm_from_dict(read_json(manifest.verify(ref), "run artifact"))
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
        refs = {}
        for d in DIRECTIONS:
            targets = [t for _, t in self.parallel[d].pairs]
            if self.parallel_only:
                self.lm[d] = train_lm(targets, init.lm_order, init.smoothing_k)
            else:
                # the pool in this direction's target language is the other's source pool
                base = train_lm(list(self.pool[_OTHER[d]].sentences), init.lm_order,
                                init.smoothing_k)
                self.lm[d] = finetune_lm(base, targets, FINETUNE_ALPHA)
            refs[d] = _write_text_artifact(manifest.run_dir, f"artifacts/lm_{d}.json",
                                           lm_json(self.lm[d]))
        manifest.data["rerank_lms"] = refs
        manifest.mark_completed("setup")

    def _encode_all(self) -> None:
        parallel = encode_dataset(self.raw_parallel, self.bpe)
        dev = encode_dataset(self.raw_dev, self.bpe)
        for d in DIRECTIONS:
            self.parallel[d] = orient(d, parallel)
            self.dev[d] = orient(d, dev)
            self.pool[d] = encode_dataset(self.raw_pools[d], self.bpe)
        self.eval_ctx = EvalContext(bpe=self.bpe)

    # -- init: line-2 models + their tuned lambdas ---------------------------

    def stage_init(self) -> None:
        cfg = self.config
        manifest = self.manifest
        if manifest.completed("init"):
            record = doc_field(manifest.data, "init", dict, manifest.path)
            what = f"{manifest.path}: init"
            for d in DIRECTIONS:
                entry = doc_field(record, d, dict, what)
                self.system[d] = load_model(manifest, doc_field(entry, "model", dict,
                                                                f"{what}.{d}"))
                self.lambdas[d] = _weights(entry, "lambdas", f"{what}.{d}")
            return
        init = cfg.init_config
        for d, (src_lang, tgt_lang) in DIRECTIONS.items():
            mix = build_mix([replace(self.parallel[d], upsample=init.up_bitext)])
            self.system[d] = Ensemble([em_train(
                mix, init.em_iterations, src_lang=src_lang, tgt_lang=tgt_lang,
                lm_order=init.lm_order, lm_k=init.smoothing_k, beam=init.beam,
                window=init.window, lm_weight=init.lm_weight)])
        self._tune("init")
        lambdas = self._lambda_lists()
        record = {}
        for d, system in self.system.items():
            for member in system.members:
                _save_model(manifest.run_dir, member)
            record[d] = {"model": _save_model(manifest.run_dir, system),
                         "lambdas": lambdas[d]}
        manifest.data["init"] = record
        manifest.mark_completed("init")

    def _tune(self, label: str) -> dict:
        """Tune every direction's weights; return their rerank dev BLEU."""
        cfg = self.config
        scores = {}
        for d in DIRECTIONS:
            self.lambdas[d], scores[d] = tune_lambdas(
                self.dev[d], self.system[d], self.system[_OTHER[d]], self.lm[d],
                trials=cfg.tune_trials, seed=self._seed(f"{label}/lambda/{d}"),
                nbest=cfg.nbest, eval_ctx=self.eval_ctx)
        return scores

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
            for d in DIRECTIONS:
                self.system[d] = load_model(manifest, doc_field(ensembles, d, dict,
                                                                what + ".ensembles"))
                self.lambdas[d] = _weights(lambdas, d, what + ".lambdas")
            return

        # lines 6-7: each system translates the pool on its source side, with
        # reranking: the forward system's output is F, the backward one's B
        gen_lambdas = self._lambda_lists()
        made, synthetic = {}, {}
        for d, generate, name in (("fwd", self_train, "F"), ("bwd", back_translate, "B")):
            generator = model_hash(self.system[d])
            ctx = RerankContext(self.system[_OTHER[d]], self.lm[d], self.lambdas[d],
                                cfg.nbest)
            made[d] = generate(self.system[d], self.pool[d], cfg.nbest, rerank_ctx=ctx)
            synthetic[name] = _save_dataset(
                manifest.run_dir, made[d], f"artifacts/datasets/iter{t}_{name}.tsv",
                provenance={"generator": generator, "decode": "rerank",
                            "lambdas": gen_lambdas[d], "seed": cfg.seed,
                            "dropped": made[d].dropped})

        # lines 8-12: random search, both directions; at the last round each
        # trial's model is fine-tuned on the in-domain bitext. Each final
        # model is saved when its trial ends, and only the running top-k stay
        # alive
        finetuned = t == cfg.iterations
        results = {}
        for d, (src_lang, tgt_lang) in DIRECTIONS.items():
            st, bt = training_roles(d, made["fwd"], made["bwd"])
            results[d] = run_search(
                cfg.search_space, cfg.trials, self._seed(f"iter{t}/search/{d}"),
                self.parallel[d], st, bt, self.dev[d], topk=cfg.topk,
                save=lambda _, model: _save_model(manifest.run_dir, model),
                finetune_steps=cfg.finetune_steps if finetuned else 0,
                eval_ctx=self.eval_ctx, patience=cfg.patience,
                src_lang=src_lang, tgt_lang=tgt_lang)

        # lines 13-14: ensemble the top-k models
        self.system = {d: select_top_k(rs, cfg.topk) for d, rs in results.items()}
        # the BLEU of the tuned weights is the rerank dev BLEU of the new systems
        dev_bleu = self._tune(stage)

        record = {
            "t": t,
            "gen_lambdas": gen_lambdas,
            "synthetic": synthetic,
            "trials": {d: [r.record() for r in rs] for d, rs in results.items()},
            "finetuned": finetuned,
            "ensembles": {d: _save_model(manifest.run_dir, system)
                          for d, system in self.system.items()},
            "lambdas": self._lambda_lists(),
            "dev_bleu": dev_bleu,
        }
        manifest.data["iterations"].append(record)
        manifest.mark_completed(stage)
