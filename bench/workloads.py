"""Benchmark workloads: one measured repetition, run in a fresh process.

run.py starts this file once per repetition, so peak RSS and the models'
caches never carry over from one repetition to the next:

    python3 bench/workloads.py '<request as JSON>'

The request names the workload, seed and scale, whether to trace, whether to
evaluate on the test split afterwards, and a scratch directory inside the
checkout. The last line of standard output is one JSON object with the
repetition's measurements, the sha256 of its output, its operation counts and
any failed checks.

Inputs come from `synth.make_spec(VOCAB, seed=seed)` and `synth.gen_corpora`;
input generation and the test-split evaluation lie outside the timed region.
Every library call runs with one worker.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

VOCAB = 200
# The pipeline's own seed (trial configurations, lambda samples) stays fixed,
# so every workload seed runs the same trial configurations and the seed only
# changes the language pair and its corpora.
PIPELINE_SEED = 0

# Mining: comparable documents in two languages with paired URLs. Each
# target document holds ground-truth translations of PLANTED_SHARE of its
# source document's sentences plus translations of unrelated sentences.
PLANTED_SHARE = 2 / 3
DOC_THRESHOLD = 0.1
ALIGN_FLOOR = -3.0
MINE_EM_ITERATIONS = 5

# Correctness floors: a working system clears them on every seed.
MIN_TEST_BLEU = 10.0
MIN_MINE_PRECISION = 0.8
MIN_MINE_RECALL = 0.5

WORKLOADS = {
    "recipe": {
        "kind": "pipeline",
        "sizes": {"parallel": 200, "mono_src": 300, "mono_tgt": 300,
                  "dev": 40, "test": 60},
        "toy_sizes": {"parallel": 40, "mono_src": 60, "mono_tgt": 60,
                      "dev": 8, "test": 8},
        "config": {"iterations": 1, "trials": 2, "nbest": 50},
    },
    "search": {
        "kind": "pipeline",
        "sizes": {"parallel": 400, "mono_src": 40, "mono_tgt": 40,
                  "dev": 60, "test": 100},
        "toy_sizes": {"parallel": 60, "mono_src": 6, "mono_tgt": 6,
                      "dev": 8, "test": 8},
        "config": {"iterations": 1, "trials": 8, "nbest": 10,
                   "finetune_steps": 3},
    },
    "mine": {
        "kind": "mine",
        "sizes": {"parallel": 2000, "docs": 60, "sents_per_doc": 30},
        "toy_sizes": {"parallel": 60, "docs": 6, "sents_per_doc": 6},
    },
}


def workload_sizes(name: str, scale: str) -> dict:
    return WORKLOADS[name]["toy_sizes" if scale == "toy" else "sizes"]


def planned_operations(name: str, scale: str) -> int:
    """Operations one repetition attempts: monolingual sentences sent through
    self-training and back-translation, or source sentences offered for
    mining."""
    sizes = workload_sizes(name, scale)
    if WORKLOADS[name]["kind"] == "pipeline":
        return sizes["mono_src"] + sizes["mono_tgt"]
    return sizes["docs"] * sizes["sents_per_doc"]


def _import_deskmt():
    """Import deskmt from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, SRC)
    import deskmt
    if not os.path.abspath(deskmt.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"deskmt imported from {deskmt.__file__}, not {SRC}")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# -- pipeline workloads (recipe, search) ---------------------------------------


def _swapped(ds, name):
    from deskmt.corpus import TaggedDataset, strip_tag
    return TaggedDataset(name, ds.side, ds.tag,
                         pairs=tuple((t, strip_tag(s)) for s, t in ds.pairs))


def _test_bleu(run_dir: str, test, nbest: int) -> dict:
    """Test BLEU of the final systems, loaded through the public loaders."""
    from deskmt.corpus import TAG_IN_DOMAIN
    from deskmt.ensemble import Ensemble
    from deskmt.lm import lm_from_dict
    from deskmt.metrics import EvalContext, evaluate_system
    from deskmt.pipeline import PipelineManifest
    from deskmt.rerank import NoisyChannelWeights, RerankContext
    from deskmt.subword import encode_dataset, load_bpe
    from deskmt.tm import model_from_dict

    manifest = PipelineManifest.load(run_dir)
    data = manifest.data
    final = data["iterations"][-1]

    def read(path):
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)

    def system(ref):
        members = read(manifest.verify(ref))["members"]
        return Ensemble([model_from_dict(read(os.path.join(
            run_dir, "artifacts", "models", f"{h}.json"))) for h in members])

    bpe = load_bpe(manifest.verify(data["bpe"]))
    fwd = system(final["ensembles"]["fwd"])
    bwd = system(final["ensembles"]["bwd"])
    lm_fwd = lm_from_dict(read(manifest.verify(data["rerank_lms"]["fwd"])))
    lm_bwd = lm_from_dict(read(manifest.verify(data["rerank_lms"]["bwd"])))
    test_fwd = encode_dataset(test, bpe)
    test_bwd = _swapped(test_fwd, "test-swapped")
    eval_ctx = EvalContext(bpe=bpe, tag=TAG_IN_DOMAIN)
    out = {}
    for direction, model, channel, lm, ds in (
            ("fwd", fwd, bwd, lm_fwd, test_fwd), ("bwd", bwd, fwd, lm_bwd, test_bwd)):
        weights = NoisyChannelWeights(*final["lambdas"][direction])
        report = evaluate_system(model, ds, decode="rerank",
                                 rerank_ctx=RerankContext(channel, lm, weights, nbest),
                                 eval_ctx=eval_ctx, nbest=nbest)
        out[f"test_bleu_{direction}"] = report.bleu
    return out


def run_pipeline_workload(name: str, seed: int, scale: str, work_dir: str,
                          tracer, evaluate_test: bool) -> dict:
    from deskmt import pipeline, synth

    spec_def = WORKLOADS[name]
    sizes = dict(workload_sizes(name, scale))
    spec = synth.make_spec(VOCAB, seed=seed)
    bundle = synth.gen_corpora(spec, sizes)
    config = pipeline.PipelineConfig(seed=PIPELINE_SEED, workers=1,
                                     **spec_def["config"])
    run_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=work_dir)

    start = tracer.clock()
    manifest = pipeline.run_pipeline(bundle.parallel, bundle.mono_src,
                                     bundle.mono_tgt, bundle.dev, run_dir, config)
    end = tracer.clock()
    counts = dict(tracer.counts)
    peak = _peak_rss_mb()

    marks = dict(tracer.marks)
    synth_spans = (tracer.spans_of("augment.self_train", (start, end))
                   + tracer.spans_of("augment.back_translate", (start, end)))
    synth_time = sum(e - s for s, e in synth_spans)
    sent = counts["augment.kept"] + counts["augment.dropped"]
    data = manifest.data
    final = data["iterations"][-1]
    result = {
        "window": (start, end),
        "marks": marks,
        "wall_s": end - start,
        "setup_s": marks["setup"] - start,
        "peak_rss_mb": peak,
        "synth_sents_per_s": sent / synth_time if synth_time > 0 else 0.0,
        "dev_bleu_fwd": final["dev_bleu"]["fwd"],
        "dev_bleu_bwd": final["dev_bleu"]["bwd"],
        "digest": _sha256_file(manifest.path),
        "attempted": planned_operations(name, scale),
        "failed": counts["augment.dropped"],
        "counts": counts,
        "checks": [],
    }
    checks = result["checks"]
    if data["stages_completed"] != ["setup", "init", "iter1"]:
        checks.append(f"stages completed: {data['stages_completed']}")
    if sent != sizes["mono_src"] + sizes["mono_tgt"]:
        checks.append(f"{sent} monolingual sentences translated, "
                      f"expected {sizes['mono_src'] + sizes['mono_tgt']}")
    for key in ("dev_bleu_fwd", "dev_bleu_bwd"):
        if not 0.0 < result[key] <= 100.0:
            checks.append(f"{key} = {result[key]} outside (0, 100]")
    if evaluate_test:
        result.update(_test_bleu(run_dir, bundle.test, config.nbest))
        for key in ("test_bleu_fwd", "test_bleu_bwd"):
            if scale != "toy" and not MIN_TEST_BLEU <= result[key] <= 100.0:
                checks.append(f"{key} = {result[key]:.2f} below {MIN_TEST_BLEU}")
    shutil.rmtree(run_dir, ignore_errors=True)
    return result


# -- mining workload -------------------------------------------------------------


def build_documents(spec, sentences, docs: int, per_doc: int, seed: int):
    """Comparable documents with paired URLs and a known set of true pairs.

    Source document i holds `per_doc` in-domain source sentences. Its partner
    holds the ground-truth translations of the first PLANTED_SHARE of them
    plus translations of sentences that appear in no source document, in a
    shuffled order. Partners share a URL path and differ in the language part.
    Returns (source docs, target docs, set of true (source, target) pairs).
    """
    import numpy as np

    from deskmt.mine import WebDoc
    from deskmt.synth import ground_truth
    from deskmt.util import derive_seed

    rng = np.random.default_rng(derive_seed(seed, "bench/mine-docs"))
    planted_per_doc = round(per_doc * PLANTED_SHARE)
    extra_per_doc = per_doc - planted_per_doc
    own = sentences[:docs * per_doc]
    extra = sentences[docs * per_doc:]
    letters = list("abcdefghijklmnopqrstuvwxyz")
    docs_a, docs_b, planted = [], [], set()
    for i in range(docs):
        src = own[i * per_doc:(i + 1) * per_doc]
        kept = src[:planted_per_doc]
        others = extra[i * extra_per_doc:(i + 1) * extra_per_doc]
        tgt = [ground_truth(spec, s) for s in kept + others]
        tgt = [tgt[j] for j in rng.permutation(len(tgt))]
        planted.update((s, ground_truth(spec, s)) for s in kept)
        slug = "".join(rng.choice(letters, size=12))
        docs_a.append(WebDoc(f"https://news.example.org/en/{slug}.html",
                             tuple(src), lang="src"))
        docs_b.append(WebDoc(f"https://news.example.org/de/{slug}.html",
                             tuple(tgt), lang="tgt"))
    order = rng.permutation(docs)
    return docs_a, [docs_b[j] for j in order], planted


def run_mine_workload(name: str, seed: int, scale: str, work_dir: str,
                      tracer, evaluate_test: bool) -> dict:
    from deskmt import corpus, mine, synth, tm

    sizes = workload_sizes(name, scale)
    docs, per_doc = sizes["docs"], sizes["sents_per_doc"]
    extra = docs * (per_doc - round(per_doc * PLANTED_SHARE))
    spec = synth.make_spec(VOCAB, seed=seed)
    bundle = synth.gen_corpora(spec, {"parallel": sizes["parallel"],
                                      "mono_src": docs * per_doc + extra,
                                      "mono_tgt": 1, "dev": 1, "test": 1})
    docs_a, docs_b, planted = build_documents(
        spec, list(bundle.mono_src.sentences), docs, per_doc, seed)

    start = tracer.clock()
    mix = corpus.swap_direction(corpus.build_mix([bundle.parallel]))
    channel = tm.em_train(mix, MINE_EM_ITERATIONS, src_lang="tgt", tgt_lang="src")
    lexicon = mine.build_lexicon(channel)
    setup_end = tracer.clock()
    pairs, matches = mine.mine_bitext(docs_a, docs_b, channel,
                                      doc_threshold=DOC_THRESHOLD,
                                      floor=ALIGN_FLOOR, lexicon=lexicon)
    end = tracer.clock()
    peak = _peak_rss_mb()

    text = "".join(f"{' '.join(sa)}\t{' '.join(sb)}\t{score!r}\n"
                   for sa, sb, score in pairs)
    correct = sum((sa, sb) in planted for sa, sb, _ in pairs)
    precision = correct / len(pairs) if pairs else 0.0
    recall = correct / len(planted)
    result = {
        "window": (start, end),
        "marks": {},
        "wall_s": end - start,
        "setup_s": setup_end - start,
        "peak_rss_mb": peak,
        "mine_precision": precision,
        "mine_recall": recall,
        "digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "attempted": planned_operations(name, scale),
        "failed": 0,
        "counts": dict(tracer.counts),
        "checks": [],
    }
    checks = result["checks"]
    if len(matches) != docs:
        checks.append(f"{len(matches)} document pairs matched, expected {docs}")
    if any(score < ALIGN_FLOOR for _, _, score in pairs):
        checks.append("a mined pair scores below the floor")
    if scale != "toy":
        if precision < MIN_MINE_PRECISION:
            checks.append(f"mine precision {precision:.3f} below {MIN_MINE_PRECISION}")
        if recall < MIN_MINE_RECALL:
            checks.append(f"mine recall {recall:.3f} below {MIN_MINE_RECALL}")
    return result


RUNNERS = {"pipeline": run_pipeline_workload, "mine": run_mine_workload}


# -- traced-run summary ----------------------------------------------------------


def _stage_times(tracer, marks: dict) -> dict:
    """Stage durations from PipelineManifest.mark_completed and span bounds.

    The iteration splits at the end of back-translation, the end of the last
    search, and the start and end of lambda tuning; a boundary whose spans
    are missing falls back to the previous one.
    """
    parts = ("decode", "search", "finetune", "tune", "eval")
    out = {"pipeline.stage.init_s": 0.0, "pipeline.stage.iter_s": 0.0}
    out.update({f"pipeline.iter.{p}_s": 0.0 for p in parts})
    if not {"setup", "init", "iter1"} <= set(marks):
        return out
    out["pipeline.stage.init_s"] = marks["init"] - marks["setup"]
    out["pipeline.stage.iter_s"] = marks["iter1"] - marks["init"]
    it = (marks["init"], marks["iter1"])
    tunes = tracer.spans_of("rerank.tune_lambdas", it)
    inner = (
        max((e for _, e in tracer.spans_of("augment.back_translate", it)), default=None),
        max((e for _, e in tracer.spans_of("search.run_search", it)), default=None),
        min((s for s, _ in tunes), default=None),
        max((e for _, e in tunes), default=None),
    )
    bounds = [it[0]]
    for t in inner:
        bounds.append(bounds[-1] if t is None else t)
    bounds.append(it[1])
    for part, lo, hi in zip(parts, bounds, bounds[1:]):
        out[f"pipeline.iter.{part}_s"] = hi - lo
    return out


def trace_summary(tracer, result: dict) -> dict:
    window = tuple(result["window"])
    counts = result["counts"]
    layers = {}
    for name, (calls, total, own) in tracer.layer_table(window).items():
        layers[f"{name}.calls"] = calls
        layers[f"{name}.s"] = total
        layers[f"{name}.self_s"] = own
    layers["subword.encode_dataset.tokens"] = counts["subword.encode_dataset.tokens"]
    layers["rerank.fill_scores.entries"] = counts["rerank.fill_scores.entries"]
    layers["augment.dropped"] = counts["augment.dropped"]
    bases = {
        "tm.translate_nbest.repeat_share": (counts["decode.repeats"],
                                            counts["decode.calls"]),
        "search.em_useful_share": (counts["em.useful"], counts["em.run"]),
        "search.finetune_useful_share": (counts["finetune.useful"],
                                         counts["finetune.run"]),
    }
    for name, (part, whole) in bases.items():
        layers[name] = part / whole if whole else 0.0
    layers.update(_stage_times(tracer, result["marks"]))
    wall = window[1] - window[0]
    layers["untraced_share"] = (wall - tracer.covered(window)) / wall
    return {"layers": layers, "bases": bases}


# -- entry point -----------------------------------------------------------------


def main(argv: list[str]) -> int:
    request = json.loads(argv[1])
    name = request["workload"]
    scale = request["scale"]
    try:
        _import_deskmt()
        from layertrace import LayerTracer

        if request["trace"]:
            tracer = LayerTracer()
        else:
            # Untraced runs only time the two synthesis calls.
            tracer = LayerTracer(layers=(("augment", "self_train"),
                                         ("augment", "back_translate")))
        tracer.install()
        result = RUNNERS[WORKLOADS[name]["kind"]](
            name, request["seed"], scale, request["work_dir"], tracer,
            request["evaluate_test"])
        if request["trace"]:
            result.update(trace_summary(tracer, result))
            tracer.write(request["trace_out"])
        del result["counts"], result["marks"], result["window"]
        result["ok"] = True
    except Exception as e:  # a failed repetition is reported, not raised
        traceback.print_exc(file=sys.stderr)
        result = {"ok": False, "error": f"{type(e).__name__}: {e}",
                  "attempted": planned_operations(name, scale)}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
