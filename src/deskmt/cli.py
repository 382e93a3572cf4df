"""Command-line entry points for every pipeline stage.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error. All
randomness flows from --seed flags; stage-local seeds are derived by labeled
hashing, so identical invocations reproduce identical outputs.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import fields

from . import augment, corpus, metrics, mine, pipeline, rerank, search, subword, synth, tm
from .corpus import (
    SIDE_MONO_SOURCE,
    SIDE_MONO_TARGET,
    SIDE_PARALLEL,
    load_corpus,
    save_corpus,
)
from .ensemble import Ensemble
from .lm import FINETUNE_ALPHA, lm_from_dict
from .metrics import EvalContext
from .rerank import NoisyChannelWeights, RerankContext
from .search import SearchSpace, TrialConfig, default_search_space
from .util import DataError, read_json, stable_json_dumps, write_text_atomic

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    # no abbreviated flags: a prefix would change its meaning whenever a flag
    # is added or removed (`--mode` would read as `--model`)
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load_models(paths: list[str]):
    """One path gives a LexModel; several give a probability-averaged ensemble."""
    models = [tm.model_from_dict(read_json(path, "model")) for path in paths]
    return models[0] if len(models) == 1 else Ensemble(models)


def _save_model(model, path: str) -> None:
    write_text_atomic(path, tm.model_json(model)[0] + "\n")


def _load_lm(path: str):
    return lm_from_dict(read_json(path, "language model"))


class _Inputs:
    """A command's one corpus reader and the EvalContext that scores its
    output. With --bpe the BPE model is loaded once: `read` encodes with it
    and the context decodes with it."""

    def __init__(self, args):
        bpe = subword.load_bpe(args.bpe) if getattr(args, "bpe", None) else None
        self.eval_ctx = EvalContext(bpe=bpe,
                                    policy=getattr(args, "policy", subword.POLICY_SPACED))

    def read(self, path: str, side: str = SIDE_PARALLEL):
        tag = corpus.TAG_IN_DOMAIN if side == SIDE_PARALLEL else corpus.TAG_MONO
        ds = load_corpus(path, side, tag=tag)
        bpe = self.eval_ctx.bpe
        return ds if bpe is None else subword.encode_dataset(ds, bpe)


def _rerank_ctx(args) -> RerankContext | None:
    """A command reranks exactly when --channel-model is given, with --lm."""
    if (args.channel_model is None) != (args.lm is None):
        raise DataError("reranking needs both --channel-model and --lm")
    if args.channel_model is None:
        return None
    weights = NoisyChannelWeights(args.lambda1, args.lambda2)
    return RerankContext(_load_models(args.channel_model), _load_lm(args.lm),
                         weights, args.nbest)


def _decode_label(rerank_ctx) -> str:
    return "beam" if rerank_ctx is None else "rerank"


def _add_rerank_flags(p):
    p.add_argument("--channel-model", nargs="+", default=None,
                   help="backward model file(s); several form an ensemble. Given "
                   "with --lm, the n-best lists are reranked")
    p.add_argument("--lm", default=None, help="language model file for reranking")
    p.add_argument("--lambda1", type=float, default=0.0)
    p.add_argument("--lambda2", type=float, default=0.0)
    p.add_argument("--nbest", type=int, default=tm.DEFAULT_NBEST,
                   help="n-best list size: of the lists beam decoding returns, "
                   "and of the lists reranking rescores")


def _add_config_flags(p):
    """One flag per TrialConfig field: `--` and the field name with `-` for
    `_`, typed and defaulted by the field's default."""
    for f in fields(TrialConfig):
        p.add_argument(f"--{f.name.replace('_', '-')}", type=type(f.default),
                       default=f.default)


def _config_from(args) -> TrialConfig:
    return TrialConfig(**{f.name: getattr(args, f.name) for f in fields(TrialConfig)})


def _load_training_sets(args, inputs: _Inputs):
    """The (source, target) languages of the direction --swap picks, and its
    bitext, self-trained, back-translated and dev sets in its orientation.
    Only the bitext and dev go through the reader: with --bpe the synthetic
    sets are the encoded output of augment-st/-bt, read as they are."""
    bitext = inputs.read(args.parallel)
    st = load_corpus(args.st, SIDE_PARALLEL, tag=corpus.TAG_SELF_TRAINED) \
        if args.st else None
    bt = load_corpus(args.bt, SIDE_PARALLEL, tag=corpus.TAG_BACK_TRANSLATED) \
        if args.bt else None
    dev = inputs.read(args.dev)
    direction = "bwd" if args.swap else "fwd"
    st, bt = augment.training_roles(direction, st, bt)
    return (augment.DIRECTIONS[direction], augment.orient(direction, bitext), st, bt,
            augment.orient(direction, dev))


# -- subcommands -------------------------------------------------------------


def cmd_synth_gen(args) -> int:
    spec = synth.make_spec(args.vocab, noise_rate=args.noise, seed=args.seed,
                           min_len=args.min_len, max_len=args.max_len)
    sizes = {name: getattr(args, name) for name in synth.DEFAULT_SIZES}
    bundle = synth.gen_corpora(spec, sizes)
    os.makedirs(args.out, exist_ok=True)
    files = {"parallel": "parallel.tsv", "mono_src": "mono_src.txt",
             "mono_tgt": "mono_tgt.txt", "dev": "dev.tsv", "test": "test.tsv"}
    for name, fname in files.items():
        save_corpus(getattr(bundle, name), os.path.join(args.out, fname))
    print(f"wrote benchmark bundle to {args.out} "
          f"(vocab {spec.vocab_size}, noise {spec.noise_rate})")
    return EXIT_OK


def cmd_learn_bpe(args) -> int:
    inputs = _Inputs(args)
    sentences = []
    for path in args.parallel or []:
        ds = inputs.read(path)
        sentences += [s for s, _ in ds.pairs] + [t for _, t in ds.pairs]
    for path in args.mono or []:
        ds = inputs.read(path, SIDE_MONO_SOURCE)
        sentences += list(ds.sentences)
    model = subword.learn_bpe(sentences, args.vocab_size)
    subword.save_bpe(model, args.out)
    print(f"learned {len(model.merges)} merges "
          f"(inventory {model.inventory_size()}) -> {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    inputs = _Inputs(args)
    (src_lang, tgt_lang), bitext, st, bt, dev = _load_training_sets(args, inputs)
    config = _config_from(args)
    mix = search.trial_mix(config, bitext, st, bt)
    result = search.run_trial(config, mix, dev,
                              eval_ctx=inputs.eval_ctx,
                              patience=args.patience,
                              src_lang=src_lang, tgt_lang=tgt_lang)
    _save_model(result.model, args.out)
    print(f"dev perplexity trace: {[round(p, 3) for p in result.dev_ppl_trace]}")
    print(f"dev BLEU {result.dev_bleu:.2f} -> {args.out}")
    return EXIT_OK


_SEARCH_MODEL = re.compile(r"trial\d{3}\.json|ensemble\d+\.json")


def cmd_search(args) -> int:
    if not 0 <= args.topk <= args.trials:
        raise DataError(f"--topk must lie in [0, --trials], got {args.topk}")
    inputs = _Inputs(args)
    (src_lang, tgt_lang), bitext, st, bt, dev = _load_training_sets(args, inputs)
    space = SearchSpace.load(args.space) if args.space else default_search_space()

    def save(index, model):
        os.makedirs(args.out_dir, exist_ok=True)
        _save_model(model, os.path.join(args.out_dir, f"trial{index:03d}.json"))

    results = search.run_search(
        space, args.trials, args.seed, bitext, st, bt, dev, topk=args.topk, save=save,
        eval_ctx=inputs.eval_ctx, patience=args.patience,
        src_lang=src_lang, tgt_lang=tgt_lang)
    search.write_trial_log(results, os.path.join(args.out_dir, "runlog.jsonl"))
    written = {f"trial{i:03d}.json" for i in range(len(results))}
    order = search.rank_trials(results)
    best = order[0]
    print(f"{len(results)} trials -> {args.out_dir}; "
          f"best trial {best} dev BLEU {results[best].dev_bleu:.2f}")
    if args.topk:
        members = order[:args.topk]
        print("ensemble members: " + " ".join(f"trial{i:03d}" for i in members))
        for rank, i in enumerate(members):
            _save_model(results[i].model, os.path.join(args.out_dir, f"ensemble{rank}.json"))
            written.add(f"ensemble{rank}.json")
    # an earlier run with more trials or a larger --topk left models this
    # run did not write
    for name in os.listdir(args.out_dir):
        if _SEARCH_MODEL.fullmatch(name) and name not in written:
            os.remove(os.path.join(args.out_dir, name))
    return EXIT_OK


def cmd_translate(args) -> int:
    inputs = _Inputs(args)
    model = _load_models(args.model)
    sources = inputs.read(args.input, SIDE_MONO_SOURCE).sentences
    block = tm.translate_corpus(model, list(sources), args.nbest,
                                rerank_ctx=_rerank_ctx(args))
    if args.dump_nbest:
        rerank.write_nbest_file(block, args.dump_nbest)
    lines = [" ".join(inputs.eval_ctx.detok_tokens(hyp)) for hyp in block.top_hyps()]
    write_text_atomic(args.output, "".join(line + "\n" for line in lines))
    print(f"translated {len(lines)} sentences -> {args.output}")
    return EXIT_OK


def cmd_rerank(args) -> int:
    block = rerank.read_nbest_file(args.nbest_file)
    channel = _load_models(args.channel_model)
    lm = _load_lm(args.lm)
    weights = NoisyChannelWeights(args.lambda1, args.lambda2)
    out = rerank.rerank(block, channel, lm, weights)
    rerank.write_nbest_file(out, args.out)
    print(f"reranked {len(out)} lists -> {args.out}")
    return EXIT_OK


def cmd_tune_lambdas(args) -> int:
    inputs = _Inputs(args)
    weights, _ = rerank.tune_lambdas(
        inputs.read(args.dev), _load_models(args.model), _load_models(args.channel_model),
        _load_lm(args.lm), trials=args.tune_trials, seed=args.seed,
        nbest=args.nbest, eval_ctx=inputs.eval_ctx)
    doc = {"lambda1": weights.lambda1, "lambda2": weights.lambda2}
    if args.out:
        write_text_atomic(args.out, stable_json_dumps(doc) + "\n")
    print(stable_json_dumps(doc))
    return EXIT_OK


# augment-<kind>: its help, the side of its monolingual file, that file's
# default language label, and the library call that makes the synthetic set
_AUGMENT = {
    "bt": ("back-translate a target-side monolingual file", SIDE_MONO_TARGET, "tgt",
           lambda model, mono, rr, lang: augment.back_translate(model, mono, rr,
                                                                target_lang=lang)),
    "st": ("self-train on a source-side monolingual file", SIDE_MONO_SOURCE, "src",
           lambda model, mono, rr, lang: augment.self_train(model, mono, rr,
                                                            source_lang=lang)),
}


def _cmd_augment(args, kind: str) -> int:
    _, side, _, generate = _AUGMENT[kind]
    inputs = _Inputs(args)
    model = _load_models(args.model)
    rr = _rerank_ctx(args)
    out = generate(model, inputs.read(args.mono, side), rr, args.mono_lang)
    save_corpus(out, args.out)
    provenance = {"generator": tm.model_hash(model), "decode": _decode_label(rr),
                  "lambdas": [args.lambda1, args.lambda2],
                  "dropped": out.dropped, "tag": out.tag}
    write_text_atomic(args.out + ".prov.json", stable_json_dumps(provenance) + "\n")
    print(f"wrote {len(out.pairs)} pairs ({out.dropped} dropped) -> {args.out}")
    return EXIT_OK


def cmd_pipeline(args) -> int:
    inputs = _Inputs(args)
    parallel = inputs.read(args.parallel)
    dev = inputs.read(args.dev)
    mono_src = mono_tgt = None
    if not args.parallel_only:
        if args.mono_source:
            mono_src = inputs.read(args.mono_source, SIDE_MONO_SOURCE)
        if args.mono_target:
            mono_tgt = inputs.read(args.mono_target, SIDE_MONO_TARGET)
    space = SearchSpace.load(args.space) if args.space else default_search_space()
    config = pipeline.PipelineConfig(
        iterations=args.iterations, trials=args.trials, topk=args.topk,
        seed=args.seed, bpe_vocab=args.bpe_vocab, nbest=args.nbest,
        tune_trials=args.tune_trials, patience=args.patience,
        finetune_steps=args.finetune_steps, search_space=space)
    manifest = pipeline.run_pipeline(parallel, mono_src, mono_tgt, dev,
                                     args.run_dir, config)
    final = manifest.data["iterations"][-1]
    print(f"run {manifest.data['run_id']} complete: "
          f"dev BLEU fwd {final['dev_bleu']['fwd']:.2f} "
          f"bwd {final['dev_bleu']['bwd']:.2f}")
    print(f"manifest: {manifest.path}")
    return EXIT_OK


def cmd_mine(args) -> int:
    index = mine.load_url_index(args.url_index)
    docs_src = mine.load_doc_dir(args.docs_src, index["src"], lang="src")
    docs_tgt = mine.load_doc_dir(args.docs_tgt, index["tgt"], lang="tgt")
    model = _load_models(args.model)
    pairs, matches = mine.mine_bitext(docs_src, docs_tgt, model,
                                      doc_threshold=args.threshold,
                                      floor=args.floor)
    write_text_atomic(args.out, "".join(" ".join(sa) + "\t" + " ".join(sb) + "\n"
                                        for sa, sb, _ in pairs))
    write_text_atomic(args.out + ".scores.tsv", "".join(f"{score!r}\n" for _, _, score in pairs))
    print(f"matched {len(matches)} document pairs, "
          f"mined {len(pairs)} sentence pairs -> {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    inputs = _Inputs(args)
    model = _load_models(args.model)
    rr = _rerank_ctx(args)
    report = metrics.evaluate_system(model, inputs.read(args.test), _decode_label(rr),
                                     rerank_ctx=rr, eval_ctx=inputs.eval_ctx,
                                     nbest=args.nbest)
    if args.report:
        write_text_atomic(args.report, stable_json_dumps(report.to_dict()) + "\n")
    print(report.format_text())
    return EXIT_OK


def cmd_finetune(args) -> int:
    inputs = _Inputs(args)
    model = _load_models([args.model])
    in_domain = inputs.read(args.in_domain)
    dev = inputs.read(args.dev)
    before = search.dev_bleu(model, dev, eval_ctx=inputs.eval_ctx)
    tuned, after = search.finetune(model, in_domain, dev, args.max_steps,
                                   base_bleu=before, lm_alpha=args.lm_alpha,
                                   eval_ctx=inputs.eval_ctx)
    _save_model(tuned, args.out)
    print(f"dev BLEU {before:.2f} -> {after:.2f}; wrote {args.out}")
    return EXIT_OK


# -- parser ------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="deskmt",
                     description="Desk-scale low-resource MT experimentation toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth-gen", help="generate a synthetic benchmark bundle: "
                       "parallel.tsv, mono_src.txt, mono_tgt.txt, dev.tsv, test.tsv")
    p.add_argument("--out", required=True)
    p.add_argument("--vocab", type=int, default=synth.DEFAULT_VOCAB)
    p.add_argument("--noise", type=float, default=synth.DEFAULT_NOISE)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-len", type=int, default=3)
    p.add_argument("--max-len", type=int, default=9)
    for name, value in synth.DEFAULT_SIZES.items():
        p.add_argument(f"--{name.replace('_', '-')}", type=int, default=value)
    p.set_defaults(handler=cmd_synth_gen)

    p = sub.add_parser("learn-bpe", help="learn a BPE vocabulary")
    p.add_argument("--parallel", nargs="*", default=[])
    p.add_argument("--mono", nargs="*", default=[])
    p.add_argument("--vocab-size", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_learn_bpe)

    def add_training_io(p):
        p.add_argument("--parallel", required=True)
        p.add_argument("--st", default=None,
                       help="self-trained TSV: real sources, forward translations; "
                       "with --bpe, the encoded output of augment-st")
        p.add_argument("--bt", default=None,
                       help="back-translated TSV: backward translations, real targets; "
                       "with --bpe, the encoded output of augment-bt")
        p.add_argument("--dev", required=True)
        p.add_argument("--bpe", default=None)
        p.add_argument("--swap", action="store_true",
                       help="train the reverse (target-to-source) direction from the "
                       "same source-target files: its self-trained set is the swapped "
                       "--bt (--up-fwd), its back-translated set the swapped --st")
        p.add_argument("--patience", type=int, default=search.DEFAULT_PATIENCE)

    p = sub.add_parser("train", help="train one model configuration")
    add_training_io(p)
    _add_config_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("search", help="random hyperparameter search")
    add_training_io(p)
    p.add_argument("--trials", type=int, default=search.DEFAULT_TRIALS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--space", default=None, help="search space JSON file")
    p.add_argument("--topk", type=int, default=0,
                   help="also export the top-k ensemble members")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(handler=cmd_search)

    p = sub.add_parser("translate", help="translate a text file")
    p.add_argument("--model", nargs="+", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--bpe", default=None)
    p.add_argument("--policy", choices=[subword.POLICY_SPACED, subword.POLICY_UNSPACED],
                   default=subword.POLICY_SPACED)
    p.add_argument("--dump-nbest", default=None)
    _add_rerank_flags(p)
    p.set_defaults(handler=cmd_translate)

    p = sub.add_parser("rerank", help="rerank an n-best interchange file")
    p.add_argument("--nbest-file", required=True)
    p.add_argument("--channel-model", nargs="+", required=True)
    p.add_argument("--lm", required=True)
    p.add_argument("--lambda1", type=float, required=True)
    p.add_argument("--lambda2", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_rerank)

    p = sub.add_parser("tune-lambdas", help="random-search reranking weights")
    p.add_argument("--dev", required=True)
    p.add_argument("--model", nargs="+", required=True)
    p.add_argument("--channel-model", nargs="+", required=True)
    p.add_argument("--lm", required=True)
    p.add_argument("--bpe", default=None)
    p.add_argument("--tune-trials", type=int, default=rerank.DEFAULT_TUNE_TRIALS)
    p.add_argument("--nbest", type=int, default=tm.DEFAULT_NBEST)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_tune_lambdas)

    for kind, (help_text, _, lang, _) in _AUGMENT.items():
        p = sub.add_parser(f"augment-{kind}", help=help_text)
        p.add_argument("--model", nargs="+", required=True)
        p.add_argument("--mono", required=True)
        p.add_argument("--mono-lang", default=lang,
                       help="language label of the monolingual file")
        p.add_argument("--bpe", default=None)
        p.add_argument("--out", required=True)
        _add_rerank_flags(p)
        p.set_defaults(handler=lambda a, k=kind: _cmd_augment(a, k))

    p = sub.add_parser("pipeline", help="run the full iterative algorithm")
    p.add_argument("--parallel", required=True)
    p.add_argument("--mono-source", default=None)
    p.add_argument("--mono-target", default=None)
    p.add_argument("--dev", required=True)
    p.add_argument("--run-dir", required=True)
    p.add_argument("--iterations", type=int, default=3)
    p.add_argument("--trials", type=int, default=search.DEFAULT_TRIALS)
    p.add_argument("--topk", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--parallel-only", action="store_true")
    p.add_argument("--bpe-vocab", type=int, default=pipeline.DEFAULT_BPE_VOCAB)
    p.add_argument("--nbest", type=int, default=tm.DEFAULT_NBEST)
    p.add_argument("--tune-trials", type=int, default=rerank.DEFAULT_TUNE_TRIALS)
    p.add_argument("--patience", type=int, default=search.DEFAULT_PATIENCE)
    p.add_argument("--finetune-steps", type=int, default=search.DEFAULT_FINETUNE_STEPS)
    p.add_argument("--space", default=None)
    p.set_defaults(handler=cmd_pipeline)

    p = sub.add_parser("mine", help="mine bitext from comparable documents")
    p.add_argument("--docs-src", required=True)
    p.add_argument("--docs-tgt", required=True)
    p.add_argument("--url-index", required=True)
    p.add_argument("--model", nargs="+", required=True,
                   help="channel model scoring source text given target text")
    p.add_argument("--threshold", type=float, default=0.1,
                   help="document similarity acceptance threshold")
    p.add_argument("--floor", type=float, default=-6.0,
                   help="per-token sentence-pair score floor (log space)")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_mine)

    p = sub.add_parser("evaluate", help="decode a test set and report BLEU")
    p.add_argument("--model", nargs="+", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--bpe", default=None)
    p.add_argument("--policy", choices=[subword.POLICY_SPACED, subword.POLICY_UNSPACED],
                   default=subword.POLICY_SPACED)
    p.add_argument("--report", default=None)
    _add_rerank_flags(p)
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("finetune", help="fine-tune a model on in-domain data")
    p.add_argument("--model", required=True)
    p.add_argument("--in-domain", required=True)
    p.add_argument("--dev", required=True)
    p.add_argument("--bpe", default=None)
    p.add_argument("--max-steps", type=int, default=search.DEFAULT_FINETUNE_STEPS)
    p.add_argument("--lm-alpha", type=float, default=FINETUNE_ALPHA)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_finetune)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except SystemExit as e:
        return int(e.code or 0)
    except DataError as e:
        print(f"deskmt: data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except Exception as e:  # internal failure
        print(f"deskmt: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
