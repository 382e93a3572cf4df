"""Layer spans for the benchmark's traced runs.

`LayerTracer.install()` wraps each measured public function of `deskmt` in
every module namespace that holds it (for example `translate_nbest` in `tm`,
`augment`, `rerank` and `ensemble`), so calls are seen whichever module makes
them. Each call becomes a span (name, start, end, parent) kept in memory; the
per-layer table is computed from the spans when the run ends.

Some wrappers also count work at the boundary: tokens encoded, n-best entries
scored, dropped synthetic sentences, repeated decodes, and the useful share of
EM iterations and fine-tune steps.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
import time

# (module, attribute) of every measured function; a dotted attribute names a
# method. The metric prefix is "<module>.<attribute>".
LAYERS = (
    ("subword", "learn_bpe"), ("subword", "encode_dataset"),
    ("lm", "train_lm"), ("lm", "finetune_lm"), ("lm", "logprob"),
    ("tm", "translate_nbest"), ("tm", "channel_score"), ("tm", "forward_marginal"),
    ("tm", "EMTrainer.step"), ("tm", "model_to_dict"), ("tm", "model_from_dict"),
    ("rerank", "fill_scores"), ("rerank", "rerank"), ("rerank", "tune_lambdas"),
    ("augment", "self_train"), ("augment", "back_translate"),
    ("search", "run_trial"), ("search", "dev_bleu"), ("search", "dev_perplexity"),
    ("search", "finetune"),
    ("metrics", "bleu"), ("metrics", "evaluate_system"),
    ("mine", "match_documents"), ("mine", "lev_sim"), ("mine", "jaccard"),
    ("mine", "align_sentences"), ("mine", "greedy_match"), ("mine", "build_lexicon"),
    ("corpus", "build_mix"),
    ("synth", "gen_corpora"),
)

# Wrapped only so that stage boundaries and the untraced share can be
# computed; they are not reported as layers of their own.
HELPERS = (
    ("search", "run_search"),
    ("tm", "EMTrainer.__init__"),
    ("pipeline", "_save_model"),
    ("pipeline", "_save_dataset"),
)

# translate_nbest is reported in two parts: top-1 decodes (n = 1) and
# n-best decodes (n > 1).
DECODE = "tm.translate_nbest"
DECODE_PARTS = (DECODE + ".n1", DECODE + ".nk")

# Spans of these run outside the timed region: the benchmark generates its
# inputs before it and evaluates on the test split after it.
OUTSIDE_TIMED = ("synth.gen_corpora", "metrics.evaluate_system")


def layer_names() -> list[str]:
    names = []
    for module, attr in LAYERS:
        name = f"{module}.{attr}"
        names.extend(DECODE_PARTS if name == DECODE else [name])
    return names


def _model_fingerprint(model) -> str:
    """Content key of a decoder: table, vocabularies, settings and LM shape."""
    lm = model.lm
    parts = [getattr(lm, "order", 0), getattr(lm, "k", 0),
             getattr(lm, "interp_alpha", 0.0), getattr(lm, "token_total", None)]
    for sub in ("base", "indomain"):
        inner = getattr(lm, sub, None)
        if inner is not None:
            parts.append((inner.token_total, len(inner.vocab)))
    head = repr((model.src_vocab, model.tgt_vocab, model.beam, model.window,
                 model.lm_weight, model.unk_floor, sorted(model.tag_bias.items()),
                 parts))
    digest = hashlib.sha256(head.encode("utf-8"))
    digest.update(model.t.tobytes())
    return digest.hexdigest()


class LayerTracer:
    """Records spans and boundary counts for the functions in LAYERS."""

    clock = staticmethod(time.perf_counter)

    def __init__(self, layers=LAYERS + HELPERS):
        self.layers = layers
        self.spans: list = []     # (name, start, end, parent index or -1)
        self._stack: list = []    # open frames: [span index, name, extra]
        self.marks: list = []     # (stage, time) from PipelineManifest.mark_completed
        self.counts = {"subword.encode_dataset.tokens": 0,
                       "rerank.fill_scores.entries": 0,
                       "augment.dropped": 0, "augment.kept": 0,
                       "decode.repeats": 0, "decode.calls": 0,
                       "em.useful": 0, "em.run": 0,
                       "finetune.useful": 0, "finetune.run": 0}
        self._decoded: set = set()
        self._fingerprints: dict = {}   # id(model) -> (model, fingerprint)

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for module, attr in self.layers:
            self._patch(module, attr, f"{module}.{attr}")
        pipeline = importlib.import_module("deskmt.pipeline")
        cls = pipeline.PipelineManifest
        original = cls.mark_completed
        marks = self.marks
        clock = self.clock

        def mark_completed(manifest, stage):
            marks.append((stage, clock()))
            return original(manifest, stage)

        cls.mark_completed = mark_completed

    def _patch(self, module: str, attr: str, name: str) -> None:
        # A function the library no longer has keeps its row at 0 calls, so
        # deleting code never breaks the benchmark.
        home = importlib.import_module(f"deskmt.{module}")
        if "." in attr:
            cls_name, method = attr.split(".")
            owner = getattr(home, cls_name, None)
            original = getattr(owner, method, None)
            if original is None:
                return
            setattr(owner, method, self._wrap(name, original))
            return
        original = getattr(home, attr, None)
        if original is None:
            return
        wrapper = self._wrap(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "deskmt" or mod_name.startswith("deskmt.")) \
                    and getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapper)

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = self.clock
        on_result = {
            "subword.encode_dataset": self._count_tokens,
            "rerank.fill_scores": self._count_entries,
            "augment.self_train": self._count_dropped,
            "augment.back_translate": self._count_dropped,
            "search.run_trial": self._count_em,
            "search.dev_bleu": self._note_finetune_score,
            "search.finetune": self._count_finetune,
        }.get(name)
        decode = name == DECODE

        def wrapper(*args, **kwargs):
            span_name = name
            if decode:
                span_name = self._decode_name(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [index, span_name, None]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (span_name, start, end, parent)
            if on_result is not None:
                on_result(frame, result)
            return result

        return wrapper

    # -- boundary counts ------------------------------------------------------

    def _decode_name(self, model, x, n):
        # The entry keeps the model alive, so its id is never reused.
        entry = self._fingerprints.get(id(model))
        if entry is None:
            entry = self._fingerprints[id(model)] = (model, _model_fingerprint(model))
        key = (entry[1], tuple(x), n)
        self.counts["decode.calls"] += 1
        if key in self._decoded:
            self.counts["decode.repeats"] += 1
        else:
            self._decoded.add(key)
        return DECODE_PARTS[0] if n == 1 else DECODE_PARTS[1]

    def _count_tokens(self, frame, ds) -> None:
        if ds.pairs:
            total = sum(len(s) + len(t) for s, t in ds.pairs)
        else:
            total = sum(len(s) for s in ds.sentences)
        self.counts["subword.encode_dataset.tokens"] += total

    def _count_entries(self, frame, nbest) -> None:
        self.counts["rerank.fill_scores.entries"] += len(nbest.entries)

    def _count_dropped(self, frame, ds) -> None:
        self.counts["augment.dropped"] += ds.dropped
        self.counts["augment.kept"] += len(ds.pairs)

    def _count_em(self, frame, result) -> None:
        trace = list(result.dev_ppl_trace)
        self.counts["em.useful"] += trace.index(min(trace)) + 1
        self.counts["em.run"] += len(trace)

    def _note_finetune_score(self, frame, score) -> None:
        # dev_bleu called directly by finetune: the first call scores the
        # input model, each later one a fine-tune step.
        if self._stack and self._stack[-1][1] == "search.finetune":
            parent = self._stack[-1]
            if parent[2] is None:
                parent[2] = []
            parent[2].append(score)

    def _count_finetune(self, frame, model) -> None:
        scores = frame[2] or []
        best = scores[0] if scores else 0.0
        for score in scores[1:]:
            self.counts["finetune.run"] += 1
            if score > best:
                self.counts["finetune.useful"] += 1
                best = score

    # -- the per-layer table ----------------------------------------------------

    def layer_table(self, window: tuple[float, float]) -> dict:
        """calls, s and self_s of every layer.

        Spans inside the timed window count, except for the layers in
        OUTSIDE_TIMED, which count wherever they ran.
        """
        lo, hi = window
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table = {name: [0, 0.0, 0.0] for name in layer_names()}
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = table.get(name)
            if row is None:
                continue
            if name not in OUTSIDE_TIMED and not (lo <= start and end <= hi):
                continue
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        return table

    def covered(self, window: tuple[float, float]) -> float:
        """Seconds of the window covered by top-level spans."""
        lo, hi = window
        total = 0.0
        for _, start, end, parent in self.spans:
            if parent < 0:
                total += max(0.0, min(end, hi) - max(start, lo))
        return total

    def spans_of(self, name: str, window: tuple[float, float]) -> list:
        lo, hi = window
        return [(s, e) for n, s, e, p in self.spans
                if n == name and lo <= s and e <= hi]

    def write(self, path: str) -> None:
        """Write every span as a tab-separated line: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\n")
