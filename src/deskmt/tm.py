"""Lexical translation models: IBM-Model-1 EM training, a windowed monotone
beam decoder producing n-best lists, and channel scoring of sentence pairs.

The decoder emits one target symbol per source position; at target step i it
may consume any unconsumed source position j with |j - i| <= window, so a
window of w allows local reorderings of radius w. Each step scores

    ln t(y | x_j) + lm_weight * ln P_lm(y | history)

and hypotheses are ranked by total score. Unknown source symbols translate to
the reserved unknown token at a configured floor probability.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import UNK_TOKEN, DataMix, Sentence, is_tag, strip_tag
from .lm import LanguageModel, train_lm
from .util import DataError, content_hash

NULL = "<null>"
DEFAULT_UNK_FLOOR = 1e-9


@dataclass
class NBestEntry:
    hyp: Sentence
    fwd: float
    channel: float | None = None
    lm: float | None = None
    combined: float | None = None


@dataclass
class NBestList:
    source: Sentence
    entries: list[NBestEntry]

    def top(self) -> NBestEntry:
        return self.entries[0]


class LexModel:
    """Directional translation model: lexical table + target LM + decoder settings."""

    def __init__(self, src_vocab: tuple[str, ...], tgt_vocab: tuple[str, ...],
                 t: np.ndarray, lm: LanguageModel, *, beam: int = 5, window: int = 1,
                 lm_weight: float = 0.5, src_lang: str = "src", tgt_lang: str = "tgt",
                 unk_floor: float = DEFAULT_UNK_FLOOR,
                 tag_bias: dict[str, dict[str, float]] | None = None,
                 train_ll_trace: tuple[float, ...] = ()):
        if src_vocab[0] != NULL:
            raise DataError("source vocabulary must start with the NULL symbol")
        if beam < 1 or window < 0 or lm_weight < 0:
            raise DataError("invalid decoder settings")
        self.src_vocab = src_vocab
        self.tgt_vocab = tgt_vocab
        self.t = t
        self.lm = lm
        self.beam = beam
        self.window = window
        self.lm_weight = lm_weight
        self.src_lang = src_lang
        self.tgt_lang = tgt_lang
        self.unk_floor = unk_floor
        self.tag_bias = tag_bias or {}
        self.train_ll_trace = train_ll_trace
        self.src_id = {s: i for i, s in enumerate(src_vocab)}
        self.tgt_id = {s: i for i, s in enumerate(tgt_vocab)}
        self._caches: dict = {}

    @property
    def direction(self) -> str:
        return f"{self.src_lang}->{self.tgt_lang}"

    def t_table(self) -> dict[str, dict[str, float]]:
        """Sparse dict view of the lexical table (nonzero entries only)."""
        table: dict[str, dict[str, float]] = {}
        for i, s in enumerate(self.src_vocab):
            row = self.t[i]
            nz = np.flatnonzero(row)
            if nz.size:
                table[s] = {self.tgt_vocab[j]: float(row[j]) for j in nz}
        return table

    # decoding state, built lazily and shared across calls

    def _ext_vocab(self) -> tuple[str, ...]:
        ext = self._caches.get("ext_vocab")
        if ext is None:
            ext = self.tgt_vocab + (UNK_TOKEN,)
            self._caches["ext_vocab"] = ext
        return ext

    def _scorer(self):
        scorer = self._caches.get("scorer")
        if scorer is None:
            scorer = self.lm.scorer_for(self._ext_vocab())
            self._caches["scorer"] = scorer
        return scorer

    def _t_ext(self) -> np.ndarray:
        """Lexical table padded with a floor row/column for unknown symbols."""
        t_ext = self._caches.get("t_ext")
        if t_ext is None:
            ns, nt = self.t.shape
            t_ext = np.full((ns + 1, nt + 1), self.unk_floor)
            t_ext[:ns, :nt] = self.t
            self._caches["t_ext"] = t_ext
        return t_ext

    def _candidates(self, position_symbol: str):
        """(ext ids, lex log-probs) of decodable targets for one source symbol."""
        cands = self._caches.setdefault("cands", {})
        got = cands.get(position_symbol)
        if got is None:
            sid = self.src_id.get(position_symbol)
            if sid is None or not np.any(self.t[sid]):
                ids = np.array([len(self.tgt_vocab)], dtype=np.intp)
                logp = np.array([np.log(self.unk_floor)])
            else:
                row = self.t[sid]
                ids = np.flatnonzero(row).astype(np.intp)
                logp = np.log(row[ids])
            got = (ids, logp)
            cands[position_symbol] = got
        return got


def _split_tag(sentence: Sentence) -> tuple[str | None, Sentence]:
    if sentence and is_tag(sentence[0]):
        return sentence[0], sentence[1:]
    return None, sentence


class EMTrainer:
    """Stepwise IBM Model 1 EM over a training mix.

    Starts from a uniform table, or from an existing model's table when warm
    starting (symbols unknown to the warm model initialize uniform). Domain
    tags are stripped before alignment; upsampled duplicates are folded into
    pair weights, which yields exactly the replicated-corpus estimates.
    """

    def __init__(self, mix: DataMix, warm_start: LexModel | None = None):
        pairs = _weighted_pairs(mix)
        if not pairs:
            raise DataError("EM training needs at least one parallel pair")
        src_syms = {s for (src, _), _ in pairs for s in src}
        tgt_syms = {t for (_, tgt), _ in pairs for t in tgt}
        if warm_start is not None:
            src_syms |= set(warm_start.src_vocab[1:])
            tgt_syms |= set(warm_start.tgt_vocab)
        self.src_vocab = (NULL,) + tuple(sorted(src_syms))
        self.tgt_vocab = tuple(sorted(tgt_syms))
        src_id = {s: i for i, s in enumerate(self.src_vocab)}
        tgt_id = {s: i for i, s in enumerate(self.tgt_vocab)}
        self.groups = _group_pairs(pairs, src_id, tgt_id)
        nt = len(self.tgt_vocab)
        if warm_start is None:
            self.t = np.full((len(self.src_vocab), nt), 1.0 / nt)
        else:
            self.t = np.full((len(self.src_vocab), nt), 1.0 / nt)
            rows = [src_id[s] for s in warm_start.src_vocab]
            cols = [tgt_id[s] for s in warm_start.tgt_vocab]
            self.t[np.ix_(rows, cols)] = warm_start.t
        self.ll_trace: list[float] = []

    def step(self) -> float:
        """One EM iteration; returns the log-likelihood of the pre-update table."""
        self.t, ll = _em_iteration(self.t, self.groups)
        self.ll_trace.append(ll)
        return ll

    def snapshot(self, lm: LanguageModel, **settings) -> LexModel:
        return LexModel(self.src_vocab, self.tgt_vocab, self.t.copy(), lm,
                        train_ll_trace=tuple(self.ll_trace), **settings)


def em_train(mix: DataMix, iterations: int, seed: int = 0, *, lm: LanguageModel | None = None,
             lm_order: int = 3, lm_k: float = 0.5, beam: int = 5, window: int = 1,
             lm_weight: float = 0.5, src_lang: str = "src", tgt_lang: str = "tgt") -> LexModel:
    """Standard IBM Model 1 EM with a NULL source word, from uniform initialization.

    The target-side LM is trained from the mix unless one is supplied; `seed`
    is accepted for interface uniformity (EM itself is deterministic).
    """
    if iterations < 1:
        raise DataError("EM needs at least one iteration")
    trainer = EMTrainer(mix)
    for _ in range(iterations):
        trainer.step()
    if lm is None:
        pairs = _weighted_pairs(mix)
        sents, weights = zip(*_target_sentences(pairs))
        lm = train_lm(list(sents), lm_order, lm_k, weights=list(weights))
    return trainer.snapshot(lm, beam=beam, window=window, lm_weight=lm_weight,
                            src_lang=src_lang, tgt_lang=tgt_lang)


def _weighted_pairs(mix: DataMix) -> list[tuple[tuple[Sentence, Sentence], int]]:
    weights: dict[tuple[Sentence, Sentence], int] = {}
    for src, tgt in mix.examples:
        key = (strip_tag(src), tgt)
        weights[key] = weights.get(key, 0) + 1
    return list(weights.items())


def _target_sentences(pairs) -> list[tuple[Sentence, int]]:
    weights: dict[Sentence, int] = {}
    for (_, tgt), w in pairs:
        weights[tgt] = weights.get(tgt, 0) + w
    return sorted(weights.items())


def _group_pairs(pairs, src_id, tgt_id):
    """Group (src ids + NULL, tgt ids, weight) by shape for batched EM updates."""
    by_shape: dict[tuple[int, int], list] = {}
    for (src, tgt), w in pairs:
        by_shape.setdefault((len(src), len(tgt)), []).append(
            ([0] + [src_id[s] for s in src], [tgt_id[t] for t in tgt], w))
    groups = []
    for (ls, lt), rows in sorted(by_shape.items()):
        S = np.array([r[0] for r in rows], dtype=np.intp)
        T = np.array([r[1] for r in rows], dtype=np.intp)
        W = np.array([r[2] for r in rows], dtype=np.float64)
        groups.append((ls, lt, S, T, W))
    return groups


_EM_CHUNK = 400_000  # max gathered elements per batch, keeps memory bounded


def _em_iteration(t: np.ndarray, groups) -> tuple[np.ndarray, float]:
    ns, nt = t.shape
    counts = np.zeros(ns * nt)
    ll = 0.0
    for ls, lt, S, T, W in groups:
        rows_per_chunk = max(1, _EM_CHUNK // ((ls + 1) * lt))
        for lo in range(0, S.shape[0], rows_per_chunk):
            s = S[lo:lo + rows_per_chunk]
            tg = T[lo:lo + rows_per_chunk]
            w = W[lo:lo + rows_per_chunk]
            probs = t[s[:, :, None], tg[:, None, :]]        # (B, ls+1, lt)
            denom = probs.sum(axis=1)                       # (B, lt)
            ll += float((w * (np.log(denom).sum(axis=1) - lt * np.log(ls + 1))).sum())
            post = probs / denom[:, None, :] * w[:, None, None]
            flat = s[:, :, None] * nt + tg[:, None, :]
            counts += np.bincount(flat.ravel(), weights=post.ravel(), minlength=ns * nt)
    counts = counts.reshape(ns, nt)
    row_sums = counts.sum(axis=1, keepdims=True)
    new_t = np.divide(counts, row_sums, out=np.zeros_like(counts), where=row_sums > 0)
    return new_t, ll


def corpus_log_likelihood(model: LexModel, mix: DataMix) -> float:
    """IBM1 marginal log-likelihood of a mix under the model's current table."""
    pairs = _weighted_pairs(mix)
    src_id = model.src_id
    tgt_id = model.tgt_id
    total = 0.0
    for (src, tgt), w in pairs:
        s_ids = [0] + [src_id[s] for s in src]
        t_ids = [tgt_id[t] for t in tgt]
        sub = model.t[np.ix_(s_ids, t_ids)]
        total += w * float(np.log(sub.sum(axis=0)).sum() - len(tgt) * np.log(len(src) + 1))
    return total


def translate_nbest(model: LexModel, x: Sentence, n: int) -> NBestList:
    """Beam search for the top-n target hypotheses (deduplicated, score-sorted).

    The effective beam width is max(model.beam, n) so an n-best list can
    always be filled from completed hypotheses.

    Each target step scores one pool of extensions. Its order is a contract,
    because ties between equal scores resolve by position in it: states are
    grouped by LM context in order of first appearance in the beam; within a
    group come the window positions j in ascending order; within a position,
    the admissible states in beam order; within a state, the candidate
    targets of source position j in ascending id order. The pool keeps the
    `width` best by `np.argpartition` and orders them by a stable descending
    `np.argsort`, so equal scores keep this pool order at the beam's tail as
    well as within it. Consumed positions are Python-int bitmasks, so source
    length is unbounded.
    """
    if n < 1:
        raise DataError("n-best size must be >= 1")
    tag, src = _split_tag(x)
    if not src:
        raise DataError("cannot translate an empty sentence")
    m = len(src)
    w = model.window
    width = max(model.beam, n)
    scorer = model._scorer()
    lm_weight = model.lm_weight
    order = getattr(model.lm, "order", 1)
    ext_vocab = model._ext_vocab()

    position = [model._candidates(sym) for sym in src]
    # All candidates back to back: position j owns columns off[j]:off[j + 1],
    # so a window of positions is one contiguous column slice.
    off = [0]
    for ids, _ in position:
        off.append(off[-1] + ids.size)
    ids_all = np.concatenate([ids for ids, _ in position])
    lex_all = np.concatenate([lex for _, lex in position])
    if tag is not None and model.tag_bias.get(tag):
        table = model.tag_bias[tag]
        bias = np.array([table.get(sym, 0.0) for sym in ext_vocab])
        lex_all = lex_all + bias[ids_all]

    # state: (score, consumed bitmask, lm context tuple, emitted ext ids tuple)
    beam = [(0.0, 0, (), ())]
    for i in range(1, m + 1):
        lo, hi = max(0, i - 1 - w), min(m - 1, i - 1 + w)
        must = i - 1 - w  # this position can never be consumed after step i
        c0 = off[lo]
        cols = off[hi + 1] - c0
        by_ctx: dict[tuple, list[int]] = {}
        for idx, state in enumerate(beam):
            by_ctx.setdefault(state[2], []).append(idx)

        # one pool row per (group, position, admissible state): the state's
        # score plus the step scores of the position's candidates
        row_state, row_pos, row_start, row_len = [], [], [], []
        for g, members in enumerate(by_ctx.values()):
            for j in range(lo, hi + 1):
                start = g * cols + off[j] - c0
                size = off[j + 1] - off[j]
                for idx in members:
                    mask = beam[idx][1]
                    if not mask >> j & 1 and (must < 0 or j == must or mask >> must & 1):
                        row_state.append(idx)
                        row_pos.append(j)
                        row_start.append(start)
                        row_len.append(size)
        if not row_state:
            raise DataError("no admissible decoding path (window too small)")
        win_ids = ids_all[c0:c0 + cols]
        lm_rows = np.array([scorer.logvec(ctx) for ctx in by_ctx])[:, win_ids]
        step = (lex_all[c0:c0 + cols] + lm_weight * lm_rows).ravel()
        lens = np.array(row_len)
        ends = lens.cumsum()
        gather = (np.array(row_start) - ends + lens).repeat(lens) + np.arange(ends[-1])
        scores = np.array([beam[idx][0] for idx in row_state])
        flat = scores.repeat(lens) + step[gather]
        if flat.size > width:
            keep = flat.argpartition(-width)[-width:]
            keep = keep[(-flat[keep]).argsort(kind="stable")]
        else:
            keep = (-flat).argsort(kind="stable")

        rows = ends.searchsorted(keep, "right").tolist()
        kept_ids = win_ids[gather[keep] % cols].tolist()
        new_beam = []
        for row, ext_id, score in zip(rows, kept_ids, flat[keep].tolist()):
            state = beam[row_state[row]]
            ctx = state[2] + (ext_vocab[ext_id],)
            if len(ctx) >= order:
                ctx = ctx[len(ctx) - order + 1:]
            new_beam.append((score, state[1] | (1 << row_pos[row]), ctx,
                             state[3] + (ext_id,)))
        beam = new_beam

    best: dict[tuple, float] = {}
    for score, _, _, emitted in beam:
        if best.get(emitted, -np.inf) < score:
            best[emitted] = score
    hyps = {tuple(ext_vocab[e] for e in emitted): score
            for emitted, score in best.items()}
    ranked = sorted(hyps.items(), key=lambda kv: (-kv[1], kv[0]))[:n]
    entries = [NBestEntry(hyp=hyp, fwd=score) for hyp, score in ranked]
    return NBestList(source=x, entries=entries)


def pair_logprob(model: LexModel, x: Sentence, y: Sentence) -> float:
    """Viterbi forced score: max over window-admissible alignments of the
    decoder's scoring function. Matches the fwd score of decoder outputs."""
    tag, src = _split_tag(x)
    y = strip_tag(y)
    if len(src) != len(y):
        raise DataError(f"length mismatch: |x|={len(src)} vs |y|={len(y)}")
    if not src:
        raise DataError("cannot score an empty pair")
    m = len(src)
    w = model.window
    scorer = model._scorer()
    ext_vocab = model._ext_vocab()
    ext_id = {s: i for i, s in enumerate(ext_vocab)}
    order = getattr(model.lm, "order", 1)
    unk_ext = len(model.tgt_vocab)

    bias_of = None
    if tag is not None and model.tag_bias.get(tag):
        bias_of = model.tag_bias[tag]

    def lex_term(j: int, token: str) -> float:
        ids, logp = model._candidates(src[j])
        tid = ext_id.get(token)
        if tid is None:
            value = -np.inf
        else:
            hits = np.flatnonzero(ids == tid)
            value = float(logp[hits[0]]) if hits.size else -np.inf
        if bias_of is not None and np.isfinite(value):
            value += bias_of.get(token, 0.0)
        return value

    states: dict[int, float] = {0: 0.0}
    ctx: tuple[str, ...] = ()
    for i in range(1, m + 1):
        lm_vec = scorer.logvec(ctx)
        token = y[i - 1]
        lm_term = float(lm_vec[ext_id.get(token, unk_ext)])
        lo, hi = max(0, i - 1 - w), min(m - 1, i - 1 + w)
        new_states: dict[int, float] = {}
        for mask, score in states.items():
            for j in range(lo, hi + 1):
                if mask >> j & 1:
                    continue
                lex = lex_term(j, token)
                if not np.isfinite(lex):
                    continue
                new_mask = mask | (1 << j)
                if i - w >= 1 and not new_mask >> (i - w - 1) & 1:
                    continue
                cand = score + (lex + model.lm_weight * lm_term)
                if new_states.get(new_mask, -np.inf) < cand:
                    new_states[new_mask] = cand
        if not new_states:
            raise DataError("no admissible alignment for this pair")
        states = new_states
        ctx = ctx + (token,)
        if len(ctx) >= order:
            ctx = ctx[len(ctx) - order + 1:]
    return states[(1 << m) - 1]


def channel_score(model: LexModel, x: Sentence, y: Sentence) -> float:
    """IBM1 marginal ln P(x | y) under a model trained in the y->x direction:

        sum_j ln( (1/(l+1)) * sum_{i=0..l} t(x_j | y_i) ),  l = |y|, index 0 = NULL.

    Unknown symbols look up at the floor probability; each position's inner
    marginal is also floored so the score stays finite.
    """
    x = strip_tag(x)
    if not x:
        return 0.0
    return float(_ibm1_marginals(model, [strip_tag(y)], x)[0])


def forward_marginal(model: LexModel, x: Sentence, y: Sentence) -> float:
    """IBM1 marginal ln P(y | x) in the model's own direction (length-agnostic)."""
    y = strip_tag(y)
    if not y:
        return 0.0
    return float(_ibm1_marginals(model, [strip_tag(x)], y)[0])


def channel_scores(model: LexModel, x: Sentence, ys: list[Sentence]) -> list[float]:
    """channel_score(model, x, y) for every y, as one gather per length of y."""
    x = strip_tag(x)
    if not x:
        return [0.0] * len(ys)
    ys = [strip_tag(y) for y in ys]
    by_len: dict[int, list[int]] = {}
    for k, y in enumerate(ys):
        by_len.setdefault(len(y), []).append(k)
    out = [0.0] * len(ys)
    for members in by_len.values():
        values = _ibm1_marginals(model, [ys[k] for k in members], x)
        for k, value in zip(members, values.tolist()):
            out[k] = value
    return out


def _ibm1_marginals(model: LexModel, conds: list[Sentence], obs: Sentence) -> np.ndarray:
    """IBM1 marginal ln P(obs | cond) for each of `conds`, which share one length l:

        sum_j ln max( (1/(l+1)) * sum_{i=0..l} t_ext(cond_i, obs_j), unk_floor ),

    with cond index 0 the NULL symbol, from one (E, l+1, |obs|) gather.
    """
    ns, nt = model.t.shape
    src_id, tgt_id = model.src_id, model.tgt_id
    ids = []
    for cond in conds:
        ids.append(0)
        ids += [src_id.get(s, ns) for s in cond]
    rows = np.array(ids, dtype=np.intp).reshape(len(conds), -1, 1)
    cols = np.array([tgt_id.get(s, nt) for s in obs], dtype=np.intp)
    # sum / count is the mean bit for bit, without np.mean's call overhead
    inner = model._t_ext()[rows, cols].sum(axis=1) / rows.shape[1]
    return np.log(np.maximum(inner, model.unk_floor)).sum(axis=1)


FORMAT_VERSION = 1


def model_to_dict(model: LexModel) -> dict:
    from .lm import lm_to_dict
    rows = []
    for i in range(len(model.src_vocab)):
        nz = np.flatnonzero(model.t[i])
        rows.append([[int(j), float(model.t[i, j])] for j in nz])
    return {
        "version": FORMAT_VERSION, "kind": "lex",
        "src_lang": model.src_lang, "tgt_lang": model.tgt_lang,
        "src_vocab": list(model.src_vocab), "tgt_vocab": list(model.tgt_vocab),
        "beam": model.beam, "window": model.window, "lm_weight": model.lm_weight,
        "unk_floor": model.unk_floor, "tag_bias": model.tag_bias,
        "train_ll_trace": list(model.train_ll_trace),
        "t_rows": rows, "lm": lm_to_dict(model.lm),
    }


def model_from_dict(doc: dict) -> LexModel:
    from .lm import lm_from_dict
    if doc.get("version") != FORMAT_VERSION or doc.get("kind") != "lex":
        raise DataError("unsupported model serialization")
    src_vocab = tuple(doc["src_vocab"])
    tgt_vocab = tuple(doc["tgt_vocab"])
    t = np.zeros((len(src_vocab), len(tgt_vocab)))
    for i, row in enumerate(doc["t_rows"]):
        for j, value in row:
            t[i, int(j)] = float(value)
    return LexModel(src_vocab, tgt_vocab, t, lm_from_dict(doc["lm"]),
                    beam=int(doc["beam"]), window=int(doc["window"]),
                    lm_weight=float(doc["lm_weight"]), src_lang=doc["src_lang"],
                    tgt_lang=doc["tgt_lang"], unk_floor=float(doc["unk_floor"]),
                    tag_bias={k: dict(v) for k, v in doc["tag_bias"].items()},
                    train_ll_trace=tuple(doc["train_ll_trace"]))


def model_hash(model) -> str:
    """Content hash of a LexModel or Ensemble artifact."""
    from .ensemble import Ensemble, ensemble_to_dict
    if isinstance(model, Ensemble):
        return content_hash(ensemble_to_dict(model))
    return content_hash(model_to_dict(model))
