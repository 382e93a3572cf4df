import json
import math
import random

import pytest

from deskmt.corpus import (
    SIDE_PARALLEL,
    TAG_BACK_TRANSLATED,
    TAG_IN_DOMAIN,
    TAG_SELF_TRAINED,
    TaggedDataset,
    build_mix,
)
from deskmt.search import (
    DataError,
    SearchSpace,
    TrialConfig,
    TrialResult,
    check_sample_size,
    default_search_space,
    dev_bleu,
    dev_perplexity,
    finetune,
    run_search,
    run_trial,
    sample_configs,
    select_top_k,
    trial_mix,
)
from deskmt.tm import em_train, translate_corpus


def parallel(seed, n_pairs=16, vocab=4):
    rng = random.Random(seed)
    src_vocab = [f"s{i}" for i in range(vocab)]
    lex = {s: f"t{i}" for i, s in enumerate(src_vocab)}
    pairs = []
    for _ in range(n_pairs):
        length = rng.randint(1, 4)
        src = tuple(rng.choice(src_vocab) for _ in range(length))
        pairs.append((src, tuple(lex[s] for s in src)))
    return TaggedDataset("p", SIDE_PARALLEL, "<d:in>", pairs=tuple(pairs))


def tiny_space():
    return SearchSpace(dims={
        "em_iterations": [2, 3],
        "lm_order": [2],
        "smoothing_k": [0.3],
        "lm_weight": [0.3],
        "window": [0, 1],
        "beam": [2],
        "up_bitext": [1, 2, 3],
        "up_fwd": [1],
        "up_bt": [1, 2],
    })


class TestSampleConfigs:
    def test_singleton_dimensions_give_unique_config(self):
        space = SearchSpace(dims={k: [v[0]] for k, v in tiny_space().dims.items()})
        configs = sample_configs(space, 1, seed=0)
        assert configs == [TrialConfig(em_iterations=2, lm_order=2, smoothing_k=0.3,
                                       lm_weight=0.3, window=0, beam=2, up_bitext=1,
                                       up_fwd=1, up_bt=1)]

    def test_same_seed_same_list(self):
        space = tiny_space()
        assert sample_configs(space, 10, seed=4) == sample_configs(space, 10, seed=4)

    def test_values_come_from_dimensions(self):
        space = tiny_space()
        for cfg in sample_configs(space, 24, seed=1):
            for name, values in space.dims.items():
                assert getattr(cfg, name) in values

    def test_default_space_matches_published_ranges(self):
        dims = default_search_space().dims
        assert dims["up_bitext"] == [1, 2, 3, 4, 6, 8, 12, 16, 20, 32, 40, 64]
        assert dims["up_fwd"] == [1, 2, 3, 4, 6, 8, 9]
        assert dims["up_bt"] == [1, 2, 3, 4, 6, 8, 9]
        assert "seed" not in dims

    @pytest.mark.parametrize("seed", [0, 1, 4, 9])
    def test_configs_are_distinct(self, seed):
        assert len(set(sample_configs(tiny_space(), 20, seed))) == 20

    @pytest.mark.parametrize("seed", [0, 1, 4, 9])
    @pytest.mark.parametrize("n", [1, 5, 24])
    def test_configs_are_the_first_distinct_draws(self, seed, n):
        # per-dimension draws in sorted dimension order, duplicates skipped:
        # a sample without duplicates is the plain with-replacement draw
        space = tiny_space()
        rng = random.Random(seed)
        expected = []
        while len(expected) < n:
            config = TrialConfig(**{name: rng.choice(space.dims[name])
                                    for name in sorted(space.dims)})
            if config not in expected:
                expected.append(config)
        assert sample_configs(space, n, seed) == expected

    @pytest.mark.parametrize("space, size", [
        (tiny_space(), 24),
        (SearchSpace(dims={"beam": [2, 2, 5], "window": [1]}), 2),
        (default_search_space(), 3 * 2 * 3 * 4 * 2 * 2 * 12 * 7 * 7),
    ], ids=["tiny", "repeated-value", "default"])
    def test_space_size_counts_distinct_values(self, space, size):
        check_sample_size(space, size)
        with pytest.raises(DataError, match=f"{size + 1} distinct configurations"):
            check_sample_size(space, size + 1)

    @pytest.mark.parametrize("n", [0, 25])
    def test_sample_size_outside_the_space_is_data_error(self, n):
        with pytest.raises(DataError):
            sample_configs(tiny_space(), n, seed=0)

    @pytest.mark.parametrize("values", [["2"], [None], [[2]], [True]])
    def test_non_numeric_dimension_values_rejected(self, values):
        with pytest.raises(DataError, match="'beam'"):
            SearchSpace(dims={"beam": values})

    def test_empty_dimension_rejected(self):
        with pytest.raises(DataError):
            SearchSpace(dims={"em_iterations": []})

    def test_space_file_round_trip(self, tmp_path):
        space = tiny_space()
        path = str(tmp_path / "space.json")
        space.save(path)
        assert SearchSpace.load(path) == space

    @pytest.mark.parametrize("doc,key", [
        ({}, "'dims'"), ([], "JSON object"), ({"dims": []}, "'dims'"),
        ({"dims": {"beam": 5}}, "'beam'"), ({"dims": {"beam": []}}, "'beam'"),
    ])
    def test_malformed_space_file_is_data_error(self, tmp_path, doc, key):
        path = tmp_path / "space.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataError, match=key) as err:
            SearchSpace.load(str(path))
        assert str(path) in str(err.value)


class TestRunTrial:
    def test_infinite_patience_runs_all_iterations(self):
        ds = parallel(1)
        mix = build_mix([ds])
        cfg = TrialConfig(em_iterations=4, lm_order=2, beam=2)
        result = run_trial(cfg, mix, ds, patience=None)
        assert len(result.dev_ppl_trace) == 4

    def test_stops_after_patience_exhausted(self, monkeypatch):
        # scripted signal: improves once, then strictly worsens from step 2
        scripted = iter([5.0, 6.0, 7.0, 8.0, 9.0])
        monkeypatch.setattr("deskmt.search.dev_perplexity",
                            lambda model, dev: next(scripted))
        ds = parallel(2)
        mix = build_mix([ds])
        cfg = TrialConfig(em_iterations=5, lm_order=2, beam=2)
        result = run_trial(cfg, mix, ds, patience=1)
        assert result.dev_ppl_trace == (5.0, 6.0)

    def test_patience_two_tolerates_one_bad_check(self, monkeypatch):
        scripted = iter([5.0, 6.0, 4.0, 4.5, 4.6, 4.7])
        monkeypatch.setattr("deskmt.search.dev_perplexity",
                            lambda model, dev: next(scripted))
        ds = parallel(2)
        mix = build_mix([ds])
        cfg = TrialConfig(em_iterations=6, lm_order=2, beam=2)
        result = run_trial(cfg, mix, ds, patience=2)
        assert result.dev_ppl_trace == (5.0, 6.0, 4.0, 4.5, 4.6)

    def test_bleu_matches_metric_on_decode(self):
        ds = parallel(3)
        mix = build_mix([ds])
        cfg = TrialConfig(em_iterations=2, lm_order=2, beam=2)
        result = run_trial(cfg, mix, ds, patience=None)
        assert result.dev_bleu == pytest.approx(dev_bleu(result.model, ds))

    def test_perplexity_definition(self):
        ds = parallel(4, n_pairs=6)
        model = em_train(build_mix([ds]), 2, lm_weight=0.5)
        from deskmt.lm import logprob
        from deskmt.tm import forward_marginal
        total = sum(forward_marginal(model, s, t) + 0.5 * logprob(model.lm, t)
                    for s, t in ds.pairs)
        tokens = sum(len(t) + 1 for _, t in ds.pairs)
        assert dev_perplexity(model, ds) == pytest.approx(math.exp(-total / tokens))


class TestSelectTopK:
    def fake_results(self, bleus):
        ds = parallel(5, n_pairs=4)
        mix = build_mix([ds])
        model = em_train(mix, 1)
        return [TrialResult(TrialConfig(), model, (1.0,), b) for b in bleus]

    def test_k1_selects_best(self):
        results = self.fake_results([10.0, 30.0, 20.0])
        ens = select_top_k(results, 1)
        assert ens.members[0] is results[1].model

    def test_ties_keep_lower_index(self):
        results = self.fake_results([10.0, 10.0, 10.0])
        ens = select_top_k(results, 2)
        assert ens.members[0] is results[0].model
        assert ens.members[1] is results[1].model

    def test_k_equals_all(self):
        results = self.fake_results([1.0, 2.0])
        assert len(select_top_k(results, 2).members) == 2

    def test_k_too_large_rejected(self):
        with pytest.raises(DataError):
            select_top_k(self.fake_results([1.0]), 2)

    def test_strictly_better_trial_changes_top1(self):
        results = self.fake_results([10.0, 20.0])
        better = self.fake_results([99.0])
        ens = select_top_k(results + better, 1)
        assert ens.members[0] is better[0].model


class TestRunSearch:
    def test_deterministic_and_schedule_independent(self):
        ds = parallel(6)
        space = tiny_space()
        a = run_search(space, 4, 1, ds, None, None, ds, patience=None)
        b = run_search(space, 4, 1, ds, None, None, ds, patience=None)
        assert [r.dev_bleu for r in a] == [r.dev_bleu for r in b]
        assert [r.dev_ppl_trace for r in a] == [r.dev_ppl_trace for r in b]
        assert [r.config for r in a] == [r.config for r in b]


class TestTrialMix:
    def bitext(self):
        return TaggedDataset("p", SIDE_PARALLEL, TAG_IN_DOMAIN,
                             pairs=((("a",), ("x",)), (("b",), ("y",))))

    def synth(self, tag, n):
        return TaggedDataset(f"s{tag}", SIDE_PARALLEL, tag,
                             pairs=tuple(((f"w{i}",), (f"v{i}",)) for i in range(n)))

    def test_bitext_only(self):
        mix = trial_mix(TrialConfig(up_bitext=1), self.bitext(), None, None)
        assert mix.weighted_pairs() == {(("a",), ("x",)): 1, (("b",), ("y",)): 1}

    def test_sizes_add_per_mix_law(self):
        st = self.synth(TAG_SELF_TRAINED, 3)
        bt = self.synth(TAG_BACK_TRANSLATED, 4)
        config = TrialConfig(up_bitext=3, up_fwd=2, up_bt=1)
        mix = trial_mix(config, self.bitext(), st, bt)
        assert sum(mix.weighted_pairs().values()) == 2 * 3 + 3 * 2 + 4 * 1

    def test_tag_correctness_over_whole_mix(self):
        st = self.synth(TAG_SELF_TRAINED, 2)
        bt = self.synth(TAG_BACK_TRANSLATED, 2)
        config = TrialConfig(up_bitext=2, up_fwd=1, up_bt=1)
        mix = trial_mix(config, self.bitext(), st, bt)
        seen = {ds.tag: ds.upsample * len(ds.pairs) for ds in mix.datasets}
        assert seen == {TAG_IN_DOMAIN: 4, TAG_SELF_TRAINED: 2, TAG_BACK_TRANSLATED: 2}
        # tags are labels: every pair enters the mix as it is
        assert [ds.pairs for ds in mix.datasets] == [self.bitext().pairs, st.pairs,
                                                     bt.pairs]

    def test_missing_bitext_rejected(self):
        with pytest.raises(DataError):
            trial_mix(TrialConfig(), None, self.synth(TAG_SELF_TRAINED, 1), None)


class TestFinetune:
    def setup_models(self):
        # out-of-domain bitext: noisy mapping; in-domain: clean mapping
        rng = random.Random(7)
        noisy = []
        for _ in range(12):
            length = rng.randint(1, 3)
            src = tuple(rng.choice(["s0", "s1"]) for _ in range(length))
            tgt = tuple(rng.choice(["t0", "t1"]) for _ in range(length))
            noisy.append((src, tgt))
        base_ds = TaggedDataset("noisy", SIDE_PARALLEL, "<d:out>", pairs=tuple(noisy))
        in_ds = parallel(8, n_pairs=10, vocab=2)
        model = em_train(build_mix([base_ds]), 2, lm_weight=0.2, beam=2)
        return model, in_ds

    def test_zero_steps_returns_input(self):
        model, in_ds = self.setup_models()
        before = dev_bleu(model, in_ds)
        tuned, score = finetune(model, in_ds, in_ds, max_steps=0, base_bleu=before)
        assert tuned is model and score == before

    def test_never_reduces_dev_bleu(self):
        model, in_ds = self.setup_models()
        before = dev_bleu(model, in_ds)
        tuned, score = finetune(model, in_ds, in_ds, max_steps=3, base_bleu=before)
        assert score >= before
        assert score == dev_bleu(tuned, in_ds)

    def test_improves_on_in_domain(self):
        model, in_ds = self.setup_models()
        before = dev_bleu(model, in_ds)
        tuned, score = finetune(model, in_ds, in_ds, max_steps=3, base_bleu=before)
        assert score > before
        assert score == dev_bleu(tuned, in_ds)

    def test_deterministic(self):
        model, in_ds = self.setup_models()
        before = dev_bleu(model, in_ds)
        a, score_a = finetune(model, in_ds, in_ds, max_steps=2, base_bleu=before)
        b, score_b = finetune(model, in_ds, in_ds, max_steps=2, base_bleu=before)
        assert (a.t == b.t).all() and score_a == score_b

    def test_empty_in_domain_rejected(self):
        model, in_ds = self.setup_models()
        empty = TaggedDataset("e", SIDE_PARALLEL, "<t>", pairs=())
        with pytest.raises(DataError):
            finetune(model, empty, in_ds, max_steps=1, base_bleu=0.0)


class TestDevReferences:
    def test_each_reference_is_detokenized_once(self, monkeypatch):
        from deskmt.lm import train_lm
        from deskmt.metrics import EvalContext, bleu
        from deskmt.rerank import tune_lambdas
        from deskmt.subword import encode_dataset, learn_bpe

        raw_train, raw_dev = parallel(21, n_pairs=30, vocab=5), parallel(22, n_pairs=12, vocab=5)
        bpe = learn_bpe([t for _, t in raw_train.pairs] + [s for s, _ in raw_train.pairs], 12)
        train, dev = encode_dataset(raw_train, bpe), encode_dataset(raw_dev, bpe)
        refs = [t for _, t in dev.pairs]
        assert len({id(r) for r in refs}) == len(refs)
        ref_ids = {id(r) for r in refs}
        ctx = EvalContext(bpe=bpe)
        detokenized = []
        detok = EvalContext.detok_tokens

        def counting(self, sentence):
            if id(sentence) in ref_ids:
                detokenized.append(id(sentence))
            return detok(self, sentence)

        monkeypatch.setattr(EvalContext, "detok_tokens", counting)
        results = run_search(tiny_space(), 3, 0, train, None, None, dev, eval_ctx=ctx)
        best = results[0]
        tuned, score = finetune(best.model, train, dev, 2, base_bleu=best.dev_bleu,
                                eval_ctx=ctx)
        bwd = em_train(build_mix([TaggedDataset("b", SIDE_PARALLEL, "<d:in>", pairs=tuple(
            (t, s) for s, t in train.pairs))]), 2)
        tune_lambdas(dev, tuned, bwd, train_lm(refs, 2, 0.5), trials=3, eval_ctx=ctx)
        assert sorted(detokenized) == sorted(ref_ids)

        # the counted references score exactly as references detokenized afresh
        monkeypatch.undo()
        fresh = EvalContext(bpe=bpe)
        hyps = [fresh.detok_tokens(nb.top().hyp) for nb in translate_corpus(
            tuned, [s for s, _ in dev.pairs], 1)]
        assert dev_bleu(tuned, dev, eval_ctx=ctx) == score == bleu(
            hyps, [fresh.detok_tokens(r) for r in refs])
