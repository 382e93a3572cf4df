import json
import os
from dataclasses import fields

import numpy as np
import pytest

from deskmt import subword, tm
from deskmt.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, _config_from, build_parser, main
from deskmt.search import TrialConfig
from deskmt.rerank import read_nbest_file
from deskmt.subword import decode, load_bpe
from deskmt.util import read_json, read_text


# a document nested deeper than the JSON parser recurses, and an integer of
# more digits than `int` converts
DEEP_JSON = '{"a": ' + "[" * 100_000 + "]" * 100_000 + "}"
LONG_INT = "9" * 5000


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small bundle plus BPE and two trained models, built through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    old = os.getcwd()
    os.chdir(root)
    try:
        assert main(["synth-gen", "--out", "bundle", "--vocab", "24", "--seed", "3",
                     "--parallel", "60", "--mono-src", "30", "--mono-tgt", "30",
                     "--dev", "15", "--test", "15", "--min-len", "2",
                     "--max-len", "5"]) == EXIT_OK
        assert main(["learn-bpe", "--parallel", "bundle/parallel.tsv",
                     "--vocab-size", "80", "--out", "bpe.txt"]) == EXIT_OK
        common = ["--parallel", "bundle/parallel.tsv", "--dev", "bundle/dev.tsv",
                  "--bpe", "bpe.txt", "--em-iterations", "2", "--lm-order", "2",
                  "--beam", "2"]
        assert main(["train", *common, "--out", "fwd.json"]) == EXIT_OK
        assert main(["train", *common, "--swap", "--out", "bwd.json"]) == EXIT_OK

        from deskmt.corpus import load_corpus
        from deskmt.lm import lm_json, train_lm
        from deskmt.subword import encode, load_bpe
        ds = load_corpus("bundle/parallel.tsv", "parallel")
        bpe = load_bpe("bpe.txt")
        lm = train_lm([encode(t, bpe) for _, t in ds.pairs], 2, 0.3)
        with open("lm_tgt.json", "w", encoding="utf-8") as fh:
            fh.write(lm_json(lm))
        yield str(root)
    finally:
        os.chdir(old)


class TestConfigFlags:
    FLAGS = {"em_iterations": "--em-iterations", "lm_order": "--lm-order",
             "smoothing_k": "--smoothing-k", "lm_weight": "--lm-weight",
             "window": "--window", "beam": "--beam", "up_bitext": "--up-bitext",
             "up_fwd": "--up-fwd", "up_bt": "--up-bt"}
    TRAIN = ["train", "--parallel", "p.tsv", "--dev", "d.tsv", "--out", "m.json"]

    def test_every_trial_config_field_has_a_flag(self):
        assert [f.name for f in fields(TrialConfig)] == list(self.FLAGS)
        assert _config_from(build_parser().parse_args(self.TRAIN)) == TrialConfig()

    def test_every_flag_round_trips(self):
        config = TrialConfig(em_iterations=7, lm_order=4, smoothing_k=0.25, lm_weight=1.5,
                             window=2, beam=3, up_bitext=12, up_fwd=6, up_bt=9)
        argv = list(self.TRAIN)
        for name, flag in self.FLAGS.items():
            argv += [flag, str(getattr(config, name))]
        got = _config_from(build_parser().parse_args(argv))
        assert got == config
        assert [type(getattr(got, name)) for name in self.FLAGS] == \
            [type(getattr(TrialConfig(), name)) for name in self.FLAGS]

    def test_an_integer_flag_rejects_a_fraction(self, capsys):
        assert main([*self.TRAIN, "--beam", "2.5"]) == EXIT_USAGE
        assert "--beam" in capsys.readouterr().err


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert main(["no-such-command"]) == EXIT_USAGE

    def test_missing_required_flag_is_1(self):
        assert main(["train"]) == EXIT_USAGE

    def test_data_error_is_2(self, workspace):
        assert main(["train", "--parallel", "/nonexistent.tsv",
                     "--dev", "bundle/dev.tsv", "--out", "x.json"]) == EXIT_DATA

    def test_malformed_model_and_bpe_files_are_2(self, workspace):
        doc = read_json("fwd.json", "model")
        del doc["t_rows"]
        with open("broken.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with open("bpe.txt", encoding="utf-8") as fh:
            lines = fh.readlines()
        with open("broken_bpe.txt", "w", encoding="utf-8") as fh:
            fh.writelines(lines[:2] + ["a b c\n"])
        common = ["evaluate", "--test", "bundle/test.tsv"]
        assert main([*common, "--model", "broken.json", "--bpe", "bpe.txt"]) == EXIT_DATA
        assert main([*common, "--model", "fwd.json", "--bpe", "broken_bpe.txt"]) == EXIT_DATA

    @pytest.mark.parametrize("flags", [["--lm-weight", "nan"], ["--lm-weight", "1e308"],
                                       ["--lm-weight", "-1"], ["--smoothing-k", "1e-300"]])
    def test_bad_model_settings_are_2(self, workspace, flags, capsys):
        assert main(["train", "--parallel", "bundle/parallel.tsv", "--dev", "bundle/dev.tsv",
                     "--em-iterations", "1", "--lm-order", "2", *flags,
                     "--out", "bad_settings.json"]) == EXIT_DATA
        assert not os.path.exists("bad_settings.json")

    @pytest.mark.parametrize("key, value", [("lm_weight", float("nan")), ("unk_floor", 0.0),
                                            ("unk_floor", 2.0), ("beam", 2**63)])
    def test_model_document_with_bad_settings_is_2(self, workspace, key, value, capsys):
        doc = read_json("fwd.json", "model")
        doc[key] = value
        with open("bad_doc.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        assert main(["translate", "--model", "bad_doc.json", "--input", "bundle/mono_src.txt",
                     "--output", "bad_doc.txt", "--bpe", "bpe.txt"]) == EXIT_DATA
        assert repr(key) in capsys.readouterr().err

    def test_json_past_the_parser_limits_is_2(self, workspace, capsys):
        # nested deeper than the parser recurses, or an integer of more
        # digits than `int` converts: a DataError that names the file
        with open("deep.json", "w", encoding="utf-8") as fh:
            fh.write(DEEP_JSON)
        assert main(["translate", "--model", "deep.json", "--input", "bundle/mono_src.txt",
                     "--output", "deep.txt", "--bpe", "bpe.txt"]) == EXIT_DATA
        assert "deep.json: model is nested too deeply" in capsys.readouterr().err
        assert not os.path.exists("deep.txt")
        with open("long_int.json", "w", encoding="utf-8") as fh:
            fh.write('{"version": 1, "dims": {"beam": [' + LONG_INT + "]}}")
        assert main(["search", "--parallel", "bundle/parallel.tsv", "--dev", "bundle/dev.tsv",
                     "--trials", "2", "--space", "long_int.json",
                     "--out-dir", "searchrun-long"]) == EXIT_DATA
        assert "long_int.json: " in capsys.readouterr().err
        assert not os.path.exists("searchrun-long")

    @pytest.mark.parametrize("vocab", ["\u00b2", LONG_INT], ids=["superscript-two", "long"])
    def test_bpe_vocab_of_other_than_ascii_digits_is_2(self, workspace, capsys, vocab):
        # "²" passes str.isdigit, and neither it nor 5,000 digits passes int()
        lines = read_text("bpe.txt", "BPE model").split("\n")
        header = " ".join(f"vocab={vocab}" if part.startswith("vocab=") else part
                          for part in lines[0].split(" "))
        with open("vocab_bpe.txt", "w", encoding="utf-8") as fh:
            fh.write("\n".join([header] + lines[1:]))
        assert main(["train", "--parallel", "bundle/parallel.tsv", "--dev", "bundle/dev.tsv",
                     "--bpe", "vocab_bpe.txt", "--em-iterations", "1", "--lm-order", "2",
                     "--out", "vocab_model.json"]) == EXIT_DATA
        assert "vocab_bpe.txt:1: the header needs vocab=<int>" in capsys.readouterr().err
        assert not os.path.exists("vocab_model.json")

    def test_nbest_the_decoder_cannot_hold_is_2(self, workspace, capsys):
        assert main(["translate", "--model", "fwd.json", "--input", "bundle/mono_src.txt",
                     "--output", "wide.txt", "--bpe", "bpe.txt",
                     "--nbest", str(2**63)]) == EXIT_DATA
        assert "'nbest'" in capsys.readouterr().err
        assert not os.path.exists("wide.txt")

    @pytest.mark.parametrize("argv", [
        ["search", "--parallel", "p.tsv", "--dev", "d.tsv", "--out-dir", "o"],
        ["translate", "--model", "m.json", "--input", "i.txt", "--output", "o.txt"],
        ["augment-bt", "--model", "m.json", "--mono", "m.txt", "--out", "o.tsv"],
        ["augment-st", "--model", "m.json", "--mono", "m.txt", "--out", "o.tsv"],
        ["pipeline", "--parallel", "p.tsv", "--dev", "d.tsv", "--run-dir", "r"],
    ], ids=lambda argv: argv[0])
    def test_workers_flag_is_gone(self, argv, capsys):
        assert main([*argv, "--workers", "1"]) == EXIT_USAGE
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["train", "--parallel", "p.tsv", "--dev", "d.tsv", "--out", "m.json"],
        ["search", "--parallel", "p.tsv", "--dev", "d.tsv", "--out-dir", "o"],
        ["translate", "--model", "m.json", "--input", "i.txt", "--output", "o.txt"],
        ["tune-lambdas", "--dev", "d.tsv", "--model", "m.json", "--channel-model",
         "b.json", "--lm", "lm.json"],
        ["evaluate", "--model", "m.json", "--test", "t.tsv"],
        ["finetune", "--model", "m.json", "--in-domain", "i.tsv", "--dev", "d.tsv",
         "--out", "o.json"],
    ], ids=lambda argv: argv[0])
    def test_tag_flag_is_gone(self, argv, capsys):
        assert main([*argv, "--tag", "<d:in>"]) == EXIT_USAGE
        assert "--tag" in capsys.readouterr().err

    def test_malformed_run_manifest_is_2(self, workspace, capsys):
        os.makedirs("badrun", exist_ok=True)
        with open("badrun/manifest.json", "w", encoding="utf-8") as fh:
            json.dump({"version": 1}, fh)
        assert main(["pipeline", "--parallel", "bundle/parallel.tsv", "--dev",
                     "bundle/dev.tsv", "--run-dir", "badrun"]) == EXIT_DATA
        assert "run_id" in capsys.readouterr().err

    @staticmethod
    def _finished_pipeline(run_dir):
        """argv of a one-round pipeline run into `run_dir`, after running it once."""
        space = {"version": 1, "dims": {
            "em_iterations": [2], "lm_order": [2], "smoothing_k": [0.3],
            "lm_weight": [0.3], "window": [0], "beam": [2], "up_bitext": [1],
            "up_fwd": [1], "up_bt": [1]}}
        with open("space_run.json", "w", encoding="utf-8") as fh:
            json.dump(space, fh)
        argv = ["pipeline", "--parallel", "bundle/parallel.tsv", "--mono-source",
                "bundle/mono_src.txt", "--mono-target", "bundle/mono_tgt.txt",
                "--dev", "bundle/dev.tsv", "--run-dir", run_dir, "--iterations", "1",
                "--trials", "1", "--topk", "1", "--bpe-vocab", "80", "--nbest", "2",
                "--tune-trials", "2", "--finetune-steps", "0",
                "--space", "space_run.json"]
        assert main(argv) == EXIT_OK
        return argv

    def test_malformed_stage_record_is_2(self, workspace, capsys):
        argv = self._finished_pipeline("run")
        with open("run/manifest.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        del doc["init"]
        with open("run/manifest.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        capsys.readouterr()
        assert main(argv) == EXIT_DATA
        assert "'init'" in capsys.readouterr().err

    def test_truncated_ensemble_member_is_2(self, workspace, capsys):
        argv = self._finished_pipeline("run_member")
        with open("run_member/manifest.json", encoding="utf-8") as fh:
            ref = json.load(fh)["init"]["fwd"]["model"]
        with open(os.path.join("run_member", ref["path"]), encoding="utf-8") as fh:
            member = json.load(fh)["members"][0]
        with open(f"run_member/artifacts/models/{member}.json", "w",
                  encoding="utf-8") as fh:
            fh.write('{"trunc')
        capsys.readouterr()
        assert main(argv) == EXIT_DATA
        assert member in capsys.readouterr().err

    @pytest.mark.parametrize("argv, bad", [
        (["translate", "--model", "BAD", "--input", "bundle/mono_src.txt",
          "--output", "o.txt"], "bad_model.json"),
        (["translate", "--model", "fwd.json", "--input", "bundle/mono_src.txt",
          "--output", "o.txt", "--channel-model", "bwd.json",
          "--lm", "BAD"], "bad_lm.json"),
        (["translate", "--model", "fwd.json", "--bpe", "BAD", "--input",
          "bundle/mono_src.txt", "--output", "o.txt"], "bad_bpe.txt"),
        (["search", "--parallel", "bundle/parallel.tsv", "--dev", "bundle/dev.tsv",
          "--space", "BAD", "--out-dir", "o"], "bad_space.json"),
        (["rerank", "--nbest-file", "BAD", "--channel-model", "bwd.json", "--lm",
          "lm_tgt.json", "--lambda1", "1", "--lambda2", "1", "--out", "o.txt"],
         "bad_nbest.txt"),
        (["evaluate", "--model", "BAD", "--test", "bundle/test.tsv"], "bad_eval.json"),
        (["pipeline", "--parallel", "bundle/parallel.tsv", "--dev", "bundle/dev.tsv",
          "--run-dir", "badutf8run"], os.path.join("badutf8run", "manifest.json")),
    ], ids=["translate-model", "translate-lm", "translate-bpe", "search-space",
            "rerank-nbest-file", "evaluate-model", "pipeline-run-dir"])
    def test_non_utf8_input_is_2(self, workspace, capsys, argv, bad):
        os.makedirs(os.path.dirname(bad) or ".", exist_ok=True)
        with open(bad, "wb") as fh:
            fh.write(b"ok\n\xff\n")
        capsys.readouterr()
        assert main([bad if arg == "BAD" else arg for arg in argv]) == EXIT_DATA
        assert f"{bad}:2:" in capsys.readouterr().err

    def test_augment_seed_flag_is_gone(self, capsys):
        assert main(["augment-st", "--model", "m.json", "--mono", "m.txt",
                     "--out", "o.tsv", "--seed", "1"]) == EXIT_USAGE
        assert "--seed" in capsys.readouterr().err

    def test_trial_seed_flag_is_gone(self, capsys):
        assert main(["train", "--parallel", "p.tsv", "--dev", "d.tsv", "--out", "m.json",
                     "--trial-seed", "1"]) == EXIT_USAGE
        assert "--trial-seed" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["search", "pipeline"])
    def test_more_trials_than_distinct_configs_is_2(self, workspace, capsys, command):
        # a space of two configurations cannot give three distinct trials
        space = {"version": 1, "dims": {"em_iterations": [2], "lm_order": [2],
                                        "window": [0, 1], "beam": [2]}}
        with open("space_two.json", "w", encoding="utf-8") as fh:
            json.dump(space, fh)
        out = f"{command}-too-many"
        argv = [command, "--parallel", "bundle/parallel.tsv", "--dev", "bundle/dev.tsv",
                "--trials", "3", "--topk", "1", "--space", "space_two.json",
                "--out-dir" if command == "search" else "--run-dir", out]
        capsys.readouterr()
        assert main(argv) == EXIT_DATA
        assert "3 distinct configurations" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command", ["search", "pipeline"])
    @pytest.mark.parametrize("name, value", [("em_iterations", 2.5), ("em_iterations", 0),
                                             ("lm_order", 2.0), ("beam", 1.5),
                                             ("beam", 2**63), ("up_bitext", 1.5)])
    def test_space_value_a_setting_cannot_take_is_2(self, workspace, capsys, command,
                                                     name, value):
        path = f"space_bad_{command}_{name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"version": 1, "dims": {name: [value]}}, fh)
        out = f"{command}-bad-space"
        argv = [command, "--parallel", "bundle/parallel.tsv", "--dev", "bundle/dev.tsv",
                "--trials", "1", "--topk", "1", "--space", path,
                "--out-dir" if command == "search" else "--run-dir", out]
        capsys.readouterr()
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert repr(name) in err and path in err
        assert not os.path.exists(out)

    def test_help_is_0(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--help"])
        assert exc.value.code == 0


class TestHelpSurface:
    def test_all_subcommands_present(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        text = capsys.readouterr().out
        for name in ["synth-gen", "learn-bpe", "train", "search", "translate",
                     "rerank", "tune-lambdas", "augment-bt", "augment-st",
                     "pipeline", "mine", "evaluate", "finetune"]:
            assert name in text

    def test_pipeline_flags_documented(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["pipeline", "--help"])
        text = capsys.readouterr().out
        for flag in ["--iterations", "--trials", "--topk", "--seed",
                     "--parallel-only"]:
            assert flag in text

    def test_published_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["translate", "--model", "m", "--input", "i",
                                  "--output", "o"])
        assert args.nbest == 50
        args = parser.parse_args(["search", "--parallel", "p", "--dev", "d",
                                  "--out-dir", "o"])
        assert args.trials == 30
        args = parser.parse_args(["pipeline", "--parallel", "p", "--dev", "d",
                                  "--run-dir", "r"])
        assert args.iterations == 3
        assert args.tune_trials == 30


class TestWorkflows:
    def test_translate_round_trip(self, workspace):
        assert main(["translate", "--model", "fwd.json", "--input",
                     "bundle/mono_src.txt", "--output", "out.txt", "--bpe",
                     "bpe.txt", "--nbest", "2"]) == EXIT_OK
        lines = read_text("out.txt", "output").splitlines()
        src_lines = read_text("bundle/mono_src.txt", "input").splitlines()
        assert len(lines) == len(src_lines)
        assert all(line.strip() for line in lines)

    def test_nbest_dump_and_standalone_rerank(self, workspace):
        assert main(["translate", "--model", "fwd.json", "--input",
                     "bundle/mono_src.txt", "--output", "o.txt", "--bpe", "bpe.txt",
                     "--nbest", "3", "--dump-nbest", "nb.txt"]) == EXIT_OK
        assert main(["rerank", "--nbest-file", "nb.txt", "--channel-model",
                     "bwd.json", "--lm", "lm_tgt.json", "--lambda1", "1.0",
                     "--lambda2", "0.5", "--out", "nb2.txt"]) == EXIT_OK
        block = read_nbest_file("nb2.txt")
        assert block.combined is not None

    def test_rerank_rejects_a_non_finite_score(self, workspace, capsys):
        with open("nan.nbest", "w", encoding="utf-8") as fh:
            fh.write("#nbest v1\n#source 0 aa\n0\t0\tAA\tnan\t-\t-\t-\n")
        capsys.readouterr()
        assert main(["rerank", "--nbest-file", "nan.nbest", "--channel-model",
                     "bwd.json", "--lm", "lm_tgt.json", "--lambda1", "1.0",
                     "--lambda2", "0.5", "--out", "nan_out.nbest"]) == EXIT_DATA
        assert "nan.nbest:3: fwd score 'nan' is not finite" in capsys.readouterr().err
        assert not os.path.exists("nan_out.nbest")

    def test_rerank_rescores_with_the_given_channel_model(self, workspace):
        # B: a backward model trained on other data than bwd.json (A)
        assert main(["train", "--parallel", "bundle/dev.tsv", "--dev", "bundle/dev.tsv",
                     "--bpe", "bpe.txt", "--em-iterations", "2", "--lm-order", "2",
                     "--beam", "2", "--swap", "--out", "bwd_b.json"]) == EXIT_OK
        assert main(["translate", "--model", "fwd.json", "--input",
                     "bundle/mono_src.txt", "--output", "o_a.txt", "--bpe", "bpe.txt",
                     *RERANK, "--dump-nbest", "nb_a.txt"]) == EXIT_OK
        assert main(["rerank", "--nbest-file", "nb_a.txt", "--channel-model",
                     "bwd_b.json", "--lm", "lm_tgt.json", "--lambda1", "1.0",
                     "--lambda2", "0.5", "--out", "nb_b.txt"]) == EXIT_OK
        model_a = tm.model_from_dict(read_json("bwd.json", "model"))
        model_b = tm.model_from_dict(read_json("bwd_b.json", "model"))
        scored_a, scored_b = read_nbest_file("nb_a.txt"), read_nbest_file("nb_b.txt")
        for model, block in ((model_a, scored_a), (model_b, scored_b)):
            entries = np.arange(block.fwd.size)
            assert block.channel.tolist() == tm.pair_channel_scores(
                model, block.sources, block.surfaces(entries), block.list_of_entries(),
                entries).tolist()
        assert sorted(scored_a.channel.tolist()) != sorted(scored_b.channel.tolist())

    def test_tune_lambdas_writes_weights(self, workspace):
        assert main(["tune-lambdas", "--dev", "bundle/dev.tsv", "--model",
                     "fwd.json", "--channel-model", "bwd.json", "--lm",
                     "lm_tgt.json", "--bpe", "bpe.txt",
                     "--tune-trials", "2", "--nbest", "2", "--seed", "1",
                     "--out", "lambdas.json"]) == EXIT_OK
        doc = read_json("lambdas.json", "lambdas")
        assert 0.0 <= doc["lambda1"] <= 3.0 and 0.0 <= doc["lambda2"] <= 3.0

    def test_swap_gives_the_synthetic_sets_their_reverse_roles(self, workspace):
        # --st holds the forward model's translations and --bt the backward
        # model's, both source-target; the reverse direction self-trains on
        # the swapped --bt set and back-translates with the swapped --st set,
        # as the pipeline's backward search does, so up_fwd weighs swap(bt)
        from deskmt.corpus import load_corpus, swap_dataset
        from deskmt.metrics import EvalContext
        from deskmt.search import TrialConfig, run_trial, trial_mix
        from deskmt.subword import encode_dataset

        assert main(["augment-st", "--model", "fwd.json", "--mono", "bundle/mono_src.txt",
                     "--bpe", "bpe.txt", "--out", "roles_st.tsv"]) == EXIT_OK
        assert main(["augment-bt", "--model", "bwd.json", "--mono", "bundle/mono_tgt.txt",
                     "--bpe", "bpe.txt", "--out", "roles_bt.tsv"]) == EXIT_OK
        assert main(["train", "--parallel", "bundle/parallel.tsv", "--dev", "bundle/dev.tsv",
                     "--bpe", "bpe.txt", "--em-iterations", "2", "--lm-order", "2",
                     "--beam", "2", "--swap", "--st", "roles_st.tsv",
                     "--bt", "roles_bt.tsv", "--up-fwd", "3",
                     "--out", "roles_bwd.json"]) == EXIT_OK

        bpe = load_bpe("bpe.txt")

        def reverse(path, encode=True):
            # the synthetic sets are augment's encoded output, read as they are
            ds = load_corpus(path, "parallel")
            return swap_dataset(encode_dataset(ds, bpe) if encode else ds)

        config = TrialConfig(em_iterations=2, lm_order=2, beam=2, up_fwd=3)
        mix = trial_mix(config, reverse("bundle/parallel.tsv"),
                        reverse("roles_bt.tsv", encode=False),
                        reverse("roles_st.tsv", encode=False))
        result = run_trial(config, mix, reverse("bundle/dev.tsv"),
                           eval_ctx=EvalContext(bpe=bpe), src_lang="tgt", tgt_lang="src")
        assert read_text("roles_bwd.json", "model") == tm.model_json(result.model)[0] + "\n"

    def test_bpe_training_reads_the_augment_output_unchanged(self, workspace):
        # augment-st --bpe writes pieces; train --bpe encodes the bitext and
        # dev and trains on the --st file's pieces as they are
        from deskmt.corpus import load_corpus
        from deskmt.metrics import EvalContext
        from deskmt.search import TrialConfig, run_trial, trial_mix
        from deskmt.subword import encode_dataset

        assert main(["augment-st", "--model", "fwd.json", "--mono", "bundle/mono_src.txt",
                     "--bpe", "bpe.txt", "--out", "pieces_st.tsv"]) == EXIT_OK
        assert main(["train", "--parallel", "bundle/parallel.tsv", "--dev", "bundle/dev.tsv",
                     "--bpe", "bpe.txt", "--em-iterations", "2", "--lm-order", "2",
                     "--beam", "2", "--st", "pieces_st.tsv", "--up-fwd", "3",
                     "--out", "pieces_fwd.json"]) == EXIT_OK

        bpe = load_bpe("bpe.txt")
        st = load_corpus("pieces_st.tsv", "parallel")
        # encoding the file again would change it, so the check below can fail
        assert encode_dataset(st, bpe).pairs != st.pairs
        config = TrialConfig(em_iterations=2, lm_order=2, beam=2, up_fwd=3)
        mix = trial_mix(config, encode_dataset(load_corpus("bundle/parallel.tsv", "parallel"),
                                               bpe), st, None)
        result = run_trial(config, mix,
                           encode_dataset(load_corpus("bundle/dev.tsv", "parallel"), bpe),
                           eval_ctx=EvalContext(bpe=bpe), src_lang="src", tgt_lang="tgt")
        assert read_text("pieces_fwd.json", "model") == tm.model_json(result.model)[0] + "\n"

    def test_augment_writes_provenance(self, workspace):
        assert main(["augment-st", "--model", "fwd.json", "--mono",
                     "bundle/mono_src.txt", "--bpe", "bpe.txt", "--out",
                     "st.tsv"]) == EXIT_OK
        prov = read_json("st.tsv.prov.json", "provenance")
        assert set(prov) >= {"generator", "decode", "lambdas", "dropped"}
        assert prov["decode"] == "beam"

    def test_evaluate_report(self, workspace):
        assert main(["evaluate", "--model", "fwd.json", "--test",
                     "bundle/test.tsv", "--bpe", "bpe.txt",
                     "--report", "report.json"]) == EXIT_OK
        doc = read_json("report.json", "report")
        assert 0.0 <= doc["bleu"] <= 100.0
        assert doc["sentence_count"] == 15
        assert doc["decode"] == "beam"

    def test_search_writes_runlog(self, workspace):
        space = {"version": 1, "dims": {
            "em_iterations": [2], "lm_order": [2], "smoothing_k": [0.3],
            "lm_weight": [0.3, 0.5], "window": [0], "beam": [2], "up_bitext": [1],
            "up_fwd": [1], "up_bt": [1]}}
        with open("space.json", "w", encoding="utf-8") as fh:
            json.dump(space, fh)
        assert main(["search", "--parallel", "bundle/parallel.tsv", "--dev",
                     "bundle/dev.tsv", "--bpe", "bpe.txt",
                     "--trials", "2", "--seed", "4", "--space", "space.json",
                     "--topk", "1", "--out-dir", "searchrun"]) == EXIT_OK
        records = [json.loads(line) for line in
                   read_text("searchrun/runlog.jsonl", "run log").splitlines()]
        assert len(records) == 2
        assert all("dev_bleu" in r and "config" in r for r in records)
        assert os.path.exists("searchrun/trial000.json")
        assert os.path.exists("searchrun/ensemble0.json")

    def test_search_topk_exports_the_ranked_trials(self, workspace, capsys):
        space = {"version": 1, "dims": {
            "em_iterations": [2], "lm_order": [2], "smoothing_k": [0.3],
            "lm_weight": [0.3], "window": [0, 1], "beam": [2], "up_bitext": [1, 4],
            "up_fwd": [1], "up_bt": [1]}}
        with open("space_topk.json", "w", encoding="utf-8") as fh:
            json.dump(space, fh)
        capsys.readouterr()
        assert main(["search", "--parallel", "bundle/parallel.tsv", "--dev",
                     "bundle/dev.tsv", "--bpe", "bpe.txt",
                     "--trials", "3", "--seed", "5", "--space", "space_topk.json",
                     "--topk", "2", "--out-dir", "searchtopk"]) == EXIT_OK
        out = capsys.readouterr().out
        best = int(out.split("best trial ")[1].split()[0])
        members = out.split("ensemble members: ")[1].split()
        assert len(members) == 2 and members[0] == f"trial{best:03d}"
        for rank, name in enumerate(members):
            with open(f"searchtopk/ensemble{rank}.json", "rb") as fh:
                exported = fh.read()
            with open(f"searchtopk/{name}.json", "rb") as fh:
                assert exported == fh.read()
        bleus = [json.loads(line)["dev_bleu"] for line in
                 read_text("searchtopk/runlog.jsonl", "run log").splitlines()]
        ranked = sorted(range(3), key=lambda i: (-bleus[i], i))
        assert members == [f"trial{i:03d}" for i in ranked[:2]]

    def test_search_rerun_rewrites_the_runlog(self, workspace):
        space = {"version": 1, "dims": {"em_iterations": [2], "lm_order": [2],
                                        "window": [0, 1], "up_bitext": [1, 4], "beam": [2]}}
        with open("space_rerun.json", "w", encoding="utf-8") as fh:
            json.dump(space, fh)
        argv = ["search", "--parallel", "bundle/parallel.tsv", "--dev", "bundle/dev.tsv",
                "--bpe", "bpe.txt", "--trials", "3", "--seed", "2",
                "--space", "space_rerun.json", "--out-dir", "searchrerun"]
        logs = []
        for _ in range(2):
            assert main(argv) == EXIT_OK
            with open("searchrerun/runlog.jsonl", "rb") as fh:
                logs.append(fh.read())
        assert logs[0] == logs[1]
        records = [json.loads(line) for line in logs[1].decode("utf-8").splitlines()]
        assert len(records) == 3
        assert len({r["model_hash"] for r in records}) == 3

    def test_search_rerun_with_fewer_trials_removes_stale_models(self, workspace):
        space = {"version": 1, "dims": {"em_iterations": [2], "lm_order": [2],
                                        "window": [0, 1], "up_bitext": [1, 4], "beam": [2]}}
        with open("space_fewer.json", "w", encoding="utf-8") as fh:
            json.dump(space, fh)
        argv = ["search", "--parallel", "bundle/parallel.tsv", "--dev", "bundle/dev.tsv",
                "--bpe", "bpe.txt", "--seed", "2", "--space", "space_fewer.json",
                "--out-dir", "searchfewer"]
        assert main([*argv, "--trials", "3", "--topk", "2"]) == EXIT_OK
        others = ["notes.txt", "trial7.json", "trial0001.json", "ensemble.json"]
        for name in others:
            with open(os.path.join("searchfewer", name), "w", encoding="utf-8") as fh:
                fh.write("kept\n")
        assert main([*argv, "--trials", "2", "--topk", "1"]) == EXIT_OK
        assert sorted(os.listdir("searchfewer")) == sorted(
            ["runlog.jsonl", "trial000.json", "trial001.json", "ensemble0.json", *others])
        assert len(read_text("searchfewer/runlog.jsonl", "run log").splitlines()) == 2

    @pytest.mark.parametrize("doc", [{}, {"dims": {"beam": 5}}])
    def test_search_malformed_space_is_data_error(self, workspace, doc):
        with open("bad.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        assert main(["search", "--parallel", "bundle/parallel.tsv", "--dev",
                     "bundle/dev.tsv", "--trials", "2", "--space", "bad.json",
                     "--out-dir", "searchrun-bad"]) == EXIT_DATA
        assert not os.path.exists("searchrun-bad")

    def test_search_topk_above_trials_is_data_error(self, workspace):
        assert main(["search", "--parallel", "bundle/parallel.tsv", "--dev",
                     "bundle/dev.tsv", "--trials", "2", "--topk", "3",
                     "--out-dir", "searchrun-topk"]) == EXIT_DATA
        assert not os.path.exists("searchrun-topk")


RERANK = ["--channel-model", "bwd.json", "--lm", "lm_tgt.json",
          "--lambda1", "1.0", "--lambda2", "0.5", "--nbest", "3"]


class TestRerankMode:
    def test_translate_with_and_without_nbest_dump(self, workspace):
        common = ["translate", "--model", "fwd.json", "--input", "bundle/mono_src.txt",
                  "--bpe", "bpe.txt", *RERANK]
        assert main([*common, "--output", "rr.txt"]) == EXIT_OK
        assert main([*common, "--output", "rr_dumped.txt",
                     "--dump-nbest", "rr_nb.txt"]) == EXIT_OK
        lines = read_text("rr.txt", "output").splitlines()
        assert read_text("rr_dumped.txt", "output").splitlines() == lines
        block = read_nbest_file("rr_nb.txt")
        bpe = load_bpe("bpe.txt")
        assert [decode(hyp, bpe) for hyp in block.top_hyps()] == lines
        assert block.combined is not None

    def test_augment_provenance(self, workspace):
        assert main(["augment-st", "--model", "fwd.json", "--mono",
                     "bundle/mono_src.txt", "--bpe", "bpe.txt", "--out",
                     "st_rr.tsv", *RERANK]) == EXIT_OK
        prov = read_json("st_rr.tsv.prov.json", "provenance")
        assert prov["decode"] == "rerank"
        assert prov["lambdas"] == [1.0, 0.5]

    def test_evaluate_report(self, workspace):
        assert main(["evaluate", "--model", "fwd.json", "--test", "bundle/test.tsv",
                     "--bpe", "bpe.txt", "--report",
                     "report_rr.json", *RERANK]) == EXIT_OK
        doc = read_json("report_rr.json", "report")
        assert doc["decode"] == "rerank"
        assert doc["lambdas"] == [1.0, 0.5]
        assert doc["sentence_count"] == 15

    @pytest.mark.parametrize("argv", [
        ["translate", "--input", "bundle/mono_src.txt", "--output", "half_rr.txt"],
        ["augment-st", "--mono", "bundle/mono_src.txt", "--out", "half_rr.tsv"],
        ["evaluate", "--test", "bundle/test.tsv", "--report", "half_rr.json"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("given, missing", [
        (["--lm", "lm_tgt.json"], "--channel-model"),
        (["--channel-model", "bwd.json"], "--lm"),
    ], ids=["lm-only", "channel-model-only"])
    def test_half_a_rerank_context_is_2(self, workspace, argv, given, missing, capsys):
        assert main([*argv, "--model", "fwd.json", "--bpe", "bpe.txt", *given]) == EXIT_DATA
        assert missing in capsys.readouterr().err
        assert not os.path.exists(argv[-1])

    @pytest.mark.parametrize("argv", [
        ["translate", "--model", "m.json", "--input", "i.txt", "--output", "o.txt"],
        ["augment-bt", "--model", "m.json", "--mono", "m.txt", "--out", "o.tsv"],
        ["augment-st", "--model", "m.json", "--mono", "m.txt", "--out", "o.tsv"],
        ["evaluate", "--model", "m.json", "--test", "t.tsv"],
    ], ids=lambda argv: argv[0])
    def test_mode_flag_is_gone(self, argv, capsys):
        # --channel-model decides; nor does --mode read as an abbreviated --model
        assert main([*argv, "--mode", "rerank"]) == EXIT_USAGE
        assert "unrecognized arguments: --mode rerank" in capsys.readouterr().err


class TestTranslateOutput:
    """translate writes each top hypothesis as `subword.decode` surfaces it."""

    @pytest.mark.parametrize("policy", ["space-joined", "unspaced"])
    @pytest.mark.parametrize("rerank", [[], RERANK], ids=["beam", "rerank"])
    def test_lines_are_the_decoded_top_hypotheses(self, workspace, policy, rerank):
        out, dump = f"policy_{policy}_{len(rerank)}.txt", f"policy_{policy}_{len(rerank)}.nb"
        argv = ["translate", "--model", "fwd.json", "--input", "bundle/mono_src.txt",
                "--bpe", "bpe.txt", "--nbest", "3", *rerank, "--output", out,
                "--dump-nbest", dump]
        if policy != "space-joined":
            argv += ["--policy", policy]
        assert main(argv) == EXIT_OK
        bpe = load_bpe("bpe.txt")
        expected = [decode(hyp, bpe, policy) for hyp in read_nbest_file(dump).top_hyps()]
        assert read_text(out, "output").splitlines() == expected
        # the unspaced lines differ from the spaced ones, so the policy reaches them
        if policy == "unspaced":
            assert all(" " not in line for line in expected)
            assert expected != [decode(hyp, bpe) for hyp in read_nbest_file(dump).top_hyps()]

    def test_without_bpe_lines_are_the_tokens(self, workspace):
        assert main(["translate", "--model", "fwd.json", "--input", "bundle/mono_src.txt",
                     "--nbest", "2", "--output", "raw.txt", "--dump-nbest",
                     "raw.nb"]) == EXIT_OK
        assert read_text("raw.txt", "output").splitlines() == [
            " ".join(hyp) for hyp in read_nbest_file("raw.nb").top_hyps()]


class TestAugmentNbest:
    """augment-st and augment-bt decode at --nbest when they do not rerank:
    their machine side is what translate writes at the same --nbest."""

    @pytest.mark.parametrize("kind, model, mono, machine", [
        ("st", "fwd.json", "bundle/mono_src.txt", 1),
        ("bt", "bwd.json", "bundle/mono_tgt.txt", 0),
    ], ids=["st", "bt"])
    def test_machine_side_is_translate_at_the_same_nbest(self, workspace, kind, model,
                                                          mono, machine):
        from deskmt.corpus import load_corpus

        lines = {}
        for n in ("1", "50"):
            out = f"nbest_{kind}_{n}.txt"
            assert main(["translate", "--model", model, "--input", mono, "--bpe", "bpe.txt",
                         "--nbest", n, "--output", out]) == EXIT_OK
            lines[n] = read_text(out, "output").splitlines()
        # the beam-2 model's top hypotheses depend on the list size here
        assert lines["1"] != lines["50"]
        assert main([f"augment-{kind}", "--model", model, "--mono", mono, "--bpe", "bpe.txt",
                     "--nbest", "1", "--out", f"nbest_{kind}.tsv"]) == EXIT_OK
        bpe = load_bpe("bpe.txt")
        pairs = load_corpus(f"nbest_{kind}.tsv", "parallel").pairs
        assert [decode(pair[machine], bpe) for pair in pairs] == lines["1"]


class TestBpeLoadedOnce:
    @pytest.mark.parametrize("argv", [
        ["train", "--parallel", "bundle/parallel.tsv", "--dev", "bundle/dev.tsv",
         "--em-iterations", "1", "--lm-order", "2", "--beam", "2", "--out", "once.json"],
        ["translate", "--model", "fwd.json", "--input", "bundle/mono_src.txt",
         "--nbest", "2", "--output", "once.txt"],
        ["tune-lambdas", "--dev", "bundle/dev.tsv", "--model", "fwd.json",
         "--channel-model", "bwd.json", "--lm", "lm_tgt.json", "--tune-trials", "2",
         "--nbest", "2"],
        ["augment-bt", "--model", "bwd.json", "--mono", "bundle/mono_tgt.txt",
         "--out", "once_bt.tsv"],
        ["evaluate", "--model", "fwd.json", "--test", "bundle/test.tsv", *RERANK],
        ["finetune", "--model", "fwd.json", "--in-domain", "bundle/parallel.tsv",
         "--dev", "bundle/dev.tsv", "--max-steps", "1", "--out", "once_ft.json"],
    ], ids=lambda argv: argv[0])
    def test_one_load_per_command(self, workspace, monkeypatch, argv):
        loads = []

        def counting(path):
            loads.append(path)
            return load_bpe(path)

        monkeypatch.setattr(subword, "load_bpe", counting)
        assert main([*argv, "--bpe", "bpe.txt"]) == EXIT_OK
        assert loads == ["bpe.txt"]


def write_mine_inputs(root, workspace):
    """Two document directories and their URL index under `root`."""
    src_lines = read_text(os.path.join(workspace, "bundle/mono_src.txt"),
                          "input").splitlines()
    tgt_lines = [line.split("\t")[1] for line in
                 read_text(os.path.join(workspace, "bundle/parallel.tsv"),
                           "input").splitlines()]
    (root / "src").mkdir()
    (root / "tgt").mkdir()
    index = []
    for k in range(3):
        (root / "src" / f"d{k}.txt").write_text(
            "\n".join(src_lines[4 * k:4 * k + 4]) + "\n", encoding="utf-8")
        (root / "tgt" / f"d{k}.txt").write_text(
            "\n".join(tgt_lines[4 * k:4 * k + 4]) + "\n", encoding="utf-8")
        index.append(f"src\td{k}.txt\thttp://ex.org/en/{k}")
        index.append(f"tgt\td{k}.txt\thttp://ex.org/de/{k}")
    (root / "urls.tsv").write_text("\n".join(index) + "\n", encoding="utf-8")


class TestMine:
    def mine(self, root, out):
        return main(["mine", "--docs-src", str(root / "src"), "--docs-tgt",
                     str(root / "tgt"), "--url-index", str(root / "urls.tsv"),
                     "--model", "bwd.json", "--threshold", "0.0", "--floor", "-50",
                     "--out", str(out)])

    def test_writes_pairs_and_scores(self, workspace, tmp_path):
        write_mine_inputs(tmp_path, workspace)
        out = tmp_path / "mined.tsv"
        out.write_text("stale\n" * 100, encoding="utf-8")
        assert self.mine(tmp_path, out) == EXIT_OK
        pairs = out.read_text(encoding="utf-8").splitlines()
        scores = (tmp_path / "mined.tsv.scores.tsv").read_text(encoding="utf-8").splitlines()
        assert 0 < len(pairs) == len(scores) <= 12
        assert all(len(line.split("\t")) == 2 for line in pairs)
        assert all(float(s) >= -50 for s in scores)
        assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]

    def test_non_utf8_document_is_2(self, workspace, tmp_path, capsys):
        write_mine_inputs(tmp_path, workspace)
        bad = tmp_path / "tgt" / "d1.txt"
        bad.write_bytes(b"a b\n\xff c\n")
        assert self.mine(tmp_path, tmp_path / "mined.tsv") == EXIT_DATA
        assert f"{bad}:2:" in capsys.readouterr().err
        assert not (tmp_path / "mined.tsv").exists()

    def test_directory_named_like_a_document_is_2(self, workspace, tmp_path, capsys):
        write_mine_inputs(tmp_path, workspace)
        (tmp_path / "src" / "d9.txt").mkdir()
        with open(tmp_path / "urls.tsv", "a", encoding="utf-8") as fh:
            fh.write("src\td9.txt\thttp://ex.org/en/9\n")
        assert self.mine(tmp_path, tmp_path / "mined.tsv") == EXIT_DATA
        assert str(tmp_path / "src" / "d9.txt") in capsys.readouterr().err

    def test_non_utf8_url_index_is_2(self, workspace, tmp_path, capsys):
        write_mine_inputs(tmp_path, workspace)
        with open(tmp_path / "urls.tsv", "ab") as fh:
            fh.write(b"src\td3.txt\thttp://ex.org/\xe9\n")
        assert self.mine(tmp_path, tmp_path / "mined.tsv") == EXIT_DATA
        assert f"{tmp_path / 'urls.tsv'}:7:" in capsys.readouterr().err
