import inspect
import re
import shutil
import sys
from pathlib import Path

import pytest

from hopedetect import cli, corpus, features, langid, learn, pipeline, textprep, translit
from hopedetect.corpus import DatasetLang, Label
from conftest import FIXTURES, synthetic_sentences


def run_cli(*argv):
    return cli.main(list(argv))


class TestStats:
    def test_fixture(self, capsys):
        assert run_cli("stats", str(FIXTURES / "en_train.tsv")) == 0
        out = capsys.readouterr().out
        assert "Hope\t20" in out
        assert "NotHope\t30" in out
        assert "total\t52" in out

    def test_missing_file_exit_2(self, capsys):
        assert run_cli("stats", "/nonexistent.tsv") == 2

    def test_non_utf8_byte_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "bad.tsv"
        path.write_bytes(b"fine\tHope_speech\nHope_speech\t\xff\n")
        assert run_cli("stats", str(path)) == 2
        assert f"input error: {path}: line 2: not valid UTF-8" in capsys.readouterr().err

    def test_bad_lang_rejected(self, capsys):
        # Every dataset's labels read alike, so stats takes no --lang.
        with pytest.raises(SystemExit):
            run_cli("stats", "--lang", "en", str(FIXTURES / "en_train.tsv"))
        assert "unrecognized arguments: --lang" in capsys.readouterr().err


class TestTrainProfileAndDetect:
    def test_round_trip(self, tmp_path, capsys):
        corpus_file = tmp_path / "en.txt"
        corpus_file.write_text(
            "\n".join(synthetic_sentences("en", 50, seed=1)) + "\n"
        )
        profile_path = tmp_path / "en.profile"
        assert run_cli("train-profile", "--lang", "en", "--out",
                       str(profile_path), str(corpus_file)) == 0
        input_file = tmp_path / "in.txt"
        input_file.write_text("this is some english text\n")
        assert run_cli("detect-lang", str(input_file),
                       "--profiles", str(profile_path)) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "en"

    def test_profile_learns_normalized_grams(self, tmp_path):
        # detect-lang and the gate score normalized comments, so a profile
        # counts the grams of its lines normalized; a line left empty goes.
        raw, normal = tmp_path / "raw.txt", tmp_path / "normal.txt"
        raw.write_text("HOPE, Always!\nKeep going :) \U0001F44D\n\U0001F44D !!\n",
                       encoding="utf-8")
        normal.write_text("hope always\nkeep going\n", encoding="utf-8")
        for path in (raw, normal):
            assert run_cli("train-profile", "--lang", "en", "--out",
                           str(path.with_suffix(".profile")), str(path)) == 0
        assert (tmp_path / "raw.profile").read_bytes() == \
            (tmp_path / "normal.profile").read_bytes()


class TestParser:
    # --profiles takes every argument up to the next option, so the list
    # ends with -- when the positionals follow it.
    def test_run_profiles_end_at_double_dash(self):
        args = cli.build_parser().parse_args([
            "run", "--lang", "ta", "--out", "o", "--profiles", "a", "b", "--",
            "train.tsv", "test.tsv"])
        assert (args.profiles, args.train, args.test) == (["a", "b"], "train.tsv", "test.tsv")

    def test_detect_lang_profiles_end_at_double_dash(self):
        args = cli.build_parser().parse_args(
            ["detect-lang", "--profiles", "a", "b", "--", "comments.txt"])
        assert (args.profiles, args.path) == (["a", "b"], "comments.txt")


class TestTransliterate:
    def test_tamil(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text("ka\n")
        assert run_cli("transliterate", "--lang", "ta", str(src)) == 0
        assert capsys.readouterr().out.strip() == "க"


class TestTrainPredictEvaluate:
    def test_full_cycle(self, tmp_path, capsys):
        train = str(FIXTURES / "en_train.tsv")
        model_path = tmp_path / "lr.model"
        assert run_cli("train", "--lang", "en", "--seed", "1",
                       "--epochs", "100", "--out", str(model_path), train) == 0
        preds = tmp_path / "preds.txt"
        assert run_cli("predict", "--lang", "en", "--model", str(model_path),
                       "--out", str(preds), train) == 0
        assert run_cli("evaluate", "--format", "tsv",
                       train, str(preds)) == 0
        out = capsys.readouterr().out
        assert "weighted_f1" in out

    def test_bad_gold_label_names_its_file(self, tmp_path, capsys):
        gold, preds = tmp_path / "gold.tsv", tmp_path / "preds.txt"
        gold.write_text("hope wins\tHope_speech\nperhaps\tmaybe\n")
        preds.write_text("Hope_speech\nHope_speech\n")
        assert run_cli("evaluate", str(gold), str(preds)) == 2
        assert (f"input error: {gold}: line 2: unknown label 'maybe'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("n_vectors", [3, 53])
    def test_train_embeddings_row_count_checked(self, tmp_path, capsys, n_vectors):
        emb, test_emb = tmp_path / "train.emb", tmp_path / "test.emb"
        emb.write_text("0.5 0.25\n" * n_vectors)
        test_emb.write_text("0.5 0.25\n" * 25)
        out = tmp_path / "out"
        code = run_cli("run", "--lang", "en", "--classifier", "random_forest",
                       "--train-embeddings", str(emb), "--test-embeddings", str(test_emb),
                       "--out", str(out), str(FIXTURES / "en_train.tsv"),
                       str(FIXTURES / "en_test.tsv"))
        assert code == 2
        assert f"{n_vectors} vectors for 52 dataset rows" in capsys.readouterr().err
        assert not (out / "predictions.txt").exists()


class TestBundle:
    """`train` saves the fitted pipeline; `predict` on it equals `run`."""

    CLASSIFIER_FLAGS = {
        "logreg": ["--epochs", "60"],
        "linear_svm": ["--epochs", "60", "--lr", "1", "--svm-c", "100"],
        "random_forest": ["--n-trees", "5", "--max-depth", "6"],
    }

    def _profiles(self, tmp_path, trained_profiles):
        paths = []
        for p in trained_profiles:
            path = tmp_path / f"{p.lang}.profile"
            langid.save_profile(p, path)
            paths.append(str(path))
        return paths

    def _run_and_predict(self, tmp_path, lang, train, test, flags, profiles=()):
        """predictions.txt of `run`, the bundle, and `predict`'s output."""
        flags = ["--lang", lang, *flags]
        if profiles:
            flags += ["--profiles", *profiles, "--"]
        out, bundle, preds = tmp_path / "run", tmp_path / "bundle", tmp_path / "p.txt"
        assert run_cli("run", "--out", str(out), *flags, str(train), str(test)) == 0
        assert run_cli("train", "--out", str(bundle), *flags, str(train)) == 0
        assert run_cli("predict", "--lang", lang, "--model", str(bundle),
                       "--out", str(preds), str(test)) == 0
        return out, bundle, preds.read_bytes()

    @pytest.mark.parametrize("classifier", sorted(CLASSIFIER_FLAGS))
    @pytest.mark.parametrize("lang", ["en", "ta"])
    def test_predict_matches_run(self, tmp_path, trained_profiles, lang, classifier):
        flags = ["--k", "3", "--seed", "2", "--classifier", classifier,
                 *self.CLASSIFIER_FLAGS[classifier]]
        if lang == "en":
            train, test, profiles = (FIXTURES / "en_train.tsv",
                                     FIXTURES / "en_test.tsv", ())
        else:
            train = test = FIXTURES / "ta_train.tsv"
            profiles = self._profiles(tmp_path, trained_profiles)
        out, bundle, predicted = self._run_and_predict(
            tmp_path, lang, train, test, flags, profiles)
        assert predicted == (out / "predictions.txt").read_bytes()
        # The bundle's manifest is the run's without the test input.
        run_manifest = (out / "manifest.txt").read_text().splitlines()
        assert (bundle / "manifest.txt").read_text().splitlines() == \
            [line for line in run_manifest if not line.startswith("input.test.")]
        if lang == "ta":
            rows = corpus.load_tsv(test)
            lines = predicted.decode().splitlines()
            gold_not_tamil = [i for i, r in enumerate(rows) if r.label is Label.NOT_LANGUAGE]
            assert gold_not_tamil and all(lines[i] == "not-Tamil" for i in gold_not_tamil)

    def test_min_df_travels_with_the_bundle(self, tmp_path):
        out, _, predicted = self._run_and_predict(
            tmp_path, "en", FIXTURES / "en_train.tsv", FIXTURES / "en_test.tsv",
            ["--min-df", "3", "--epochs", "60"])
        assert predicted == (out / "predictions.txt").read_bytes()

    def test_embeddings_bundle_is_refused(self, tmp_path, capsys):
        # train saves no bundle of embeddings; a manifest that claims one is
        # refused by predict all the same.
        bundle = tmp_path / "bundle"
        assert run_cli("train", "--lang", "en", "--epochs", "10", "--out", str(bundle),
                       str(FIXTURES / "en_train.tsv")) == 0
        manifest = bundle / "manifest.txt"
        manifest.write_text(manifest.read_text().replace(
            "feature_mode=tfidf", "feature_mode=embeddings"))
        capsys.readouterr()
        code = run_cli("predict", "--lang", "en", "--model", str(bundle),
                       "--out", str(tmp_path / "p.txt"), str(FIXTURES / "en_test.tsv"))
        assert code == 3
        assert capsys.readouterr().err == (
            f"config error: {bundle} was fitted on embeddings, which predict cannot "
            "compute for new comments; use run with --train-embeddings and "
            "--test-embeddings\n")
        assert not (tmp_path / "p.txt").exists()

    def test_changed_copy_is_refused(self, tmp_path, trained_profiles, capsys):
        bundle = tmp_path / "bundle"
        assert run_cli("train", "--lang", "ta", "--epochs", "10", "--out", str(bundle),
                       "--profiles", *self._profiles(tmp_path, trained_profiles), "--",
                       str(FIXTURES / "ta_train.tsv")) == 0
        with open(bundle / "profile-1.profile", "a", encoding="utf-8") as fh:
            fh.write("zz\t-1.0\n")
        code = run_cli("predict", "--lang", "ta", "--model", str(bundle),
                       "--out", str(tmp_path / "p.txt"), str(FIXTURES / "ta_train.tsv"))
        assert code == 3
        assert "profile-1.profile does not match" in capsys.readouterr().err

    def test_damaged_model_is_an_input_error(self, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        assert run_cli("train", "--lang", "en", "--epochs", "10", "--out", str(bundle),
                       str(FIXTURES / "en_train.tsv")) == 0
        model = bundle / "member-0.model"
        model.write_text(model.read_text().replace("# model-v2", "# model-v1", 1))
        code = run_cli("predict", "--lang", "en", "--model", str(bundle),
                       "--out", str(tmp_path / "p.txt"), str(FIXTURES / "en_test.tsv"))
        assert code == 2
        assert "member-0.model: line 1: not a model-v2 header" in capsys.readouterr().err
        assert not (tmp_path / "p.txt").exists()

    def test_non_finite_weight_is_an_input_error(self, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        assert run_cli("train", "--lang", "en", "--epochs", "10", "--out", str(bundle),
                       str(FIXTURES / "en_train.tsv")) == 0
        model = bundle / "member-0.model"
        lines = model.read_text().splitlines(keepends=True)
        lines[1] = "w nan inf " + lines[1].split(" ", 3)[3]
        model.write_text("".join(lines))
        code = run_cli("predict", "--lang", "en", "--model", str(bundle),
                       "--out", str(tmp_path / "p.txt"), str(FIXTURES / "en_test.tsv"))
        assert code == 2
        assert "member-0.model: line 2: 'nan' is not a finite number" in \
            capsys.readouterr().err
        assert not (tmp_path / "p.txt").exists()

    @pytest.mark.parametrize("flags,message", [
        (["--classifier", "random_forest", "--n-trees", "2"],
         "kind random_forest, expected logreg"),
        (["--min-df", "3"], r"dim \d+, expected 119"),
        (["--seed", "7"], "seed 7, expected 0"),
    ], ids=["kind", "dim", "seed"])
    def test_member_the_manifest_contradicts_is_refused(self, tmp_path, capsys, flags,
                                                        message):
        bundle, other = tmp_path / "bundle", tmp_path / "other"
        for out, extra in ((bundle, []), (other, flags)):
            assert run_cli("train", "--lang", "en", "--epochs", "10", *extra,
                           "--out", str(out), str(FIXTURES / "en_train.tsv")) == 0
        shutil.copyfile(other / "member-0.model", bundle / "member-0.model")
        code = run_cli("predict", "--lang", "en", "--model", str(bundle),
                       "--out", str(tmp_path / "p.txt"), str(FIXTURES / "en_test.tsv"))
        assert code == 2
        assert re.search(rf"input error: {re.escape(str(bundle))}/member-0\.model: "
                         rf"line 1: {message}$", capsys.readouterr().err, re.M)
        assert not (tmp_path / "p.txt").exists()

    def test_member_naming_an_unknown_class_is_refused(self, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        assert run_cli("train", "--lang", "en", "--epochs", "10", "--out", str(bundle),
                       str(FIXTURES / "en_train.tsv")) == 0
        model = bundle / "member-0.model"
        model.write_text(model.read_text().replace("classes=Hope,NotHope",
                                                   "classes=Hope,Bogus", 1))
        capsys.readouterr()
        code = run_cli("predict", "--lang", "en", "--model", str(bundle),
                       "--out", str(tmp_path / "p.txt"), str(FIXTURES / "en_test.tsv"))
        assert code == 2
        assert capsys.readouterr().err == (
            f"input error: {model}: line 1: class Bogus, expected one of "
            "Hope, NotHope, NotLanguage\n")
        assert not (tmp_path / "p.txt").exists()

    @pytest.mark.parametrize("name", ["member-0.model", "vocab.tsv"])
    def test_non_utf8_byte_in_bundle_names_its_line(self, tmp_path, capsys, name):
        bundle = tmp_path / "bundle"
        assert run_cli("train", "--lang", "ml", "--classifier", "random_forest",
                       "--k", "3", "--out", str(bundle),
                       str(FIXTURES / "ml_train.tsv")) == 0
        path = bundle / name
        lines = len(path.read_bytes().splitlines())
        path.write_bytes(path.read_bytes() + b"\xff")
        code = run_cli("predict", "--lang", "ml", "--model", str(bundle),
                       "--out", str(tmp_path / "p.txt"), str(FIXTURES / "ml_train.tsv"))
        assert code == 2
        assert f"{name}: line {lines + 1}: not valid UTF-8" in capsys.readouterr().err

    def test_bad_setting_in_manifest_is_refused(self, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        assert run_cli("train", "--lang", "en", "--epochs", "10", "--out", str(bundle),
                       str(FIXTURES / "en_train.tsv")) == 0
        manifest = bundle / "manifest.txt"
        manifest.write_text(manifest.read_text().replace(
            "tie_break=MajorityClassPrior", "tie_break=bogus"))
        code = run_cli("predict", "--lang", "en", "--model", str(bundle),
                       "--out", str(tmp_path / "p.txt"), str(FIXTURES / "en_test.tsv"))
        assert code == 3
        assert "unknown tie_break 'bogus'" in capsys.readouterr().err

    def test_member_count_must_match_ensemble_k(self, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        assert run_cli("train", "--lang", "en", "--epochs", "10", "--k", "3",
                       "--out", str(bundle), str(FIXTURES / "en_train.tsv")) == 0
        manifest = bundle / "manifest.txt"
        lines = manifest.read_text().splitlines(keepends=True)
        manifest.write_text("".join(lines[:-1]))
        code = run_cli("predict", "--lang", "en", "--model", str(bundle),
                       "--out", str(tmp_path / "p.txt"), str(FIXTURES / "en_test.tsv"))
        assert code == 3
        assert "2 member.seed lines for ensemble_k=3" in capsys.readouterr().err

    @pytest.mark.parametrize("old,new", [
        ("lowercase:1", "lowercase:0"),
        ("normalization=specials:1,emoji:1,lowercase:1,whitespace:1\n", ""),
    ], ids=["changed", "missing"])
    def test_other_normalization_is_refused(self, tmp_path, capsys, old, new):
        # Normalization is fixed: a bundle that records other rules, or
        # none, cannot be predicted with as it was fitted.
        bundle = tmp_path / "bundle"
        assert run_cli("train", "--lang", "en", "--epochs", "10", "--out", str(bundle),
                       str(FIXTURES / "en_train.tsv")) == 0
        manifest = bundle / "manifest.txt"
        assert manifest.read_text().count(old) == 1
        manifest.write_text(manifest.read_text().replace(old, new))
        code = run_cli("predict", "--lang", "en", "--model", str(bundle),
                       "--out", str(tmp_path / "p.txt"), str(FIXTURES / "en_test.tsv"))
        assert code == 3
        assert "malformed manifest.txt" in capsys.readouterr().err
        assert not (tmp_path / "p.txt").exists()

    def test_language_must_match(self, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        assert run_cli("train", "--lang", "en", "--epochs", "10", "--out", str(bundle),
                       str(FIXTURES / "en_train.tsv")) == 0
        code = run_cli("predict", "--lang", "ta", "--model", str(bundle),
                       "--out", str(tmp_path / "p.txt"), str(FIXTURES / "ta_train.tsv"))
        assert code == 3
        assert "fitted on English data" in capsys.readouterr().err

    def test_predict_takes_no_rebuild_flags(self, capsys):
        with pytest.raises(SystemExit):
            run_cli("predict", "--help")
        help_text = capsys.readouterr().out
        assert "--model" in help_text
        assert "--train-path" not in help_text and "--min-df" not in help_text


class TestEnsembleVote:
    def test_planted_majority(self, tmp_path, capsys):
        for i in range(3):
            (tmp_path / f"p{i}.txt").write_text("Hope_speech\nNon_hope_speech\n")
        paths = [str(tmp_path / f"p{i}.txt") for i in range(3)]
        assert run_cli("ensemble-vote", "--predictions", *paths,
                       "--n-rows", "2") == 0
        assert capsys.readouterr().out.splitlines() == ["Hope", "NotHope"]

    def test_vote_round_trip(self, tmp_path, capsys):
        # A vote's canonical class names can be scored and voted on again.
        gold = tmp_path / "gold.txt"
        gold.write_text("".join(line.split("\t")[1] + "\n" for line in
                                (FIXTURES / "en_test.tsv").read_text().splitlines()))
        vote, again = tmp_path / "vote.txt", tmp_path / "again.txt"
        for out, src in ((vote, gold), (again, vote)):
            assert run_cli("ensemble-vote", "--predictions", *[str(src)] * 3,
                           "--n-rows", "25", "--out", str(out)) == 0
        assert again.read_text() == vote.read_text()
        assert set(vote.read_text().split()) == {"Hope", "NotHope", "NotLanguage"}
        capsys.readouterr()
        assert run_cli("evaluate", "--format", "tsv",
                       str(FIXTURES / "en_test.tsv"), str(vote)) == 0
        header, row = capsys.readouterr().out.splitlines()
        scores = dict(zip(header.split("\t"), row.split("\t")))
        assert scores["macro_f1"] == scores["weighted_f1"] == "1.000"

    def test_bad_label_names_its_file(self, tmp_path, capsys):
        good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
        good.write_text("Hope_speech\nNon_hope_speech\n")
        bad.write_text("Hope_speech\nbogus\n")
        assert run_cli("ensemble-vote", "--predictions", str(good), str(bad),
                       "--n-rows", "2") == 2
        assert f"{bad}: line 2: unknown label 'bogus'" in capsys.readouterr().err


class TestRun:
    def test_end_to_end_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        for out in (out1, out2):
            code = run_cli(
                "run", "--lang", "en", "--k", "3", "--seed", "7",
                "--epochs", "50", "--out", str(out),
                str(FIXTURES / "en_train.tsv"), str(FIXTURES / "en_test.tsv"),
            )
            assert code == 0
        assert (out1 / "predictions.txt").read_bytes() == \
            (out2 / "predictions.txt").read_bytes()
        assert (out1 / "manifest.txt").read_bytes() == \
            (out2 / "manifest.txt").read_bytes()
        assert (out1 / "report.txt").exists()
        preds = (out1 / "predictions.txt").read_text().splitlines()
        assert len(preds) == 25
        assert set(preds) <= {"Hope_speech", "Non_hope_speech", "not-English"}

    def test_forest_member_of_one_class(self, tmp_path):
        # Of two train rows a member grows on one and validates on the
        # other, whose class it never saw.
        train = tmp_path / "train.tsv"
        train.write_text("you can do this never give up\tHope_speech\n"
                         "my internet keeps buffering today truly\tNon_hope_speech\n")
        out = tmp_path / "out"
        assert run_cli("run", "--lang", "en", "--classifier", "random_forest",
                       "--n-trees", "5", "--out", str(out), str(train),
                       str(FIXTURES / "en_test.tsv")) == 0
        assert len((out / "predictions.txt").read_text().splitlines()) == 25
        assert "member.seed=0 validation_weighted_f1=0.000000\n" in \
            (out / "manifest.txt").read_text()

    def test_embeddings_mode(self, tmp_path):
        import numpy as np

        rng = np.random.default_rng(3)
        for name, n in (("train.emb", 52), ("test.emb", 25)):
            rows = "\n".join(
                " ".join(f"{v:.6f}" for v in rng.normal(size=8)) for _ in range(n)
            )
            (tmp_path / name).write_text("# producer: test\n" + rows + "\n")
        out = tmp_path / "out"
        code = run_cli(
            "run", "--lang", "en", "--seed", "1", "--epochs", "40",
            "--train-embeddings", str(tmp_path / "train.emb"),
            "--test-embeddings", str(tmp_path / "test.emb"), "--out", str(out),
            str(FIXTURES / "en_train.tsv"), str(FIXTURES / "en_test.tsv"),
        )
        assert code == 0
        manifest = (out / "manifest.txt").read_text()
        # The width is read from the train file's first vector.
        assert "feature_mode=embeddings\nembedding_dim=8\n" in manifest
        for name in ("train", "test"):
            digest = pipeline.sha256_file(tmp_path / f"{name}.emb")
            assert f"input.{name}_embeddings.sha256={digest}" in manifest
        assert len((out / "predictions.txt").read_text().splitlines()) == 25

    @pytest.mark.parametrize("which,line_no,width", [("test", 2, 4), ("train", 4, 7)])
    def test_embedding_width_mismatch_names_its_line(self, tmp_path, capsys,
                                                     which, line_no, width):
        # The train file's first vector sets the width: a narrower test file,
        # or a short later train vector, is an input error at its line.
        rows = {"train": ["0.5 " * 8] * 52, "test": ["0.25 " * 8] * 25}
        if which == "test":
            rows["test"] = ["0.25 " * width] * 25
        else:
            rows["train"][line_no - 2] = "0.5 " * width
        for name, lines in rows.items():
            (tmp_path / f"{name}.emb").write_text("# producer: test\n" + "\n".join(lines))
        out = tmp_path / "out"
        code = run_cli("run", "--lang", "en", "--epochs", "10",
                       "--train-embeddings", str(tmp_path / "train.emb"),
                       "--test-embeddings", str(tmp_path / "test.emb"), "--out", str(out),
                       str(FIXTURES / "en_train.tsv"), str(FIXTURES / "en_test.tsv"))
        assert code == 2
        # The message names the file at fault, train or test.
        assert (f"{tmp_path / f'{which}.emb'}: line {line_no}: expected 8 values, "
                f"got {width}") in capsys.readouterr().err
        assert not (out / "predictions.txt").exists()

    def test_non_finite_test_embedding_names_its_file(self, tmp_path, capsys):
        train, test = tmp_path / "train.emb", tmp_path / "test.emb"
        train.write_text("0.5 0.25\n" * 52)
        test.write_text("0.5 0.25\n" * 2 + "0.5 nan\n" + "0.5 0.25\n" * 22)
        out = tmp_path / "out"
        code = run_cli("run", "--lang", "en", "--epochs", "10",
                       "--train-embeddings", str(train), "--test-embeddings", str(test),
                       "--out", str(out),
                       str(FIXTURES / "en_train.tsv"), str(FIXTURES / "en_test.tsv"))
        assert code == 2
        assert f"{test}: line 3: 'nan' is not a finite number" in capsys.readouterr().err
        assert not (out / "predictions.txt").exists()

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_text("k=3\nseed=9\nepochs=40\n")
        out = tmp_path / "out"
        code = run_cli(
            "run", "--lang", "en", "--config", str(cfg), "--out", str(out),
            str(FIXTURES / "en_train.tsv"), str(FIXTURES / "en_test.tsv"),
        )
        assert code == 0
        manifest = (out / "manifest.txt").read_text()
        assert "ensemble_k=3" in manifest
        assert "base_seed=9" in manifest

    def _run_en(self, out, *flags):
        return run_cli("run", "--lang", "en", *flags, "--out", str(out),
                       str(FIXTURES / "en_train.tsv"), str(FIXTURES / "en_test.tsv"))

    def test_config_file_equals_flags(self, tmp_path):
        settings = {"k": "3", "seed": "5", "classifier": "linear_svm", "epochs": "40",
                    "lr": "0.5", "svm_c": "10", "tie_break": "ClassOrder",
                    "min_df": "2", "fraction_train": "0.8", "script_threshold": "0.6"}
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_text("".join(f"{key}={value}\n" for key, value in settings.items()))
        flags = [arg for key, value in settings.items()
                 for arg in (f"--{key.replace('_', '-')}", value)]
        assert self._run_en(tmp_path / "file", "--config", str(cfg)) == 0
        assert self._run_en(tmp_path / "flags", *flags) == 0
        for name in ("manifest.txt", "predictions.txt"):
            assert (tmp_path / "file" / name).read_bytes() == \
                (tmp_path / "flags" / name).read_bytes()

    def test_flag_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_text("k=3\nepochs=40\n")
        out = tmp_path / "out"
        assert self._run_en(out, "--config", str(cfg), "--k", "1") == 0
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert "ensemble_k=1" in manifest and "hyperparam.epochs=40" in manifest

    @pytest.mark.parametrize("flags,config,message", [
        (["--k", "0"], None, "k must be >= 1, got 0"),
        (["--n-trees", "0"], None, "n_trees must be >= 1, got 0"),
        (["--min-df", "0"], None, "min_df must be >= 1, got 0"),
        ([], "k=abc", "pipeline.cfg:2: bad k value 'abc' (expected int)"),
        ([], "tie_break=bogus", "unknown tie_break 'bogus'"),
        ([], "base_seed=3", "pipeline.cfg:2: unknown key 'base_seed'"),
        ([], "scheme_path=x.tsv", "pipeline.cfg:2: unknown key 'scheme_path'"),
        ([], "embedding_dim=8", "pipeline.cfg:2: unknown key 'embedding_dim'"),
    ])
    def test_bad_setting_exit_3(self, tmp_path, capsys, flags, config, message):
        if config is not None:
            cfg = tmp_path / "pipeline.cfg"
            cfg.write_text(f"# settings\n{config}\n")
            flags = [*flags, "--config", str(cfg)]
        assert self._run_en(tmp_path / "o", *flags) == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o" / "predictions.txt").exists()

    def test_diverged_training_exit_3(self, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        code = run_cli("train", "--lang", "ml", "--classifier", "linear_svm", "--k", "3",
                       "--lr", "20", "--svm-c", "1000", "--out", str(bundle),
                       str(FIXTURES / "ml_train.tsv"))
        assert code == 3
        assert "linear_svm training diverged with lr=20.0" in capsys.readouterr().err
        assert not (bundle / "manifest.txt").exists()

    def test_scheme_line_without_tab_exit_2(self, tmp_path, capsys):
        scheme = tmp_path / "scheme.tsv"
        scheme.write_text("ka\tக\nabc\n", encoding="utf-8")
        code = run_cli("run", "--lang", "ta", "--scheme", str(scheme), "--epochs", "10",
                       "--out", str(tmp_path / "o"),
                       str(FIXTURES / "ta_train.tsv"), str(FIXTURES / "ta_train.tsv"))
        assert code == 2
        assert "scheme.tsv: line 2: expected latin<TAB>native" in capsys.readouterr().err

    def test_manifest_pins_scheme_profiles_and_version(self, tmp_path,
                                                        trained_profiles):
        import hopedetect

        bundled = Path(translit.__file__).parent / "data" / "tamil.tsv"
        changed = tmp_path / "changed.tsv"
        changed.write_text(bundled.read_text(encoding="utf-8") + "zzz\tழ\n",
                           encoding="utf-8")
        profile = tmp_path / "en.profile"
        langid.save_profile(trained_profiles[0], profile)
        manifests = []
        for scheme, flags in ((bundled, []), (changed, ["--scheme", str(changed)])):
            out = tmp_path / scheme.stem
            code = run_cli(
                "run", "--lang", "ta", *flags, "--profiles", str(profile),
                "--epochs", "10", "--out", str(out),
                str(FIXTURES / "ta_train.tsv"), str(FIXTURES / "ta_train.tsv"),
            )
            assert code == 0
            lines = (out / "manifest.txt").read_text().splitlines()
            assert f"scheme.sha256={pipeline.sha256_file(scheme)}" in lines
            assert f"profile.sha256={pipeline.sha256_file(profile)}" in lines
            assert f"hopedetect_version={hopedetect.__version__}" in lines
            manifests.append(lines)
        assert manifests[0] != manifests[1]

    def test_unknown_classifier_in_config_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_text("classifier=perceptron\n")
        code = run_cli(
            "run", "--lang", "en", "--config", str(cfg), "--out", str(tmp_path / "o"),
            str(FIXTURES / "en_train.tsv"), str(FIXTURES / "en_test.tsv"),
        )
        assert code == 3
        assert "unknown classifier 'perceptron'" in capsys.readouterr().err

    def test_bad_config_exit_3(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("unknown_key=1\n")
        code = run_cli(
            "run", "--lang", "en", "--config", str(cfg), "--out",
            str(tmp_path / "o"),
            str(FIXTURES / "en_train.tsv"), str(FIXTURES / "en_test.tsv"),
        )
        assert code == 3

    @pytest.mark.parametrize("content,line_no,key", [
        ("k=3\n# again\nk=5\n", 3, "k"),
        ("epochs=40\nseed=2\n epochs = 40\n", 3, "epochs"),
    ])
    def test_repeated_config_key_exit_3(self, tmp_path, capsys, content, line_no, key):
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_text(content)
        assert self._run_en(tmp_path / "o", "--config", str(cfg)) == 3
        assert capsys.readouterr().err == f"config error: {cfg}:{line_no}: repeated key {key!r}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("content,line_no", [
        (b"\xff=1\n", 1),
        (b"k=3\n\xff=1\n", 2),
        (b"k=3\nseed=4\xff\nepochs=10\n", 2),
        (b"k=3\r\n# note\r\n\r\nseed=\xff", 4),
    ])
    def test_non_utf8_config_exit_3(self, tmp_path, capsys, content, line_no):
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(content)
        code = run_cli("run", "--lang", "ta", "--config", str(cfg),
                       "--out", str(tmp_path / "o"),
                       str(FIXTURES / "ta_train.tsv"), str(FIXTURES / "ta_train.tsv"))
        assert code == 3
        assert f"c.cfg:{line_no}: not valid UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("content,message", [
        (b"# only\n# comments\n", "scheme.tsv: no latin<TAB>native entries"),
        (b"# c\nka\t\xff\n", "scheme.tsv: line 2: not valid UTF-8"),
    ])
    def test_damaged_scheme_exit_2(self, tmp_path, capsys, content, message):
        scheme = tmp_path / "scheme.tsv"
        scheme.write_bytes(content)
        code = run_cli("run", "--lang", "ta", "--scheme", str(scheme), "--epochs", "10",
                       "--out", str(tmp_path / "o"),
                       str(FIXTURES / "ta_train.tsv"), str(FIXTURES / "ta_train.tsv"))
        assert code == 2
        assert message in capsys.readouterr().err

    def test_damaged_profile_exit_2(self, tmp_path, capsys):
        profile = tmp_path / "en.profile"
        langid.save_profile(langid.train_profile(["hope wins"], "en"), profile)
        profile.write_text(profile.read_text() + "no tab here\n")
        code = run_cli("run", "--lang", "en", "--out", str(tmp_path / "o"),
                       "--profiles", str(profile), "--",
                       str(FIXTURES / "en_train.tsv"), str(FIXTURES / "en_test.tsv"))
        assert code == 2
        lines = len(profile.read_text().splitlines())
        assert f"en.profile: line {lines}: " in capsys.readouterr().err

    def _run_on_test_lines(self, tmp_path, lines):
        test = tmp_path / "test.tsv"
        test.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        code = run_cli("run", "--lang", "en", "--epochs", "10", "--out", str(out),
                       str(FIXTURES / "en_train.tsv"), str(test))
        return code, out

    def test_bad_test_label_names_its_line(self, tmp_path, capsys):
        lines = (FIXTURES / "en_test.tsv").read_text(encoding="utf-8").splitlines()
        text, _ = lines[2].split("\t")
        lines[2] = f"{text}\tMaybe_hope"
        code, _ = self._run_on_test_lines(tmp_path, lines)
        assert code == 2
        err = capsys.readouterr().err
        test = tmp_path / "test.tsv"
        assert f"[load-test] {test}: line 3: unknown label 'Maybe_hope'" in err

    @pytest.mark.parametrize("n_binary,mode", [
        (0, "tfidf"), (1, "tfidf"), (1, "embeddings")])
    def test_too_few_hope_rows_name_the_cause(self, tmp_path, capsys, n_binary, mode):
        train = tmp_path / "train.tsv"
        train.write_text("hello friends\tnot-Tamil\nsee you\tnot-Tamil\n"
                         + "nambikkai irukku\tHope_speech\n" * n_binary, encoding="utf-8")
        flags = []
        if mode == "embeddings":
            emb = tmp_path / "train.emb"
            emb.write_text("0.5 0.25\n" * (2 + n_binary))
            flags = ["--train-embeddings", str(emb), "--test-embeddings", str(emb)]
        code = run_cli("run", "--lang", "ta", *flags, "--out", str(tmp_path / "out"),
                       str(train), str(train))
        assert code == 2
        rows = "row" if n_binary == 1 else "rows"
        assert (f"input error: [fit] {n_binary} Hope/NotHope {rows} to train on, "
                "need at least 2") in capsys.readouterr().err

    def test_unlabeled_test_file(self, tmp_path):
        lines = (FIXTURES / "en_test.tsv").read_text(encoding="utf-8").splitlines()
        code, out = self._run_on_test_lines(
            tmp_path, [line.split("\t")[0] for line in lines])
        assert code == 0
        assert len((out / "predictions.txt").read_text().splitlines()) == 25
        assert not (out / "report.tsv").exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--max-depth", "-1", "max_depth must be >= 0, got -1"),
    ("--epochs", "0", "epochs must be >= 1, got 0"),
    ("--lr", "0", "lr must be > 0, got 0.0"),
    ("--lr", "-1", "lr must be > 0, got -1.0"),
    ("--lr", "inf", "lr must be > 0, got inf"),
    ("--lr", "nan", "lr must be > 0, got nan"),
    ("--l2", "-5", "l2 must be >= 0, got -5.0"),
    ("--l2", "nan", "l2 must be >= 0, got nan"),
    ("--svm-c", "-1", "svm_c must be > 0, got -1.0"),
    ("--svm-c", "0", "svm_c must be > 0, got 0.0"),
    ("--fraction-train", "1.5", "fraction_train must be in (0,1), got 1.5"),
    ("--fraction-train", "0", "fraction_train must be in (0,1), got 0.0"),
    ("--fraction-train", "nan", "fraction_train must be in (0,1), got nan"),
    ("--fraction-train", "inf", "fraction_train must be in (0,1), got inf"),
    # Rounded as the split rounds it, to a denominator of at most 10**9.
    ("--fraction-train", "0.9999999999",
     "fraction_train must be in (0,1), got 0.9999999999"),
    ("--script-threshold", "2", "script threshold out of range: 2.0"),
])
@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", ["run", "train"])
def test_out_of_range_setting_exit_3(tmp_path, capsys, command, source, flag, value,
                                     message):
    # Refused before anything is written, whichever classifier would use it.
    settings = [flag, value]
    if source == "config":
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_text(f"{flag[2:].replace('-', '_')}={value}\n")
        settings = ["--config", str(cfg)]
    inputs = [str(FIXTURES / "en_train.tsv")]
    if command == "run":
        inputs.append(str(FIXTURES / "en_test.tsv"))
    out = tmp_path / "out"
    code = run_cli(command, "--lang", "en", *settings, "--out", str(out), *inputs)
    assert (code, capsys.readouterr().err) == (3, f"config error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--n", "0", "n must be in 1..3, got 0"),
    ("--n", "4", "n must be in 1..3, got 4"),
    ("--alpha", "0", "alpha must be > 0, got 0.0"),
    ("--alpha", "nan", "alpha must be > 0, got nan"),
    ("--alpha", "inf", "alpha must be > 0, got inf"),
])
def test_train_profile_setting_exit_3(tmp_path, capsys, flag, value, message):
    src, out = tmp_path / "en.txt", tmp_path / "en.profile"
    src.write_text("hope wins\n")
    code = run_cli("train-profile", "--lang", "en", flag, value, "--out", str(out), str(src))
    assert (code, capsys.readouterr().err) == (3, f"config error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["train", "--lang", "en", "--k", "0"], "k must be >= 1, got 0"),
    (["train", "--lang", "en", "--max-depth", "-1"], "max_depth must be >= 0, got -1"),
    (["train-profile", "--lang", "en", "--n", "0"], "n must be in 1..3, got 0"),
    (["train-profile", "--lang", "en", "--alpha", "0"], "alpha must be > 0, got 0.0"),
])
def test_setting_checked_before_input_is_read(tmp_path, capsys, argv, message):
    # The input file need not exist: run makes the same check first.
    out = tmp_path / "out"
    code = run_cli(*argv, "--out", str(out), str(tmp_path / "missing.tsv"))
    assert (code, capsys.readouterr().err) == (3, f"config error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("value,shown", [("2", "2.0"), ("-1", "-1.0"), ("0", "0.0"),
                                         ("nan", "nan")])
def test_detect_lang_threshold_exit_3(tmp_path, capsys, value, shown):
    # The check run makes of the same setting, before any file is read.
    missing = str(tmp_path / "missing")
    code = run_cli("detect-lang", "--script-threshold", value, "--profiles", missing,
                   "--", missing)
    assert (code, capsys.readouterr()) == (
        3, ("", f"config error: script threshold out of range: {shown}\n"))


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("key", ["train_embeddings", "test_embeddings"])
def test_train_refuses_embeddings(tmp_path, capsys, key, source):
    # A bundle of embeddings would be refused by predict, so train refuses
    # them before any file is read: the embedding file need not exist.
    setting = [f"--{key.replace('_', '-')}", str(tmp_path / "missing.emb")]
    if source == "config":
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_text(f"{key}={tmp_path / 'missing.emb'}\n")
        setting = ["--config", str(cfg)]
    out = tmp_path / "bundle"
    code = run_cli("train", "--lang", "en", *setting, "--out", str(out),
                   str(tmp_path / "missing.tsv"))
    assert (code, capsys.readouterr().err) == (
        3, "config error: train takes no embeddings, which predict cannot compute "
           "for new comments; use run with --train-embeddings and --test-embeddings\n")
    assert not out.exists()


def test_stage_input_error_names_its_stage(tmp_path, capsys):
    missing = tmp_path / "missing.tsv"
    code = run_cli("run", "--lang", "en", "--out", str(tmp_path / "out"), str(missing),
                   str(FIXTURES / "en_test.tsv"))
    assert (code, capsys.readouterr().err) == (
        2, f"input error: [load-train] [Errno 2] No such file or directory: '{missing}'\n")


def _non_utf8_case(tmp_path, command):
    """(argv, bad file, its bad line, exit code) of ``command`` reading a
    file whose bad line holds a byte that is not UTF-8."""
    bad = tmp_path / "bad.txt"
    en_train, en_test = str(FIXTURES / "en_train.tsv"), str(FIXTURES / "en_test.tsv")
    if command in ("transliterate", "train-profile", "detect-lang"):
        bad.write_bytes(b"ka\n\xff\n")
        profile = tmp_path / "en.profile"
        langid.save_profile(langid.train_profile(["hope wins"], "en"), profile)
        argv = {"transliterate": ["transliterate", "--lang", "ta", str(bad)],
                "train-profile": ["train-profile", "--lang", "ta",
                                  "--out", str(tmp_path / "p"), str(bad)],
                "detect-lang": ["detect-lang", "--profiles", str(profile), "--",
                                str(bad)]}[command]
        return argv, bad, 2, 2
    if command == "ensemble-vote":
        good = tmp_path / "good.txt"
        good.write_text("Hope_speech\nNon_hope_speech\n")
        bad.write_bytes(b"Hope_speech\n\xff\n")
        return ["ensemble-vote", "--predictions", str(good), str(bad),
                "--n-rows", "2"], bad, 2, 2
    if command == "evaluate":
        bad.write_bytes(b"Hope_speech\n" * 2 + b"Hope_\xffspeech\n"
                        + b"Hope_speech\n" * 22)
        return ["evaluate", en_test, str(bad)], bad, 3, 2
    if command == "run --train-embeddings":
        bad.write_bytes(b"# producer: test\n" + b"0.5 0.25\n" * 3 + b"0.5 \xff\n"
                        + b"0.25 0.5\n" * 48)
        return ["run", "--lang", "en", "--train-embeddings", str(bad),
                "--test-embeddings", str(bad), "--out", str(tmp_path / "o"),
                en_train, en_test], bad, 5, 2
    bundle = tmp_path / "bundle"
    assert run_cli("train", "--lang", "en", "--epochs", "10", "--out", str(bundle),
                   en_train) == 0
    bad = bundle / "manifest.txt"
    lines = len(bad.read_bytes().splitlines())
    bad.write_bytes(bad.read_bytes() + b"\xff")
    return ["predict", "--lang", "en", "--model", str(bundle),
            "--out", str(tmp_path / "p.txt"), en_test], bad, lines + 1, 3


@pytest.mark.parametrize("command", [
    "transliterate", "train-profile", "detect-lang", "ensemble-vote", "evaluate",
    "run --train-embeddings", "predict"])
def test_non_utf8_input_names_its_line(tmp_path, capsys, command):
    # Input errors exit 2; a bundle's manifest is its configuration, exit 3.
    argv, bad, line_no, exit_code = _non_utf8_case(tmp_path, command)
    assert run_cli(*argv) == exit_code
    assert f"{bad}: line {line_no}: not valid UTF-8" in capsys.readouterr().err


class TestInputErrorLines:
    """The whole stderr output, and exit 2, of each input error the CLI can
    reach in a data, embedding or prediction file or in the training set."""

    def _error(self, capsys, *argv):
        assert run_cli(*argv) == 2
        return capsys.readouterr().err

    @pytest.mark.parametrize("content,detail", [
        ("", "no data lines"),
        ("\n\n", "no data lines"),
        ("a\tb\tHope_speech\n", "line 1: expected 2 tab-separated fields, got 3"),
        ("hope wins\tHope_speech\n \tHope_speech\n", "line 2: empty text field"),
        ("hope wins\tHope_speech\nperhaps\tmaybe\n", "line 2: unknown label 'maybe'"),
    ])
    def test_stats_data_file(self, tmp_path, capsys, content, detail):
        path = tmp_path / "data.tsv"
        path.write_text(content, encoding="utf-8")
        assert self._error(capsys, "stats", str(path)) == f"input error: {path}: {detail}\n"

    @pytest.mark.parametrize("train,test,stage,detail", [
        ("", "hope\n", "load-train", "no data lines"),
        ("hope wins\tHope_speech\nno way\tNon_hope_speech\n",
         "first comment\nsecond\tHope_speech\n", "load-test",
         "line 2: unexpected tab in unlabeled row"),
    ])
    def test_run_data_file(self, tmp_path, capsys, train, test, stage, detail):
        paths = {"train": tmp_path / "train.tsv", "test": tmp_path / "test.tsv"}
        paths["train"].write_text(train, encoding="utf-8")
        paths["test"].write_text(test, encoding="utf-8")
        path = paths[stage.removeprefix("load-")]
        assert self._error(capsys, "run", "--lang", "en", "--out", str(tmp_path / "o"),
                           str(paths["train"]), str(paths["test"])) == \
            f"input error: [{stage}] {path}: {detail}\n"

    @pytest.mark.parametrize("train,flags,message", [
        ("a b\tHope_speech\n" * 3, [], "training data contains a single class"),
        ("a b\tHope_speech\nc d\tNon_hope_speech\n", [],
         "1 vectors vs 1 labels (need >= 2 rows)"),
        ("a b\tHope_speech\nc d\tNon_hope_speech\n" * 2, ["--min-df", "3"],
         "no term reaches document frequency 3"),
    ], ids=["single-class", "one-row-member", "min-df"])
    def test_training_set(self, tmp_path, capsys, train, flags, message):
        path = tmp_path / "train.tsv"
        path.write_text(train, encoding="utf-8")
        assert self._error(capsys, "train", "--lang", "en", *flags, "--epochs", "10",
                           "--out", str(tmp_path / "bundle"), str(path)) == \
            f"input error: {message}\n"
        assert not (tmp_path / "bundle").exists()

    @pytest.mark.parametrize("which,line_no,line,detail", [
        ("test", 3, "0.5 0.25 0.125", "line 3: expected 2 values, got 3"),
        ("test", 3, "0.5 nan", "line 3: 'nan' is not a finite number"),
        ("test", 3, None, "24 vectors for 25 dataset rows"),
        ("train", 1, "0.5 x", "line 1: 'x' is not a finite number"),
        ("train", 1, None, "51 vectors for 52 dataset rows"),
    ])
    def test_embedding_file(self, tmp_path, capsys, which, line_no, line, detail):
        # A line of None is left out of the file.
        lines = {"train": ["0.5 0.25"] * 52, "test": ["0.25 0.5"] * 25}
        lines[which][line_no - 1:line_no] = [] if line is None else [line]
        paths = {}
        for name, rows in lines.items():
            paths[name] = tmp_path / f"{name}.emb"
            paths[name].write_text("".join(row + "\n" for row in rows))
        assert self._error(capsys, "run", "--lang", "en", "--epochs", "10",
                           "--train-embeddings", str(paths["train"]),
                           "--test-embeddings", str(paths["test"]),
                           "--out", str(tmp_path / "o"),
                           str(FIXTURES / "en_train.tsv"), str(FIXTURES / "en_test.tsv")) == \
            f"input error: {paths[which]}: {detail}\n"

    @pytest.mark.parametrize("command", ["evaluate", "ensemble-vote"])
    def test_prediction_row_count(self, tmp_path, capsys, command):
        preds = tmp_path / "preds.txt"
        preds.write_text("Hope_speech\n" * 3)
        argv = {"evaluate": ["evaluate", str(FIXTURES / "en_test.tsv"), str(preds)],
                "ensemble-vote": ["ensemble-vote", "--predictions", str(preds),
                                  "--n-rows", "25"]}[command]
        assert self._error(capsys, *argv) == \
            f"input error: {preds}: 3 rows, expected 25\n"

    def test_empty_profile_corpus(self, tmp_path, capsys):
        corpus_file = tmp_path / "en.txt"
        corpus_file.write_text("\n  \n")
        assert self._error(capsys, "train-profile", "--lang", "en",
                           "--out", str(tmp_path / "en.profile"), str(corpus_file)) == \
            "input error: training corpus is empty\n"
        assert not (tmp_path / "en.profile").exists()


class TestPipelineInternals:
    @pytest.mark.parametrize("kind", list(learn._TRAINERS))
    def test_trainer_defaults_match_config(self, kind):
        # A library call without settings trains as `run` does by default.
        params = pipeline.PipelineConfig(dataset_lang=DatasetLang.ENGLISH,
                                         classifier=kind).trainer_params()
        signature = inspect.signature(learn._TRAINERS[kind])
        assert params == {name: signature.parameters[name].default for name in params}

    def test_notlanguage_bypasses_classifier(self, tmp_path, trained_profiles,
                                             monkeypatch):
        profile_paths = []
        for p in trained_profiles:
            path = tmp_path / f"{p.lang}.profile"
            langid.save_profile(p, path)
            profile_paths.append(str(path))
        cfg = pipeline.PipelineConfig(
            dataset_lang=DatasetLang.TAMIL,
            profile_paths=profile_paths,
            k=1, epochs=30,
        )
        votes = []
        vote = learn.ensemble_predict

        def counted_vote(*args):
            votes.append(args)
            return vote(*args)

        monkeypatch.setattr(learn, "ensemble_predict", counted_vote)
        pipeline.run_pipeline(
            cfg, FIXTURES / "ta_train.tsv", FIXTURES / "ta_train.tsv", tmp_path / "out"
        )
        preds = (tmp_path / "out" / "predictions.txt").read_text().splitlines()
        rows = corpus.load_tsv(FIXTURES / "ta_train.tsv")
        # the pure-English row must come out as not-Tamil without classification
        english_ids = [i for i, r in enumerate(rows) if r.label is Label.NOT_LANGUAGE]
        for rid in english_ids:
            assert preds[rid] == "not-Tamil"
        # Only the gate writes not-Tamil, so one vote per other row means no
        # gated row reached the classifier.
        assert len(votes) == sum(p != "not-Tamil" for p in preds)

    def test_apply_vectorizes_only_kept_rows(self, tmp_path, trained_profiles,
                                             monkeypatch):
        paths = []
        for p in trained_profiles:
            paths.append(str(tmp_path / f"{p.lang}.profile"))
            langid.save_profile(p, paths[-1])
        cfg = pipeline.PipelineConfig(dataset_lang=DatasetLang.TAMIL,
                                      profile_paths=paths, k=3, epochs=30)
        rows = corpus.load_tsv(FIXTURES / "ta_train.tsv")
        fitted = pipeline.fit(cfg, rows)
        vectorize, seen = features.tfidf_vectorize, []

        def recorded(docs, vocab):
            seen.append(list(docs))
            return vectorize(docs, vocab)

        monkeypatch.setattr(features, "tfidf_vectorize", recorded)
        labels = pipeline.apply(fitted, rows)
        assert len(labels) == len(rows)
        profiles = [langid.load_profile(path) for path in paths]
        proc = pipeline.preprocess_rows(rows, cfg, profiles, fitted.table)
        kept = [p.text for p in proc if p.gate is None]
        assert seen == [kept] and 0 < len(kept) < len(rows)
        # One label per row: the gate's, else the vote on the row's features
        # as they are when every row is vectorized.
        X = vectorize([p.text for p in proc], fitted.vocab)
        assert labels == [
            p.gate or learn.ensemble_predict(fitted.models, X[i:i + 1], cfg.tie_break)
            for i, p in enumerate(proc)]
        assert set(labels) <= set(Label) and Label.NOT_LANGUAGE in labels

    def test_fit_gates_no_row(self, tmp_path, trained_profiles, monkeypatch):
        # The profiles gate some gold Hope/NotHope rows of the fixture, yet
        # fit trains on every one of them, normalized and transliterated,
        # and neither loads a profile nor detects a language.
        paths = []
        for p in trained_profiles:
            paths.append(str(tmp_path / f"{p.lang}.profile"))
            langid.save_profile(p, paths[-1])
        cfg = pipeline.PipelineConfig(dataset_lang=DatasetLang.TAMIL,
                                      profile_paths=paths, k=1, epochs=30)
        rows = corpus.load_tsv(FIXTURES / "ta_train.tsv")
        gold = [r for r in rows if r.label in (Label.HOPE, Label.NOT_HOPE)]
        table = translit.scheme_table(cfg.dataset_lang, cfg.scheme_path)
        proc = pipeline.preprocess_rows(gold, cfg, trained_profiles, table)
        assert Label.NOT_LANGUAGE in [p.gate for p in proc]
        want = [translit.transliterate(text, table)
                for text in textprep.normalize_text([r.text for r in gold])]

        def refused(*args):
            raise AssertionError("fit ran the language gate")

        monkeypatch.setattr(langid, "detect", refused)
        monkeypatch.setattr(langid, "load_profile", refused)
        build_vocab, seen = features.build_vocab, []

        def recorded(texts, min_df):
            seen.append(list(texts))
            return build_vocab(texts, min_df)

        monkeypatch.setattr(features, "build_vocab", recorded)
        fitted = pipeline.fit(cfg, rows)
        assert seen == [want] and not hasattr(fitted, "profiles")

    def test_embeddings_apply_transliterates_nothing(self, tmp_path, monkeypatch):
        # In embeddings mode only the gate reads text, so apply transliterates
        # no row. Each label is still the gate's, else the vote on the row's
        # vector, and fit still loads the scheme table the manifest pins.
        import numpy as np

        rows = corpus.load_tsv(FIXTURES / "ml_train.tsv")
        emb = tmp_path / "ml.emb"
        rng = np.random.default_rng(5)
        emb.write_text("".join(" ".join(f"{v:.6f}" for v in rng.normal(size=4)) + "\n"
                               for _ in rows))

        def refused(*args):
            raise AssertionError("apply transliterated a row")

        apply, fitted_seen = pipeline.apply, []

        def without_transliteration(fitted, test_rows):
            fitted_seen.append(fitted)
            with monkeypatch.context() as m:
                m.setattr(translit, "transliterate", refused)
                return apply(fitted, test_rows)

        monkeypatch.setattr(pipeline, "apply", without_transliteration)
        out = tmp_path / "out"
        assert run_cli("run", "--lang", "ml", "--seed", "1", "--epochs", "30",
                       "--train-embeddings", str(emb), "--test-embeddings", str(emb),
                       "--out", str(out), str(FIXTURES / "ml_train.tsv"),
                       str(FIXTURES / "ml_train.tsv")) == 0
        fitted, = fitted_seen
        assert fitted.table is not None
        proc = pipeline.preprocess_rows(rows, fitted.cfg, [], fitted.table)
        X = features.load_embeddings(emb)
        want = [p.gate or learn.ensemble_predict(fitted.models, X[i:i + 1],
                                                 fitted.cfg.tie_break)
                for i, p in enumerate(proc)]
        aliases = DatasetLang.MALAYALAM.aliases
        assert (out / "predictions.txt").read_text() == "".join(
            aliases[label] + "\n" for label in want)
        scheme = translit.scheme_file(DatasetLang.MALAYALAM, None)
        assert f"scheme.sha256={pipeline.sha256_file(scheme)}\n" in \
            (out / "manifest.txt").read_text()

    def test_stage_order(self, trained_profiles, monkeypatch):
        cfg = pipeline.PipelineConfig(dataset_lang=DatasetLang.TAMIL)
        rows = corpus.load_tsv(FIXTURES / "ta_train.tsv")
        table = translit.scheme_table(cfg.dataset_lang, cfg.scheme_path)
        events = []  # (stage, first argument, result), in call order
        for module, name in ((textprep, "normalize_text"),
                             (langid, "detect"),
                             (langid, "script_fraction"),
                             (translit, "transliterate")):
            def record(*args, _fn=getattr(module, name), _stage=name):
                result = _fn(*args)
                # Columns are copied: preprocess_rows replaces their texts
                # in place.
                column = _stage in ("normalize_text", "detect")
                events.append((_stage, list(args[0]) if column else args[0],
                               list(result) if column else result))
                return result
            monkeypatch.setattr(module, name, record)
        for profiles in ([], trained_profiles):
            events.clear()
            proc = pipeline.preprocess_rows(rows, cfg, profiles, table)
            # One normalize_text call on exactly the rows' texts, in order,
            # one detect call on exactly the normalized texts, then each
            # kept row's text transliterated in order.
            it = iter(events)
            stage, arg, texts = next(it)
            assert (stage, arg) == ("normalize_text", [row.text for row in rows])
            stage, arg, langs = next(it)
            assert (stage, arg) == ("detect", texts)
            assert [p.gate for p in proc] == [
                langid.assign_language_class(lang, cfg.dataset_lang) for lang in langs]
            for text, p in zip(texts, proc):
                if p.gate is None:
                    assert next(it) == ("transliterate", text, p.text)
                else:
                    assert p.text == text
            assert next(it, None) is None
            assert any(stage == "transliterate" for stage, _, _ in events)
        # With profiles the gate drops some rows, so some are not transliterated.
        assert {p.gate for p in proc} == {None, Label.NOT_LANGUAGE}

    @pytest.mark.parametrize("name,lang", [
        ("ta_train.tsv", DatasetLang.TAMIL), ("ml_train.tsv", DatasetLang.MALAYALAM),
    ])
    def test_no_profiles_gates_only_script_evidence(self, name, lang):
        # Without profiles, romanized comments carry no evidence of English,
        # so none of the gold Hope/NotHope rows may be gated; Devanagari
        # script still is.
        rows = corpus.load_tsv(FIXTURES / name)
        rows.append(corpus.LabeledComment("नमस्ते दोस्त", None))
        cfg = pipeline.PipelineConfig(dataset_lang=lang)
        table = translit.scheme_table(cfg.dataset_lang, cfg.scheme_path)
        proc = pipeline.preprocess_rows(rows, cfg, [], table)
        gold = [p.gate for p, r in zip(proc, rows)
                if r.label in (Label.HOPE, Label.NOT_HOPE)]
        assert (len(gold), gold.count("NotLanguage")) == (22, 0)
        assert proc[-1].gate == "NotLanguage"

    def test_unexpected_train_load_error_propagates(self, tmp_path, monkeypatch):
        # Only input errors become a [load-train] StageError (exit 2); a bug
        # inside the loader keeps its own type and traceback.
        def broken(*args, **kwargs):
            raise RuntimeError("loader bug")

        monkeypatch.setattr(corpus, "load_tsv", broken)
        cfg = pipeline.PipelineConfig(dataset_lang=DatasetLang.ENGLISH)
        with pytest.raises(RuntimeError, match="loader bug"):
            pipeline.run_pipeline(cfg, FIXTURES / "en_train.tsv",
                                  FIXTURES / "en_test.tsv", tmp_path / "out")

    def test_embeddings_mode_requires_paths(self):
        # Train embeddings select the mode; test embeddings alone are refused.
        for paths, missing in (({"train_embeddings": "train.emb"}, "test"),
                               ({"test_embeddings": "test.emb"}, "train")):
            cfg = pipeline.PipelineConfig(dataset_lang=DatasetLang.ENGLISH, **paths)
            with pytest.raises(pipeline.ConfigError,
                               match=f"requires a {missing} embedding path"):
                cfg.validate()
