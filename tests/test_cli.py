"""Command-line interface tests, run in process through main()."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from cachedlstm import cli
from cachedlstm.serialize import load_model


def run(argv):
    return cli.main(argv)


@pytest.fixture
def needle_corpus(tmp_path):
    out = tmp_path / "data"
    code = run(["synth", "--out-dir", str(out), "--n-docs", "60",
                "--length", "12", "--classes", "2", "--noise-vocab", "20",
                "--seed", "3"])
    assert code == 0
    return out


def write_config(tmp_path, data_dir, **overrides):
    cfg = {
        "model": {"kind": "clstm", "d": 6, "H": 6, "K": 2, "C": 2},
        "train": {"learning_rate": 0.05, "batch_size": 10, "max_epochs": 2,
                  "seed": 1},
        "data": {"train_path": str(data_dir / "train.tsv"),
                 "dev_path": str(data_dir / "dev.tsv")},
        "output_dir": str(tmp_path / "out"),
    }
    for dotted, value in overrides.items():
        section, key = dotted.split(".")
        cfg[section][key] = value
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return path


class TestSynth:
    def test_writes_both_splits(self, needle_corpus):
        train = (needle_corpus / "train.tsv").read_text().strip().splitlines()
        dev = (needle_corpus / "dev.tsv").read_text().strip().splitlines()
        assert len(train) + len(dev) == 60
        assert all("\t" in line for line in train)

    def test_bad_parameters_exit_2(self, tmp_path):
        assert run(["synth", "--out-dir", str(tmp_path), "--length", "4"]) == 2

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_noise_vocab_below_one_exits_2(self, tmp_path, capsys, size):
        out = tmp_path / "data"
        assert run(["synth", "--out-dir", str(out), "--noise-vocab", size]) == 2
        assert capsys.readouterr().err == f"error: noise_vocab_size must be >= 1, got {size}\n"
        assert not out.exists()


class TestTrain:
    def test_full_run_writes_outputs(self, tmp_path, needle_corpus, capsys):
        cfg_path = write_config(tmp_path, needle_corpus)
        assert run(["train", str(cfg_path)]) == 0
        out = tmp_path / "out"
        # No temp file is left beside the outputs.
        assert sorted(os.listdir(out)) == ["epochs.csv", "model.bin", "summary.json"]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["split"] == "dev"
        assert summary["epochs_run"] == 2
        assert 0.0 <= summary["accuracy"] <= 1.0
        epochs = (out / "epochs.csv").read_text().splitlines()
        assert epochs[0] == "epoch,train_loss,dev_acc,dev_mse,seconds"
        assert len(epochs) == 3
        assert "best dev acc" in capsys.readouterr().out
        model = load_model(str(out / "model.bin"))
        assert model.config.kind == "clstm"

    def test_unknown_config_key_exits_2_without_outputs(self, tmp_path,
                                                        needle_corpus, capsys):
        cfg_path = write_config(tmp_path, needle_corpus)
        raw = json.loads(cfg_path.read_text())
        raw["train"]["learning_rat"] = 0.1
        cfg_path.write_text(json.dumps(raw))
        assert run(["train", str(cfg_path)]) == 2
        assert not (tmp_path / "out").exists()
        assert "learning_rat" in capsys.readouterr().err

    def test_bad_value_exits_2(self, tmp_path, needle_corpus, capsys):
        cfg_path = write_config(tmp_path, needle_corpus, **{"train.batch_size": 0})
        assert run(["train", str(cfg_path)]) == 2
        assert "batch_size" in capsys.readouterr().err

    @pytest.mark.parametrize("override", [
        "train.batch_size=1.5",
        "model.H=6.0",
        "model.d=true",
        "train.learning_rate=NaN",
        "train.weight_decay=Infinity",
        "train.gradient_clip_norm=true",
        "model.bidirectional=1",
        "data.min_count=\"2\"",
    ])
    def test_wrong_scalar_type_exits_2(self, tmp_path, needle_corpus, capsys,
                                       override):
        cfg_path = write_config(tmp_path, needle_corpus)
        assert run(["train", str(cfg_path), "--set", override]) == 2
        err = capsys.readouterr().err
        assert override.split("=")[0] in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("split", ["train", "dev", "test"])
    def test_empty_split_exits_2_without_outputs(self, tmp_path, needle_corpus, capsys,
                                                 split):
        # A test split with no documents used to be replaced by dev silently.
        empty = tmp_path / f"empty_{split}.tsv"
        empty.write_text("\n \n")
        cfg_path = write_config(tmp_path, needle_corpus, **{
            "data.test_path": str(needle_corpus / "dev.tsv"),
            f"data.{split}_path": str(empty)})
        assert run(["train", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {split} corpus {empty} holds no documents\n"
        assert not (tmp_path / "out").exists()

    def test_section_not_an_object_exits_2(self, tmp_path, needle_corpus, capsys):
        cfg_path = write_config(tmp_path, needle_corpus)
        raw = json.loads(cfg_path.read_text())
        raw["train"] = 5
        cfg_path.write_text(json.dumps(raw))
        assert run(["train", str(cfg_path)]) == 2
        assert "train must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["train"], ["sweep", "--k", "1,2"]])
    @pytest.mark.parametrize("wrap,message", [
        (lambda raw: [raw], "config root must be a JSON object"),
        (lambda raw: dict(raw, model=5), "model must be a JSON object"),
    ])
    def test_set_on_a_config_that_is_not_an_object_exits_2(self, tmp_path, needle_corpus,
                                                           capsys, command, wrap, message):
        cfg_path = write_config(tmp_path, needle_corpus)
        cfg_path.write_text(json.dumps(wrap(json.loads(cfg_path.read_text()))))
        assert run([command[0], str(cfg_path), *command[1:], "--set", "model.d=3"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("token", ["<unk>", "<pad>", "<PAD>"])
    def test_corpus_with_a_reserved_token_trains(self, tmp_path, needle_corpus, token):
        train = needle_corpus / "train.tsv"
        lines = train.read_text().splitlines()
        lines[0] += f" {token} {token}"
        train.write_text("\n".join(lines) + "\n")
        cfg_path = write_config(tmp_path, needle_corpus, **{"train.max_epochs": 1})
        assert run(["train", str(cfg_path)]) == 0
        model = load_model(str(tmp_path / "out" / "model.bin"))
        assert token.lower() not in model.vocab.tokens

    def test_null_accepted_for_optional_fields(self, tmp_path, needle_corpus):
        cfg_path = write_config(tmp_path, needle_corpus,
                                **{"train.max_epochs": 1,
                                   "train.gradient_clip_norm": None})
        assert run(["train", str(cfg_path)]) == 0

    def test_missing_corpus_exits_2(self, tmp_path, needle_corpus):
        cfg_path = write_config(
            tmp_path, needle_corpus,
            **{"data.train_path": str(tmp_path / "absent.tsv")})
        assert run(["train", str(cfg_path)]) == 2
        assert not (tmp_path / "out").exists()

    def test_set_overrides(self, tmp_path, needle_corpus):
        cfg_path = write_config(tmp_path, needle_corpus)
        out2 = tmp_path / "other"
        assert run(["train", str(cfg_path),
                    "--set", "train.max_epochs=1",
                    "--set", f"output_dir={out2}"]) == 0
        epochs = (out2 / "epochs.csv").read_text().splitlines()
        assert len(epochs) == 2

    @pytest.mark.parametrize("quoted", [False, True])
    def test_set_output_dir_is_decoded_like_other_values(self, tmp_path, needle_corpus,
                                                         monkeypatch, quoted):
        # A JSON string names the same absolute directory as the bare path.
        cfg_path = write_config(tmp_path, needle_corpus)
        out = tmp_path / "abs out"
        value = json.dumps(str(out)) if quoted else str(out)
        monkeypatch.chdir(tmp_path)
        assert run(["train", str(cfg_path), "--set", "train.max_epochs=1",
                    "--set", f"output_dir={value}"]) == 0
        assert (out / "model.bin").is_file()
        assert sorted(os.listdir(tmp_path)) == ["abs out", "data", "run.json"]

    def test_set_output_dir_of_another_type_exits_2(self, tmp_path, needle_corpus):
        cfg_path = write_config(tmp_path, needle_corpus)
        assert run(["train", str(cfg_path), "--set", "output_dir=7"]) == 2

    def test_invalid_set_exits_2(self, tmp_path, needle_corpus):
        cfg_path = write_config(tmp_path, needle_corpus)
        assert run(["train", str(cfg_path), "--set", "nonsense"]) == 2
        assert run(["train", str(cfg_path), "--set", "bogus.key=1"]) == 2

    def test_determinism_same_seed_same_bytes(self, tmp_path, needle_corpus):
        cfg_path = write_config(tmp_path, needle_corpus)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run(["train", str(cfg_path), "--set", f"output_dir={out_a}"]) == 0
        assert run(["train", str(cfg_path), "--set", f"output_dir={out_b}"]) == 0
        assert (out_a / "model.bin").read_bytes() == (out_b / "model.bin").read_bytes()


class TestEval:
    def test_eval_prints_metrics_and_writes_deciles(self, tmp_path,
                                                    needle_corpus, capsys):
        cfg_path = write_config(tmp_path, needle_corpus)
        assert run(["train", str(cfg_path)]) == 0
        model_path = tmp_path / "out" / "model.bin"
        deciles = tmp_path / "dec.csv"
        assert run(["eval", str(model_path), str(needle_corpus / "train.tsv"),
                    "--deciles", str(deciles)]) == 0
        out = capsys.readouterr().out
        assert "accuracy" in out and "mse" in out
        lines = deciles.read_text().splitlines()
        assert lines[0] == "decile,min_len,max_len,n,accuracy"
        assert len(lines) == 11

    def test_eval_missing_model_exits_2(self, tmp_path, needle_corpus):
        assert run(["eval", str(tmp_path / "no.bin"),
                    str(needle_corpus / "dev.tsv")]) == 2

    def test_eval_of_a_container_claiming_too_much_meta_exits_2(self, tmp_path, capsys):
        path = tmp_path / "model.bin"
        path.write_bytes(b"TBOX" + (1).to_bytes(4, "little") + (64 << 20).to_bytes(4, "little")
                         + b"{}")
        corpus = tmp_path / "c.tsv"
        corpus.write_text("0\ta b\n")
        assert run(["eval", str(path), str(corpus)]) == 2
        assert "truncated container" in capsys.readouterr().err

    @pytest.mark.parametrize("tensor", ["clf.w", "embedding"])
    def test_eval_of_a_nan_model_exits_2(self, tmp_path, capsys, tensor):
        from cachedlstm.data import Document, build_vocab
        from cachedlstm.model import ModelConfig, build_model
        from cachedlstm.serialize import save_model

        vocab = build_vocab([Document(0, ["a", "b"]), Document(1, ["c"])])
        model = build_model(ModelConfig(kind="lstm", d=3, H=4, C=2), vocab, seed=0)
        if tensor == "clf.w":
            model.clf.w[:] = np.nan
        else:  # one row, of a token the corpus below uses
            model.embedding.vectors[vocab.ids(["c"])[0]] = np.nan
        path = tmp_path / "model.bin"
        save_model(str(path), model)
        corpus = tmp_path / "c.tsv"
        corpus.write_text("0\ta b\n1\tc a\n")
        assert run(["eval", str(path), str(corpus)]) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_eval_of_an_overflowing_model_exits_2(self, tmp_path, capsys):
        from cachedlstm.data import Document, build_vocab
        from cachedlstm.model import ModelConfig, build_model
        from cachedlstm.serialize import save_model

        vocab = build_vocab([Document(0, ["a", "b"]), Document(1, ["c"])])
        model = build_model(ModelConfig(kind="clstm", d=3, H=4, K=2, C=2, bidirectional=True),
                            vocab, seed=0)
        model.embedding.vectors[1:] = 1.0
        model.cells[0].w[:] = 1e308
        path = tmp_path / "model.bin"
        save_model(str(path), model)
        corpus = tmp_path / "c.tsv"
        corpus.write_text("0\ta b\n1\tc a\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["eval", str(path), str(corpus)]) == 2
        assert capsys.readouterr().err.startswith("error: overflow encountered")

    def test_eval_scores_each_document_once(self, tmp_path, needle_corpus, monkeypatch):
        from cachedlstm.data import build_vocab, read_corpus
        from cachedlstm.model import DocModel, ModelConfig, build_model
        from cachedlstm.serialize import save_model

        corpus = needle_corpus / "train.tsv"
        docs = read_corpus(str(corpus), 2)
        path = tmp_path / "model.bin"
        save_model(str(path), build_model(ModelConfig(kind="lstm", d=3, H=4, C=2),
                                          build_vocab(docs), seed=0))
        scored = []
        real = DocModel.probabilities

        def counted(model, batch):
            scored.append(batch.size)
            return real(model, batch)

        monkeypatch.setattr(DocModel, "probabilities", counted)
        assert run(["eval", str(path), str(corpus), "--batch-size", "10",
                    "--deciles", str(tmp_path / "dec.csv")]) == 0
        assert len(docs) >= 10 and (tmp_path / "dec.csv").exists()
        assert sum(scored) == len(docs)

    def test_eval_missing_or_empty_corpus_exits_2(self, tmp_path, capsys):
        from cachedlstm.data import Document, build_vocab
        from cachedlstm.model import ModelConfig, build_model
        from cachedlstm.serialize import save_model

        vocab = build_vocab([Document(0, ["a", "b"]), Document(1, ["c"])])
        path = tmp_path / "model.bin"
        save_model(str(path), build_model(ModelConfig(kind="lstm", d=3, H=4, C=2),
                                          vocab, seed=0))
        absent = tmp_path / "absent.tsv"
        assert run(["eval", str(path), str(absent)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read eval corpus: ") and str(absent) in err
        empty = tmp_path / "empty.tsv"
        empty.write_text("\n\n")
        assert run(["eval", str(path), str(empty)]) == 2
        assert capsys.readouterr().err == f"error: eval corpus {empty} holds no documents\n"

    @pytest.mark.parametrize("size", ["0", "-5"])
    def test_eval_rejects_batch_size_below_one(self, tmp_path, capsys, size):
        from cachedlstm.data import Document, build_vocab
        from cachedlstm.model import ModelConfig, build_model
        from cachedlstm.serialize import save_model

        vocab = build_vocab([Document(0, ["a", "b"]), Document(1, ["c"])])
        path = tmp_path / "model.bin"
        save_model(str(path), build_model(ModelConfig(kind="lstm", d=3, H=4, C=2),
                                          vocab, seed=0))
        corpus = tmp_path / "c.tsv"
        corpus.write_text("0\ta b\n1\tc a\n")
        assert run(["eval", str(path), str(corpus), "--batch-size", size]) == 2
        captured = capsys.readouterr()
        assert f"batch_size must be >= 1, got {size}" in captured.err
        assert "accuracy" not in captured.out


class TestGradcheckCommand:
    def test_passes_by_default(self, capsys):
        assert run(["gradcheck", "--cell", "clstm", "--K", "2"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out

    @pytest.mark.parametrize("masked", [[], ["--masked"]])
    @pytest.mark.parametrize("cell", ["rnn", "lstm", "cifg", "clstm"])
    def test_defaults_pass_for_every_cell(self, cell, masked, capsys):
        # The all-steps readout keeps every entry's gradient well above the
        # finite-difference noise: reading only the last step's h instead
        # gives 1.5e-6 on masked lstm, over the tolerance.
        assert run(["gradcheck", "--cell", cell, *masked]) == 0
        assert "OK" in capsys.readouterr().out

    def test_detects_wrong_gradients(self, monkeypatch, capsys):
        # Corrupt the backward pass and the check must fail with exit 1.
        import cachedlstm.gradcheck as gradcheck_mod

        real = gradcheck_mod.backward

        def crooked(tape, loss):
            grads = real(tape, loss)
            return {k: v * 1.001 for k, v in grads.items()}

        monkeypatch.setattr(gradcheck_mod, "backward", crooked)
        assert run(["gradcheck", "--cell", "lstm"]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_cbow_pipeline(self):
        assert run(["gradcheck", "--cell", "cbow", "--d", "6"]) == 0

    def test_nan_gradients_fail_the_check(self, monkeypatch, capsys):
        # A NaN gradient has no finite error; it must not read as a pass.
        import cachedlstm.gradcheck as gradcheck_mod

        real = gradcheck_mod.backward

        def poisoned(tape, loss):
            return {k: v * np.nan for k, v in real(tape, loss).items()}

        monkeypatch.setattr(gradcheck_mod, "backward", poisoned)
        assert run(["gradcheck", "--cell", "clstm"]) == 1
        assert "inf (FAILED" in capsys.readouterr().out

    @pytest.mark.parametrize("flags,message", [
        (["--eps", "nan"], "eps must be a positive finite number"),
        (["--eps", "inf"], "eps must be a positive finite number"),
        (["--eps", "0"], "eps must be a positive finite number"),
        (["--K", "0"], "n_groups must be >= 1, got 0"),
        (["--K", "-3"], "n_groups must be >= 1, got -3"),
        (["--weight-decay", "-1"], "--weight-decay must be a finite number >= 0"),
        (["--weight-decay", "nan"], "--weight-decay must be a finite number >= 0"),
        (["--cell", "cbow", "--weight-decay", "inf"], "--weight-decay must be"),
        (["--T", "0"], "--T must be >= 1, got 0"),
        (["--T", "-4"], "--T must be >= 1, got -4"),
    ])
    def test_bad_flags_exit_2(self, flags, message, capsys):
        assert run(["gradcheck", *flags]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "OK" not in captured.out and "Traceback" not in captured.err


class TestSweepCommand:
    def test_sweep_writes_csv_and_reports_skips(self, tmp_path, needle_corpus,
                                                capsys):
        cfg_path = write_config(tmp_path, needle_corpus,
                                **{"train.max_epochs": 1})
        assert run(["sweep", str(cfg_path), "--k", "1,2,4"]) == 0
        out = capsys.readouterr().out
        assert "K=1" in out and "K=2" in out and "skipped" in out
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert lines[0] == "k,best_dev_acc,best_dev_mse,best_epoch"
        assert len(lines) == 3  # K=4 does not divide H=6

    def test_bad_k_list_exits_2(self, tmp_path, needle_corpus):
        cfg_path = write_config(tmp_path, needle_corpus)
        assert run(["sweep", str(cfg_path), "--k", "a,b"]) == 2


class TestConvertCommand:
    def test_converts_double_tab_reviews(self, tmp_path):
        raw = tmp_path / "raw.txt"
        raw.write_text("u1\t\tprod\t\t5\t\tGreat stuff <sssss> loved it\n"
                       "u2\t\tprod\t\t2\t\tmeh\n")
        out = tmp_path / "canon.tsv"
        assert run(["convert", "--input", str(raw), "--output", str(out),
                    "--label-index", "2", "--text-index", "3",
                    "--label-offset", "-1", "--classes", "5"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "4\tgreat stuff loved it"
        assert lines[1] == "1\tmeh"

    def test_bad_line_exits_2(self, tmp_path, capsys):
        raw = tmp_path / "raw.txt"
        raw.write_text("onlyonefield\n")
        out = tmp_path / "c.tsv"
        assert run(["convert", "--input", str(raw), "--output", str(out),
                    "--label-index", "2", "--text-index", "3"]) == 2
        assert "raw.txt:1" in capsys.readouterr().err


    @pytest.mark.parametrize("flags,message", [
        (["--label-index", "0", "--text-index", "-9"], "text_index must be >= 0, got -9"),
        (["--label-index", "-1", "--text-index", "1"], "label_index must be >= 0, got -1"),
        (["--label-index", "0", "--text-index", "1", "--field-sep", ""],
         "field_sep must not be empty"),
        (["--label-index", "0", "--text-index", "1", "--classes", "0"],
         "n_classes must be >= 1, got 0"),
    ])
    def test_negative_field_index_exits_2(self, tmp_path, capsys, flags, message):
        raw = tmp_path / "raw.txt"
        raw.write_text("1\t\tgood\n")
        out = tmp_path / "c.tsv"
        assert run(["convert", "--input", str(raw), "--output", str(out), *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestUsage:
    def test_no_command_exits_2(self, capsys):
        assert run([]) == 2

    def test_unknown_command_exits_2(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_help_exits_0(self, capsys):
        assert run(["--help"]) == 0
        assert "train" in capsys.readouterr().out


class TestMissingKeys:
    @pytest.mark.parametrize("section,key", [
        ("model", "kind"), ("model", "d"), ("data", "train_path"), ("data", "dev_path")])
    def test_missing_section_key_is_named(self, tmp_path, needle_corpus, capsys,
                                          section, key):
        cfg_path = write_config(tmp_path, needle_corpus)
        raw = json.loads(cfg_path.read_text())
        del raw[section][key]
        cfg_path.write_text(json.dumps(raw))
        assert run(["train", str(cfg_path)]) == 2
        assert capsys.readouterr().err == f"error: {section} is missing {key!r}\n"

    @pytest.mark.parametrize("key", ["model", "data", "output_dir"])
    def test_missing_top_level_key_is_named(self, tmp_path, needle_corpus, capsys, key):
        cfg_path = write_config(tmp_path, needle_corpus)
        raw = json.loads(cfg_path.read_text())
        del raw[key]
        cfg_path.write_text(json.dumps(raw))
        assert run(["train", str(cfg_path)]) == 2
        assert capsys.readouterr().err == f"error: config root is missing {key!r}\n"

    def test_train_section_may_be_left_out(self, tmp_path, needle_corpus):
        raw = json.loads(write_config(tmp_path, needle_corpus).read_text())
        del raw["train"]
        assert cli.parse_run_config(raw).train == cli.TrainConfig()


class TestInputFiles:
    """Every input file that is not UTF-8 text, or is missing or malformed,
    exits 2 with one line naming it."""

    def _assert_exit_2(self, argv, capsys, *parts):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert all(part in err for part in parts), err

    @pytest.mark.parametrize("split", ["train", "dev", "test"])
    def test_non_utf8_corpus_names_file_and_line(self, tmp_path, needle_corpus, capsys,
                                                 split):
        bad = tmp_path / f"bad_{split}.tsv"
        bad.write_bytes(b"0\tfine words\n1\tbad \xff byte\n")
        cfg_path = write_config(tmp_path, needle_corpus, **{
            "data.test_path": str(needle_corpus / "dev.tsv"),
            f"data.{split}_path": str(bad)})
        self._assert_exit_2(["train", str(cfg_path)], capsys, f"{bad}:2: not UTF-8")
        assert not (tmp_path / "out").exists()

    def test_non_utf8_eval_corpus_names_file(self, tmp_path, needle_corpus, capsys):
        cfg_path = write_config(tmp_path, needle_corpus, **{"train.max_epochs": 1})
        assert run(["train", str(cfg_path)]) == 0
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(b"\xff0\tword\n")
        self._assert_exit_2(["eval", str(tmp_path / "out" / "model.bin"), str(bad)],
                            capsys, f"{bad}:1: not UTF-8")

    def test_non_utf8_config_names_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_bytes(b'{"model": "\xff"}')
        self._assert_exit_2(["train", str(cfg_path)], capsys, str(cfg_path))

    def test_eval_with_swapped_arguments_names_the_model_path(self, tmp_path,
                                                              needle_corpus, capsys):
        corpus = needle_corpus / "dev.tsv"
        self._assert_exit_2(["eval", str(corpus), str(corpus)], capsys,
                            f"error: {corpus}: not a model container")

    def _vectors(self, tmp_path, needle_corpus, body: bytes):
        path = tmp_path / "vectors.txt"
        path.write_bytes(body)
        return path, write_config(tmp_path, needle_corpus, **{
            "data.embeddings_path": str(path), "train.max_epochs": 1})

    def test_embeddings_file_trains(self, tmp_path, needle_corpus):
        # "cue0" is a token of the corpus; "absent" is not.
        path, cfg_path = self._vectors(tmp_path, needle_corpus,
                                       b"cue0 1 2 3 4 5 6\nabsent 1 1 1 1 1 1\n")
        assert run(["train", str(cfg_path), "--set", "data.embeddings_trainable=false"]) == 0
        model = load_model(str(tmp_path / "out" / "model.bin"))
        row = model.embedding.vectors[model.vocab.ids(["cue0"])[0]]
        np.testing.assert_array_equal(row, [1, 2, 3, 4, 5, 6])

    def test_missing_embeddings_file_names_it(self, tmp_path, needle_corpus, capsys):
        cfg_path = write_config(tmp_path, needle_corpus, **{
            "data.embeddings_path": str(tmp_path / "absent.txt")})
        self._assert_exit_2(["train", str(cfg_path)], capsys, str(tmp_path / "absent.txt"))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("body,message", [
        (b"cue0 1 2 3 4 5 6\ncue1 1 2\n", ":2: vector has 2 values, expected 6"),
        (b"cue0 1 2 3 4 5 x\n", ":1: could not convert"),
        (b"cue0 1 2 3 4 5 6\n\ncue1 1 2 3 4 5 \xff\n", ":3: not UTF-8"),
    ])
    def test_malformed_embeddings_file_names_file_and_line(self, tmp_path, needle_corpus,
                                                            capsys, body, message):
        path, cfg_path = self._vectors(tmp_path, needle_corpus, body)
        self._assert_exit_2(["train", str(cfg_path)], capsys, f"{path}{message}")
        assert not (tmp_path / "out").exists()


class TestRuntimeAborts:
    def test_diverged_training_exits_3(self, tmp_path, needle_corpus, capsys):
        # The step size overflows the weights, and the L2 term of the
        # objective turns them into a non-finite loss.
        cfg_path = write_config(tmp_path, needle_corpus, **{"train.weight_decay": 0.001})
        with np.errstate(all="ignore"):
            assert run(["train", str(cfg_path), "--set", "train.learning_rate=1e308"]) == 3
        assert capsys.readouterr().err.startswith("error: non-finite objective")
        assert not (tmp_path / "out").exists()

    def test_overflowing_step_exits_3(self, tmp_path, needle_corpus, capsys):
        # Without weight decay the floored objective stays finite while the
        # weights overflow; the overflow itself must abort the run.
        cfg_path = write_config(tmp_path, needle_corpus)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["train", str(cfg_path), "--set", "train.learning_rate=1e308"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite objective at batch ") and "overflow" in err
        assert not (tmp_path / "out").exists()

    def test_out_of_memory_exits_3(self, tmp_path, needle_corpus, capsys, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 1.00 TiB for an array")

        monkeypatch.setattr(cli, "build_model", no_memory)
        cfg_path = write_config(tmp_path, needle_corpus)
        assert run(["train", str(cfg_path)]) == 3
        assert capsys.readouterr().err == \
            "error: out of memory (Unable to allocate 1.00 TiB for an array)\n"


    def test_a_helper_killed_mid_epoch_exits_3(self, tmp_path, needle_corpus):
        # ``cachedlstm train`` in a child process whose helper, which runs
        # each pair's second direction, is killed between the first batch's
        # forward pass and its VJP.
        cfg_path = write_config(tmp_path, needle_corpus, **{"model.bidirectional": True})
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        code = """
import os, signal, sys
sys.path.insert(0, sys.argv[1])
os.sched_getaffinity = lambda pid: {0, 1}
from cachedlstm import cells, cli, encoder

def killed_after_forward(*args):
    node = cells.recurrence_pair(*args)
    os.kill(cells._helper.proc.pid, signal.SIGKILL)
    return node

encoder.recurrence_pair = killed_after_forward
sys.exit(cli.main(sys.argv[2:]))
"""
        proc = subprocess.run([sys.executable, "-c", code, src, "train", str(cfg_path)],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("error: the helper process ")
        assert proc.stderr.count("\n") == 1
        assert not (tmp_path / "out").exists()


class TestNegativeSeeds:
    def test_train_seed(self, tmp_path, needle_corpus, capsys):
        cfg_path = write_config(tmp_path, needle_corpus)
        assert run(["train", str(cfg_path), "--set", "train.seed=-1"]) == 2
        assert capsys.readouterr().err == "error: train: seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("command,seed", [("synth", "-1"), ("gradcheck", "-3")])
    def test_command_seed(self, tmp_path, capsys, command, seed):
        out = ["--out-dir", str(tmp_path / "data")] if command == "synth" else []
        assert run([command, *out, "--seed", seed]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --seed must be >= 0, got {seed}\n"
        assert captured.out == "" and not (tmp_path / "data").exists()
