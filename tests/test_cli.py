"""Command-line interface tests, run in process through main()."""

import json
import os

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


class TestTrain:
    def test_full_run_writes_outputs(self, tmp_path, needle_corpus, capsys):
        cfg_path = write_config(tmp_path, needle_corpus)
        assert run(["train", str(cfg_path)]) == 0
        out = tmp_path / "out"
        assert (out / "model.bin").exists()
        assert (out / "epochs.csv").exists()
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
            model.embedding.vectors[vocab.id_for("c")] = np.nan
        path = tmp_path / "model.bin"
        save_model(str(path), model)
        corpus = tmp_path / "c.tsv"
        corpus.write_text("0\ta b\n1\tc a\n")
        assert run(["eval", str(path), str(corpus)]) == 2
        assert "non-finite" in capsys.readouterr().err


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
