"""Command-line interface.

Subcommands:
    train      fit a model from a JSON config; writes model.bin, epochs.csv,
               summary.json into the config's output_dir
    eval       score a saved model on a corpus; prints metrics and writes an
               accuracy-by-length-decile report
    gradcheck  compare tape gradients against central differences on a small
               random model; exits 1 if the check fails
    sweep      train one model per memory-group count and report dev results
    synth      generate the synthetic needle corpus
    convert    import a delimited corpus into the canonical format

Exit codes: 0 success, 1 a check failed, 2 bad usage or config, 3 runtime
abort (such as a diverged objective).  Config or input validation failures
happen before any output file is opened, so a failed run leaves no partial
outputs behind.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .data import (
    build_vocab,
    init_embeddings,
    load_embeddings,
    read_corpus,
    synth_needle,
    write_corpus,
)
from .evaluation import (
    convergence_log,
    evaluate,
    group_sweep,
    length_decile_report,
)
from .gradcheck import encoder_gradcheck, pipeline_gradcheck
from .model import ModelConfig, build_model
from .schema import ConfigError, build_section
from .serialize import load_model, save_model
from .training import TrainConfig, TrainingDiverged, fit

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3

GRADCHECK_TOLERANCE = 1e-6


@dataclasses.dataclass
class DataConfig:
    """The data section of a run config."""

    train_path: str
    dev_path: str
    test_path: str | None = None
    min_count: int = 1
    embeddings_path: str | None = None
    embeddings_trainable: bool = True

    def __post_init__(self):
        if self.min_count < 1:
            raise ConfigError(f"data.min_count must be >= 1, got {self.min_count}")


@dataclasses.dataclass
class RunConfig:
    model: ModelConfig
    train: TrainConfig
    data: DataConfig
    output_dir: str


def parse_run_config(raw: dict) -> RunConfig:
    """Validate a config dict: sections model/train/data plus output_dir."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    known_top = {"model", "train", "data", "output_dir"}
    unknown = set(raw) - known_top
    if unknown:
        raise ConfigError(
            f"unknown top-level key {sorted(unknown)[0]!r} (known: {sorted(known_top)})"
        )
    for need in ("model", "data", "output_dir"):
        if need not in raw:
            raise ConfigError(f"config is missing {need!r}")
    model = build_section(ModelConfig, raw["model"], "model")
    train = build_section(TrainConfig, raw.get("train", {}), "train")
    data = build_section(DataConfig, raw["data"], "data")
    if not isinstance(raw["output_dir"], str) or not raw["output_dir"]:
        raise ConfigError("output_dir must be a non-empty string")
    return RunConfig(model=model, train=train, data=data,
                     output_dir=raw["output_dir"])


def _apply_overrides(raw: dict, sets: list) -> dict:
    """Apply --set section.key=value pairs onto the raw config dict."""
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"--set needs section.key=value, got {item!r}")
        path, _, literal = item.partition("=")
        parts = path.split(".")
        if len(parts) == 1 and parts[0] == "output_dir":
            raw["output_dir"] = literal
            continue
        if len(parts) != 2:
            raise ConfigError(f"--set path must be section.key, got {path!r}")
        section, key = parts
        if section not in ("model", "train", "data"):
            raise ConfigError(f"--set section must be model/train/data, got {section!r}")
        try:
            value = json.loads(literal)
        except json.JSONDecodeError:
            value = literal  # bare strings are allowed unquoted
        if isinstance(raw.setdefault(section, {}), dict):  # else parse_run_config rejects it
            raw[section][key] = value
    return raw


def _load_config(path: str, sets: list) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    return parse_run_config(_apply_overrides(raw, sets) if isinstance(raw, dict) else raw)


def _read_split(path: str, n_classes: int, what: str) -> list:
    try:
        return read_corpus(path, n_classes)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} corpus: {exc}") from None


def _prepare(cfg: RunConfig):
    """Corpora, vocabulary, and embeddings for a run config."""
    train_docs = _read_split(cfg.data.train_path, cfg.model.C, "train")
    dev_docs = _read_split(cfg.data.dev_path, cfg.model.C, "dev")
    test_docs = None
    if cfg.data.test_path:
        test_docs = _read_split(cfg.data.test_path, cfg.model.C, "test")
    vocab = build_vocab(train_docs, min_count=cfg.data.min_count)
    ss = np.random.SeedSequence([cfg.train.seed, 1])
    if cfg.data.embeddings_path:
        try:
            embedding = load_embeddings(cfg.data.embeddings_path, vocab,
                                        cfg.model.d, seed=ss)
        except OSError as exc:
            raise ConfigError(f"cannot read embeddings: {exc}") from None
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    else:
        embedding = init_embeddings(vocab, cfg.model.d, seed=ss)
    embedding.trainable = cfg.data.embeddings_trainable
    return train_docs, dev_docs, test_docs, vocab, embedding


def cmd_train(args) -> int:
    cfg = _load_config(args.config, args.set or [])
    train_docs, dev_docs, test_docs, vocab, embedding = _prepare(cfg)
    model = build_model(cfg.model, vocab, seed=cfg.train.seed, embedding=embedding)
    report = fit(model, train_docs, dev_docs, cfg.train)
    os.makedirs(cfg.output_dir, exist_ok=True)
    model_path = os.path.join(cfg.output_dir, "model.bin")
    save_model(model_path, model)
    with open(os.path.join(cfg.output_dir, "epochs.csv"), "w", encoding="utf-8") as fh:
        fh.write(convergence_log(report))
    final = evaluate(model, test_docs if test_docs else dev_docs,
                     batch_size=cfg.train.batch_size)
    summary = {
        "split": "test" if test_docs else "dev",
        "accuracy": final.accuracy,
        "mse": final.mse,
        "n": final.n,
        "best_epoch": report.best_epoch,
        "best_dev_acc": report.best_dev_acc,
        "epochs_run": len(report.epochs),
        "model": cfg.model.to_dict(),
        "train": cfg.train.to_dict(),
    }
    with open(os.path.join(cfg.output_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"trained {cfg.model.kind} for {len(report.epochs)} epochs; "
          f"best dev acc {report.best_dev_acc:.4f} at epoch {report.best_epoch}")
    print(f"{summary['split']} accuracy {final.accuracy:.4f}  mse {final.mse:.4f}")
    print(f"wrote {model_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model = load_model(args.model)
    docs = read_corpus(args.corpus, model.config.C)
    metrics = evaluate(model, docs, batch_size=args.batch_size)
    print(f"n {metrics.n}  accuracy {metrics.accuracy:.4f}  mse {metrics.mse:.4f}")
    if len(docs) >= 10:
        report = length_decile_report(model, docs, batch_size=args.batch_size)
        out_path = args.deciles or os.path.join(
            os.path.dirname(os.path.abspath(args.model)), "deciles.csv")
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(report.to_csv())
        print(f"wrote {out_path}")
    else:
        print("fewer than 10 documents; skipping the length-decile report")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    if not (math.isfinite(args.weight_decay) and args.weight_decay >= 0):
        raise ConfigError(f"--weight-decay must be a finite number >= 0, "
                          f"got {args.weight_decay}")
    if args.cell == "cbow":
        err = pipeline_gradcheck("cbow", args.d, args.seed, args.eps,
                                 weight_decay=args.weight_decay)
        label = "cbow pipeline"
    else:
        if args.T < 1:
            raise ConfigError(f"--T must be >= 1, got {args.T}")
        k = args.K if args.cell == "clstm" else 1
        err = encoder_gradcheck(args.cell, k, args.H, args.d, args.T,
                                batch=2, seed=args.seed, eps=args.eps,
                                masked=args.masked)
        label = f"cell {args.cell} K={k} H={args.H} T={args.T}"
    ok = err < GRADCHECK_TOLERANCE
    print(f"{label}: max relative gradient error {err:.3e} "
          f"({'OK' if ok else 'FAILED'}, tolerance {GRADCHECK_TOLERANCE:.0e})")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config, args.set or [])
    try:
        k_values = [int(k) for k in args.k.split(",") if k.strip()]
    except ValueError:
        raise ConfigError(f"--k must be comma-separated integers, got {args.k!r}") from None
    if not k_values:
        raise ConfigError("--k lists no group counts")
    train_docs, dev_docs, _test, vocab, embedding = _prepare(cfg)
    report = group_sweep(cfg.model, k_values, train_docs, dev_docs, cfg.train,
                         vocab=vocab, embedding=embedding)
    os.makedirs(cfg.output_dir, exist_ok=True)
    out_path = os.path.join(cfg.output_dir, "sweep.csv")
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(report.to_csv())
    for e in report.entries:
        print(f"K={e.n_groups}: best dev acc {e.best_dev_acc:.4f} "
              f"(mse {e.best_dev_mse:.4f}, epoch {e.best_epoch})")
    for k, reason in report.skipped:
        print(f"K={k}: skipped ({reason})")
    print(f"wrote {out_path}")
    return EXIT_OK


def cmd_synth(args) -> int:
    train, dev = synth_needle(args.n_docs, args.length, args.classes,
                              noise_vocab_size=args.noise_vocab, seed=args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    train_path = os.path.join(args.out_dir, "train.tsv")
    dev_path = os.path.join(args.out_dir, "dev.tsv")
    write_corpus(train_path, train)
    write_corpus(dev_path, dev)
    print(f"wrote {train_path} ({len(train)} docs) and {dev_path} ({len(dev)} docs)")
    return EXIT_OK


def cmd_convert(args) -> int:
    from .data import convert_external

    sep = args.field_sep.replace("\\t", "\t")
    docs = convert_external(args.input, sep, args.label_index, args.text_index,
                            label_offset=args.label_offset, n_classes=args.classes)
    write_corpus(args.output, docs)
    print(f"wrote {args.output} ({len(docs)} docs)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cachedlstm",
        description="train and evaluate grouped-memory recurrent document classifiers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a model from a JSON config")
    p.add_argument("config", help="path to the run config")
    p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                   help="override a config value (repeatable)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a saved model on a corpus")
    p.add_argument("model", help="path to a saved model container")
    p.add_argument("corpus", help="canonical label<TAB>text corpus")
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--deciles", help="where to write the length-decile CSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "gradcheck", help="finite-difference gradient check",
        description="Checks tape gradients against central differences. The "
                    "defaults are configurations whose gradient entries are "
                    "large enough for the relative-error metric to measure "
                    "correctness rather than finite-difference noise; odd "
                    "seed/size combinations can report noise-driven errors "
                    "around 1e-5 for entries near the 1e-8 floor.")
    p.add_argument("--cell", default="clstm",
                   choices=["rnn", "lstm", "cifg", "clstm", "cbow"])
    p.add_argument("--d", type=int, default=5)
    p.add_argument("--H", type=int, default=6)
    p.add_argument("--K", type=int, default=2)
    p.add_argument("--T", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--weight-decay", type=float, default=0.001,
                   help="L2 strength for the cbow pipeline check")
    p.add_argument("--masked", action="store_true",
                   help="include variable-length padding in the check")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("sweep", help="train across memory-group counts")
    p.add_argument("config", help="path to the run config (kind must be clstm)")
    p.add_argument("--k", required=True, help="comma-separated group counts, e.g. 1,2,3")
    p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("synth", help="generate the synthetic needle corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--n-docs", type=int, default=2000)
    p.add_argument("--length", type=int, default=200)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--noise-vocab", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("convert", help="import a delimited corpus")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--field-sep", default="\\t\\t",
                   help=r"field separator; \t stands for a tab")
    p.add_argument("--label-index", type=int, required=True)
    p.add_argument("--text-index", type=int, required=True)
    p.add_argument("--label-offset", type=int, default=0,
                   help="added to each label (use -1 for 1-based ratings)")
    p.add_argument("--classes", type=int)
    p.set_defaults(func=cmd_convert)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through.
        return int(exc.code or 0)
    try:
        return args.func(args)
    except TrainingDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ConfigError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
