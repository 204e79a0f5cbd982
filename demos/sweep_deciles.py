"""Sweep the group count, then slice accuracy by document length.

The group count K is the model's main knob: more groups mean a wider
spread of forgetting speeds but narrower groups at a fixed hidden size.
This script trains the same corpus at several K, prints the sweep table,
and then breaks the best model's accuracy down by document-length decile,
the view that shows where long documents start to hurt.

The corpus here is needle-style with variable lengths: one cue token in
the first tenth of each document decides the label, and documents run
from 12 to 160 tokens, so the top deciles make the model carry the cue
ten times farther than the bottom ones.  The encoder reads forward only,
which is exactly the setting where a single bucket of fast-forgetting
memory falls apart and grouped memory does not.
"""

import numpy as np

from cachedlstm.data import Document, build_vocab
from cachedlstm.evaluation import length_decile_report
from cachedlstm.model import ModelConfig, build_model
from cachedlstm.training import TrainConfig, fit, group_sweep


def variable_needle(n_docs=440, n_classes=2, seed=21):
    rng = np.random.default_rng(seed)
    docs = []
    for i in range(n_docs):
        label = i % n_classes
        length = int(rng.integers(12, 161))
        tokens = [f"w{int(j)}" for j in rng.integers(0, 200, size=length)]
        tokens[int(rng.integers(0, max(1, length // 10)))] = f"cue{label}"
        docs.append(Document(label=label, tokens=tokens))
    n_dev = n_docs // 10
    return docs[n_dev:], docs[:n_dev]


def main():
    train_docs, dev_docs = variable_needle()
    vocab = build_vocab(train_docs)
    base = ModelConfig(kind="clstm", d=16, H=24, K=2, C=2)
    cfg = TrainConfig(learning_rate=0.01, weight_decay=0.0, batch_size=32,
                      max_epochs=4, seed=0)

    print(f"sweeping K on {len(train_docs)} variable-length needle "
          f"documents (4 epochs each, forward-only encoder)")
    report = group_sweep(base, [1, 2, 3, 4], train_docs, dev_docs, cfg,
                         vocab=vocab)
    print(report.to_csv())
    for k, reason in report.skipped:
        print(f"skipped K={k}: {reason}")

    best = max(report.entries, key=lambda e: e.best_dev_acc)
    print(f"retraining the K={best.n_groups} model for the decile view")
    model = build_model(
        ModelConfig(kind="clstm", d=16, H=24, K=best.n_groups, C=2),
        vocab, seed=0)
    fit(model, train_docs, dev_docs, cfg)
    lengths = np.array([d.length for d in dev_docs])
    print(f"dev lengths {lengths.min()}..{lengths.max()}")
    print(length_decile_report(model, dev_docs).to_csv())
    print("short documents stay easy; the longest decile is where the")
    print("cue has to survive the most steps, and accuracy drops there")


if __name__ == "__main__":
    main()
