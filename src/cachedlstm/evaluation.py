"""Metrics and reports: accuracy, rating MSE, convergence logs, accuracy by
document-length decile, and the memory-group sweep's report.

All report formats are plain CSV with floats written via repr, which round
trips exactly through float(), so re-parsing a log reproduces the numbers
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DocModel


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    mse: float
    n: int


def accuracy(preds, gold) -> float:
    """Fraction of exact matches."""
    preds = np.asarray(preds)
    gold = np.asarray(gold)
    if preds.shape != gold.shape:
        raise ValueError(f"shape mismatch: {preds.shape} vs {gold.shape}")
    if preds.size == 0:
        raise ValueError("accuracy of an empty prediction list")
    return float(np.mean(preds == gold))


def mse(preds, gold) -> float:
    """Mean squared error between predicted and gold ratings.

    Works on 0-based class indices: the squared difference is the same
    whether both sides are indices or both are 1-based ratings, since the
    offset cancels.
    """
    preds = np.asarray(preds, dtype=np.float64)
    gold = np.asarray(gold, dtype=np.float64)
    if preds.shape != gold.shape:
        raise ValueError(f"shape mismatch: {preds.shape} vs {gold.shape}")
    if preds.size == 0:
        raise ValueError("mse of an empty prediction list")
    return float(np.mean((preds - gold) ** 2))


def metrics_from(preds: np.ndarray, docs: list) -> Metrics:
    """Accuracy and MSE of predictions, one per document in the same order."""
    if not docs:
        raise ValueError("evaluate: no documents")
    gold = np.array([d.label for d in docs])
    return Metrics(accuracy=accuracy(preds, gold), mse=mse(preds, gold), n=len(docs))


def evaluate(model: DocModel, docs: list, batch_size: int = 64) -> Metrics:
    """Accuracy and MSE of the model over the documents."""
    return metrics_from(model.predict(docs, batch_size=batch_size), docs)


def _fmt(x: float) -> str:
    return repr(float(x))


EPOCH_LOG_HEADER = "epoch,train_loss,dev_acc,dev_mse,seconds"


def convergence_log(report) -> str:
    """Per-epoch CSV: epoch,train_loss,dev_acc,dev_mse,seconds."""
    lines = [EPOCH_LOG_HEADER]
    for e in report.epochs:
        lines.append(
            f"{e.epoch},{_fmt(e.train_loss)},{_fmt(e.dev_acc)},"
            f"{_fmt(e.dev_mse)},{_fmt(e.seconds)}"
        )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class DecileBucket:
    decile: int  # 1-based, 1 holds the shortest documents
    min_len: int
    max_len: int
    n: int
    accuracy: float


@dataclass(frozen=True)
class DecileReport:
    buckets: tuple

    def to_csv(self) -> str:
        lines = ["decile,min_len,max_len,n,accuracy"]
        for b in self.buckets:
            lines.append(f"{b.decile},{b.min_len},{b.max_len},{b.n},{_fmt(b.accuracy)}")
        return "\n".join(lines) + "\n"


def length_deciles(lengths: np.ndarray) -> list:
    """Split sorted positions into 10 buckets whose sizes differ by at most 1.

    The first n % 10 buckets get the extra document each.  Returns a list of
    10 index arrays into the sorted-by-length order.
    """
    n = len(lengths)
    if n < 10:
        raise ValueError(f"need at least 10 documents for deciles, got {n}")
    return np.array_split(np.argsort(lengths, kind="stable"), 10)


def deciles_from(preds: np.ndarray, docs: list) -> DecileReport:
    """Accuracy per document-length decile, shortest documents first.

    preds holds one prediction per document, in the documents' order.
    """
    lengths = np.array([d.length for d in docs])
    buckets = length_deciles(lengths)
    gold = np.array([d.label for d in docs])
    rows = []
    for i, idx in enumerate(buckets, start=1):
        rows.append(DecileBucket(
            decile=i,
            min_len=int(lengths[idx].min()),
            max_len=int(lengths[idx].max()),
            n=len(idx),
            accuracy=accuracy(preds[idx], gold[idx]),
        ))
    return DecileReport(buckets=tuple(rows))


def length_decile_report(model: DocModel, docs: list,
                         batch_size: int = 64) -> DecileReport:
    """Accuracy per document-length decile, shortest documents first."""
    return deciles_from(model.predict(docs, batch_size=batch_size), docs)


@dataclass(frozen=True)
class SweepEntry:
    n_groups: int
    best_dev_acc: float
    best_dev_mse: float
    best_epoch: int


@dataclass(frozen=True)
class SweepReport:
    entries: tuple
    skipped: tuple  # (n_groups, reason) pairs

    def to_csv(self) -> str:
        lines = ["k,best_dev_acc,best_dev_mse,best_epoch"]
        for e in self.entries:
            lines.append(
                f"{e.n_groups},{_fmt(e.best_dev_acc)},{_fmt(e.best_dev_mse)},{e.best_epoch}"
            )
        return "\n".join(lines) + "\n"
