"""Training loop: cross-entropy objective with L2, Adagrad updates, a
deterministic epoch driver that snapshots the best-on-dev parameters, and
the memory-group sweep that trains one model per group count.

The objective over a batch of m documents is

    J = -(1/m) * sum_i log p_i[gold_i]  +  (lambda/2) * sum ||theta||^2

The cross-entropy is one tape node (``objective``).  The L2 term is not on
the tape: ``apply_weight_decay`` adds it to the loss before ``backward``,
and its gradient lambda*theta to the tape's gradients after, so it is
applied in the update.  Its sum runs over every weight; for the embedding
matrix only the rows the batch actually touched are penalized, so
untouched rows are not dragged toward zero by documents that never
mention them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import RowSparse, Tape, Var, backward, record
from .data import EmbeddingMatrix, make_batches
from .evaluation import SweepEntry, SweepReport, evaluate
from .model import DocModel, ModelConfig, build_model

PROB_FLOOR = 1e-12  # probabilities are floored before the log
ADAGRAD_EPS = 1e-6


class TrainingDiverged(RuntimeError):
    """Raised when the objective stops being finite, or a step overflows."""


@dataclass
class TrainConfig:
    """Optimization settings.

    target_dev_acc, when set, stops training early once the dev accuracy
    reaches it; the epoch log still records every epoch that ran.
    """

    learning_rate: float = 0.01
    weight_decay: float = 0.0
    batch_size: int = 32
    max_epochs: int = 10
    seed: int = 0
    gradient_clip_norm: float | None = None
    sort_bucket: bool = False
    target_dev_acc: float | None = None

    def __post_init__(self):
        # NaN fails every comparison below, so non-finite values are caught first.
        for name in ("learning_rate", "weight_decay", "gradient_clip_norm", "target_dev_acc"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 0:
            raise ValueError(f"max_epochs must be >= 0, got {self.max_epochs}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.gradient_clip_norm is not None and self.gradient_clip_norm <= 0:
            raise ValueError("gradient_clip_norm must be positive when set")


def objective(probs: Var, gold: np.ndarray) -> Var:
    """Mean negative log probability of the gold classes, as one tape node.

    gold holds 0-based class indices, one per row of probs.  Probabilities
    are floored at PROB_FLOOR inside the log so a saturated softmax cannot
    produce an infinite loss; a floored probability gets a zero gradient.
    """
    m, n_classes = probs.shape
    gold = np.asarray(gold)
    if gold.shape != (m,):
        raise ValueError(f"gold must have shape ({m},), got {gold.shape}")
    if gold.min() < 0 or gold.max() >= n_classes:
        raise ValueError(
            f"gold labels must lie in 0..{n_classes - 1}, got range "
            f"[{gold.min()}, {gold.max()}]"
        )
    rows = np.arange(m)
    picked = probs.value[rows, gold].reshape(m, 1)
    clipped = np.maximum(picked, PROB_FLOOR)
    scale = -1.0 / m

    def vjp(g):
        d_probs = np.zeros((m, n_classes))
        d_probs[rows, gold] = np.where(picked > PROB_FLOOR, g[0, 0] * scale / clipped, 0.0)[:, 0]
        return (d_probs,)

    return record(np.log(clipped).sum().reshape(1, 1) * scale, [probs], vjp)


def apply_weight_decay(loss: float, tensors: dict, decay: float, rows=None) -> tuple:
    """Add the L2 term (decay/2)·Σθ² over ``tensors`` to a batch's loss.

    Returns the penalised loss and a function that, after ``backward``,
    adds the term's gradient decay·θ to each tensor's entry of a name ->
    gradient table.  With ``rows`` (sorted unique ids) the embedding decays
    only there: its term is Σθ[rows]², summed last, and its gradient
    ``RowSparse(rows, decay·θ[rows])``, listed before the batch's own rows.
    """
    dense = {name: t for name, t in tensors.items() if rows is None or name != "embedding"}
    parts = list(dense.values())
    sparse = rows is not None and "embedding" in tensors
    if sparse:
        parts.append(tensors["embedding"][rows])
    penalty = sum(((t * t).sum(keepdims=True) for t in parts), np.zeros((1, 1)))
    value = loss + penalty * (decay / 2.0)

    def add_gradient(grads: dict) -> None:
        for name, t in dense.items():
            grads[name] = decay * t + grads[name]
        if sparse:
            emb = tensors["embedding"]
            grads["embedding"] = RowSparse(rows, decay * emb[rows], emb.shape) + grads["embedding"]

    return float(value[0, 0]), add_gradient


def adagrad_update(theta: np.ndarray, grad: np.ndarray, acc: np.ndarray,
                   lr: float) -> None:
    """One in-place Adagrad step: acc += g*g; theta -= lr * g / (sqrt(acc) + ADAGRAD_EPS)."""
    acc += grad * grad
    theta -= lr * grad / (np.sqrt(acc) + ADAGRAD_EPS)


class AdagradState:
    """Per-tensor squared-gradient accumulators, created lazily."""

    def __init__(self):
        self.accumulators: dict[str, np.ndarray] = {}

    def update(self, name: str, theta: np.ndarray, grad, lr: float) -> None:
        """One Adagrad step on theta.

        A ``RowSparse`` grad updates only the rows it names, in theta and in
        the accumulator.  That is exact: a zero gradient leaves both as they
        are (Duchi, Hazan & Singer 2011).
        """
        acc = self.accumulators.get(name)
        if acc is None:
            acc = np.zeros_like(theta)
            self.accumulators[name] = acc
        if isinstance(grad, RowSparse):
            grad = grad.coalesce()
            ids = grad.ids
            rows_theta, rows_acc = theta[ids], acc[ids]
            adagrad_update(rows_theta, grad.rows, rows_acc, lr)
            theta[ids] = rows_theta
            acc[ids] = rows_acc
        else:
            adagrad_update(theta, grad, acc, lr)


def _clip_grads(named_grads: dict, clip_norm: float) -> dict:
    coalesced = {name: g.coalesce() if isinstance(g, RowSparse) else g
                 for name, g in named_grads.items()}
    total = 0.0
    for g in coalesced.values():
        values = g.rows if isinstance(g, RowSparse) else g
        total += float((values * values).sum())
    norm = np.sqrt(total)
    if norm <= clip_norm or norm == 0.0:
        return coalesced
    scale = clip_norm / norm
    # Scale into new arrays; the originals may be views into tape buffers.
    return {name: g * scale for name, g in coalesced.items()}


def _train_step(model: DocModel, batch, index: int, cfg: TrainConfig,
                opt: AdagradState) -> float:
    """Forward, backward and update on one batch; returns its objective.

    Its locals hold the batch's tape and gradients, so they are freed when
    it returns, before the next batch's forward pass.
    """
    tape = Tape()
    tensors = model.named_tensors()
    probs, leaves = model.forward_batch(tape, batch)
    if not model.embedding.trainable:
        del leaves["embedding"]
    loss = objective(probs, batch.labels)
    value = float(loss.value[0, 0])
    if cfg.weight_decay > 0.0:
        value, add_decay = apply_weight_decay(value, {name: tensors[name] for name in leaves},
                                              cfg.weight_decay, np.unique(batch.ids))
    if not np.isfinite(value):
        raise TrainingDiverged(f"non-finite objective ({value}) at batch {index}")
    grads = backward(tape, loss)
    named_grads = {name: grads[v.nid] for name, v in leaves.items()}
    if cfg.weight_decay > 0.0:
        add_decay(named_grads)
    if cfg.gradient_clip_norm is not None:
        named_grads = _clip_grads(named_grads, cfg.gradient_clip_norm)
    for name, grad in named_grads.items():
        opt.update(name, tensors[name], grad, cfg.learning_rate)
    return value


def train_epoch(model: DocModel, batches: list, cfg: TrainConfig,
                opt: AdagradState) -> float:
    """One pass over the batches; returns the mean batch objective.

    Aborts with TrainingDiverged (naming the batch) if the loss is ever
    NaN or infinite, or if a step overflows or makes a NaN on the way,
    leaving the parameters as they were at that point.
    """
    if not batches:
        raise ValueError("train_epoch: no batches")
    losses = []
    for index, batch in enumerate(batches):
        try:
            with np.errstate(over="raise", invalid="raise"):
                losses.append(_train_step(model, batch, index, cfg, opt))
        except FloatingPointError as exc:
            raise TrainingDiverged(f"non-finite objective at batch {index}: {exc}") from None
    return float(np.mean(losses))


@dataclass
class EpochStats:
    """One row of the convergence log."""

    epoch: int
    train_loss: float
    dev_acc: float
    dev_mse: float
    seconds: float


@dataclass
class TrainReport:
    """Full training outcome: per-epoch stats and the best-on-dev snapshot."""

    epochs: list
    best_epoch: int
    best_dev_acc: float
    best_dev_mse: float
    best_tensors: dict = field(repr=False)


def _snapshot(model: DocModel) -> dict:
    return {name: t.copy() for name, t in model.named_tensors().items()}


def _dev_metrics(model: DocModel, dev_docs: list, batch_size: int):
    try:
        m = evaluate(model, dev_docs, batch_size=batch_size)
    except ValueError as exc:  # the last update broke the weights
        raise TrainingDiverged(f"dev scoring failed: {exc}") from None
    return m.accuracy, m.mse


def fit(model: DocModel, train_docs: list, dev_docs: list,
        cfg: TrainConfig) -> TrainReport:
    """Train with per-epoch reshuffling and keep the best-on-dev weights.

    Batch order in epoch e is drawn from (seed, e), so runs with the same
    seed see identical batch streams.  The model is left holding the best
    snapshot's weights when training ends.  The initial parameters count as
    epoch 0, and accuracy ties keep the earlier epoch, so a run that never
    beats its starting point reports best_epoch 0.
    """
    if not train_docs:
        raise ValueError("fit: no training documents")
    if not dev_docs:
        raise ValueError("fit: no dev documents")
    dev_keys = {(d.label, tuple(d.tokens)) for d in dev_docs}
    if any((d.label, tuple(d.tokens)) in dev_keys for d in train_docs):
        raise ValueError("fit: train and dev sets overlap")
    opt = AdagradState()
    best_acc, best_mse_ = _dev_metrics(model, dev_docs, cfg.batch_size)
    best_epoch = 0
    best_tensors = _snapshot(model)
    epochs = []
    for epoch in range(1, cfg.max_epochs + 1):
        started = time.perf_counter()
        batches = make_batches(
            train_docs, model.vocab, cfg.batch_size,
            seed=np.random.SeedSequence([cfg.seed, epoch]),
            shuffle=True, sort_bucket=cfg.sort_bucket,
        )
        train_loss = train_epoch(model, batches, cfg, opt)
        dev_acc, dev_mse = _dev_metrics(model, dev_docs, cfg.batch_size)
        seconds = time.perf_counter() - started
        epochs.append(EpochStats(epoch=epoch, train_loss=train_loss,
                                 dev_acc=dev_acc, dev_mse=dev_mse,
                                 seconds=seconds))
        if dev_acc > best_acc:
            best_acc, best_mse_, best_epoch = dev_acc, dev_mse, epoch
            best_tensors = _snapshot(model)
        if cfg.target_dev_acc is not None and dev_acc >= cfg.target_dev_acc:
            break
    model.set_named_tensors(best_tensors)
    return TrainReport(epochs=epochs, best_epoch=best_epoch,
                       best_dev_acc=best_acc, best_dev_mse=best_mse_,
                       best_tensors=best_tensors)


def group_sweep(base_config: ModelConfig, k_values: list, train_docs: list,
                dev_docs: list, train_cfg: TrainConfig, vocab,
                embedding=None) -> SweepReport:
    """Train one model per group count K, holding everything else fixed.

    K values that do not divide H are reported in ``skipped`` rather than
    raising, so a sweep over 1..K_max degrades gracefully.  Each run starts
    from the same seed; only K differs.
    """
    if base_config.kind != "clstm":
        raise ValueError(f"group sweep needs a clstm config, got {base_config.kind!r}")
    entries, skipped = [], []
    for k in k_values:
        if k < 1:
            skipped.append((k, "group count must be >= 1"))
            continue
        if base_config.H % k != 0:
            skipped.append((k, f"H={base_config.H} not divisible by {k}"))
            continue
        cfg_k = replace(base_config, K=k)
        emb_k = None
        if embedding is not None:
            # Each run trains its own copy; the caller's matrix stays put.
            emb_k = EmbeddingMatrix(vectors=embedding.vectors.copy(),
                                    trainable=embedding.trainable)
        model = build_model(cfg_k, vocab, seed=train_cfg.seed, embedding=emb_k)
        report = fit(model, train_docs, dev_docs, train_cfg)
        entries.append(SweepEntry(
            n_groups=k,
            best_dev_acc=report.best_dev_acc,
            best_dev_mse=report.best_dev_mse,
            best_epoch=report.best_epoch,
        ))
    return SweepReport(entries=tuple(entries), skipped=tuple(skipped))
