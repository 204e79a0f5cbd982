"""The benchmark's workloads: seeded inputs, set-up, the timed job, checks.

Every workload is an offline batch job run as a closed loop: ``rep`` runs
the whole job once (the next repetition starts only when the previous one
has finished) and the runner repeats it for the measuring time.  Each
repetition starts from the same weights and optimizer state, so its
losses and predictions must repeat exactly; a difference is counted as a
failed operation.  The library is driven only through its public calls,
looked up on the submodules at call time so that ``tracer.Tracer`` can
wrap them.

Workloads (the reasons are also recorded in BENCHMARK.json):

* ``needle_train``: criterion 6's two models (bidirectional clstm and
  unidirectional lstm, d=20, H=30) on ``synth_needle`` documents of one
  length.  Small GEMMs, so time goes to per-op Python and tape overhead;
  no padding; a tiny vocabulary.
* ``review_train``: the preset shape (bidirectional clstm, d=50, H=120,
  K=3, C=10, B=128, weight decay, sort_bucket) on a review-like corpus
  with a Zipf vocabulary of tens of thousands of tokens and lognormal
  lengths.  Big GEMMs, the mask path and a dense V x d embedding gradient.
* ``review_eval``: what ``cachedlstm eval`` does: ``load_model``, then
  ``evaluate`` and ``length_decile_report`` on held-out review-like
  documents at batch size 64.  Forward passes only.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import statistics
import time
import tracemalloc
import traceback
from dataclasses import dataclass

import numpy as np

from cachedlstm import data, evaluation, model, serialize, training
from cachedlstm.autodiff import Tape

MAX_ERRORS_KEPT = 5
SINGLE_DOC_TOLERANCE = 1e-9  # batched vs one-doc probabilities


class Tally:
    """Operations attempted and failed.  A failure is counted, never raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _fail(self, what: str, detail: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS_KEPT:
            self.errors.append(f"{what}: {detail}")

    def call(self, what: str, fn, *args):
        """fn(*args), or None when it raises."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # counted as a failed operation; the run goes on
            self._fail(what, traceback.format_exc(limit=2).strip())
            return None

    def check(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self._fail(what, detail or "check failed")
        return ok


@dataclass
class Rep:
    """One repetition of a workload's job."""

    seconds: float
    tokens: int  # real (unpadded) tokens processed
    docs: int


def sha256_of(paths: list) -> str:
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def params_finite(doc_model) -> bool:
    return all(np.isfinite(t).all() for t in doc_model.named_tensors().values())


def batch_facts(batches: list, vocab_size: int) -> dict:
    """Padding share and embedding rows touched, over the job's batches."""
    real = sum(int(b.lengths.sum()) for b in batches)
    computed = sum(b.ids.size for b in batches)
    touched = [np.unique(b.ids[b.mask > 0]).size / vocab_size for b in batches]
    return {
        "pad_fraction": 1.0 - real / computed,
        "rows_touched_fraction": float(np.mean(touched)),
        "batches": len(batches),
        "max_steps": max(b.n_steps for b in batches),
    }


def fresh_heap() -> None:
    """Free earlier repetitions' tapes before the next one starts.

    A tape holds a reference cycle (its transpose memo keeps Vars that point
    back at it), so only the cyclic collector frees it; without this, dead
    tapes pile up across repetitions (2.6 GB after three review_train
    repetitions) and the collector's timing adds noise to the timed job.
    """
    gc.collect()


def traced_peak(fn, *args) -> int:
    """tracemalloc peak, in bytes, of the allocations fn(*args) makes."""
    fresh_heap()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# review-like corpus
# ---------------------------------------------------------------------------

_LETTERS = "etaoinsrhldcumfpgwybvkxjqz"


def _word(rank: int) -> str:
    """A letters-only token for a lexicon rank; distinct ranks, distinct words."""
    n = rank + len(_LETTERS)  # at least two letters
    out = []
    while n:
        n, r = divmod(n, len(_LETTERS))
        out.append(_LETTERS[r])
    return "".join(out)


@dataclass(frozen=True)
class ReviewShape:
    """Review-like corpus and the preset model shape trained or scored on it."""

    lexicon: int = 60_000       # Zipf-ranked word types
    zipf_s: float = 1.05
    corpus_docs: int = 5_000    # documents the vocabulary is built from
    # Tape memory is ~55 kB per padded position at this shape, so B=128 x
    # T=100 already takes ~0.7 GB; longer documents do not fit beside other
    # jobs on an 8 GB machine.
    median_len: int = 64
    sigma_len: float = 0.35
    min_len: int = 8
    max_len: int = 100
    cue_rate: float = 0.04      # share of tokens that hint at the label
    job_docs: int = 256         # documents trained per repetition
    eval_docs: int = 128        # held-out documents scored per repetition
    single_checks: int = 6      # held-out documents also scored one by one
    d: int = 50
    H: int = 120
    K: int = 3
    C: int = 10
    train_batch: int = 128
    eval_batch: int = 64
    weight_decay: float = 1e-4


TINY_REVIEW = ReviewShape(lexicon=400, corpus_docs=60, median_len=12, min_len=3,
                          max_len=30, job_docs=16, eval_docs=20, single_checks=2,
                          d=4, H=6, K=3, C=3, train_batch=8, eval_batch=8)


def review_corpus(shape: ReviewShape, n_docs: int, rng) -> list:
    """(label, text) pairs: Zipf tokens, lognormal lengths, label cue words.

    Text is written the way review corpora store it: sentences start with a
    capital and are joined by the "<sssss>" separator that tokenize drops.
    """
    ranks = np.arange(1, shape.lexicon + 1, dtype=np.float64)
    cdf = np.cumsum(ranks ** -shape.zipf_s)
    cdf /= cdf[-1]
    words = [_word(r) for r in range(shape.lexicon)]
    cues = [[_word(shape.lexicon + c * 20 + j) for j in range(20)]
            for c in range(shape.C)]
    lengths = np.clip(
        np.rint(rng.lognormal(math.log(shape.median_len), shape.sigma_len, n_docs)),
        shape.min_len, shape.max_len).astype(np.int64)
    labels = rng.integers(shape.C, size=n_docs)
    total = int(lengths.sum())
    ids = np.searchsorted(cdf, rng.random(total)).tolist()
    is_cue = (rng.random(total) < shape.cue_rate).tolist()
    cue_pick = rng.integers(20, size=total).tolist()
    out, pos = [], 0
    for label, n in zip(labels.tolist(), lengths.tolist()):
        toks = [cues[label][cue_pick[k]] if is_cue[k] else words[ids[k]]
                for k in range(pos, pos + n)]
        pos += n
        sentences, start = [], 0
        while start < n:
            stop = start + int(rng.integers(6, 20))
            sent = toks[start:stop]
            sentences.append(" ".join([sent[0].capitalize()] + sent[1:]))
            start = stop
        out.append((int(label), " <sssss> ".join(sentences)))
    return out


def write_pairs(path: str, pairs: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for label, text in pairs:
            fh.write(f"{label}\t{text}\n")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class TrainWorkload:
    """A training job: make_batches + one train_epoch call per batch.

    Calling train_epoch on one batch at a time runs the same loop body as
    fit's epoch, and lets the benchmark time and trace each step.
    """

    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.first_losses: list | None = None

    # Subclasses set self.corpus_path, self.n_classes, self.model_configs,
    # self.train_config and self.job_index in prepare().

    def setup(self):
        """Timed set-up: read_corpus, build_vocab, build_model per model."""
        docs = data.read_corpus(self.corpus_path, self.n_classes)
        vocab = data.build_vocab(docs)
        models = [model.build_model(cfg, vocab, seed=self.seed)
                  for cfg in self.model_configs]
        return {"docs": docs, "vocab": vocab, "models": models}

    def ready(self, st: dict) -> None:
        """Untimed: pick the job's documents and snapshot the start weights."""
        st["job_docs"] = [st["docs"][i] for i in self.job_index]
        st["initial"] = [{k: v.copy() for k, v in m.named_tensors().items()}
                         for m in st["models"]]
        st["opts"] = []

    def batches(self, st: dict) -> list:
        return data.make_batches(
            st["job_docs"], st["vocab"], self.train_config.batch_size,
            seed=np.random.SeedSequence([self.seed, 1]), shuffle=True,
            sort_bucket=self.train_config.sort_bucket)

    def rep(self, st: dict, tally: Tally) -> Rep:
        for m, snap in zip(st["models"], st["initial"]):
            m.set_named_tensors(snap)
        st["opts"] = [training.AdagradState() for _ in st["models"]]
        losses = []
        fresh_heap()
        started = time.perf_counter()
        for m, opt in zip(st["models"], st["opts"]):
            for b in self.batches(st):
                losses.append(tally.call("train step", training.train_epoch,
                                         m, [b], self.train_config, opt))
        seconds = time.perf_counter() - started
        for m in st["models"]:
            tally.check("parameters finite after training", params_finite(m),
                        f"{m.config.kind} model holds NaN or inf")
        if self.first_losses is None:
            self.first_losses = losses
        else:
            tally.check("losses repeat", losses == self.first_losses,
                        "a repetition from the same start gave other losses")
        n = len(st["models"])
        return Rep(seconds=seconds,
                   tokens=n * sum(d.length for d in st["job_docs"]),
                   docs=n * len(st["job_docs"]))

    def loss_mean(self, st: dict, tally: Tally) -> float:
        """Mean batch objective of the first repetition, in nats."""
        losses = self.first_losses or []
        ok = bool(losses) and all(x is not None and math.isfinite(x) for x in losses)
        tally.check("training losses finite", ok, f"losses: {losses[:4]}")
        return float(np.mean(losses)) if ok else math.nan

    def peak(self, st: dict) -> tuple:
        """Traced peak bytes and padded positions of the longest training step.

        The first model is the largest; its longest batch sets the job's peak.
        """
        m, opt = st["models"][0], st["opts"][0]
        batch = max(self.batches(st), key=lambda b: b.n_steps)
        used = traced_peak(training.train_epoch, m, [batch], self.train_config, opt)
        return used, batch.ids.size

    def facts(self, st: dict) -> dict:
        out = batch_facts(self.batches(st), len(st["vocab"]))
        lengths = [d.length for d in st["job_docs"]]
        out.update(vocab_size=len(st["vocab"]), job_docs=len(lengths),
                   mean_length=float(np.mean(lengths)), max_length=max(lengths))
        return out


class NeedleTrain(TrainWorkload):
    """Criterion 6's two models on uniform-length needle documents."""

    name = "needle_train"

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        super().__init__(seed, workdir)
        if tiny:
            n_docs, length, job, batch, d, hidden = 40, 20, 16, 8, 4, 6
        else:
            n_docs, length, job, batch, d, hidden = 600, 200, 256, 32, 20, 30
        self.n_docs, self.length, self.n_job = n_docs, length, job
        self.n_classes = 3
        self.model_configs = [
            model.ModelConfig(kind="clstm", d=d, H=hidden, K=3, C=3,
                              bidirectional=True),
            model.ModelConfig(kind="lstm", d=d, H=hidden, C=3),
        ]
        self.train_config = training.TrainConfig(
            learning_rate=0.01, weight_decay=0.0, batch_size=batch, seed=seed)

    def prepare(self) -> dict:
        train_docs, _ = data.synth_needle(self.n_docs, self.length, self.n_classes,
                                          seed=self.seed)
        self.corpus_path = os.path.join(self.workdir, "needle.tsv")
        data.write_corpus(self.corpus_path, train_docs)
        # synth_needle shuffles, so the first documents are a seeded sample.
        self.job_index = list(range(self.n_job))
        return {"corpus_sha256": sha256_of([self.corpus_path]),
                "corpus_docs": len(train_docs)}


class ReviewTrain(TrainWorkload):
    """The preset shape trained on a review-like corpus."""

    name = "review_train"

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        super().__init__(seed, workdir)
        self.shape = s = TINY_REVIEW if tiny else ReviewShape()
        self.n_classes = s.C
        self.model_configs = [model.ModelConfig(kind="clstm", d=s.d, H=s.H, K=s.K,
                                                C=s.C, bidirectional=True)]
        self.train_config = training.TrainConfig(
            learning_rate=0.01, weight_decay=s.weight_decay,
            batch_size=s.train_batch, seed=seed, sort_bucket=True)

    def prepare(self) -> dict:
        rng = np.random.default_rng(self.seed)
        s = self.shape
        pairs = review_corpus(s, s.corpus_docs, rng)
        self.corpus_path = os.path.join(self.workdir, "reviews.tsv")
        write_pairs(self.corpus_path, pairs)
        self.job_index = sorted(rng.choice(s.corpus_docs, s.job_docs,
                                           replace=False).tolist())
        return {"corpus_sha256": sha256_of([self.corpus_path]),
                "corpus_docs": s.corpus_docs}


class ReviewEval:
    """load_model, then evaluate and length_decile_report on held-out docs."""

    name = "review_eval"

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.shape = TINY_REVIEW if tiny else ReviewShape()
        self.first_result = None

    def prepare(self) -> dict:
        """Write held-out documents and a seeded preset-shape model file.

        The model's vocabulary comes from a training corpus drawn from the
        same distribution, so held-out documents mix known and unknown
        tokens.  Its weights are the seeded initial ones: scoring cost does
        not depend on the weight values.
        """
        rng = np.random.default_rng(self.seed)
        s = self.shape
        train = review_corpus(s, s.corpus_docs, rng)
        held_out = review_corpus(s, s.eval_docs, rng)
        vocab = data.build_vocab([data.Document(label, data.tokenize(text))
                                  for label, text in train])
        cfg = model.ModelConfig(kind="clstm", d=s.d, H=s.H, K=s.K, C=s.C,
                                bidirectional=True)
        self.model_path = os.path.join(self.workdir, "model.bin")
        serialize.save_model(self.model_path, model.build_model(cfg, vocab,
                                                                seed=self.seed))
        self.corpus_path = os.path.join(self.workdir, "held_out.tsv")
        write_pairs(self.corpus_path, held_out)
        return {"corpus_sha256": sha256_of([self.corpus_path, self.model_path]),
                "corpus_docs": s.eval_docs}

    def setup(self):
        """Timed set-up: read_corpus and load_model."""
        docs = data.read_corpus(self.corpus_path, self.shape.C)
        return {"docs": docs, "model": serialize.load_model(self.model_path)}

    def ready(self, st: dict) -> None:
        """Nothing to pick: the job scores every held-out document."""

    def chunks(self, st: dict) -> list:
        """The batches predict builds: input order, eval batch size."""
        docs, b = st["docs"], self.shape.eval_batch
        return [data.pad_batch(docs[i:i + b], st["model"].vocab)
                for i in range(0, len(docs), b)]

    def rep(self, st: dict, tally: Tally) -> Rep:
        docs, b = st["docs"], self.shape.eval_batch
        fresh_heap()
        started = time.perf_counter()
        metrics = tally.call("evaluate", evaluation.evaluate, st["model"], docs, b)
        report = tally.call("length decile report", evaluation.length_decile_report,
                            st["model"], docs, b)
        seconds = time.perf_counter() - started
        if metrics is not None and report is not None:
            correct = sum(round(k.accuracy * k.n) for k in report.buckets)
            tally.check("decile report agrees with evaluate",
                        metrics.n == len(docs)
                        and correct == round(metrics.accuracy * metrics.n),
                        f"{correct} correct by decile, accuracy {metrics.accuracy}")
            result = (metrics, report)
            if self.first_result is None:
                self.first_result = result
            else:
                tally.check("eval results repeat", result == self.first_result)
        return Rep(seconds=seconds, tokens=sum(d.length for d in docs),
                   docs=len(docs))

    def loss_mean(self, st: dict, tally: Tally) -> float:
        """Held-out cross-entropy of the first batch, in nats.

        Also checks padding neutrality: documents scored alone must get the
        probabilities they got inside the padded batch.
        """
        m, docs = st["model"], st["docs"][:self.shape.eval_batch]
        probs = tally.call("batched forward", lambda: m.forward_batch(
            Tape(), data.pad_batch(docs, m.vocab))[0].value)
        if probs is None or not tally.check("probabilities finite",
                                            bool(np.isfinite(probs).all())):
            return math.nan
        picks = np.linspace(0, len(docs) - 1, self.shape.single_checks).round()
        for i in sorted(set(picks.astype(int).tolist())):
            alone = tally.call("one-document forward", lambda: m.forward_batch(
                Tape(), data.pad_batch([docs[i]], m.vocab))[0].value[0])
            if alone is None:
                continue
            gap = float(np.abs(alone - probs[i]).max())
            tally.check("one document scores as in its batch",
                        gap <= SINGLE_DOC_TOLERANCE
                        and int(alone.argmax()) == int(probs[i].argmax()),
                        f"document {i}: probabilities differ by {gap:.3g}")
        gold = np.array([d.label for d in docs])
        return float(-np.log(probs[np.arange(len(docs)), gold]).mean())

    def peak(self, st: dict) -> tuple:
        batch = max(self.chunks(st), key=lambda b: b.n_steps)
        return traced_peak(st["model"].predict_batch, batch), batch.ids.size

    def facts(self, st: dict) -> dict:
        out = batch_facts(self.chunks(st), len(st["model"].vocab))
        lengths = [d.length for d in st["docs"]]
        out.update(vocab_size=len(st["model"].vocab), job_docs=len(lengths),
                   mean_length=float(np.mean(lengths)), max_length=max(lengths))
        return out


WORKLOADS = {w.name: w for w in (NeedleTrain, ReviewTrain, ReviewEval)}


def median(values: list) -> float:
    return float(statistics.median(values))
