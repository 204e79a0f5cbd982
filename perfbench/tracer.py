"""Span tracing around the public calls of each cachedlstm layer.

A ``Tracer`` replaces library functions, in the module namespaces where the
library looks them up, with wrappers that record one span per call: name,
start, end, parent span and the batch the call worked on.  Spans stay in
memory until the run ends.  Nothing here changes what the library computes;
the wrappers are removed when ``installed()`` exits.

Batch ids: every ``Batch`` returned by ``pad_batch`` gets the next id.  A
span takes the id of the ``Batch`` (or one-element list of batches) among
its arguments or of the ``Batch`` it returns, and otherwise its parent's id,
so the cell steps, objective, backward pass and optimizer updates of one
training step all carry the id of the batch they processed.
"""

from __future__ import annotations

import contextlib
import functools
import time

from cachedlstm import data, encoder, evaluation, model, serialize, training
from cachedlstm.data import Batch

# (namespace, attribute, span name).  A function imported into several
# modules is patched in each namespace that the traced code paths use.
TRACE_POINTS = (
    (data, "read_corpus", "data.read_corpus"),
    (data, "build_vocab", "data.build_vocab"),
    (data, "make_batches", "data.make_batches"),
    (data, "pad_batch", "data.pad_batch"),
    (model, "pad_batch", "data.pad_batch"),
    (model, "build_model", "model.build"),
    (model.DocModel, "forward_batch", "model.forward"),
    (model, "take_rows", "model.embed_gather"),
    (model, "classify", "model.classify"),
    (model, "encode_forward", "encoder.encode"),
    (model, "encode_bidirectional", "encoder.encode"),
    (encoder, "lstm_step", "cells.lstm_step"),
    (encoder, "clstm_step", "cells.clstm_step"),
    (training, "train_epoch", "training.train_epoch"),
    (training, "objective", "training.objective"),
    (training, "backward", "autodiff.backward"),
    (training.AdagradState, "update", "training.optimizer"),
    (evaluation, "evaluate", "evaluation.evaluate"),
    (evaluation, "length_decile_report", "evaluation.decile_report"),
    (serialize, "load_model", "serialize.load_model"),
)


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self):
        # Closed spans as (id, name, start_ns, end_ns, parent_id, batch_id).
        self.spans: list[tuple] = []
        # Forward-pass counters: tape nodes recorded and batch rows scored.
        self.tape_nodes = 0
        self.forward_rows = 0
        self._stack: list[list] = []
        self._next_span = 0
        self._next_batch = 0
        self._batch_ids: dict[int, int] = {}

    # -- span bookkeeping -------------------------------------------------

    def _batch_of(self, obj):
        if isinstance(obj, list) and len(obj) == 1:
            obj = obj[0]
        if isinstance(obj, Batch):
            return self._batch_ids.get(id(obj))
        return None

    def _open(self, name: str, batch) -> list:
        parent = self._stack[-1] if self._stack else None
        if batch is None and parent is not None:
            batch = parent[4]
        entry = [self._next_span, name, time.perf_counter_ns(),
                 parent[0] if parent else None, batch]
        self._next_span += 1
        self._stack.append(entry)
        return entry

    def _close(self, entry: list, result=None) -> None:
        end = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped is not entry:
            raise RuntimeError(f"span {entry[1]} closed out of order")
        if isinstance(result, Batch):
            self._batch_ids[id(result)] = self._next_batch
            entry[4] = self._next_batch
            self._next_batch += 1
        sid, name, start, parent, batch = entry
        self.spans.append((sid, name, start, end, parent, batch))

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        entry = self._open(name, None)
        try:
            yield
        finally:
            self._close(entry)

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            batch = None
            for a in args:
                batch = tracer._batch_of(a)
                if batch is not None:
                    break
            entry = tracer._open(name, batch)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._close(entry, result)

        return traced

    def _wrap_forward(self, fn):
        traced = self._wrap(fn, "model.forward")
        tracer = self

        @functools.wraps(fn)
        def counted(doc_model, tape, batch):
            before = len(tape)
            out = traced(doc_model, tape, batch)
            tracer.tape_nodes += len(tape) - before
            tracer.forward_rows += batch.size
            return out

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Patch every trace point for the duration of the block."""
        saved = []
        try:
            for owner, attr, name in TRACE_POINTS:
                fn = owner.__dict__[attr]
                saved.append((owner, attr, fn))
                if name == "model.forward":
                    wrapped = self._wrap_forward(fn)
                else:
                    wrapped = self._wrap(fn, name)
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    # -- analysis -----------------------------------------------------------

    def span_dicts(self) -> list:
        return [
            {"id": sid, "name": name, "start_ns": start, "end_ns": end,
             "parent": parent, "batch": batch}
            for sid, name, start, end, parent, batch in self.spans
        ]


def layer_totals(spans: list) -> dict:
    """Per span name: call count, total seconds and self seconds.

    Self time is a span's duration minus the time its direct children
    cover.  Children of one span never overlap (the program is single
    threaded), so that is the sum of the children's durations.
    """
    child_ns: dict[int, int] = {}
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    out: dict[str, dict] = {}
    for sid, name, start, end, _, _ in spans:
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += (end - start) * 1e-9
        row["self_s"] += (end - start - child_ns.get(sid, 0)) * 1e-9
    return out
