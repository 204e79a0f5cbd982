"""Benchmark of the cachedlstm library: seeded workloads, one result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload review_train --seed 1 --seconds 30 --trace 0

The benchmark imports the library from ``src/`` of the checkout, pins BLAS
and OpenMP to one thread before numpy is imported, generates the
workload's inputs from the seed, and runs the workload's job in a closed
loop for the given number of seconds.  With ``--trace 0`` it reports the
end-to-end metrics listed in BENCHMARK.json, with ``--trace 1`` the
per-layer metrics from a traced run.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A fuller record (environment, input facts, every repetition
and, when traced, every span) is written under ``perfbench/out/``.

Exit codes: 0 correct result, 1 result printed but some operation failed,
2 cannot run here (no library sources, numpy imported before the pin).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_SETUPS = 5  # setup_s is the median of at least this many set-ups
SETUPS_PER_REP = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("needle_train", "review_train", "review_eval"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measuring time; at least one repetition always runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs and models, for the benchmark's own tests")
    p.add_argument("--out", default=str(HERE / "out"),
                   help="directory for the result record and scratch files")
    return p.parse_args(argv)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_desc = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas_desc = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_desc,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
    }


def traced_loop(wl, st, seconds, tally, tracer):
    """Alternate untraced and traced repetitions until the time is up.

    Each traced repetition yields its spans and forward counters.
    """
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        untraced.append(wl.rep(st, tally))
        mark = (len(tracer.spans), tracer.tape_nodes, tracer.forward_rows)
        with tracer.installed(), tracer.span("bench.job"):
            rep = wl.rep(st, tally)
        traced.append((rep, tracer.spans[mark[0]:], tracer.tape_nodes - mark[1],
                       tracer.forward_rows - mark[2]))
    return untraced, traced


def end_to_end(wl, seconds, tally):
    """Closed-loop throughput is work done over the whole measuring window.

    One untimed repetition runs first: a process pays for first-touch page
    faults once, not on every batch, and they made the first repetition
    30-50% slower.

    The machine's speed moves between phases up to 1.6x apart that last
    seconds.  The window total follows that drift more smoothly than a
    median of repetitions, which jumps between phases; for the same reason
    set-ups are timed between repetitions, SETUPS_PER_REP at a time, so
    that setup_s samples the same mix of phases.
    """
    from workloads import fresh_heap, median

    record = {"inputs": wl.prepare()}
    setup_s = []

    def timed_setup():
        fresh_heap()
        started = time.perf_counter()
        state = wl.setup()
        setup_s.append(time.perf_counter() - started)
        return state

    st = timed_setup()
    wl.ready(st)
    record["warmup_s"] = wl.rep(st, tally).seconds
    # Before the time-bounded loop, so that the peak's history (and with it
    # what Python's free lists hide from tracemalloc) depends on the seed only.
    peak, positions = wl.peak(st)
    reps = []
    deadline = time.perf_counter() + seconds
    while not reps or time.perf_counter() < deadline:
        reps.append(wl.rep(st, tally))
        for _ in range(SETUPS_PER_REP):
            timed_setup()
    while len(setup_s) < MIN_SETUPS:
        timed_setup()
    loss = wl.loss_mean(st, tally)
    record["inputs"].update(wl.facts(st))
    record["setup_s"] = setup_s
    record["reps"] = [vars(r) for r in reps]
    record["peak"] = {"bytes": peak, "positions": positions}
    metrics = {
        "setup_s": median(setup_s),
        "tokens_per_s": sum(r.tokens for r in reps) / sum(r.seconds for r in reps),
        "docs_per_s": sum(r.docs for r in reps) / sum(r.seconds for r in reps),
        "loss_mean": loss,
        "peak_bytes_per_token": peak / positions,
    }
    return metrics, record


def per_layer(wl, seconds, tally):
    from tracer import Tracer, layer_totals
    from workloads import median

    record = {"inputs": wl.prepare()}
    tracer = Tracer()
    with tracer.installed(), tracer.span("bench.setup"):
        st = wl.setup()
    setup = layer_totals(tracer.spans)
    wl.ready(st)
    record["warmup_s"] = wl.rep(st, tally).seconds
    untraced, traced = traced_loop(wl, st, seconds, tally, tracer)
    wl.loss_mean(st, tally)
    facts = wl.facts(st)
    record["inputs"].update(facts)

    def total(rows, name):
        return rows.get(name, {}).get("total_s", 0.0)

    def self_s(rows, name):
        return rows.get(name, {}).get("self_s", 0.0)

    def calls(rows, name):
        return rows.get(name, {}).get("calls", 0)

    jobs = []
    for rep, spans, nodes, rows_scored in traced:
        job = layer_totals(spans)
        steps = sum(r["calls"] for n, r in job.items() if n.startswith("cells."))
        jobs.append({
            "data.make_batches_s": total(job, "data.make_batches"),
            "data.pad_batch_s": total(job, "data.pad_batch"),
            "model.embed_gather_s": total(job, "model.embed_gather"),
            "model.embed_gather_calls": calls(job, "model.embed_gather"),
            "model.classify_s": total(job, "model.classify"),
            "model.forward_self_s": self_s(job, "model.forward"),
            "encoder.encode_self_s": self_s(job, "encoder.encode"),
            "encoder.cell_steps": steps,
            "cells.clstm_step_s": total(job, "cells.clstm_step"),
            "cells.lstm_step_s": total(job, "cells.lstm_step"),
            "autodiff.tape_nodes_per_cell_step": nodes / steps if steps else 0.0,
            "autodiff.backward_s": total(job, "autodiff.backward"),
            "training.step_self_s": self_s(job, "training.train_epoch"),
            "training.objective_s": total(job, "training.objective"),
            "training.optimizer_s": total(job, "training.optimizer"),
            "evaluation.forward_passes_per_doc": rows_scored / rep.docs,
            "evaluation.evaluate_s": total(job, "evaluation.evaluate"),
            "evaluation.decile_report_s": total(job, "evaluation.decile_report"),
            "job_s": rep.seconds,
        })
    metrics = {
        "data.read_corpus_s": total(setup, "data.read_corpus"),
        "data.build_vocab_s": total(setup, "data.build_vocab"),
        "data.pad_fraction": facts["pad_fraction"],
        "model.build_s": total(setup, "model.build"),
        "training.rows_touched_fraction": facts["rows_touched_fraction"],
        "serialize.load_model_s": total(setup, "serialize.load_model"),
        "trace.overhead_ratio": (sum(j["job_s"] for j in jobs)
                                 / sum(r.seconds for r in untraced)),
    }
    for key in jobs[0]:
        if key != "job_s":
            metrics[key] = median([j[key] for j in jobs])
    record["untraced_s"] = [r.seconds for r in untraced]
    record["traced"] = jobs
    record["layers"] = {"setup": setup, "last_job": layer_totals(traced[-1][1])}
    record["spans"] = tracer.span_dicts()
    return metrics, record


def finite_or_none(x):
    x = float(x)
    return x if math.isfinite(x) else None


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "cachedlstm" / "__init__.py").is_file():
        return fail(f"no library sources at {src / 'cachedlstm'}")
    bench_path = ROOT / "BENCHMARK.json"
    if not bench_path.is_file():
        return fail(f"missing {bench_path}")
    if "numpy" in sys.modules:
        return fail("numpy was imported before the BLAS thread pin; refusing to run")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import cachedlstm

    if Path(cachedlstm.__file__).resolve().parent != (src / "cachedlstm").resolve():
        return fail(f"imported cachedlstm from {cachedlstm.__file__}, not {src}")
    import workloads

    spec = json.loads(bench_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    tally = workloads.Tally()
    with tempfile.TemporaryDirectory(prefix="work-", dir=out_dir) as workdir:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir, tiny=args.tiny)
        measure = per_layer if args.trace else end_to_end
        metrics, record = measure(wl, args.seconds, tally)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not "
                           "match BENCHMARK.json")

    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, tiny=args.tiny, environment=environment(),
                  attempted=tally.attempted, failed=tally.failed,
                  failed_fraction=tally.failed / max(tally.attempted, 1),
                  errors=tally.errors,
                  metrics={k: {"value": finite_or_none(metrics[k]), "unit": u}
                           for k, u in units.items()})
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    env, inputs = record["environment"], record["inputs"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"environment: python {env['python']}, numpy {env['numpy']}, "
          f"{env['blas']}, nproc {env['nproc']}, cpu {env['cpu']}, "
          + ", ".join(f"{k}={v}" for k, v in env["threads"].items()))
    print("inputs: " + ", ".join(f"{k}={v}" for k, v in inputs.items()))
    for name, m in record["metrics"].items():
        print(f"  {name:36s} {m['value']!r:>24} {m['unit']}")
    print(f"failed_fraction: {tally.failed}/{tally.attempted} = "
          f"{record['failed_fraction']}")
    for err in tally.errors:
        print(f"failure: {err}")
    print(f"record: {out_dir / (stem + '.json')}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": record["metrics"]}))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
