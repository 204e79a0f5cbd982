"""Tests of the benchmark itself, at a tiny size.

Run from the root of the repository:

    python3 -m pytest perfbench

Whole runs go through ``run.py`` in a subprocess, because the runner must
pin BLAS threads before numpy is imported; the failure-counting tests call
the workloads in-process.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the library on sys.path)
from tracer import layer_totals  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(out: Path, workload: str, seed: int, trace: int, cwd=ROOT,
              script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--tiny", "--out", str(out)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """(workload, seed, trace) -> (last stdout line, full record)."""
    out = tmp_path_factory.mktemp("bench")
    done = {}
    keys = [(w, 1, t) for w in NAMES for t in (0, 1)]
    keys += [("review_train", 1, 0), ("review_train", 2, 0)]
    for i, (w, seed, trace) in enumerate(keys):
        run_out = out / str(i)
        last = result_of(run_bench(run_out, w, seed, trace))
        record = json.loads(
            (run_out / f"{w}-seed{seed}-trace{trace}.json").read_text(encoding="utf-8"))
        done.setdefault((w, seed, trace), []).append((last, record))
    return done


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_is_printed_with_its_unit(runs, workload, trace):
    last, _ = runs[(workload, 1, trace)][0]
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(last["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = last["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])
    if not trace:
        assert all(last["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_same_seed_gives_same_inputs_and_deterministic_figures(runs):
    (a_last, a), (b_last, b) = runs[("review_train", 1, 0)]
    assert a["inputs"] == b["inputs"]
    metric = {k: (a_last["metrics"][k]["value"], b_last["metrics"][k]["value"])
              for k in ("loss_mean", "peak_bytes_per_token")}
    assert metric["loss_mean"][0] == metric["loss_mean"][1]
    # String-hash randomisation differs per process and moves the traced
    # peak by a few dozen bytes at most.
    assert metric["peak_bytes_per_token"][0] == pytest.approx(
        metric["peak_bytes_per_token"][1], rel=1e-4)
    other = runs[("review_train", 2, 0)][0][1]
    assert other["inputs"]["corpus_sha256"] != a["inputs"]["corpus_sha256"]
    # Node and step counts are exact: every traced repetition agrees.
    for w in NAMES:
        jobs = runs[(w, 1, 1)][0][1]["traced"]
        for key in ("autodiff.tape_nodes_per_cell_step", "encoder.cell_steps",
                    "model.embed_gather_calls", "evaluation.forward_passes_per_doc"):
            assert len({j[key] for j in jobs}) == 1, key


def test_environment_is_recorded(runs):
    env = runs[("needle_train", 1, 0)][0][1]["environment"]
    assert env["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert env["threads"]["OMP_NUM_THREADS"] == "1"
    for key in ("python", "numpy", "blas", "nproc", "cpu"):
        assert env[key]


@pytest.mark.parametrize("workload", NAMES)
def test_spans_nest_and_self_times_are_not_negative(runs, workload):
    record = runs[(workload, 1, 1)][0][1]
    spans = {s["id"]: s for s in record["spans"]}
    assert spans
    for s in spans.values():
        assert s["start_ns"] <= s["end_ns"]
        if s["parent"] is not None:
            p = spans[s["parent"]]
            assert p["start_ns"] <= s["start_ns"] and s["end_ns"] <= p["end_ns"]
            if p["batch"] is not None:
                assert s["batch"] == p["batch"]
        if s["name"].startswith("cells."):
            assert s["batch"] is not None
    rows = [(s["id"], s["name"], s["start_ns"], s["end_ns"], s["parent"], s["batch"])
            for s in spans.values()]
    for name, row in layer_totals(rows).items():
        assert row["self_s"] >= -1e-9, name


def test_injected_nan_in_training_counts_as_failure(tmp_path):
    wl = workloads.NeedleTrain(1, str(tmp_path), tiny=True)
    wl.prepare()
    st = wl.setup()
    wl.ready(st)
    st["initial"][0]["embedding"][2:, :] = np.nan
    tally = workloads.Tally()
    wl.rep(st, tally)
    assert tally.failed >= 1 and tally.attempted > tally.failed
    assert math.isnan(wl.loss_mean(st, tally))


def test_injected_nan_in_scoring_counts_as_failure(tmp_path):
    wl = workloads.ReviewEval(1, str(tmp_path), tiny=True)
    wl.prepare()
    st = wl.setup()
    wl.ready(st)
    st["model"].clf.w[:] = np.nan
    tally = workloads.Tally()
    assert math.isnan(wl.loss_mean(st, tally))
    assert tally.failed == 1


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path / "out", "needle_train", 1, 0, cwd=tmp_path,
                     script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_refuses_to_run_after_numpy_was_imported(tmp_path):
    code = ("import numpy, runpy, sys; sys.argv = ['run.py', '--workload', "
            "'needle_train', '--seed', '1', '--seconds', '0.1', '--tiny', "
            f"'--out', {str(tmp_path)!r}]; "
            f"runpy.run_path({str(HERE / 'run.py')!r}, run_name='__main__')")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "before the BLAS thread pin" in proc.stderr
