"""``tools/kernel_digest.py``, the bit-identity check for kernel, tape and
training changes, is deterministic.

The tool prints one SHA-256 of the data path, one per kernel or training
configuration, then the errors of a few gradient checks; a change that
keeps every bit must leave its output unchanged.  That comparison means
something only if two runs of the same code print the same lines.  Where
the process may use two CPUs, each pair's second direction runs in the
helper process, and on one CPU in the caller: both must print the same
lines.
"""

import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _quick_run(preexec_fn=None) -> list[str]:
    out = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "kernel_digest.py"),
                          "--quick"], capture_output=True, text=True, check=True,
                         preexec_fn=preexec_fn)
    return out.stdout.splitlines()


def test_quick_digest_is_the_same_on_a_rerun():
    first, second = _quick_run(), _quick_run()
    assert first == second
    # The data path: one line, first.
    data, kernel, train, checks = first[0], first[1:25], first[25:29], first[29:]
    assert re.fullmatch(r"[0-9a-f]{64}  data read_corpus build_vocab make_batches .*", data)
    # Kernel: lstm and clstm K=3, one direction or a pair, three T, no mask or a padded one.
    assert all(re.fullmatch(r"[0-9a-f]{64}  \w+ K=\d dirs=[12] .*", line) for line in kernel)
    # Training: three models with weight decay, and a frozen embedding.
    assert all(re.fullmatch(r"[0-9a-f]{64}  train \w+ dirs=[12] .* embedding=\w+", line)
               for line in train)
    assert len({line.split()[0] for line in [data] + kernel + train}) == 29
    # Gradient checks: the cbow pipeline and a masked lstm encoder, errors printed with repr.
    assert [line.split("  ")[1].split()[0] for line in checks] == ["pipeline_gradcheck",
                                                                   "encoder_gradcheck"]
    assert all(0.0 < float(line.split()[0]) < 1e-6 for line in checks)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_quick_digest_is_the_same_on_one_cpu():
    # Pinned to one CPU, the child runs every direction itself; otherwise
    # pairs and scoring send their second direction to the helper.
    one = min(os.sched_getaffinity(0))
    assert _quick_run(lambda: os.sched_setaffinity(0, {one})) == _quick_run()
