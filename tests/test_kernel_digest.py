"""``tools/kernel_digest.py``, the bit-identity check for kernel changes, is deterministic.

The tool prints one SHA-256 per configuration; a kernel change that keeps
every bit must leave its output unchanged.  That comparison means
something only if two runs of the same code print the same lines.
"""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _quick_run() -> list[str]:
    out = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "kernel_digest.py"),
                          "--quick"], capture_output=True, text=True, check=True)
    return out.stdout.splitlines()


def test_quick_digest_is_the_same_on_a_rerun():
    first, second = _quick_run(), _quick_run()
    assert first == second
    # lstm and clstm K=3, one direction or a pair, three T, two masks.
    assert len(first) == 2 * 2 * 3 * 2
    assert all(re.fullmatch(r"[0-9a-f]{64}  \w+ K=\d dirs=[12] .*", line) for line in first)
    assert len({line.split()[0] for line in first}) == len(first)
