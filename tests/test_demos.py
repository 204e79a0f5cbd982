"""The quick demos run to completion.

They call library names, such as ``ClstmParams`` and ``clstm_step``, that
no other caller outside the tests uses.  ``gradient_check.py``,
``sweep_deciles.py`` and ``needle.py`` are left out: they take 8-16 s each
on a 2-core machine.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["retention.py", "overfit_toy.py"])
def test_demo_exits_0(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
