"""The benchmark tracer's patch points still exist in the library.

``perfbench/tracer.py`` patches each ``(owner, attr)`` of ``TRACE_POINTS``
through ``owner.__dict__[attr]``, so a refactor that removes or moves one
of those names makes every traced benchmark run fail with ``KeyError``.
"""

import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_trace_point_is_an_attribute_of_its_owner():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACE_POINTS
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in tracer.TRACE_POINTS if attr not in owner.__dict__]
    assert missing == []
