"""Every function the span tracer in perfbench/spans.py wraps exists by that name.

The tracer reports a missing target only as a nonzero ``trace.absent`` in a
benchmark run; this test makes a renamed or deleted target fail here instead.
spans.py is loaded from its file and its installer run against the package,
then every binding it replaced is restored.
"""

import importlib.util
from pathlib import Path

import isingforms.cli  # noqa: F401  (loads every module the tracer rebinds)

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    spans = _load_spans()
    restore, absent = spans.install(spans.Recorder())
    spans.uninstall(restore)
    assert absent == []
