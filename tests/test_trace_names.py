"""Every function the benchmark tracer wraps by name still exists.

``benchmark/spans.py`` looks each name in ``TRACED`` up with ``getattr``,
so a rename in the package would make ``benchmark/run.py --trace 1`` fail
with AttributeError.  The file is loaded by path and only read.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"


def load_traced():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_is_a_package_callable():
    traced = load_traced()
    assert traced
    missing = [
        f"{module}.{name}"
        for module, names in traced.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"loccdetect.{module}"), name, None))
    ]
    assert missing == []
