"""The benchmark's tracing hooks still find every name they patch.

``perfbench/tracing.py`` patches the package's layer functions by name
and reads the family caches by name.  Loading it here makes a renamed
or deleted name fail the test suite instead of the benchmark run.
"""

import importlib.util
from pathlib import Path

import apobern.cli  # noqa: F401  (tracing patches apobern.cli.main)
from apobern import families

TRACING_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_and_cached_names_are_bound():
    tracing = _load_tracing()
    with tracing.installed(tracing.Tracer()):
        for name in tracing.CACHED:
            getattr(families, name).cache_info()
