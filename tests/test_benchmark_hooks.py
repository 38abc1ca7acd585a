"""The benchmark's hooks and recorded outputs still match the package.

``perfbench/tracing.py`` patches the package's layer functions by name
and reads the family caches by name.  Loading it here makes a renamed
or deleted name fail the test suite instead of the benchmark run.  The
calc digests recorded in ``perfbench/digests.json`` pin the bytes of
``numbers``, ``poly`` and ``expand``; one variant of every calc cell is
checked here, so drift shows in the test suite too, and so is every
recorded per-identity part of a small verify report.  The benchmark's
self-test expects a numeric Bernoulli-type table to come from the
series kernels; that is pinned here as well.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import apobern.cli  # noqa: F401  (tracing patches apobern.cli.main)
from apobern import cli, families

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_and_cached_names_are_bound():
    tracing = _load("tracing")
    with tracing.installed(tracing.Tracer()):
        for name in tracing.CACHED:
            getattr(families, name).cache_info()


def test_numeric_tables_still_reach_the_series_kernels():
    # perfbench's self-test traces `numbers --k 2 --n 6 --lambda=2` and
    # requires these spans; moving numeric tables off the series needs a
    # benchmark change first
    tracing = _load("tracing")
    tracer = tracing.Tracer()
    with tracing.installed(tracer), contextlib.redirect_stdout(io.StringIO()):
        families.clear_caches()
        assert cli.main(["numbers", "--k", "2", "--n", "6", "--lambda=2", "--format", "json"]) == 0
    assert tracer.calls["kernels.conv_frac"] > 0
    assert tracer.calls["series.TruncatedSeries.pow"] > 0
    # exact counts per order: one pow and one reciprocal per table, and
    # binary powering takes no product by the identity series
    for k, products in zip((1, 2, 3, 4), (0, 1, 2, 2)):
        tracer = tracing.Tracer()
        with tracing.installed(tracer), contextlib.redirect_stdout(io.StringIO()):
            families.clear_caches()
            assert cli.main(["numbers", "--k", str(k), "--n", "6", "--lambda=2", "--format", "json"]) == 0
        assert tracer.calls["kernels.conv_frac"] == products, k
        assert tracer.calls["kernels.recip_frac"] == 1, k
        assert tracer.calls["series.TruncatedSeries.pow"] == 1, k


def test_calc_outputs_match_recorded_digests():
    streams, checks = _load("streams"), _load("checks")
    recorded = checks.load_digests()["calc"]
    requests = streams.calc_pool()[:: streams.CALC_VARIANTS]
    assert len(requests) == len(streams.calc_cells())
    for argv in requests:
        families.clear_caches()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        assert code == 0, argv
        assert checks.sha256(out.getvalue()) == recorded[checks.request_key(argv)], argv


def test_verify_outputs_match_recorded_digests():
    # the small grids of the verify stream, where a numeric point may take
    # its residual from the symbolic twin or run its checker natively
    streams, checks = _load("streams"), _load("checks")
    recorded = checks.load_digests()["verify"]
    seen = set()
    for max_n in streams.VERIFY_MAX_N:
        for max_k in streams.VERIFY_MAX_K:
            for identity in streams.valid_identities(max_k):
                for fmt in streams.FORMATS:
                    families.clear_caches()
                    argv = streams.verify_request([identity], max_n, max_k, fmt)
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        code = cli.main(list(argv))
                    assert code == 0, argv
                    [(name, chunk)] = checks.split_report(out.getvalue(), fmt)
                    key = checks.chunk_key(name, max_n, max_k, fmt)
                    assert checks.sha256(chunk) == recorded[key], argv
                    seen.add(key)
    assert seen == set(recorded)
