"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import time

import pytest

import checks
import run
import speed
import stats
import streams
import tracing

APOBERN, CLI, FAMILIES = run.load_package()


@pytest.mark.parametrize("workload", ["calc-requests", "verify-requests"])
def test_stream_is_deterministic_per_seed(workload):
    assert streams.block(workload, 7, 0) == streams.block(workload, 7, 0)
    assert streams.block(workload, 7, 0) != streams.block(workload, 8, 0)
    assert streams.block(workload, 7, 0) != streams.block(workload, 7, 1)


def test_calc_stream_emits_only_valid_recorded_requests():
    digests = checks.load_digests()
    for seed in range(5):
        for argv in streams.calc_block(seed, 0):
            assert checks.request_key(argv) in digests["calc"]
            assert not any(a in ("--coeffs", "--lambda") for a in argv)
            if "apostol-euler" in argv:
                assert "--lambda=-1" not in argv


def test_verify_stream_emits_only_valid_requests():
    for seed in range(5):
        block = streams.verify_block(seed, 0)
        covered = []
        for argv in block:
            ids, max_n, max_k, fmt = streams.verify_params(argv)
            assert 1 <= len(ids) <= 3 and 2 <= max_n <= 5 and 0 <= max_k <= 3
            assert fmt in streams.FORMATS
            if max_k == 0:
                assert not set(ids) & set(streams.ORDER_FROM_ONE)
            covered += [(i, max_n, max_k) for i in ids]
        # each (identity, max-n, max-k) cell exactly once per block
        assert len(covered) == len(set(covered)) == sum(
            len(streams.valid_identities(k)) for k in streams.VERIFY_MAX_K
        ) * len(streams.VERIFY_MAX_N)


def test_quantile_estimates_and_quartiles():
    values = list(range(1, 1001))
    assert stats.harrell_davis(values, 0.5) == pytest.approx(500.5)
    assert stats.harrell_davis(values, 0.9) == pytest.approx(900.5, abs=0.01)
    # a sample shifted by one rank across a step moves the estimate by a
    # fraction of the step, where the 90th order statistic would jump
    step = [10.0] * 91 + [20.0] * 9
    shifted = [10.0] * 90 + [20.0] * 10
    assert 0 < stats.harrell_davis(shifted, 0.9) - stats.harrell_davis(step, 0.9) < 5
    assert stats.harrell_davis([2.0], 0.9) == 2.0
    q = stats.quartiles([5, 1, 3, 2, 4])
    assert (q["q1"], q["median"], q["q3"], q["n"]) == (1.5, 3, 4.5, 5)
    assert stats.quartiles([2.0]) == {"median": 2.0, "q1": 2.0, "q3": 2.0, "n": 1}
    with pytest.raises(ValueError):
        stats.harrell_davis([], 0.5)


def test_wrong_digest_counts_as_failure():
    argv = streams.calc_block(3, 0)[0]
    FAMILIES.clear_caches()
    code, out, err, _ = run.call(CLI, argv)
    checker = run.load_checker()
    result = run.outcome(argv, code, out, err)
    assert checker.problems(argv, result) == []
    checker.digests = {"calc": {checks.request_key(argv): "0" * 64}, "verify": {}}
    assert checker.problems(argv, result) == ["output digest differs"]
    assert run.default_report_problems(0, b"[]\n", b"")


@pytest.mark.parametrize("fmt", streams.FORMATS)
def test_verify_reports_parse_back_to_expected_verdicts(fmt):
    argv = streams.verify_request(["ID_THM1", "ID_HANSEN"], 2, 1, fmt)
    FAMILIES.clear_caches()
    code, out, err, _ = run.call(CLI, argv)
    checker = run.load_checker()
    assert checker.problems(argv, run.outcome(argv, code, out, err)) == []
    tampered = out.replace("PASS", "FAIL", 1).replace("pass", "fail", 1)
    problems = checker.problems(argv, run.outcome(argv, code, tampered, err))
    assert "verdicts differ from the expectation file" in problems


def test_tracer_self_time_excludes_children():
    tracer = tracing.Tracer()

    def child():
        time.sleep(0.02)

    child = tracer.wrap("child", child)

    def parent():
        time.sleep(0.02)
        child()
        child()

    tracer.wrap("parent", parent)()
    assert tracer.calls == {"child": 2, "parent": 1}
    # the parent's own sleep only: its two children's sleeps are not self time
    assert tracer.self_s["child"] >= 0.04
    assert 0.02 <= tracer.self_s["parent"] < tracer.self_s["child"]


def test_wrappers_reach_every_binding_site_and_are_removed():
    import apobern.field as field
    import apobern.series as series

    original = series.conv_frac
    argv = ("numbers", "--k", "2", "--n", "6", "--lambda=2", "--format", "json")
    FAMILIES.clear_caches()
    plain = run.call(CLI, argv)[1]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert series.conv_frac is not original and field.conv_frac is series.conv_frac
        FAMILIES.clear_caches()
        traced = run.call(CLI, argv)[1]
    assert series.conv_frac is original
    assert traced == plain
    assert tracer.calls["kernels.conv_frac"] > 0 and tracer.calls["cli.main"] == 1
    assert tracer.calls["series.TruncatedSeries.pow"] > 0


def test_sympy_oracle_agrees_and_catches_a_wrong_value():
    oracle = checks.make_sympy_oracle()
    if oracle is None:
        pytest.skip("sympy is not installed")
    argv = ("numbers", "--family", "apostol-euler", "--k", "2", "--n", "4",
            "--lambda=symbolic", "--format", "json")
    FAMILIES.clear_caches()
    out = run.call(CLI, argv)[1]
    assert oracle.mismatches(out) == []
    assert oracle.mismatches(out.replace('"4/(L+1)^2"', '"4/(L+1)^3"')) != []


def test_identity_modes_cover_the_default_grid():
    pairs = run.identity_modes()
    assert len(pairs) == 45
    assert ("ID_THM5", "symbolic") in pairs and ("ID_HANSEN", None) in pairs


def test_compare_refuses_runs_with_different_kernels(tmp_path):
    import compare

    def write(name, impl):
        env = {"kernel_impl": impl, "python": "3.11.7", "nproc": 2,
               "workload": "calc-requests", "trace": 0}
        result = {"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
        path = tmp_path / name
        path.write_text(json.dumps({"env": env}) + "\n" + json.dumps(result) + "\n")
        return str(path)

    assert compare.main(["--base", write("a", "pure"), "--new", write("b", "pure")]) == 0
    assert compare.main(["--base", write("c", "pure"), "--new", write("d", "compiled")]) == 2


class FakeMeter(speed.Speedometer):
    """Kernel samples from a list instead of the clock."""

    def __init__(self, samples):
        self.samples = []
        self._next = iter(samples)

    def sample(self):
        value = next(self._next)
        self.samples.append(value)
        return value


def test_timeline_scales_each_piece_by_the_samples_around_it():
    ref = speed.REFERENCE_S
    timeline = speed.Timeline(FakeMeter([ref, 3 * ref, 2 * ref, 9 * ref]), spacing=0.0)
    timeline.add(1.0, 2.0)  # between ref and 3 ref: half speed
    timeline.add(4.0)  # between 3 ref and 2 ref
    [first, second] = timeline.scaled()
    assert first == pytest.approx([0.5, 1.0]) and second == pytest.approx([4.0 * 2 / 5])


def test_interrupted_samples_in_process_work_and_leaves_no_timer():
    import signal

    meter = speed.Speedometer()
    with speed.Interrupted(meter, 0.05) as timed:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    # the loop's 0.3 s less the samples taken inside it
    inside = sum(meter.samples[1:-1])
    assert len(meter.samples) >= 5 and timed.wall + inside == pytest.approx(0.3, abs=0.01)
    assert timed.scaled > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_spawn_scales_a_child_and_reports_its_peak():
    meter = speed.Speedometer()
    code, out, err, wall, scaled, cpu, rss = run.spawn(
        [run.sys.executable, "-c", "import time; time.sleep(0.6); print('ok')"], meter)
    assert (code, out, err) == (0, b"ok\n", b"")
    # stopped at least twice for a sample, and the stops are not counted
    assert len(meter.samples) >= 3 and 0.6 <= wall < 1.0
    assert scaled > 0 and cpu < wall and rss > 1


def test_compare_reports_noisy_metrics_as_unresolved(tmp_path, capsys):
    import compare

    def write(name, value):
        env = {"kernel_impl": "pure", "python": "3.11.7", "nproc": 2,
               "workload": "calc-requests", "trace": 0}
        result = {"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"wall_s": {"value": value, "unit": "s"}}}
        path = tmp_path / name
        path.write_text(json.dumps({"env": env}) + "\n" + json.dumps(result) + "\n")
        return str(path)

    steady = [write(f"s{i}", v) for i, v in enumerate([1.0, 1.01, 0.99, 1.0, 1.02])]
    noisy = [write(f"n{i}", v) for i, v in enumerate([0.5, 1.5, 0.7, 1.3, 1.0])]
    assert compare.main(["--base", *steady, "--new", write("slow", 2.0)]) == 1
    assert "worse than bound" in capsys.readouterr().out
    assert compare.main(["--base", *noisy, "--new", write("slow2", 2.0)]) == 0
    assert "unresolved" in capsys.readouterr().out
    assert compare.main(["--base", *noisy, "--new", write("fast", 0.4)]) == 0
    assert "better than every base run" in capsys.readouterr().out
