"""apobern benchmark: end-to-end figures per workload, per-layer figures
from a separate traced run.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
``src`` and builds nothing.  Workloads (see ``BENCHMARK.json`` for why
each exists):

* ``verify-default``: the full default suite as a cold subprocess of
  ``python -m apobern verify --format json``, the release gate.  Its
  report must match the pinned sha256.
* ``calc-requests``: a seeded closed-loop stream of ``numbers``, ``poly``
  and ``expand`` requests through in-process ``cli.main``, with the
  family caches cleared before each request.
* ``verify-requests``: the same for small ``verify`` requests.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
each is the median of its samples (latency percentiles are Harrell-Davis
estimates, see ``stats.py``), and the line before it gives the
quartiles, sample counts, raw (unscaled) times and CPU time.  Times are
in reference seconds: each timed piece is scaled by the host speed
measured right before and after it on the same core (see ``speed.py``),
because the host's speed changes in phases.  With ``--trace 1`` the
workload's first block (for verify-default, the default suite
in-process) runs untraced, traced with wrappers around the package's
public layer functions, and untraced again; the traced output must equal
the untraced bytes, and the last line carries call counts, self times,
cache counters, identity busy times and the tracing overhead (traced time
minus the mean of the two untraced ones, all in reference seconds).
Every stdout line is one JSON object; the first records the run
environment.

The exit code is 0 when a result was printed (check ``correct`` and
``failed`` in it) and nonzero when the run could not be made.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import speed
import stats
import streams
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXPECTATION_PATH = SRC / "apobern" / "data" / "expected_verdicts.json"
WORKLOADS = ("verify-default", "calc-requests", "verify-requests")
DEFAULT_ARGV = ("verify", "--format", "json")

SETUP_REPEATS = 15
# At least ten latency samples beyond the 90th percentile.
MIN_SAMPLES = 100
# A run stops starting new blocks this long after it began, whatever
# --seconds says, so that it ends well inside three minutes.
HARD_STOP_S = 120.0
# While a subprocess runs it is stopped this often for one speed sample;
# the stream workloads take one at most this often between requests.
TICK_S = 0.25
SPOT_CHECKS = 2
SPOT_MAX_N = 8
SPOT_MAX_K = 3
MODE_TAGS = {"symbolic": "sym", "1": "lam1", "2": "lam2", "-2": "lam-2", "1/3": "lam1_3", None: "free"}


def load_package():
    """Import apobern from the checkout's sources, or stop the run."""
    if not (SRC / "apobern" / "__init__.py").is_file():
        raise SystemExit(f"error: no apobern sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import apobern
    from apobern import cli, families

    return apobern, cli, families


def environment(apobern) -> dict:
    return {
        "kernel_impl": apobern.KERNEL_IMPL,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# --------------------------------------------------------------------------
# running the program


def call(cli, argv):
    """One in-process CLI request: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except Exception as exc:  # a crash is a failed request, not a failed run
            code = None
            err.write(f"{type(exc).__name__}: {exc}\n")
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def spawn(argv, meter):
    """Run a subprocess on this process's core.

    Returns (exit code, stdout bytes, stderr bytes, seconds, reference
    seconds, CPU seconds, peak RSS MB).  Every ``TICK_S`` seconds the child
    is stopped for one speed sample, and each stretch of its run is scaled
    by the samples on either side of it; the stops are not counted.
    """
    wall = scaled = 0.0
    # The child shares this core, so every sample is taken while it is
    # stopped, not yet started or ended.
    before, start = meter.sample(), time.perf_counter()
    with subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as proc:
        outputs, errors = [], []
        readers = [threading.Thread(target=lambda: outputs.append(proc.stdout.read())),
                   threading.Thread(target=lambda: errors.append(proc.stderr.read()))]
        for reader in readers:
            reader.start()
        exited = select.poll()
        pidfd = os.pidfd_open(proc.pid)
        ended = False
        try:
            exited.register(pidfd, select.POLLIN)
            while True:
                done = exited.poll(TICK_S * 1000)
                if not done:
                    os.kill(proc.pid, signal.SIGSTOP)
                stretch = time.perf_counter() - start
                # Reaps the child if it ended before the stop arrived.
                _, status, usage = os.wait4(proc.pid, 0 if done else os.WUNTRACED)
                ended = not os.WIFSTOPPED(status)
                if ended:
                    for reader in readers:
                        reader.join()
                after = meter.sample()
                wall += stretch
                scaled += stretch * meter.scale(before, after)
                if ended:
                    break
                before = after
                os.kill(proc.pid, signal.SIGCONT)
                start = time.perf_counter()
        finally:
            os.close(pidfd)
            if not ended:  # stopped or running when something failed here
                proc.kill()
        proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, outputs[0], errors[0], wall, scaled, cpu, usage.ru_maxrss / 1024


def import_seconds(meter):
    """Seconds, raw and in reference seconds, that a fresh interpreter
    spends in ``import apobern.cli``."""
    timed_import = (
        "import time; start = time.perf_counter(); import apobern.cli; "
        "print(time.perf_counter() - start)"
    )
    code, out, err, wall, scaled, _, _ = spawn([sys.executable, "-c", timed_import], meter)
    if code != 0:
        raise SystemExit(f"error: importing apobern.cli failed: {err.decode()}")
    return float(out), float(out) * scaled / wall


class SetupSampler:
    """Cold-import samples spread over the whole run.

    Samples taken back to back would all land in one phase of the host's
    speed; one sample at most every ``spacing`` seconds makes the median
    cover the run.
    """

    def __init__(self, meter, spacing: float):
        self.meter = meter
        import_seconds(meter)  # the first start compiles the bytecode cache
        self.spacing = spacing
        self.raw, self.samples = [], []
        self.last = time.perf_counter()

    def take(self, count: int):
        for _ in range(min(count, SETUP_REPEATS - len(self.samples))):
            raw, scaled = import_seconds(self.meter)
            self.raw.append(raw)
            self.samples.append(scaled)
        self.last = time.perf_counter()

    def tick(self):
        if time.perf_counter() - self.last >= self.spacing:
            self.take(1)

    def finish(self):
        self.take(SETUP_REPEATS)
        return self.samples


# --------------------------------------------------------------------------
# output checks


def outcome(argv, code, out, err):
    """What the checks need of one request's output, without the output:
    digests and parsed verdicts are small, whole reports are not."""
    if code != 0:
        return {"code": code, "err": err.strip()[:200]}
    if argv[0] != "verify":
        return {"code": 0, "sha256": checks.sha256(out)}
    fmt = streams.verify_params(argv)[3]
    try:
        chunks = [(identity, checks.sha256(chunk)) for identity, chunk in checks.split_report(out, fmt)]
        verdicts = checks.verdicts_digest(checks.report_verdicts(out, fmt))
    except (ValueError, KeyError, TypeError) as exc:
        return {"code": 0, "unparseable": str(exc)}
    return {"code": 0, "chunks": chunks, "verdicts": verdicts}


class Checker:
    """Decides whether one request's output is right; never trusts the program."""

    def __init__(self, digests, expected):
        self.digests = digests
        self.expected = expected

    def problems(self, argv, result):
        """Problems with the ``outcome`` of one request."""
        if result["code"] != 0:
            return [f"exit {result['code']}: {result['err']}"]
        if argv[0] != "verify":
            want = self.digests["calc"].get(checks.request_key(argv))
            if want is None:
                return ["no digest recorded"]
            return [] if result["sha256"] == want else ["output digest differs"]
        if "unparseable" in result:
            return [f"unparseable report: {result['unparseable']}"]
        ids, max_n, max_k, fmt = streams.verify_params(argv)
        problems = []
        order = [i for i in streams.IDENTITIES if i in ids]
        if [identity for identity, _ in result["chunks"]] != order:
            problems.append("identities differ from the request")
        for identity, digest in result["chunks"]:
            key = checks.chunk_key(identity, max_n, max_k, fmt)
            if self.digests["verify"].get(key) != digest:
                problems.append(f"{identity}: report digest differs")
        expected = checks.expected_subset(self.expected, ids, max_n, max_k)
        if result["verdicts"] != checks.verdicts_digest(expected):
            problems.append("verdicts differ from the expectation file")
        return problems


def load_checker() -> Checker:
    with open(EXPECTATION_PATH, "r", encoding="utf-8") as handle:
        expected = checks.expected_verdicts(json.load(handle))
    return Checker(checks.load_digests(), expected)


def report_failures(checker, outcomes):
    """Print each failed request; returns how many failed."""
    failed = 0
    for argv, result in outcomes:
        problems = checker.problems(argv, result)
        if problems:
            failed += 1
            print(json.dumps({"failure": " ".join(argv), "problems": problems[:3]}))
    return failed


def default_report_problems(code, out: bytes, err: bytes):
    if code != 0:
        return [f"exit {code}: {err.decode('utf-8', 'replace').strip()[:200]}"]
    if len(out) != checks.DEFAULT_REPORT_BYTES or checks.sha256(out) != checks.DEFAULT_REPORT_SHA256:
        return [f"report differs: {len(out)} bytes, sha256 {checks.sha256(out)}"]
    return []


def spot_check(cli, families, requests, oracle):
    """Compare small number tables of the stream with sympy; returns the failures."""
    failed = 0
    chosen = [a for a in requests if a[0] == "numbers"
              and int(a[a.index("--n") + 1]) <= SPOT_MAX_N and int(a[a.index("--k") + 1]) <= SPOT_MAX_K]
    for argv in chosen[:SPOT_CHECKS]:
        families.clear_caches()
        as_json = argv[: argv.index("--format")] + ("--format", "json")
        code, out, err, _ = call(cli, as_json)
        try:
            bad = [f"exit {code}"] if code != 0 else oracle.mismatches(out)
        except Exception as exc:  # an unreadable value is a failed check
            bad = [f"{type(exc).__name__}: {exc}"]
        if bad:
            failed += 1
            print(json.dumps({"failure": " ".join(argv), "problems": bad[:3]}))
    return failed


# --------------------------------------------------------------------------
# end-to-end runs


def run_default(seconds, meter, setup):
    """Full-suite subprocess passes while the next one fits in ``seconds``."""
    walls, raw, cpu, rss, failed = [], [], [], [], 0
    start = time.perf_counter()
    setup.take(SETUP_REPEATS // 2)  # the rest after the last pass
    while True:
        code, out, err, wall, scaled, used, peak = spawn(
            [sys.executable, "-m", "apobern", *DEFAULT_ARGV], meter)
        walls.append(scaled)
        raw.append(wall)
        cpu.append(used)
        rss.append(peak)
        problems = default_report_problems(code, out, err)
        if problems:
            failed += 1
            print(json.dumps({"failure": " ".join(DEFAULT_ARGV), "problems": problems}))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(raw) > min(seconds, HARD_STOP_S):
            break
    return {
        "walls": walls,
        "rates": [1 / wall for wall in walls],
        "latencies": walls,
        "attempted": len(walls),
        "failed": failed,
        "peak_rss_mb": max(rss),
        "raw_wall_s": sum(raw),
        "cpu_s": sum(cpu),
    }


def run_stream(workload, seed, seconds, cli, families, meter, setup):
    """Whole blocks of the seeded stream while the next one fits in ``seconds``.

    Outputs are reduced to ``outcome`` records as they come; the expectation
    and digest files are loaded and the records checked only after the peak
    RSS is read, so the harness's own data does not set that peak.
    """
    walls, rates, latencies, raw_walls = [], [], [], []
    outcomes = []
    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cpu_start = time.process_time()
    start = time.perf_counter()
    index = 0
    while True:
        requests = streams.block(workload, seed, index)
        timeline = speed.Timeline(meter, TICK_S)
        raw_wall = 0.0
        for argv in requests:
            setup.tick()
            begin = time.perf_counter()
            families.clear_caches()
            code, out, err, latency = call(cli, argv)
            cost = time.perf_counter() - begin
            raw_wall += cost
            timeline.add(latency, cost)
            outcomes.append((argv, outcome(argv, code, out, err)))
        scaled = timeline.scaled()
        latencies += [latency for latency, _ in scaled]
        walls.append(sum(cost for _, cost in scaled))
        rates.append(len(requests) / walls[-1])
        raw_walls.append(raw_wall)
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed > HARD_STOP_S:
            break
        if len(latencies) >= MIN_SAMPLES and elapsed + statistics.median(raw_walls) > seconds:
            break
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cpu = time.process_time() - cpu_start
    failed = report_failures(load_checker(), outcomes)
    return {
        "walls": walls,
        "rates": rates,
        "latencies": latencies,
        "attempted": len(latencies),
        "failed": failed,
        "peak_rss_mb": peak,
        "rss_before_requests_mb": rss_before,
        "raw_wall_s": sum(raw_walls),
        "cpu_s": cpu,
        "issued": [argv for argv, _ in outcomes],
    }


def end_to_end(result, setup):
    lat_ms = [v * 1000 for v in result["latencies"]]
    p50, p90 = stats.harrell_davis(lat_ms, 0.5), stats.harrell_davis(lat_ms, 0.9)
    metrics = {
        "wall_s": (statistics.median(result["walls"]), "s"),
        "throughput_rps": (statistics.median(result["rates"]), "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p90_ms": (p90, "ms"),
        "setup_s": (statistics.median(setup.samples), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    detail = {
        "wall_s": stats.quartiles(result["walls"]),
        "throughput_rps": stats.quartiles(result["rates"]),
        "latency_ms": dict(stats.quartiles(lat_ms), p50=p50, p90=p90,
                           beyond_p90=sum(v > p90 for v in lat_ms)),
        "setup_s": stats.quartiles(setup.samples),
        "raw_setup_s": stats.quartiles(setup.raw),
        "requests": result["attempted"],
        "error_rate": result["failed"] / result["attempted"],
        # Unscaled seconds of all timed work, and the CPU time spent in it
        # (for the streams, the harness's share included).
        "raw_wall_s": result["raw_wall_s"],
        "cpu_s": result["cpu_s"],
        "speed_sample_ms": stats.quartiles([v * 1000 for v in setup.meter.samples]),
    }
    if "rss_before_requests_mb" in result:
        detail["rss_before_requests_mb"] = result["rss_before_requests_mb"]
    return metrics, detail


# --------------------------------------------------------------------------
# traced runs


def identity_modes():
    """(identity, lambda label) pairs of the default grid, from the expectation file."""
    with open(EXPECTATION_PATH, "r", encoding="utf-8") as handle:
        reports = json.load(handle)
    pairs = []
    for report in reports:
        labels = {r["point"]["lambda"] for r in report["results"]}
        for label in MODE_TAGS:
            if label in labels:
                pairs.append((report["identity"], label))
    return pairs


def identity_busy(apobern, families, requests):
    """Seconds in verify_identity per (identity, mode), split one mode at a time.

    ``requests`` are (identity names, max-n, max-k) triples; None bounds
    mean the default grid.  Caches are cleared before each triple.
    """
    pairs = identity_modes()
    busy = {f"identities.{i}.{MODE_TAGS[label]}.busy_s": 0.0 for i, label in pairs}
    for ids, max_n, max_k in requests:
        families.clear_caches()
        for name, label in pairs:
            if name not in ids:
                continue
            identity = apobern.IdentityId[name]
            modes = None if label is None else (apobern.LambdaMode.parse(label),)
            grid = apobern.default_grid(identity, max_n, max_k, modes=modes)
            start = time.perf_counter()
            apobern.verify_identity(identity, grid)
            busy[f"identities.{name}.{MODE_TAGS[label]}.busy_s"] += time.perf_counter() - start
    return busy


def run_traced(workload, seed, apobern, cli, families, checker, meter):
    if workload == "verify-default":
        requests = [DEFAULT_ARGV]
        busy_requests = [(streams.IDENTITIES, None, None)]
    else:
        requests = streams.block(workload, seed, 0)
        busy_requests = [streams.verify_params(a)[:3] for a in requests if a[0] == "verify"]

    def replay(cache=None):
        outputs = []
        with speed.Interrupted(meter, TICK_S) as timed:
            for argv in requests:
                families.clear_caches()
                outputs.append(call(cli, argv)[:3])
                if cache is not None:
                    cache.collect()
        return outputs, timed.scaled

    # Untraced, traced, untraced: the host's speed changes in phases, so the
    # traced time is set against the mean of the untraced times around it.
    plain, plain_wall = replay()
    tracer, cache = tracing.Tracer(), tracing.CacheStats(families)
    with tracing.installed(tracer):
        traced, traced_wall = replay(cache)
    plain_again, plain_wall_again = replay()
    untraced_wall = (plain_wall + plain_wall_again) / 2

    failed = 0
    for argv, before, after, again in zip(requests, plain, traced, plain_again):
        code, out, err = after
        if workload == "verify-default":
            problems = default_report_problems(code, out.encode("utf-8"), err.encode("utf-8"))
        else:
            problems = checker.problems(argv, outcome(argv, code, out, err))
        if not before == after == again:
            problems.append("traced output differs from the untraced output")
        if problems:
            failed += 1
            print(json.dumps({"failure": " ".join(argv), "problems": problems[:3]}))

    metrics = tracing.layer_metrics(tracer)
    metrics.update(cache.metrics())
    for name, value in identity_busy(apobern, families, busy_requests).items():
        metrics[name] = (value, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.traced_wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return metrics, len(requests), failed


# --------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    apobern, cli, families = load_package()
    env = environment(apobern)
    env["cpu"] = speed.pin()
    print(json.dumps({"env": dict(env, workload=args.workload, seed=args.seed,
                                  seconds=args.seconds, trace=args.trace)}))
    # One untimed request first, so lazy first-use work is not timed.
    call(cli, ("numbers", "--n", "2", "--format", "json"))

    meter = speed.Speedometer()
    if args.trace:
        metrics, attempted, failed = run_traced(
            args.workload, args.seed, apobern, cli, families, load_checker(), meter)
    else:
        setup = SetupSampler(meter, spacing=args.seconds / SETUP_REPEATS)
        if args.workload == "verify-default":
            result = run_default(args.seconds, meter, setup)
        else:
            result = run_stream(args.workload, args.seed, args.seconds, cli, families, meter, setup)
            oracle = checks.make_sympy_oracle() if args.workload == "calc-requests" else None
            if oracle is not None:
                result["failed"] += spot_check(cli, families, result["issued"], oracle)
        setup.finish()
        metrics, detail = end_to_end(result, setup)
        attempted, failed = result["attempted"], result["failed"]
        print(json.dumps({"summary": detail}))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
