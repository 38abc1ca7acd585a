"""Time two versions of the package alternately in one process.

    python3 tools/ab_inprocess.py [--pairs N] [--sha256 HEX] BASE NEW
    python3 tools/ab_inprocess.py --workload verify-requests|calc-requests
                                  [--seed N] [--pairs N] BASE NEW

Run it from anywhere; it needs only the standard library.  BASE and NEW
each name a directory that holds ``src/apobern`` (a checkout or a copy
of one, uncommitted edits included, e.g. ``.``) or, failing that, a
revision (e.g. ``HEAD``) of the git checkout that holds this script.
``src/apobern`` of each side is copied, from that directory or out of
git, into a temporary directory under the package names ``ab_base`` and
``ab_new``, and both are imported into this process.  One run is a list
of requests through ``cli.main``, with the family caches cleared before
each request and stdout captured: by default the one request
``verify --format json``, and with a stream workload block 0 of that
workload's stream for ``--seed`` in ``perfbench/streams.py`` of this
checkout (the only perfbench file read).  Each pair runs once per
package, the order alternating from pair to pair.  Every request must
exit 0, and its stdout must have the same sha256 in every run of both
sides (a default verify's also ``--sha256`` when it is given), or the
script exits 1.  A side whose ``cli`` still reads the packaged
expectation as ``resources.files("apobern")`` (before ``__package__``)
needs ``apobern`` importable as well, e.g. ``PYTHONPATH=src``.

One process sees the same host speed for both sides of a pair, so this
resolves differences of a few percent that separate perfbench runs do
not on a host whose speed drifts.  It is no part of the test suite; CI
runs one pair of ``HEAD`` against the checkout so that it keeps working.
The last stdout line is a JSON summary: per-side medians and
interquartile ranges in seconds, the quartiles of the per-pair ratios
new/base (their median included) and the number of pairs NEW won.  A
ratio whose distance from 1 is within the base side's own spread (its
interquartile range over its median) reads as no change.  Quartiles are
the inclusive method of ``statistics.quantiles``; a single pair gives
its one value for all three.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

PREFIX = "src/apobern/"
ARGV = ("verify", "--format", "json")
ROOT = Path(__file__).resolve().parent.parent
STREAMS = ROOT / "perfbench" / "streams.py"


def _export(side: str, name: str, root: Path):
    """Write src/apobern of ``side``, a directory or else a revision, to root/name."""
    tree = Path(side) / PREFIX
    if tree.is_dir():
        shutil.copytree(tree, root / name, ignore=shutil.ignore_patterns("__pycache__"))
        return
    data = subprocess.run(["git", "archive", "--format=tar", side, PREFIX],
                          check=True, capture_output=True, cwd=ROOT).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        for member in tar.getmembers():
            if member.isfile():
                target = root / name / member.name[len(PREFIX):]
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(tar.extractfile(member).read())


def _requests(workload: str, seed: int) -> list:
    """The argv of every request of one run."""
    if workload == "verify":
        return [ARGV]
    spec = importlib.util.spec_from_file_location("ab_streams", STREAMS)
    streams = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(streams)
    return streams.block(workload, seed, 0)


def _timed(package, requests) -> tuple:
    """(seconds, stdout sha256 per request) of one run of ``package``."""
    cli, families = package
    seconds, digests = 0.0, []
    for argv in requests:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        families.clear_caches()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        seconds += time.perf_counter() - start
        if code != 0:
            sys.exit(f"{' '.join(argv)} exited {code}: {err.getvalue().strip()}")
        digests.append(hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest())
    return seconds, digests


def _quartiles(values: list) -> list:
    """First, second and third quartile of ``values``."""
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--workload", default="verify",
                        choices=("verify", "verify-requests", "calc-requests"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=20)
    parser.add_argument("--sha256", help="the digest every default verify report must have")
    args = parser.parse_args(argv)
    if args.sha256 and args.workload != "verify":
        parser.error("--sha256 pins the default verify report only")
    requests = _requests(args.workload, args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        packages = {}
        for side, source in (("base", args.base), ("new", args.new)):
            name = f"ab_{side}"
            _export(source, name, root)
            sys.path.insert(0, tmp)
            packages[side] = (importlib.import_module(f"{name}.cli"),
                              importlib.import_module(f"{name}.families"))
            sys.path.remove(tmp)
        digests = [args.sha256] if args.sha256 else None
        times = {"base": [], "new": []}
        for side in ("base", "new"):  # one warm-up run each
            _timed(packages[side], requests)
        for pair in range(args.pairs):
            order = ("base", "new") if pair % 2 == 0 else ("new", "base")
            for side in order:
                seconds, shas = _timed(packages[side], requests)
                digests = digests or shas
                for request, sha, expected in zip(requests, shas, digests):
                    if sha != expected:
                        print(f"{side}: {' '.join(request)}: stdout sha256 {sha} != {expected}",
                              file=sys.stderr)
                        return 1
                times[side].append(seconds)
    ratios = [n / b for b, n in zip(times["base"], times["new"])]
    spread = {side: _quartiles(times[side]) for side in times}
    print(json.dumps({
        "base": args.base, "new": args.new, "workload": args.workload,
        "requests": len(requests),
        **({"sha256": digests[0]} if args.workload == "verify" else
           {"seed": args.seed}),
        "base_s": [round(t, 4) for t in times["base"]],
        "new_s": [round(t, 4) for t in times["new"]],
    }))
    print(json.dumps({
        "pairs": args.pairs,
        "base_median_s": round(statistics.median(times["base"]), 4),
        "new_median_s": round(statistics.median(times["new"]), 4),
        "base_iqr_s": round(spread["base"][2] - spread["base"][0], 4),
        "new_iqr_s": round(spread["new"][2] - spread["new"][0], 4),
        "median_ratio": round(statistics.median(ratios), 4),
        "ratio_quartiles": [round(q, 4) for q in _quartiles(ratios)],
        "new_wins": sum(r < 1 for r in ratios),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
