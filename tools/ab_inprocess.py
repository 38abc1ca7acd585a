"""Time a default verify of two git revisions alternately in one process.

    python3 tools/ab_inprocess.py [--pairs N] [--sha256 HEX] BASE NEW

Run it from anywhere inside a git checkout; it needs only the standard
library.  ``src/apobern`` of each revision is copied out of git into a
temporary directory under the package names ``ab_base`` and ``ab_new``,
and both are imported into this process.  Each pair then runs
``cli.main(["verify", "--format", "json"])`` once per package, the order
alternating from pair to pair, with the family caches cleared before each
run and stdout captured.  Every report's sha256 must equal the first
one's (and ``--sha256`` when it is given), or the script exits 1.  A
revision whose ``cli`` still reads the packaged expectation as
``resources.files("apobern")`` (before ``__package__``) needs ``apobern``
importable as well, e.g. ``PYTHONPATH=src``.

One process sees the same host speed for both sides of a pair, so this
resolves differences of a few percent that separate perfbench runs do
not on a host whose speed drifts.  It is run by hand and is no part of
the test suite.  The last stdout line is a JSON summary: per-side
medians in seconds, the median of the per-pair ratios new/base and the
number of pairs NEW won.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

PREFIX = "src/apobern/"
ARGV = ["verify", "--format", "json"]


def _export(rev: str, name: str, root: Path):
    """Write src/apobern of ``rev`` to root/name."""
    data = subprocess.run(["git", "archive", "--format=tar", rev, PREFIX],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        for member in tar.getmembers():
            if member.isfile():
                target = root / name / member.name[len(PREFIX):]
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(tar.extractfile(member).read())


def _timed(package) -> tuple:
    """(seconds, sha256) of one verify run of ``package``."""
    cli, families = package
    families.clear_caches()
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(ARGV)
    seconds = time.perf_counter() - start
    if code != 0:
        sys.exit(f"verify exited {code}")
    return seconds, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--pairs", type=int, default=20)
    parser.add_argument("--sha256", help="the digest every report must have")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        packages = {}
        for side, rev in (("base", args.base), ("new", args.new)):
            name = f"ab_{side}"
            _export(rev, name, root)
            sys.path.insert(0, tmp)
            packages[side] = (importlib.import_module(f"{name}.cli"),
                              importlib.import_module(f"{name}.families"))
            sys.path.remove(tmp)
        digest = args.sha256
        times = {"base": [], "new": []}
        for side in ("base", "new"):  # one warm-up run each
            _timed(packages[side])
        for pair in range(args.pairs):
            order = ("base", "new") if pair % 2 == 0 else ("new", "base")
            for side in order:
                seconds, sha = _timed(packages[side])
                digest = digest or sha
                if sha != digest:
                    print(f"{side} report sha256 {sha} != {digest}", file=sys.stderr)
                    return 1
                times[side].append(seconds)
    ratios = [n / b for b, n in zip(times["base"], times["new"])]
    print(json.dumps({
        "base": args.base, "new": args.new, "sha256": digest,
        "base_s": [round(t, 4) for t in times["base"]],
        "new_s": [round(t, 4) for t in times["new"]],
    }))
    print(json.dumps({
        "pairs": args.pairs,
        "base_median_s": round(statistics.median(times["base"]), 4),
        "new_median_s": round(statistics.median(times["new"]), 4),
        "median_ratio": round(statistics.median(ratios), 4),
        "new_wins": sum(r < 1 for r in ratios),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
