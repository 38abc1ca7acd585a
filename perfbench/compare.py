"""Compare two sets of benchmark runs of one workload.

    python3 perfbench/compare.py --base A1.out A2.out ... --new B1.out B2.out ...

Each file holds the stdout of one ``run.py`` invocation.  For every metric
it prints both medians and the change as a share of the base median, and
for end-to-end metrics whether the change is worse than the bound in
``BENCHMARK.json``.  Where the base runs' own spread (quartile distance
over median) is wider than the bound, the metric is reported as
unresolved, unless every new run is better than every base run.  Runs whose kernel implementation, Python version,
workload or trace mode differ are refused: the pure and compiled kernels
differ by about 1.3x end to end, so such runs do not compare.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import stats

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SAME = ("kernel_impl", "python", "workload", "trace")


def load_run(path):
    lines = [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]
    env = next(line["env"] for line in lines if "env" in line)
    return env, lines[-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base = [load_run(p) for p in args.base]
    new = [load_run(p) for p in args.new]
    envs = [env for env, _ in base + new]
    for key in SAME:
        values = {env[key] for env in envs}
        if len(values) > 1:
            print(f"refused: runs differ in {key}: {sorted(map(str, values))}", file=sys.stderr)
            return 2
    bounds = {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    regressed = False
    for name in base[0][1]["metrics"]:
        base_values = [r["metrics"][name]["value"] for _, r in base]
        new_values = [r["metrics"][name]["value"] for _, r in new]
        q = stats.quartiles(base_values)
        b, n = q["median"], statistics.median(new_values)
        change = (n - b) / b if b else 0.0
        spread = (q["q3"] - q["q1"]) / b if b else 0.0
        line = f"{name}: base {b:.6g}  new {n:.6g}  change {change:+.3f}  base spread {spread:.3f}"
        spec = bounds.get(name)
        if spec is not None:
            if spec["better"] == "lower":
                worse, all_better = change, max(new_values) < min(base_values)
            else:
                worse, all_better = -change, min(new_values) > max(base_values)
            if all_better:
                verdict = "better than every base run"
            elif spread > spec["bound"]:
                verdict = "unresolved: base spread wider than"
            elif worse > spec["bound"]:
                verdict = "worse than bound"
                regressed = True
            else:
                verdict = "within bound"
            line += f"  ({verdict} {spec['bound']})"
        print(line)
    failed = sum(r["failed"] for _, r in base + new)
    print(f"failed operations: {failed}")
    return 1 if regressed or failed else 0


if __name__ == "__main__":
    sys.exit(main())
