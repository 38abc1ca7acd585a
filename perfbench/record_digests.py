"""Record the output digests the benchmark checks against.

    python3 perfbench/record_digests.py

Run from the root of a checkout whose outputs are known good; it rewrites
``perfbench/digests.json``.  ``calc`` maps every request the calc stream
can emit to the sha256 of its stdout; ``verify`` maps (identity, max-n,
max-k, format) to the sha256 of that identity's part of a verify report.
"""

from __future__ import annotations

import json
import sys

import checks
import run
import streams


def record():
    _, cli, families = run.load_package()
    out = {"calc": {}, "verify": {}}
    for argv in streams.calc_pool():
        families.clear_caches()
        code, text, err, _ = run.call(cli, argv)
        if code != 0:
            raise SystemExit(f"{' '.join(argv)}: exit {code}: {err}")
        out["calc"][checks.request_key(argv)] = checks.sha256(text)
    for max_n in streams.VERIFY_MAX_N:
        for max_k in streams.VERIFY_MAX_K:
            for identity in streams.valid_identities(max_k):
                for fmt in streams.FORMATS:
                    families.clear_caches()
                    argv = streams.verify_request([identity], max_n, max_k, fmt)
                    code, text, err, _ = run.call(cli, argv)
                    if code != 0:
                        raise SystemExit(f"{' '.join(argv)}: exit {code}: {err}")
                    [(name, chunk)] = checks.split_report(text, fmt)
                    out["verify"][checks.chunk_key(name, max_n, max_k, fmt)] = checks.sha256(chunk)
    return out


def main() -> int:
    digests = record()
    with open(checks.DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"{len(digests['calc'])} calc and {len(digests['verify'])} verify digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
