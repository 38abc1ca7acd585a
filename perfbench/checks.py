"""Output checks that do not trust the program.

* Whole outputs and per-identity report chunks are compared with sha256
  digests recorded at the seed commit (``digests.json``).
* Verify reports in any of the four formats are parsed back into
  per-point verdicts and compared with the packaged expectation file,
  read straight from disk.
* Small number tables are compared with an independent series
  expansion in sympy, when sympy is importable.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
DIGESTS_PATH = HERE / "digests.json"

# The default `apobern verify --format json` report.
DEFAULT_REPORT_SHA256 = "8b10395f36ea86147417353225162e6d4aa78af2cad360d378d69ec852e177d3"
DEFAULT_REPORT_BYTES = 1_040_751

CSV_HEADER = "identity,n,k,lambda,y,verdict"

PointKey = Tuple[str, Optional[str], int, Optional[int], Optional[str], Optional[str]]


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def request_key(argv: Sequence[str]) -> str:
    return " ".join(argv)


def chunk_key(identity: str, max_n: int, max_k: int, fmt: str) -> str:
    return f"{identity} n<={max_n} k<={max_k} {fmt}"


def load_digests(path: Path = DIGESTS_PATH) -> Dict[str, Dict[str, str]]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


# --------------------------------------------------------------------------
# splitting verify reports into per-identity chunks


def _json_dump(value) -> str:
    return json.dumps(value, indent=2, ensure_ascii=True)


def _marker(line: str, fmt: str) -> Optional[str]:
    """The identity a line opens a chunk for (csv: the row's identity)."""
    if fmt == "text" and line.startswith("== ") and line.endswith(" =="):
        return line[3:-3]
    if fmt == "latex" and line.startswith("% "):
        return line[2:].replace("\\_", "_")
    if fmt == "csv":
        return line.split(",", 1)[0].split(":", 1)[0]
    return None


def split_report(text: str, fmt: str) -> List[Tuple[str, str]]:
    """(identity, chunk) pairs of a verify report, in output order.

    Raises ValueError when the output does not have the report layout.
    """
    if fmt == "json":
        items = json.loads(text)
        if _json_dump(items) + "\n" != text:
            raise ValueError("json report is not in canonical layout")
        return [(item["identity"], _json_dump(item)) for item in items]
    if not text.endswith("\n"):
        raise ValueError("report does not end with a newline")
    lines = text[:-1].split("\n")
    if fmt == "csv":
        if lines[0] != CSV_HEADER:
            raise ValueError("csv report header differs")
        lines = lines[1:]
    chunks: List[Tuple[str, List[str]]] = []
    for line in lines:
        identity = _marker(line, fmt)
        if identity is not None and (not chunks or chunks[-1][0] != identity or fmt != "csv"):
            chunks.append((identity, [line]))
        elif chunks:
            chunks[-1][1].append(line)
        else:
            raise ValueError(f"line before the first identity: {line!r}")
    return [(identity, "\n".join(body)) for identity, body in chunks]


# --------------------------------------------------------------------------
# per-point verdicts


_TEXT_RESULT = re.compile(r"^  (?P<fields>n=.*?): (?P<verdict>PASS|FAIL)(  witness: .*)?$")


def _none(cell: str, empty: str) -> Optional[str]:
    return None if cell == empty else cell


def _text_verdicts(text: str) -> Dict[PointKey, str]:
    out = {}
    identity = None
    for line in text.split("\n"):
        marker = _marker(line, "text")
        if marker is not None:
            identity = marker
            continue
        match = _TEXT_RESULT.match(line)
        if not match:
            continue
        fields = {"k": None, "λ": None, "y": None}
        variant = None
        for part in match.group("fields").split(" "):
            if part.startswith("[") and part.endswith("]"):
                variant = part[1:-1]
            else:
                name, value = part.split("=", 1)
                fields[name] = value
        key = (
            identity, variant, int(fields["n"]),
            None if fields["k"] is None else int(fields["k"]), fields["λ"], fields["y"],
        )
        out[key] = match.group("verdict").lower()
    return out


def _row_verdicts(rows, empty: str, lam_symbolic: str) -> Dict[PointKey, str]:
    out = {}
    for ident, n, k, lam, y, verdict in rows:
        identity, _, variant = ident.partition(":")
        lam = _none(lam, empty)
        key = (
            identity, variant or None, int(n),
            None if k == empty else int(k),
            "symbolic" if lam == lam_symbolic else lam, _none(y, empty),
        )
        out[key] = verdict
    return out


def report_verdicts(text: str, fmt: str) -> Dict[PointKey, str]:
    """Per-point verdicts of a verify report, parsed from its output."""
    if fmt == "json":
        return expected_verdicts(json.loads(text))
    if fmt == "text":
        return _text_verdicts(text)
    if fmt == "csv":
        rows = [line.split(",") for line in text.split("\n")[1:] if line]
        return _row_verdicts(rows, "", "symbolic")
    if fmt == "latex":
        rows = []
        for line in text.split("\n"):
            if line.endswith(" \\\\") and not line.startswith("identity &"):
                rows.append(line[: -len(" \\\\")].replace("\\_", "_").split(" & "))
        return _row_verdicts(rows, "-", "$\\lambda$")
    raise ValueError(f"unknown format {fmt!r}")


def expected_verdicts(reports) -> Dict[PointKey, str]:
    """Per-point verdicts of reports in the JSON (or expectation) layout."""
    out = {}
    for report in reports:
        for result in report["results"]:
            p = result["point"]
            key = (report["identity"], p["variant"], p["n"], p["k"], p["lambda"], p["y"])
            out[key] = result["verdict"]
    return out


def verdicts_digest(verdicts: Dict[PointKey, str]) -> str:
    """A digest of per-point verdicts that does not depend on their order."""
    return sha256("\n".join(sorted(json.dumps([*key, value]) for key, value in verdicts.items())))


def expected_subset(
    expected: Dict[PointKey, str], ids: Sequence[str], max_n: int, max_k: int
) -> Dict[PointKey, str]:
    """The points a clamped grid keeps: clamping only lowers upper bounds."""
    wanted = set(ids)
    return {
        key: verdict
        for key, verdict in expected.items()
        if key[0] in wanted and key[2] <= max_n and (key[3] is None or key[3] <= max_k)
    }


# --------------------------------------------------------------------------
# independent number tables


class SympyOracle:
    """n! [t^n] of t^k/(L e^t - 1)^k and 2^k/(L e^t + 1)^k, by sympy series."""

    def __init__(self):
        import sympy
        from sympy.parsing.sympy_parser import (
            convert_xor,
            implicit_multiplication_application,
            parse_expr,
            standard_transformations,
        )

        self.sp = sympy
        self.t, self.L = sympy.symbols("t L")
        self._parse = parse_expr
        self._transforms = standard_transformations + (
            implicit_multiplication_application,
            convert_xor,
        )

    def table(self, family: str, k: int, n_max: int, lam: str):
        sp, t = self.sp, self.t
        lam_value = self.L if lam == "symbolic" else sp.Rational(lam)
        if family == "apostol-bernoulli":
            kernel = t ** k / (lam_value * sp.exp(t) - 1) ** k
        else:
            kernel = 2 ** k / (lam_value * sp.exp(t) + 1) ** k
        series = sp.series(kernel, t, 0, n_max + 1).removeO()
        return [sp.expand(series).coeff(t, n) * sp.factorial(n) for n in range(n_max + 1)]

    def mismatches(self, numbers_json: str) -> List[str]:
        """Entries of a ``numbers --format json`` document that disagree."""
        doc = json.loads(numbers_json)
        expected = self.table(doc["family"], doc["k"], len(doc["values"]) - 1, doc["lambda"])
        bad = []
        for entry, value in zip(doc["values"], expected):
            got = self._parse(entry["value"], local_dict={"L": self.L},
                              transformations=self._transforms)
            if self.sp.simplify(got - value) != 0:
                bad.append(f"n={entry['n']}: {entry['value']} != {value}")
        return bad


def make_sympy_oracle() -> Optional[SympyOracle]:
    try:
        return SympyOracle()
    except ImportError:
        return None
