"""Serialization of identity reports.

The JSON layout is the stable machine interface:

    {"identity": str,
     "grid": [{"n": int, "k": int|null, "lambda": str|null, "y": str|null,
               "variant": str|null}],
     "results": [{"point": {...}, "verdict": "pass"|"fail",
                  "witness": str|null}],
     "summary": {"pass": int, "fail": int, "validity_domain": str}}

Expectation files reuse the layout minus the witness fields, so known
formula defects stay pinned without freezing their (larger) witness
strings, and a run renders both texts in one pass.  All output is
byte-deterministic for a fixed input.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable, List, Optional, Sequence, Tuple

from .field import render_rational
from .identities import GridPoint, IdentityReport
from .render import TEXT_SYMBOL

__all__ = [
    "report_to_dict",
    "reports_to_json",
    "expectation_from_reports",
    "expectation_mismatches",
    "parse_expectation",
    "render_report",
    "render_with_expectation",
]

FORMATS = ("json", "text", "latex", "csv")


def _point_to_dict(point: GridPoint) -> dict:
    return {
        "n": point.n,
        "k": point.k,
        "lambda": None if point.mode is None else point.mode.label(),
        "y": None if point.y is None else render_rational(point.y),
    }


def report_to_dict(report: IdentityReport, include_witness: bool = True) -> dict:
    grid = [_point_to_dict(p) for p in report.grid]
    results = []
    for entry in report.results:
        point = _point_to_dict(entry.point)
        point["variant"] = entry.variant
        item = {
            "point": point,
            "verdict": "pass" if entry.passed else "fail",
        }
        if include_witness:
            item["witness"] = entry.witness
        results.append(item)
    return {
        "identity": report.identity.value,
        "grid": grid,
        "results": results,
        "summary": {
            "pass": report.summary.passed,
            "fail": report.summary.failed,
            "validity_domain": report.summary.validity_domain,
        },
    }


# Indented layout of one grid entry and of one result entry, as
# json.dumps(..., indent=2) prints them inside the top-level list.
_GRID_ENTRY = (
    '      {{\n        "n": {},\n        "k": {},\n        "lambda": {},\n'
    '        "y": {}\n      }}'
)
_RESULT_POINT = (
    '      {{\n        "point": {{\n          "n": {},\n          "k": {},\n'
    '          "lambda": {},\n          "y": {},\n          "variant": '
)


def _json(value: Optional[str]) -> str:
    return "null" if value is None else _quote(value)


def _json_list(items: List[str], indent: str) -> str:
    return "[\n" + ",\n".join(items) + "\n" + indent + "]" if items else "[]"


def _json_chunks(report: IdentityReport, witnesses: Sequence[bool]) -> List[str]:
    """The report's chunk per entry of ``witnesses``, from shared heads."""
    # Each point's fields are rendered once, into its grid entry and into
    # the head of every result at it.
    rendered = {}
    heads = []
    for entry in report.results:
        point = entry.point
        if point not in rendered:
            fields = (
                str(point.n),
                "null" if point.k is None else str(point.k),
                "null" if point.mode is None else _quote(point.mode.label()),
                "null" if point.y is None else _quote(render_rational(point.y)),
            )
            rendered[point] = _GRID_ENTRY.format(*fields), _RESULT_POINT.format(*fields)
        verdict = '"pass"' if entry.passed else '"fail"'
        heads.append(f'{rendered[point][1]}{_json(entry.variant)}\n        }},\n'
                     f'        "verdict": {verdict}')
    grid = _json_list([entry for entry, _ in rendered.values()], "    ")
    summary = report.summary
    chunks = []
    for include_witness in witnesses:
        results = [f'{head},\n        "witness": {_json(e.witness)}\n      }}' if include_witness
                   else f"{head}\n      }}" for head, e in zip(heads, report.results)]
        chunks.append(
            f'  {{\n    "identity": {_quote(report.identity.value)},\n'
            f'    "grid": {grid},\n    "results": {_json_list(results, "    ")},\n'
            f'    "summary": {{\n      "pass": {summary.passed},\n      "fail": {summary.failed},\n'
            f'      "validity_domain": {_quote(summary.validity_domain)}\n    }}\n  }}'
        )
    return chunks


def _json_documents(reports: Sequence[IdentityReport], witnesses: Sequence[bool]) -> List[str]:
    """One JSON document of reports per entry of ``witnesses``, each joined
    from all its parts at once (bracketing a joined list copies it again)."""
    documents = [[] for _ in witnesses]
    for report in reports:
        for parts, chunk in zip(documents, _json_chunks(report, witnesses)):
            parts += (",\n", chunk)
    return ["".join(["[\n", *parts[1:], "\n]\n"]) if parts else "[]\n" for parts in documents]


def reports_to_json(reports: Sequence[IdentityReport], include_witness: bool = True) -> str:
    """The bytes of json.dumps([report_to_dict(r, include_witness) ...],
    indent=2, ensure_ascii=True) + "\\n", written without building the
    payload."""
    return _json_documents(reports, (include_witness,))[0]


def expectation_from_reports(reports: Sequence[IdentityReport]) -> str:
    """Expectation-file content: the full report minus witnesses."""
    return reports_to_json(reports, include_witness=False)


def render_with_expectation(reports: Sequence[IdentityReport], fmt: str) -> Tuple[str, str]:
    """The report in ``fmt`` and its expectation text, json's in one pass."""
    if fmt == "json":
        return tuple(_json_documents(reports, (True, False)))
    return render_report(reports, fmt), expectation_from_reports(reports)


def parse_expectation(expected_text: str) -> dict:
    """Expectation-file content as {identity name: expected report}; a
    text that is not JSON (nesting too deep for the parser included), or
    not a list of identity objects, raises ValueError."""
    try:
        items = json.loads(expected_text)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"malformed expectation file: not JSON: {exc}") from exc
    if not isinstance(items, list) or not all(
        isinstance(item, dict) and isinstance(item.get("identity"), str) for item in items
    ):
        raise ValueError("malformed expectation file: expected a list of identity objects")
    return {item["identity"]: item for item in items}


def expectation_mismatches(
    reports: Sequence[IdentityReport], expected_text: str,
    observed_text: Optional[str] = None, expected: Optional[dict] = None,
) -> List[str]:
    """Compare a run against an expectation file; [] means a clean match.

    A file equal to ``observed_text``, the run's own expectation text,
    matches unparsed; any other (``expected`` if already parsed) matches
    per identity, so a subset run can be checked against the full file.
    """
    if expected_text == observed_text:
        return []
    if expected is None:
        expected = parse_expectation(expected_text)
    mismatches = []
    for report in reports:
        name = report.identity.value
        if name not in expected:
            mismatches.append(f"{name}: no expectation recorded")
        elif report_to_dict(report, include_witness=False) != expected[name]:
            mismatches.append(f"{name}: verdict pattern differs from expectation")
    return mismatches


def _human(value: Optional[str], sym: str) -> str:
    if value is None:
        return "-"
    return value.replace("L", sym) if sym != "L" else value


def _text_lines(reports: Sequence[IdentityReport]) -> Iterable[str]:
    for report in reports:
        yield f"== {report.identity.value} =="
        for entry in report.results:
            point = entry.point
            fields = [f"n={point.n}"]
            if point.k is not None:
                fields.append(f"k={point.k}")
            if point.mode is not None:
                fields.append(f"{TEXT_SYMBOL}={point.mode.label()}")
            if point.y is not None:
                fields.append(f"y={render_rational(point.y)}")
            if entry.variant is not None:
                fields.append(f"[{entry.variant}]")
            verdict = "PASS" if entry.passed else "FAIL"
            line = f"  {' '.join(fields)}: {verdict}"
            if entry.witness is not None:
                line += f"  witness: {_human(entry.witness, TEXT_SYMBOL)}"
            yield line
        yield (
            f"  summary: pass={report.summary.passed} fail={report.summary.failed}"
            f"  domain: {report.summary.validity_domain}"
        )
        yield ""


def _latex_escape(text: str) -> str:
    return text.replace("\\", "\\textbackslash{}").replace("_", "\\_")


def _latex_lines(reports: Sequence[IdentityReport]) -> Iterable[str]:
    for report in reports:
        name = _latex_escape(report.identity.value)
        yield f"% {name}"
        yield "\\begin{tabular}{llllll}"
        yield "identity & n & k & $\\lambda$ & y & verdict \\\\"
        for entry in report.results:
            point = entry.point
            ident = name if entry.variant is None else f"{name}:{entry.variant}"
            cells = [
                ident,
                str(point.n),
                "-" if point.k is None else str(point.k),
                "-" if point.mode is None else point.mode.label().replace("symbolic", "$\\lambda$"),
                "-" if point.y is None else render_rational(point.y),
                "pass" if entry.passed else "fail",
            ]
            yield " & ".join(cells) + " \\\\"
        yield "\\end{tabular}"
        yield ""


def _csv_lines(reports: Sequence[IdentityReport]) -> Iterable[str]:
    yield "identity,n,k,lambda,y,verdict"
    for report in reports:
        for entry in report.results:
            point = entry.point
            ident = report.identity.value
            if entry.variant is not None:
                ident = f"{ident}:{entry.variant}"
            yield ",".join(
                [
                    ident,
                    str(point.n),
                    "" if point.k is None else str(point.k),
                    "" if point.mode is None else point.mode.label(),
                    "" if point.y is None else render_rational(point.y),
                    "pass" if entry.passed else "fail",
                ]
            )


def render_report(reports: Sequence[IdentityReport], fmt: str) -> str:
    """Render reports in one of json, text, latex, csv."""
    if fmt == "json":
        return reports_to_json(reports)
    if fmt == "text":
        return "\n".join(_text_lines(reports)) + "\n"
    if fmt == "latex":
        return "\n".join(_latex_lines(reports)) + "\n"
    if fmt == "csv":
        return "\n".join(_csv_lines(reports)) + "\n"
    raise ValueError(f"unknown format: {fmt!r}")
