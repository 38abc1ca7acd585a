"""Serialization of every command's output.

Each command writes one document in one of FORMATS from shared writers:
lines into a document, a payload into a JSON document, and a header with
its rows into CSV lines or into a LaTeX tabular.  The ``numbers``,
``poly`` and ``expand`` documents come from one function each, next to
the ``verify`` report, whose JSON layout is the stable machine interface:

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
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .field import render_rational
from .identities import GridPoint, IdentityReport
from .render import (
    LATEX_SYMBOL,
    MACHINE_SYMBOL,
    TEXT_SYMBOL,
    render_field_element,
    render_x_poly,
)

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


def _document(lines: Iterable[str]) -> str:
    return "\n".join(lines) + "\n"


def _json_document(payload) -> str:
    return json.dumps(payload, indent=2, ensure_ascii=True) + "\n"


def _csv(header: Sequence[str], rows: Iterable[Sequence[str]]) -> List[str]:
    return [",".join(header), *map(",".join, rows)]


def _tabular(header: Sequence[str], rows: Iterable[Sequence[str]]) -> Iterator[str]:
    """LaTeX tabular lines, one ``l`` column per header cell."""
    yield f"\\begin{{tabular}}{{{'l' * len(header)}}}"
    for cells in (header, *rows):
        yield " & ".join(cells) + " \\\\"
    yield "\\end{tabular}"


def _symbol_for(fmt: str) -> str:
    return {"text": TEXT_SYMBOL, "latex": LATEX_SYMBOL}.get(fmt, MACHINE_SYMBOL)


def numbers_document(table, fmt: str) -> str:
    """A number table of ``apobern.families`` in ``fmt``."""
    sym = _symbol_for(fmt)
    family, k, label = table.family.value, table.k, table.mode.label()
    values = [render_field_element(v, sym) for v in table.values]
    if fmt == "json":
        return _json_document({
            "family": family,
            "k": k,
            "lambda": label,
            "values": [{"n": n, "value": v} for n, v in enumerate(values)],
        })
    if fmt == "csv":
        rows = ((family, str(k), label, str(n), v) for n, v in enumerate(values))
        return _document(_csv(("family", "k", "lambda", "n", "value"), rows))
    if fmt == "latex":
        rows = ((str(n), f"${v}$") for n, v in enumerate(values))
        return _document(_tabular(("$n$", "value"), rows))
    letter = "E" if family.endswith("euler") else "B"
    return _document([f"family={family} k={k} {TEXT_SYMBOL}={label}",
                      *(f"{letter}_{n} = {v}" for n, v in enumerate(values))])


def poly_document(family, k: int, n: int, poly, fmt: str) -> str:
    """The family polynomial ``poly`` of order k and index n in ``fmt``."""
    sym = _symbol_for(fmt)
    if fmt == "csv":
        rows = ((str(m), render_field_element(c, sym)) for m, c in enumerate(poly.coeffs))
        return _document(_csv(("m", "coefficient"), rows))
    rendered = render_x_poly(poly, sym)
    if fmt == "json":
        return _json_document({
            "family": family.value,
            "k": k,
            "n": n,
            "lambda": poly.mode.label(),
            "poly": rendered,
            "coefficients": [render_field_element(c, sym) for c in poly.coeffs],
        })
    return _document([f"${rendered}$" if fmt == "latex" else rendered])


def expansion_document(q, k: int, methods: dict, fmt: str) -> str:
    """The expansions of q in the order-k basis in ``fmt``, by method name,
    None for a method that q's mode does not support."""
    sym = _symbol_for(fmt)
    label = q.mode.label()
    coefficients = {name: [render_field_element(b, sym) for b in exp.coefficients]
                    for name, exp in methods.items() if exp is not None}
    if fmt == "json":
        return _json_document({
            "q": render_x_poly(q, sym),
            "k": k,
            "lambda": label,
            "methods": {name: {"supported": False} if exp is None else {
                "supported": True,
                "exact": exp.exact,
                "j_lo": exp.j_lo,
                "j_hi": exp.j_hi,
                "coefficients": coefficients[name],
                "reconstruction": render_x_poly(exp.reconstruction, sym),
            } for name, exp in methods.items()},
        })
    if fmt in ("csv", "latex"):
        # a row per coefficient; latex marks an unsupported method by a row
        latex = fmt == "latex"
        rows = []
        for name, exp in methods.items():
            if exp is None:
                if latex:
                    rows.append((name, "-", "unsupported", "-"))
                continue
            rows.extend((name, str(j), f"${b}$" if latex else b, "yes" if exp.exact else "no")
                        for j, b in zip(exp.indices(), coefficients[name]))
        header = ("method", "j", "coefficient", "exact")
        return _document(_tabular(header, rows) if latex else _csv(header, rows))
    lines = [f"q = {render_x_poly(q, sym)}", f"k = {k}, {TEXT_SYMBOL} = {label}"]
    for name, exp in methods.items():
        if exp is None:
            lines.append(f"{name}: unsupported for {TEXT_SYMBOL} = 1")
            continue
        window = f"j={exp.j_lo}..{exp.j_hi}" if exp.j_lo <= exp.j_hi else "empty window"
        lines.append("  ".join([
            f"{name}: exact={'yes' if exp.exact else 'no'}  {window}",
            *(f"b[{j}]={b}" for j, b in zip(exp.indices(), coefficients[name])),
            f"reconstruction={render_x_poly(exp.reconstruction, sym)}",
        ]))
    return _document(lines)


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
                line += f"  witness: {entry.witness.replace(MACHINE_SYMBOL, TEXT_SYMBOL)}"
            yield line
        yield (
            f"  summary: pass={report.summary.passed} fail={report.summary.failed}"
            f"  domain: {report.summary.validity_domain}"
        )
        yield ""


def _latex_escape(text: str) -> str:
    return text.replace("\\", "\\textbackslash{}").replace("_", "\\_")


def _report_rows(report: IdentityReport, name: str, blank: str, symbolic: str):
    """The cells of each result, ``blank`` for a coordinate it lacks."""
    for entry in report.results:
        point = entry.point
        yield (
            name if entry.variant is None else f"{name}:{entry.variant}",
            str(point.n),
            blank if point.k is None else str(point.k),
            blank if point.mode is None else point.mode.label().replace("symbolic", symbolic),
            blank if point.y is None else render_rational(point.y),
            "pass" if entry.passed else "fail",
        )


def _latex_lines(reports: Sequence[IdentityReport]) -> Iterable[str]:
    for report in reports:
        name = _latex_escape(report.identity.value)
        yield f"% {name}"
        yield from _tabular(("identity", "n", "k", "$\\lambda$", "y", "verdict"),
                            _report_rows(report, name, "-", "$\\lambda$"))
        yield ""


def _csv_lines(reports: Sequence[IdentityReport]) -> Iterable[str]:
    return _csv(("identity", "n", "k", "lambda", "y", "verdict"),
                (cells for report in reports
                 for cells in _report_rows(report, report.identity.value, "", "symbolic")))


# The line writer of each format but json.
_REPORT_LINES = {"text": _text_lines, "latex": _latex_lines, "csv": _csv_lines}


def render_report(reports: Sequence[IdentityReport], fmt: str) -> str:
    """Render reports in one of json, text, latex, csv."""
    if fmt == "json":
        return reports_to_json(reports)
    if fmt not in _REPORT_LINES:
        raise ValueError(f"unknown format: {fmt!r}")
    return _document(_REPORT_LINES[fmt](reports))
