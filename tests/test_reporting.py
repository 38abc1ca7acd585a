"""Report serialization: schema, formats, determinism, expectations."""

import ast
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import apobern
from apobern import (
    IdentityId,
    SuiteConfig,
    default_grid,
    expectation_from_reports,
    expectation_mismatches,
    render_report,
    report_to_dict,
    reports_to_json,
    run_suite,
    verify_identity,
)
from apobern.identities import GridPoint, IdentityReport, IdentitySummary, ResultEntry

from _util import ALL_MODES


@pytest.fixture(scope="module")
def sample_reports():
    config = SuiteConfig(
        ids=(IdentityId.ID_THM1, IdentityId.ID_EULER_RAMANUJAN), max_n=4, max_k=1
    )
    return run_suite(config)


def test_json_schema_fields(sample_reports):
    payload = json.loads(reports_to_json(sample_reports))
    assert [item["identity"] for item in payload] == [
        "ID_THM1",
        "ID_EULER_RAMANUJAN",
    ]
    for item in payload:
        assert set(item) == {"identity", "grid", "results", "summary"}
        assert set(item["summary"]) == {"pass", "fail", "validity_domain"}
        for point in item["grid"]:
            assert set(point) == {"n", "k", "lambda", "y"}
        for result in item["results"]:
            assert set(result) == {"point", "verdict", "witness"}
            assert result["verdict"] in ("pass", "fail")
            assert set(result["point"]) == {"n", "k", "lambda", "y", "variant"}
            if result["verdict"] == "pass":
                assert result["witness"] is None
            else:
                assert result["witness"]


def test_json_lambda_spelled_machine_readable(sample_reports):
    text = reports_to_json(sample_reports)
    payload = json.loads(text)
    thm1 = payload[0]
    labels = {p["lambda"] for p in thm1["grid"]}
    assert labels == {"symbolic", "2", "-2", "1/3"}
    witnesses = [
        r["witness"] for r in thm1["results"] if r["witness"] is not None
    ]
    assert witnesses and all("λ" not in w for w in witnesses)
    assert any("L" in w for w in witnesses)


def test_text_format_uses_greek_symbol(sample_reports):
    text = render_report(sample_reports, "text")
    assert "λ=symbolic" in text
    assert "witness" in text
    assert "== ID_THM1 ==" in text
    # the basis-formula counterexample witness, spelled with the symbol
    assert "-x - λ/(λ-1)" in text


def test_csv_columns(sample_reports):
    lines = render_report(sample_reports, "csv").splitlines()
    assert lines[0] == "identity,n,k,lambda,y,verdict"
    body = lines[1:]
    assert all(line.count(",") == 5 for line in body)
    assert any(line.startswith("ID_THM1:corrected,") for line in body)
    assert any(line.startswith("ID_EULER_RAMANUJAN,2,,,,fail") for line in body)


def test_latex_format(sample_reports):
    text = render_report(sample_reports, "latex")
    assert "\\begin{tabular}" in text
    assert "ID\\_THM1" in text


def test_reporting_alone_writes_documents():
    # no module but reporting serializes JSON or writes a LaTeX tabular,
    # and cli reads no private name of render or reporting
    package = Path(apobern.__file__).parent
    for path in sorted(package.rglob("*.py")):
        module = path.relative_to(package).as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if module != "reporting.py":
                assert not (isinstance(node, ast.Attribute) and node.attr == "dumps"), module
                assert not (isinstance(node, ast.ImportFrom) and node.module == "json"), module
                assert not (isinstance(node, ast.Constant) and isinstance(node.value, str)
                            and "{tabular}" in node.value), module
            if module == "cli.py" and isinstance(node, ast.ImportFrom) and node.module in (
                    "render", "reporting", "apobern.render", "apobern.reporting"):
                private = [a.name for a in node.names if a.name.startswith("_")]
                assert not private, (node.module, private)


def test_unknown_format(sample_reports):
    with pytest.raises(ValueError):
        render_report(sample_reports, "yaml")


def test_render_json_byte_deterministic(sample_reports):
    config = SuiteConfig(
        ids=(IdentityId.ID_THM1, IdentityId.ID_EULER_RAMANUJAN), max_n=4, max_k=1
    )
    again = run_suite(config)
    assert reports_to_json(again) == reports_to_json(sample_reports)


def test_expectation_roundtrip(sample_reports):
    expected = expectation_from_reports(sample_reports)
    parsed = json.loads(expected)
    for item in parsed:
        for result in item["results"]:
            assert "witness" not in result
    assert expectation_mismatches(sample_reports, expected) == []


def test_expectation_detects_changes(sample_reports):
    expected = json.loads(expectation_from_reports(sample_reports))
    expected[0]["results"][0]["verdict"] = "fail"
    mismatches = expectation_mismatches(sample_reports, json.dumps(expected))
    assert mismatches == ["ID_THM1: verdict pattern differs from expectation"]
    missing = expectation_mismatches(sample_reports, json.dumps(expected[1:]))
    assert missing == ["ID_THM1: no expectation recorded"]


def test_subset_check_against_full_expectation():
    full = expectation_from_reports(
        run_suite(SuiteConfig(ids=(IdentityId.ID_DERIV, IdentityId.ID_DIFF)))
    )
    subset = run_suite(SuiteConfig(ids=(IdentityId.ID_DIFF,)))
    assert expectation_mismatches(subset, full) == []


def test_report_to_dict_grid_unique_points():
    report = verify_identity(IdentityId.ID_THM1, default_grid(IdentityId.ID_THM1, 2, 1))
    payload = report_to_dict(report)
    # two variants share each grid point; the grid lists each point once
    assert len(payload["grid"]) * 2 >= len(payload["results"])
    seen = [json.dumps(p, sort_keys=True) for p in payload["grid"]]
    assert len(seen) == len(set(seen))


# Strings with what JSON must escape: quotes, backslashes, control
# characters and non-ASCII, including characters beyond the BMP.
_texts = st.text(st.sampled_from('"\\/\n\t\x00\x1f\x7f aL\u03bb\u00e9\u20ac\U0001d505') | st.characters(),
                 max_size=8)
_points = st.builds(
    GridPoint,
    n=st.integers(0, 2) | st.integers(-10**20, 10**20),
    k=st.none() | st.integers(0, 2),
    mode=st.none() | st.sampled_from(ALL_MODES),
    y=st.none() | st.fractions(max_denominator=9),
)
_entries = st.builds(ResultEntry, point=_points, variant=st.none() | _texts,
                     passed=st.booleans(), witness=st.none() | _texts)
_reports = st.builds(
    IdentityReport,
    identity=st.sampled_from(IdentityId),
    results=st.lists(_entries, max_size=4).map(tuple),
    summary=st.builds(IdentitySummary, passed=st.integers(0, 99), failed=st.integers(0, 99),
                      validity_domain=_texts),
)


@settings(deadline=None)
@given(st.lists(_reports, max_size=2), st.booleans())
def test_json_writer_matches_json_dumps(reports, include_witness):
    # the reference: the payload through json.dumps
    payload = [report_to_dict(r, include_witness) for r in reports]
    expected = json.dumps(payload, indent=2, ensure_ascii=True) + "\n"
    assert reports_to_json(reports, include_witness) == expected
