"""Command-line interface: documented commands, formats, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import sys
from functools import lru_cache
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apobern import IdentityId, report_to_dict, run_suite
from apobern import cli, reporting
from apobern.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_numbers_symbolic_text(capsys):
    code, out, err = run_cli(
        capsys,
        "numbers",
        "--family",
        "apostol-bernoulli",
        "--k",
        "1",
        "--n",
        "2",
        "--lambda",
        "symbolic",
        "--format",
        "text",
    )
    assert code == 0 and not err
    lines = out.splitlines()
    assert lines[1] == "B_0 = 0"
    assert lines[2] == "B_1 = 1/(λ-1)"
    assert lines[3] == "B_2 = -2λ/(λ-1)^2"


def test_numbers_json_machine_symbol(capsys):
    code, out, _ = run_cli(
        capsys, "numbers", "--k", "1", "--n", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["values"][2]["value"] == "-2L/(L-1)^2"


def test_numbers_classical_families(capsys):
    code, out, _ = run_cli(
        capsys, "numbers", "--family", "bernoulli", "--n", "4", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines()[-1] == "bernoulli,1,1,4,-1/30"
    code, out, _ = run_cli(
        capsys, "numbers", "--family", "euler", "--n", "4", "--format", "text"
    )
    assert code == 0
    assert out.splitlines()[-1] == "E_4 = 5"
    # the values the classical tables stand for, spelled out, change nothing
    assert run_cli(capsys, "numbers", "--family", "euler", "--n", "4", "--format", "text",
                   "--k", "1", "--lambda", "1")[1] == out


def test_poly_monomial_case(capsys):
    code, out, _ = run_cli(
        capsys, "poly", "--family", "apostol-bernoulli", "--k", "0", "--n", "3",
        "--lambda", "2",
    )
    assert code == 0
    assert out == "x^3\n"


def test_poly_json(capsys):
    code, out, _ = run_cli(
        capsys, "poly", "--k", "1", "--n", "1", "--lambda", "1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["poly"] == "x - 1/2"
    assert payload["coefficients"] == ["-1/2", "1"]


def test_expand_three_way(capsys):
    code, out, _ = run_cli(
        capsys, "expand", "--coeffs", "0,1", "--k", "1", "--lambda", "symbolic",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["methods"]["oracle"]["exact"] is True
    assert payload["methods"]["oracle"]["coefficients"] == ["L", "L/2-1/2"]
    assert payload["methods"]["closed-form"]["exact"] is False
    assert payload["methods"]["closed-form"]["reconstruction"] == "-L/(L-1)"
    assert payload["methods"]["corrected"]["exact"] is True


def test_expand_corrected_unsupported_at_one(capsys):
    code, out, _ = run_cli(
        capsys, "expand", "--coeffs", "0,1", "--k", "1", "--lambda", "1",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["methods"]["corrected"] == {"supported": False}
    assert payload["methods"]["oracle"]["exact"] is True


def test_verify_subset_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--ids", "ID_HANSEN", "--max-m", "6", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["identity"] == "ID_HANSEN"
    assert payload[0]["summary"]["fail"] == 0
    assert all(r["verdict"] == "pass" for r in payload[0]["results"])


def test_verify_expectation_mismatch_exits_1(capsys, tmp_path):
    bad = tmp_path / "expect.json"
    bad.write_text(
        json.dumps(
            [{"identity": "ID_EULER_RAMANUJAN", "grid": [], "results": [], "summary": {}}]
        )
    )
    code, _, err = run_cli(
        capsys, "verify", "--ids", "ID_EULER_RAMANUJAN", "--expect", str(bad),
        "--format", "csv",
    )
    assert code == 1
    assert "expectation mismatch" in err


def test_verify_unreadable_expectation_file_exits_2_before_running(capsys, tmp_path):
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b"\xff[]")
    for path in (tmp_path / "missing.json", not_utf8):
        code, out, err = run_cli(capsys, "verify", "--ids", "ID_EULER_RAMANUJAN", "--expect", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: cannot read expectation file: ") and err.count("\n") == 1


# what a malformed expectation file is reported as, where it is not JSON
_DEEP = "[" * 100_000
_NOT_JSON = {
    "{a": "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
    "": "Expecting value: line 1 column 1 (char 0)",
    _DEEP: "maximum recursion depth exceeded while decoding a JSON array from a unicode string",
}


@pytest.mark.parametrize("content", [
    '{"a": 1}', '"text"', "[1]", '[{"grid": []}]', "{a", "", pytest.param(_DEEP, id="deeply-nested"),
])
def test_verify_malformed_expectation_file_exits_2(capsys, tmp_path, content):
    bad = tmp_path / "expect.json"
    bad.write_text(content)
    code, out, err = run_cli(
        capsys, "verify", "--ids", "ID_EULER_RAMANUJAN", "--expect", str(bad), "--format", "csv",
    )
    assert code == 2 and out == ""
    reason = f"not JSON: {_NOT_JSON[content]}" if content in _NOT_JSON else (
        "expected a list of identity objects")
    assert err == f"error: malformed expectation file: {reason}\n"


def test_verify_write_expect_and_recheck(capsys, tmp_path):
    target = tmp_path / "observed.json"
    code, _, _ = run_cli(
        capsys, "verify", "--ids", "ID_EULER_RAMANUJAN", "--write-expect", str(target),
        "--format", "csv",
    )
    assert code == 0
    code, _, err = run_cli(
        capsys, "verify", "--ids", "ID_EULER_RAMANUJAN", "--expect", str(target),
        "--format", "csv",
    )
    assert code == 0 and "mismatch" not in err


def test_expect_and_write_expect_on_one_file_compare_the_old_content(capsys, tmp_path):
    target = tmp_path / "expect.json"
    target.write_text("[]\n", encoding="utf-8")
    argv = ("verify", "--ids", "ID_EULER_RAMANUJAN", "--format", "csv")
    code, _, err = run_cli(capsys, *argv, "--expect", str(target), "--write-expect", str(target))
    assert code == 1 and "ID_EULER_RAMANUJAN: no expectation recorded" in err
    assert run_cli(capsys, *argv, "--expect", str(target))[0] == 0


def test_failed_write_expect_keeps_the_old_file(capsys, tmp_path, monkeypatch):
    target = tmp_path / "observed.json"
    target.write_text("old\n", encoding="utf-8")

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("os.replace", refuse)
    code, _, err = run_cli(
        capsys, "verify", "--ids", "ID_EULER_RAMANUJAN", "--write-expect", str(target),
        "--format", "csv",
    )
    assert code == 1 and "disk full" in err
    assert target.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["observed.json"]


# One suite run per configuration serves every expectation case below.
_cached_suite = lru_cache(maxsize=None)(run_suite)


def _expectation_variant(edit: str) -> str:
    """The packaged expectation file, as shipped or edited."""
    text = resources.files("apobern").joinpath("data", "expected_verdicts.json").read_text(
        encoding="utf-8")
    items = json.loads(text)
    if edit == "packaged":
        return text
    if edit == "compact":
        return json.dumps(items, separators=(",", ":"))
    derivative = next(item for item in items if item["identity"] == "ID_DERIV")
    if edit == "flipped":
        result = derivative["results"][0]
        result["verdict"] = "fail" if result["verdict"] == "pass" else "pass"
    elif edit == "removed":
        items = [item for item in items if item["identity"] != "ID_EULER_RAMANUJAN"]
    elif edit == "duplicated":
        items.append(derivative)
    return json.dumps(items, indent=2) + "\n"


def _parse_only_mismatches(reports, expected_text):
    # The reference: every identity compared against the parsed file.
    expected = {item["identity"]: item for item in json.loads(expected_text)}
    out = []
    for report in reports:
        name = report.identity.value
        if name not in expected:
            out.append(f"{name}: no expectation recorded")
        elif report_to_dict(report, include_witness=False) != expected[name]:
            out.append(f"{name}: verdict pattern differs from expectation")
    return out


@pytest.mark.parametrize("edit", ["packaged", "compact", "flipped", "removed", "duplicated"])
@pytest.mark.parametrize("ids", [None, "ID_DERIV,ID_EULER_RAMANUJAN"])
def test_expectation_text_match_agrees_with_the_parse(capsys, tmp_path, monkeypatch, edit, ids):
    runs = []

    def suite(config):
        runs.append(_cached_suite(config))
        return runs[-1]

    monkeypatch.setattr(cli, "run_suite", suite)
    expected_text = _expectation_variant(edit)
    path = tmp_path / "expect.json"
    path.write_text(expected_text, encoding="utf-8")
    argv = ["verify", "--format", "json", "--expect", str(path), "--output", str(tmp_path / "r")]
    code, _, err = run_cli(capsys, *argv, *(["--ids", ids] if ids else []))
    reference = _parse_only_mismatches(runs[0], expected_text)
    assert bool(reference) == (edit in ("flipped", "removed"))
    assert err.splitlines() == [f"expectation mismatch: {line}" for line in reference]
    assert code == (1 if reference else 0)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_default_verify_settles_the_expectation_without_parsing(capsys, tmp_path, monkeypatch, fmt):
    monkeypatch.setattr(cli, "run_suite", _cached_suite)
    loads = []
    parse = reporting.json.loads
    monkeypatch.setattr(reporting.json, "loads", lambda *a, **k: loads.append(a) or parse(*a, **k))
    code, _, err = run_cli(capsys, "verify", "--format", fmt, "--output", str(tmp_path / "r"))
    assert (code, err, loads) == (0, "", [])


def test_output_file(capsys, tmp_path):
    out_file = tmp_path / "table.json"
    code, out, _ = run_cli(
        capsys, "numbers", "--n", "2", "--format", "json", "--output", str(out_file)
    )
    assert code == 0 and out == ""
    payload = json.loads(out_file.read_text(encoding="utf-8"))
    assert payload["k"] == 1
    assert [p.name for p in tmp_path.iterdir()] == ["table.json"]


def test_output_through_a_link_or_into_a_pipe(capsys, tmp_path):
    # a link keeps pointing at the file it names; a pipe is written in place
    import os
    import threading

    argv = ("numbers", "--n", "2", "--format", "json", "--output")
    real = tmp_path / "real.json"
    real.write_text("old", encoding="utf-8")
    link = tmp_path / "link.json"
    link.symlink_to(real)
    assert run_cli(capsys, *argv, str(link))[0] == 0
    assert link.is_symlink() and json.loads(real.read_text(encoding="utf-8"))["k"] == 1
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text(encoding="utf-8")), daemon=True)
    reader.start()
    assert run_cli(capsys, *argv, str(fifo))[0] == 0
    reader.join(timeout=10)
    assert got and json.loads(got[0])["k"] == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "link.json", "real.json"]


@pytest.mark.parametrize("argv", [
    ("numbers", "--n", "2", "--output"),
    ("verify", "--ids", "ID_EULER_RAMANUJAN", "--output", os.devnull, "--write-expect"),
], ids=["output", "write-expect"])
def test_unwritable_output_exits_1_with_one_line(capsys, tmp_path, argv):
    # the error names the path the user gave, not the temporary file
    target = tmp_path / "missing" / "table.json"
    code, out, err = run_cli(capsys, *argv, str(target))
    assert code == 1 and out == ""
    assert "No such file or directory" in err and err.count("\n") == 1
    assert f"{str(target)!r}" in err and ".tmp" not in err
    assert list(tmp_path.iterdir()) == []


def test_closed_pipe_exits_1_without_traceback():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "apobern", "numbers", "--n", "3"],
            stdout=write_end, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src),
        )
    finally:
        os.close(write_end)
    assert done.returncode == 1 and done.stderr == b""


def test_byte_identical_output(capsys):
    commands = [
        ("verify", "--ids", "ID_THM1", "--format", "json"),
        ("numbers", "--k", "2", "--n", "5", "--format", "json"),
        ("poly", "--k", "2", "--n", "5", "--lambda", "1/3", "--format", "csv"),
        ("expand", "--coeffs", "1/2,0,3", "--k", "2", "--format", "text"),
    ]
    for argv in commands:
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second, argv


# sha256 of each document, in the order json, text, latex, csv, of the
# calc requests that the recorded benchmark digests never reach: the
# classical tables, an apostol table at lambda = 0, an order-0 and a
# symbolic polynomial, an expansion whose corrected route is unsupported
# and one with empty windows.
CALC_DOCUMENT_DIGESTS = {
    "numbers --family bernoulli --n 6 --lambda 1": (
        "a9eced7cd5c7e5b418862800a0879be23cf4739eba7a7ff471e0cdadf721a4eb",
        "a59f43660dc97058cb03658130a4c5c7d1edf4f26cdae09706233de42e6814f3",
        "cc8d0b51e3230ed679d5dab9cbf27e58a354d0125ba8a1558ae1e30186a8a646",
        "d9c6deaeff7272f3858a3e08d64487573251345375ff3586d6a6cb3ae479e8de",
    ),
    "numbers --family bernoulli --n 6 --lambda symbolic": (
        "a9eced7cd5c7e5b418862800a0879be23cf4739eba7a7ff471e0cdadf721a4eb",
        "a59f43660dc97058cb03658130a4c5c7d1edf4f26cdae09706233de42e6814f3",
        "cc8d0b51e3230ed679d5dab9cbf27e58a354d0125ba8a1558ae1e30186a8a646",
        "d9c6deaeff7272f3858a3e08d64487573251345375ff3586d6a6cb3ae479e8de",
    ),
    "numbers --family euler --n 6 --lambda 1": (
        "71b3193d60411b1cb7596ca73441fc1392d3b10010cf62abbe746d48b313fef2",
        "599f5dc2443b086afd97714fd8cec3e941cc737d729de559ffd71949c49e809f",
        "d6b90cec841ec4249604a34121a5965b6831144d6b6212f72e135f06df61b81e",
        "a0d536654d568719ffb6b5b11152a72876cb60ee279e5520db54d2229f14116a",
    ),
    "numbers --family euler --n 6 --lambda symbolic": (
        "71b3193d60411b1cb7596ca73441fc1392d3b10010cf62abbe746d48b313fef2",
        "599f5dc2443b086afd97714fd8cec3e941cc737d729de559ffd71949c49e809f",
        "d6b90cec841ec4249604a34121a5965b6831144d6b6212f72e135f06df61b81e",
        "a0d536654d568719ffb6b5b11152a72876cb60ee279e5520db54d2229f14116a",
    ),
    "numbers --family apostol-euler --k 2 --n 5 --lambda 0": (
        "2a92bb0e05b9323c90a8cf5f2f70281053a7f752d921df403b454f4e4fc3ef56",
        "fd91a295761fbd1a2ec8cb3506448f2285b5ce9a431e36110c89f391360ec188",
        "94aba22370ceaa05ea7cb621e277f1b8d5ec250fcf6e31d90a3360b02871e0c6",
        "0fe1ae97838728048e22915407d082bedb07afc555eb5c835708924214179059",
    ),
    "poly --k 0 --n 0": (
        "113978f53d5270567650065f1dba9677aef7bbaef24580d89c9ebb4ad89b9cd1",
        "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
        "06399b9faa85a6e8bc8febe1ef72bee73aea9429b66cb81b1ba54e4fdbd4a0ac",
        "297c93115d7c3941a1d6a0df7d2c2606cf775167f757e11b1bb9f47f2474a873",
    ),
    "poly --family apostol-euler --k 2 --n 3 --lambda symbolic": (
        "bb95f311a1d856b231aff7354ec48fe29999fbb6405166476651a22242649a67",
        "38c587772fe4d79c32f6dd9702f2fc32a731440ce46c69785b56fa6d8bb6e3a7",
        "2a96723dd3b905a5599ff76280471e3bb9e3b1bce6ff25ef9be38d217f2c037f",
        "f0c3462fec626fec4ce0bbf86992918e49ec8e44f8948e9c521e03cea196087c",
    ),
    "expand --coeffs 1/2,0,-3 --k 2 --lambda 1": (
        "7bcda3be871913bf85ac22b185c23d53f4bf46227b2b6d67c0e4a23f44fd0ef5",
        "5697f57d61337a22e461272471dcb93c1b06f2b96fd836177d822950a48243af",
        "426e9e02e50250ea6e9cb36f05eb395ff047a3980a1925941e91182490745697",
        "8d8b06474660d259b934b2f0ae70b16f86f7b3fdeeee6a56776fb58d7c73349d",
    ),
    "expand --coeffs=0 --k 1 --lambda=-1": (
        "3029dc1c391f5d243a9be875f90dd3351d6a71c01f4e6f108793b5b3593b89d1",
        "8c63467479a2d2fbb26354f7480da8b7e0c5f3feff1b76ff5bcfe98bff61a40a",
        "72f24412734559668e86ed9bcd1a8796c9fbef77efe86f4b964d9ff9d834c0c4",
        "3ddfb07a163a04c17cec2490cbee0d68c2034d77b7d7a2b5ed8749eb12dcb040",
    ),
}


@pytest.mark.parametrize("request_line", sorted(CALC_DOCUMENT_DIGESTS))
def test_calc_documents_match_their_recorded_digests(capsys, request_line):
    for fmt, digest in zip(("json", "text", "latex", "csv"), CALC_DOCUMENT_DIGESTS[request_line]):
        code, out, err = run_cli(capsys, *request_line.split(), "--format", fmt)
        assert code == 0 and not err, (request_line, fmt)
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, (request_line, fmt)


def test_console_entry_point_subprocess():
    out = _fresh_process(
        "-m", "apobern", "poly", "--family", "apostol-bernoulli",
        "--k", "0", "--n", "3", "--lambda", "2",
    )
    assert out.returncode == 0
    assert out.stdout == "x^3\n"


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, "numbers", "--n", "2", "--lambda", "nonsense")[0] == 2
    assert run_cli(capsys, "numbers", "--family", "apostol-euler", "--n", "2",
                   "--lambda", "-1")[0] == 2
    assert run_cli(capsys, "verify", "--ids", "ID_NOPE")[0] == 2
    assert run_cli(capsys, "expand", "--coeffs", "1,,2")[0] == 2
    assert run_cli(capsys, "numbers", "--n", "2", "--bogus-flag")[0] == 2
    assert run_cli(capsys, "numbers", "--n", "-3")[0] == 2
    assert run_cli(capsys, "numbers", "--family", "euler", "--n", "-1")[0] == 2
    assert run_cli(capsys, "numbers", "--family", "bernoulli", "--n", "-1")[0] == 2
    # the classical tables have k = 1 and lambda = 1 only
    assert run_cli(capsys, "numbers", "--family", "bernoulli", "--k", "-5", "--n", "2")[0] == 2
    assert run_cli(capsys, "numbers", "--family", "euler", "--k", "7", "--n", "2",
                   "--lambda", "3")[0] == 2
    assert run_cli(capsys, "verify", "--max-n", "3", "--max-m", "5")[0] == 2
    # refused before any work: negative sizes, the Euler pole, empty grids
    for argv in (
        ("numbers", "--k", "-1", "--n", "2"),
        ("poly", "--n", "-1"),
        ("poly", "--k", "-2", "--n", "2", "--lambda", "2"),
        ("poly", "--family", "apostol-euler", "--n", "2", "--lambda", "-1"),
        ("expand", "--coeffs", "1,2", "--k", "-1"),
        ("verify", "--ids", "ID_DIFF", "--max-k", "0"),
        ("verify", "--max-n", "-1"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("error: "), argv


def test_an_empty_grid_is_refused_before_any_identity_runs(capsys, monkeypatch):
    # ID_EULER_RAMANUJAN's m starts at 2 and ID_DIFF's k at 1: the grids
    # before theirs are not empty, yet no checker may run
    from apobern import identities

    calls = []
    spec = identities._CATALOG[identities.IdentityId.ID_DERIV]
    monkeypatch.setitem(identities._CATALOG, identities.IdentityId.ID_DERIV,
                        spec._replace(checker=lambda points: calls.extend(points) or spec.checker(points)))
    for argv, empty in ((("verify", "--max-n", "1"), "ID_EULER_RAMANUJAN"),
                        (("verify", "--max-k", "0"), "ID_DIFF")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, calls) == (2, "", []), argv
        assert err == f"error: empty grid for {empty}\n"


def test_rationals_past_the_digit_limit_exit_2_before_any_work(capsys):
    # the limit counts an exponent's digits too, read from the text, so a
    # huge exponent is refused at once instead of building its integer
    many = "7" * 4301
    for argv in (
        ("numbers", "--n", "2", "--lambda=1e5000"),
        ("numbers", "--n", "2", "--lambda=1e16000000"),
        ("numbers", "--n", "2", "--lambda=-2.5E+99999999999999999999"),
        ("numbers", "--n", "2", f"--lambda={many}"),
        ("poly", "--n", "2", f"--lambda=1/{many}"),
        ("expand", "--coeffs=1e5000,1"),
        ("expand", "--coeffs=1,1e-4300"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "") and "more than 4300 digits" in err, argv[:2]
    for argv in (("expand", "--coeffs=1e4299,1e-4299", "--lambda=2"),
                 ("numbers", "--n", "1", f"--lambda={many[1:]}/{many[1:]}")):
        assert run_cli(capsys, *argv)[0] == 0, argv[:2]


def test_results_past_the_int_to_str_limit_print_and_parse_back(capsys):
    # q = 1 + 10^4299 x is a valid input whose order-16 expansion at
    # lambda = 2 has a numerator of more than 4300 digits: it prints in
    # full, and the interpreter's limit is back in force once main returns
    from fractions import Fraction

    from apobern import LambdaMode
    from apobern.expansion import expand_oracle
    from apobern.polynomials import XPolynomial

    limit = sys.get_int_max_str_digits()
    code, out, _ = run_cli(capsys, "expand", "--coeffs=1,1e4299", "--k", "16", "--lambda=2",
                           "--format", "json")
    assert code == 0 and sys.get_int_max_str_digits() == limit
    values = json.loads(out)["methods"]["oracle"]["coefficients"]
    assert max(len(v.split("/")[0].lstrip("-")) for v in values) > limit
    try:
        sys.set_int_max_str_digits(0)
        parsed = [Fraction(v) for v in values]
    finally:
        sys.set_int_max_str_digits(limit)
    q = XPolynomial([1, 10 ** 4299], LambdaMode.numeric(2))
    assert parsed == list(expand_oracle(q, 16).coefficients)


def test_pole_diagnostic_is_one_line(capsys):
    code, _, err = run_cli(
        capsys, "numbers", "--family", "apostol-euler", "--n", "2", "--lambda", "-1"
    )
    assert code == 2
    assert err.strip().count("\n") == 0
    assert "pole" in err


def test_value_errors_of_the_program_are_internal_faults(capsys, monkeypatch):
    # a ValueError raised by a checker or a family is a program fault:
    # exit 1, not the usage-error exit 2
    from apobern import cli, identities

    def broken(*args):
        raise ValueError("checker fault")

    spec = identities._CATALOG[identities.IdentityId.ID_DIFF]
    monkeypatch.setitem(identities._CATALOG, identities.IdentityId.ID_DIFF,
                        spec._replace(checker=broken))
    monkeypatch.setattr(cli, "apostol_bernoulli_numbers", broken)
    for argv in (("verify", "--ids", "ID_DIFF", "--format", "csv"), ("numbers", "--n", "2")):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1 and err == "internal error: checker fault\n", argv


def test_non_local_denominator_is_an_internal_fault(capsys, monkeypatch):
    # the error means a value left the symbolic ring: a program fault,
    # not bad input, so it must not share the usage-error exit code
    from apobern import NonLocalDenominatorError, cli

    def broken(*args):
        raise NonLocalDenominatorError("1/(L) has a denominator factor other than L-1 and L+1")

    assert not issubclass(NonLocalDenominatorError, (ValueError, ZeroDivisionError))
    monkeypatch.setattr(cli, "apostol_bernoulli_numbers", broken)
    argv = ["numbers", "--family", "apostol-bernoulli", "--n", "2", "--lambda", "symbolic"]
    assert cli.main(argv) == 1
    assert "denominator factor" in capsys.readouterr().err


def test_help_lists_documented_flags():
    parser = build_parser()
    sub_actions = next(
        a for a in parser._actions if isinstance(a, type(parser._actions[-1]))
        and hasattr(a, "choices") and a.choices
    )
    documented = {
        "numbers": {"--family", "--k", "--n", "--lambda", "--format", "--output"},
        "poly": {"--family", "--k", "--n", "--lambda", "--format", "--output"},
        "expand": {"--coeffs", "--k", "--lambda", "--format", "--output"},
        "verify": {
            "--ids", "--max-n", "--max-m", "--max-k", "--expect",
            "--write-expect", "--format", "--output",
        },
    }
    for name, flags in documented.items():
        sub = sub_actions.choices[name]
        help_text = sub.format_help()
        advertised = {
            opt
            for action in sub._actions
            for opt in action.option_strings
            if opt.startswith("--")
        }
        assert advertised == flags | {"--help"}
        for flag in flags:
            assert flag in help_text


def _fresh_process(*args, **env):
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src, **env)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_a_cold_dev_mode_verify_writes_the_pinned_report_and_no_warning():
    # a cold process imports every module with warnings raised as errors
    # and a fixed string-hash seed, and still writes the pinned bytes
    import hashlib

    out = _fresh_process("-X", "dev", "-W", "error", "-m", "apobern", "verify",
                         "--format", "json", PYTHONHASHSEED="12345")
    assert (out.returncode, out.stderr) == (0, "")
    document = out.stdout.encode("utf-8")
    assert len(document) == 1_040_751
    assert hashlib.sha256(document).hexdigest() == \
        "8b10395f36ea86147417353225162e6d4aa78af2cad360d378d69ec852e177d3"


def test_one_process_serves_requests_like_fresh_processes(capsys):
    # the parser is built once per process; reusing it across requests,
    # a usage error among them, changes no byte and no exit code
    requests = [
        ["numbers", "--k", "2", "--n", "4", "--lambda", "2", "--format", "json"],
        ["poly", "--family", "apostol-euler", "--k", "1", "--n", "3"],
        ["expand", "--coeffs", "1,0,1/2", "--k", "1", "--lambda", "1/3", "--format", "csv"],
        ["verify", "--ids", "ID_DERIV", "--max-n", "2", "--max-k", "1", "--format", "csv"],
        ["numbers", "--n", "2", "--bogus-flag"],
        ["poly", "--k", "2", "--n", "3", "--lambda", "symbolic", "--format", "latex"],
    ]
    in_process = [run_cli(capsys, *argv)[:2] for argv in requests]
    assert [code for code, _ in in_process] == [0, 0, 0, 0, 2, 0]
    for argv, (code, out) in zip(requests, in_process):
        fresh = _fresh_process("-m", "apobern", *argv)
        assert (fresh.returncode, fresh.stdout) == (code, out), argv


def test_cli_import_skips_dataclasses_and_inspect():
    probe = (
        "import sys; import apobern.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = _fresh_process("-S", "-c", probe)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


def _run_under_stop_loop(argv, env, tick_s):
    # Stops and resumes the child every tick_s while it runs, as the
    # benchmark harness does to sample host speed; only this child is
    # signalled.  Returns (exit code, stdout bytes).
    import os
    import signal
    import subprocess
    import threading
    import time

    with subprocess.Popen(
        argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as proc:
        outputs = {}
        readers = [
            threading.Thread(target=lambda: outputs.update(out=proc.stdout.read())),
            threading.Thread(target=lambda: outputs.update(err=proc.stderr.read())),
        ]
        for reader in readers:
            reader.start()
        while True:
            time.sleep(tick_s)
            os.kill(proc.pid, signal.SIGSTOP)  # a zombie ignores it
            _, status = os.waitpid(proc.pid, os.WUNTRACED)
            if not os.WIFSTOPPED(status):
                break
            os.kill(proc.pid, signal.SIGCONT)
        for reader in readers:
            reader.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, outputs["out"]


def test_report_survives_stops_during_a_large_write():
    # A stop that lands while the child blocks on a full pipe cuts the
    # write short; the report must still arrive whole, with exit 0.  It is
    # about four times the 64 KiB pipe buffer, so the child blocks several
    # times, and a stop every 0.5 ms lands in one of those writes in most
    # runs.
    import os
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED="1")
    argv = [sys.executable, "-m", "apobern", "verify", "--ids", "ID_THM4", "--format", "json"]
    expected = _fresh_process(*argv[1:]).stdout.encode("utf-8")
    assert len(expected) > 3 * 65536
    for _ in range(8):
        code, out = _run_under_stop_loop(argv, env, 0.0005)
        assert code == 0 and len(out) == len(expected) and out == expected


# -- generated argv: well-formed requests exit 0, malformed ones exit 2 --------

_SIGNS = st.sampled_from(("", "-", "+"))
_DIGITS = st.text("0123456789", min_size=1, max_size=5)
_EXPONENTS = st.one_of(st.integers(0, 6000), st.integers(0, 10 ** 30))
_RATIONAL_TEXT = st.one_of(
    st.fractions(max_denominator=40).map(str),
    st.sampled_from(("symbolic", "1", "-1", "0", "1.0", "-1e0", "0.5", "3/2")),
    st.builds("{}{}.{}e{}{}".format, _SIGNS, _DIGITS, _DIGITS, _SIGNS, _EXPONENTS),
    st.builds("{}{}E{}{}".format, _SIGNS, _DIGITS, _SIGNS, _EXPONENTS),
    st.text("0123456789/.eE+-_ ", max_size=10),
    st.text(max_size=6),
)
_ID_NAMES = st.sampled_from([i.name for i in IdentityId] + ["ID_NOPE", "", " "])
_SMALL = st.integers(-1, 3)


@st.composite
def _requests(draw):
    command = draw(st.sampled_from(("numbers", "poly", "expand", "verify")))
    fmt = ("--format", draw(st.sampled_from(("text", "json", "csv", "latex"))))
    if command == "verify":
        ids = draw(st.one_of(st.lists(_ID_NAMES, max_size=3).map(",".join), st.text(max_size=8)))
        return ("verify", f"--ids={ids}", "--max-n", str(draw(_SMALL)),
                "--max-k", str(draw(_SMALL))) + fmt
    lam = f"--lambda={draw(_RATIONAL_TEXT)}"
    k = ("--k", str(draw(_SMALL)))
    if command == "expand":
        coeffs = draw(st.one_of(st.lists(_RATIONAL_TEXT, min_size=1, max_size=3).map(",".join),
                                st.text(max_size=8)))
        return ("expand", f"--coeffs={coeffs}", lam) + k + fmt
    families = ("apostol-bernoulli", "apostol-euler") + (
        ("bernoulli", "euler") if command == "numbers" else ())
    return (command, f"--family={draw(st.sampled_from(families))}", "--n", str(draw(_SMALL)),
            lam) + k + fmt


@settings(max_examples=150, deadline=None)
@given(argv=_requests())
def test_generated_requests_exit_0_or_2_never_1(argv):
    from apobern.families import clear_caches

    clear_caches()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code in (0, 2), (argv, err.getvalue())
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: "), argv


# -- out-of-bound calc sizes: refused with exit 2 before any table is built ---

_FORMATS = ("text", "json", "csv", "latex")
# "lambda": the largest table index a request reads (--n, or for expand --k
# plus the degree) times the bits of lambda's numerator and denominator
_LIMITS = {"k": 16, "n-numeric": 400, "n-symbolic": 100, "coeffs": 51, "lambda": 2400}
_CLASSICAL = ("bernoulli", "euler")


def _lambdas(family: str) -> tuple:
    # the classical tables take lambda 1 only, however it is spelled
    return ("symbolic", "1") if family in _CLASSICAL else ("symbolic", "1", "2", "1/3", "-1/2")


def _shapes():
    """(command, family) of every calc request; expand has no family."""
    yield from (("numbers", f) for f in ("apostol-bernoulli", "apostol-euler") + _CLASSICAL)
    yield from (("poly", f) for f in ("apostol-bernoulli", "apostol-euler"))
    yield "expand", None


def _sized_flags(command: str, family: str, lam: str) -> tuple:
    if command == "expand":
        return "k", "coeffs"
    if family in _CLASSICAL:  # order 1 only, a tighter bound than the limit's
        return ("n-numeric",)
    return "k", "n-symbolic" if lam == "symbolic" else "n-numeric"


def _sized_request(command, family, lam, fmt, sizes) -> tuple:
    """The calc request of ``sizes`` (a value per sized flag)."""
    tail = ("--k", str(sizes.get("k", 1)), f"--lambda={lam}", "--format", fmt)
    if command == "expand":
        return ("expand", "--coeffs=" + ",".join(["1"] * sizes.get("coeffs", 2))) + tail
    n = sizes.get("n-numeric", sizes.get("n-symbolic"))
    return (command, f"--family={family}", "--n", str(n)) + tail


def _lambda_of_bits(bits: int) -> str:
    """A lambda whose numerator and denominator take ``bits`` bits, bits >= 4."""
    return f"-{2 ** (bits - 4)}/5"


def _assert_refused_at_once(argv):
    from time import perf_counter

    from apobern.families import clear_caches

    clear_caches()
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    seconds = perf_counter() - start
    assert (code, out.getvalue()) == (2, ""), argv[:4]
    assert err.getvalue().startswith("error: ") and seconds < 1.0, (argv[:4], seconds)


@pytest.mark.parametrize("command, family, lam, flag, fmt", [
    (command, family, lam, flag, fmt)
    for command, family in _shapes() for lam in ("symbolic", _lambdas(family)[-1])
    for flag in _sized_flags(command, family, lam) + (("lambda",) if lam == "-1/2" else ())
    for fmt in _FORMATS])
def test_a_size_one_past_its_limit_exits_2_at_once(command, family, lam, flag, fmt):
    # the other sizes are 1: without the limits each of these requests
    # runs in a few seconds and exits 0; at them the largest table index is
    # 1, so lambda's size is the bits of its numerator and denominator
    sizes = dict.fromkeys(_sized_flags(command, family, lam), 1)
    if flag == "lambda":
        lam = _lambda_of_bits(_LIMITS[flag] + 1)
    else:
        sizes[flag] = _LIMITS[flag] + 1
    _assert_refused_at_once(_sized_request(command, family, lam, fmt, sizes))


@st.composite
def _oversized_requests(draw):
    command, family = draw(st.sampled_from(list(_shapes())))
    lam = draw(st.sampled_from(_lambdas(family)))
    flags = _sized_flags(command, family, lam)
    # the other sizes anywhere inside their bounds: the refusal comes first
    sizes = {flag: draw(st.integers(0, _LIMITS[flag])) for flag in flags}
    if lam not in ("symbolic", "1") and draw(st.booleans()):
        # a lambda of up to 4,400 digits (past 4,300 the parser refuses it),
        # read at a table index past its share of the bound
        digits = draw(st.integers(11 if command == "expand" else 1, 4400))
        lam = f"-{'9' * digits}/8"
        least = _LIMITS["lambda"] // ((10 ** digits - 1).bit_length() + 4) + 1
        if command == "expand":
            sizes["k"] = draw(st.integers(max(0, least - 50), _LIMITS["k"]))
            sizes["coeffs"] = draw(st.integers(max(1, least - sizes["k"] + 1), _LIMITS["coeffs"]))
        else:
            sizes["n-numeric"] = draw(st.integers(least, _LIMITS["n-numeric"]))
    else:
        flag = draw(st.sampled_from(flags))
        # a coefficient takes two characters of the argument, so their count stops at 10^5
        sizes[flag] = draw(st.integers(_LIMITS[flag] + 1, 10 ** 5 if flag == "coeffs" else 10 ** 9))
    return _sized_request(command, family, lam, draw(st.sampled_from(_FORMATS)), sizes)


@settings(max_examples=100, deadline=None)
@given(argv=_oversized_requests())
def test_generated_oversized_requests_exit_2_at_once(argv):
    _assert_refused_at_once(argv)


def test_requests_at_the_limits_reach_the_computation(capsys, monkeypatch):
    # the limits are inclusive: a request at them passes every check and
    # reaches its table (stubbed here, since a real one takes seconds)
    def reached(*args):
        raise RuntimeError("reached")

    for name in ("apostol_bernoulli_numbers", "apostol_euler_poly",
                 "euler_numbers_by_recurrence", "expand_oracle"):
        monkeypatch.setattr(cli, name, reached)
    for argv in (("numbers", "--n", "100", "--k", "16"),
                 ("numbers", "--n", "400", "--k", "16", "--lambda=1/3"),
                 ("numbers", "--family", "euler", "--n", "400"),
                 ("poly", "--family", "apostol-euler", "--n", "100", "--k", "16"),
                 ("expand", "--coeffs=" + ",".join(["1"] * 51), "--k", "16"),
                 # the lambda bound: 400 * (3 + 3) bits, 1 * 2400 bits and 66 * 36 bits
                 ("numbers", "--n", "400", "--k", "16", "--lambda=-5/4"),
                 ("numbers", "--n", "1", "--k", "16", f"--lambda={_lambda_of_bits(2400)}"),
                 ("expand", "--coeffs=" + ",".join(["1"] * 51), "--k", "16",
                  f"--lambda={_lambda_of_bits(36)}")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (1, "", "internal error: reached\n"), argv[:3]
