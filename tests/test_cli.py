"""Command-line interface: documented commands, formats, exit codes."""

import json

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


def test_unwritable_output_exits_1_with_one_line(capsys, tmp_path):
    target = tmp_path / "missing" / "table.json"
    code, out, err = run_cli(capsys, "numbers", "--n", "2", "--output", str(target))
    assert code == 1 and out == ""
    assert "No such file or directory" in err and err.count("\n") == 1
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


def test_console_entry_point_subprocess():
    import subprocess
    import sys

    out = subprocess.run(
        [sys.executable, "-m", "apobern", "poly", "--family", "apostol-bernoulli",
         "--k", "0", "--n", "3", "--lambda", "2"],
        capture_output=True,
        text=True,
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


def test_pole_diagnostic_is_one_line(capsys):
    code, _, err = run_cli(
        capsys, "numbers", "--family", "apostol-euler", "--n", "2", "--lambda", "-1"
    )
    assert code == 2
    assert err.strip().count("\n") == 0
    assert "pole" in err


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


def _fresh_process(*args):
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


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
