"""Command-line front end: number tables, polynomials, basis expansions,
and the identity-verification suite.

Exit codes: 0 on success (for ``verify``, success additionally means the
verdict pattern matched the expectation file in force), 2 on usage errors
(bad flags, malformed rationals, pole configurations), 1 on internal
errors or expectation mismatches.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from importlib import resources
from typing import Optional, Sequence

from .expansion import (
    BasisExpansion,
    UnsupportedModeError,
    closed_form_coefficients,
    corrected_coefficients,
    expand_oracle,
    reconstruct,
)
from .families import (
    Family,
    apostol_bernoulli_numbers,
    apostol_bernoulli_poly,
    apostol_euler_numbers,
    apostol_euler_poly,
    bernoulli_numbers_by_recurrence,
    euler_numbers_by_recurrence,
)
from .field import LambdaMode, MixedModeError, PoleError, parse_rational
from .identities import GridBoundsError, IdentityId, SuiteConfig, run_suite
from .polynomials import XPolynomial
from .render import (
    LATEX_SYMBOL,
    MACHINE_SYMBOL,
    TEXT_SYMBOL,
    render_field_element,
    render_x_poly,
)
from .reporting import (
    FORMATS,
    expectation_from_reports,
    expectation_mismatches,
    render_report,
)

DEFAULT_EXPECTATION = "expected_verdicts.json"

_FAMILY_LETTER = {
    Family.APOSTOL_BERNOULLI: "B",
    Family.BERNOULLI: "B",
    Family.APOSTOL_EULER: "E",
    Family.EULER: "E",
}


class UsageError(Exception):
    """Bad arguments detected after parsing; exits with code 2."""


def _symbol_for(fmt: str) -> str:
    if fmt == "text":
        return TEXT_SYMBOL
    if fmt == "latex":
        return LATEX_SYMBOL
    return MACHINE_SYMBOL


def _parse_mode(text: str) -> LambdaMode:
    try:
        return LambdaMode.parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"malformed lambda value {text!r}: {exc}") from exc


def _parse_coeffs(text: str, mode: LambdaMode) -> XPolynomial:
    try:
        values = [parse_rational(part) for part in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"malformed coefficient list {text!r}: {exc}") from exc
    return XPolynomial(values, mode)


def _write_all(stream, document: str):
    # An unbuffered binary layer (python -u, PYTHONUNBUFFERED) may accept
    # only part of a write, for instance when a stop signal interrupts a
    # write into a full pipe, and the text layer drops the rest; so the
    # bytes go through the binary layer until every one is out.
    buffer = getattr(stream, "buffer", None)
    if buffer is None:  # an in-memory text stream
        stream.write(document)
        return
    data = memoryview(document.encode(stream.encoding, stream.errors))
    stream.flush()
    while data:
        data = data[buffer.write(data) :]
    buffer.flush()


def _write_file(path: str, document: str):
    # A temporary file in the same directory replaces the target, so a
    # failed or interrupted write never leaves half a document behind.
    # A device or pipe (say /dev/stdout) cannot be replaced and is written
    # in place; a symbolic link keeps pointing at the replaced file.
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(document)
        return
    target = os.path.realpath(path)
    partial = f"{target}.{os.getpid()}.tmp"
    try:
        with open(partial, "w", encoding="utf-8") as handle:
            handle.write(document)
        os.replace(partial, target)
    finally:
        if os.path.exists(partial):
            os.remove(partial)


def _emit(document: str, output: Optional[str]):
    """Write the whole document to stdout, or to the file ``output``; a
    failed write raises (exit 1)."""
    if output is None:
        _write_all(sys.stdout, document)
    else:
        _write_file(output, document)


# --------------------------------------------------------------------------
# numbers


def _numbers_table(family: Family, k: int, n_max: int, mode: LambdaMode):
    if family is Family.APOSTOL_BERNOULLI:
        return apostol_bernoulli_numbers(k, n_max, mode)
    if family is Family.APOSTOL_EULER:
        return apostol_euler_numbers(k, n_max, mode)
    if k != 1 or not (mode.is_symbolic or mode.is_one):
        raise UsageError(
            f"the classical {family.value} numbers have order 1 at lambda = 1: "
            "--k must be 1 and --lambda 1 or symbolic"
        )
    if family is Family.BERNOULLI:
        return bernoulli_numbers_by_recurrence(n_max)
    return euler_numbers_by_recurrence(n_max)


def _render_numbers(table, fmt: str) -> str:
    sym = _symbol_for(fmt)
    letter = _FAMILY_LETTER[table.family]
    if fmt == "json":
        payload = {
            "family": table.family.value,
            "k": table.k,
            "lambda": table.mode.label(),
            "values": [
                {"n": n, "value": render_field_element(v, sym)}
                for n, v in enumerate(table.values)
            ],
        }
        return json.dumps(payload, indent=2, ensure_ascii=True) + "\n"
    if fmt == "csv":
        lines = ["family,k,lambda,n,value"]
        for n, v in enumerate(table.values):
            lines.append(
                f"{table.family.value},{table.k},{table.mode.label()},{n},"
                f"{render_field_element(v, sym)}"
            )
        return "\n".join(lines) + "\n"
    if fmt == "latex":
        lines = ["\\begin{tabular}{ll}", "$n$ & value \\\\"]
        for n, v in enumerate(table.values):
            lines.append(f"{n} & ${render_field_element(v, sym)}$ \\\\")
        lines.append("\\end{tabular}")
        return "\n".join(lines) + "\n"
    lines = [f"family={table.family.value} k={table.k} {TEXT_SYMBOL}={table.mode.label()}"]
    for n, v in enumerate(table.values):
        lines.append(f"{letter}_{n} = {render_field_element(v, sym)}")
    return "\n".join(lines) + "\n"


def _cmd_numbers(args) -> int:
    family = Family(args.family)
    mode = _parse_mode(args.lam)
    table = _numbers_table(family, args.k, args.n, mode)
    _emit(_render_numbers(table, args.format), args.output)
    return 0


# --------------------------------------------------------------------------
# poly


def _cmd_poly(args) -> int:
    family = Family(args.family)
    mode = _parse_mode(args.lam)
    if family in (Family.APOSTOL_BERNOULLI, Family.BERNOULLI):
        poly = apostol_bernoulli_poly(args.n, args.k, mode)
    else:
        poly = apostol_euler_poly(args.n, args.k, mode)
    sym = _symbol_for(args.format)
    rendered = render_x_poly(poly, sym)
    if args.format == "json":
        payload = {
            "family": family.value,
            "k": args.k,
            "n": args.n,
            "lambda": mode.label(),
            "poly": rendered,
            "coefficients": [
                render_field_element(poly.coefficient(m), sym)
                for m in range(poly.degree + 1)
            ],
        }
        document = json.dumps(payload, indent=2, ensure_ascii=True) + "\n"
    elif args.format == "csv":
        lines = ["m,coefficient"]
        for m in range(poly.degree + 1):
            lines.append(f"{m},{render_field_element(poly.coefficient(m), sym)}")
        document = "\n".join(lines) + "\n"
    elif args.format == "latex":
        document = f"${rendered}$\n"
    else:
        document = rendered + "\n"
    _emit(document, args.output)
    return 0


# --------------------------------------------------------------------------
# expand


def _expansion_row(expansion: Optional[BasisExpansion], sym: str):
    if expansion is None:
        return {"supported": False}
    return {
        "supported": True,
        "exact": expansion.exact,
        "j_lo": expansion.j_lo,
        "j_hi": expansion.j_hi,
        "coefficients": [
            render_field_element(expansion.coefficient(j), sym)
            for j in expansion.indices()
        ],
        "reconstruction": render_x_poly(reconstruct(expansion), sym),
    }


def _cmd_expand(args) -> int:
    mode = _parse_mode(args.lam)
    q = _parse_coeffs(args.coeffs, mode)
    rows = {"oracle": expand_oracle(q, args.k)}
    rows["closed-form"] = closed_form_coefficients(q, args.k)
    try:
        rows["corrected"] = corrected_coefficients(q, args.k)
    except UnsupportedModeError:
        rows["corrected"] = None
    sym = _symbol_for(args.format)
    if args.format == "json":
        payload = {
            "q": render_x_poly(q, sym),
            "k": args.k,
            "lambda": mode.label(),
            "methods": {
                name: _expansion_row(exp, sym) for name, exp in rows.items()
            },
        }
        document = json.dumps(payload, indent=2, ensure_ascii=True) + "\n"
    elif args.format == "csv":
        lines = ["method,j,coefficient,exact"]
        for name, exp in rows.items():
            if exp is None:
                continue
            for j in exp.indices():
                lines.append(
                    f"{name},{j},{render_field_element(exp.coefficient(j), sym)},"
                    f"{'yes' if exp.exact else 'no'}"
                )
        document = "\n".join(lines) + "\n"
    elif args.format == "latex":
        lines = ["\\begin{tabular}{llll}", "method & j & coefficient & exact \\\\"]
        for name, exp in rows.items():
            if exp is None:
                lines.append(f"{name} & - & unsupported & - \\\\")
                continue
            for j in exp.indices():
                lines.append(
                    f"{name} & {j} & ${render_field_element(exp.coefficient(j), sym)}$ & "
                    f"{'yes' if exp.exact else 'no'} \\\\"
                )
        lines.append("\\end{tabular}")
        document = "\n".join(lines) + "\n"
    else:
        lines = [f"q = {render_x_poly(q, sym)}", f"k = {args.k}, {TEXT_SYMBOL} = {mode.label()}"]
        for name, exp in rows.items():
            if exp is None:
                lines.append(f"{name}: unsupported for {TEXT_SYMBOL} = 1")
                continue
            window = (
                f"j={exp.j_lo}..{exp.j_hi}" if exp.j_lo <= exp.j_hi else "empty window"
            )
            piece = [f"{name}: exact={'yes' if exp.exact else 'no'}  {window}"]
            for j in exp.indices():
                piece.append(f"b[{j}]={render_field_element(exp.coefficient(j), sym)}")
            piece.append(f"reconstruction={render_x_poly(reconstruct(exp), sym)}")
            lines.append("  ".join(piece))
        document = "\n".join(lines) + "\n"
    _emit(document, args.output)
    return 0


# --------------------------------------------------------------------------
# verify


def _parse_ids(text: Optional[str]):
    if text is None:
        return tuple(IdentityId)
    ids = []
    for part in text.split(","):
        name = part.strip()
        if not name:
            continue
        try:
            ids.append(IdentityId[name])
        except KeyError:
            raise UsageError(f"unknown identity: {name}") from None
    if not ids:
        raise UsageError("empty identity subset")
    return tuple(ids)


def _load_default_expectation() -> Optional[str]:
    ref = resources.files("apobern").joinpath("data").joinpath(DEFAULT_EXPECTATION)
    if not ref.is_file():
        return None
    return ref.read_text(encoding="utf-8")


def _cmd_verify(args) -> int:
    ids = _parse_ids(args.ids)
    try:
        config = SuiteConfig(ids=ids, max_n=args.max_n, max_k=args.max_k)
        reports = run_suite(config)
    except (GridBoundsError, ValueError) as exc:
        raise UsageError(str(exc)) from exc
    document = render_report(reports, args.format)
    _emit(document, args.output)
    if args.write_expect:
        with open(args.write_expect, "w", encoding="utf-8") as handle:
            handle.write(expectation_from_reports(reports))
    expected_text = None
    if args.expect:
        with open(args.expect, "r", encoding="utf-8") as handle:
            expected_text = handle.read()
    elif args.max_n is None and args.max_k is None:
        expected_text = _load_default_expectation()
    if expected_text is not None:
        mismatches = expectation_mismatches(reports, expected_text)
        if mismatches:
            for line in mismatches:
                print(f"expectation mismatch: {line}", file=sys.stderr)
            return 1
    return 0


# --------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apobern",
        description=(
            "Exact Apostol-Bernoulli / Apostol-Euler polynomial calculator "
            "and identity verifier."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--format", choices=FORMATS, default="text", help="output format"
        )
        p.add_argument("--output", metavar="PATH", help="write output to a file")

    p_numbers = sub.add_parser("numbers", help="print a number table")
    p_numbers.add_argument(
        "--family",
        choices=[f.value for f in Family],
        default=Family.APOSTOL_BERNOULLI.value,
        help="number family; the classical families use the umbral recurrences "
        "and accept only --k 1 and --lambda 1 or symbolic",
    )
    p_numbers.add_argument("--k", type=int, default=1, help="order of the family")
    p_numbers.add_argument("--n", type=int, required=True, help="largest index")
    p_numbers.add_argument(
        "--lambda",
        dest="lam",
        default="symbolic",
        help='deformation parameter: "symbolic" or a rational like 1, -2, 1/3',
    )
    common(p_numbers)
    p_numbers.set_defaults(func=_cmd_numbers)

    p_poly = sub.add_parser("poly", help="print one family polynomial")
    p_poly.add_argument(
        "--family",
        choices=[Family.APOSTOL_BERNOULLI.value, Family.APOSTOL_EULER.value],
        default=Family.APOSTOL_BERNOULLI.value,
    )
    p_poly.add_argument("--k", type=int, default=1, help="order of the family")
    p_poly.add_argument("--n", type=int, required=True, help="polynomial index")
    p_poly.add_argument("--lambda", dest="lam", default="symbolic")
    common(p_poly)
    p_poly.set_defaults(func=_cmd_poly)

    p_expand = sub.add_parser(
        "expand", help="expand a polynomial in the order-k basis, three ways"
    )
    p_expand.add_argument(
        "--coeffs",
        required=True,
        help="comma-separated rational coefficients of q, ascending powers of x",
    )
    p_expand.add_argument("--k", type=int, default=1, help="order of the basis")
    p_expand.add_argument("--lambda", dest="lam", default="symbolic")
    common(p_expand)
    p_expand.set_defaults(func=_cmd_expand)

    p_verify = sub.add_parser("verify", help="run the identity-verification suite")
    p_verify.add_argument(
        "--ids", help="comma-separated identity names (default: the full catalog)"
    )
    grid_index = p_verify.add_mutually_exclusive_group()
    grid_index.add_argument("--max-n", type=int, help="clamp the grid index range")
    grid_index.add_argument(
        "--max-m", dest="max_n", metavar="MAX_M", type=int,
        help="alias of --max-n for the convolution identities",
    )
    p_verify.add_argument("--max-k", type=int, help="clamp the grid order range")
    p_verify.add_argument(
        "--expect", metavar="PATH", help="expectation file to compare verdicts against"
    )
    p_verify.add_argument(
        "--write-expect", metavar="PATH", help="write the observed verdict pattern"
    )
    common(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    # Parsing leaves the parser unchanged, so one process builds it once.
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PoleError, MixedModeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader is gone: keep the exit-time flush of stdout quiet.
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except OSError:  # not a file descriptor: nothing to quiet
            pass
        return 1
    except Exception as exc:  # internal errors map to exit 1
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
