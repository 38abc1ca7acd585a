"""Command-line front end: each command parses its flags, computes its
result and emits the document that ``reporting`` writes for it.

Exit codes: 0 on success (for ``verify``, success additionally means the
verdict pattern matched the expectation file in force), 2 on usage errors
(bad flags, malformed rationals or ones with more than 4300 digits in a
numerator or denominator, exponents counted, calc sizes out of bounds,
the Euler family at its pole, empty grids, unreadable or malformed
expectation files, all refused before any work), 1 on internal faults or
expectation mismatches.

The calc commands take --k in 0..16; --n in 0..400 for a table at a
numeric lambda (the classical tables are at lambda = 1) and 0..100 for a
symbolic one; ``expand`` at most 51 --coeffs entries (degree 50).  A
numeric lambda = p/q also bounds the largest table index a request reads
(--n, or for ``expand`` --k plus the degree): that index times the bits
of |p| and q together is at most 2400, which lambda = -5/4 meets at
n = 400.  The README gives the time a request at these limits takes.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from functools import lru_cache
from importlib import resources
from typing import Optional, Sequence

from .expansion import (
    UnsupportedModeError,
    closed_form_coefficients,
    corrected_coefficients,
    expand_oracle,
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
from .field import LambdaMode, parse_rational
from .identities import GridBoundsError, IdentityId, SuiteConfig, run_suite
from .polynomials import XPolynomial
from .reporting import (
    FORMATS,
    expansion_document,
    expectation_mismatches,
    numbers_document,
    parse_expectation,
    poly_document,
    render_report,
    render_with_expectation,
)

DEFAULT_EXPECTATION = "expected_verdicts.json"


# Size limits of the calc commands (see the module docstring).
_MAX_K = 16
_MAX_N_NUMERIC, _MAX_N_SYMBOLIC = 400, 100
_MAX_COEFFS = 51
_MAX_LAMBDA_SIZE = 2400


class UsageError(Exception):
    """Bad arguments detected after parsing; exits with code 2."""


def _parse_mode(text: str) -> LambdaMode:
    try:
        return LambdaMode.parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"malformed lambda value {text!r}: {exc}") from exc


def _parse_coeffs(text: str, mode: LambdaMode) -> XPolynomial:
    parts = text.split(",")
    if len(parts) > _MAX_COEFFS:
        raise UsageError(f"--coeffs takes at most {_MAX_COEFFS} entries, got {len(parts)}")
    try:
        values = [parse_rational(part) for part in parts]
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
    except OSError as exc:
        if exc.filename is not None:  # name the user's path, not the temporary file
            exc.filename, exc.filename2 = path, None
        raise
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


def _check_size(flag: str, value: int, limit: int):
    if not 0 <= value <= limit:
        raise UsageError(f"--{flag} must be in 0..{limit}, got {value}")


def _check_lambda_size(label: str, mode: LambdaMode, index: int):
    # the largest table index times the bits of lambda's numerator and denominator
    if not mode.is_symbolic:
        bits = abs(mode.value.numerator).bit_length() + mode.value.denominator.bit_length()
        _check_size(f"{label} times the bits of --lambda", index * bits, _MAX_LAMBDA_SIZE)


def _parse_family_request(args):
    """Family and mode of a numbers or poly request, checked before any work."""
    family = Family(args.family)
    mode = _parse_mode(args.lam)
    symbolic = mode.is_symbolic and family not in (Family.BERNOULLI, Family.EULER)
    _check_size("n", args.n, _MAX_N_SYMBOLIC if symbolic else _MAX_N_NUMERIC)
    _check_size("k", args.k, _MAX_K)
    _check_lambda_size("n", mode, args.n)
    if family is Family.APOSTOL_EULER and mode.value == -1:
        raise UsageError("the apostol-euler family has a pole at lambda = -1")
    return family, mode


def _cmd_numbers(args) -> int:
    family, mode = _parse_family_request(args)
    table = _numbers_table(family, args.k, args.n, mode)
    _emit(numbers_document(table, args.format), args.output)
    return 0


# --------------------------------------------------------------------------
# poly


def _cmd_poly(args) -> int:
    family, mode = _parse_family_request(args)
    if family is Family.APOSTOL_BERNOULLI:
        poly = apostol_bernoulli_poly(args.n, args.k, mode)
    else:
        poly = apostol_euler_poly(args.n, args.k, mode)
    _emit(poly_document(family, args.k, args.n, poly, args.format), args.output)
    return 0


# --------------------------------------------------------------------------
# expand


def _cmd_expand(args) -> int:
    _check_size("k", args.k, _MAX_K)
    mode = _parse_mode(args.lam)
    q = _parse_coeffs(args.coeffs, mode)
    _check_lambda_size("k plus the degree", mode, args.k + max(q.degree, 0))
    rows = {"oracle": expand_oracle(q, args.k)}
    rows["closed-form"] = closed_form_coefficients(q, args.k)
    try:
        rows["corrected"] = corrected_coefficients(q, args.k)
    except UnsupportedModeError:
        rows["corrected"] = None
    _emit(expansion_document(q, args.k, rows, args.format), args.output)
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
    ref = resources.files(__package__).joinpath("data").joinpath(DEFAULT_EXPECTATION)
    if not ref.is_file():
        return None
    return ref.read_text(encoding="utf-8")


def _cmd_verify(args) -> int:
    ids = _parse_ids(args.ids)
    expected_text = expected = None
    if args.expect:
        try:
            with open(args.expect, "r", encoding="utf-8") as handle:
                expected_text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read expectation file: {exc}") from exc
        try:
            expected = parse_expectation(expected_text)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    elif args.max_n is None and args.max_k is None:
        expected_text = _load_default_expectation()
    try:
        reports = run_suite(SuiteConfig(ids=ids, max_n=args.max_n, max_k=args.max_k))
    except GridBoundsError as exc:
        raise UsageError(str(exc)) from exc
    if expected_text is None and not args.write_expect:
        document, observed = render_report(reports, args.format), None
    else:
        document, observed = render_with_expectation(reports, args.format)
    _emit(document, args.output)
    if args.write_expect:
        _write_file(args.write_expect, observed)
    if expected_text is not None:
        mismatches = expectation_mismatches(reports, expected_text, observed, expected)
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
        help="number family; symbolic and classical tables come from one recurrence, "
        "numeric ones from the kernel series; the classical families accept only "
        "--k 1 and --lambda 1 or symbolic",
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
    # Exact results may hold integers longer than the interpreter's
    # int-to-str limit; parse_rational bounds the inputs on its own.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except UsageError as exc:
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
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def console_main():
    code = main()
    # What the run leaves is freed by reference counting at exit; frozen,
    # it is spared the collector's full passes during teardown.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    console_main()
