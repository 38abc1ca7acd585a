"""Acceptance gate: every exit criterion at its stated tolerance.

All comparisons are exact (zero tolerance); the only numeric bounds are
the wall-clock budgets, asserted as stated.  Each criterion prints one
pass line on success; a failed assert marks the criterion failed.
"""

import hashlib
import time
from fractions import Fraction
from importlib import resources
from random import Random

import pytest

from apobern import (
    Family,
    IdentityId,
    LambdaMode,
    XPolynomial,
    apostol_bernoulli_numbers,
    apostol_bernoulli_poly,
    apostol_euler_numbers,
    apostol_euler_poly,
    bernoulli_numbers_by_recurrence,
    corrected_coefficients,
    default_grid,
    default_suite_config,
    euler_number_from_half_point,
    euler_numbers_by_recurrence,
    expand_oracle,
    poly_by_series_extraction,
    reconstruct,
    render_report,
    reports_to_json,
    run_suite,
    verify_identity,
)
from apobern.cli import _load_default_expectation
from apobern.families import clear_caches
from apobern.identities import GridPoint
from apobern.reporting import expectation_from_reports, expectation_mismatches

from _util import ALL_MODES, NOT_ONE_MODES, ONE, SYM, random_xpoly


@pytest.fixture(scope="module")
def default_reports():
    return run_suite(default_suite_config())


def report_for(reports, ident):
    return next(r for r in reports if r.identity is ident)


def test_criterion_01_dual_path_generating_functions():
    clear_caches()
    start = time.time()
    for mode in ALL_MODES:
        for k in range(5):
            for n in range(11):
                assert apostol_bernoulli_poly(n, k, mode) == poly_by_series_extraction(
                    n, k, mode, Family.APOSTOL_BERNOULLI
                ), (n, k, mode)
                assert apostol_euler_poly(n, k, mode) == poly_by_series_extraction(
                    n, k, mode, Family.APOSTOL_EULER
                ), (n, k, mode)
    elapsed = time.time() - start
    assert elapsed < 30.0, f"dual-path sweep took {elapsed:.1f}s"
    print(f"ACCEPTANCE 1 PASS: dual-path equality, n<=10 k<=4, 5 modes ({elapsed:.1f}s)")


def test_criterion_02_relation_suite(default_reports):
    for ident in (
        IdentityId.ID_DERIV,
        IdentityId.ID_DIFF,
        IdentityId.ID_LOWER_ORDER,
        IdentityId.ID_ZERO_ORDER,
    ):
        report = report_for(default_reports, ident)
        assert report.summary.failed == 0, ident
        assert report.summary.passed > 0
    print("ACCEPTANCE 2 PASS: ID_DERIV/ID_DIFF/ID_LOWER_ORDER/ID_ZERO_ORDER all exact")


def test_criterion_03_recurrence_cross_checks():
    recurrence = bernoulli_numbers_by_recurrence(24)
    series = apostol_bernoulli_numbers(1, 24, ONE)
    assert recurrence.values == series.values
    euler = euler_numbers_by_recurrence(12)
    for k in range(13):
        assert euler[k] == euler_number_from_half_point(k)
    print("ACCEPTANCE 3 PASS: recurrences match series extraction (n<=24) and the half-point bridge (k<=12)")


def test_criterion_04_oracle_soundness_200_instances():
    clear_caches()
    start = time.time()
    rng = Random(20240811)
    for i in range(200):
        mode = ALL_MODES[i % len(ALL_MODES)]
        k = rng.randint(0, 3)
        q = random_xpoly(rng, mode, max_deg=6)
        expansion = expand_oracle(q, k)
        assert expansion.exact
        assert reconstruct(expansion) == q, (i, k, mode)
    elapsed = time.time() - start
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"
    print(f"ACCEPTANCE 4 PASS: 200 randomized oracle round trips ({elapsed:.1f}s)")


def test_criterion_05_lemma_adjudication(default_reports):
    report = report_for(default_reports, IdentityId.ID_LEMMA_CLOSED_FORM)
    seen_k = set()
    for entry in report.results:
        seen_k.add(entry.point.k)
        if entry.variant == "closed-form":
            assert entry.passed == (entry.point.k % 2 == 0), entry.point
        else:
            assert entry.variant == "corrected-sign"
            assert entry.passed, entry.point
    assert seen_k == set(range(6))
    witnesses = [
        e.witness
        for e in report.results
        if e.point.k == 1 and e.point.n == 1 and e.variant == "closed-form"
    ]
    assert witnesses == ["iterated = L, closed-form = -L"]
    print("ACCEPTANCE 5 PASS: sign closed form matches iteration iff k even; counterexample k=1,f=x reported as L vs -L")


def test_criterion_06_basis_formula_adjudication(default_reports):
    report = report_for(default_reports, IdentityId.ID_THM1)
    famous = [
        e
        for e in report.results
        if e.point.n == 1 and e.point.k == 1 and e.point.mode == SYM
    ]
    by_variant = {e.variant: e for e in famous}
    assert not by_variant["closed-form"].passed
    assert by_variant["closed-form"].witness == "-x - L/(L-1)"
    assert by_variant["corrected"].passed

    q = XPolynomial.monomial(SYM, 1)
    corrected = corrected_coefficients(q, 1)
    assert corrected.coefficient(1) == SYM.lam
    assert corrected.coefficient(2) == (SYM.lam - 1) / 2

    rng = Random(62831853)
    for mode in NOT_ONE_MODES:
        for k in range(4):
            for deg in range(7):
                for q in (
                    XPolynomial.monomial(mode, deg),
                    random_xpoly(rng, mode, max_deg=deg),
                ):
                    oracle = expand_oracle(q, k)
                    corrected = corrected_coefficients(q, k)
                    assert corrected.exact
                    assert corrected.coefficients == oracle.coefficients
                    assert (corrected.j_lo, corrected.j_hi) == (
                        oracle.j_lo,
                        oracle.j_hi,
                    )
    print("ACCEPTANCE 6 PASS: cataloged coefficient formula fails with witness -x - L/(L-1); corrected window matches the oracle on the full grid")


def test_criterion_07_convolution_identities(default_reports):
    hansen = report_for(default_reports, IdentityId.ID_HANSEN)
    assert hansen.summary.failed == 0
    assert {e.point.n for e in hansen.results} == set(range(11))

    dilcher = report_for(default_reports, IdentityId.ID_DILCHER)
    assert dilcher.summary.failed == 0
    assert {e.point.n for e in dilcher.results} == set(range(11))

    er = report_for(default_reports, IdentityId.ID_EULER_RAMANUJAN)
    assert {e.point.n for e in er.results} == set(range(2, 21))
    for entry in er.results:
        if entry.point.n == 2:
            assert not entry.passed
            assert entry.witness == "1/6"
        else:
            assert entry.passed
    print("ACCEPTANCE 7 PASS: Hansen m<=10 and Dilcher n<=10 exact; Euler-Ramanujan holds on 3..20 and fails at m=2 with witness 1/6")


def test_criterion_08_formula_audit(default_reports):
    expectation = _load_default_expectation()
    assert expectation is not None, "packaged expectation file missing"
    audited = [
        report_for(default_reports, ident)
        for ident in (
            IdentityId.ID_COR_XN,
            IdentityId.ID_THM2,
            IdentityId.ID_THM3,
            IdentityId.ID_THM4,
            IdentityId.ID_THM5,
        )
    ]
    for report in audited:
        ks = {e.point.k for e in report.results}
        ns = {e.point.n for e in report.results}
        assert ks == set(range(4))
        assert ns == set(range(9))
    assert expectation_mismatches(audited, expectation) == []

    second = run_suite(default_suite_config())
    assert reports_to_json(second) == reports_to_json(default_reports)
    # --write-expect of the default suite reproduces the packaged file
    packaged = resources.files("apobern").joinpath("data", "expected_verdicts.json")
    assert expectation_from_reports(default_reports).encode("utf-8") == packaged.read_bytes()

    # the default report is pinned byte for byte in every format
    pinned = {
        "json": (1_040_751, "8b10395f36ea86147417353225162e6d4aa78af2cad360d378d69ec852e177d3"),
        "text": (277_809, "1367aea36ac39eeee203c9583b1e91c1c4c1a1ed4b5cb31ad4cb3d838927913a"),
        "csv": (77_883, "f4908d6fbbb82562ffabbdee31ea0240e5c3c3a54fb7c833d1f43be88cb9fbb4"),
        "latex": (123_137, "3b64a47da72495fe4795ca523e0a63951d7c534e2ad8a919a8263217ce8e6b98"),
    }
    for fmt, (size, digest) in pinned.items():
        document = render_report(default_reports, fmt).encode("utf-8")
        assert len(document) == size, fmt
        assert hashlib.sha256(document).hexdigest() == digest, fmt
    print("ACCEPTANCE 8 PASS: audit verdicts match the checked-in expectation; default suite JSON is byte-identical across runs and every format is pinned by sha256")


def test_criterion_09_performance_envelope():
    clear_caches()
    start = time.time()
    for identity in IdentityId:
        verify_identity(identity, default_grid(identity, modes=(SYM,)))
    symbolic_elapsed = time.time() - start
    assert symbolic_elapsed < 300.0, f"symbolic suite took {symbolic_elapsed:.1f}s"

    clear_caches()
    start = time.time()
    numeric_modes = [
        ONE,
        LambdaMode.numeric(2),
        LambdaMode.numeric(-2),
        LambdaMode.numeric(Fraction(1, 3)),
    ]
    for mode in numeric_modes:
        for k in range(5):
            apostol_bernoulli_numbers(k, 24, mode)
            apostol_euler_numbers(k, 24, mode)
        apostol_bernoulli_poly(24, 2, mode)
        apostol_euler_poly(24, 2, mode)
        grid = default_grid(IdentityId.ID_DERIV, modes=(mode,))
        grid.append(GridPoint(n=24, k=4, mode=mode))
        verify_identity(IdentityId.ID_DERIV, grid)
    numeric_elapsed = time.time() - start
    assert numeric_elapsed < 30.0, f"numeric sweep took {numeric_elapsed:.1f}s"
    print(
        f"ACCEPTANCE 9 PASS: symbolic suite {symbolic_elapsed:.1f}s < 300s; "
        f"numeric n<=24 sweep {numeric_elapsed:.1f}s < 30s"
    )
