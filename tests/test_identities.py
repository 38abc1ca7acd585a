"""Identity catalog: verdict patterns, witnesses, grids, determinism."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apobern import (
    GridBoundsError,
    GridPoint,
    IdentityId,
    LambdaMode,
    SuiteConfig,
    XPolynomial,
    default_grid,
    default_suite_config,
    run_suite,
    verify_identity,
)

from _util import ONE, PROPERTY_MODES, SYM


def entries(report, **filters):
    out = []
    for entry in report.results:
        point = entry.point
        keep = True
        for key, value in filters.items():
            if key == "variant":
                keep = keep and entry.variant == value
            else:
                keep = keep and getattr(point, key) == value
        if keep:
            out.append(entry)
    return out


def test_relation_suite_passes_everywhere():
    for ident in (
        IdentityId.ID_DERIV,
        IdentityId.ID_DIFF,
        IdentityId.ID_LOWER_ORDER,
        IdentityId.ID_ZERO_ORDER,
    ):
        report = verify_identity(ident, default_grid(ident))
        assert report.summary.failed == 0, ident
        assert report.summary.validity_domain == "all tested points pass"


def test_hansen_small_case_and_domain():
    report = verify_identity(IdentityId.ID_HANSEN, default_grid(IdentityId.ID_HANSEN))
    assert report.summary.failed == 0
    # m = 1 points pass: both sides reduce to x + y - 1
    assert all(e.passed for e in entries(report, n=1))


def test_dilcher_passes():
    report = verify_identity(IdentityId.ID_DILCHER, default_grid(IdentityId.ID_DILCHER))
    assert report.summary.failed == 0
    assert all(e.passed for e in entries(report, n=0))


def test_euler_ramanujan_domain_and_witness():
    report = verify_identity(
        IdentityId.ID_EULER_RAMANUJAN, default_grid(IdentityId.ID_EULER_RAMANUJAN)
    )
    for entry in report.results:
        if entry.point.n == 2:
            assert not entry.passed
            assert entry.witness == "1/6"
        else:
            assert entry.passed
    assert report.summary.validity_domain == (
        "pass at every point with m in 3..20; fail at some point with m in 2"
    )


def test_lemma_sign_adjudication():
    report = verify_identity(
        IdentityId.ID_LEMMA_CLOSED_FORM, default_grid(IdentityId.ID_LEMMA_CLOSED_FORM)
    )
    for entry in report.results:
        if entry.variant == "corrected-sign":
            assert entry.passed
        else:
            assert entry.variant == "closed-form"
            assert entry.passed == (entry.point.k % 2 == 0)
    famous = entries(report, n=1, k=1, variant="closed-form")
    assert len(famous) == 1
    assert famous[0].witness == "iterated = L, closed-form = -L"


def test_thm1_adjudication():
    report = verify_identity(IdentityId.ID_THM1, default_grid(IdentityId.ID_THM1))
    famous = entries(report, n=1, k=1, mode=SYM, variant="closed-form")
    assert len(famous) == 1
    assert not famous[0].passed
    assert famous[0].witness == "-x - L/(L-1)"
    assert all(e.passed for e in entries(report, variant="corrected"))
    for entry in entries(report, variant="closed-form"):
        assert entry.passed == (entry.point.k == 0)


def test_audit_witnesses_match_hand_computation():
    # spot anchors computed by hand, independent of the checker code
    rep = verify_identity(IdentityId.ID_THM2, [GridPoint(n=2, k=1, mode=SYM)])
    assert rep.results[0].witness == "x^2 + (2/(L-1))*x - (L^2+L)/(L-1)^2"

    rep = verify_identity(IdentityId.ID_COR_XN, [GridPoint(n=1, k=1, mode=SYM)])
    assert rep.results[0].witness == "x + L/(L-1)"

    rep = verify_identity(
        IdentityId.ID_THM4,
        [
            GridPoint(n=1, k=0, mode=SYM, y=Fraction(-1, 2)),
            GridPoint(n=1, k=1, mode=SYM, y=Fraction(-1, 2)),
        ],
    )
    by_k = {e.point.k: e for e in rep.results}
    assert by_k[0].passed
    assert by_k[1].witness == "x - (2L-3)/(L-1)"

    rep = verify_identity(
        IdentityId.ID_THM5,
        [
            GridPoint(n=0, k=0, mode=SYM, y=Fraction(-1, 2)),
            GridPoint(n=1, k=0, mode=SYM, y=Fraction(-1, 2)),
        ],
    )
    assert rep.results[0].passed
    assert rep.results[1].witness == "-x"


def test_zero_order_covers_both_families():
    grid = [GridPoint(n=3, k=0, mode=ONE)]
    report = verify_identity(IdentityId.ID_ZERO_ORDER, grid)
    assert report.summary.passed == 1


def test_failure_witnesses_the_default_report_never_shows(monkeypatch):
    # families broken on purpose: each witness is pinned as it renders
    from apobern import XPolynomial, identities
    from apobern.expansion import basis_sum

    def off_by(poly, extra):
        return lambda n, k, mode: poly(n, k, mode) + XPolynomial(extra, mode)

    monkeypatch.setattr(identities, "apostol_euler_poly", off_by(identities.apostol_euler_poly, [1]))
    grid = [GridPoint(n=3, k=0, mode=ONE)]
    (entry,) = verify_identity(IdentityId.ID_ZERO_ORDER, grid).results
    assert not entry.passed and entry.witness == "euler-type: 1"
    monkeypatch.setattr(
        identities, "apostol_bernoulli_poly", off_by(identities.apostol_bernoulli_poly, [0, 1])
    )
    (entry,) = verify_identity(IdentityId.ID_ZERO_ORDER, grid).results
    assert not entry.passed and entry.witness == "bernoulli-type: x; euler-type: 1"
    monkeypatch.undo()

    def shifted_corrected(q, k, power):
        # every coefficient of the repaired window one too large
        expansion = original_corrected(q, k, power)
        coefficients = tuple(c + 1 for c in expansion.coefficients)
        reconstruction = basis_sum(coefficients, expansion.j_lo, k, q.mode)
        return expansion._replace(coefficients=coefficients, exact=reconstruction == q,
                                  reconstruction=reconstruction)

    original_corrected = identities.corrected_coefficients
    monkeypatch.setattr(identities, "corrected_coefficients", shifted_corrected)
    rep = verify_identity(IdentityId.ID_THM1, [GridPoint(n=2, k=1, mode=SYM)])
    corrected = entries(rep, variant="corrected")[0]
    assert not corrected.passed
    assert corrected.witness == "(3/(L-1))*x^2 - ((4L+2)/(L-1)^2)*x + (2L^2+3L+1)/(L-1)^3"
    monkeypatch.undo()

    # B_1 one too large: d/dx B_2 - 2 B_1 = -2, LHS minus RHS
    original_poly = identities.apostol_bernoulli_poly
    monkeypatch.setattr(
        identities, "apostol_bernoulli_poly",
        lambda n, k, mode: original_poly(n, k, mode) + XPolynomial([int(n == 1)], mode),
    )
    (entry,) = verify_identity(IdentityId.ID_DERIV, [GridPoint(n=2, k=1, mode=ONE)]).results
    assert not entry.passed and entry.witness == "-2"


def test_verify_rejects_bad_input():
    with pytest.raises(ValueError):
        verify_identity(IdentityId.ID_DERIV, [])
    with pytest.raises(ValueError):
        verify_identity("ID_DERIV", [GridPoint(n=1, k=1, mode=ONE)])
    with pytest.raises(GridBoundsError):
        verify_identity(
            IdentityId.ID_DERIV, [GridPoint(n=11, k=1, mode=SYM)]
        )
    with pytest.raises(GridBoundsError):
        verify_identity(
            IdentityId.ID_DERIV, [GridPoint(n=2, k=5, mode=ONE)]
        )
    # the operator-power identity allows k = 5 (and nothing beyond)
    verify_identity(
        IdentityId.ID_LEMMA_CLOSED_FORM, [GridPoint(n=1, k=5, mode=SYM)]
    )
    with pytest.raises(GridBoundsError):
        verify_identity(
            IdentityId.ID_LEMMA_CLOSED_FORM, [GridPoint(n=1, k=6, mode=SYM)]
        )


def test_numeric_bounds_wider_than_symbolic():
    verify_identity(IdentityId.ID_DERIV, [GridPoint(n=24, k=1, mode=ONE)])
    with pytest.raises(GridBoundsError):
        verify_identity(IdentityId.ID_DERIV, [GridPoint(n=25, k=1, mode=ONE)])


def test_suite_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(ids=())
    with pytest.raises(ValueError):
        SuiteConfig(ids=("ID_DERIV",))
    config = default_suite_config()
    assert len(config.ids) == 14


def test_report_ordering_is_deterministic():
    grid = list(reversed(default_grid(IdentityId.ID_DERIV)))
    a = verify_identity(IdentityId.ID_DERIV, grid)
    b = verify_identity(IdentityId.ID_DERIV, default_grid(IdentityId.ID_DERIV))
    assert a.results == b.results


def _reference_point_key(point):
    # the report order: n, k (None first), mode (None, symbolic, then by
    # value) and y (None first), compared as Fractions
    mode = point.mode
    return (
        point.n,
        -1 if point.k is None else point.k,
        (0, Fraction(0)) if mode is None else (1, Fraction(0)) if mode.is_symbolic
        else (2, mode.value),
        (0, Fraction(0)) if point.y is None else (1, point.y),
    )


@settings(max_examples=40, deadline=None)
@given(st.lists(st.builds(
    GridPoint,
    n=st.integers(0, 3),
    k=st.none() | st.integers(0, 2),
    mode=st.sampled_from([None, SYM, ONE, LambdaMode.numeric(-2),
                          LambdaMode.numeric(Fraction(1, 3))]),
    y=st.none() | st.fractions(min_value=-2, max_value=2, max_denominator=3),
), max_size=40))
def test_grid_points_sort_in_report_order(points):
    # the ranks per grid give the order of the Fraction-valued reference key
    from apobern import identities

    assert identities._sorted_points(points) == sorted(set(points), key=_reference_point_key)


def test_subset_suite_order_and_size():
    config = SuiteConfig(
        ids=(IdentityId.ID_EULER_RAMANUJAN, IdentityId.ID_DERIV), max_n=4, max_k=2
    )
    reports = run_suite(config)
    assert [r.identity for r in reports] == [
        IdentityId.ID_DERIV,
        IdentityId.ID_EULER_RAMANUJAN,
    ]


def test_mode_restriction():
    grid = default_grid(IdentityId.ID_DERIV, max_n=3, max_k=1, modes=(SYM,))
    report = verify_identity(IdentityId.ID_DERIV, grid)
    assert all(e.point.mode == SYM for e in report.results)
    with pytest.raises(ValueError, match="mode selection leaves no grid for ID_DERIV"):
        default_grid(IdentityId.ID_DERIV, modes=(LambdaMode.numeric(7),))


# len(default_grid(id)), then with (max_n, max_k) = (2, 1) and (0, 0), then
# with the mode selection (lambda = 2,).
GRID_SIZES = {
    IdentityId.ID_DERIV: (250, 20, 0, 50),
    IdentityId.ID_DIFF: (180, 15, 0, 36),
    IdentityId.ID_LOWER_ORDER: (160, 10, 0, 32),
    IdentityId.ID_ZERO_ORDER: (55, 15, 5, 11),
    IdentityId.ID_LEMMA_CLOSED_FORM: (36, 6, 1, 36),
    IdentityId.ID_THM1: (112, 24, 4, 28),
    IdentityId.ID_COR_XN: (180, 30, 5, 36),
    IdentityId.ID_THM2: (108, 18, 3, 36),
    IdentityId.ID_THM3: (108, 18, 3, 36),
    IdentityId.ID_HANSEN: (77, 9, 2, 77),
    IdentityId.ID_EULER_RAMANUJAN: (19, 1, 0, 19),
    IdentityId.ID_THM4: (648, 54, 6, 216),
    IdentityId.ID_DILCHER: (77, 9, 2, 77),
    IdentityId.ID_THM5: (756, 72, 9, 252),
}


@pytest.mark.parametrize("ident", list(IdentityId), ids=lambda i: i.value)
def test_default_grid_sizes(ident):
    sizes = (
        len(default_grid(ident)),
        len(default_grid(ident, 2, 1)),
        len(default_grid(ident, 0, 0)),
        len(default_grid(ident, modes=(LambdaMode.numeric(2),))),
    )
    assert sizes == GRID_SIZES[ident]


def test_default_grid_fixed_parts():
    seven = (LambdaMode.numeric(7),)
    # the lemma and the lambda-free identities ignore the mode selection
    for ident in (
        IdentityId.ID_LEMMA_CLOSED_FORM,
        IdentityId.ID_HANSEN,
        IdentityId.ID_EULER_RAMANUJAN,
        IdentityId.ID_DILCHER,
    ):
        assert default_grid(ident, modes=seven) == default_grid(ident)
    # order zero stays the only order, whatever max_k says
    assert default_grid(IdentityId.ID_ZERO_ORDER, max_k=-1) == default_grid(
        IdentityId.ID_ZERO_ORDER
    )
    assert {p.k for p in default_grid(IdentityId.ID_ZERO_ORDER, max_k=3)} == {0}


def test_concurrent_verification_matches_sequential():
    # checks are pure over immutable values, so running identities in
    # worker threads must reproduce the sequential reports exactly
    from concurrent.futures import ThreadPoolExecutor

    from apobern.families import clear_caches
    from apobern.reporting import reports_to_json

    # the convolution identities share per-call memos that every
    # verify_identity call clears, also while another thread is checking
    grids = {
        IdentityId.ID_DERIV: default_grid(IdentityId.ID_DERIV),
        IdentityId.ID_LOWER_ORDER: default_grid(IdentityId.ID_LOWER_ORDER),
        IdentityId.ID_EULER_RAMANUJAN: default_grid(IdentityId.ID_EULER_RAMANUJAN),
        IdentityId.ID_THM1: default_grid(IdentityId.ID_THM1),
        IdentityId.ID_THM4: default_grid(IdentityId.ID_THM4, max_n=3),
        IdentityId.ID_THM5: default_grid(IdentityId.ID_THM5, max_n=3),
    }
    sequential = [verify_identity(i, grid) for i, grid in grids.items()]
    clear_caches()
    with ThreadPoolExecutor(max_workers=4) as pool:
        concurrent = list(pool.map(verify_identity, grids, grids.values()))
    assert reports_to_json(concurrent) == reports_to_json(sequential)


def test_identity_memos_last_one_call():
    from apobern import identities

    # every memo the module defines is in _MEMOS, so none outlives its call
    defined = {
        name for name, value in vars(identities).items()
        if hasattr(value, "cache_clear") and value.__module__ == identities.__name__
    }
    assert defined == {memo.__name__ for memo in identities._MEMOS}
    # between them the two convolution expansions fill every memo but the
    # twisted differences, which the lemma fills
    filled = set()
    for ident in (IdentityId.ID_THM4, IdentityId.ID_THM5, IdentityId.ID_LEMMA_CLOSED_FORM):
        verify_identity(ident, default_grid(ident, max_n=2))
        filled |= {memo.__name__ for memo in identities._MEMOS if memo.cache_info().currsize}
    assert filled == defined
    verify_identity(IdentityId.ID_DERIV, default_grid(IdentityId.ID_DERIV, max_n=2))
    for memo in identities._MEMOS:
        assert memo.cache_info().currsize == 0, memo.__name__


def test_a_default_suite_applies_lambda_once_per_polynomial(monkeypatch):
    # every twisted difference of the suite goes through the one memo
    from apobern import expansion, identities, operators

    applied = []

    def counted(p, lambda_op=operators.lambda_op):
        applied.append(p)
        return lambda_op(p)

    for module in (operators, expansion, identities):
        monkeypatch.setattr(module, "lambda_op", counted)
    run_suite(default_suite_config())
    assert applied
    assert len(applied) == len(set(applied))


def test_a_default_suite_never_runs_the_exact_solve(monkeypatch):
    # Theorem 1 is judged by its reconstructions; the oracle serves `expand`
    from apobern import expansion, identities

    solved = []

    def counted(q, k, expand_oracle=expansion.expand_oracle):
        solved.append((q, k))
        return expand_oracle(q, k)

    for module in (expansion, identities):
        if hasattr(module, "expand_oracle"):
            monkeypatch.setattr(module, "expand_oracle", counted)
    run_suite(default_suite_config())
    assert solved == []


def _per_key_beta_columns(k, n, mode):
    # each number's key lifted on its own, as _beta_columns was first written
    from math import lcm

    from apobern.families import apostol_bernoulli_numbers
    from apobern._keys import _lift, _scalar_key

    keys = [_scalar_key(beta) for beta in apostol_bernoulli_numbers(k, n, mode).values]
    d = lcm(*[key[1] for key in keys])
    a = max(key[2] for key in keys)
    b = max(key[3] for key in keys)
    nonzero = [i for i, key in enumerate(keys) if key[0]]
    lifted = [_lift(num, d // e, a - ai, b - bi)
              for num, e, ai, bi in [keys[i] for i in nonzero]]
    width = max(map(len, lifted))
    return nonzero, list(zip(*[r + [0] * (width - len(r)) for r in lifted])), d, a, b


@pytest.mark.parametrize("mode", (SYM, ONE) + PROPERTY_MODES[1:], ids=str)
def test_beta_columns_equal_the_per_key_lift(mode):
    from apobern import identities

    for k in range(5):
        for n in range(k, 11):  # the residual reads the table from n = k on
            assert identities._beta_columns.__wrapped__(k, n, mode) == \
                _per_key_beta_columns(k, n, mode), (k, n)


def test_every_memo_is_hit_over_the_default_suite(monkeypatch):
    # a memo that no point of any identity reads twice is only overhead.
    # The basis checks read one lifted number table per (k, n, mode)
    # block, so _beta_columns is hit only across the identities of one
    # suite, which share the memos until run_suite clears them.
    from apobern import identities

    hits = {memo.__name__: 0 for memo in identities._MEMOS}
    for ident in IdentityId:
        verify_identity(ident, default_grid(ident))
        for memo in identities._MEMOS:
            hits[memo.__name__] += memo.cache_info().hits
    del hits[identities._beta_columns.__name__]
    assert all(hits.values()), hits

    suite = []
    clear = identities._clear_memos

    def recording():
        suite.append(identities._beta_columns.cache_info().hits)
        clear()

    monkeypatch.setattr(identities, "_clear_memos", recording)
    run_suite(default_suite_config())
    assert suite[-1] > 0, suite


# Theorem 4 and 5 brackets as the paper displays them, with m = n - j + k
# and the middle term of Theorem 5 written out.


def _ff(n, m):
    """Falling-factorial quotient n!/m!."""
    from math import factorial

    return Fraction(factorial(n), factorial(m))


def _displayed_thm4_bracket(n, m, y, a):
    from apobern.families import bernoulli_poly

    arg = a + y
    value = (1 - m) * _ff(n, m) * bernoulli_poly(m).evaluate(arg)
    if m >= 1:
        value += (arg - 1) * _ff(n, m - 1) * bernoulli_poly(m - 1).evaluate(arg)
    return value


def _displayed_thm5_bracket(n, m, y):
    from apobern import XPolynomial, shift_poly
    from apobern.families import euler_poly

    def shifted_euler(i):
        return shift_poly(euler_poly(i), y)

    bracket = (XPolynomial([1 - y, -1], ONE) * shifted_euler(m)).scalar_mul(_ff(n, m))
    middle = _ff(n, m + 1) * (n - m)
    if middle:
        bracket = bracket - shifted_euler(m + 1).scalar_mul(middle)
    return bracket + shifted_euler(m + 1).scalar_mul(_ff(n + 1, m + 1))


def test_brackets_are_n_over_m_factorial_times_the_classical_right_sides():
    from apobern import identities

    checked = 0
    for ident in (IdentityId.ID_THM4, IdentityId.ID_THM5):
        points = {(pt.n, pt.k, pt.y) for pt in default_grid(ident)}
        assert {n for n, _, _ in points} == set(range(9))
        assert {k for _, k, _ in points} == set(range(4))
        for n, k, y in sorted(points):
            for j in range(k, n + 1):
                m = n - j + k
                scale = _ff(n, m)
                if ident is IdentityId.ID_THM4:
                    hansen = identities._hansen_rhs(m, y)
                    for a in range(k + 1):
                        assert _displayed_thm4_bracket(n, m, y, a) == scale * hansen.evaluate(a)
                        checked += 1
                else:
                    bracket = _displayed_thm5_bracket(n, m, y)
                    assert bracket == identities._dilcher_rhs(m, y).scalar_mul(scale)
                    checked += 1
    assert checked > 3000


def test_hansen_right_side_is_built_once_per_index_and_sample():
    from apobern import identities

    grid = default_grid(IdentityId.ID_THM4)
    verify_identity(IdentityId.ID_THM4, grid)
    info = identities._hansen_rhs.cache_info()
    distinct = {(pt.n - j + pt.k, pt.y) for pt in grid for j in range(pt.k, pt.n + 1)}
    assert info.misses == info.currsize <= len(distinct)
    assert info.hits > 0


def _ref_convolution(poly, m, y):
    # sum_i C(m,i) p_(m-i)(y) p_i(x) for the classical family p, each
    # value p_(m-i)(y) a Fraction and the sum taken through dot
    from math import comb

    from apobern.polynomials import dot

    scalars = [comb(m, i) * poly(m - i).evaluate(y) for i in range(m + 1)]
    return dot(ONE, scalars, [poly(i) for i in range(m + 1)])


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(("bernoulli", "euler")), st.integers(0, 12), st.integers(-9, 9),
       st.integers(1, 9))
@example("bernoulli", 3, -1, 2)
@example("euler", 4, 2, 3)
@example("euler", 5, -7, 9)
def test_convolution_matches_the_fraction_formula(family, m, u, v):
    # the checkers' convolution works on the integer keys of the classical
    # polynomials; it must give the Fraction formula's key exactly
    from apobern import identities
    from apobern.families import bernoulli_poly, euler_poly

    poly = {"bernoulli": bernoulli_poly, "euler": euler_poly}[family]
    y = Fraction(u, v)
    got = identities._convolution.__wrapped__(poly, m, y)
    assert got.mode is ONE
    assert got._key == _ref_convolution(poly, m, y)._key


def _member_product_thm5_residual(pt):
    # Theorem 5 summed member by member: 2 (1-L)^k times the sum over j of
    # n!/(m! j!) D_m(x) B_j^(k)(x|L), one x-product per member through dot
    from math import factorial

    from apobern import identities
    from apobern.families import apostol_bernoulli_poly, euler_poly
    from apobern.operators import alternating_lambda_sum
    from apobern.polynomials import dot, embed_poly

    n, k, mode, y = pt.n, pt.k, pt.mode, pt.y
    brackets = [
        embed_poly(identities._dilcher_rhs(n - j + k, y).scalar_mul(
            _ff(n, n - j + k) / factorial(j)), mode)
        for j in range(k, n + 1)
    ]
    members = [apostol_bernoulli_poly(j, k, mode) for j in range(k, n + 1)]
    rhs = dot(mode, brackets, members).scalar_mul(alternating_lambda_sum(mode, k, lambda a: 2))
    return embed_poly(_ref_convolution(euler_poly, n, y), mode) - rhs


def _member_product_basis_residual(ident, pt):
    # Theorem 1's coefficients c_j = n!/(m! j!) sum_a (-1)^a C(k,a) L^a
    # q_m(a), m = n - j + k, one scalar per member, times the members
    # B_j^(k)(x|L) summed by basis_sum; q is the family each basis
    # identity expands and w the family its lambda-sum reads
    from math import factorial

    from apobern import identities
    from apobern.expansion import basis_sum
    from apobern.families import apostol_bernoulli_poly, apostol_euler_poly, bernoulli_poly
    from apobern.operators import alternating_lambda_sum
    from apobern.polynomials import XPolynomial, embed_poly

    q, w = {
        IdentityId.ID_COR_XN: (lambda n, y: XPolynomial.monomial(ONE, n), None),
        IdentityId.ID_THM2: (lambda n, y: apostol_euler_poly(n, pt.k, ONE), None),
        IdentityId.ID_THM3: (lambda n, y: apostol_bernoulli_poly(n, pt.k, ONE), None),
        IdentityId.ID_THM4: (lambda n, y: _ref_convolution(bernoulli_poly, n, y),
                             lambda m, y: identities._hansen_rhs(m, y)),
    }[ident]
    w = w or q
    n, k, mode, y = pt.n, pt.k, pt.mode, pt.y

    def coefficient(j):
        m = n - j + k
        omega = alternating_lambda_sum(mode, k, w(m, y).evaluate)
        return omega * mode.scalar(Fraction(factorial(n), factorial(m) * factorial(j)))

    coeffs = [coefficient(j) for j in range(k, n + 1)]
    return embed_poly(q(n, y), mode) - basis_sum(coeffs, k, k, mode)


def _per_point_residual(pt, lhs, brackets, powers=1, scale=1, power=0):
    # the basis residual as it was written for one point: its own
    # denominator, no lanes, the right side scaled once more to the left
    # side's denominator; the reference for the blocked residuals
    from math import comb, factorial, lcm
    from operator import add, mul

    from apobern import identities
    from apobern._keys import _add_into, _lift, _sym_reduced
    from apobern.polynomials import _new, embed_poly

    n, k, mode = pt.n, pt.k, pt.mode
    if n < k:
        return embed_poly(lhs, mode)
    nonzero, columns, d, a, b = identities._beta_columns(k, n, mode)
    members = list(zip(range(k, n + 1), brackets))
    scales = [factorial(n - j + k) * factorial(j) * e for j, (_, e) in members]
    q = lcm(*scales)
    width = max(j + len(row) // powers for j, (row, _) in members) - nonzero[0]
    t = [[0] * (width * powers) for _ in nonzero]
    for (j, (row, _)), s in zip(members, scales):
        s = factorial(n) * (q // s)
        for ti, i in zip(t, nonzero):
            if i > j:
                break
            c, lo = comb(j, i) * s, (j - i) * powers
            hi = lo + len(row)
            ti[lo:hi] = map(add, ti[lo:hi], [c * x for x in row])
    top = powers - 1
    if mode.is_symbolic:
        c, v, a = -scale * (-1) ** power, 1, a - power
        fold = [(c, p) for p in range(powers)]
    else:
        u, v = mode.value.numerator, mode.value.denominator
        c = -scale * (v - u) ** power
        fold = [(c * u ** p * v ** (top - p), 0) for p in range(powers)]
        v = v ** (top + power)
    out = [[0] * (len(columns) + top) for _ in range(width)]
    for index, column in enumerate(zip(*t)):
        f, shift = fold[index % powers]
        row = out[index // powers]
        for p, beta in enumerate(columns, shift):
            row[p] += f * sum(map(mul, column, beta))
    n_lhs, e = lhs._key
    den = lcm(e, q * d * v)
    if (f := den // (q * d * v)) != 1:
        out = [[f * c for c in row] for row in out]
    pole = _lift((den // e,), 1, a, b)
    out.extend([] for _ in range(len(n_lhs) - len(out)))
    for i, c in enumerate(n_lhs):
        if c:
            out[i] = _add_into(out[i], [c * x for x in pole])
    return embed_poly(_new(SYM, _sym_reduced(out, den, a, b)), mode)


def _per_point_convolution_residual(ident, pt):
    # one point of Theorem 4 or 5 through the per-point residual, with the
    # left side and brackets its checker reads
    from apobern import identities
    from apobern.families import bernoulli_poly, euler_poly

    n, k, y = pt.n, pt.k, pt.y
    if ident is IdentityId.ID_THM5:
        brackets = [identities._dilcher_rhs(n - j + k, y)._key for j in range(k, n + 1)]
        lhs = identities._convolution(euler_poly, n, y)
        return _per_point_residual(pt, lhs, brackets, scale=2, power=k)
    brackets = [identities._omega(lambda m, k, y: identities._hansen_rhs(m, y), n - j + k, k, y)
                for j in range(k, n + 1)]
    lhs = identities._convolution(bernoulli_poly, n, y)
    return _per_point_residual(pt, lhs, brackets, powers=k + 1)


@pytest.mark.parametrize("ident", (IdentityId.ID_THM4, IdentityId.ID_THM5))
def test_blocked_residuals_equal_the_per_point_residuals(ident):
    # a block packs the y samples of one (n, k, mode) into lanes of one
    # integer per cell: every residual must be the per-point one, key for
    # key, at every point of the default grid, run natively in the grid's
    # modes and three more.  The verify stream's grids (max-n <= 4,
    # max-k <= 3) are a corner of the default grid with the same blocks.
    from apobern import identities

    grid = default_grid(ident)
    corner = default_grid(ident, max_n=4, max_k=3)
    assert set(corner) <= set(grid)
    block = identities._CATALOG[ident].checker
    modes = {pt.mode for pt in grid} | {LambdaMode.numeric(q) for q in (-2, 1, Fraction(-1, 2))}
    checked = 0
    for mode in modes:
        blocks = {}
        for pt in grid:
            if pt.mode is SYM:
                blocks.setdefault((pt.n, pt.k), []).append(pt._replace(mode=mode))
        for points in blocks.values():
            assert len(points) == len({pt.y for pt in points}) > 1
            for pt, [(variant, residual)] in zip(points, block(points)):
                assert variant is None and residual.mode is mode
                assert residual._key == _per_point_convolution_residual(ident, pt)._key, pt
                checked += 1
    assert checked == len(grid) // 3 * len(modes)


BASIS = (IdentityId.ID_COR_XN, IdentityId.ID_THM2, IdentityId.ID_THM3, IdentityId.ID_THM4,
         IdentityId.ID_THM5)


@pytest.mark.parametrize("q", [None, 1, 2, -2, Fraction(1, 3), 0, Fraction(3, 2)])
@pytest.mark.parametrize("ident", BASIS)
def test_basis_number_table_sums_match_the_member_products(ident, q):
    # the checkers regroup the sum over members by the order-k numbers and
    # the powers of L; each residual must be the member-product residual,
    # key for key, at every symbolic point and natively at each L = q
    from apobern import identities

    def reference(pt):
        if ident is IdentityId.ID_THM5:
            return _member_product_thm5_residual(pt)
        return _member_product_basis_residual(ident, pt)

    mode = SYM if q is None else LambdaMode.numeric(q)
    grid = default_grid(ident, max_n=6, modes=(SYM,))
    assert {pt.k for pt in grid} == set(range(4)) and {pt.mode for pt in grid} == {SYM}
    for pt in grid:
        pt = pt._replace(mode=mode)
        [[(variant, residual)]] = identities._CATALOG[ident].checker([pt])
        assert variant is None and residual.mode is mode
        assert residual._key == reference(pt)._key, pt


def test_thm1_closed_form_residual_is_minus_the_corollary_residual():
    # Theorem 1's closed form at q = x^n (closed_form_coefficients through
    # lambda_power_at_zero) and the Corollary (the order-k number table of
    # _expansion_residual) check one statement by separate routes: at every
    # point of Theorem 1's grid, each checker run in the point's own mode,
    # the one residual is exactly minus the other
    catalog = _catalog()
    grid = default_grid(IdentityId.ID_THM1)
    assert len(grid) == 112
    failing = 0
    for pt in grid:
        [closed] = catalog[IdentityId.ID_THM1].checker([pt])
        closed = dict(closed)["closed-form"]
        [[(_, corollary)]] = catalog[IdentityId.ID_COR_XN].checker([pt])
        assert closed.mode is corollary.mode is pt.mode
        assert closed == -corollary, pt
        failing += bool(corollary)
    assert 0 < failing < len(grid)


def _expanded_left_side(ident, pt):
    """The q at L = 1 that a basis-expansion identity expands at ``pt``,
    rebuilt from the public families: x^n, E_n^(k)(x|1), B_n^(k)(x|1) or
    the Bernoulli convolution sum_i C(n,i) B_i(x) B_(n-i)(y)."""
    from math import comb

    from apobern.families import apostol_bernoulli_poly, apostol_euler_poly, bernoulli_poly
    from apobern.polynomials import XPolynomial

    n, k = pt.n, pt.k
    if ident is IdentityId.ID_COR_XN:
        return XPolynomial.monomial(ONE, n)
    if ident is IdentityId.ID_THM2:
        return apostol_euler_poly(n, k, ONE)
    if ident is IdentityId.ID_THM3:
        return apostol_bernoulli_poly(n, k, ONE)
    terms = [bernoulli_poly(i).scalar_mul(comb(n, i) * bernoulli_poly(n - i).evaluate(pt.y))
             for i in range(n + 1)]
    return sum(terms[1:], terms[0])


@pytest.mark.parametrize("ident, fails", [
    (IdentityId.ID_COR_XN, 135),
    (IdentityId.ID_THM2, 81),
    (IdentityId.ID_THM3, 81),
    (IdentityId.ID_THM4, 486),
])
def test_each_audited_basis_fail_is_theorem_1s_defect_at_its_q(ident, fails):
    # the Corollary and Theorems 2-4 are Theorem 1's basis expansion of one
    # q each: at every point of their grids, each checker run in the
    # point's own mode, the residual is exactly minus Theorem 1's closed-form
    # defect (reconstruction - q) at that q.  The checker sums integer rows
    # over the order-k table; the closed form goes through
    # lambda_power_at_zero and the basis sum.  So Theorem 1's printed
    # coefficient formula explains every fail these four identities pin.
    from apobern.expansion import closed_form_coefficients
    from apobern.polynomials import embed_poly

    checker = _catalog()[ident].checker
    failing = 0
    for pt in default_grid(ident):
        q = embed_poly(_expanded_left_side(ident, pt), pt.mode)
        [[(_, residual)]] = checker([pt])
        assert residual.mode is pt.mode
        assert residual == -(closed_form_coefficients(q, pt.k).reconstruction - q), pt
        failing += bool(residual)
    assert failing == fails


@pytest.mark.parametrize("ident, calls", [
    (IdentityId.ID_COR_XN, 30),
    (IdentityId.ID_THM2, 30),
    (IdentityId.ID_THM3, 30),
    (IdentityId.ID_THM4, 300),
])
def test_each_basis_lambda_sum_is_built_once_per_index_order_sample_and_mode(ident, calls):
    # c_j is n!/(m! j!) times sum_a L^a w_(m,a), and the lambda-free terms
    # w_(m,a) depend on m = n - j + k, k and y only, so a grid builds each
    # row once, whatever modes its checker runs in
    from apobern import identities

    grid = default_grid(ident)
    verify_identity(ident, grid)
    native = [pt for pt in grid if pt.mode.is_symbolic or abs(pt.mode.value) == 1]
    distinct = {(pt.n - j + pt.k, pt.k, pt.y) for pt in native for j in range(pt.k, pt.n + 1)}
    assert identities._omega.cache_info().misses == len(distinct) == calls


def test_suite_identities_share_the_memos_until_the_suite_returns(monkeypatch):
    # inside one run_suite ID_THM4 reads Hansen right sides that ID_HANSEN
    # built, so it builds fewer of them than it does alone; run_suite
    # leaves every memo empty
    from apobern import identities

    verify_identity(IdentityId.ID_THM4, default_grid(IdentityId.ID_THM4))
    alone = identities._hansen_rhs.cache_info()
    spec = identities._CATALOG[IdentityId.ID_THM4]
    infos = []

    def recording(points):
        infos.append(identities._hansen_rhs.cache_info())
        outcomes = spec.checker(points)
        infos.append(identities._hansen_rhs.cache_info())
        return outcomes

    monkeypatch.setitem(identities._CATALOG, IdentityId.ID_THM4, spec._replace(checker=recording))
    run_suite(SuiteConfig(ids=(IdentityId.ID_HANSEN, IdentityId.ID_THM4)))
    before, after = infos[0], infos[-1]
    assert before.currsize == before.misses > 0  # what ID_HANSEN built
    assert after.misses - before.misses < alone.misses
    assert after.hits - before.hits > alone.hits
    for memo in identities._MEMOS:
        assert memo.cache_info().currsize == 0, memo.__name__


def test_a_suite_hashes_each_y_sample_a_bounded_number_of_times(monkeypatch):
    # Fraction does not cache its hash, and a suite looks each y sample up
    # thousands of times (grid sorting, symbolic twins, memo keys); each
    # sample keeps its hash, so over a suite Fraction.__hash__ runs at most
    # twice per distinct sample
    config = SuiteConfig(max_n=4)
    samples = {pt.y for i in config.ids for pt in default_grid(i, max_n=4) if pt.y is not None}
    assert len(samples) == 7
    calls = []
    real = Fraction.__hash__

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(Fraction, "__hash__", counted)
    run_suite(config)
    assert len(calls) <= 2 * len(samples)


def _catalog():
    from apobern import identities

    return identities._CATALOG


# Every identity with a symbolic mode: each check is ring arithmetic in L,
# so its residual at a rational L other than +-1 is the value of its
# symbolic residual there, wherever that residual is not witness text.
SPECIALIZED = tuple(i for i in IdentityId if SYM in (_catalog()[i].modes or ()))


def test_checkers_run_where_no_symbolic_residual_is_specialized(monkeypatch):
    # on the default grids the checkers with a symbolic mode run at symbolic
    # and L = +-1 points only; the lambda-free checkers run at every point
    from apobern import identities

    for ident in IdentityId:
        spec = identities._CATALOG[ident]
        calls = []

        def recording(points, checker=spec.checker, calls=calls):
            calls.extend(points)
            return checker(points)

        monkeypatch.setitem(identities._CATALOG, ident, spec._replace(checker=recording))
        grid = default_grid(ident)
        verify_identity(ident, grid)
        native = [pt for pt in grid
                  if pt.mode is None or pt.mode.is_symbolic or abs(pt.mode.value) == 1]
        assert len(calls) == len(set(calls)), ident
        assert set(calls) == set(native if ident in SPECIALIZED else grid), ident
    thm1 = default_grid(IdentityId.ID_THM1)
    assert {pt.mode for pt in thm1 if pt.mode.is_symbolic or abs(pt.mode.value) == 1} == {SYM}


def test_text_residuals_send_their_numeric_twins_to_the_checker(monkeypatch):
    # witness text has no value at L: where the symbolic outcome holds text,
    # the numeric twins run the checker natively and report its verdicts
    from apobern import identities

    ident = IdentityId.ID_DERIV
    spec = identities._CATALOG[ident]
    calls = []

    def checker(points):
        calls.extend(points)
        return [[(None, "symbolic witness")] if pt.mode is SYM and pt.k == 1
                else spec.checker([pt])[0] for pt in points]

    monkeypatch.setitem(identities._CATALOG, ident, spec._replace(checker=checker))
    grid = default_grid(ident, max_n=3)
    report = verify_identity(ident, grid)
    native = [pt for pt in grid if pt.mode is SYM or abs(pt.mode.value) == 1 or pt.k == 1]
    assert len(calls) == len(set(calls)) and set(calls) == set(native)
    texts = [e for e in report.results if e.witness == "symbolic witness"]
    assert {e.point for e in texts} == {pt for pt in grid if pt.mode is SYM and pt.k == 1}
    assert all(e.passed for e in report.results if e not in texts)


@pytest.fixture(scope="module")
def default_results():
    return {
        (report.identity, entry.point, entry.variant): entry
        for report in run_suite(default_suite_config())
        for entry in report.results
    }


@pytest.mark.parametrize("q", [2, -2, Fraction(1, 3)])
def test_single_mode_suites_match_the_default_suite(q, default_results):
    # a one-mode grid has no symbolic twin, so every checker runs natively
    # and must reproduce the default suite's rows at q
    mode = LambdaMode.numeric(q)
    ids = tuple(i for i in IdentityId if mode in {pt.mode for pt in default_grid(i)})
    assert set(SPECIALIZED) & set(ids)
    native = {
        (ident, entry.point, entry.variant): entry
        for ident in ids
        for entry in verify_identity(ident, default_grid(ident, modes=(mode,))).results
    }
    assert native == {key: e for key, e in default_results.items() if key[1].mode is mode}


@pytest.fixture(scope="module")
def symbolic_outcomes():
    # the outcomes the suite specializes: those without witness text
    outcomes = {
        (ident, pt): _catalog()[ident].checker([pt])[0]
        for ident in SPECIALIZED
        for pt in default_grid(ident, max_n=4, max_k=2, modes=(SYM,))
    }
    specialized = {key: outcome for key, outcome in outcomes.items()
                   if not any(isinstance(r, str) for _, r in outcome)}
    assert {IdentityId.ID_THM1, IdentityId.ID_ZERO_ORDER} <= {i for i, _ in specialized}
    return specialized


@settings(max_examples=12, deadline=None)
@given(q=st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(lambda q: abs(q) != 1))
@example(q=Fraction(0))
@example(q=Fraction(3, 2))
@example(q=Fraction(-1, 2))
def test_native_residuals_are_the_specialized_symbolic_ones(symbolic_outcomes, q):
    # the checker run at L = q gives, variant for variant, the symbolic
    # residual with each coefficient evaluated at q; a None residual (a
    # pass) stays None.  The text the suite writes for the numeric twin
    # at q, from the symbolic key, is the native residual's witness
    from apobern.identities import _witness
    from apobern.render import _specialized_text

    mode = LambdaMode.numeric(q)
    for (ident, pt), outcome in symbolic_outcomes.items():
        [native] = _catalog()[ident].checker([pt._replace(mode=mode)])
        reference = [(v, None if r is None else
                      XPolynomial([c.evaluate_at(q) for c in r.coeffs], mode))
                     for v, r in outcome]
        assert native == reference, (ident, pt)
        twins = [(v, (r and _specialized_text(r._key, q)) or None) for v, r in outcome]
        assert twins == [(v, _witness(r)) for v, r in native], (ident, pt)


def test_euler_ramanujan_residual_is_a_constant_x_polynomial():
    # the residual B_m - RHS at L = 1 is a constant x-polynomial, and its
    # witness is the text the scalar difference alone renders to
    from apobern.identities import _witness
    from apobern.render import render_field_element

    ident = IdentityId.ID_EULER_RAMANUJAN
    failing = []
    for pt in default_grid(ident):
        [[(variant, residual)]] = _catalog()[ident].checker([pt])
        assert variant is None and isinstance(residual, XPolynomial), pt
        assert residual.mode == ONE and residual.degree <= 0, pt
        if residual:
            assert _witness(residual) == render_field_element(residual.coeffs[0]), pt
            failing.append((pt.n, _witness(residual)))
    assert failing == [(2, "1/6")]


def _ranges_by_loop(values):
    # the run-by-run scan that identities._ranges replaced
    parts = []
    run_start = prev = values[0]
    for v in list(values[1:]) + [None]:
        if v is not None and v == prev + 1:
            prev = v
            continue
        parts.append(str(run_start) if run_start == prev else f"{run_start}..{prev}")
        if v is not None:
            run_start = prev = v
    return ",".join(parts)


@settings(max_examples=150, deadline=None)
@given(st.sets(st.integers(-6, 25), min_size=1))
@example({3})
@example({1, 2, 3, 5})
@example({-2, -1, 0, 2, 3, 7})
def test_ranges_writes_each_run_of_consecutive_values_once(values):
    from apobern.identities import _ranges

    values = sorted(values)
    text = _ranges(values)
    assert text == _ranges_by_loop(values)
    assert _ranges([1, 2, 3, 5]) == "1..3,5"
    # each part is one maximal run, and the parts cover the values exactly
    spans = [tuple(int(s) for s in part.rsplit("..", 1)) if ".." in part[1:] else (int(part),) * 2
             for part in text.split(",")]
    assert [v for lo, hi in spans for v in range(lo, hi + 1)] == values
    assert all(hi + 1 < lo for (_, hi), (lo, _) in zip(spans, spans[1:]))


def test_mode_consistency_symbolic_pass_implies_numeric_pass():
    # for every identity with a deformation parameter: a symbolic pass at
    # (n, k, y, variant) forces a pass at each sampled numeric value
    for ident in (
        IdentityId.ID_DERIV,
        IdentityId.ID_THM1,
        IdentityId.ID_COR_XN,
        IdentityId.ID_THM2,
    ):
        report = verify_identity(ident, default_grid(ident))
        symbolic_pass = {
            (e.point.n, e.point.k, e.point.y, e.variant)
            for e in report.results
            if e.point.mode == SYM and e.passed
        }
        for entry in report.results:
            key = (entry.point.n, entry.point.k, entry.point.y, entry.variant)
            if entry.point.mode != SYM and key in symbolic_pass:
                assert entry.passed, (ident, entry.point)
