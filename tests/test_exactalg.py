import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvelat.errors import PolySyntaxError
from curvelat.exactalg import (
    TruncSeries,
    parse_poly,
    rank_rational,
    series_mul,
    smith_normal_form,
)

from oracles import gauss_rank, snf_divisors_by_minors


# ---------------------------------------------------------------------------
# parser


def test_parse_single_power():
    s = parse_poly("t^3", 10)
    assert s.coeffs == {3: Fraction(1)}
    assert s.truncation == 10


def test_parse_bare_t_and_t0():
    assert parse_poly("t", 10).coeffs == {1: Fraction(1)}
    assert parse_poly("t^0", 10).coeffs == {0: Fraction(1)}


def test_parse_full_expression():
    s = parse_poly("1 + 2*t - 1/2*t^4", 10)
    assert s.coeffs == {0: Fraction(1), 1: Fraction(2), 4: Fraction(-1, 2)}


def test_parse_negative_coefficient_term():
    s = parse_poly("-1*t^2", 10)
    assert s.coeffs == {2: Fraction(-1)}


def test_parse_zero():
    s = parse_poly("0", 10)
    assert s.is_zero()


def test_parse_repeated_exponents_sum():
    s = parse_poly("t + t + 2*t^2 - t^2", 10)
    assert s.coeffs == {1: Fraction(2), 2: Fraction(1)}


def test_parse_whitespace_ignored():
    a = parse_poly("  1+ 2 * t ", 10)
    b = parse_poly("1+2*t", 10)
    assert a == b


def test_parse_drops_terms_beyond_truncation():
    s = parse_poly("t + t^5", 5)
    assert s.coeffs == {1: Fraction(1)}


def test_parse_double_caret_position():
    with pytest.raises(PolySyntaxError) as exc:
        parse_poly("t^^2", 10)
    assert exc.value.position == 2


def test_parse_bare_minus_t_rejected():
    with pytest.raises(PolySyntaxError):
        parse_poly("-t", 10)


def test_parse_zero_denominator():
    with pytest.raises(PolySyntaxError):
        parse_poly("1/0", 10)


def test_parse_empty_is_error_at_zero():
    with pytest.raises(PolySyntaxError) as exc:
        parse_poly("", 10)
    assert exc.value.position == 0


def test_parse_trailing_garbage():
    with pytest.raises(PolySyntaxError):
        parse_poly("t 2", 10)
    with pytest.raises(PolySyntaxError):
        parse_poly("t*2", 10)


def test_parse_star_without_t():
    with pytest.raises(PolySyntaxError):
        parse_poly("2*3", 10)


# ---------------------------------------------------------------------------
# series arithmetic

small_series = st.builds(
    TruncSeries,
    st.dictionaries(st.integers(min_value=0, max_value=7),
                    st.fractions(min_value=-20, max_value=20,
                                 max_denominator=5),
                    max_size=5),
    st.integers(min_value=1, max_value=8),
)


@settings(max_examples=200, deadline=None)
@given(small_series, small_series)
def test_series_mul_commutes(a, b):
    assert series_mul(a, b) == series_mul(b, a)


@settings(max_examples=200, deadline=None)
@given(small_series, small_series, small_series)
def test_series_mul_associates(a, b, c):
    assert series_mul(series_mul(a, b), c) == series_mul(a, series_mul(b, c))


def _add(a, b):
    # sum truncated to the smaller truncation, as series_mul truncates
    coeffs = dict(a.coeffs)
    for e, c in b.coeffs.items():
        coeffs[e] = coeffs.get(e, 0) + c
    return TruncSeries(coeffs, min(a.truncation, b.truncation))


@settings(max_examples=200, deadline=None)
@given(small_series, small_series, small_series)
def test_series_mul_distributes(a, b, c):
    lhs = series_mul(a, _add(b, c))
    rhs = _add(series_mul(a, b), series_mul(a, c))
    assert lhs == rhs


def test_series_min_truncation():
    a = TruncSeries({0: 1, 4: 1}, 8)
    b = TruncSeries({0: 1}, 5)
    assert series_mul(a, b).truncation == 5


def test_series_mul_truncates_cross_terms():
    a = parse_poly("t^2", 4)
    b = parse_poly("t^3", 4)
    assert series_mul(a, b).is_zero()


def test_order():
    assert parse_poly("t^2 + t^5", 10).order() == 2
    assert parse_poly("0", 10).order() is None
    assert parse_poly("t^20", 16).order() is None


# ---------------------------------------------------------------------------
# rank


def test_rank_simple():
    assert rank_rational([[1, 2], [2, 4]]) == 1
    assert rank_rational([[1, 0], [0, 1]]) == 2
    assert rank_rational([[0, 0], [0, 0]]) == 0
    assert rank_rational([]) == 0
    assert rank_rational([[], []]) == 0


def test_rank_with_fractions():
    rows = [[Fraction(1, 2), Fraction(1, 3)],
            [Fraction(3, 2), Fraction(1, 1)]]
    assert rank_rational(rows) == gauss_rank(rows)


def test_rank_against_gaussian_oracle():
    rng = random.Random(7)
    for _ in range(40):
        nrows = rng.randint(1, 12)
        ncols = rng.randint(1, 12)
        rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                 for _ in range(ncols)] for _ in range(nrows)]
        assert rank_rational(rows) == gauss_rank(rows)


def test_rank_low_rank_products():
    # rank <= 2 by construction
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(2, 10)
        u = [rng.randint(-5, 5) for _ in range(n)]
        v = [rng.randint(-5, 5) for _ in range(n)]
        a = [rng.randint(-5, 5) for _ in range(n)]
        b = [rng.randint(-5, 5) for _ in range(n)]
        rows = [[u[i] * v[j] + a[i] * b[j] for j in range(n)]
                for i in range(n)]
        assert rank_rational(rows) == gauss_rank(rows)


# ---------------------------------------------------------------------------
# smith normal form


def test_snf_pinned_example():
    res = smith_normal_form([[2, 4], [4, 8]])
    assert res.divisors == [2]
    assert res.rank == 1


def test_snf_empty():
    for rows in ([], [[], []]):
        res = smith_normal_form(rows)
        assert res.divisors == []
        assert res.rank == 0


def test_snf_identity_and_diag():
    assert smith_normal_form([[1, 0], [0, 1]]).divisors == [1, 1]
    res = smith_normal_form([[2, 0], [0, 3]])
    assert res.divisors == [1, 6]


def test_snf_divisor_chain_property():
    rng = random.Random(3)
    for _ in range(60):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(ncols)]
                for _ in range(nrows)]
        res = smith_normal_form(rows)
        for a, b in zip(res.divisors, res.divisors[1:]):
            assert a > 0 and b % a == 0


def test_snf_against_minor_gcd_oracle():
    rng = random.Random(5)
    for _ in range(40):
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 5)
        rows = [[rng.randint(-7, 7) for _ in range(ncols)]
                for _ in range(nrows)]
        res = smith_normal_form(rows)
        assert res.divisors == snf_divisors_by_minors(rows)
        assert res.rank == rank_rational(rows)
