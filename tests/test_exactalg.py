import ast
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvelat.errors import PolySyntaxError
from curvelat.exactalg import (
    TruncSeries,
    echelon_insert,
    parse_poly,
    rank_rational,
    rank_sparse,
    series_mul,
    smith_normal_form,
)

from oracles import gauss_rank, snf_divisors_by_minors, snf_divisors_dense

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


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
    # Fractions with denominator 1 are scaled, bools are ranked as ints
    assert rank_rational([[Fraction(2, 1), Fraction(4, 1)],
                          [Fraction(1, 1), Fraction(2, 1)]]) == 1
    assert rank_rational([[Fraction(3, 1), 0], [0, Fraction(5, 1)]]) == 2
    assert rank_rational([[True, False], [False, True]]) == 2
    assert rank_rational([[True, True], [2, 2], [True, 1]]) == 1
    assert rank_rational([[False, False]]) == 0


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


_BIG = 2 ** 64


@st.composite
def _sparse_matrices(draw):
    # a sparse integer or Fraction matrix of any shape, with some zero
    # columns, then duplicates and combinations of its rows inserted
    # anywhere; returns (matrix, the rows before the insertions)
    integral = draw(st.booleans())
    scalar = st.integers(-_BIG, _BIG)
    if not integral:
        scalar = st.one_of(scalar, st.builds(Fraction, scalar,
                                             st.integers(1, _BIG)))
    entry = st.one_of(st.just(0), st.just(0), scalar)
    nrows = draw(st.integers(1, 10))
    ncols = draw(st.integers(1, 10))
    dead = draw(st.sets(st.integers(0, ncols - 1)))
    base = [[0 if j in dead else draw(entry) for j in range(ncols)]
            for _ in range(nrows)]
    coefficient = st.sampled_from([0, 0, 1, -1, 2, -3] if integral else
                                  [0, 0, 1, -1, Fraction(1, 3), _BIG])
    rows = [list(row) for row in base]
    for _ in range(draw(st.integers(0, 4))):
        weights = [draw(coefficient) for _ in base]
        combined = [sum(w * row[j] for w, row in zip(weights, base))
                    for j in range(ncols)]
        rows.insert(draw(st.integers(0, len(rows))), combined)
    return rows, base


@settings(max_examples=150, deadline=None)
@given(_sparse_matrices())
def test_rank_of_sparse_matrices_against_gaussian_oracle(drawn):
    # dependent rows, which become zero during elimination, add nothing;
    # an integer matrix, which is not rescaled, has the rank of the same
    # matrix written in Fractions, which is
    rows, base = drawn
    copy = [list(row) for row in rows]
    rank = rank_rational(rows)
    assert rank == gauss_rank(rows) == rank_rational(base)
    assert rank == rank_rational([[Fraction(x) for x in row] for row in rows])
    assert rows == copy


def _sparse(row):
    return {j: x for j, x in enumerate(row) if x}


@settings(max_examples=150, deadline=None)
@given(_sparse_matrices())
def test_echelon_insert_contract(drawn):
    # folding the kernel over the rows and over the columns, as sparse
    # vectors, both give the rank; it never changes its arguments,
    # stores primitive vectors led at their pivot with no zero entry,
    # and returns the basis it was given for a vector in its span
    rows, _ = drawn
    ints = [[(x * lcm(*[y.denominator for y in row])).numerator
             for x in row] for row in rows]
    for dense in (ints, [list(col) for col in zip(*ints)]):
        basis = {}
        for w in map(_sparse, dense):
            before = {k: dict(b) for k, b in basis.items()}
            w_before = dict(w)
            grown = echelon_insert(basis, w)
            assert basis == before and w == w_before
            assert grown is basis or (len(grown) == len(basis) + 1
                                      and grown.items() >= basis.items())
            basis = grown
        for k, b in basis.items():
            assert min(b) == k and all(b.values())
            assert gcd(*b.values()) == 1
        assert len(basis) == gauss_rank(dense)
        for w in map(_sparse, dense):
            assert echelon_insert(basis, w) is basis


@st.composite
def _cancelling_rows(draw):
    # sparse integer rows, then sums and differences of pairs of them,
    # whose reduction cancels entries to zero, in any order
    ncols = draw(st.integers(1, 8))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 6, 2 ** 40])
    rows = [[draw(entry) for _ in range(ncols)]
            for _ in range(draw(st.integers(1, 6)))]
    for _ in range(draw(st.integers(0, 4))):
        u, w = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        sign = draw(st.sampled_from([1, -1, 2]))
        rows.append([x + sign * y for x, y in zip(u, w)])
    return draw(st.permutations(rows))


@settings(max_examples=200, deadline=None)
@given(_cancelling_rows())
def test_rank_sparse_against_gaussian_oracle(dense):
    # the one-shot rank, whose basis grows in place, leaves the caller's
    # rows as they were
    rows = [_sparse(row) for row in dense]
    copy = [dict(row) for row in rows]
    assert rank_sparse(rows) == gauss_rank(dense)
    assert rows == copy


def test_rank_mixes_integer_and_fraction_rows():
    # integer rows go into the kernel as they are and Fraction rows are
    # scaled first; the two kinds share one basis in either order (the
    # first and last Fraction rows are in the span of the integer rows)
    ints = [[2, 4, 0, 6], [0, 3, 3, 0]]
    fracs = [[Fraction(1, 2), Fraction(1), 0, Fraction(3, 2)],
             [Fraction(1, 3), Fraction(5, 7), Fraction(1, 4), 0],
             [Fraction(1), Fraction(5, 2), Fraction(1, 2), Fraction(3)]]
    for rows in (ints + fracs, fracs + ints, [ints[0], fracs[1], ints[1],
                                              fracs[0], fracs[2]]):
        copy = [list(row) for row in rows]
        assert rank_rational(rows) == gauss_rank(rows) == 3
        assert rows == copy


def test_non_numbers_after_an_integer_basis_raise():
    # a row of floats or strings is refused even when the integer rows
    # before it have built pivots its entries would be reduced against
    base = [[1, 2, 3], [0, 1, 4]]
    for bad in ([1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [0, 0.5, 1],
                ["a", "b", "c"], ["", "", ""], [1, 2, "3"]):
        with pytest.raises(TypeError):
            rank_rational(base + [bad])


def test_ragged_rows_raise():
    for rows in ([[1], [1, 1]], [[1, 1], [1]], [[0], [0, 0]]):
        with pytest.raises(ValueError):
            rank_rational(rows)
        with pytest.raises(ValueError):
            smith_normal_form(rows)


def test_non_integer_entries_raise():
    for rows in ([[Fraction(1, 2)]], [[0.5, 1.0], [2.0, 2.0]]):
        with pytest.raises(TypeError):
            smith_normal_form(rows)
    for rows in ([[0.5, 1.0], [2.0, 2.0]], [[1, 0.0]]):
        with pytest.raises(TypeError):
            rank_rational(rows)


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
    # entries from [-7, 7], then with no unit entry at all, so that
    # every chain is reached through non-unit pivots and remainders
    rng = random.Random(5)
    for entries, size in ((range(-7, 8), 5), ((0, 2, 3, 4, -6), 6)):
        for _ in range(40):
            nrows = rng.randint(1, size)
            ncols = rng.randint(1, size)
            rows = [[rng.choice(entries) for _ in range(ncols)]
                    for _ in range(nrows)]
            res = smith_normal_form(rows)
            assert res.divisors == snf_divisors_by_minors(rows)
            assert res.rank == rank_rational(rows)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12).flatmap(lambda ncols: st.lists(
    st.lists(st.sampled_from([0, 0, 1, -1]), min_size=ncols,
             max_size=ncols), min_size=1, max_size=12)))
def test_snf_against_dense_loop_on_unit_matrices(rows):
    # 0/+-1 matrices, the entries of every boundary that homology sends
    copy = [list(row) for row in rows]
    res = smith_normal_form(rows)
    assert res.divisors == snf_divisors_dense(rows)
    assert res.rank == len(res.divisors) == rank_rational(rows)
    assert rows == copy


def test_snf_without_unit_entries_finishes():
    # the dense loop grows the entries of this matrix without bound and
    # did not finish in two minutes; a child process bounds the time,
    # so a slow loop fails here instead of hanging the suite
    rows = [[2, 4, 3, 4, 2, 4], [-6, 0, 2, 2, -6, 3], [3, 3, 0, 0, -6, 2],
            [0, 3, 0, -6, 4, 4], [-6, 0, 0, 2, 2, -6], [-6, 4, 0, 0, -6, 2],
            [2, 2, 0, 2, -6, -6]]
    code = ("import time\n"
            "from curvelat.exactalg import smith_normal_form\n"
            "start = time.perf_counter()\n"
            "res = smith_normal_form(%r)\n"
            "print((res.divisors, res.rank, time.perf_counter() - start))\n"
            % (rows,))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    divisors, rank, seconds = ast.literal_eval(done.stdout)
    assert divisors == snf_divisors_by_minors(rows) == [1, 1, 1, 1, 2, 10]
    assert rank == 6
    assert seconds < 1
