from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import curvelat.hilbert as hilbert_module
from curvelat.curve import BranchParametrization, Curve, h_oracle
from curvelat.errors import (
    ConsistencyError,
    InsufficientTruncation,
    NonStabilizing,
)
from curvelat.exactalg import TruncSeries
from curvelat.hilbert import (
    box_points,
    build_table,
    char_poly,
    invariants,
    large_n_step_check,
    local_matroid,
    semigroup,
    symmetry_check,
)

from conftest import CORPUS, corpus_curve
from oracles import (
    REFERENCE_A3,
    REFERENCE_A3_SEMIGROUP,
    REFERENCE_D5,
    REFERENCE_D5_SEMIGROUP,
    h_a_odd,
    numerical_semigroup,
)


# ---------------------------------------------------------------------------
# invariants


def test_invariants_single_branches():
    inv = invariants(corpus_curve("line"))
    assert (inv.delta, inv.mu, inv.conductor) == (0, 0, (0,))
    inv = invariants(corpus_curve("cusp"))
    assert (inv.delta, inv.mu, inv.conductor) == (1, 2, (2,))
    inv = invariants(corpus_curve("t2t5"))
    assert (inv.delta, inv.mu, inv.conductor) == (2, 4, (4,))


def test_invariants_two_branch_curves():
    inv = invariants(corpus_curve("a3"))
    assert inv.delta == 2
    assert inv.mu == 3
    assert inv.conductor == (2, 2)
    assert inv.pairwise[0][1] == 2
    inv = invariants(corpus_curve("d5"))
    assert inv.delta == 3
    assert inv.mu == 5
    assert inv.conductor == (2, 4)
    assert inv.delta_branches == [0, 1]


def test_invariants_triple_point():
    inv = invariants(corpus_curve("triple"))
    assert inv.delta == 3
    assert inv.mu == 2 * 3 - 3 + 1
    assert inv.conductor == (2, 2, 2)
    assert all(inv.pairwise[i][j] == 1
               for i in range(3) for j in range(3) if i != j)


def test_invariants_milnor_relation():
    for name in CORPUS:
        inv = invariants(corpus_curve(name))
        assert inv.mu == 2 * inv.delta - inv.r + 1
        assert sum(inv.conductor) == 2 * inv.delta


# ---------------------------------------------------------------------------
# families with closed-form invariants


def _monomial_branch(x, y, truncation):
    # (c t^n, d t^m) from x = (c, n) and y = (d, m)
    return BranchParametrization(TruncSeries({x[1]: x[0]}, truncation),
                                 TruncSeries({y[1]: y[0]}, truncation))


@settings(max_examples=20, deadline=None)
@given(st.tuples(st.integers(1, 5), st.integers(2, 7))
       .filter(lambda pq: gcd(*pq) == 1))
def test_monomial_branch_has_two_generator_semigroup(pq):
    p, q = pq
    c = (p - 1) * (q - 1)
    curve = Curve([_monomial_branch((1, p), (1, q), c + p + q + 2)])
    inv = invariants(curve)
    assert inv.delta == c // 2
    assert inv.conductor == (c,)
    members = {v for (v,) in semigroup(build_table(curve))}
    assert members == numerical_semigroup((p, q), c + 1)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=2, max_size=4, unique=True))
def test_distinct_lines_delta_and_milnor(slopes):
    r = len(slopes)
    inv = invariants(Curve([_monomial_branch((1, 1), (a, 1), 8)
                            for a in slopes]))
    assert inv.delta == r * (r - 1) // 2
    assert inv.mu == (r - 1) ** 2


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 5), st.integers(-3, 3), st.integers(-3, 3))
def test_tangent_smooth_pair_matches_a_odd(k, a, b):
    # (t, a t^k) and (t, b t^k) form an A_(2k-1) singularity
    if a == b:
        b = a + 4
    t = build_table(Curve([_monomial_branch((1, 1), (a, k), 2 * k + 4),
                           _monomial_branch((1, 1), (b, k), 2 * k + 4)]))
    assert t.invariants.conductor == (k, k)
    for v in box_points(t.corner):
        assert t.value(v) == h_a_odd(k, *v)


# ---------------------------------------------------------------------------
# table fill


def test_table_matches_reference_grids():
    t = build_table(corpus_curve("a3"), (4, 4))
    for v2 in range(5):
        for v1 in range(5):
            assert t.value((v1, v2)) == REFERENCE_A3[v2][v1]
    t = build_table(corpus_curve("d5"), (5, 5))
    for v2 in range(6):
        for v1 in range(6):
            assert t.value((v1, v2)) == REFERENCE_D5[v2][v1]


def test_table_closed_form_tangential_pairs():
    for n, name in [(2, "a3"), (3, "a5"), (4, "a7")]:
        t = build_table(corpus_curve(name), (n + 3, n + 3))
        for v1 in range(n + 4):
            for v2 in range(n + 4):
                assert t.value((v1, v2)) == h_a_odd(n, v1, v2)


def test_table_agrees_with_oracle_everywhere():
    # full agreement on a box, not only the sampled tenth
    c = corpus_curve("d5")
    t = build_table(c, (6, 6))
    for v1 in range(7):
        for v2 in range(7):
            assert t.value((v1, v2)) == h_oracle(c, (v1, v2))
    c = corpus_curve("triple")
    t = build_table(c, (4, 4, 4))
    for v1 in range(5):
        for v2 in range(5):
            for v3 in range(5):
                assert t.value((v1, v2, v3)) == h_oracle(c, (v1, v2, v3))
    c = Curve([BranchParametrization.from_strings(x, y, 24) for x, y in
               [("1/2*t^2", "1/3*t^3"), ("t", "-2/3*t^2 + 5/7*t^3")]])
    t = build_table(c, (7, 7))
    assert t.invariants.conductor == (5, 3)
    for v in box_points((7, 7)):
        assert t.value(v) == h_oracle(c, v)


def _spot_checked(v, truncation):
    # the fixed ~10% sample that the table builder recomputes
    acc = 0
    for c in v:
        acc = (acc * 1000003 + c) % 2147483648
    return acc % 10 == 0 and max(v) <= truncation


@pytest.mark.parametrize("name", ["a5", "triple"])
def test_fill_calls_h_oracle_only_for_the_spot_check(name, monkeypatch):
    c = corpus_curve(name)
    invariants(c)
    cells = []
    original = hilbert_module.h_oracle

    def recorded(curve, v):
        cells.append(v)
        return original(curve, v)

    monkeypatch.setattr(hilbert_module, "h_oracle", recorded)
    t = build_table(c)
    assert cells == [v for v in t.values if _spot_checked(v, c.truncation)]
    assert 0 < len(cells) < len(t.values)


def test_spot_check_catches_a_wrong_fill_value(monkeypatch):
    c = corpus_curve("triple")
    l = invariants(c).conductor
    wrong = max((v for v in box_points(l) if _spot_checked(v, c.truncation)),
                key=sum)
    assert sum(wrong) > 0
    original = hilbert_module._fill_to_conductor

    def off_by_one(curve, conductor):
        values = original(curve, conductor)
        values[wrong] += 1
        return values

    monkeypatch.setattr(hilbert_module, "_fill_to_conductor", off_by_one)
    with pytest.raises(ConsistencyError, match="table value .* direct rank"):
        build_table(c)


_coefficients = st.sampled_from([1, -1, 2, -3, Fraction(1, 2),
                                 Fraction(-2, 3), Fraction(5, 4)])


@st.composite
def _branch(draw, smooth=None):
    # a smooth branch (c t, a t^q + b t^(q+1)) or a cusp
    # (c t^2, a t^3 + b t^4), coordinates possibly swapped
    if smooth is None:
        smooth = draw(st.booleans())
    p, q = (1, draw(st.integers(1, 3))) if smooth else (2, 3)
    a, b = draw(_coefficients), draw(st.sampled_from([0, 1, -1, 2]))
    x = TruncSeries({p: draw(_coefficients)}, 16)
    y = TruncSeries({q: a, q + 1: b}, 16)
    if draw(st.booleans()):
        x, y = y, x
    return BranchParametrization(x, y)


_curves = st.one_of(
    st.lists(_branch(), min_size=2, max_size=2),
    st.lists(_branch(True), min_size=3, max_size=3),
).map(Curve)


@settings(max_examples=25, deadline=None)
@given(_curves)
def test_fill_matches_h_oracle_on_random_curves(c):
    # every cell the prefix ranks fill agrees with a full Bareiss rank
    try:
        t = build_table(c)
    except (NonStabilizing, InsufficientTruncation):
        reject()
    for v in box_points(t.invariants.conductor):
        assert t.values[v] == h_oracle(c, v)


def test_table_extends_beyond_corner():
    c = corpus_curve("a3")
    t = build_table(c, (3, 3))
    assert t.value((20, 2)) == h_oracle(c, (20, 2))
    assert t.value((9, 9)) == 9 + 9 - 2
    assert t.value((-5, 4)) == t.value((0, 4))


def test_table_clamps_negatives():
    t = build_table(corpus_curve("d5"), (3, 3))
    assert t.value((-1, 3)) == t.value((0, 3)) == 2


def test_table_steps_and_membership():
    t = build_table(corpus_curve("a3"), (4, 4))
    assert t.step((1, 1), 0) == 1
    assert t.step((1, 0), 1) == 0
    assert t.in_semigroup((1, 1))
    assert not t.in_semigroup((1, 0))
    assert not t.in_semigroup((-1, 0))


# ---------------------------------------------------------------------------
# semigroup


def test_semigroup_two_branch_reference_sets():
    got = set(semigroup(build_table(corpus_curve("a3"), (4, 4)), (4, 4)))
    assert got == REFERENCE_A3_SEMIGROUP
    got = set(semigroup(build_table(corpus_curve("d5"), (5, 5)), (5, 5)))
    assert got == REFERENCE_D5_SEMIGROUP


def test_semigroup_single_branch():
    got = semigroup(build_table(corpus_curve("t2t5"), (8,)), (8,))
    assert got == [(0,), (2,), (4,), (5,), (6,), (7,), (8,)]


def test_semigroup_default_box():
    got = semigroup(build_table(corpus_curve("cusp")))
    assert got == [(0,), (2,), (3,)]


def test_semigroup_min_closed():
    # componentwise minimum of two members is a member
    for name in ["a3", "d5"]:
        members = set(semigroup(build_table(corpus_curve(name), (6, 6)),
                                (6, 6)))
        for a in members:
            for b in members:
                m = tuple(min(x, y) for x, y in zip(a, b))
                assert m in members


# ---------------------------------------------------------------------------
# symmetry and far steps


def test_symmetry_all_corpus():
    for name in CORPUS:
        assert symmetry_check(build_table(corpus_curve(name))) is True


def test_large_n_steps_all_corpus():
    for name in CORPUS:
        assert large_n_step_check(build_table(corpus_curve(name))) is True


def test_value_rejects_wrong_length_points():
    # a point is never truncated to, or padded out to, the branch count
    t = build_table(corpus_curve("d5"))
    assert t.value((1, 3)) == 2
    for v in [(1, 3, 7), (1,)]:
        with pytest.raises(ValueError, match="expected 2 coordinates"):
            t.value(v)


def test_symmetry_detects_corruption():
    t = build_table(corpus_curve("a3"), (2, 2))
    t.values[(1, 0)] += 1
    with pytest.raises(ConsistencyError):
        symmetry_check(t)


# ---------------------------------------------------------------------------
# local matroids


def test_local_matroid_parallel_point():
    # at (1,1) both singletons are dependent on each other: rank 1
    t = build_table(corpus_curve("a3"), (4, 4))
    rank = local_matroid(t, (1, 1))
    assert rank[0] == 0
    assert rank[1] == 1 and rank[2] == 1
    assert rank[3] == 1


def test_local_matroid_far_point_is_free():
    t = build_table(corpus_curve("d5"), (5, 5))
    rank = local_matroid(t, (2, 4))
    assert rank[3] == 2


def test_char_poly_zero_off_semigroup():
    t = build_table(corpus_curve("a3"), (4, 4))
    for v in [(1, 0), (0, 1), (2, 1), (1, 2), (0, 3)]:
        assert not t.in_semigroup(v)
        assert all(c == 0 for c in char_poly(t, v))


def test_char_poly_values():
    t = build_table(corpus_curve("a3"), (4, 4))
    # two parallel elements of rank 1
    assert char_poly(t, (1, 1)) == (-1, 1)
    # free points of rank 2
    assert char_poly(t, (2, 2)) == (1, -2, 1)
    t5 = build_table(corpus_curve("d5"), (5, 5))
    assert char_poly(t5, (2, 4)) == (1, -2, 1)


def test_char_poly_triple_point():
    t = build_table(corpus_curve("triple"), (2, 2, 2))
    # at the origin only the constant separates: uniform rank 1
    assert char_poly(t, (0, 0, 0)) == (-1, 1)
    # at (1,1,1) the three branches behave like generic lines: U(2,3)
    assert char_poly(t, (1, 1, 1)) == (2, -3, 1)
