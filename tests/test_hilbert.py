import ast
import copy
import random
import re
from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod

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
from curvelat.exactalg import TruncSeries, parse_poly, series_mul
from curvelat.hilbert import (
    box_points,
    build_table,
    char_poly,
    invariants,
    large_n_step_check,
    local_field,
    local_matroid,
    semigroup,
    symmetry_check,
)

from conftest import (BENCH_CURVES, CORPUS, bench_curve, cell,
                      corpus_curve, count_reader_calls, named_curve,
                      shifted_readers)
from oracles import (
    REFERENCE_A3,
    REFERENCE_A3_SEMIGROUP,
    REFERENCE_D5,
    REFERENCE_D5_SEMIGROUP,
    h_a_odd,
    numerical_semigroup,
    step_rule_mismatches,
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


@pytest.mark.parametrize("shift, message", [
    (1, "h at the conductor is 5, expected delta = 4"),
    (-1, "h one below the conductor in direction 1 is 1, expected "
         "delta = 2"),
])
def test_conductor_check_rejects_a_wrong_pair_number(monkeypatch, shift,
                                                     message):
    # d5's pair number is 2; one off moves delta and the conductor, and
    # the direct ranks at and below the conductor disagree
    original = hilbert_module.intersection_multiplicity
    monkeypatch.setattr(hilbert_module, "intersection_multiplicity",
                        lambda curve, i, j: original(curve, i, j) + shift)
    with pytest.raises(ConsistencyError, match="^%s$" % message):
        invariants(corpus_curve("d5"))


def test_invariants_milnor_relation():
    for name in CORPUS:
        inv = invariants(corpus_curve(name))
        assert inv.mu == 2 * inv.delta - inv.r + 1
        assert sum(inv.conductor) == 2 * inv.delta


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CORPUS + BENCH_CURVES), st.booleans(), st.data())
def test_invariants_follow_a_relabeling_of_the_branches(name, swap, data):
    # new branch objects, so nothing cached is read: listing the branches
    # in another order permutes every per-branch invariant, and swapping
    # x and y in every branch changes none
    curve = named_curve(name)
    inv = invariants(curve)
    order = data.draw(st.permutations(range(curve.r)))
    relabeled = invariants(Curve([
        BranchParametrization(*((b.y, b.x) if swap else (b.x, b.y)))
        for b in (curve.branches[i] for i in order)]))
    assert relabeled == inv._replace(
        delta_branches=[inv.delta_branches[i] for i in order],
        mu_branches=[inv.mu_branches[i] for i in order],
        pairwise=[[inv.pairwise[i][j] for j in order] for i in order],
        conductor=tuple(inv.conductor[i] for i in order))


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


def _record_oracle(monkeypatch):
    # the point lists of the oracle calls that the hilbert module makes,
    # and the points that h_oracle ranks one at a time
    calls, single = [], []
    original = hilbert_module.oracle_values

    def recorded(curve, points):
        calls.append(list(points))
        return original(curve, points)

    def one_point(curve, v):
        single.append(tuple(v))
        return original(curve, [v])[0]

    monkeypatch.setattr(hilbert_module, "oracle_values", recorded)
    monkeypatch.setattr(hilbert_module, "h_oracle", one_point)
    return calls, single


@pytest.mark.parametrize("name", ["a5", "triple"])
def test_fill_calls_h_oracle_only_for_the_spot_check(name, monkeypatch):
    # the build ranks by the oracle only the spot check's sample, all of
    # it in one walk, in lexicographic order
    c = corpus_curve(name)
    invariants(c)
    calls, single = _record_oracle(monkeypatch)
    t = build_table(c)
    checked = list(box_points(t.corner))
    assert calls == [[v for v in checked if _spot_checked(v, c.truncation)]]
    assert 0 < len(calls[0]) < len(checked)
    assert single == []


@pytest.mark.parametrize("name", ["cusp", "d5", "four"])
def test_spot_check_sample_is_the_per_point_hash(name, monkeypatch):
    # the sample's hashes are built one axis at a time; the sampled set is
    # the per-point hash's, past the conductor and up to the truncation
    c = named_curve(name)
    invariants(c)
    calls, _ = _record_oracle(monkeypatch)
    for box in [None, tuple(a + 3 for a in invariants(c).conductor)]:
        t = build_table(c, box)
        assert calls.pop() == [v for v in box_points(t.corner)
                               if _spot_checked(v, c.truncation)]


@pytest.mark.parametrize("name", ["d5", "triple"])
def test_table_stores_exactly_the_conductor_box(name):
    c = corpus_curve(name)
    l = invariants(c).conductor
    for box in [None, l, tuple(a + 2 for a in l), (9,) * c.r]:
        assert len(build_table(c, box).values) == prod(a + 1 for a in l), box


def test_spot_check_catches_a_wrong_fill_value(monkeypatch):
    c = corpus_curve("triple")
    l = invariants(c).conductor
    wrong = max((v for v in box_points(l) if _spot_checked(v, c.truncation)),
                key=sum)
    assert sum(wrong) > 0
    offset = cell(build_table(c), wrong)
    original = hilbert_module._fill_to_conductor

    def off_by_one(curve, conductor):
        values = original(curve, conductor)
        values[offset] += 1
        return values

    monkeypatch.setattr(hilbert_module, "_fill_to_conductor", off_by_one)
    with pytest.raises(ConsistencyError, match="table value .* direct rank"):
        build_table(c)


def test_fill_reads_no_oracle_column(monkeypatch):
    # the fill builds its own columns from the jets; the oracle's cache
    # is not among its inputs
    expected = build_table(corpus_curve("d5")).values
    c = corpus_curve("d5")
    l = invariants(c).conductor

    def refused(branch, n):
        raise AssertionError("the fill read an oracle column")

    monkeypatch.setattr(BranchParametrization, "columns", refused)
    assert hilbert_module._fill_to_conductor(c, l) == expected


def test_spot_check_catches_a_poisoned_oracle_column():
    # on a3 = (t, t^2), (t, -1*t^2) column 2 of the second branch is
    # {x^2: 1, y: -1}; with y's entry (index 1) made 1 it equals column
    # 2 of the first branch, so ranks with both columns, v >= (3, 3),
    # drop by one while every one-branch rank stays.  The poison is set
    # before the spot check extends the second branch's columns (at
    # (2, 4)), and the first sampled cell with v >= (3, 3) is (4, 8)
    c = corpus_curve("a3")
    invariants(c)
    column = c.branches[1].columns(3)[2]
    assert column == {1: -1, 5: 1}
    column[1] = 1
    with pytest.raises(ConsistencyError,
                       match=r"^table value 10 at \(4, 8\) but direct rank "
                             r"is 9$"):
        build_table(c, (6, 6))


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


def _jet_by_fractions(x, y, truncation, a, b):
    # the jet of x^a y^b as BranchParametrization.jet defines it (x and y
    # dicts of coefficients), composed one factor at a time with every
    # coefficient and sum a Fraction.  It is kept here, not in oracles:
    # bench/run.py executes oracles.py in its own process, whose peak
    # RSS is what the benchmark's peak_rss_mb reads
    p = {0: Fraction(1)}
    for factor in [x] * a + [y] * b:
        out = {}
        for e, c in p.items():
            for k, d in factor.items():
                if e + k < truncation:
                    out[e + k] = out.get(e + k, Fraction(0)) + c * Fraction(d)
        p = out
    q = lcm(*(Fraction(c).denominator for c in [*x.values(), *y.values()]))
    jet = tuple((e, c * q ** e) for e, c in sorted(p.items()) if c)
    assert all(c.denominator == 1 for _, c in jet)
    return tuple((e, c.numerator) for e, c in jet)


def _written(series, k):
    # the series as parse_poly text, each coefficient n/d written as
    # (k n)/(k d), so that integral ones are written with a denominator
    return " + ".join("%d/%d*t^%d" % (k * c.numerator, k * c.denominator, e)
                      for e, c in sorted(series.coeffs.items()))


def _ints_exactly_when_integral(series):
    return all((type(c) is int) == (c.denominator == 1)
               for c in series.coeffs.values())


@settings(max_examples=60, deadline=None)
@given(_branch(), st.integers(1, 3), st.integers(0, 3), st.integers(0, 3))
def test_coefficients_are_ints_exactly_when_integral(branch, k, a, b):
    # the number rule of TruncSeries on every series a jet is composed
    # from: parsed, multiplied, raised to a power or made a monomial, a
    # coefficient is an int when it is integral and a Fraction only
    # otherwise; and the jet is the one of Fraction arithmetic
    x, y = (parse_poly(_written(s, k), 16) for s in (branch.x, branch.y))
    assert (x, y) == (branch.x, branch.y)
    branch = BranchParametrization(x, y)
    for s in [x, y, series_mul(x, y), branch._power(x, a, "_xpow"),
              branch._power(y, b, "_ypow"), branch.monomial(a, b)]:
        assert _ints_exactly_when_integral(s), s
    assert branch.jet(a, b) == _jet_by_fractions(x.coeffs, y.coeffs, 16,
                                                 a, b)


_curves = st.one_of(
    st.lists(_branch(), min_size=2, max_size=2),
    st.lists(_branch(True), min_size=3, max_size=3),
).map(Curve)


@settings(max_examples=25, deadline=None)
@given(_curves)
def test_fill_matches_h_oracle_on_random_curves(c):
    # every cell the prefix ranks fill agrees with a full matrix rank
    try:
        t = build_table(c)
    except (NonStabilizing, InsufficientTruncation):
        reject()
    for v, h in zip(box_points(t.invariants.conductor), t.values,
                    strict=True):
        assert h == h_oracle(c, v)


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
    h, *ahead = t.cube((1, 1))
    assert ahead[0] - h == 1
    h, *ahead = t.cube((1, 0))
    assert ahead[1] - h == 0
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


@pytest.mark.parametrize("name", CORPUS + BENCH_CURVES)
def test_semigroup_is_in_semigroup_at_every_point(name):
    # the default box, boxes below the conductor and past the corner
    t = build_table(named_curve(name))
    l = t.invariants.conductor
    for box in [None, tuple(max(c - 1, 0) for c in l),
                tuple(c + 1 for c in t.corner)]:
        top = box or tuple(c + 1 for c in l)
        assert semigroup(t, box) == [v for v in box_points(top)
                                     if t.in_semigroup(v)], box


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


@pytest.mark.parametrize("name, calls", [("triple", 200),
                                         ("tacnode3", 200), ("four", 1008)])
def test_large_n_steps_compute_each_point_once(monkeypatch, name, calls):
    # the lines of different directions share points, and each distinct
    # point is ranked once, all of them in one walk
    table = build_table(named_curve(name))
    points, single = _record_oracle(monkeypatch)
    assert large_n_step_check(table) is True
    assert len(points) == 1
    assert len(points[0]) == len(set(points[0])) == calls
    assert single == []


def test_large_n_steps_past_the_truncation_raise_at_their_line():
    # a point past the truncation raises when its line is reached, as
    # when each line ranked its own points: with d5's conductor taken as
    # (1, 4), a direction-0 line meets a step of 0 at (1, 4) before any
    # line reaches a point past 5 terms, and at (2, 3) every direction-0
    # line needs 7 terms before the failing direction-1 line
    for conductor, kept, error, message in [
            ((2, 4), 7, InsufficientTruncation, "need 8 series terms"),
            ((1, 4), 5, ConsistencyError,
             r"step beyond the conductor is 0 at \(1, 4\) direction 0"),
            ((2, 3), 6, InsufficientTruncation, "need 7 series terms")]:
        table = _with_conductor("d5", conductor)
        table.curve = Curve(table.curve.branches)
        table.curve.truncation = kept
        with pytest.raises(error, match=message):
            large_n_step_check(table)


def _with_conductor(name, conductor):
    # a view of the curve's table that states another conductor
    table = copy.copy(build_table(corpus_curve(name)))
    table.invariants = table.invariants._replace(conductor=conductor)
    return table


def test_large_n_steps_refuse_an_understated_conductor():
    # the cusp's h is 1 at both 1 and 2, so a conductor of 1 meets a step
    # of 0 at its first step; d5's second branch is a cusp, so where the
    # first coordinate is 0 the steps along the second are 1 from 2 on,
    # and only a sample off that axis, (2, 3), shows the 0 step
    for name, conductor in [("cusp", (1,)), ("d5", (2, 2))]:
        with pytest.raises(ConsistencyError, match="step beyond"):
            large_n_step_check(_with_conductor(name, conductor))


def test_value_rejects_wrong_length_points():
    # a point is never truncated to, or padded out to, the branch count
    t = build_table(corpus_curve("d5"))
    assert t.value((1, 3)) == 2
    for v in [(1, 3, 7), (1,)]:
        with pytest.raises(ValueError, match="expected 2 coordinates"):
            t.value(v)
        with pytest.raises(ValueError, match="expected 2 coordinates"):
            t.cube(v)


def test_non_integer_coordinates_are_refused():
    # (1.9, 3.9) must not be read as (1, 3), where h = 2
    curve = corpus_curve("d5")
    t = build_table(curve)
    for v in [(1.9, 3.9), (Fraction(3, 2), 3)]:
        with pytest.raises(TypeError):
            t.value(v)
        with pytest.raises(TypeError):
            t.cube(v)
        with pytest.raises(TypeError):
            h_oracle(curve, v)
    with pytest.raises(TypeError):
        build_table(curve, (2.5, 4))


@pytest.mark.parametrize("name", ["d5", "triple"])
def test_cube_bit_j_adds_e_j(name):
    # entry K of the cube is h(v + e_K) with bit j of K adding e_j, at a
    # point inside the box, one beyond the stored corner and one with a
    # negative coordinate
    t = build_table(corpus_curve(name))
    r = len(t.corner)
    inside = tuple(range(1, r + 1))
    beyond = tuple(c + j for j, c in enumerate(t.corner))
    for v in [inside, beyond, (-1,) + inside[1:]]:
        cube = t.cube(v)
        assert len(cube) == 1 << r
        for bits in product((0, 1), repeat=r):
            mask = sum(b << j for j, b in enumerate(bits))
            assert cube[mask] == t.value([c + b for c, b in zip(v, bits)])


_READER_CURVES = ["cusp", "d5", "triple", "four"]  # r = 1, 2, 3, 4


@pytest.fixture(scope="module")
def reader_tables():
    return {name: build_table(bench_curve(name) if name == "four"
                              else corpus_curve(name))
            for name in _READER_CURVES}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_READER_CURVES), st.data())
def test_readers_agree_with_h_oracle_around_the_conductor_box(
        reader_tables, name, data):
    # value is h_oracle at the clip of v to [0, l] plus the excess past
    # l; cube and in_semigroup agree with value
    t = reader_tables[name]
    l = t.invariants.conductor
    v = tuple(data.draw(st.integers(-2, c + 3)) for c in l)
    clip = tuple(min(max(c, 0), top) for c, top in zip(v, l))
    past = sum(max(c - top, 0) for c, top in zip(v, l))
    h = t.value(v)
    assert h == h_oracle(t.curve, clip) + past
    ahead = [t.value([c + (j == i) for j, c in enumerate(v)])
             for i in range(len(v))]
    for mask, got in enumerate(t.cube(v)):
        assert got == t.value([c + (mask >> j & 1)
                               for j, c in enumerate(v)]), mask
    assert t.in_semigroup(v) == all(a == h + 1 for a in ahead)


def test_cube_never_reads_value(monkeypatch):
    # one path: every cube is read off the flat list, with no fallback
    # to value anywhere around the conductor box
    t = build_table(bench_curve("four"))
    calls = []
    original = hilbert_module.HilbertTable.value

    def counting(self, v):
        calls.append(tuple(v))
        return original(self, v)

    monkeypatch.setattr(hilbert_module.HilbertTable, "value", counting)
    box = tuple(c + 2 for c in t.invariants.conductor)
    cubes = [t.cube(v) for v in box_points(box)]
    assert len(cubes) == 6 ** 4
    assert calls == []


@pytest.mark.parametrize("name", CORPUS + BENCH_CURVES)
def test_grid_is_value_at_every_point(name):
    # tops below the conductor, at l + 2, past the checked corner, and
    # one that is below l on some axes and past it on the others
    t = build_table(named_curve(name))
    l = t.invariants.conductor
    for top in [tuple(max(c - 1, 0) for c in l), tuple(c + 2 for c in l),
                tuple(c + 1 for c in t.corner),
                tuple(c + 3 if j % 2 else max(c - 1, 0)
                      for j, c in enumerate(l))]:
        assert t.grid(top) == [t.value(v) for v in box_points(top)], top


@pytest.mark.parametrize("name", CORPUS + BENCH_CURVES)
def test_local_field_is_cube_and_value_at_every_point(name):
    # boxes below the conductor, at l + 2 and past the checked corner: h
    # is value, each point's vector is its cube less h, the vectors are
    # distinct, and they are numbered in the order of their first points
    t = build_table(named_curve(name))
    l = t.invariants.conductor
    for box in [tuple(max(c - 1, 0) for c in l), tuple(c + 2 for c in l),
                tuple(c + 1 for c in t.corner)]:
        h, ids, vectors = local_field(t, box)
        points = list(box_points(box))
        assert h == [t.value(v) for v in points], box
        assert [vectors[i] for i in ids] == [
            tuple(x - cube[0] for x in cube)
            for cube in map(t.cube, points)], box
        assert len(set(vectors)) == len(vectors)
        assert list(dict.fromkeys(ids)) == list(range(len(vectors)))


def test_build_table_rejects_wrong_length_boxes():
    # (3,) must not fail inside the fill, and (3, 3, 99) must not be
    # read as (3, 3)
    curve = corpus_curve("d5")
    for box, n in [((3,), 1), ((3, 3, 99), 3)]:
        with pytest.raises(ValueError,
                           match="expected 2 coordinates, got %d" % n):
            build_table(curve, box)


# ---------------------------------------------------------------------------
# the step-rule sweep


def _bound(table):
    return tuple(c - 2 for c in table.corner)


def _sweep_failure(table, bound):
    # the (v, i) named by the sweep's ConsistencyError, or None
    try:
        hilbert_module._step_rule_sweep(table, bound)
    except ConsistencyError as exc:
        found = re.fullmatch(r"step rule fails at (\(.*\)) direction (\d+)",
                             str(exc))
        return ast.literal_eval(found.group(1)), int(found.group(2))
    return None


@pytest.mark.parametrize("name", CORPUS)
def test_sweep_agrees_with_the_witness_search_on_the_corpus(name):
    curve = corpus_curve(name)
    l = invariants(curve).conductor
    for box in [l, tuple(c + 2 for c in l)]:
        table = build_table(curve, box)
        assert step_rule_mismatches(table, _bound(table)) == set()
        assert _sweep_failure(table, _bound(table)) is None


def test_sweep_raises_exactly_when_the_witness_search_does(monkeypatch):
    # seeded corruptions of one table value, seen by every cube (which
    # the search reads) and every grid (which the sweep reads) that
    # covers it, on [0, bound] (where memberships are read) or on
    # [0, bound + 1]; the sweep must raise iff the search finds a
    # mismatch, and name one
    rng = random.Random(20131)
    tables = [build_table(corpus_curve(name),
                          tuple(c + 1 for c in
                                invariants(corpus_curve(name)).conductor))
              for name in ["cusp", "t2t5", "a3", "d5", "triple"]]
    raised = 0
    for trial in range(240):
        table = rng.choice(tables)
        bound = _bound(table)
        with monkeypatch.context() as m:
            v = tuple(rng.randint(0, b + trial % 2) for b in bound)
            shift = rng.choice((-1, 1))
            for reader, shifted in shifted_readers(table, v, shift).items():
                m.setattr(table, reader, shifted)
            expected = step_rule_mismatches(table, bound)
            failure = _sweep_failure(table, bound)
        assert (failure is None) == (not expected), (trial, v)
        assert failure is None or failure in expected
        raised += failure is not None
    # 191 of the 240 seeded shifts break the step rule
    assert 180 < raised < 240, raised


def test_build_table_reads_each_membership_once(monkeypatch):
    # the memberships come from the sweep's one grid of h on
    # [0, bound + 1], and no cube is read
    for name, box in [("d5", None), ("triple", (4, 3, 5))]:
        with monkeypatch.context() as m:
            calls = count_reader_calls(m, ["grid", "cube"])
            table = build_table(corpus_curve(name), box)
        top = tuple(b + 1 for b in _bound(table))
        assert calls == {"grid": [top], "cube": []}


def test_sweep_reads_one_grid_and_nothing_else(monkeypatch):
    # membership and every step at every point come from one grid: no
    # cube, no value and no in_semigroup call
    table = build_table(bench_curve("four"))
    bound = _bound(table)
    calls = count_reader_calls(monkeypatch,
                              ["grid", "cube", "value", "in_semigroup"])
    hilbert_module._step_rule_sweep(table, bound)
    assert calls == {"grid": [tuple(b + 1 for b in bound)], "cube": [],
                     "value": [], "in_semigroup": []}


def test_symmetry_detects_corruption():
    t = build_table(corpus_curve("a3"), (2, 2))
    t.values[cell(t, (1, 0))] += 1
    with pytest.raises(ConsistencyError):
        symmetry_check(t)


@pytest.mark.parametrize("name", ["cusp", "a3", "triple"])
def test_spot_check_refuses_a_changed_cell(name):
    # h is 0 at the origin of every curve, and the origin's hash is 0, so
    # every spot check samples it
    table = build_table(corpus_curve(name))
    table.values[0] += 1
    with pytest.raises(ConsistencyError,
                       match=r"^table value 1 at \(0(, 0)*,?\) but direct "
                             r"rank is 0$"):
        hilbert_module._spot_check(table)


def test_step_rule_refuses_a_changed_cell():
    # the cusp's h is 0, 1, 1 on [0, 2]; h(1) = 2 makes the step at 0 a 2
    table = build_table(corpus_curve("cusp"))
    table.values[cell(table, (1,))] += 1
    with pytest.raises(ConsistencyError,
                       match=r"^step rule fails at \(0,\) direction 0$"):
        hilbert_module._step_rule_sweep(table, table.invariants.conductor)


# ---------------------------------------------------------------------------
# local matroids


def test_local_matroid_parallel_point():
    # at (1,1) both singletons are dependent on each other: rank 1
    t = build_table(corpus_curve("a3"), (4, 4))
    rank = local_matroid(t, (1, 1)).rank
    assert rank[0] == 0
    assert rank[1] == 1 and rank[2] == 1
    assert rank[3] == 1


def test_local_matroid_far_point_is_free():
    t = build_table(corpus_curve("d5"), (5, 5))
    rank = local_matroid(t, (2, 4)).rank
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
