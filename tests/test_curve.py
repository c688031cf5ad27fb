from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvelat.curve as curve_module
import curvelat.hilbert as hilbert_module
from curvelat.cli import main
from curvelat.curve import (
    BranchParametrization,
    Curve,
    _local_intersection_check,
    branch_delta,
    h_oracle,
    intersection_multiplicity,
    oracle_values,
)
from curvelat.errors import (
    ConsistencyError,
    InsufficientTruncation,
    InvalidParametrization,
    NonStabilizing,
    PrimitivityError,
)
from curvelat.exactalg import TruncSeries, parse_poly, rank_sparse
from curvelat.hilbert import build_table, invariants

from conftest import (BENCH_CURVES, CORPUS, bench_curve, corpus_curve,
                      corpus_path, named_curve)
from oracles import (
    REFERENCE_A3,
    REFERENCE_D5,
    gauss_rank,
    h_a_odd,
    h_count_r1,
    numerical_semigroup,
)


# ---------------------------------------------------------------------------
# constructor constraints


def test_branch_rejects_both_zero():
    with pytest.raises(InvalidParametrization):
        BranchParametrization.from_strings("0", "0", 16)


def test_branch_names_the_truncation_that_zeroes_it():
    # t^2 and t^3 are parsed, but both drop at truncation 2
    with pytest.raises(InvalidParametrization, match=r"modulo t\^2$"):
        BranchParametrization.from_strings("t^2", "t^3", 2)


def test_branch_rejects_nonvanishing_coordinate():
    with pytest.raises(InvalidParametrization):
        BranchParametrization.from_strings("1 + t", "t^2", 16)


def test_branch_rejects_imprimitive_exponents():
    with pytest.raises(PrimitivityError):
        BranchParametrization.from_strings("t^2", "t^4", 16)
    with pytest.raises(PrimitivityError):
        BranchParametrization.from_strings("t^3", "0", 16)


def test_dropped_term_asks_for_truncation_not_primitivity():
    # t^41 makes the exponent gcd 1, but truncation 32 drops it
    with pytest.raises(InsufficientTruncation,
                       match=r"t\^41; truncation 32 drops it, 42 keeps it$"):
        BranchParametrization.from_strings("t^2 + t^41", "t^4", 32)
    with pytest.raises(InsufficientTruncation, match="21 keeps it$"):
        BranchParametrization.from_strings("t^3 + t^20", "0", 16)
    assert BranchParametrization.from_strings(
        "t^2 + t^41", "t^4", 42).orders == (2, 4)
    # a dropped term that leaves the gcd at 2 is still imprimitive, and
    # dropping every term still leaves both coordinates zero
    with pytest.raises(PrimitivityError):
        BranchParametrization.from_strings("t^2", "t^4 + t^40", 32)
    with pytest.raises(InvalidParametrization, match="zero modulo"):
        BranchParametrization.from_strings("t^40", "t^41", 32)


def test_branch_rejects_mixed_truncations():
    with pytest.raises(InvalidParametrization):
        BranchParametrization(parse_poly("t", 8), parse_poly("t^2", 9))


def test_branch_accepts_zero_coordinate():
    b = BranchParametrization.from_strings("t", "0", 16)
    assert b.multiplicity() == 1


def test_multiplicity():
    assert corpus_curve("cusp").branches[0].multiplicity() == 2
    assert corpus_curve("d5").branches[1].multiplicity() == 2


def test_curve_needs_branches():
    with pytest.raises(InvalidParametrization):
        Curve([])


# ---------------------------------------------------------------------------
# monomials


def test_monomial_composition():
    b = corpus_curve("cusp").branches[0]
    assert b.monomial(1, 1).order() == 5
    assert b.monomial(0, 0).order() == 0


def test_jet_scales_rational_coefficients():
    # q = lcm(2, 3) = 6, and q^e clears every denominator at t^e; the
    # jet holds exactly the nonzero coefficients, as (e, int) pairs in
    # ascending order of e below the truncation
    b = BranchParametrization.from_strings("1/2*t^2", "1/3*t^3", 16)
    assert b.scale == 6
    for a, c in product(range(4), repeat=2):
        jet = b.jet(a, c)
        monomial = b.monomial(a, c)
        exponents = [e for e, _ in jet]
        assert exponents == sorted(set(exponents))
        assert all(0 <= e < 16 for e in exponents)
        for e, x in jet:
            assert type(x) is int and x != 0
            assert x == 6 ** e * monomial.coefficient(e)
        assert set(exponents) == {e for e in range(16)
                                  if monomial.coefficient(e) != 0}
    assert b.jet(2, 1) is b.jet(2, 1)


def _curve(pairs, truncation):
    return Curve([BranchParametrization.from_strings(x, y, truncation)
                  for x, y in pairs])


def _fraction_rows(curve, v, extra=0):
    # the defining matrix with the rational coefficients themselves, one
    # row per monomial with a + b < max(v) + extra, zero rows included
    return [[branch.monomial(a, total - a).coefficient(e)
             for branch, n in zip(curve.branches, v) for e in range(n)]
            for total in range(max(v) + extra) for a in range(total + 1)]


@pytest.mark.parametrize("pairs", [
    [("t", "1/2*t^2"), ("t", "-2/3*t^2")],
    [("1/2*t^2", "1/3*t^3"), ("t", "0")],
])
def test_h_rational_coefficients_against_gauss_rank(pairs):
    c = _curve(pairs, 12)
    for v in product(range(8), repeat=2):
        assert h_oracle(c, v) == gauss_rank(_fraction_rows(c, v))


# ---------------------------------------------------------------------------
# h values against the frozen reference grids


def test_h_matches_reference_grid_two_smooth_branches():
    c = corpus_curve("a3")
    for v2 in range(5):
        for v1 in range(5):
            assert h_oracle(c, (v1, v2)) == REFERENCE_A3[v2][v1]


def test_h_matches_reference_grid_line_plus_cusp():
    c = corpus_curve("d5")
    for v2 in range(6):
        for v1 in range(6):
            assert h_oracle(c, (v1, v2)) == REFERENCE_D5[v2][v1]


def test_h_pinned_values_and_clamping():
    c = corpus_curve("d5")
    assert h_oracle(c, (1, 3)) == 2
    assert h_oracle(c, (0, 3)) == 2
    assert h_oracle(c, (-1, 3)) == 2


def test_h_closed_form_tangential_pairs():
    for n, name in [(2, "a3"), (3, "a5"), (4, "a7")]:
        c = corpus_curve(name)
        for v1 in range(n + 3):
            for v2 in range(n + 3):
                assert h_oracle(c, (v1, v2)) == h_a_odd(n, v1, v2)


def test_h_single_branch_counts_semigroup():
    c = corpus_curve("cusp")
    members = numerical_semigroup([2, 3], 24)
    for n in range(12):
        assert h_oracle(c, (n,)) == h_count_r1(members, n)
    c = corpus_curve("t2t5")
    members = numerical_semigroup([2, 5], 24)
    for n in range(12):
        assert h_oracle(c, (n,)) == h_count_r1(members, n)


def test_h_smooth_branch_is_clamped_identity():
    c = corpus_curve("line")
    for v in range(-3, 11):
        assert h_oracle(c, (v,)) == max(v, 0)


def test_h_insufficient_truncation():
    b = BranchParametrization.from_strings("t^2", "t^3", 4)
    with pytest.raises(InsufficientTruncation):
        h_oracle(Curve([b]), (5,))
    assert h_oracle(Curve([b]), (4,)) == 3


def test_h_monotone_and_submodular():
    c = corpus_curve("d5")
    vals = {(v1, v2): h_oracle(c, (v1, v2))
            for v1 in range(5) for v2 in range(5)}
    for v1 in range(4):
        for v2 in range(4):
            h = vals[(v1, v2)]
            h1 = vals[(v1 + 1, v2)]
            h2 = vals[(v1, v2 + 1)]
            h12 = vals[(v1 + 1, v2 + 1)]
            assert h <= h1 <= h + 1
            assert h <= h2 <= h + 1
            assert h1 + h2 >= h + h12


def _assert_cutoff(c, points):
    # three more degrees of monomials, zero rows included, add no rank
    for v in points:
        assert h_oracle(c, v) == gauss_rank(_fraction_rows(c, v, 3)), v


def test_h_monomial_cutoff():
    for name in CORPUS:
        c = corpus_curve(name)
        l = invariants(c).conductor
        _assert_cutoff(c, product(*(range(a + 3) for a in l)))


@pytest.mark.parametrize("pairs, points", [
    # five lines: on (t, 0) and (0, t) every monomial with a positive
    # exponent on the zero coordinate is zero
    ([("t", "0"), ("0", "t"), ("t", "t"), ("t", "-1*t"), ("t", "2*t")],
     [(6, 0, 0, 0, 0), (0, 6, 0, 0, 0), (0, 0, 6, 0, 0), (4, 4, 4, 4, 4),
      (5, 0, 3, 6, 1), (0, 6, 2, 0, 5), (1, 1, 7, 0, 0)]),
    # ord x > ord y on the first branch, and a rational coefficient
    ([("t^3 + t^4", "t^2"), ("t", "1/2*t^5")],
     list(product(range(0, 11, 2), repeat=2))),
], ids=["five-lines", "ord-x-above-ord-y"])
def test_h_monomial_cutoff_generated(pairs, points):
    _assert_cutoff(_curve(pairs, 16), points)


def _recording_extend(monkeypatch, calls):
    # the oracle's in-place reduction, recording the rows of each call
    original = curve_module.echelon_extend

    def recorded(basis, rows):
        calls.append(rows)
        return original(basis, rows)

    monkeypatch.setattr(curve_module, "echelon_extend", recorded)


def _definition_columns(curve, v):
    # the nonzero columns of the jet matrix of v from its definition, each
    # in one canonical form, its (monomial index, entry) pairs in order
    v = [max(c, 0) for c in v]
    every = [[branch.monomial(a, total - a).coefficient(e)
              * branch.scale ** e
              for total in range(max(v)) for a in range(total + 1)]
             for branch, n in zip(curve.branches, v) for e in range(n)]
    return sorted([(k, x) for k, x in enumerate(col) if x]
                  for col in every if any(col))


@pytest.mark.parametrize("args, points, columns, reduced", [
    # 1750 nonzero rows of monomials, 694 nonzero columns over 53 points
    # (the origin among them), of which the walks reduce 537
    (["--box", "16,16", corpus_path("a3")], 53, 694, 537),
    # (t, 0) and (0, t): 399 nonzero rows, 401 nonzero columns over 69
    # points, of which the walks reduce 256
    ([corpus_path("triple")], 69, 401, 256),
], ids=["a3-box-16", "triple"])
def test_h_oracle_ranks_the_nonzero_columns_of_the_definition(
        monkeypatch, args, points, columns, reduced):
    # every point that a whole hilbert command ranks gets exactly the
    # nonzero columns of the monomial jets, each as {monomial index:
    # entry}: ranked alone, one reduction takes them all.  The command's
    # walks give each point the same value while reducing fewer columns,
    # as points that share trailing coordinates share their blocks
    ranked = []
    original = curve_module.oracle_values

    def recorded(curve, pts):
        pts = list(pts)
        values = original(curve, pts)
        ranked.extend((curve, v, h) for v, h in zip(pts, values))
        return values

    walked = []
    _recording_extend(monkeypatch, walked)
    monkeypatch.setattr(curve_module, "oracle_values", recorded)
    monkeypatch.setattr(hilbert_module, "oracle_values", recorded)
    assert main(["hilbert"] + args) == 0
    monkeypatch.undo()
    total = 0
    for curve, v, h in ranked:
        alone = []
        _recording_extend(monkeypatch, alone)
        assert original(curve, [v]) == [h]
        monkeypatch.undo()
        assert len(alone) == 1
        rows = [sorted(row.items()) for row in alone[0]]
        assert sorted(rows) == _definition_columns(curve, v)
        total += len(rows)
    assert (len(ranked), total) == (points, columns)
    assert sum(map(len, walked)) == reduced


# ---------------------------------------------------------------------------
# the trie-shared oracle


def _flat_rank(curve, v):
    # h(v) as one rank from scratch of the flat list of the nonzero
    # columns, last branch first and each from e = v_i - 1 down to 0
    v = [max(c, 0) for c in v]
    return rank_sparse([col for b, n in zip(curve.branches[::-1], v[::-1])
                        for col in b.columns(n)[::-1] if col])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CORPUS + BENCH_CURVES), st.data())
def test_oracle_values_are_the_flat_ranks_of_each_point(name, data):
    # random point sets, negative coordinates, repeats and the empty set
    # included, get each point's rank in order
    curve = named_curve(name)
    top = min(curve.truncation, 9)
    points = data.draw(st.lists(st.tuples(*[st.integers(-2, top)] * curve.r),
                                max_size=40))
    if points:
        points += data.draw(st.lists(st.sampled_from(points), max_size=6))
        points = data.draw(st.permutations(points))
    assert oracle_values(curve, points) == [_flat_rank(curve, v)
                                            for v in points]


def test_a_walk_changes_no_cached_column():
    # the walk reads the branches' columns and stores some of them in
    # its bases, and leaves every one as it was built
    curve = bench_curve("four")
    oracle_values(curve, [(6,) * 4])
    built = [[dict(col) for col in b.columns(6)] for b in curve.branches]
    points = list(product(range(7), repeat=4))[::7]
    assert oracle_values(curve, points) == [_flat_rank(curve, v)
                                            for v in points]
    assert [b.columns(6) for b in curve.branches] == built


def test_walk_copies_a_node_basis_for_every_child_but_the_last(monkeypatch):
    # (1, 3), (2, 3) and (4, 3) share the node of branch 1 at 3: its first
    # two children extend copies of its basis and the last the basis itself
    curve = corpus_curve("d5")
    points = [(4, 3), (1, 3), (2, 3)]
    expected = [_flat_rank(curve, v) for v in points]
    bases = []
    original = curve_module.echelon_extend

    def recorded(basis, rows):
        bases.append(basis)
        return original(basis, rows)

    monkeypatch.setattr(curve_module, "echelon_extend", recorded)
    assert oracle_values(curve, points) == expected
    node, first, second, last = bases
    assert first is not node and second is not node and first is not second
    assert last is node


def test_walk_reduces_the_block_of_each_trie_node_once(monkeypatch):
    # four's spot-check sample at box l + 2 (409 points of [0, l + 4]):
    # the walk hands echelon_extend the block of every distinct node of
    # the trie over the reversed points once, 3021 rows, where ranking
    # each point alone takes 5718
    curve = bench_curve("four")
    l = invariants(curve).conductor
    samples = []
    original = hilbert_module.oracle_values

    def recorded(curve, points):
        samples.append(points)
        return original(curve, points)

    monkeypatch.setattr(hilbert_module, "oracle_values", recorded)
    build_table(curve, tuple(c + 2 for c in l))
    sample, = samples
    assert len(sample) == 409
    rows = []
    _recording_extend(monkeypatch, rows)
    assert oracle_values(curve, sample) == [_flat_rank(curve, v)
                                            for v in sample]

    def block(j, n):
        return sum(1 for col in curve.branches[-1 - j].columns(n) if col)

    keys = {tuple(v[::-1]) for v in sample}
    nodes = {key[:j] for key in keys for j in range(1, curve.r + 1)}
    assert sum(map(len, rows)) == sum(block(len(node) - 1, node[-1])
                                      for node in nodes) == 3021
    assert sum(block(j, n) for key in keys
               for j, n in enumerate(key)) == 5718


def test_oracle_values_refuse_at_the_first_bad_point(monkeypatch):
    # the first point in order that is past the truncation, of the wrong
    # length or not integral raises, before any rank is computed
    curve = corpus_curve("d5")
    assert curve.truncation == 32
    monkeypatch.setattr(curve_module, "echelon_extend", None)
    assert oracle_values(curve, []) == []
    with pytest.raises(InsufficientTruncation,
                       match="^need 34 series terms but only 32 are kept$"):
        oracle_values(curve, [(1, 1), (2, 34), (40, 1), (1, 1, 1)])
    with pytest.raises(ValueError, match="^expected 2 coordinates, got 3$"):
        oracle_values(curve, [(1, 1), (1, 1, 1), (40, 1)])
    with pytest.raises(ValueError, match="^expected 2 coordinates, got 1$"):
        h_oracle(curve, (1,))
    with pytest.raises(TypeError):
        oracle_values(curve, [(1, 1), (1.0, 1), (40, 1)])


# ---------------------------------------------------------------------------
# single-branch delta and conductor


def test_branch_delta_values():
    assert branch_delta(corpus_curve("line").branches[0]) == (0, 0)
    assert branch_delta(corpus_curve("cusp").branches[0]) == (1, 2)
    assert branch_delta(corpus_curve("t2t5").branches[0]) == (2, 4)
    assert branch_delta(corpus_curve("d5").branches[1]) == (1, 2)


def test_invariants_scans_each_branch_once(monkeypatch):
    # every branch keeps its (delta, conductor), so the six pair scans
    # of four lines reuse the four branch scans; 46 one-branch h values
    # when each pair rescanned both of its branches
    calls = []
    original = curve_module.h_oracle

    def counted(curve, v):
        if curve.r == 1:
            calls.append(v)
        return original(curve, v)

    monkeypatch.setattr(curve_module, "h_oracle", counted)
    c = bench_curve("four")
    invariants(c)
    assert len(calls) == 34
    calls.clear()
    assert [branch_delta(b) for b in c.branches] == [(0, 0)] * 4
    assert calls == []


def test_branch_delta_needs_enough_terms():
    # semigroup <3,4> certifies at a run of three members ending at 8,
    # which needs nine series terms
    b = BranchParametrization.from_strings("t^3", "t^4", 6)
    with pytest.raises(NonStabilizing):
        branch_delta(b)
    b = BranchParametrization.from_strings("t^3", "t^4", 9)
    assert branch_delta(b) == (3, 6)


# ---------------------------------------------------------------------------
# intersection multiplicities


def _fresh(c):
    # the same germ with new branch objects, which hold no pair number,
    # so the reverse order runs its own scan and local check
    return Curve([BranchParametrization(b.x, b.y) for b in c.branches])


def test_intersection_tangential_pairs():
    assert intersection_multiplicity(corpus_curve("a3"), 0, 1) == 2
    assert intersection_multiplicity(corpus_curve("a5"), 0, 1) == 3
    assert intersection_multiplicity(corpus_curve("a7"), 0, 1) == 4


def test_intersection_line_with_cusp():
    c = corpus_curve("d5")
    assert intersection_multiplicity(c, 0, 1) == 2
    assert intersection_multiplicity(_fresh(c), 1, 0) == 2


def test_intersection_transverse_lines():
    c = corpus_curve("triple")
    for i in range(3):
        for j in range(3):
            if i != j:
                assert intersection_multiplicity(_fresh(c), i, j) == 1


def test_intersection_is_scanned_once_per_pair(monkeypatch):
    # the number (0, 1) accepted is what (1, 0) and any subcurve with
    # the same branch objects read, with no second scan or check
    c = corpus_curve("d5")
    checks = []
    original = curve_module._local_intersection_check

    def counting(*args):
        checks.append(args[-1])
        original(*args)

    monkeypatch.setattr(curve_module, "_local_intersection_check", counting)
    assert intersection_multiplicity(c, 0, 1) == 2
    monkeypatch.setattr(curve_module, "h_oracle", None)
    assert intersection_multiplicity(c, 1, 0) == 2
    assert intersection_multiplicity(c.subcurve([1, 0]), 0, 1) == 2
    assert checks == [2]


def test_intersection_rejects_same_index():
    with pytest.raises(ValueError):
        intersection_multiplicity(corpus_curve("a3"), 1, 1)


def test_intersection_coincident_branches():
    b1 = BranchParametrization.from_strings("t", "t^2", 16)
    b2 = BranchParametrization.from_strings("t", "t^2", 16)
    with pytest.raises(NonStabilizing):
        intersection_multiplicity(Curve([b1, b2]), 0, 1)


def test_intersection_with_curve_through_origin_twice():
    # the polynomial curve (t - t^2, t^2 - t^3) is a node: it passes
    # through the origin again at t = 1, which a global implicit
    # equation would also count
    b1 = BranchParametrization.from_strings("t - t^2", "t^2 - t^3", 16)
    b2 = BranchParametrization.from_strings("t", "0", 16)
    c = Curve([b1, b2])
    assert intersection_multiplicity(c, 0, 1) == 2
    assert intersection_multiplicity(_fresh(c), 1, 0) == 2
    assert invariants(c).pairwise == [[0, 2], [2, 0]]


def test_intersection_with_doubly_covered_parametrization():
    # (u^2, u^3) with u = t + t^2: locally a cusp, globally a 2:1 map
    b1 = BranchParametrization.from_strings(
        "t^2 + 2*t^3 + t^4", "t^3 + 3*t^4 + 3*t^5 + t^6", 16)
    b2 = BranchParametrization.from_strings("t", "0", 16)
    c = Curve([b1, b2])
    assert intersection_multiplicity(c, 0, 1) == 3
    assert intersection_multiplicity(_fresh(c), 1, 0) == 3
    assert invariants(c).pairwise == [[0, 3], [3, 0]]


def test_intersection_needs_enough_terms():
    # I = 6 for two tangent cusps: the scan accepts at k = 9, the local
    # check reads h at k = c + m_a (6 // m_b + 1) = 10
    c = Curve([BranchParametrization.from_strings("t^2", y, 9)
               for y in ("t^3", "2*t^3")])
    with pytest.raises(InsufficientTruncation):
        intersection_multiplicity(c, 0, 1)
    c = Curve([BranchParametrization.from_strings("t^2", y, 10)
               for y in ("t^3", "2*t^3")])
    assert intersection_multiplicity(c, 0, 1) == 6


@pytest.mark.parametrize("name, expected", [
    ("a3", 2), ("a5", 3), ("a7", 4), ("d5", 2), ("triple", 1),
    ("tacnode3", 2), ("a31", 16), ("four", 1),
])
def test_local_check_accepts_only_the_true_value(name, expected):
    # every branch pair of these curves has the same intersection number
    c = corpus_curve(name) if name in CORPUS else bench_curve(name)
    conductors = [branch_delta(b)[1] for b in c.branches]
    for i in range(c.r):
        for j in range(i + 1, c.r):
            args = (c.branches[i], conductors[i], c.branches[j],
                    conductors[j])
            _local_intersection_check(*args, expected)
            for wrong in (expected - 1, expected + 1):
                with pytest.raises(ConsistencyError):
                    _local_intersection_check(*args, wrong)


# ---------------------------------------------------------------------------
# closed-form intersection numbers


def _branch(x, y, truncation, twist):
    # coordinates c*t^n given as (c, n), c = 0 for a zero coordinate;
    # twist composes with t -> t + t^2, the same germ by a 2:1 map
    def series(c, n):
        if twist:
            return TruncSeries({n + j: c * comb(n, j) for j in range(n + 1)},
                               truncation)
        return TruncSeries({n: c}, truncation)
    return BranchParametrization(series(*x), series(*y))


def _pair(first, second, truncation, twist):
    # twist is None or the index of the branch to reparametrize; the
    # truncation keeps a twisted polynomial whole, so its map stays 2:1
    truncation = max(truncation, 2 * max(n for _, n in first + second) + 1)
    return Curve([_branch(*first, truncation, twist == 0),
                  _branch(*second, truncation, twist == 1)])


twists = st.sampled_from([None, 0, 1])
coprime = st.sampled_from([(2, 3), (3, 2), (2, 5), (3, 4)])


@settings(max_examples=12, deadline=None)
@given(st.integers(1, 5), st.integers(-3, 3), st.integers(-3, 3), twists)
def test_intersection_tangent_smooth_branches(k, a, b, twist):
    if a == b:
        b = a + 4
    c = _pair(((1, 1), (a, k)), ((1, 1), (b, k)), k + 2, twist)
    assert intersection_multiplicity(c, 0, 1) == k
    assert intersection_multiplicity(_fresh(c), 1, 0) == k


@settings(max_examples=12, deadline=None)
@given(coprime, twists)
def test_intersection_line_with_monomial_branch(pq, twist):
    p, q = pq
    c = _pair(((1, 1), (0, 1)), ((1, p), (1, q)),
              (p - 1) * (q - 1) + q + 2, twist)
    assert intersection_multiplicity(c, 0, 1) == q
    assert intersection_multiplicity(_fresh(c), 1, 0) == q


@settings(max_examples=12, deadline=None)
@given(coprime, twists)
def test_intersection_tangent_monomial_branches(pq, twist):
    p, q = pq
    c = _pair(((1, p), (1, q)), ((1, p), (2, q)),
              (p - 1) * (q - 1) + p * q + min(p, q) + 1, twist)
    assert intersection_multiplicity(c, 0, 1) == p * q
