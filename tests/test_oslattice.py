"""Matroid complexes: plain and U-extended homology."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS, cell, corpus_curve
from oracles import (arrangement_poincare_by_signs, char_poly_by_signs,
                     du_homology_truncated, gauss_rank,
                     projective_poincare_by_division,
                     q_polynomial_by_division)

import curvelat.oslattice as oslattice
from curvelat.errors import ConsistencyError
from curvelat.hilbert import box_points, build_table, char_poly, local_matroid
from curvelat.latthom import grv_homology
from curvelat.oslattice import (GradedGroup, Matroid, OSComplex,
                                arrangement_poincare, d0_structure_checks,
                                du_homology, homology_from_boundaries,
                                os_homology, projective_poincare)
from curvelat.series import hv_polynomial


def _matmul(a, b):
    # a: rows x mid, b: mid x cols
    if not a or not b or not b[0]:
        return []
    rows = len(a)
    mid = len(b)
    cols = len(b[0])
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(mid):
            if a[i][k]:
                for j in range(cols):
                    out[i][j] += a[i][k] * b[k][j]
    return out


def _is_zero(mat):
    return all(all(x == 0 for x in row) for row in mat)


def _loop_matroid():
    # element 1 is a loop, element 0 spans
    return Matroid(2, {0: 0, 1: 1, 2: 0, 3: 1})


def _corpus_local_matroids():
    out = []
    for name, v in [("a3", (1, 1)), ("d5", (2, 4)),
                    ("triple", (0, 0, 0)), ("triple", (1, 1, 1))]:
        table = build_table(corpus_curve(name))
        out.append(local_matroid(table, v))
    return out


def test_boolean_matroid_ranks():
    m = Matroid.boolean(3)
    assert m.full_rank() == 3
    assert m.rank[0b101] == 2
    assert m.is_independent(0b111)


def test_uniform_matroid_ranks():
    m = Matroid.uniform(4, 2)
    assert m.full_rank() == 2
    assert m.rank[0b10] == 1
    assert m.rank[0b1011] == 2
    assert not m.is_independent(0b111)
    assert m.is_independent(0b101)


def test_generic_lines_is_uniform_rank_two():
    assert Matroid.generic_lines(4).rank == Matroid.uniform(4, 2).rank
    assert Matroid.generic_lines(1).rank == Matroid.boolean(1).rank


def test_matroid_validation_rejects_bad_rank_functions():
    with pytest.raises(ValueError):
        Matroid(1, {0: 1, 1: 1})
    with pytest.raises(ValueError):
        Matroid(1, {0: 0})
    with pytest.raises(ValueError):
        Matroid(1, {0: 0, 1: 2})
    with pytest.raises(ValueError):
        Matroid(2, {0: 0, 1: 0, 2: 0, 3: 1})
    # a subset outside the ground set would be read by the signed count
    with pytest.raises(ValueError, match="outside 1 elements"):
        Matroid(1, {0: 0, 1: 1, 5: 3})


def test_from_local_matroid_pins():
    a3 = local_matroid(build_table(corpus_curve("a3")), (1, 1))
    assert a3.rank == {0: 0, 1: 1, 2: 1, 3: 1}
    d5 = local_matroid(build_table(corpus_curve("d5")), (2, 4))
    assert d5.rank == Matroid.boolean(2).rank
    tri = build_table(corpus_curve("triple"))
    assert local_matroid(tri, (1, 1, 1)).rank == Matroid.uniform(3, 2).rank
    assert local_matroid(tri, (0, 0, 0)).rank == Matroid.uniform(3, 1).rank


def test_corrupted_table_breaks_the_local_matroid():
    # h rising by 2 in one unit step is no matroid rank: the axiom
    # check in Matroid surfaces as a ConsistencyError naming the point
    table = build_table(corpus_curve("a3"))
    table.values[cell(table, (2, 1))] += 1
    with pytest.raises(ConsistencyError, match=r"local matroid at \(1, 1\)"):
        grv_homology(table, (1, 1))


def test_arrangement_poincare_pins():
    assert arrangement_poincare(Matroid.boolean(1)) == (1, 1)
    assert arrangement_poincare(Matroid.boolean(2)) == (1, 2, 1)
    assert arrangement_poincare(Matroid.boolean(3)) == (1, 3, 3, 1)
    assert arrangement_poincare(Matroid.generic_lines(3)) == (1, 3, 2)
    assert arrangement_poincare(Matroid.uniform(4, 2)) == (1, 4, 3)
    assert arrangement_poincare(Matroid.uniform(5, 2)) == (1, 5, 4)
    assert arrangement_poincare(_loop_matroid()) == (0, 0)


def test_projective_poincare_pins():
    assert projective_poincare(Matroid.boolean(1)) == (1,)
    assert projective_poincare(Matroid.boolean(3)) == (1, 2, 1)
    assert projective_poincare(Matroid.generic_lines(3)) == (1, 2)
    assert projective_poincare(Matroid.uniform(5, 2)) == (1, 4)
    assert projective_poincare(_loop_matroid()) == (0,)


def test_projective_poincare_rejects_inexact_division():
    # with no elements the signed count is 1, and 1 + t does not divide 1
    with pytest.raises(ConsistencyError):
        projective_poincare(Matroid(0, {0: 0}))


def test_os_homology_boolean_two():
    h = os_homology(Matroid.boolean(2))
    assert h.groups == {0: (1, ()), 1: (2, ()), 2: (1, ())}


def test_os_homology_generic_lines_three():
    h = os_homology(Matroid.generic_lines(3))
    assert h.groups == {0: (1, ()), 1: (3, ()), 2: (2, ())}
    assert h.rank(3) == 0


def test_os_ranks_match_arrangement_polynomial():
    matroids = [Matroid.boolean(1), Matroid.boolean(2), Matroid.boolean(3),
                Matroid.uniform(4, 2), Matroid.generic_lines(5),
                _loop_matroid()] + _corpus_local_matroids()
    for m in matroids:
        h = os_homology(m)
        poly = arrangement_poincare(m)
        for k in range(m.n + 1):
            expected = poly[k] if k < len(poly) else 0
            assert h.rank(k) == expected
            assert h.torsion(k) == ()


def test_os_euler_characteristic():
    for m in [Matroid.boolean(3), Matroid.generic_lines(4),
              _loop_matroid()]:
        cx = OSComplex(m)
        chi_chain = sum((-1) ** k * len(cx.basis(k))
                        for k in range(m.n + 1))
        h = os_homology(m)
        chi_hom = sum((-1) ** k * h.rank(k) for k in range(m.n + 1))
        assert chi_chain == chi_hom


def test_boundary_operators_square_to_zero():
    for m in [Matroid.boolean(3), Matroid.uniform(4, 2),
              Matroid.generic_lines(5), _loop_matroid()]:
        cx = OSComplex(m)
        for k in range(1, m.n + 1):
            full_lo, full_hi = cx.boundary_full(k), cx.boundary_full(k + 1)
            d0_lo, d0_hi = cx.boundary_d0(k), cx.boundary_d0(k + 1)
            d1_lo, d1_hi = cx.boundary_d1(k), cx.boundary_d1(k + 1)
            assert _is_zero(_matmul(full_lo, full_hi))
            assert _is_zero(_matmul(d0_lo, d0_hi))
            assert _is_zero(_matmul(d1_lo, d1_hi))
            cross = _matmul(d0_lo, d1_hi)
            for i, row in enumerate(_matmul(d1_lo, d0_hi)):
                for j, x in enumerate(row):
                    assert x + cross[i][j] == 0


def test_weighted_boundary_pin_on_pairs():
    # removing the smaller element carries +, the larger carries -
    cx = OSComplex(Matroid.generic_lines(3))
    mat = cx.boundary_d1(2)
    # rows: singles 0b001, 0b010, 0b100; cols: pairs 0b011, 0b101, 0b110
    assert mat == [[-1, -1, 0], [1, 0, -1], [0, 1, 1]]
    assert _is_zero(cx.boundary_d0(2))
    assert _is_zero(cx.boundary_d1(3))


def test_du_single_hyperplane():
    h = du_homology(Matroid.boolean(1))
    assert h.groups == {0: (1, ())}


def test_du_generic_lines():
    for r in (2, 3, 4):
        h = du_homology(Matroid.generic_lines(r))
        assert h.groups == {0: (1, ()), -1: (r - 1, ())}


def test_du_boolean_three():
    h = du_homology(Matroid.boolean(3))
    assert h.groups == {0: (1, ()), -1: (2, ()), -2: (1, ())}


def test_du_matches_projective_polynomial():
    matroids = [Matroid.boolean(2), Matroid.generic_lines(3),
                Matroid.uniform(4, 2), _loop_matroid()]
    matroids += _corpus_local_matroids()
    for m in matroids:
        proj = projective_poincare(m)
        expected = GradedGroup({-k: (c, ()) for k, c in enumerate(proj)})
        assert du_homology(m) == expected, m.rank


def test_du_rejects_empty_matroid():
    # with no elements the homology is the infinite tower Z[U]
    with pytest.raises(ValueError):
        du_homology(Matroid(0, {0: 0}))


def _reference(m):
    groups = du_homology_truncated(m.n, m.rank)
    return GradedGroup({q: (rank, tuple(torsion))
                        for q, (rank, torsion) in groups.items()})


def _gf2_matroid(vectors):
    # rank over GF(2) of vectors given as bitmasks
    def rank(mask):
        basis = []
        for i, v in enumerate(vectors):
            if mask >> i & 1:
                for b in basis:
                    v = min(v, v ^ b)
                if v:
                    basis.append(v)
        return len(basis)
    n = len(vectors)
    return Matroid(n, {m: rank(m) for m in range(1 << n)})


def test_du_matches_truncated_reference_on_corpus():
    seen = {}
    for name in CORPUS:
        table = build_table(corpus_curve(name))
        box = tuple(c + 2 for c in table.invariants.conductor)
        for v in box_points(box):
            m = local_matroid(table, v)
            seen.setdefault((m.n, tuple(sorted(m.rank.items()))), m)
    for m in seen.values():
        assert du_homology(m) == _reference(m), m.rank


def test_du_matches_truncated_reference_on_fano():
    fano = _gf2_matroid(list(range(1, 8)))
    assert fano.full_rank() == 3
    assert du_homology(fano) == _reference(fano)
    assert du_homology(fano) == GradedGroup(
        {0: (1, ()), -1: (6, ()), -2: (8, ())})


_vectors = st.integers(1, 3).flatmap(
    lambda d: st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d),
                       min_size=1, max_size=5))


@settings(max_examples=40, deadline=None)
@given(_vectors)
def test_du_matches_truncated_reference_on_vector_matroids(vectors):
    # zero vectors are loops; repeated or proportional ones are parallel
    n = len(vectors)
    rank = {m: gauss_rank([vectors[i] for i in range(n) if m >> i & 1])
            for m in range(1 << n)}
    m = Matroid(n, rank)
    assert du_homology(m) == _reference(m)


def test_du_builds_one_complex(monkeypatch):
    # one call of homology_from_boundaries on the generators (K, w)
    # with rank K <= w < full rank: sum over K of (full rank - rank K)
    real = oslattice.homology_from_boundaries
    calls = []

    def counting(dims, boundaries):
        calls.append(sum(dims.values()))
        return real(dims, boundaries)

    monkeypatch.setattr(oslattice, "homology_from_boundaries", counting)
    for m, generators in [(Matroid.boolean(3), 12),
                          (Matroid.uniform(4, 2), 6), (_loop_matroid(), 2)]:
        calls.clear()
        du_homology(m)
        assert calls == [generators]


def test_d0_structure_checks_pass():
    matroids = [Matroid.boolean(1), Matroid.boolean(2), Matroid.boolean(3),
                Matroid.uniform(4, 2), Matroid.generic_lines(3),
                Matroid.generic_lines(5), _loop_matroid()]
    matroids += _corpus_local_matroids()
    for m in matroids:
        assert d0_structure_checks(m) is True


def test_d0_structure_checks_size_guard():
    with pytest.raises(ValueError):
        d0_structure_checks(Matroid.boolean(9))


def test_d0_structure_checks_detect_leaky_boundary(monkeypatch):
    real = OSComplex.boundary_d1

    def corrupted(self, k):
        if k == 3:
            return [[1], [0], [0]]
        return real(self, k)

    monkeypatch.setattr(OSComplex, "boundary_d1", corrupted)
    with pytest.raises(ConsistencyError):
        d0_structure_checks(Matroid.generic_lines(3))


def test_graded_group_api():
    g = GradedGroup({0: (1, ()), 1: (0, ()), -2: (2, (1, 3))})
    assert g.groups == {0: (1, ()), -2: (2, (3,))}
    assert g.rank(1) == 0
    assert g.torsion(-2) == (3,)
    assert g.degrees() == [-2, 0]
    assert g.total_rank() == 3
    assert g == GradedGroup({-2: (2, (3,)), 0: (1, ())})


def test_homology_from_boundaries_circle():
    # two points, two arcs glued into a circle
    dims = {0: 2, 1: 2}
    boundaries = {1: [[1, 1], [-1, -1]]}
    h = homology_from_boundaries(dims, boundaries)
    assert h.groups == {0: (1, ()), 1: (1, ())}


def test_homology_from_boundaries_torsion():
    # one cell of each dimension, degree-2 attaching map
    dims = {0: 1, 1: 1}
    boundaries = {1: [[2]]}
    h = homology_from_boundaries(dims, boundaries)
    assert h.groups == {0: (0, (2,))}


class _CubeTable:
    # the one reading of a table that char_poly and hv_polynomial make
    def __init__(self, cube):
        self._cube = cube

    def cube(self, v):
        return list(self._cube)


@settings(max_examples=60, deadline=None)
@given(_vectors, st.integers(0, 4))
def test_signed_count_views_match_the_division_oracles(vectors, base):
    # each view of the one signed rank count against the sign flips and
    # long divisions it replaced, on matroids with loops and parallel
    # elements; the cube starts at h(v) = base, not at 0
    n = len(vectors)
    rank = {m: gauss_rank([vectors[i] for i in range(n) if m >> i & 1])
            for m in range(1 << n)}
    m = Matroid(n, rank)
    assert arrangement_poincare(m) == arrangement_poincare_by_signs(n, rank)
    assert projective_poincare(m) == projective_poincare_by_division(n, rank)
    cube = [base + rank[mask] for mask in range(1 << n)]
    table = _CubeTable(cube)
    assert char_poly(table, (0,) * n) == char_poly_by_signs(n, rank)
    assert hv_polynomial(table, (0,) * n) == q_polynomial_by_division(cube)


@st.composite
def _monotone_cubes(draw):
    # h(v + e_K) for r <= 4 branches: any start, and each unit step adds
    # 0, 1 or 2 on top of the largest value below it
    r = draw(st.integers(1, 4))
    cube = [draw(st.integers(0, 6))]
    for mask in range(1, 1 << r):
        below = max(cube[mask & ~(1 << i)] for i in range(r)
                    if mask >> i & 1)
        cube.append(below + draw(st.integers(0, 2)))
    return cube


@settings(max_examples=80, deadline=None)
@given(_monotone_cubes())
def test_q_polynomial_matches_the_division_oracle_on_monotone_cubes(cube):
    v = (0,) * (len(cube).bit_length() - 1)
    assert hv_polynomial(_CubeTable(cube), v) == q_polynomial_by_division(cube)
