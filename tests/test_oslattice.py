"""Matroid complexes: plain and U-extended homology."""

import pytest

from conftest import corpus_curve

from curvelat.errors import ConsistencyError
from curvelat.hilbert import build_table
from curvelat.latthom import grv_homology
from curvelat.oslattice import (GradedGroup, Matroid, OSComplex,
                                arrangement_poincare, d0_structure_checks,
                                du_homology, homology_from_boundaries,
                                os_homology, projective_poincare)


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
        out.append(Matroid.from_local_matroid(table, v))
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


def test_from_local_matroid_pins():
    a3 = Matroid.from_local_matroid(build_table(corpus_curve("a3")), (1, 1))
    assert a3.rank == {0: 0, 1: 1, 2: 1, 3: 1}
    d5 = Matroid.from_local_matroid(build_table(corpus_curve("d5")), (2, 4))
    assert d5.rank == Matroid.boolean(2).rank
    tri = build_table(corpus_curve("triple"))
    assert (Matroid.from_local_matroid(tri, (1, 1, 1)).rank
            == Matroid.uniform(3, 2).rank)
    assert (Matroid.from_local_matroid(tri, (0, 0, 0)).rank
            == Matroid.uniform(3, 1).rank)


def test_corrupted_table_breaks_the_local_matroid():
    # h rising by 2 in one unit step is no matroid rank: the axiom
    # check in Matroid surfaces as a ConsistencyError naming the point
    table = build_table(corpus_curve("a3"))
    table.values[(2, 1)] += 1
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
        h = du_homology(m)
        proj = projective_poincare(m)
        floor = -(2 * m.n + 4)
        for q in range(floor, 1):
            expected = proj[-q] if 0 <= -q < len(proj) else 0
            assert h.rank(q) == expected
            assert h.torsion(q) == ()
        assert all(q >= floor for q in h.degrees())


def test_du_truncation_guard():
    with pytest.raises(ValueError):
        du_homology(Matroid.boolean(2), u_truncation=2)
    default = du_homology(Matroid.boolean(2))
    assert du_homology(Matroid.boolean(2), u_truncation=4) == default


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
