r"""
Lattice homology of a curve from its Hilbert table.

The graded piece at a lattice point v is computed by two independent
routes: directly, as the homology of the U-extended complex of the
local rank function at v, shifted by -2 h(v); and by formula, reading
the ranks off the q-polynomial at v.  Both are a piece of the local
rank vector at v shifted by h(v), so the pieces of a box compare them
once per distinct vector, and each vector's complex is reduced once per
table.  Sublevel cubical complexes, the closed-form structure for one
branch (including the spectral sequence of the U = 0 complex and its
Alexander polynomial identity), and the five-case classification for
two branches are provided on top.
"""

from collections import namedtuple
from itertools import product

from .errors import (BoxTooSmall, ConsistencyError, UnclassifiablePattern)
from .exactalg import rank_rational
from .hilbert import box_points, local_field, local_matroid
from .oslattice import GradedGroup, du_homology, homology_from_boundaries
from .series import hv_polynomial


def grv_homology_direct(table, v):
    r"""
    Graded piece of lattice homology at v via the local complex.

    The rank function of the local jump pattern at v defines a
    U-extended complex; its homology, shifted down by 2 h(v), is the
    graded piece.  The unshifted homology depends on that rank function
    alone, so it is computed once per distinct relative rank vector
    h(v + e_K) - h(v) and kept on the table, keyed by that vector.

    Parameters
    ----------
    table : HilbertTable
    v : tuple of ints

    Returns
    -------
    GradedGroup
    """
    cube = table.cube(v)
    key = tuple(h - cube[0] for h in cube)
    kept = table.__dict__.setdefault("_homology", {})
    if key not in kept:
        kept[key] = du_homology(local_matroid(table, v))
    base = kept[key]
    shift = -2 * cube[0]
    return GradedGroup({q + shift: grp for q, grp in base.groups.items()})


def grv_homology_formula(table, v):
    r"""
    Graded piece of lattice homology at v via the q-polynomial.

    The coefficient of q^m contributes rank (-1)^(h(v) + m) times the
    coefficient in homological degree -(h(v) + m); a negative rank
    raises ConsistencyError.

    Returns
    -------
    GradedGroup
    """
    h = table.value(v)
    groups = {}
    for m, c in hv_polynomial(table, v).items():
        rank = (-1) ** (h + m) * c
        if rank < 0:
            raise ConsistencyError(
                "q coefficient at %s has the wrong sign" % (v,))
        groups[-(h + m)] = (rank, ())
    return GradedGroup(groups)


def grv_homology(table, v):
    r"""
    Graded piece of lattice homology at v, computed by both the local
    complex and the q-polynomial; any disagreement raises
    ConsistencyError.

    Returns
    -------
    GradedGroup
    """
    direct = grv_homology_direct(table, v)
    formula = grv_homology_formula(table, v)
    if direct != formula:
        raise ConsistencyError(
            "graded homology at %s differs between the local complex "
            "and the q-polynomial" % (v,))
    return direct


def graded_pieces(table, box):
    r"""
    The graded piece (see grv_homology) at every point of [0, box], in
    lexicographic order: grv_homology at the first point of each local
    rank vector (see hilbert.local_field), shifted by -2 (h(v) - h(first)).
    """
    # One comparison per vector checks as much as one per point: both
    # routes shift the vector's answer by the same h(v), so a repeat at
    # another point would redo the same arithmetic, and a wrong value of
    # h changes the vectors of the 2^r points whose cubes read it.
    h, ids, _ = local_field(table, box)
    first = []  # the piece and h at the first point of each vector
    pieces = {}
    for v, hv, i in zip(box_points(box), h, ids):
        if i == len(first):
            first.append((grv_homology(table, v), hv))
        piece, base = first[i]
        pieces[v] = GradedGroup({q + 2 * (base - hv): group
                                 for q, group in piece.groups.items()})
    return pieces


def euler_check(table, poincare):
    r"""
    Verify that the Euler characteristic of the graded piece at every
    point of [0, conductor + 1], computed by the local complex (see
    grv_homology_direct), equals the coefficient of poincare, the
    table's pi series; a series box below conductor + 1, or in other
    than r variables, raises ValueError.

    Returns True, or raises ConsistencyError.
    """
    if poincare.r != table.invariants.r:
        raise ValueError("series in %d variables for %d branches"
                         % (poincare.r, table.invariants.r))
    wide = tuple(c + 1 for c in table.invariants.conductor)
    if any(b < w for b, w in zip(poincare.box, wide)):
        raise ValueError("series box %s is below l + 1" % (poincare.box,))
    chi = []  # per local rank vector, as pieces shift by an even -2 h(v)
    for v, i in zip(box_points(wide), local_field(table, wide)[1]):
        if i == len(chi):
            chi.append(sum(-rank if q % 2 else rank for q, (rank, _)
                           in grv_homology_direct(table, v).groups.items()))
        if chi[i] != poincare.coefficient(v):
            raise ConsistencyError(
                "Euler characteristic at %s does not match the "
                "alternating sum" % (v,))
    return True


def sk_homology(table, u, k):
    r"""
    Integer homology of the sublevel cubical complex at base point u
    and level k: the union of the cubes [w, w + e_K] with w >= u whose
    top corner has Hilbert value at most k, graded by dimension.

    The search runs up to the corner max(u_i, k + delta_i) + 1, delta_i
    the delta invariant of branch i.  Since h(w) >= w_i - delta_i, no
    point at level k reaches that corner; a table that breaks the bound
    raises BoxTooSmall.

    Parameters
    ----------
    table : HilbertTable
    u : tuple of ints, the base point
    k : int, the level

    Returns
    -------
    GradedGroup keyed by cube dimension
    """
    r = table.curve.r
    if len(u) != r:
        raise ValueError("base point has wrong length")
    deltas = table.invariants.delta_branches
    corner = tuple(max(u[i], k + deltas[i]) + 1 for i in range(r))

    by_dim = {}
    for w in product(*(range(u[i], corner[i] + 1) for i in range(r))):
        cube = table.cube(w)
        if cube[0] <= k and any(w[i] == corner[i] for i in range(r)):
            raise BoxTooSmall(
                "sublevel set at level %d reaches the search boundary"
                % k)
        for mask, h in enumerate(cube):
            dirs = tuple(i for i in range(r) if mask >> i & 1)
            if h <= k and all(w[i] < corner[i] for i in dirs):
                by_dim.setdefault(len(dirs), []).append((w, dirs))
    for q in by_dim:
        by_dim[q].sort()

    dims = {q: len(cubes) for q, cubes in by_dim.items()}
    boundaries = {}
    for q in dims:
        if q == 0:
            continue
        lower = {c: i for i, c in enumerate(by_dim.get(q - 1, []))}
        cols = []
        for w, dirs in by_dim[q]:
            col = {}
            for pos, axis in enumerate(dirs):
                rest = tuple(a for a in dirs if a != axis)
                far = tuple(x + (i == axis) for i, x in enumerate(w))
                s = (-1) ** pos
                col[lower[far, rest]] = s
                col[lower[w, rest]] = -s
            cols.append(col)
        boundaries[q] = cols
    return homology_from_boundaries(dims, boundaries)


R1Structure = namedtuple("R1Structure",
                         ["bound", "members", "hl", "u_ranks",
                          "e2_a", "e2_alpha"])


def r1_structure(table, pieces, poly):
    r"""
    Full structural record for a one-branch curve, read off its
    HilbertTable and its graded pieces: the U-action ranks between
    consecutive points, and the second page of the spectral sequence
    of the U = 0 complex.

    Every statement is verified internally: the graded pieces against
    the closed form (nonzero exactly on semigroup members, one copy of
    Z in degree -2 h(v)); the second page by an explicit matrix
    computation against its closed form; the signed second-page counts
    against the one-variable polynomial invariant; the endpoint sets
    against their reflection symmetries; and the exactness ranks
    linking the U-action to the second page.

    Parameters
    ----------
    table : HilbertTable of a one-branch curve
    pieces : dict
        The graded piece (see grv_homology) at every point (v,) with
        0 <= v <= mu + 2; a missing point raises ValueError.
    poly : BoxSeries, the polynomial invariant (see alexander)

    Returns
    -------
    R1Structure with fields bound (mu + 2), members, hl (dict point to
    GradedGroup), u_ranks (dict point to int), e2_a and e2_alpha
    (dicts from surviving point to homological degree).
    """
    if table.curve.r != 1:
        raise ValueError("structure record requires a one-branch curve")
    inv = table.invariants
    mu = inv.mu
    bound = mu + 2

    members = tuple(v for v in range(bound + 2)
                    if table.in_semigroup((v,)))
    member_set = set(members)

    hl = {}
    for v in range(bound + 1):
        if (v,) not in pieces:
            raise ValueError("no graded piece at %d" % v)
        groups = pieces[(v,)]
        if v in member_set:
            expected = GradedGroup({-2 * table.value((v,)): (1, ())})
        else:
            expected = GradedGroup({})
        if groups != expected:
            raise ConsistencyError(
                "graded piece at %d does not match the closed form" % v)
        hl[v] = groups

    # U-action rank between consecutive points, from the closed form,
    # checked below against the second page by exactness
    u_ranks = {v: (1 if v in member_set and v + 1 in member_set else 0)
               for v in range(bound + 1)}

    # second page, closed form
    e2_a = {v: -2 * table.value((v,)) for v in members if v <= bound
            and v - 1 not in member_set and v >= 0}
    e2_alpha = {v: -1 - 2 * table.value((v,)) for v in members
                if v <= bound - 1 and v + 1 not in member_set}

    # second page, matrix route: one a and one alpha generator per
    # member, the differential sends alpha_v to a_(v+1) when both are
    # members
    a_basis = [v for v in members if v <= bound]
    alpha_basis = [v for v in members if v <= bound - 1]
    alpha_index = {v: j for j, v in enumerate(alpha_basis)}
    rows = [{alpha_index[v - 1]: 1} if v - 1 in alpha_index else {}
            for v in a_basis]
    rank = rank_rational(rows)
    a_survivors = {v for v, row in zip(a_basis, rows) if not row}
    alpha_survivors = set(alpha_basis) - {alpha_basis[j] for row in rows
                                          for j in row}
    if len(a_survivors) != len(a_basis) - rank:
        raise ConsistencyError("second-page a count disagrees with "
                               "the matrix rank")
    if len(alpha_survivors) != len(alpha_basis) - rank:
        raise ConsistencyError("second-page alpha count disagrees "
                               "with the matrix rank")
    if a_survivors != set(e2_a) or alpha_survivors != set(e2_alpha):
        raise ConsistencyError("second page differs between the matrix "
                               "route and the closed form")

    # support and reflection symmetry of the endpoint sets
    if any(v < 0 or v > mu for v in e2_a):
        raise ConsistencyError("second-page a terms escape [0, mu]")
    if any(v + 1 < 0 or v + 1 > mu for v in e2_alpha):
        raise ConsistencyError("second-page alpha terms escape [0, mu]")
    if {mu - v for v in e2_a} != set(e2_a):
        raise ConsistencyError("a terms are not symmetric under "
                               "reflection")
    if {mu - 2 - v for v in e2_alpha} != set(e2_alpha):
        raise ConsistencyError("alpha terms are not symmetric under "
                               "reflection")

    # signed second-page counts assemble the polynomial invariant
    signed = {}
    for v in e2_a:
        signed[v] = signed.get(v, 0) + 1
    for v in e2_alpha:
        signed[v + 1] = signed.get(v + 1, 0) - 1
    for e in range(mu + 1):
        if signed.get(e, 0) != poly.coefficient((e,)):
            raise ConsistencyError(
                "signed second-page counts disagree with the "
                "polynomial invariant at degree %d" % e)
    if any(e < 0 or e > mu for e in signed if signed[e]):
        raise ConsistencyError("signed second-page counts escape "
                               "[0, mu]")

    # four-term exactness linking U to the second page
    for v in range(bound):
        ker = hl[v].total_rank() - u_ranks[v]
        coker = hl[v + 1].total_rank() - u_ranks[v]
        if ker != (1 if v in e2_alpha else 0):
            raise ConsistencyError(
                "U kernel at %d disagrees with the second page" % v)
        if coker != (1 if v + 1 in e2_a else 0):
            raise ConsistencyError(
                "U cokernel at %d disagrees with the second page" % v)

    return R1Structure(bound, members, hl, u_ranks, e2_a, e2_alpha)


R2Case = namedtuple("R2Case", ["label", "pattern", "groups"])


def r2_classify(table, v, groups):
    r"""
    Classify the local jump pattern of a two-branch curve at v and
    return the graded piece it forces.

    The pattern is the triple of the two unit steps and the diagonal
    jump of the Hilbert function at v.  The five admissible patterns
    give: cases a, b, c (not in the semigroup) zero homology; case d
    one copy of Z in degree -2 h(v); case e two copies, in degrees
    -2 h(v) and -1 - 2 h(v).  Any other pattern raises
    UnclassifiablePattern, and a forced piece that differs from groups,
    the graded piece computed at v (see grv_homology), raises
    ConsistencyError.

    Returns
    -------
    R2Case with fields label, pattern, groups
    """
    if table.curve.r != 2:
        raise ValueError("classification requires a two-branch curve")
    h, *ahead = table.cube(v)
    pattern = tuple(x - h for x in ahead)
    if pattern == (0, 0, 0):
        label, forced = "a", GradedGroup({})
    elif pattern == (0, 1, 1):
        label, forced = "b", GradedGroup({})
    elif pattern == (1, 0, 1):
        label, forced = "c", GradedGroup({})
    elif pattern == (1, 1, 1):
        label, forced = "d", GradedGroup({-2 * h: (1, ())})
    elif pattern == (1, 1, 2):
        label, forced = "e", GradedGroup({-2 * h: (1, ()),
                                          -1 - 2 * h: (1, ())})
    else:
        raise UnclassifiablePattern(
            "jump pattern %s at %s is not one of the five admissible "
            "local shapes" % (pattern, v))
    if groups != forced:
        raise ConsistencyError(
            "graded piece at %s does not match its classified case %s"
            % (v, label))
    return R2Case(label, pattern, forced)
