r"""
The Hilbert function on a lattice box, the value semigroup, and the
numeric invariants of a curve germ.

The table builder fills [0, l] (l the conductor) with prefix ranks:
one echelon basis of sparse jet columns per point of the first r - 1
coordinates, extended by the last branch's columns one at a time with
exactalg.echelon_insert, the same kernel that ranks the oracle's columns.
Beyond the conductor every unit step adds 1.  The ranks are kept as one
flat list in lexicographic order, so every read of h is an index
computed from strides, plus the excess beyond l; membership and the
unit steps at v are views of its unit cube, and a whole box is read at
once as a dense grid.  The builder re-derives a sample of cells by
full matrix ranks (curve.oracle_values, in one walk) and checks the step
recursion (a direction-i step is 1 exactly when some semigroup point
agrees with v in coordinate i and dominates it elsewhere) over the
whole box.  Any mismatch raises ConsistencyError.
"""

from collections import namedtuple
from itertools import compress, product
from math import prod
from operator import index, sub

from .curve import (branch_delta, h_oracle, intersection_multiplicity,
                    oracle_values)
from .errors import ConsistencyError
from .exactalg import echelon_insert
from .oslattice import Matroid, signed_rank_count

CurveInvariants = namedtuple("CurveInvariants", [
    "r", "delta", "delta_branches", "mu", "mu_branches",
    "pairwise", "conductor",
])


def invariants(curve):
    r"""
    Numeric invariants of the curve.

    Branch deltas come from semigroup gap counts, pairwise intersection
    numbers from the two-route scan in the curve module; the rest are
    the standard combinations: mu_i = 2 delta_i, the total delta adds
    pairwise intersections over branch pairs, mu = 2 delta - r + 1, and
    conductor_i = mu_i + sum of intersections with the other branches.
    The conductor is then verified against two direct matrix-rank
    values, h(l) = delta and h(l - e_i) = delta.

    Returns
    -------
    CurveInvariants
    """
    cached = getattr(curve, "_invariants", None)
    if cached is not None:
        return cached
    r = curve.r
    singles = [branch_delta(b) for b in curve.branches]
    delta_branches = [d for d, _ in singles]
    mu_branches = [2 * d for d in delta_branches]
    pairwise = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            m = intersection_multiplicity(curve, i, j)
            pairwise[i][j] = m
            pairwise[j][i] = m
    delta = sum(delta_branches) + sum(pairwise[i][j]
                                      for i in range(r)
                                      for j in range(i + 1, r))
    mu = 2 * delta - r + 1
    conductor = tuple(mu_branches[i] + sum(pairwise[i][j]
                                           for j in range(r) if j != i)
                      for i in range(r))
    below = [i for i in range(r) if conductor[i] >= 1]
    h, *lower = oracle_values(curve, [conductor] + [
        conductor[:i] + (conductor[i] - 1,) + conductor[i + 1:]
        for i in below])
    if h != delta:
        raise ConsistencyError(
            "h at the conductor is %d, expected delta = %d" % (h, delta))
    for i, h in zip(below, lower):
        if h != delta:
            raise ConsistencyError(
                "h one below the conductor in direction %d is %d, "
                "expected delta = %d" % (i, h, delta))
    result = CurveInvariants(r=r, delta=delta, delta_branches=delta_branches,
                             mu=mu, mu_branches=mu_branches,
                             pairwise=pairwise, conductor=conductor)
    curve._invariants = result
    return result


def box_points(box):
    r"""Every lattice point of [0, box], in lexicographic order."""
    return product(*(range(b + 1) for b in box))


def box_offsets(box, shape):
    r"""
    The index of every point of [0, box], in lexicographic order, in a
    flat lexicographic list over a box with shape[i] points on axis i.
    """
    offsets = [0]
    for b, size in zip(box, shape):
        offsets = [k * size + c for k in offsets for c in range(b + 1)]
    return offsets


def axis_pairs(shape, axis, cs):
    r"""
    For each c in cs, slice pairs (here, ahead) of a flat lexicographic
    list over a box of this shape (the last coordinate fastest): the
    here slices together cover the points with coordinate c on the
    axis, and each ahead is its here moved by the axis stride to c + 1.
    A slice is a run of the inner coordinates for each outer prefix, or
    a stepped slice for each inner offset, whichever are fewer.
    """
    inner = prod(shape[axis + 1:])
    outer = prod(shape[:axis])
    block = inner * shape[axis]
    if inner >= outer:
        starts, step, span = range(0, outer * block, block), 1, inner
    else:
        starts, step, span = range(inner), block, outer * block
    for c in cs:
        for a in starts:
            a += c * inner
            yield (slice(a, a + span, step),
                   slice(a + inner, a + inner + span, step))


class HilbertTable:
    r"""
    h on [0, l] (l the conductor) with total evaluation: beyond l every
    unit step raises h by exactly 1, so a read clips to l and adds the
    excess.  ``values`` is h on [0, l] as one list in lexicographic
    order (the last coordinate fastest), and h(v) for v in [0, l] is
    ``values[sum(v_i * strides[i])]``, where ``strides[i]`` is the
    product of l_j + 1 over j > i.  ``corner`` is the box the build
    checked: the spot check sampled [0, corner] and the step rule held
    on [0, corner - 2].  local_field keeps on the table the field of
    each box it has read, and latthom.grv_homology_direct the homology
    of each local rank vector it has reduced.
    """

    def __init__(self, curve, corner, values, inv):
        self.curve = curve
        self.corner = corner
        self.values = values
        self.invariants = inv
        l = inv.conductor
        self.strides = tuple(prod(top + 1 for top in l[i + 1:])
                             for i in range(len(l)))

    def _check_length(self, v):
        if len(v) != len(self.strides):
            raise ValueError("expected %d coordinates, got %d"
                             % (len(self.strides), len(v)))

    def value(self, v):
        r"""h at an integer vector of length r (negatives clamp to 0)."""
        self._check_length(v)
        offset = past = 0
        for c, top, stride in zip(v, self.invariants.conductor,
                                  self.strides):
            c = index(c)
            if c > top:
                offset += top * stride
                past += c - top
            elif c > 0:
                offset += c * stride
        return self.values[offset] + past

    def cube(self, v):
        r"""
        h(v + e_K) for every bitmask K, where bit j adds e_j.

        Each v + e_K is read as values[offset] + past, the offset of its
        clip to [0, l] and its excess beyond l.  The pairs are built one
        direction at a time: a unit step in direction j adds stride_j to
        the offset while v_j < l_j, adds 1 to past once v_j >= l_j, and
        changes nothing while v_j < 0 (both ends clamp to 0).
        """
        self._check_length(v)
        offset = past = 0
        steps = [(0, 0)]  # (offset, past) of each e_K, relative to v
        for c, top, stride in zip(v, self.invariants.conductor,
                                  self.strides):
            c = index(c)
            if c >= top:
                offset += top * stride
                past += c - top
                steps += [(o, p + 1) for o, p in steps]
            elif c >= 0:
                offset += c * stride
                steps += [(o + stride, p) for o, p in steps]
            else:
                steps += steps
        values = self.values
        return [values[offset + o] + past + p for o, p in steps]

    def grid(self, top):
        r"""
        h on [0, top] as one flat list in lexicographic order (the last
        coordinate fastest), read as value reads each point: the offset
        and the past of every point are built one axis at a time, adding
        stride_i per unit while the coordinate is at most l_i and 1 to
        past per unit beyond it.
        """
        self._check_length(top)
        offsets = pasts = [0]
        for t, l, stride in zip(top, self.invariants.conductor,
                                self.strides):
            axis = range(index(t) + 1)
            step = [min(c, l) * stride for c in axis]
            past = [max(c - l, 0) for c in axis]
            offsets = [o + a for o in offsets for a in step]
            pasts = [p + b for p in pasts for b in past]
        values = self.values
        return [values[o] + p for o, p in zip(offsets, pasts)]

    def in_semigroup(self, v):
        r"""True when every coordinate step at v equals 1."""
        # a negative v_i clamps v and v + e_i to the same point
        h, *ahead = self.cube(v)
        return all(ahead[(1 << i) - 1] == h + 1 for i in range(len(v)))


def _spot_check(table):
    # re-derive a deterministic ~10% of [0, corner] by the matrix rank
    # route: a point is sampled when its hash, built one axis at a time,
    # is 0 mod 10, and it needs no more series terms than are kept
    hashes = [0]
    for top in table.corner:
        hashes = [(k * 1000003 + c) % 2147483648
                  for k in hashes for c in range(top + 1)]
    kept = table.curve.truncation
    points = [v for v in compress(box_points(table.corner),
                                  [k % 10 == 0 for k in hashes])
              if max(v) <= kept]
    for v, direct in zip(points, oracle_values(table.curve, points)):
        h = table.value(v)
        if direct != h:
            raise ConsistencyError(
                "table value %d at %s but direct rank is %d"
                % (h, v, direct))


def _fill_to_conductor(curve, l):
    # h on [0, l] as ranks of jet columns, one flat list in lexicographic
    # order (see HilbertTable).  Monomials of degree >= max(l) vanish in
    # every column e < l_i, so those of degree < max(l), by index k, serve
    # the box: column e of a branch maps k to the jet's nonzero t^e entry,
    # and a jet is read only when its order a ord(x) + b ord(y) is below
    # l_i.  invariants() has evaluated h at l, so the truncation covers it.
    monomials = ((a, d - a) for d in range(max(l)) for a in range(d + 1))
    columns = [[{} for _ in range(n)] for n in l]
    for k, (a, b) in enumerate(monomials):
        for cols, branch, n in zip(columns, curve.branches, l):
            if a * branch.orders[0] + b * branch.orders[1] < n:
                for e, x in branch.jet(a, b):
                    if e >= n:
                        break
                    cols[e][k] = x
    values = []

    def sweep(depth, basis):
        # basis spans the columns e < v_j of each branch j < depth, and
        # the walk visits [0, l] in lexicographic order
        if depth == len(columns):
            values.append(len(basis))
            return
        for col in columns[depth]:
            sweep(depth + 1, basis)
            basis = echelon_insert(basis, col)
        sweep(depth + 1, basis)

    sweep(0, {})
    return values


def _step_rule_sweep(table, bound):
    # second route: the direction-i step at v is 1 exactly when the
    # witness box B(v, i) of the u with u_i = v_i and v_j <= u_j <=
    # max(l_j, v_j) for j != i holds a semigroup point (l the conductor,
    # bound >= l).  The steps on [0, bound] are shifted differences of
    # one grid of h on [0, bound + 1].  found starts as the member mask
    # (all r bits on members) and gathers each B(v, i) by one reverse
    # pass per axis j: where v_j < l_j, v takes the found bits of
    # v + e_j except bit j, so bit i of v ORs the members over B(v, i).
    l = table.invariants.conductor
    r = len(l)
    shape = tuple(b + 2 for b in bound)
    h = table.grid(tuple(b + 1 for b in bound))
    cells = box_offsets(bound, shape)
    steps = [[h[k + s] - h[k] for k in cells]
             for s in (prod(shape[i + 1:]) for i in range(r))]
    ones = (1,) * r
    found = [(1 << r) - 1 if s == ones else 0 for s in zip(*steps)]
    box = tuple(b + 1 for b in bound)
    for j in range(r):
        keep = ~(1 << j)
        for here, ahead in axis_pairs(box, j, range(l[j] - 1, -1, -1)):
            found[here] = [f | a & keep
                           for f, a in zip(found[here], found[ahead])]
    for i, step in enumerate(steps):
        bits = [f >> i & 1 for f in found]
        if step != bits:
            v = next(v for v, a, b in zip(box_points(bound), step, bits)
                     if a != b)
            raise ConsistencyError(
                "step rule fails at %s direction %d" % (v, i))


def build_table(curve, box=None):
    r"""
    Fill h over [0, l] and check it by both routes over the box.

    Cells of [0, l] (l the conductor) are prefix ranks of integer jet
    columns: for each point of the first r - 1 coordinates, an echelon
    basis of that prefix's columns is extended by the last branch's
    columns one at a time, and the rank after each column is the next
    h.  Beyond l every unit step adds 1 (see HilbertTable.value).  A
    sample of the cells of [0, corner] is then recomputed as full
    matrix ranks, by one oracle_values walk whose points share the
    elimination of their common trailing coordinates, and the step
    rule is checked on [0, max(box, l)] by axis passes over one grid of
    h.

    Parameters
    ----------
    curve : Curve
    box : tuple of ints, optional
        Requested box of r coordinates (otherwise ValueError); the
        checked corner is max(box, conductor) + 2 in every coordinate.
        Defaults to the conductor.

    Returns
    -------
    HilbertTable
    """
    inv = invariants(curve)
    r = curve.r
    l = inv.conductor
    if box is None:
        box = l
    if len(box) != r:
        raise ValueError("expected %d coordinates, got %d" % (r, len(box)))
    box = tuple(max(index(b), 0) for b in box)
    bound = tuple(max(b, c) for b, c in zip(box, l))
    corner = tuple(b + 2 for b in bound)
    table = HilbertTable(curve, corner, _fill_to_conductor(curve, l), inv)
    _spot_check(table)
    _step_rule_sweep(table, bound)
    return table


def local_field(table, box):
    r"""
    (h, ids, vectors): h(v) and the index in vectors of the local rank
    vector k(v) = (h(v + e_K) - h(v))_K, bit j of K adding e_j, at every
    point of [0, box] in lexicographic order.  vectors lists the distinct
    k(v) by first point; entry K is grid(box + 1) read shifted by e_K.
    The field of each box is kept on the table, so the stages that read
    one box read one field; no caller changes the lists.
    """
    box = tuple(box)
    fields = table.__dict__.setdefault("_fields", {})
    if box not in fields:
        fields[box] = _local_field(table, box)
    return fields[box]


def _local_field(table, box):
    shape = tuple(b + 2 for b in box)
    grid = table.grid(tuple(b + 1 for b in box))
    cells = box_offsets(box, shape)
    h = [grid[k] for k in cells]
    shifts = [0]
    for j in range(len(box)):
        shifts += [s + prod(shape[j + 1:]) for s in shifts]
    reads = (map(sub, map(grid.__getitem__, map(s.__add__, cells)), h)
             for s in shifts)
    index = {}
    ids = [index.setdefault(k, len(index)) for k in zip(*reads)]
    return h, ids, list(index)


def semigroup(table, box=None):
    r"""
    Value semigroup points inside a box, sorted lexicographically: those
    whose local rank vector (see local_field) has every singleton entry 1.

    The default box is the conductor plus 1 in every coordinate, which
    shows the full gap structure together with one layer of the far
    region in which every lattice point is a member.  Every point of
    the box that dominates the conductor must be a member, otherwise
    ConsistencyError is raised.
    """
    l = table.invariants.conductor
    if box is None:
        box = tuple(c + 1 for c in l)
    _, ids, vectors = local_field(table, box)
    member = [all(k[1 << j] == 1 for j in range(len(l))) for k in vectors]
    for v, i in zip(box_points(box), ids):
        if not member[i] and all(a >= b for a, b in zip(v, l)):
            raise ConsistencyError(
                "%s dominates the conductor but is not a member" % (v,))
    return [v for v, i in zip(box_points(box), ids) if member[i]]


def symmetry_check(table):
    r"""
    Verify h(l - v) - h(v) = delta - |v| for every v in [0, l] on the
    given HilbertTable.

    Returns True, or raises ConsistencyError at the first failure.
    """
    inv = table.invariants
    l = inv.conductor
    # on [0, l], l - v is as far from the end of lexicographic order as v
    # is from its start
    h = table.grid(l)
    for v, hv, mirrored in zip(box_points(l), h, reversed(h)):
        if mirrored - hv != inv.delta - sum(v):
            raise ConsistencyError(
                "symmetry fails at %s: h(l-v)=%d, h(v)=%d, delta-|v|=%d"
                % (v, mirrored, hv, inv.delta - sum(v)))
    return True


def large_n_step_check(table):
    r"""
    Verify directly from matrix ranks that steps are 1 far out: for
    every direction i and every n from conductor_i to conductor_i + 3,
    h increases by exactly 1 in direction i at a spread of sample
    points with v_i = n.  Lines of different directions share points,
    and the distinct points are ranked once, in one oracle_values walk.
    Only the curve and conductor of the table are read; every value is a
    matrix rank.

    Returns True, or raises ConsistencyError.
    """
    curve = table.curve
    l = table.invariants.conductor
    r = len(l)
    lines = [(i, [base[:i] + (n,) + base[i + 1:]
                  for n in range(l[i], l[i] + 5)])
             for i in range(r)
             for base in product(*(sorted({0, 1, l[j], l[j] + 1})
                                   if j != i else [l[i]] for j in range(r)))]
    # the distinct points that fit the truncation, ranked in one walk; a
    # point beyond it raises at its line, as h_oracle there would
    points = [v for v in dict.fromkeys(v for _, line in lines for v in line)
              if max(v) <= curve.truncation]
    known = dict(zip(points, oracle_values(curve, points)))
    for i, line in lines:
        h = [known[v] if v in known else h_oracle(curve, v) for v in line]
        for v, here, ahead in zip(line, h, h[1:]):
            if ahead - here != 1:
                raise ConsistencyError(
                    "step beyond the conductor is %d at %s "
                    "direction %d" % (ahead - here, v, i))
    return True


def local_matroid(table, v):
    r"""
    The local matroid at v: a subset K of branch indices (a bitmask)
    has rank h(v + e_K) - h(v).

    Matroid checks the rank axioms; a failure raises ConsistencyError
    naming v.

    Returns
    -------
    Matroid
    """
    cube = table.cube(v)
    try:
        return Matroid(len(v), {mask: h - cube[0]
                                for mask, h in enumerate(cube)})
    except ValueError as exc:
        raise ConsistencyError("local matroid at %s: %s" % (v, exc))


def char_poly(table, v):
    r"""
    Characteristic polynomial of the local matroid at v, as a tuple of
    coefficients indexed by exponent: sum over subsets K of
    (-1)^|K| t^(rank(full) - rank(K)).

    Zero whenever v is outside the value semigroup.
    """
    return tuple(signed_rank_count(local_matroid(table, v).rank))[::-1]
