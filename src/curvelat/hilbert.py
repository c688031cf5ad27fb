r"""
The Hilbert function on a lattice box, the value semigroup, and the
numeric invariants of a curve germ.

The table builder fills [0, l] (l the conductor) with prefix ranks:
one echelon basis of sparse jet columns per point of the first r - 1
coordinates, extended by the last branch's columns one at a time with
exactalg.echelon_insert, the same kernel that ranks h_oracle's rows.
Beyond the conductor every unit step adds 1.  The ranks are kept as one
flat list in lexicographic order, so every read of h is an index
computed from strides, plus the excess beyond l; membership and the
unit steps at v are views of its unit cube.  The builder re-derives a
sample of cells from scratch with a full matrix rank (h_oracle) and
checks the step recursion (a direction-i step is 1 exactly when some
semigroup point agrees with v in coordinate i and dominates it
elsewhere) over the whole box.  Any mismatch raises ConsistencyError.
"""

from collections import namedtuple
from itertools import product
from math import prod
from operator import index

from .curve import branch_delta, h_oracle, intersection_multiplicity
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
    h = h_oracle(curve, conductor)
    if h != delta:
        raise ConsistencyError(
            "h at the conductor is %d, expected delta = %d" % (h, delta))
    for i in range(r):
        if conductor[i] >= 1:
            lower = list(conductor)
            lower[i] -= 1
            h = h_oracle(curve, tuple(lower))
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


class HilbertTable:
    r"""
    h on [0, l] (l the conductor) with total evaluation: beyond l every
    unit step raises h by exactly 1, so a read clips to l and adds the
    excess.  ``values`` is h on [0, l] as one list in lexicographic
    order (the last coordinate fastest), and h(v) for v in [0, l] is
    ``values[sum(v_i * strides[i])]``, where ``strides[i]`` is the
    product of l_j + 1 over j > i.  ``corner`` is the box the build
    checked: the spot check sampled [0, corner] and the step rule held
    on [0, corner - 2].  ``local_homology`` starts empty; the graded
    pieces (see latthom.grv_homology_direct) keep in it the homology of
    each local rank vector they have reduced.
    """

    def __init__(self, curve, corner, values, inv):
        self.curve = curve
        self.corner = corner
        self.values = values
        self.invariants = inv
        self.local_homology = {}
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

    def in_semigroup(self, v):
        r"""True when every coordinate step at v equals 1."""
        # a negative v_i clamps v and v + e_i to the same point
        h, *ahead = self.cube(v)
        return all(ahead[(1 << i) - 1] == h + 1 for i in range(len(v)))


def _spot_check(table):
    # re-derive a deterministic ~10% of [0, corner] by the matrix rank route
    for v in box_points(table.corner):
        acc = 0
        for c in v:
            acc = (acc * 1000003 + c) % 2147483648
        if acc % 10 == 0 and max(v) <= table.curve.truncation:
            h = table.value(v)
            direct = h_oracle(table.curve, v)
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
    # bound >= l).  For j != i with v_j < l_j, B(v + e_j, i) is the part
    # of B(v, i) with u_j > v_j; for v_j >= l_j the j range is {v_j}.
    # So B(v, i) is {v} plus those B(v + e_j, i), all in [0, bound]: a
    # reverse lexicographic walk meets v + e_j before v, reads each cube
    # once and ORs each witness from at most r - 1 neighbours.
    l = table.invariants.conductor
    r = len(l)
    witnessed = {}  # bit i set when B(v, i) holds a member
    for v in product(*(range(b, -1, -1) for b in bound)):
        h, *ahead = table.cube(v)
        steps = [ahead[(1 << i) - 1] - h for i in range(r)]
        found = (1 << r) - 1 if all(s == 1 for s in steps) else 0
        for j in range(r):
            if v[j] < l[j]:
                near = v[:j] + (v[j] + 1,) + v[j + 1:]
                found |= witnessed[near] & ~(1 << j)
        witnessed[v] = found
        for i in range(r):
            if steps[i] != found >> i & 1:
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
    sample of the cells of [0, corner] is then recomputed by h_oracle,
    a full matrix rank, and the step rule is checked on [0, max(box,
    l)] by one walk that reads each point's unit cube once.

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


def semigroup(table, box=None):
    r"""
    Value semigroup points inside a box, sorted lexicographically,
    read off the given HilbertTable.

    The default box is the conductor plus 1 in every coordinate, which
    shows the full gap structure together with one layer of the far
    region in which every lattice point is a member.  Every point of
    the box that dominates the conductor must be a member, otherwise
    ConsistencyError is raised.
    """
    l = table.invariants.conductor
    if box is None:
        box = tuple(c + 1 for c in l)
    members = set(v for v in box_points(box) if table.in_semigroup(v))
    for v in box_points(box):
        if all(a >= b for a, b in zip(v, l)) and v not in members:
            raise ConsistencyError(
                "%s dominates the conductor but is not a member" % (v,))
    return sorted(members)


def symmetry_check(table):
    r"""
    Verify h(l - v) - h(v) = delta - |v| for every v in [0, l] on the
    given HilbertTable.

    Returns True, or raises ConsistencyError at the first failure.
    """
    inv = table.invariants
    l = inv.conductor
    for v in box_points(l):
        mirrored = tuple(a - b for a, b in zip(l, v))
        if table.value(mirrored) - table.value(v) != inv.delta - sum(v):
            raise ConsistencyError(
                "symmetry fails at %s: h(l-v)=%d, h(v)=%d, delta-|v|=%d"
                % (v, table.value(mirrored), table.value(v),
                   inv.delta - sum(v)))
    return True


def large_n_step_check(table):
    r"""
    Verify directly from matrix ranks that steps are 1 far out: for
    every direction i and every n from conductor_i to conductor_i + 3,
    h increases by exactly 1 in direction i at a spread of sample
    points with v_i = n, computing each sample's five values once.
    Only the curve and conductor of the table are read; every value
    comes from h_oracle.

    Returns True, or raises ConsistencyError.
    """
    curve = table.curve
    l = table.invariants.conductor
    r = len(l)
    for i in range(r):
        samples = [sorted({0, 1, l[j], l[j] + 1}) if j != i else [l[i]]
                   for j in range(r)]
        for base in product(*samples):
            line = [base[:i] + (n,) + base[i + 1:]
                    for n in range(l[i], l[i] + 5)]
            h = [h_oracle(curve, v) for v in line]
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
