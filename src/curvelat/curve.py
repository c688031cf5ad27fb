r"""
Branch parametrizations and the valuation-matrix route to the Hilbert
function.

A curve germ is described by its branches, each given parametrically as
a pair of polynomials (x(t), y(t)).  The fundamental quantity is
h(v) = codimension of the set of functions whose order on branch i is
at least v_i; everything else in the package is derived from it.  This
module computes h(v) directly as the rank of a sparse matrix of monomial
jet coefficients, with no recursion, so it can serve as the ground-truth
route against which faster routes are checked; oracle_values ranks many
points in one walk, in which points that share trailing coordinates
share the elimination of those branches' columns.  Each branch caches the
sparse jet of every monomial it has composed (``jet``), the columns of
the jet matrix (``columns``), its delta and conductor (``branch_delta``)
and its accepted intersection number with each other branch
(``intersection_multiplicity``); h itself is never cached.  Branch
deltas and intersection numbers are read off h values too; the second
route for an intersection number is a local check at one lattice
point, so nothing global about the polynomial curves enters.
"""

from bisect import bisect_left
from math import gcd, inf, lcm
from itertools import groupby
from operator import index, itemgetter

from .errors import (
    ConsistencyError,
    InsufficientTruncation,
    InvalidParametrization,
    NonStabilizing,
    PrimitivityError,
)
from .exactalg import TruncSeries, echelon_extend, parse_poly, series_mul


class BranchParametrization:
    r"""
    One branch (x(t), y(t)) with both coordinates truncated at the same
    order.

    Constructor constraints: the coordinates may not both be zero, each
    nonzero coordinate must vanish at t = 0, and the exponents appearing
    across both coordinates must have gcd 1 (otherwise the parametric
    description traverses its image multiple times and is rejected).
    ``orders`` holds the orders of x and y, that of a zero coordinate
    taken as the truncation.
    """

    def __init__(self, x, y):
        if x.truncation != y.truncation:
            raise InvalidParametrization(
                "coordinate truncations differ: %d vs %d"
                % (x.truncation, y.truncation))
        if x.is_zero() and y.is_zero():
            raise InvalidParametrization(
                "both coordinates are zero modulo t^%d" % x.truncation)
        exps = sorted(set(x.coeffs) | set(y.coeffs))
        if exps[0] == 0:
            raise InvalidParametrization(
                "coordinate does not vanish at t = 0")
        g = gcd(*exps)
        if g != 1:
            raise PrimitivityError(
                "exponent gcd is %d, parametrization is not primitive" % g)
        self.x = x
        self.y = y
        self.truncation = x.truncation
        self.orders = tuple(s.order() or self.truncation for s in (x, y))
        self.scale = lcm(*[c.denominator for s in (x, y)
                           for c in s.coeffs.values()])

    @classmethod
    def from_strings(cls, x_text, y_text, truncation):
        r"""
        Parse coordinate polynomials and build the branch.

        Primitivity is judged on every parsed term: when only the terms
        at or beyond the truncation make the exponent gcd 1, this raises
        InsufficientTruncation naming the least truncation that keeps
        the branch primitive, not PrimitivityError.
        """
        # every term, with no cutoff; the branch keeps those below it
        full = [parse_poly(text, inf) for text in (x_text, y_text)]
        try:
            return cls(*(TruncSeries(s.coeffs, truncation) for s in full))
        except PrimitivityError:
            g = 0
            for e in sorted(set(full[0].coeffs) | set(full[1].coeffs)):
                g = gcd(g, e)
                if g == 1:
                    raise InsufficientTruncation(
                        "the branch is primitive only with its term t^%d; "
                        "truncation %d drops it, %d keeps it"
                        % (e, truncation, e + 1))
            raise

    def multiplicity(self):
        r"""Smallest order among the nonzero coordinates."""
        return min(self.orders)

    def monomial(self, a, b):
        r"""The series x(t)^a * y(t)^b."""
        xa = self._power(self.x, a, "_xpow")
        yb = self._power(self.y, b, "_ypow")
        return series_mul(xa, yb)

    def jet(self, a, b):
        r"""
        The nonzero coefficients of (x^a y^b)(q t) as a tuple of ascending
        (exponent, int) pairs below the truncation, where q = ``scale``
        is the lcm of the denominators of all coefficients of x and y.

        Every coefficient of x and y has a denominator dividing q and
        both series have order >= 1, so the t^e coefficient of x^a y^b
        has a denominator dividing q^(a + b) and vanishes unless
        e >= a + b; hence q^e times it is an integer.  The substitution
        t -> q t scales column e of any jet matrix by q^e != 0, so it
        changes no rank and no h value.  Each jet is derived once from
        ``monomial`` and cached on the branch.
        """
        cache = self.__dict__.setdefault("_jets", {})
        if (a, b) not in cache:
            cache[a, b] = tuple(
                (e, c.numerator * self.scale ** e // c.denominator)
                for e, c in sorted(self.monomial(a, b).coeffs.items()))
        return cache[a, b]

    def columns(self, n):
        r"""
        The jet matrix's columns e < n: column e maps the index
        k = d(d + 1)/2 + a of each monomial x^a y^b (d = a + b) to the
        nonzero t^e entry of its ``jet``.  An entry at e needs order
        a ord(x) + b ord(y) <= e, so only jets of order below n are read.
        The columns are cached on the branch, and a call for more of
        them than are built adds only the entries of the new ones.
        """
        cols = self.__dict__.setdefault("_columns", [])
        built = len(cols)
        if n > built:
            cols += [{} for _ in range(built, n)]
            ox, oy = self.orders
            for a in range(-(-n // ox)):
                for b in range(-((a * ox - n) // oy)):
                    jet = self.jet(a, b)
                    k = (a + b) * (a + b + 1) // 2 + a
                    for e, x in jet[bisect_left(jet, (built,)):]:
                        if e >= n:
                            break
                        cols[e][k] = x
        return cols[:n]

    def _power(self, base, n, slot):
        cache = self.__dict__.setdefault(slot, {})
        if n not in cache:
            if n == 0:
                cache[n] = TruncSeries({0: 1}, self.truncation)
            else:
                cache[n] = series_mul(self._power(base, n - 1, slot), base)
        return cache[n]


class Curve:
    r"""A curve germ given by one or more branch parametrizations."""

    def __init__(self, branches):
        if not branches:
            raise InvalidParametrization("a curve needs at least one branch")
        t = branches[0].truncation
        for b in branches:
            if b.truncation != t:
                raise InvalidParametrization(
                    "branches have different truncations")
        self.branches = list(branches)
        self.truncation = t

    @property
    def r(self):
        return len(self.branches)

    def subcurve(self, indices):
        r"""The curve formed by the selected branches, in given order."""
        return Curve([self.branches[i] for i in indices])


def h_oracle(curve, v):
    r"""
    Hilbert value h(v) as a matrix rank, directly from the definition:
    the one-point case of oracle_values.

    The jet matrix of v has a row for each monomial x^a y^b and, branch
    by branch, a column for each e below v_i, holding the t^e entries of
    the monomials' integer jets; h(v) is the rank of its nonzero columns
    (see BranchParametrization.columns), reduced last branch first and
    highest e first, an order that no prefix of the table fill's
    insertions takes.  Negative coordinates are clamped to zero first.

    Parameters
    ----------
    curve : Curve
    v : tuple of ints, one per branch

    Returns
    -------
    int

    Raises
    ------
    InsufficientTruncation
        If some clamped coordinate exceeds the series truncation.
    TypeError
        If some coordinate is not an integer.
    """
    return oracle_values(curve, (v,))[0]


def oracle_values(curve, points):
    r"""
    h at each of the points, ranked as h_oracle ranks one point, with
    the elimination of a shared suffix of coordinates done once.

    The points are walked as a trie over their reversed (clamped)
    coordinates, in sorted order.  A node at depth j reduces its block,
    the nonzero columns e = n - 1, ..., 0 of branch r - 1 - j (n its
    coordinate), into its parent's basis, and a leaf's rank is its
    point's value; so every point meets the columns and pivots it meets
    alone, and only the blocks it shares with an earlier point are not
    reduced again.  Every child of a node but the last extends a copy of
    the node's basis, and the last the basis itself; a child that holds
    one point takes all of that point's remaining blocks in one pass.

    Parameters
    ----------
    curve : Curve
    points : iterable of tuples of ints, one coordinate per branch

    Returns
    -------
    list of ints, one per point, in order

    Raises
    ------
    ValueError, TypeError, InsufficientTruncation
        As h_oracle does, at the first point in order that is of the
        wrong length, has a coordinate that is not an integer, or needs
        more series terms than are kept; no rank is computed then.
    """
    branches = curve.branches[::-1]
    r, kept = len(branches), curve.truncation
    keys = []
    for v in points:
        if len(v) != r:
            raise ValueError("expected %d coordinates, got %d" % (r, len(v)))
        key = tuple(map(index, v[::-1]))
        if min(key) < 0:
            key = tuple([max(c, 0) for c in key])
        if kept < max(key):
            raise InsufficientTruncation(
                "need %d series terms but only %d are kept"
                % (max(key), kept))
        keys.append(key)
    ranks = {}

    def walk(depth, basis, group):
        # the sorted keys of group share their first depth coordinates,
        # and basis holds those nodes' blocks.  Each child extends it by
        # its own block, every child but the last in a copy.  A shallow
        # copy is enough: the reduction never changes a stored vector,
        # only the dict that holds it
        children = [list(g) for _, g in groupby(group, itemgetter(depth))]
        for child in children:
            node = basis if child is children[-1] else dict(basis)
            key = child[0]
            if len(child) == 1:
                # the nodes below are this point's alone: one pass
                ranks[key] = echelon_extend(
                    node, _blocks(branches[depth:], key[depth:]))
            else:
                echelon_extend(node, _blocks(branches[depth:depth + 1],
                                             key[depth:depth + 1]))
                walk(depth + 1, node, child)

    walk(0, {}, sorted(set(keys)))
    return [ranks[key] for key in keys]


def _blocks(branches, key):
    # the nonzero columns of a path's nodes, one per branch in order:
    # the node of coordinate n holds its branch's from e = n - 1 down to 0
    return [col for b, n in zip(branches, key)
            for col in reversed(b.columns(n)) if col]


def branch_delta(branch):
    r"""
    Delta invariant and semigroup conductor of a single branch.

    Scans n = 0, 1, 2, ... deciding membership of n in the value
    semigroup by whether h(n+1) - h(n) = 1, and stops once a run of
    consecutive members as long as the branch multiplicity is seen;
    from then on every integer is a member, so the gap list is
    complete.  The result is kept on the branch, so each branch is
    scanned once however many pairs it belongs to.

    Returns
    -------
    (delta, conductor) : pair of ints

    Raises
    ------
    NonStabilizing
        If the run certificate is not reached within the truncation.
    """
    known = branch.__dict__.get("_delta")
    if known is not None:
        return known
    sub = Curve([branch])
    a = branch.multiplicity()
    gaps = []
    run = 0
    prev = 0
    n = 0
    while n + 1 <= branch.truncation:
        cur = h_oracle(sub, (n + 1,))
        if cur - prev == 1:
            run += 1
            if run >= a:
                conductor = gaps[-1] + 1 if gaps else 0
                branch._delta = len(gaps), conductor
                return branch._delta
        else:
            gaps.append(n)
            run = 0
        prev = cur
        n += 1
    raise NonStabilizing(
        "semigroup membership not certified within truncation %d"
        % branch.truncation)


def _local_intersection_check(bi, ci, bj, cj, m):
    r"""
    Raise ConsistencyError unless m is the intersection number I of
    branches bi and bj (conductors ci and cj), using three h values.

    For an ordering (a, b) let s = m // m_b + 1, k = c_a + m_a s and J
    the functions of order >= k on a; accept iff
    h_ab(k, m) = h_a(k) < h_ab(k, m + 1).  This is exact: the local
    equation f_a lies in J and has order I on b, so h_ab(k, e) = h_a(k)
    forces e <= I; and a series of order >= c_a + m_a s on a is z^s (z
    a coordinate of order m_a) times one of order >= c_a, which is a
    restriction, so J lies in (f_a) + (x, y)^s and every g in J has
    order >= min(I, s m_b) >= min(I, m + 1) on b.  Only the germ enters,
    not the rest of the polynomial curves.  The ordering with the
    smaller k is used: a line against a cusp needs k = 2, not 8.
    """
    k, a, b = min(((c + a.multiplicity() * (m // b.multiplicity() + 1), a, b)
                   for a, c, b in ((bi, ci, bj), (bj, cj, bi))),
                  key=lambda option: option[0])
    h_a = h_oracle(Curve([a]), (k,))
    h_m, h_next = (h_oracle(Curve([a, b]), (k, e)) for e in (m, m + 1))
    if not h_m == h_a < h_next:
        raise ConsistencyError(
            "intersection multiplicity: jet scan gives %d, local Hilbert "
            "check needs h_ab(%d, %d) = h_a(%d) < h_ab(%d, %d) but gets "
            "%d, %d, %d" % (m, k, m, k, k, m + 1, h_m, h_a, h_next))


def intersection_multiplicity(curve, i, j):
    r"""
    Intersection multiplicity of branches i and j.

    Primary route: the count of missing jets
    g(k) = h_i(k) + h_j(k) - h_{ij}(k, k) stabilizes to the
    intersection multiplicity; the scan accepts once the value repeats
    past the conductors of both branches plus the candidate value.

    Second route: three h values of the pair at (k, m) and (k, m + 1)
    certify the scan's value m (see _local_intersection_check); this
    needs max(k, m + 1) series terms, up to m_a - 1 more than the scan.
    The accepted number is kept on both branches, so each pair is
    scanned once in whichever order and in whichever (sub)curve.

    Raises
    ------
    NonStabilizing
        If the scan is not accepted within the truncation (in
        particular when the two branches coincide).
    ConsistencyError
        If the local check rejects the scan's value.
    InsufficientTruncation
        If the local check needs more series terms than kept.
    """
    if i == j:
        raise ValueError("intersection of a branch with itself")
    bi, bj = curve.branches[i], curve.branches[j]
    pairs = bi.__dict__.setdefault("_pairs", {})
    if bj in pairs:
        return pairs[bj]
    pair = Curve([bi, bj])
    di, ci = branch_delta(bi)
    dj, cj = branch_delta(bj)
    k0 = max(ci, cj)
    sub_i = Curve([bi])
    sub_j = Curve([bj])
    accepted = None
    prev_g = None
    k = 1
    while k <= curve.truncation:
        g = (h_oracle(sub_i, (k,)) + h_oracle(sub_j, (k,))
             - h_oracle(pair, (k, k)))
        if g == prev_g and k >= k0 + g + 1:
            accepted = g
            break
        prev_g = g
        k += 1
    if accepted is None:
        raise NonStabilizing(
            "intersection scan did not stabilize within truncation %d"
            % curve.truncation)
    _local_intersection_check(bi, ci, bj, cj, accepted)
    pairs[bj] = bj.__dict__.setdefault("_pairs", {})[bi] = accepted
    return accepted
