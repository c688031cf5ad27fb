r"""
Generating series built from the Hilbert table: the Hilbert series
itself, the alternating-sum series pi (r difference passes over one
grid of h) and h rebuilt from it (its mirror: every subset's signed
series scattered into one flat list, then r running-sum passes), the
q-refined series and its normalized polynomial form, and, read off pi
series already computed, the annihilating polynomials and the
restriction identity relating a curve's series to the series of the
curve with one branch removed.

The normalized q-series, the one-branch polynomial and the restriction
identity are products with factors 1 - t^s q^m, each factor taken by
BoxSeries.times_one_minus (the q-series one axis at a time).

The q-polynomial at a point is the running signed count of h on its
unit cube; pi there stays its own alternating sum, for the Euler check.

A BoxSeries stores finitely many terms c * t^v * q^m with v inside a
box; series in the t variables alone keep m = 0 everywhere.
"""

from itertools import accumulate
from math import prod
from operator import add, le, sub

from .errors import ConsistencyError, PolynomialityViolation, SupportViolation
from .hilbert import axis_pairs, box_offsets, box_points, local_field
from .oslattice import signed_rank_count


class BoxSeries:
    r"""
    Finitely supported exponent-to-coefficient map.

    Keys of coeffs are (v, m) with v a tuple of length r and m the
    q exponent; zero coefficients are dropped.  box is the corner of
    the region in which the t support is meaningful (series data
    outside the box was never computed, not proven zero).  A box or a
    term whose length is not r raises ValueError, so every comparison
    of a box or a term with another r-tuple can pair their coordinates
    by ``zip``.
    """

    def __init__(self, r, box, coeffs):
        self.r = r
        self.box = tuple(box)
        if len(self.box) != r:
            raise ValueError("series box %s has %d coordinates for %d "
                             "variables" % (self.box, len(self.box), r))
        self.coeffs = {}
        for (v, m), c in coeffs.items():
            v = tuple(v)
            if len(v) != r:
                raise ValueError("series term %s has %d coordinates for %d "
                                 "variables" % (v, len(v), r))
            if c != 0:
                self.coeffs[(v, m)] = c

    def coefficient(self, v, m=0):
        return self.coeffs.get((tuple(v), m), 0)

    def times_one_minus(self, s, m=0):
        r"""The series times 1 - t^s q^m, terms outside its box dropped."""
        coeffs = dict(self.coeffs)
        for (v, k), c in self.coeffs.items():
            w = tuple(map(add, v, s))
            if all(map(le, w, self.box)):
                coeffs[(w, k + m)] = coeffs.get((w, k + m), 0) - c
        return BoxSeries(self.r, self.box, coeffs)

    def __eq__(self, other):
        return (isinstance(other, BoxSeries) and self.r == other.r
                and self.coeffs == other.coeffs)

    def __repr__(self):
        return "BoxSeries(%s)" % canonical_str(self)


def canonical_str(series):
    r"""
    Deterministic rendering: terms ascend lexicographically by t
    exponent vector with the q exponent last, every sign is written,
    products use '*', powers use '^', and the t variable is named t
    for one branch and t1..tr otherwise.
    """
    if not series.coeffs:
        return "0"
    names = (["t"] if series.r == 1
             else ["t%d" % (i + 1) for i in range(series.r)])
    parts = []
    for (v, m) in sorted(series.coeffs, key=lambda km: (km[0], km[1])):
        c = series.coeffs[(v, m)]
        factors = []
        for i, e in enumerate(v):
            if e == 1:
                factors.append(names[i])
            elif e > 1:
                factors.append("%s^%d" % (names[i], e))
        if m == 1:
            factors.insert(0, "q")
        elif m > 1:
            factors.insert(0, "q^%d" % m)
        mag = abs(c)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        body = "*".join(factors)
        if not parts:
            parts.append("-" + body if c < 0 else body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts)


def hilbert_series(table, box):
    r"""Sum of h(v) t^v over the box, read off one grid of h."""
    coeffs = {(v, 0): h for v, h in zip(box_points(box), table.grid(box))}
    return BoxSeries(len(box), box, coeffs)


def pi_value(table, v):
    r"""
    Alternating sum over all subsets K of branches (the empty set
    included) of (-1)^(|K|-1) h(v + e_K).
    """
    return sum(h if mask.bit_count() % 2 else -h
               for mask, h in enumerate(table.cube(v)))


def poincare_from_hilbert(table, box):
    r"""
    The series of pi values over the box.

    pi is minus the r-fold forward difference of h, so r in-place
    passes of h(v) - h(v + e_i), one per axis, over one grid of h on
    [0, box + 1] give it; pi_value reads the same sum off one cube.
    """
    shape = tuple(b + 2 for b in box)
    d = table.grid(tuple(b + 1 for b in box))
    for i, size in enumerate(shape):
        # ascending, so each layer takes the next one before its own pass
        for here, ahead in axis_pairs(shape, i, range(size - 1)):
            d[here] = map(sub, d[here], d[ahead])
    coeffs = {(v, 0): -d[k]
              for v, k in zip(box_points(box), box_offsets(box, shape))}
    return BoxSeries(len(box), box, coeffs)


def _series_at(poincares, mask):
    r"""The pi series of bitmask mask, in as many variables as set bits."""
    if mask not in poincares:
        raise ValueError("no pi series for bitmask %d" % mask)
    p = poincares[mask]
    if p.r != mask.bit_count():
        raise ValueError("pi series for bitmask %d has %d variables"
                         % (mask, p.r))
    return p


def hilbert_from_poincare(poincares, box):
    r"""
    Rebuild h on [0, box] from the pi series of every nonempty branch
    subset: h(v) is the sum over nonempty K of (-1)^(|K|-1) times the
    sum of the K-subcurve pi values over the box from 0 to v restricted
    to K minus 1.  The mirror of poincare_from_hilbert: each signed
    series is put at w + 1 on the K axes and 0 off them in one flat
    list over [0, box], and r in-place running-sum passes, one per
    axis, add up every K at once.

    Parameters
    ----------
    poincares : dict mapping bitmask to BoxSeries
        The series for the subcurve with the masked branches, indexed
        in increasing branch order; every box must reach box - 1 on its
        coordinates, and a missing bitmask, or a series in other than
        its bit count of variables, raises ValueError.
    box : tuple of ints

    Returns
    -------
    dict mapping every point of [0, box] to h there
    """
    r = len(box)
    shape = tuple(b + 1 for b in box)
    strides = [prod(shape[i + 1:]) for i in range(r)]
    h = [0] * prod(shape)
    for mask in range(1, 1 << r):
        p = _series_at(poincares, mask)
        on = [mask >> i & 1 for i in range(r)]
        upper = tuple(b - 1 for b, k in zip(box, on) if k)
        if any(b < u for b, u in zip(p.box, upper)):
            raise ValueError("subcurve series box is too small")
        sign = 1 if len(upper) % 2 else -1
        lift = sum(k * s for k, s in zip(on, strides))  # + 1 on the K axes
        face = box_offsets([b - 1 if k else 0 for b, k in zip(box, on)],
                           shape)
        for k, w in zip(face, box_points(upper)):
            h[k + lift] = sign * p.coefficient(w)
    for i, size in enumerate(shape):
        # ascending, so each layer adds a running sum already taken
        for here, ahead in axis_pairs(shape, i, range(size - 1)):
            h[ahead] = map(add, h[ahead], h[here])
    return dict(zip(box_points(box), h))


def hv_polynomial(table, v):
    r"""
    The q-polynomial at a single lattice point: the alternating sum
    over subsets K of q^(h(v + e_K)), divided exactly by 1 - q.

    The coefficient of q^m is the signed count of the cube's values up
    to m (see oslattice.signed_rank_count), read off h itself.

    Parameters
    ----------
    table : HilbertTable
    v : tuple of ints

    Returns
    -------
    dict mapping q-exponent to nonzero integer coefficient
    """
    running = accumulate(signed_rank_count(table.cube(v))[:-1])
    return {m: c for m, c in enumerate(running) if c}


def motivic_series(table, box):
    r"""
    The q-refined series: the coefficient of t^v is the polynomial
    [sum over subsets K of (-1)^|K| q^(h(v + e_K))] / (1 - q), that is
    q^h(v) times one of the local rank vector (see hilbert.local_field),
    which hv_polynomial reads at the vector's first point.
    """
    h, ids, _ = local_field(table, box)
    first = []  # the q-polynomial and h at the first point of each vector
    coeffs = {}
    for v, hv, i in zip(box_points(box), h, ids):
        if i == len(first):
            first.append((hv_polynomial(table, v), hv))
        poly, base = first[i]
        for m, c in poly.items():
            coeffs[(v, m + hv - base)] = c
    return BoxSeries(len(box), box, coeffs)


def _supported(series, wide, top, error, message):
    r"""
    The terms of series on [0, wide], as a series on [0, top]; the least
    outside [0, top] raises error, message formatted by its t exponent.
    """
    coeffs = {(v, m): c for (v, m), c in series.coeffs.items()
              if all(map(le, v, wide))}
    outside = [key for key in coeffs if not all(map(le, key[0], top))]
    if outside:
        raise error(message.format(min(outside)[0]))
    return BoxSeries(series.r, top, coeffs)


def motivic_normalized(table):
    r"""
    The q-refined series multiplied by the product of (1 - t_i q),
    which collapses it to a polynomial supported in the conductor box.

    The series is computed on [0, l + 1] (l the conductor) and
    multiplied one axis at a time: a term of the product there is
    pushed only from points of that box, so it is exact, and a term
    outside [0, l] raises PolynomialityViolation naming the least.
    The returned polynomial is supported in [0, l].
    """
    l = table.invariants.conductor
    r = len(l)
    g = motivic_series(table, tuple(c + 1 for c in l))
    for i in range(r):
        g = g.times_one_minus(tuple(int(j == i) for j in range(r)), 1)
    return _supported(g, g.box, l, PolynomialityViolation,
                      "normalized q series has a term at {0} outside the "
                      "conductor box")


def alexander(table, poincare):
    r"""
    The annihilating polynomial of the curve, read off poincare, the pi
    series of the given HilbertTable, over [0, l + 2] (l the conductor);
    a series box below l + 2, or in other than r variables, raises
    ValueError.

    For one branch this is the pi series times (1 - t): supported in
    [0, mu] (mu = l), palindromic, and it is checked to vanish for two
    steps beyond mu.  For several branches it is the pi series itself,
    a polynomial supported in [0, l - 1], checked two steps past l.
    A term outside raises SupportViolation naming the least.
    """
    inv = table.invariants
    if poincare.r != inv.r:
        raise ValueError("series in %d variables for %d branches"
                         % (poincare.r, inv.r))
    l = inv.conductor
    wide = tuple(c + 2 for c in l)
    if any(b < w for b, w in zip(poincare.box, wide)):
        raise ValueError("series box %s is below l + 2" % (poincare.box,))
    if inv.r == 1:
        return _supported(poincare.times_one_minus((1,)), wide, (inv.mu,),
                          SupportViolation,
                          "one-branch polynomial has a term at degree "
                          "{0[0]} past mu = %d" % inv.mu)
    return _supported(poincare, wide, tuple(c - 1 for c in l),
                      SupportViolation, "polynomial has a term at {0} "
                      "outside the open conductor box")


def torres_restriction_check(table, poincares):
    r"""
    Verify the restriction identity for every branch rho: the full pi
    series at t_rho = 1 equals the pi series of the curve without
    branch rho times 1 - t^s, s_j the intersection number of branches
    rho and j, on the whole box of the latter.  Both are read from
    poincares, the bitmask -> pi series dict of hilbert_from_poincare;
    the table gives the invariants.  The full series is a polynomial in
    [0, l - 1] (l the conductor), so a full box below l - 1, a missing
    mask, or a series in other than its bit count of variables, raises
    ValueError.

    Returns True, or raises ConsistencyError.
    """
    inv = table.invariants
    r = inv.r
    if r < 2:
        raise ValueError("restriction needs at least two branches")
    every = (1 << r) - 1
    for mask in sorted({every, *(every ^ 1 << i for i in range(r))}):
        _series_at(poincares, mask)
    full = poincares[every]
    if any(b < c - 1 for b, c in zip(full.box, inv.conductor)):
        raise ValueError("full series box %s is below l - 1" % (full.box,))
    for rho in range(r):
        sub = poincares[every ^ 1 << rho]
        collapsed = {}
        for (v, _m), c in full.coeffs.items():
            w = v[:rho] + v[rho + 1:]
            collapsed[w] = collapsed.get(w, 0) + c
        shift = inv.pairwise[rho][:rho] + inv.pairwise[rho][rho + 1:]
        product = sub.times_one_minus(shift)
        for w in box_points(sub.box):
            if collapsed.get(w, 0) != product.coefficient(w):
                raise ConsistencyError(
                    "restriction identity fails at %s: %d vs %d"
                    % (w, collapsed.get(w, 0), product.coefficient(w)))
    return True
