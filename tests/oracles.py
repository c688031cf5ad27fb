r"""
Independent oracles used by the test suite.

Everything in this file is deliberately written from scratch, with no
imports from the package under test, so that each oracle gives a second,
independent route to a value the package computes.  The implementations
favor obviousness over speed: plain Gaussian elimination, gcd-of-minors,
brute-force semigroup enumeration, and a from-first-principles cubical
homology for tiny complexes.
"""

import itertools
from fractions import Fraction
from math import gcd


# ---------------------------------------------------------------------------
# linear algebra oracles


def gauss_rank(rows):
    r"""
    Rank of a matrix over the rationals by textbook Gaussian elimination.

    Parameters
    ----------
    rows : list of lists of ints or Fractions

    Returns
    -------
    int
    """
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, nrows):
            if m[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        for i in range(rank + 1, nrows):
            if m[i][col] != 0:
                f = m[i][col] / pv
                for j in range(col, ncols):
                    m[i][j] -= f * m[rank][j]
        rank += 1
        if rank == nrows:
            break
    return rank


def _minor_det(rows, rsel, csel):
    # cofactor expansion, fine for the tiny minors used here
    k = len(rsel)
    if k == 0:
        return 1
    if k == 1:
        return rows[rsel[0]][csel[0]]
    det = 0
    for j in range(k):
        sub = _minor_det(rows, rsel[1:], csel[:j] + csel[j + 1:])
        term = rows[rsel[0]][csel[j]] * sub
        det += term if j % 2 == 0 else -term
    return det


def snf_divisors_by_minors(rows):
    r"""
    Invariant factors of an integer matrix via gcds of k x k minors.

    d_k = gcd of all k x k minors; the k-th invariant factor is
    d_k / d_{k-1}.  Exponential in the matrix size, so keep inputs small
    (at most 6 x 6 in the tests).

    Returns
    -------
    list of positive ints, the divisor chain
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    divisors = []
    prev = 1
    for k in range(1, min(nrows, ncols) + 1):
        g = 0
        for rsel in itertools.combinations(range(nrows), k):
            for csel in itertools.combinations(range(ncols), k):
                g = gcd(g, abs(_minor_det(rows, rsel, csel)))
        if g == 0:
            break
        divisors.append(g // prev)
        prev = g
    return divisors


def snf_divisors_dense(rows):
    r"""
    Invariant factors of an integer matrix by the dense loop: at each
    step the entry of least absolute value in the whole remaining block
    becomes the pivot, its row and column are reduced until clean, and
    a row is added to the pivot row when the pivot does not divide the
    rest of the block.

    The entries of the block can grow without bound when no unit entry
    is left (a 7 x 6 matrix with entries in {0, 2, 3, 4, -6} did not
    finish in two minutes), so this serves only as an oracle on 0/+-1
    matrices, such as the boundaries of cube and U-complexes, where it
    stays fast.

    Returns
    -------
    list of positive ints, the divisor chain
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    divisors = []
    top = 0
    while True:
        pivot = None
        best = None
        for i in range(top, nrows):
            for j in range(top, ncols):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < best):
                    best = abs(m[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        m[top], m[pi] = m[pi], m[top]
        for row in m:
            row[top], row[pj] = row[pj], row[top]
        done = False
        while not done:
            done = True
            for i in range(top + 1, nrows):
                if m[i][top] != 0:
                    q = m[i][top] // m[top][top]
                    for j in range(ncols):
                        m[i][j] -= q * m[top][j]
                    if m[i][top] != 0:
                        m[top], m[i] = m[i], m[top]
                        done = False
            for j in range(top + 1, ncols):
                if m[top][j] != 0:
                    q = m[top][j] // m[top][top]
                    for i in range(nrows):
                        m[i][j] -= q * m[i][top]
                    if m[top][j] != 0:
                        for row in m:
                            row[top], row[j] = row[j], row[top]
                        done = False
        # restore divisibility if some remaining entry is not a multiple
        fixed = False
        for i in range(top + 1, nrows):
            for j in range(top + 1, ncols):
                if m[i][j] % m[top][top] != 0:
                    for jj in range(ncols):
                        m[top][jj] += m[i][jj]
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        divisors.append(abs(m[top][top]))
        top += 1
    return divisors


# ---------------------------------------------------------------------------
# numerical semigroup oracles (single branch)


def numerical_semigroup(gens, bound):
    r"""
    Membership set of the numerical semigroup generated by gens, up to and
    including bound, by brute-force closure.
    """
    member = {0}
    changed = True
    while changed:
        changed = False
        for s in sorted(member):
            for g in gens:
                t = s + g
                if t <= bound and t not in member:
                    member.add(t)
                    changed = True
    return member


def gap_count(semigroup_members, conductor):
    r"""Number of gaps of a numerical semigroup with the given conductor."""
    return sum(1 for n in range(conductor) if n not in semigroup_members)


def h_count_r1(semigroup_members, n):
    r"""
    One-branch Hilbert value as a semigroup count: number of members
    strictly below n.  Valid whenever the membership set covers [0, n).
    """
    return sum(1 for s in semigroup_members if s < n)


def alexander_r1_from_semigroup(semigroup_members, conductor):
    r"""
    One-variable Alexander polynomial from semigroup membership:
    (1 - t) * sum_{s in S, s < c} t^s + t^c, returned as a coefficient
    list indexed by exponent.
    """
    coeffs = [0] * (conductor + 1)
    for s in sorted(m for m in semigroup_members if m < conductor):
        coeffs[s] += 1
        if s + 1 <= conductor:
            coeffs[s + 1] -= 1
    coeffs[conductor] += 1
    return coeffs


def step_rule_mismatches(table, bound):
    r"""
    Every (v, i) with v in [0, bound] whose step disagrees with a direct
    witness search: the direction-i step of the table at v should be 1
    exactly when some semigroup point u has u_i = v_i and
    v_j <= u_j <= max(l_j, v_j) for every j != i (l the conductor).
    Each witness box is searched point by point as a product of
    ranges.  Only table.cube and the conductor are read: the steps at v
    are its singleton entries minus h(v), and v is a member when every
    step is 1.
    """
    l = table.invariants.conductor
    r = len(l)

    def steps(v):
        h, *ahead = table.cube(v)
        return [ahead[(1 << i) - 1] - h for i in range(r)]

    found = set()
    for v in itertools.product(*(range(b + 1) for b in bound)):
        here = steps(v)
        for i in range(r):
            ranges = [range(v[i], v[i] + 1) if j == i
                      else range(v[j], max(l[j], v[j]) + 1)
                      for j in range(r)]
            witness = any(all(s == 1 for s in steps(u))
                          for u in itertools.product(*ranges))
            if here[i] != (1 if witness else 0):
                found.add((v, i))
    return found


# ---------------------------------------------------------------------------
# closed-form Hilbert values for the reference curves


def h_a_odd(n, v1, v2):
    r"""
    Hilbert value of the two-branch curve y^2 = x^(2n) at (v1, v2):
    max(v1, v2) when min(v1, v2) < n, else v1 + v2 - n.
    """
    v1, v2 = max(v1, 0), max(v2, 0)
    if min(v1, v2) < n:
        return max(v1, v2)
    return v1 + v2 - n


def h_d5(v1, v2):
    r"""
    Hilbert value of the curve y*(x^2 - y^3) = 0 with branches (t, 0) and
    (t^3, t^2), by its known piecewise formula.
    """
    v1, v2 = max(v1, 0), max(v2, 0)
    if v1 == 0:
        if v2 == 0:
            return 0
        if v2 <= 2:
            return 1
        return v2 - 1
    if v2 < 3:
        return v1
    if v2 == 3:
        return v1 + 1
    if v1 < 2:
        return v2 - 1
    return v1 + v2 - 3


# reference grids: A3 over [0,(4,4)] and D5 over [0,(5,5)].
# REFERENCE_A3[v2][v1] = h(v1, v2); bold points are the semigroup members.

REFERENCE_A3 = [
    [0, 1, 2, 3, 4],
    [1, 1, 2, 3, 4],
    [2, 2, 2, 3, 4],
    [3, 3, 3, 4, 5],
    [4, 4, 4, 5, 6],
]

REFERENCE_A3_SEMIGROUP = {
    (0, 0), (1, 1),
    (2, 2), (3, 2), (4, 2),
    (2, 3), (3, 3), (4, 3),
    (2, 4), (3, 4), (4, 4),
}

REFERENCE_D5 = [
    [0, 1, 2, 3, 4, 5],
    [1, 1, 2, 3, 4, 5],
    [1, 1, 2, 3, 4, 5],
    [2, 2, 3, 4, 5, 6],
    [3, 3, 3, 4, 5, 6],
    [4, 4, 4, 5, 6, 7],
]

REFERENCE_D5_SEMIGROUP = {
    (0, 0),
    (1, 2), (2, 2), (3, 2), (4, 2), (5, 2),
    (1, 3),
    (2, 4), (3, 4), (4, 4), (5, 4),
    (2, 5), (3, 5), (4, 5), (5, 5),
}


# ---------------------------------------------------------------------------
# brute-force cubical homology for tiny complexes


def _snf_rank_and_torsion(rows):
    divisors = snf_divisors_dense(rows)
    return len(divisors), [d for d in divisors if d > 1]


def cubical_homology_brute(cubes, h_values, weight_cap):
    r"""
    Integer homology of the union of lattice cubes (v, K) whose weight
    h(v + e_K) is at most the cap, written directly from the definition of
    the cubical chain complex.

    Parameters
    ----------
    cubes : iterable of (v, K) with v a tuple and K a sorted tuple of
        0-based direction indices
    h_values : mapping from lattice tuple to int, must cover every vertex
        v + e_K needed
    weight_cap : int

    Returns
    -------
    dict mapping dimension q to (rank, torsion list)
    """
    def corner(v, K):
        w = list(v)
        for i in K:
            w[i] += 1
        return tuple(w)

    kept = [(tuple(v), tuple(K)) for v, K in cubes
            if h_values[corner(v, K)] <= weight_cap]
    by_dim = {}
    for c in kept:
        by_dim.setdefault(len(c[1]), []).append(c)
    for q in by_dim:
        by_dim[q].sort()
    maxq = max(by_dim) if by_dim else -1

    def boundary_matrix(q):
        # rows: (q-1)-cubes, cols: q-cubes
        lower = {c: i for i, c in enumerate(by_dim.get(q - 1, []))}
        upper = by_dim.get(q, [])
        rows = [[0] * len(upper) for _ in lower]
        for col, (v, K) in enumerate(upper):
            for pos, axis in enumerate(K):
                rest = tuple(a for a in K if a != axis)
                sign = 1 if pos % 2 == 0 else -1
                far = (corner(v, (axis,)), rest)
                near = (v, rest)
                if far in lower:
                    rows[lower[far]][col] += sign
                if near in lower:
                    rows[lower[near]][col] -= sign
        return rows

    result = {}
    ranks = {}
    for q in range(maxq + 2):
        mat = boundary_matrix(q)
        if not mat or not mat[0]:
            ranks[q] = 0
        else:
            ranks[q], _ = _snf_rank_and_torsion(mat)
    for q in range(maxq + 1):
        dim_q = len(by_dim.get(q, []))
        free = dim_q - ranks.get(q, 0) - ranks.get(q + 1, 0)
        mat = boundary_matrix(q + 1)
        torsion = []
        if mat and mat[0]:
            _, torsion = _snf_rank_and_torsion(mat)
        if free or torsion:
            result[q] = (free, torsion)
    return result


# ---------------------------------------------------------------------------
# U-extended matroid homology by the literal U-truncated complex


def du_homology_truncated(n, rank):
    r"""
    Homology of the U-extended complex of a matroid, truncated in U.

    The basis is U^m z_K for every subset K of {0, .., n-1} (a bitmask)
    and every m < 2n + 6, in degree |K| - 2(m + rank K).  The boundary
    sends U^m z_K to the sum over the i-th smallest element e of K of
    (-1)^i U^(m + rank K - rank(K - e)) z_(K - e); a term whose U power
    reaches 2n + 6 is dropped.  Only degrees -(2n + 4) and above are
    reported, since the truncation shows below them.

    Parameters
    ----------
    n : int, the number of elements
    rank : mapping from bitmask to int

    Returns
    -------
    dict mapping degree q to (rank, torsion list)
    """
    cap = 2 * n + 6
    by_degree = {}
    for mask in range(1 << n):
        size = bin(mask).count("1")
        for m in range(cap):
            q = size - 2 * (m + rank[mask])
            by_degree.setdefault(q, []).append((mask, m))

    def boundary_matrix(q):
        # rows: generators of degree q-1, cols: generators of degree q
        lower = {g: i for i, g in enumerate(by_degree.get(q - 1, []))}
        upper = by_degree[q]
        rows = [[0] * len(upper) for _ in lower]
        for col, (mask, m) in enumerate(upper):
            elements = [e for e in range(n) if mask >> e & 1]
            for pos, e in enumerate(elements):
                smaller = mask & ~(1 << e)
                power = m + rank[mask] - rank[smaller]
                if power < cap:
                    sign = 1 if pos % 2 == 0 else -1
                    rows[lower[(smaller, power)]][col] += sign
        return rows

    snf = {}
    for q in by_degree:
        mat = boundary_matrix(q)
        snf[q] = _snf_rank_and_torsion(mat) if mat else (0, [])
    result = {}
    for q, gens in by_degree.items():
        if q < -(2 * n + 4):
            continue
        out_rank = snf[q][0]
        in_rank, torsion = snf.get(q + 1, (0, []))
        free = len(gens) - out_rank - in_rank
        if free or torsion:
            result[q] = (free, torsion)
    return result


# ---------------------------------------------------------------------------
# signed rank counts by the sign flips and divisions they replaced


def arrangement_poincare_by_signs(n, rank):
    r"""
    Sum over subsets K of (-1)^|K| (-t)^rank(K), as a tuple of
    coefficients by degree up to rank of the full set.

    rank : mapping from bitmask to int, monotone in the subset
    """
    coeffs = [0] * (rank[(1 << n) - 1] + 1)
    for mask in range(1 << n):
        size = bin(mask).count("1")
        coeffs[rank[mask]] += (-1) ** size * (-1) ** rank[mask]
    return tuple(coeffs)


def projective_poincare_by_division(n, rank):
    r"""
    The arrangement polynomial divided by 1 + t by long division;
    a nonzero remainder raises ValueError.
    """
    quotient = []
    carry = 0
    for c in arrangement_poincare_by_signs(n, rank):
        quotient.append(c - carry)
        carry = quotient[-1]
    if quotient[-1] != 0:
        raise ValueError("not divisible by 1 + t")
    return tuple(quotient[:-1])


def char_poly_by_signs(n, rank):
    r"""
    Sum over subsets K of (-1)^|K| t^(rank(full) - rank(K)), as a tuple
    of coefficients by exponent, read off the arrangement polynomial.
    """
    poincare = arrangement_poincare_by_signs(n, rank)
    return tuple((-1) ** k * c for k, c in enumerate(poincare))[::-1]


def q_polynomial_by_division(cube):
    r"""
    The sum over bitmasks K of (-1)^|K| q^cube[K], divided by 1 - q by
    long division, as a dict of nonzero coefficients; a nonzero
    remainder raises ValueError.
    """
    num = {}
    for mask, e in enumerate(cube):
        num[e] = num.get(e, 0) + (-1) ** bin(mask).count("1")
    out = {}
    acc = 0
    top = max(num)
    for m in range(top + 1):
        acc += num.get(m, 0)
        if m < top:
            if acc != 0:
                out[m] = acc
        elif acc != 0:
            raise ValueError("not divisible by 1 - q")
    return out


def times_prod_one_minus_tq_by_subsets(coeffs, box):
    r"""
    The q-series coeffs, a dict {(v, m): c}, times the product over
    every axis i of (1 - t_i q), expanded term by term over the 2^r
    subsets K: c goes to (v + e_K, m + |K|) with sign (-1)^|K|, kept
    when v + e_K lies in [0, box].  Zero coefficients are dropped.
    """
    out = {}
    for (v, m), c in coeffs.items():
        for mask in range(1 << len(v)):
            size = bin(mask).count("1")
            w = tuple(a + (mask >> i & 1) for i, a in enumerate(v))
            if all(a <= b for a, b in zip(w, box)):
                key = (w, m + size)
                out[key] = out.get(key, 0) + (-1) ** size * c
    return {key: c for key, c in out.items() if c}


# ---------------------------------------------------------------------------
# series oracles


def hilbert_from_poincare_by_subsets(poincares, box):
    r"""
    h on [0, box] from the pi series of every nonempty branch subset K,
    a dict from bitmask to an object with ``box`` and ``coefficient(w)``:
    h(v) is the sum over K of (-1)^(|K|-1) times the K-series summed over
    [0, v_K - 1].  Each K keeps a dict of running sums built one axis at
    a time by tuple slicing, and every point sums one read per subset.
    A missing bitmask or a series box below box_K - 1 raises ValueError.
    """
    r = len(box)
    sums = []  # (branches of K, signed running sums of its series)
    for mask in range(1, 1 << r):
        if mask not in poincares:
            raise ValueError("no pi series for bitmask %d" % mask)
        idx = [i for i in range(r) if mask >> i & 1]
        upper = tuple(box[i] - 1 for i in idx)
        p = poincares[mask]
        if any(b < u for b, u in zip(p.box, upper)):
            raise ValueError("subcurve series box is too small")
        sign = 1 if len(idx) % 2 else -1
        points = list(itertools.product(*(range(u + 1) for u in upper)))
        acc = {w: sign * p.coefficient(w) for w in points}
        for axis in range(len(upper)):
            for w in points:
                if w[axis]:
                    acc[w] += acc[w[:axis] + (w[axis] - 1,) + w[axis + 1:]]
        sums.append((idx, acc))
    # a point with some v_i = 0, i in K, reads no K term
    return {v: sum(acc.get(tuple(v[i] - 1 for i in idx), 0)
                   for idx, acc in sums)
            for v in itertools.product(*(range(b + 1) for b in box))}
