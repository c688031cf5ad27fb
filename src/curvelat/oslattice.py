r"""
Matroids, the signed count of a rank function (the sum of (-1)^|K| by
rank, which the arrangement, projective, characteristic and q-polynomials
all read), the subset complex with its weighted boundary operators, and
the two homology theories built from them: the plain degree-zero part,
whose ranks match the coefficients of the arrangement polynomial, and
the U-extended complex, whose homology matches the projective
arrangement polynomial in negated degrees.  The U-extended complex
splits by weight into finite subset complexes, so its homology is
computed exactly, with no truncation of U.

All homology is computed over the integers; torsion is reported, never
discarded.
"""

from itertools import accumulate, combinations

from .errors import ConsistencyError
from .exactalg import rank_rational, smith_normal_form


class Matroid:
    r"""
    Rank function on the subsets of {0, .., n-1}, stored per bitmask.

    The constructor checks the rank axioms: empty set at zero, unit
    monotone growth, and submodularity.
    """

    def __init__(self, n, rank):
        self.n = n
        self.rank = dict(rank)
        if self.rank.get(0, None) != 0:
            raise ValueError("rank of the empty set must be 0")
        for mask in range(1 << n):
            if mask not in self.rank:
                raise ValueError("rank missing for subset %d" % mask)
        if len(self.rank) != 1 << n:
            raise ValueError("rank given for a subset outside %d elements"
                             % n)
        for mask in range(1 << n):
            for i in range(n):
                if mask >> i & 1:
                    continue
                grown = self.rank[mask | 1 << i] - self.rank[mask]
                if grown not in (0, 1):
                    raise ValueError("rank must grow by 0 or 1")
                for j in range(i + 1, n):
                    if mask >> j & 1:
                        continue
                    lhs = (self.rank[mask | 1 << i | 1 << j]
                           + self.rank[mask])
                    rhs = (self.rank[mask | 1 << i]
                           + self.rank[mask | 1 << j])
                    if lhs > rhs:
                        raise ValueError("rank is not submodular")

    @classmethod
    def boolean(cls, n):
        r"""Free matroid: every subset is independent."""
        return cls(n, {m: m.bit_count() for m in range(1 << n)})

    @classmethod
    def uniform(cls, n, r):
        r"""Uniform matroid: rank is cardinality capped at r."""
        return cls(n, {m: min(m.bit_count(), r) for m in range(1 << n)})

    @classmethod
    def generic_lines(cls, n):
        r"""n lines in general position through one point of a plane."""
        return cls.uniform(n, min(n, 2))

    def full_rank(self):
        return self.rank[(1 << self.n) - 1]

    def is_independent(self, mask):
        return self.rank[mask] == mask.bit_count()


class GradedGroup:
    r"""
    Finitely generated abelian group per integer degree: a rank and a
    tuple of torsion divisors larger than 1.
    """

    def __init__(self, groups):
        self.groups = {}
        for q, (rank, torsion) in groups.items():
            torsion = tuple(t for t in torsion if t > 1)
            if rank or torsion:
                self.groups[q] = (rank, torsion)

    def rank(self, q):
        return self.groups.get(q, (0, ()))[0]

    def torsion(self, q):
        return self.groups.get(q, (0, ()))[1]

    def degrees(self):
        return sorted(self.groups)

    def total_rank(self):
        return sum(rank for rank, _ in self.groups.values())

    def __eq__(self, other):
        return isinstance(other, GradedGroup) and self.groups == other.groups

    def __repr__(self):
        return "GradedGroup(%r)" % (self.groups,)


def _mask_elements(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _subsets_of_size(n, k):
    return [sum(1 << i for i in c) for c in combinations(range(n), k)]


class OSComplex:
    r"""
    The subset complex of a matroid: one generator per subset, graded
    by cardinality, with the boundary weighted by rank drops.

    Removing the i-th smallest element of K carries sign (-1)^(i-1)
    and U-weight rank(K) - rank(K minus that element); the weight-0
    part and the weight-1 part of the boundary are exposed separately.
    """

    def __init__(self, matroid):
        self.matroid = matroid
        self.n = matroid.n

    def basis(self, k):
        r"""Subsets of size k as bitmasks, ascending."""
        if k < 0 or k > self.n:
            return []
        return _subsets_of_size(self.n, k)

    def _boundary(self, k, keep):
        # keep(drop) selects terms by their rank drop (0 or 1)
        rows = self.basis(k - 1)
        cols = self.basis(k)
        index = {m: i for i, m in enumerate(rows)}
        mat = [[0] * len(cols) for _ in rows]
        for c, mask in enumerate(cols):
            elements = _mask_elements(mask)
            for pos, e in enumerate(elements):
                smaller = mask & ~(1 << e)
                drop = self.matroid.rank[mask] - self.matroid.rank[smaller]
                if keep(drop):
                    sign = 1 if pos % 2 == 0 else -1
                    mat[index[smaller]][c] += sign
        return mat

    def boundary_full(self, k):
        r"""Unweighted boundary from size k to size k-1."""
        return self._boundary(k, lambda drop: True)

    def boundary_d0(self, k):
        r"""Rank-preserving part of the weighted boundary."""
        return self._boundary(k, lambda drop: drop == 0)

    def boundary_d1(self, k):
        r"""Rank-dropping part of the weighted boundary."""
        return self._boundary(k, lambda drop: drop == 1)


def homology_from_boundaries(dims, boundaries):
    r"""
    Integer homology of a chain complex.

    Parameters
    ----------
    dims : dict mapping degree q to the dimension of the chain group
    boundaries : dict mapping degree q to the matrix of the boundary
        from degree q into degree q-1 (rows indexed by degree q-1)

    Returns
    -------
    GradedGroup
    """
    ranks = {}
    torsions = {}
    for q, mat in boundaries.items():
        snf = smith_normal_form(mat)
        ranks[q] = snf.rank
        torsions[q] = tuple(d for d in snf.divisors if d > 1)
    groups = {}
    for q, dim in dims.items():
        free = dim - ranks.get(q, 0) - ranks.get(q + 1, 0)
        tor = torsions.get(q + 1, ())
        if free < 0:
            raise ConsistencyError("negative free rank in homology")
        groups[q] = (free, tor)
    return GradedGroup(groups)


def signed_rank_count(ranks):
    r"""
    Entry k is the sum of (-1)^|K| over the bitmasks K with ranks[K] = k,
    for k up to the top rank; ranks is indexed by bitmask, like
    Matroid.rank or table.cube(v).  The entries sum to 0 when there is
    an element, so their running sums below the top rank are the exact
    quotient by 1 - x of the sum of (-1)^|K| x^ranks[K].
    """
    masks = range(len(ranks))
    counts = [0] * (max(ranks[mask] for mask in masks) + 1)
    for mask in masks:
        counts[ranks[mask]] += -1 if mask.bit_count() % 2 else 1
    return counts


def arrangement_poincare(matroid):
    r"""
    Topological polynomial of the arrangement: sum over subsets K of
    (-1)^|K| (-t)^rank(K), as a tuple of coefficients by degree.
    """
    return tuple(-c if k % 2 else c
                 for k, c in enumerate(signed_rank_count(matroid.rank)))


def projective_poincare(matroid):
    r"""
    The arrangement polynomial divided by 1 + t: the coefficient of t^w
    is (-1)^w times the signed count of the ranks up to w.  The division
    is exact unless the matroid has no elements, which raises
    ConsistencyError.
    """
    if matroid.n == 0:
        raise ConsistencyError("arrangement polynomial not divisible "
                               "by 1 + t")
    running = accumulate(signed_rank_count(matroid.rank)[:-1])
    return tuple(-c if w % 2 else c for w, c in enumerate(running))


def os_homology(matroid):
    r"""
    Integer homology of the subset complex under the rank-preserving
    boundary, graded by subset size.

    The ranks agree with the coefficients of the arrangement
    polynomial; torsion, if any appeared, would be reported.
    """
    cx = OSComplex(matroid)
    dims = {k: len(cx.basis(k)) for k in range(matroid.n + 1)}
    boundaries = {k: cx.boundary_d0(k) for k in range(matroid.n + 2)}
    return homology_from_boundaries(dims, boundaries)


def du_homology(matroid):
    r"""
    Integer homology of the U-extended complex, graded by
    |K| - 2(m + rank K) for the basis element U^m z_K.

    The boundary sends U^m z_K to a signed sum of
    U^(m + rank K - rank(K - e)) z_(K - e), so it keeps the weight
    w = m + rank K.  The complex splits by weight: the piece of weight
    w is the augmented simplicial complex of the subsets K with
    rank K <= w, under the plain subset boundary, in degree |K| - 2w.
    From w = full rank on that piece is the whole augmented simplex,
    which is acyclic when the matroid has an element.  The generators
    (K, w) with rank K <= w < full rank therefore carry all of the
    homology, which comes out exactly, with no truncation of U.

    Raises ValueError on a matroid with no elements, whose homology is
    the infinite tower Z[U].

    Returns
    -------
    GradedGroup
    """
    if matroid.n == 0:
        raise ValueError("U-extended homology needs at least one element")
    by_degree = {}
    for w in range(matroid.full_rank()):
        for mask in range(1 << matroid.n):
            if matroid.rank[mask] <= w:
                q = mask.bit_count() - 2 * w
                by_degree.setdefault(q, []).append((w, mask))
    boundaries = {}
    for q, cols in by_degree.items():
        index = {key: i for i, key in enumerate(by_degree.get(q - 1, []))}
        mat = [[0] * len(cols) for _ in index]
        for c, (w, mask) in enumerate(cols):
            for pos, e in enumerate(_mask_elements(mask)):
                mat[index[w, mask & ~(1 << e)]][c] += (-1) ** pos
        boundaries[q] = mat
    dims = {q: len(cols) for q, cols in by_degree.items()}
    return homology_from_boundaries(dims, boundaries)


def d0_structure_checks(matroid):
    r"""
    Verify, degree by degree over the rationals, the structural facts
    that make the rank-preserving boundary compute arrangement
    homology:

    - the rank-preserving boundary kills independent-set generators;
    - the rank-dropping boundary maps dependent-set spans into
      dependent-set spans;
    - the kernel of the rank-preserving boundary is spanned by
      independent generators together with its image;
    - that image splits into its intersections with the dependent and
      independent spans;
    - the quotient dimensions match the arrangement polynomial.

    Returns True, or raises ConsistencyError.  Guarded to n <= 8.
    """
    n = matroid.n
    if n > 8:
        raise ValueError("structure checks are limited to 8 elements")
    cx = OSComplex(matroid)
    poincare = arrangement_poincare(matroid)
    for k in range(n + 1):
        basis = cx.basis(k)
        dim = len(basis)
        dep_rows = [i for i, m in enumerate(basis)
                    if not matroid.is_independent(m)]
        indep_rows = [i for i, m in enumerate(basis)
                      if matroid.is_independent(m)]

        def unit(i):
            row = [0] * dim
            row[i] = 1
            return row

        d0 = cx.boundary_d0(k + 1)
        dfull = cx.boundary_full(k + 1)
        cols_above = len(cx.basis(k + 1))
        image_d0 = [[d0[i][c] for i in range(dim)]
                    for c in range(cols_above)]

        # rank-preserving boundary vanishes on independent generators
        out = cx.boundary_d0(k)
        for i, mask in enumerate(basis):
            if matroid.is_independent(mask):
                if any(row[i] for row in out):
                    raise ConsistencyError(
                        "weight-0 boundary does not kill an "
                        "independent generator")

        # rank-dropping boundary keeps dependent spans dependent
        below = cx.basis(k - 1) if k else []
        out1 = cx.boundary_d1(k)
        for i, mask in enumerate(basis):
            if not matroid.is_independent(mask):
                for rpos, rmask in enumerate(below):
                    if out1[rpos][i] and matroid.is_independent(rmask):
                        raise ConsistencyError(
                            "weight-1 boundary leaks a dependent "
                            "generator into the independent span")

        # kernel of d0 equals independent span plus image of d0
        kernel_dim = dim - rank_rational(out)
        indep_vectors = [unit(i) for i in indep_rows]
        joint = indep_vectors + image_d0
        if rank_rational(joint) != kernel_dim:
            raise ConsistencyError(
                "kernel of the weight-0 boundary is not independent "
                "span plus image in degree %d" % k)

        # image splits across the dependent and independent spans
        dim_image = rank_rational(image_d0)
        dep_vectors = [unit(i) for i in dep_rows]
        inter_dep = (dim_image + len(dep_rows)
                     - rank_rational(image_d0 + dep_vectors))
        inter_indep = (dim_image + len(indep_rows)
                       - rank_rational(image_d0 + indep_vectors))
        if inter_dep + inter_indep != dim_image:
            raise ConsistencyError(
                "image of the weight-0 boundary does not split in "
                "degree %d" % k)

        # quotient by dependent span plus full boundary of it matches
        # the arrangement polynomial coefficient
        dep_above = [c for c, m in enumerate(cx.basis(k + 1))
                     if not matroid.is_independent(m)]
        ideal = list(dep_vectors)
        for c in dep_above:
            ideal.append([dfull[i][c] for i in range(dim)])
        expected = poincare[k] if k < len(poincare) else 0
        if dim - rank_rational(ideal) != expected:
            raise ConsistencyError(
                "ideal quotient dimension disagrees with the "
                "arrangement polynomial in degree %d" % k)
    return True
