r"""
Exact scalar and linear algebra: truncated power series over the
rationals, a parser for polynomial input strings, the one integer
elimination kernel and the ranks built on it, and Smith normal form
over the integers: one loop on sparse rows diagonalizes, and a gcd-lcm
pass makes the diagonal a divisor chain.

All arithmetic is exact.  Rationals are ``fractions.Fraction`` and
appear only in series.  A matrix is a list of sparse rows of ints, dicts
mapping an index to its entry; the kernel's vectors hold nonzero ints,
with the pivot at the least index.
``echelon_insert`` extends a basis without changing it, and
``rank_sparse`` grows one basis in place.
"""

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm
from operator import index

from .errors import PolySyntaxError


class TruncSeries:
    r"""
    Power series in one variable kept modulo t^truncation.

    Coefficients are stored sparsely as a dict mapping exponent to a
    nonzero Rational; every stored exponent is below the truncation.
    """

    __slots__ = ("coeffs", "truncation")

    def __init__(self, coeffs, truncation):
        self.truncation = truncation
        self.coeffs = {}
        for e, c in coeffs.items():
            c = Fraction(c)
            if c != 0 and e < truncation:
                self.coeffs[e] = c

    def coefficient(self, e):
        r"""Coefficient of t^e, zero when absent."""
        return self.coeffs.get(e, Fraction(0))

    def order(self):
        r"""
        Smallest exponent with nonzero coefficient, or None when the
        series is zero modulo t^truncation.
        """
        return min(self.coeffs) if self.coeffs else None

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, TruncSeries)
                and self.truncation == other.truncation
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.truncation, tuple(sorted(self.coeffs.items()))))

    def __repr__(self):
        if not self.coeffs:
            body = "0"
        else:
            parts = []
            for e in sorted(self.coeffs):
                c = self.coeffs[e]
                if e == 0:
                    parts.append(str(c))
                elif e == 1:
                    parts.append("%s*t" % c)
                else:
                    parts.append("%s*t^%d" % (c, e))
            body = " + ".join(parts)
        return "TruncSeries(%s + O(t^%d))" % (body, self.truncation)


def series_mul(a, b):
    r"""Product, truncated to the smaller of the two truncations."""
    t = min(a.truncation, b.truncation)
    coeffs = {}
    for ea, ca in a.coeffs.items():
        for eb, cb in b.coeffs.items():
            e = ea + eb
            if e < t:
                coeffs[e] = coeffs.get(e, Fraction(0)) + ca * cb
    return TruncSeries(coeffs, t)


# ---------------------------------------------------------------------------
# polynomial parser
#
#   expr  := term (('+'|'-') term)*
#   term  := [coeff '*']? 't' ['^' nat]?  |  coeff
#   coeff := int | int '/' posint
#
# whitespace is ignored; error offsets point into the original string.


def parse_poly(text, truncation):
    r"""
    Parse a polynomial in t into a TruncSeries.

    Parameters
    ----------
    text : str
        Input such as "t^3", "1 + 2*t - 1/2*t^4", "-1*t^2", "0".
    truncation : int
        Exponent cutoff of the resulting series; terms at or beyond it
        are parsed but dropped.

    Returns
    -------
    TruncSeries

    Raises
    ------
    PolySyntaxError
        On any grammar violation, with the 0-based offset of the
        offending character.
    """
    n = len(text)
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def parse_digits(what):
        nonlocal pos
        skip_ws()
        start = pos
        while pos < n and text[pos].isdigit():
            pos += 1
        if pos == start:
            raise PolySyntaxError("expected %s" % what, start)
        return int(text[start:pos])

    def parse_int():
        nonlocal pos
        skip_ws()
        neg = False
        if pos < n and text[pos] == "-":
            neg = True
            pos += 1
        value = parse_digits("integer")
        return -value if neg else value

    def parse_coeff():
        nonlocal pos
        num = parse_int()
        skip_ws()
        if pos < n and text[pos] == "/":
            pos += 1
            skip_ws()
            den_start = pos
            den = parse_digits("denominator")
            if den == 0:
                raise PolySyntaxError("zero denominator", den_start)
            return Fraction(num, den)
        return Fraction(num)

    def parse_term():
        # returns (coefficient, exponent)
        nonlocal pos
        skip_ws()
        if pos < n and text[pos] == "t":
            pos += 1
            return Fraction(1), parse_exponent()
        coeff = parse_coeff()
        skip_ws()
        if pos < n and text[pos] == "*":
            pos += 1
            skip_ws()
            if pos >= n or text[pos] != "t":
                raise PolySyntaxError("expected 't' after '*'", pos)
            pos += 1
            return coeff, parse_exponent()
        return coeff, 0

    def parse_exponent():
        nonlocal pos
        skip_ws()
        if pos < n and text[pos] == "^":
            pos += 1
            return parse_digits("exponent")
        return 1

    coeffs = {}

    def add_term(c, e):
        if e < truncation:
            coeffs[e] = coeffs.get(e, Fraction(0)) + c

    skip_ws()
    if pos >= n:
        raise PolySyntaxError("empty polynomial", pos)
    c, e = parse_term()
    add_term(c, e)
    while True:
        skip_ws()
        if pos >= n:
            break
        op = text[pos]
        if op not in "+-":
            raise PolySyntaxError("expected '+' or '-'", pos)
        pos += 1
        c, e = parse_term()
        add_term(c if op == "+" else -c, e)
    return TruncSeries(coeffs, truncation)


# ---------------------------------------------------------------------------
# exact linear algebra


def _reduce(basis, w):
    # w reduced at its least index k by the basis vector b led there, as
    # (p/g) w - (f/g) b (f, p their entries at k, g = gcd(f, p)), until k
    # is at no pivot; returns k (None in the span) and w made primitive
    k = min(w) if w else None
    while k in basis:
        b = basis[k]
        g = gcd(w[k], b[k])
        f, p = w[k] // g, b[k] // g
        w = w.copy() if p == 1 else {j: p * x for j, x in w.items()}
        _add_multiple(w, b, -f)
        k = min(w) if w else None
    c = gcd(*w.values())
    return k, {j: x // c for j, x in w.items()} if c > 1 else w


def echelon_insert(basis, vector):
    r"""
    Insert a sparse integer vector into an echelon basis, a dict mapping
    each pivot k to a primitive sparse vector whose least index is k.
    The persistent use of the one reduction step: no argument changes,
    and the result is ``basis`` itself for a vector in its span, else a
    new dict with one more pivot, whose vector may be ``vector`` itself.
    """
    k, w = _reduce(basis, vector)
    return basis if k is None else {**basis, k: w}


def rank_sparse(rows):
    r"""
    Rank of sparse integer rows, by the one-shot use of the reduction
    step: one basis grows in place, and the rows are not changed.
    """
    basis = {}
    for row in rows:
        k, w = _reduce(basis, row)
        if k is not None:
            basis[k] = w
    return len(basis)


def rank_rational(rows):
    r"""
    Rank over the rationals of a matrix of sparse integer rows, which
    are not changed: ``rank_sparse`` of the checked rows.  A dense row
    (a list) or an entry that is not an int (a Fraction or a float)
    raises TypeError.
    """
    return rank_sparse(_int_rows(rows))


SNFResult = namedtuple("SNFResult", ["divisors", "rank"])


def smith_normal_form(rows):
    r"""
    Smith normal form of an integer matrix.

    The matrix is kept as sparse rows, dicts mapping a column to its
    nonzero entry.  The loop only diagonalizes.  Each pass takes an
    entry p of least absolute value as the pivot and reduces its column
    by row operations and its row by column operations, leaving
    remainders of absolute value below |p|.  When none is left, the
    pass splits off |p|; otherwise the least absolute value of the
    matrix has fallen, so the loop ends.  A unit pivot is split off in
    one pass.  One gcd-lcm pass over the non-unit diagonal entries then
    makes them a divisor chain.

    Parameters
    ----------
    rows : list of sparse rows of ints, which are not changed

    Returns
    -------
    SNFResult
        divisors is the full invariant factor chain (1s included), each
        positive and dividing the next; rank is its length.

    A dense row (a list) or an entry that is not an int (a Fraction or
    a float) raises TypeError.
    """
    live = _int_rows(rows)
    diagonal = []
    while live := [row for row in live if row]:
        p = None
        for row in live:
            for k, x in row.items():
                if p is None or abs(x) < abs(p):
                    pivot, j, p = row, k, x
            if abs(p) == 1:
                break
        for row in live:
            if row is not pivot and j in row:
                _add_multiple(row, pivot, -(row[j] // p))
        steps = {k: x // p for k, x in pivot.items() if k != j}
        for row in live:
            if j in row:
                _add_multiple(row, steps, -row[j])
        if len(pivot) == 1 and not any(j in row for row in live
                                       if row is not pivot):
            diagonal.append(abs(p))
            pivot.clear()
    # A split pivot had its row and column clear, so the matrix is
    # equivalent to diag(diagonal).  diag(a, b) is equivalent to
    # diag(g, ab/g), g = gcd(a, b) = ua + vb: [[u, v], [-b/g, a/g]]
    # diag(a, b) [[1, -vb/g], [1, ua/g]] is it, and both outer matrices
    # have determinant 1.  After its turn, rest[i] divides every later
    # entry, and later turns keep those multiples of it, so rest ends
    # as the chain, with any 1s first.
    rest = [d for d in diagonal if d > 1]
    for i in range(len(rest)):
        for k in range(i + 1, len(rest)):
            rest[i], rest[k] = gcd(rest[i], rest[k]), lcm(rest[i], rest[k])
    divisors = [1] * (len(diagonal) - len(rest)) + rest
    return SNFResult(divisors=divisors, rank=len(divisors))


def _int_rows(rows):
    # the caller's rows as fresh dicts of their nonzero entries, read
    # through operator.index; a dense row or a non-int entry raises
    checked = []
    for row in rows:
        if not hasattr(row, "items"):
            raise TypeError("rows must be sparse, dicts mapping an index to "
                            "its entry, not %s" % type(row).__name__)
        checked.append({j: y for j, x in row.items() if (y := index(x))})
    return checked


def _add_multiple(row, other, q):
    # row += q * other, on sparse rows, dropping entries that become 0
    for k, x in other.items():
        y = row.get(k, 0) + q * x
        if y:
            row[k] = y
        else:
            row.pop(k, None)
