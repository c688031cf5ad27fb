r"""
Exact scalar and linear algebra: truncated power series over the
rationals, a parser that reads a polynomial string one term at a time
with one regular expression, the one integer elimination kernel and the
ranks built on it, and Smith normal form over the integers: one loop on
sparse rows diagonalizes, and a gcd-lcm pass makes the diagonal a
divisor chain.

All arithmetic is exact.  Rationals appear only in series, where a
coefficient is an ``int`` when it is integral and a
``fractions.Fraction`` only otherwise, so a curve with integral
coefficients computes in ints and never imports ``fractions``.  A
matrix is a list of sparse rows of ints, dicts mapping an index to its
entry.  The kernel is one elimination step, ``echelon_extend``, which
grows a basis in place; every rank is one or more calls of it, and a
caller that must keep a basis as it was extends a shallow copy.
"""

import re
from collections import namedtuple
from math import gcd, lcm
from operator import index

from .errors import PolySyntaxError


class TruncSeries:
    r"""
    Power series in one variable kept modulo t^truncation.

    Coefficients are stored sparsely as a dict mapping exponent to a
    nonzero rational, an int when it is integral and a Fraction
    otherwise; every stored exponent is below the truncation.  A
    coefficient that is neither an int nor a rational with a numerator
    and a denominator (a float, say) raises TypeError.
    """

    __slots__ = ("coeffs", "truncation")

    def __init__(self, coeffs, truncation):
        self.truncation = truncation
        self.coeffs = {}
        for e, c in coeffs.items():
            if type(c) is not int:
                if not hasattr(c, "denominator"):
                    raise TypeError("a coefficient must be an int or a "
                                    "rational, not %s" % type(c).__name__)
                c = _rational(c.numerator, c.denominator)
            if c != 0 and e < truncation:
                self.coeffs[e] = c

    def coefficient(self, e):
        r"""Coefficient of t^e, zero when absent."""
        return self.coeffs.get(e, 0)

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
                coeffs[e] = coeffs.get(e, 0) + ca * cb
    return TruncSeries(coeffs, t)


def _rational(num, den):
    # num/den as an int when it is integral, else as a Fraction.  The
    # import is here, on the first rational that is not an int, because
    # fractions loads decimal: a curve with integral coefficients never
    # pays for either
    from fractions import Fraction

    c = Fraction(num, den)
    return c.numerator if c.denominator == 1 else c


# one term and the operator after it; the groups are the bare t, the
# coefficient's sign, numerator and denominator, the t after '*', the
# exponent and the operator.  The whitespace after the sign sits inside
# the sign's optional group: were two whitespace runs to meet with only
# optional parts between them, a failed match would backtrack in time
# quadratic in the run.
_TERM = re.compile(r"""\s*(?: (t) | (?:(-)\s*)? (\d+)
                              (?:\s*/\s*(\d*))? (?:\s*\*\s*(t?))? )
                       (?:(?<=t)\s*\^\s*(\d*))? \s*([+-]?)""", re.VERBOSE)


def parse_poly(text, truncation):
    r"""
    Parse a polynomial in t into a TruncSeries.

    The grammar, with whitespace (``str.isspace``) allowed between any
    two tokens and digits the decimal digits (``str.isdecimal``)::

        expr  := term (('+' | '-') term)*
        term  := 't' ['^' nat]  |  coeff ['*' 't' ['^' nat]]
        coeff := ['-'] nat ['/' nat]

    A denominator must be nonzero, and ``-t`` is written ``-1*t``.  Each
    term is one match of ``_TERM``; an error names the first required
    part of the term that is missing, at the offset where it should be.

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
        offending character, or on a numeral read with more digits than
        ``int`` accepts, at the numeral's offset.
    """
    if not text.strip():
        raise PolySyntaxError("empty polynomial", len(text))
    coeffs = {}
    pos, sign = 0, 1
    while True:
        m = _TERM.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip().removeprefix("-").lstrip()
            raise PolySyntaxError("expected integer", len(text) - len(rest))
        t, minus, num, den, star_t, exp, op = m.groups()
        if den == "":
            raise PolySyntaxError("expected denominator", m.start(4))
        if den and _int(m, 4) == 0:
            raise PolySyntaxError("zero denominator", m.start(4))
        if star_t == "":
            raise PolySyntaxError("expected 't' after '*'", m.start(5))
        if exp == "":
            raise PolySyntaxError("expected exponent", m.start(6))
        e = _int(m, 6) if exp else 1 if t or star_t else 0
        if e < truncation:
            c = _int(m, 3) if num else 1
            if den:
                c = _rational(c, _int(m, 4))
            coeffs[e] = coeffs.get(e, 0) + (-c if minus else c) * sign
        if not op:
            if m.end() == len(text):
                return TruncSeries(coeffs, truncation)
            raise PolySyntaxError("expected '+' or '-'", m.end())
        pos, sign = m.end(), -1 if op == "-" else 1


def _int(m, group):
    # int() refuses a numeral longer than sys.get_int_max_str_digits()
    try:
        return int(m.group(group))
    except ValueError:
        raise PolySyntaxError("integer too long", m.start(group)) from None


# ---------------------------------------------------------------------------
# exact linear algebra


def echelon_extend(basis, rows):
    r"""
    Grow an echelon basis in place by sparse integer rows, which are not
    changed, and return its rank: the one elimination step.  The basis
    maps each pivot k to a primitive sparse vector with no zero entry
    whose least index is k.  A row is reduced at its least index k
    against the vector b led there, as (p/g) w - (f/g) b (f, p their
    entries at k, g = gcd(f, p)), until k is at no pivot; it is then
    stored there divided by the gcd of its entries (the row itself when
    that is 1), or it has become zero.  A vector once stored is never
    changed, only the dict that holds it, so a shallow copy of a basis
    grows apart from it.
    """
    for w in rows:
        k = min(w) if w else None
        while k in basis:
            b = basis[k]
            g = gcd(w[k], b[k])
            f, p = w[k] // g, b[k] // g
            w = w.copy() if p == 1 else {j: p * x for j, x in w.items()}
            _add_multiple(w, b, -f)
            k = min(w) if w else None
        if k is not None:
            c = gcd(*w.values())
            basis[k] = {j: x // c for j, x in w.items()} if c > 1 else w
    return len(basis)


def rank_rational(rows):
    r"""
    Rank over the rationals of a matrix of sparse integer rows, which
    are not changed: ``echelon_extend`` of the checked rows on an empty
    basis.  A dense row (a list) or an entry that is not an int (a
    Fraction or a float) raises TypeError.
    """
    return echelon_extend({}, _int_rows(rows))


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
