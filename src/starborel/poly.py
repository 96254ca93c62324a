"""Exact multivariate polynomial calculus over the rationals: gcd over the
fraction field of the non-distinguished variables, content/primitive splits,
square-free ("simple") decomposition in one variable, Sylvester resultants
and discriminants.

The gcd is one chain: ``rational_content`` (the positive gcd of all
coefficients), ``_content_in`` (the gcd of the coefficients in one variable)
and ``_prs`` (the primitive remainder sequence in that variable), which
``mp_gcd``, ``content_primitive``, ``gcd_over_fraction_field`` and ``is_simple`` share.

Polynomials share their ring code with the windowed series in
:mod:`starborel.series` but have no window: arithmetic never drops terms.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd as int_gcd, lcm as int_lcm
from operator import add, neg, sub

from .errors import DegenerateError, NotSimpleError, VariableMismatchError
from .series import SparseTerms, VariableSet


class MultiPoly(SparseTerms):
    """Sparse exact multivariate polynomial ``MultiPoly(vars, terms)``: the
    unwindowed sibling of :class:`starborel.series.FormalSeries`."""

    __slots__ = ()

    def __init__(self, vars: VariableSet, terms=None):
        super().__init__(vars, None, terms)


class UniOverPoly:
    """A nonzero polynomial read as univariate in one distinguished variable:
    a view of one MultiPoly whose coefficients b_0..b_M in that variable
    (b_M nonzero) are read from it on demand."""

    __slots__ = ("var", "poly")

    def __init__(self, var: str, poly: MultiPoly):
        if poly.is_zero:
            raise DegenerateError("zero polynomial has no UniOverPoly form")
        poly.vars.index(var)  # raises UnknownVariableError
        self.var = var
        self.poly = poly

    @classmethod
    def from_multipoly(cls, P: MultiPoly, var: str) -> "UniOverPoly":
        return cls(var, P)

    @property
    def coeffs(self) -> list:
        return self.poly.univariate_coeffs(self.var)

    @property
    def degree(self) -> int:
        return self.poly.degree(self.var)

    @property
    def lead(self) -> MultiPoly:
        return self.coeffs[-1]

    @property
    def vars(self) -> VariableSet:
        return self.poly.vars

    def to_multipoly(self) -> MultiPoly:
        return self.poly

    def diff(self) -> "UniOverPoly":
        if self.degree == 0:
            raise DegenerateError("derivative of a degree-0 polynomial is zero")
        return UniOverPoly(self.var, self.poly.diff(self.var))

    def __eq__(self, other):
        if not isinstance(other, UniOverPoly):
            return NotImplemented
        return self.var == other.var and self.poly == other.poly

    def __str__(self):
        return str(self.poly)

    def __repr__(self):
        return f"UniOverPoly[{self.var}]({self})"


# -- the gcd chain: rational content, content in a variable, remainder sequence

def rational_content(*polys) -> Fraction:
    """Positive rational r with every coefficient of every P over r an
    integer, these integers coprime; 1 when all the P are zero."""
    num = 0
    den = 1
    for P in polys:
        for c in P.terms.values():
            num = int_gcd(num, c.numerator)
            den = int_lcm(den, c.denominator)
    return Fraction(num, den) if num else Fraction(1)


def _split_content(P: MultiPoly):
    """(r, P / r) for r the rational content of P."""
    r = rational_content(P)
    return r, P.scale(1 / r)


def _glex_key(e):
    """Heap entry for exponent e: the graded-lex largest pops first."""
    return -sum(e), tuple(map(neg, e)), e


def mp_divexact(A: MultiPoly, B: MultiPoly) -> MultiPoly:
    """Exact division by repeated graded-lex leading-term cancellation.  The
    remainder's exponents wait in a heap in graded-lex order: one is pushed
    when it enters the remainder, and popped ones that have left it are
    skipped."""
    A._check_compatible(B)
    if B.is_zero:
        raise DegenerateError("division by zero polynomial")
    eb, cb = B.leading()
    rest = [(e, c) for e, c in B.terms.items() if e != eb]
    quot = {}
    rem = dict(A.terms)
    heap = [_glex_key(e) for e in rem]
    heapify(heap)
    while heap:
        ea = heappop(heap)[2]
        ca = rem.pop(ea, None)
        if ca is None:
            continue
        eq = tuple(map(sub, ea, eb))
        if min(eq) < 0:
            raise DegenerateError("division is not exact")
        # the leading exponent falls strictly, so each eq is new
        cq = quot[eq] = ca // cb if ca.__class__ is cb.__class__ is int and not ca % cb \
            else Fraction(ca, cb)
        for e2, c2 in rest:
            e = tuple(map(add, eq, e2))
            d = cq * c2
            v = rem.get(e)
            if v is None:
                rem[e] = -d
                heappush(heap, _glex_key(e))
            elif v == d:
                del rem[e]
            else:
                rem[e] = v - d
    return A._new(None, quot)


def mp_gcd(A: MultiPoly, B: MultiPoly) -> MultiPoly:
    """Gcd in Z[vars] scaled back to Q: includes the shared rational content,
    normalized with positive leading coefficient.  Splits off the contents in
    the first variable either operand mentions, recursing on them, and runs
    the remainder sequence on the primitive parts."""
    A._check_compatible(B)
    if A.is_zero or B.is_zero:
        g = B if A.is_zero else A
    elif A.total_degree() == 0 or B.total_degree() == 0:
        return MultiPoly.constant(A.vars, rational_content(A, B))
    else:
        var = next(n for n in A.vars.names if A.degree(n) > 0 or B.degree(n) > 0)
        ca, cb = _content_in(A, var), _content_in(B, var)
        g = mp_gcd(ca, cb) * _prs(mp_divexact(A, ca), mp_divexact(B, cb), var)
    return g if g.is_zero or g.leading()[1] > 0 else -g


def _content_in(P: MultiPoly, var: str) -> MultiPoly:
    """Gcd of the coefficients of P viewed as univariate in var, rational
    content included."""
    g = MultiPoly.zero(P.vars)
    for b in P.univariate_coeffs(var):
        if not b.is_zero:
            g = mp_gcd(g, b)
    return g


def _pseudo_rem(A: MultiPoly, B: MultiPoly, var: str) -> MultiPoly:
    """Pseudo-remainder of A by B in one variable (fraction-free)."""
    db = B.degree(var)
    lb = B.univariate_coeffs(var)[-1]
    R = A
    while True:
        coeffs = R.univariate_coeffs(var)  # [] once R is zero
        k = len(coeffs) - 1 - db
        if k < 0:
            return R
        R = R * lb - B * coeffs[-1] * MultiPoly.variable(A.vars, var, power=k)


def _prs(A: MultiPoly, B: MultiPoly, var: str) -> MultiPoly:
    """Gcd in F[var] (F the fraction field of the other variables) up to a
    factor in F, by the primitive remainder sequence: each remainder is divided
    by its content in var.  Only ``mp_gcd``'s exact Z[vars] result needs A and
    B primitive in var (not even a rational factor shared): then it is up to sign."""
    if A.degree(var) < B.degree(var):
        A, B = B, A
    while not B.is_zero:
        R = _pseudo_rem(A, B, var)
        A, B = B, R if R.is_zero else mp_divexact(R, _content_in(R, var))
    return A


# -- the distinguished-variable calculus ----------------------------------

def content_primitive(P: UniOverPoly):
    """Split P = content * primitive with the primitive part having coprime
    integer-primitive coefficients and positive leading rational content."""
    g = _content_in(P.poly, P.var)
    if P.lead.leading()[1] < 0:
        g = -g
    return g, UniOverPoly(P.var, mp_divexact(P.poly, g))


def gcd_over_fraction_field(P: UniOverPoly, Q: UniOverPoly) -> UniOverPoly:
    """Gcd in F[var] (F the fraction field of the other variables),
    denominator-cleared and primitive."""
    if P.var != Q.var:
        raise VariableMismatchError(f"distinguished variables differ: {P.var} vs {Q.var}")
    # contents are units of F[var]: the sequence ends on an F-associate of the
    # gcd whatever they are, and its primitive part is unique
    return content_primitive(UniOverPoly(P.var, _prs(P.poly, Q.poly, P.var)))[1]


def is_simple(P: UniOverPoly) -> bool:
    """Square-free in the distinguished variable over the fraction field."""
    return P.degree == 0 or _prs(P.poly, P.diff().poly, P.var).degree(P.var) == 0


def simple_decompose(P: UniOverPoly) -> UniOverPoly:
    """Square-free part in the distinguished variable, times the content:
    a simple polynomial with the same zero set as P (the content supplies the
    leading-coefficient sheet)."""
    if P.degree == 0:
        return P
    # the gcd is primitive in var, so it divides P exactly and leaves P's content
    # (Gauss's lemma): the quotient is content * (square-free primitive part)
    out = UniOverPoly(P.var, mp_divexact(P.poly, gcd_over_fraction_field(P, P.diff()).poly))
    if not is_simple(out):
        raise NotSimpleError("square-free part failed the simplicity check")
    return out


# -- resultants ------------------------------------------------------------

def _bareiss_det(M):
    """Fraction-free determinant of a square MultiPoly matrix."""
    n = len(M)
    if n == 0:
        raise DegenerateError("empty matrix")
    vars = M[0][0].vars
    M = [row[:] for row in M]
    sign = 1
    prev = MultiPoly.one(vars)
    for k in range(n - 1):
        if M[k][k].is_zero:
            for i in range(k + 1, n):
                if not M[i][k].is_zero:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return MultiPoly.zero(vars)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = mp_divexact(M[k][k] * M[i][j] - M[i][k] * M[k][j], prev)
            M[i][k] = MultiPoly.zero(vars)
        prev = M[k][k]
    det = M[n - 1][n - 1]
    return det if sign > 0 else -det


def sylvester_resultant(P: UniOverPoly, Q: UniOverPoly) -> MultiPoly:
    """Determinant of the Sylvester matrix in the shared distinguished
    variable.  Layout: ascending coefficients, the deg(Q) rows of P first.
    It runs on integer parts: res(P, Q) = s^n t^m res(P/s, Q/t), s, t the contents."""
    if P.var != Q.var:
        raise VariableMismatchError(f"distinguished variables differ: {P.var} vs {Q.var}")
    s, Ps = _split_content(P.poly)
    t, Qt = _split_content(Q.poly)
    p, q = Ps.univariate_coeffs(P.var), Qt.univariate_coeffs(Q.var)
    m, n = len(p) - 1, len(q) - 1
    if m < 1 and n < 1:
        raise DegenerateError("resultant needs positive degree in the variable")
    size = m + n
    zero = MultiPoly.zero(P.vars)
    rows = []
    for i in range(n):
        rows.append([zero] * i + p + [zero] * (size - m - 1 - i))
    for i in range(m):
        rows.append([zero] * i + q + [zero] * (size - n - 1 - i))
    return _bareiss_det(rows).scale(s ** n * t ** m)


def discriminant_locus(P: UniOverPoly) -> MultiPoly:
    """Resultant of P with its derivative: vanishes where roots coincide."""
    if P.degree < 1:
        raise DegenerateError("discriminant needs degree >= 1")
    return sylvester_resultant(P, P.diff())


def product_discriminant(P: UniOverPoly, Q: UniOverPoly) -> MultiPoly:
    """``discriminant_locus`` of the product P*Q, assembled from its factors
    by the product formula: (-1)^(m n) disc(P) disc(Q) res(P, Q)^2 for
    m = deg P >= 1 and n = deg Q >= 1.  Three small Sylvester determinants
    replace one of size 2(m + n) - 1."""
    if P.degree < 1 or Q.degree < 1:
        raise DegenerateError("the product formula needs both degrees >= 1")
    # multiply the integer primitive parts; the contents and the sign go on last
    (a, dp), (b, dq), (c, res) = (_split_content(f) for f in (
        discriminant_locus(P), discriminant_locus(Q), sylvester_resultant(P, Q)))
    sign = -1 if P.degree * Q.degree % 2 else 1
    return ((dp * dq) * (res * res)).scale(sign * a * b * c * c)
