"""Exact multivariate polynomial calculus over the rationals: gcd over the
fraction field of the non-distinguished variables, content/primitive splits,
square-free ("simple") decomposition in one variable, Sylvester resultants
and discriminants.

The gcd is one chain, ``mp_gcd``, which ``gcd_over_fraction_field`` and
``is_simple`` call.  It tries the heuristic gcd ``_heu_gcd`` first on the
integer terms of ``series._scaled`` (integer evaluation, the gcd of the
images, a lift proven by exact division) and falls back to the proven path:
``_content_in`` (the gcd of the coefficients in one variable, which
``content_primitive`` also uses) and ``_prs`` (the primitive remainder
sequence in that variable).

Polynomials share their ring code with the windowed series in
:mod:`starborel.series` but have no window: arithmetic never drops terms.

Exact division (``_divide``, the one heap loop) and the Sylvester
determinant (``_bareiss_det``) run on packed monomials, a format no other
module sees (Monagan & Pearce, J. Symb. Comput. 2011): an exponent vector is
one int of n + 1 fields of w bits, the total degree in the top field and
then the variables in order, each field a value below one guard bit.  A
product of monomials is an int sum, int order is the graded-lex order of
``series._glex_key``, and a difference with a guard bit set is a monomial
that does not divide.  w holds the largest total degree a computation can
reach: the dividend's for a division, twice the sum of the rows' top total
degrees for the determinant, whose every entry is a minor or a product of two.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush
from math import gcd as int_gcd, isqrt, lcm as int_lcm

from .errors import DegenerateError, NotSimpleError, VariableMismatchError
from .series import SparseTerms, VariableSet, _put, _scaled


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

def _split_content(P: MultiPoly):
    """(r, P / r) for r the content of P: the positive rational that leaves
    P / r with coprime integer coefficients, 1 when P is zero."""
    s, terms = _scaled(P)
    g = reduce(int_gcd, terms.values(), 0) or 1
    return Fraction(g, s), P._new(None, {e: c // g for e, c in terms.items()})


def mp_divexact(A: MultiPoly, B: MultiPoly) -> MultiPoly:
    """Exact division; ``DegenerateError`` when B is zero or does not divide A.
    A's integer terms sa·A divide by the primitive part pb of B's, sb·B = g·pb,
    over Z (Gauss's lemma), and A / B is that quotient times sb / (sa·g)."""
    A._check_compatible(B)
    if B.is_zero:
        raise DegenerateError("division by zero polynomial")
    (sa, a), (sb, b) = _scaled(A), _scaled(B)
    g = reduce(int_gcd, b.values(), 0)  # the 0 keeps g positive
    n = len(A.vars.names)
    w, guards = _packing(n, max(A.total_degree(), B.total_degree()))
    quot = _divide(_pack(a, w), _pack({e: c // g for e, c in b.items()}, w), guards)
    if quot is None:
        raise DegenerateError("division is not exact")
    quot = _unpack(quot, n, w)
    return A._new(None, {e: c * sb for e, c in quot.items()}, None, sa * g)


# -- packed monomials: one int per exponent vector (Monagan & Pearce) ---------

def _packing(n: int, top: int):
    """(w, guards) for n variables and total degrees up to top: each of the
    n + 1 fields is w bits, the value and one guard bit above it."""
    w = max(top, 0).bit_length() + 1
    return w, sum(1 << (w - 1) << (i * w) for i in range(n + 1))


def _pack(terms: dict, w: int) -> dict:
    """The term dict keyed by packed exponents: the total degree in the top
    field, then the variables in order, so int order is graded-lex order."""
    out = {}
    for e, c in terms.items():
        k = sum(e)
        for x in e:
            k = k << w | x
        out[k] = c
    return out


def _unpack(terms: dict, n: int, w: int) -> dict:
    """The packed term dict back on exponent tuples."""
    field = (1 << w) - 1
    shifts = range((n - 1) * w, -1, -w)
    return {tuple(k >> s & field for s in shifts): c for k, c in terms.items()}


def _divide(a: dict, b: dict, guards: int):
    """Quotient over Z of the packed int term dict a by the nonzero packed int
    term dict b, or None when the division is not exact: repeated graded-lex
    leading-term cancellation.  The remainder's keys wait, negated, in a heap:
    one is pushed when it enters the remainder, and popped ones that have
    left it are skipped.  b's leading key has its top total degree, so no key
    here outgrows a's total degree; a quotient key with a guard bit set (a
    borrow out of some field) is a monomial that does not divide, and a
    quotient coefficient that is not an int ends the division too."""
    eb = max(b)
    cb = b[eb]
    rest = [(e, c) for e, c in b.items() if e != eb]
    quot = {}
    rem = dict(a)
    heap = [-e for e in rem]
    heapify(heap)
    while heap:
        ea = -heappop(heap)
        ca = rem.pop(ea, None)
        if ca is None:
            continue
        eq = ea - eb
        cq, r = divmod(ca, cb)
        if r or eq & guards:
            return None
        quot[eq] = cq  # the leading key falls strictly, so each eq is new
        for e2, c2 in rest:
            e = eq + e2
            d = cq * c2
            v = rem.get(e)
            if v is None:
                rem[e] = -d
                heappush(heap, -e)
            elif v == d:
                del rem[e]
            else:
                rem[e] = v - d
    return quot


def mp_gcd(A: MultiPoly, B: MultiPoly) -> MultiPoly:
    """Gcd in Z[vars] scaled back to Q: includes the joint content (the gcd of
    the contents' numerators over the lcm of their denominators), normalized
    with positive leading coefficient.  The heuristic gcd runs on ``_scaled``'s
    ints first and leaves through one ``_new`` over the lcm of the scales; when
    it fails, the contents in the first variable either operand mentions are
    split off, recursing on them, and the remainder sequence runs on the primitive parts."""
    A._check_compatible(B)
    if A.is_zero or B.is_zero:
        g = B if A.is_zero else A
    else:
        (sa, a), (sb, b) = _scaled(A), _scaled(B)
        h = _heu_gcd(a, b) if A.total_degree() and B.total_degree() else {
            (0,) * len(A.vars.names): int_gcd(*a.values(), *b.values())}  # a constant operand
        if h is not None:
            g = A._new(None, h, None, int_lcm(sa, sb))
        else:
            var = next(n for n in A.vars.names if A.degree(n) > 0 or B.degree(n) > 0)
            ca, cb = _content_in(A, var), _content_in(B, var)
            g = mp_gcd(ca, cb) * _prs(mp_divexact(A, ca), mp_divexact(B, cb), var)
    return g if g.is_zero or g.leading()[1] > 0 else -g


def _heu_gcd(a: dict, b: dict):
    """Gcd in Z[vars] of two nonzero integer term dicts, up to sign, by GCDHEU
    (Char, Geddes & Gonnet, J. Symbolic Comput. 1989); None when six values
    of xi fail.  It divides out each content and multiplies back their gcd.
    The first variable either mentions is put to the integer
    xi >= 2 min(|a|, |b|) + 2 (max norms of the primitive parts), the gcd of
    the images is taken by recursion and lifted back as xi-adic digits in
    (-xi/2, xi/2].  By the paper's theorem the primitive part of the lift is
    the gcd when it divides both primitive parts, which exact division proves."""
    ca, cb = reduce(int_gcd, a.values()), reduce(int_gcd, b.values())
    c = int_gcd(ca, cb)
    n = len(next(iter(a)))
    i = next((i for i in range(n) if any(e[i] for e in a) or any(e[i] for e in b)), None)
    if i is None:
        return {(0,) * n: c}
    a = {e: v // ca for e, v in a.items()}
    b = {e: v // cb for e, v in b.items()}
    # packed once per level for the proofs; a lift of higher degree divides neither
    top = max(max(map(sum, a)), max(map(sum, b)))
    w, guards = _packing(n, top)
    pa, pb = _pack(a, w), _pack(b, w)
    xi = 2 * min(max(map(abs, a.values())), max(map(abs, b.values()))) + 2
    for _ in range(6):
        ia, ib = _put(a, {i: xi})[1], _put(b, {i: xi})[1]
        if ia and ib:
            g = _heu_gcd(ia, ib)
            if g is None:
                return None
            lift = {}
            for e, v in g.items():
                k = 0
                while v:
                    d = v % xi
                    if d > xi // 2:
                        d -= xi
                    if d:
                        lift[e[:i] + (k,) + e[i + 1:]] = d
                    v = (v - d) // xi
                    k += 1
            cl = reduce(int_gcd, lift.values())
            h = {e: v // cl for e, v in lift.items()}
            if max(map(sum, h)) <= top:
                ph = _pack(h, w)
                if _divide(pa, ph, guards) is not None and _divide(pb, ph, guards) is not None:
                    return {e: c * v for e, v in h.items()}
        # the growth factor of Char, Geddes & Gonnet, about 2.73 xi^(1/4), in ints
        xi = xi * isqrt(isqrt(xi)) * 73794 // 27011
    return None


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
    if P.coeffs[-1].leading()[1] < 0:
        g = -g
    return g, UniOverPoly(P.var, mp_divexact(P.poly, g))


def gcd_over_fraction_field(P: UniOverPoly, Q: UniOverPoly) -> UniOverPoly:
    """Gcd in F[var] (F the fraction field of the other variables),
    denominator-cleared and primitive."""
    if P.var != Q.var:
        raise VariableMismatchError(f"distinguished variables differ: {P.var} vs {Q.var}")
    # Gauss: the Z[vars] gcd is the gcd of the contents times the F[var] gcd
    return content_primitive(UniOverPoly(P.var, mp_gcd(P.poly, Q.poly)))[1]


def is_simple(P: UniOverPoly) -> bool:
    """Square-free in the distinguished variable over the fraction field."""
    return P.degree == 0 or mp_gcd(P.poly, P.diff().poly).degree(P.var) == 0


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
    """Fraction-free determinant of a square MultiPoly matrix, on packed
    monomials from start to end.  Every entry is a minor or a product of two
    minors, so twice the sum of the rows' top total degrees bounds every key."""
    n = len(M)
    if n == 0:
        raise DegenerateError("empty matrix")
    first = M[0][0]
    nv = len(first.vars.names)
    w, guards = _packing(nv, 2 * sum(max(P.total_degree() for P in row) for row in M))
    A = [[_pack(P.terms, w) for P in row] for row in M]
    sign = 1
    prev = None  # the previous pivot; 1 at the first step, which divides by nothing
    for k in range(n - 1):
        if not A[k][k]:
            for i in range(k + 1, n):
                if A[i][k]:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return first._new(None, {})
        pivot_row = A[k]
        piv = pivot_row[k]
        for row in A[k + 1:]:
            mik = row[k]
            for j in range(k + 1, n):
                num = _fms(piv, row[j], mik, pivot_row[j])
                if prev is not None and num:
                    num = _divide(num, prev, guards)
                    if num is None:
                        raise DegenerateError("division is not exact")
                row[j] = num
        prev = piv
    det = first._new(None, _unpack(A[n - 1][n - 1], nv, w))
    return det if sign > 0 else -det


def _fms(p: dict, a: dict, m: dict, b: dict) -> dict:
    """p·a − m·b over packed term dicts, zero terms dropped; a zero factor
    skips its product."""
    out = {}
    get = out.get
    for x, y, s in ((p, a, 1), (m, b, -1)):
        if x and y:
            for e1, c1 in x.items():
                c1 *= s
                for e2, c2 in y.items():
                    e = e1 + e2
                    out[e] = get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def sylvester_resultant(P: UniOverPoly, Q: UniOverPoly) -> MultiPoly:
    """Determinant of the Sylvester matrix in the shared distinguished
    variable.  Layout: ascending coefficients, the deg(Q) rows of P first.
    It runs on integer parts: res(P, Q) = s^n t^m res(P/s, Q/t), s, t the contents."""
    if P.var != Q.var:
        raise VariableMismatchError(f"distinguished variables differ: {P.var} vs {Q.var}")
    P.poly._check_compatible(Q.poly)
    s, Ps = _split_content(P.poly)
    t, Qt = _split_content(Q.poly)
    p, q = Ps.univariate_coeffs(P.var), Qt.univariate_coeffs(Q.var)
    m, n = len(p) - 1, len(q) - 1
    if m < 1 and n < 1:
        raise DegenerateError("resultant needs positive degree in the variable")
    size = m + n
    zero = MultiPoly.zero(P.poly.vars)
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
    # multiplied as returned; the sign goes on the smaller discriminant
    dp, dq = sorted((discriminant_locus(P), discriminant_locus(Q)), key=lambda d: len(d.terms))
    res = sylvester_resultant(P, Q)
    return ((-dp if P.degree * Q.degree % 2 else dp) * dq) * (res * res)
