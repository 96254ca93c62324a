"""Exact truncated multivariate formal power series over the rationals.

A series lives over an ordered variable set whose first entry is the
distinguished "deformation" variable (t in the star-product plane, xi in the
Borel plane).  The truncation window caps the distinguished degree and the
joint total degree of the remaining variables separately; every operation is
coefficient-exact on the retained window.

The sparse ring itself (:class:`SparseTerms`) is shared with the untruncated
polynomials of :mod:`starborel.poly`: a polynomial is a series without a
window.

A stored coefficient is an ``int`` when it is integral, else a ``Fraction``
with denominator > 1, so integer polynomials run on ``int`` arithmetic.  As
``/`` of two ints is a float, coefficients divide exactly: ``Fraction(a, b)``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import inf, lcm
from operator import add, neg

from .errors import (
    BindingError,
    DegenerateError,
    ParseError,
    UnknownVariableError,
    VariableMismatchError,
    WindowOverflowError,
)


def as_rat(x) -> Fraction:
    """Coerce an int/str/Fraction into an exact rational (a Fraction)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"not a rational number: {x!r}") from None
    raise TypeError(f"cannot coerce {x!r} to an exact rational")


def canonical(c):
    """Canonical coefficient of an exact rational: an int when integral."""
    return c if c.__class__ is int or c.denominator != 1 else c.numerator


@dataclass(frozen=True)
class VariableSet:
    """Ordered variable names; index 0 is the distinguished variable.

    ``dof`` counts canonical (q_j, p_j) pairs; it is 0 for generic z-variable
    sets used in the polynomial calculus.
    """

    names: tuple
    dof: int = 0

    def __post_init__(self):
        if not self.names:
            raise VariableMismatchError("variable set must contain at least one name")
        if len(set(self.names)) != len(self.names):
            raise VariableMismatchError(f"duplicate variable names in {self.names}")

    @property
    def distinguished(self) -> str:
        return self.names[0]

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UnknownVariableError(f"unknown variable {name!r} (have {self.names})") from None

    @classmethod
    def phase_space(cls, dof: int, deform: str = "t") -> "VariableSet":
        """Deformation variable followed by q_1..q_N, p_1..p_N (bare q, p if N=1)."""
        if dof < 1:
            raise VariableMismatchError("phase space needs dof >= 1")
        if dof == 1:
            return cls((deform, "q", "p"), dof=1)
        names = (deform,) + tuple(f"q{j}" for j in range(1, dof + 1)) \
            + tuple(f"p{j}" for j in range(1, dof + 1))
        return cls(names, dof=dof)

    def q_name(self, j: int) -> str:
        return "q" if self.dof == 1 else f"q{j}"

    def p_name(self, j: int) -> str:
        return "p" if self.dof == 1 else f"p{j}"

    def phase_pairs(self) -> list:
        """The canonical pairs (q_j, p_j), j = 1..dof."""
        if self.dof < 1:
            raise VariableMismatchError("needs a phase space with dof >= 1")
        return [(self.q_name(j), self.p_name(j)) for j in range(1, self.dof + 1)]

    def renamed_distinguished(self, name: str) -> "VariableSet":
        if name in self.names[1:]:
            raise VariableMismatchError(f"{name!r} already present in {self.names}")
        return VariableSet((name,) + self.names[1:], dof=self.dof)


@dataclass(frozen=True)
class Truncation:
    """Degree caps: deg_t for the distinguished variable, deg_xy for the rest."""

    deg_t: int
    deg_xy: int

    def __post_init__(self):
        deg_t, deg_xy = self.deg_t, self.deg_xy
        if not (isinstance(deg_t, int) and isinstance(deg_xy, int)) or deg_t < 0 or deg_xy < 0:
            raise WindowOverflowError(f"truncation caps must be nonnegative ints: {self}")

    def admits(self, expo: tuple) -> bool:
        return expo[0] <= self.deg_t and sum(expo[1:]) <= self.deg_xy

    def meet(self, other: "Truncation") -> "Truncation":
        return Truncation(min(self.deg_t, other.deg_t), min(self.deg_xy, other.deg_xy))


def _glex_key(e):
    """Graded-lex key of exponent e, largest first; it ends with e, so it is also a heap entry."""
    return -sum(e), tuple(map(neg, e)), e


def _caps(trunc) -> tuple:
    """(t-cap, xy-cap) of a window; open (inf) without one."""
    return (inf, inf) if trunc is None else (trunc.deg_t, trunc.deg_xy)


def _window_product(acc: dict, left: dict, right: dict, dt: int, dxy: int) -> dict:
    """acc += left * right over term dicts, keeping only the products whose
    distinguished degree is at most dt and whose other degree is at most dxy."""
    get = acc.get
    if len(right) == 1 and not any(e0 := next(iter(right))):  # a constant keeps left's keys
        c2 = right[e0]
        for e1, c1 in left.items():
            if e1[0] <= dt and sum(e1) - e1[0] <= dxy:
                acc[e1] = get(e1, 0) + c1 * c2
        return acc
    right = [(e2, c2, e2[0], sum(e2) - e2[0]) for e2, c2 in right.items()]
    for e1, c1 in left.items():
        room_t, room_xy = dt - e1[0], dxy - (sum(e1) - e1[0])  # what e1 leaves of the window
        for e2, c2, t2, xy2 in right:
            if t2 <= room_t and xy2 <= room_xy:
                e = tuple(map(add, e1, e2))
                acc[e] = get(e, 0) + c1 * c2
    return acc


def _scaled(f):
    """(s, s·f's terms as ints), s the lcm of f's denominators; for s = 1 f's own dict, only read."""
    s = lcm(*{c.denominator for c in f.terms.values()})
    return s, f.terms if s == 1 else {e: c.numerator * (s // c.denominator) for e, c in f.terms.items()}


def _put(terms: dict, values: dict) -> tuple:
    """(den, nums): the int term dict with each variable index i put to the
    rational ``values[i]``, summed by the exponents left (the bound ones
    zeroed), as ints over one denominator: a value a/d of top degree K enters
    as a^k·d^(K-k).  Zero sums are dropped."""
    den, tables = 1, []
    for i, v in values.items():
        K = max((e[i] for e in terms), default=0)
        a, d = v.numerator, v.denominator
        tables.append((i, [a ** k * d ** (K - k) for k in range(K + 1)]))
        den *= d ** K
    acc = {}
    get = acc.get
    for e, c in terms.items():
        key = list(e)
        for i, table in tables:
            c *= table[e[i]]
            key[i] = 0
        key = tuple(key)
        acc[key] = get(key, 0) + c
    return den, {e: c for e, c in acc.items() if c}


def _arity_error(expo: tuple, vars: VariableSet) -> VariableMismatchError:
    return VariableMismatchError(f"multi-index {expo} has wrong arity for {vars.names}")


def _derive(terms: dict, idxs) -> dict:
    """The term dict differentiated once by each variable index in ``idxs``."""
    for i in idxs:
        terms = {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in terms.items() if e[i]}
    return terms


class SparseTerms:
    """Sparse exact monomial dict, multi-index -> nonzero :func:`canonical`
    rational, over a variable set, with a window ``trunc`` or without one (None).

    This is the ring code of the windowed :class:`FormalSeries` and of its
    unwindowed sibling :class:`starborel.poly.MultiPoly`.  A windowed result
    keeps only the terms inside its window; an unwindowed one never drops a
    term.  Constructors and classmethods take the window right after the
    variable set, so it is absent from the unwindowed signatures.
    """

    __slots__ = ("vars", "trunc", "terms")

    def __init__(self, vars: VariableSet, trunc, terms=None):
        self.vars = vars
        self.trunc = trunc
        n = len(vars.names)
        exact = {}
        for expo, coeff in (terms or {}).items():
            expo = tuple(expo)
            if len(expo) != n:
                raise _arity_error(expo, vars)
            if not all(isinstance(k, int) and k >= 0 for k in expo):
                raise VariableMismatchError(
                    f"multi-index {expo} has an exponent that is not a nonnegative int")
            exact[expo] = coeff if coeff.__class__ is int else as_rat(coeff)
        self.terms = self._new(trunc, exact).terms

    def _new(self, trunc, terms: dict, vars: VariableSet = None, den: int = 1):
        """Same class over ``vars`` (default: this one's) from exact rational
        coefficients, made canonical, or from int numerators over ``den`` > 1,
        divided here; zero and out-of-window terms are dropped."""
        out = object.__new__(type(self))
        out.vars = self.vars if vars is None else vars
        out.trunc = trunc
        dt, dxy = _caps(trunc)
        if den > 1:  # the one way back from the int kernels
            out.terms = {e: Fraction(c, den) if c % den else c // den for e, c in terms.items()
                         if c and e[0] <= dt and sum(e) - e[0] <= dxy}
        elif trunc is None:  # canonical(c), inlined: every ring operation ends here
            out.terms = {e: c if c.__class__ is int or c.denominator != 1 else c.numerator
                         for e, c in terms.items() if c}
        else:
            out.terms = {e: c if c.__class__ is int or c.denominator != 1 else c.numerator
                         for e, c in terms.items()
                         if c and e[0] <= dt and sum(e) - e[0] <= dxy}
        return out

    def _constant(self, value: Fraction):
        return self._new(self.trunc, {(0,) * len(self.vars.names): value})

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, vars: VariableSet, *window):
        return cls(vars, *window)

    @classmethod
    def constant(cls, vars: VariableSet, *window_value):
        """``constant(vars, [trunc,] value)``."""
        *window, value = window_value
        return cls(vars, *window, {(0,) * len(vars.names): as_rat(value)})

    @classmethod
    def one(cls, vars: VariableSet, *window):
        return cls.constant(vars, *window, 1)

    @classmethod
    def variable(cls, vars: VariableSet, *window_name, power: int = 1):
        """``variable(vars, [trunc,] name)``: the monomial name^power."""
        *window, name = window_name
        expo = [0] * len(vars.names)
        expo[vars.index(name)] = power
        return cls(vars, *window, {tuple(expo): 1})

    @classmethod
    def from_string(cls, text: str, vars: VariableSet, *window):
        """Parse grammar text; a windowed parse raises on a term outside the
        window instead of dropping it."""
        trunc = window[0] if window else None
        terms = {}
        for coeff, powers in parse_terms(text):
            expo = [0] * len(vars.names)
            for name, e in powers.items():
                expo[vars.index(name)] += e
            key = tuple(expo)
            if trunc is not None and not trunc.admits(key):
                raise WindowOverflowError(
                    f"term {dict(powers)} exceeds window {trunc}")
            terms[key] = terms.get(key, 0) + coeff
        return cls(vars, *window, terms)

    # -- basic queries ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, expo):
        expo = tuple(expo)
        if len(expo) != len(self.vars.names):
            raise _arity_error(expo, self.vars)
        return self.terms.get(expo, 0)

    def degree(self, name: str) -> int:
        """Largest exponent of ``name``; -1 for zero."""
        i = self.vars.index(name)
        return max((e[i] for e in self.terms), default=-1)

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def leading(self):
        """(multi-index, coefficient) of the graded-lex leading term."""
        if self.is_zero:
            raise DegenerateError("zero polynomial has no leading term")
        key = min(self.terms, key=_glex_key)
        return key, self.terms[key]

    def univariate_coeffs(self, name: str) -> list:
        """Dense coefficient list b_0..b_M in one variable, M its degree; the
        b_i keep the variable set and window, with the exponent of ``name``
        zeroed."""
        i = self.vars.index(name)
        buckets = [{} for _ in range(self.degree(name) + 1)]
        for e, c in self.terms.items():
            buckets[e[i]][e[:i] + (0,) + e[i + 1:]] = c
        return [self._new(self.trunc, b) for b in buckets]

    # -- ring operations --------------------------------------------------

    def _check_compatible(self, other):
        if type(other) is not type(self):
            raise VariableMismatchError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if self.vars != other.vars:
            raise VariableMismatchError(
                f"variable sets differ: {self.vars.names} vs {other.vars.names}")

    def _meet(self, other):
        """Common window of two compatible operands (None if unwindowed)."""
        return None if self.trunc is None else self.trunc.meet(other.trunc)

    def __add__(self, other, minus=False):
        if isinstance(other, (int, Fraction)):
            other = self._constant(other)
        self._check_compatible(other)
        terms = dict(self.terms)
        get = terms.get
        for e, c in other.terms.items():
            terms[e] = get(e, 0) - c if minus else get(e, 0) + c
        return self._new(self._meet(other), terms)

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(other, True)

    def __neg__(self):
        return self._new(self.trunc, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        """Product on the common window, in ints as the kernels: terms outside it are dropped."""
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_compatible(other)
        trunc = self._meet(other)
        (s1, a), (s2, b) = _scaled(self), _scaled(other)
        return self._new(trunc, _window_product({}, a, b, *_caps(trunc)), None, s1 * s2)

    def scale(self, r):
        """r times this, for an exact rational r (an int, ``Fraction`` or string)."""
        r = canonical(as_rat(r))
        return self._new(self.trunc, {e: r * v for e, v in self.terms.items()})

    def __rmul__(self, other):
        return self.__mul__(other)

    def pow(self, n: int):
        if not isinstance(n, int):
            raise DegenerateError(f"the power must be an int, got {n!r}")
        if n < 0:
            raise DegenerateError("negative powers not supported")
        out = self._constant(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        """Coefficient-wise equality, on the common window if windowed."""
        if not isinstance(other, type(self)):
            return NotImplemented
        if self.vars != other.vars:
            return False
        window = self._meet(other)
        return self._new(window, self.terms).terms == other._new(window, other.terms).terms

    # -- calculus and substitution ----------------------------------------

    def diff(self, name: str, order: int = 1, shrink_window: bool = True):
        """Exact termwise partial derivative of the given order; a window
        shrinks by ``order`` in the differentiated direction unless
        ``shrink_window`` is false."""
        i = self.vars.index(name)
        if not isinstance(order, int):
            raise DegenerateError(f"the derivative order must be an int, got {order!r}")
        if order < 0:
            raise DegenerateError("negative derivative orders not supported")
        terms = _derive(self.terms, [i] * order)
        trunc = self.trunc
        if trunc is not None and shrink_window and order:
            if i == 0:
                trunc = Truncation(max(trunc.deg_t - order, 0), trunc.deg_xy)
            else:
                trunc = Truncation(trunc.deg_t, max(trunc.deg_xy - order, 0))
        return self._new(trunc, terms)

    def substitute(self, name: str, replacement):
        """Exact substitution of ``replacement`` for one variable, by Horner's
        rule over the slices from the top.  Clipping the partial sums is exact:
        a product never lowers a term's degrees."""
        parts = self.univariate_coeffs(name)
        replacement._check_compatible(self)
        out = self._new(self._meet(replacement), {})
        for part in reversed(parts):
            out = out * replacement + part
        return out

    def evaluate_partial(self, bindings: dict):
        """Substitute exact rationals for some variables.  A windowed series
        keeps its distinguished variable free: the window caps it apart."""
        if self.trunc is not None and self.vars.distinguished in bindings:
            raise BindingError("cannot bind the distinguished variable")
        s, terms = _scaled(self)
        den, nums = _put(terms, {self.vars.index(n): as_rat(v) for n, v in bindings.items()})
        return self._new(self.trunc, nums, None, s * den)

    def evaluate(self, bindings: dict):
        """Exact value at rational bindings of every variable: an int when integral."""
        missing = [n for n in self.vars.names if n not in bindings]
        if missing:
            raise UnknownVariableError(f"missing bindings for {missing}")
        s, terms = _scaled(self)
        den, nums = _put(terms, {i: as_rat(bindings[n]) for i, n in enumerate(self.vars.names)})
        return canonical(Fraction(sum(nums.values()), s * den))

    def rehome(self, vars: VariableSet):
        """The same terms over another variable set, which must contain every
        variable they mention.  The window is kept: widen it first if terms
        move between the distinguished and the other variables."""
        pos = []
        for j, n in enumerate(self.vars.names):
            if n in vars.names:
                pos.append((j, vars.index(n)))
            elif any(e[j] for e in self.terms):
                raise UnknownVariableError(f"variable {n!r} not in target set")
        width = len(vars.names)
        terms = {}
        for e, c in self.terms.items():
            key = [0] * width
            for j, t in pos:
                key[t] = e[j]
            terms[tuple(key)] = c
        return self._new(self.trunc, terms, vars)

    # -- canonical text form ----------------------------------------------

    def __str__(self):
        return format_terms(self.terms, self.vars.names)

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class FormalSeries(SparseTerms):
    """Truncated series ``FormalSeries(vars, trunc, terms)``: the window caps
    the distinguished degree and the joint degree of the other variables."""

    __slots__ = ()

    # -- shape changes ----------------------------------------------------

    def truncate(self, trunc: Truncation) -> "FormalSeries":
        return self._new(trunc, self.terms)

    def rename_distinguished(self, name: str) -> "FormalSeries":
        return self._new(self.trunc, self.terms, self.vars.renamed_distinguished(name))


# -- repo-wide text grammar ----------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+(?:\s*/\s*\d+)?)|([A-Za-z_][A-Za-z_0-9]*)|([-+*^/]))")


def _tokenize(text: str):
    """(kind, value) tokens, closed by an ("end", None) sentinel."""
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m[3] == "/" and not (out and out[-1][0] == "name"):  # "/" divides a name only
            if text[pos:].strip():
                raise ParseError(f"bad character near {text[pos:pos+8]!r}")
            break
        pos = m.end()
        num, name, op = m.groups()
        if num is not None:
            # a plain digit string stays an int: only those are exponents
            out.append(("num", int(num) if num.isdigit() else as_rat(num.replace(" ", ""))))
        elif name is not None:
            out.append(("name", name))
        else:
            out.append((op, None))
    out.append(("end", None))
    return out


def parse_terms(text: str):
    """Parse grammar text into a list of (rational coefficient, {var: exponent})."""
    toks = _tokenize(text)
    if len(toks) == 1:
        raise ParseError("empty expression")
    terms, i = [], 0
    while toks[i][0] != "end":
        if terms and toks[i][0] not in "+-":
            raise ParseError("terms must be joined by + or -")
        sign = Fraction(1)
        while toks[i][0] in "+-":
            if toks[i][0] == "-":
                sign = -sign
            i += 1
        if toks[i][0] == "end":
            raise ParseError("dangling sign")
        coeff, powers = sign, {}
        while True:
            kind, val = toks[i]
            if kind == "num":
                coeff *= val
            elif kind == "name":
                e = 1
                if toks[i + 1][0] == "^":
                    e = toks[i + 2][1]
                    if e.__class__ is not int:
                        raise ParseError("exponent must be a nonnegative integer")
                    i += 2
                elif toks[i + 1][0] == "/":
                    d = toks[i + 2][1]
                    if d.__class__ is not int or not d:
                        raise ParseError("a variable can only be divided by a positive integer")
                    coeff /= d
                    i += 2
                powers[val] = powers.get(val, 0) + e
            else:
                raise ParseError(f"unexpected token in term: {kind!r}")
            i += 1
            if toks[i][0] != "*":
                break
            i += 1
        terms.append((coeff, powers))
    return terms


def format_terms(terms: dict, names: tuple) -> str:
    """Canonical form: graded-lex descending; distinguished power printed first,
    remaining variables alphabetically."""
    if not terms:
        return "0"
    order = [0] + sorted(range(1, len(names)), key=lambda i: names[i])
    pieces = []
    for expo in sorted(terms, key=_glex_key):
        c = terms[expo]
        factors = [f"{names[i]}^{expo[i]}" if expo[i] > 1 else names[i]
                   for i in order if expo[i]]
        mag = abs(c)
        if not factors or mag != 1:
            factors.insert(0, str(mag))
        body = "*".join(factors)
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(("+ " if c > 0 else "- ") + body)
    return " ".join(pieces)
