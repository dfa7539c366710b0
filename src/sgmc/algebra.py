"""Exact sparse multivariate polynomials and rational functions.

A polynomial maps monomials to Fraction (or int) coefficients; zero
coefficients are never stored, so equal polynomials have identical term
dictionaries.  A monomial is one packed integer key.  Lane 0 (the low 20
bits) holds its total degree, and each variable owns a 20-bit lane above it,
assigned on first use by a module-wide table, so a key names the same
monomial in every polynomial.  The product of two monomials is the sum of
their keys, degree lane included.  Total degrees stay below 2^20, so no lane
ever carries into the next.  A key is decoded to ``((variable, exponent),
...)`` pairs only for printing, by :meth:`Polynomial.sorted_terms`.
A polynomial is evaluated at a point in Python integers, over one common
denominator (:meth:`Polynomial.evaluate`); a rational function is read by an
:func:`evaluator`, which evaluates each distinct factor once per point.

A :class:`RationalFunction` is a polynomial times a product of shared
factors raised to integer exponents.  Every product of functions is
made in one pass: the constants and monomials of one-term polys multiply
as numbers and keys, and the factor exponents add up in one dict.  A sum
first adds, as polynomials, the addends that carry the same factors to the
same exponents (one signature); it then pulls out each factor's smallest
exponent and expands only the leftover powers, once per signature, so
identical factors are never multiplied out; the numerator/denominator pair
is multiplied out only when it is read.  No multivariate gcd is ever
computed: the only cancellation is of identical factors and, in
:func:`limit_at_box_zero`, of powers of the box variable.  That limit is
taken once per interned factor and kept on it, as long as the factor lives,
so the loop-star factors that many path sums share are substituted once.
Two non-constant polynomials intern to one factor exactly when one is a
constant multiple of the other; that is the one proportionality test.

Variables are plain strings (a generator label); they render as ``x_<label>``.
Term order everywhere is graded lexicographic over the variables in name
order: lower total degree first, and within a degree the lexicographically
larger exponent vector first, so that ``x_a^2`` prints before ``x_a*x_b``
before ``x_b^2``.  Prints never depend on the order lanes were assigned in.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from functools import cache, lru_cache, reduce
from itertools import accumulate, repeat
from math import lcm, prod
from operator import mul

from .errors import (
    DivisionByZero,
    NonUnitDenominator,
    PoleAtLimit,
    StarOfUnit,
    ZeroDenominator,
)

_LANE = 20
_MASK = (1 << _LANE) - 1

# Variable -> bit offset of its lane; lane 0 is the total degree.
_OFFSET = {}


def _offset(var: str) -> int:
    """The bit offset of var's lane, assigning the next lane on first use."""
    offset = _OFFSET.get(var)
    if offset is None:
        offset = _OFFSET[var] = _LANE * (len(_OFFSET) + 1)
    return offset


def _fraction(x) -> Fraction:
    """x as a Fraction, without a copy when it is one."""
    return x if type(x) is Fraction else Fraction(x)


def _powers(base: int, top: int) -> list:
    """[base^0, base^1, ..., base^top]."""
    return list(accumulate(repeat(base, top), mul, initial=1))


def _add_terms(out: dict, terms: dict):
    """Add the terms of one polynomial to the term dict out, in place."""
    get = out.get
    for m, c in terms.items():
        total = get(m, 0) + c
        if total:
            out[m] = total
        else:
            del out[m]


class Polynomial:
    """Immutable-by-convention sparse polynomial with Fraction coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {} if terms is None else terms

    @classmethod
    def const(cls, value) -> "Polynomial":
        if type(value) is int:
            return cls({0: value} if value else {})
        c = Fraction(value)
        if c == 0:
            return cls({})
        return cls({0: int(c) if c.denominator == 1 else c})

    @classmethod
    def variable(cls, name: str) -> "Polynomial":
        return cls({(1 << _offset(name)) + 1: 1})

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls({})

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self):
        return self.terms.get(0, 0)

    def _lanes(self) -> list:
        """[(variable, lane offset)] of the variables that occur, by name."""
        used = 0
        for key in self.terms:
            used |= key
        return sorted(
            (v, offset) for v, offset in _OFFSET.items() if (used >> offset) & _MASK
        )

    def variables(self) -> list:
        return [v for v, _ in self._lanes()]

    def total_degree(self) -> int:
        return max((key & _MASK for key in self.terms), default=0)

    @staticmethod
    def _coerce(other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.const(other)
        return NotImplemented

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        _add_terms(out, other.terms)
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out = {}
        get = out.get
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = k1 + k2
                s = get(k, 0) + c1 * c2
                if s:
                    out[k] = s
                else:
                    del out[k]
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        return reduce(mul, repeat(self, n), Polynomial.const(1))

    def evaluate(self, point: dict) -> Fraction:
        """The value at point, summed in integers over one common denominator.

        With every coordinate written a_v / L over the lcm L of their
        denominators and D the total degree, the value is
        sum c * prod a_v^e_v * L^(D - deg) over L^D.  The powers of the a_v
        and of L are made once; the integer sums are kept by the denominator
        of c, and one Fraction is made at the end.
        """
        terms = self.terms
        if not terms:
            return Fraction(0)
        try:
            coords = [(offset, _fraction(point[v])) for v, offset in self._lanes()]
        except KeyError as missing:
            raise ValueError(f"point has no value for x_{missing.args[0]}") from None
        common = lcm(*(x.denominator for _, x in coords))
        top = self.total_degree()
        lanes = [
            (offset, _powers(x.numerator * (common // x.denominator), top))
            for offset, x in coords
        ]
        scale = _powers(common, top)
        sums = {}  # denominator of c -> sum of its terms, in integers
        for m, c in terms.items():
            value = scale[top - (m & _MASK)]
            for offset, powers in lanes:
                e = (m >> offset) & _MASK
                if e:
                    value *= powers[e]
            if type(c) is int:
                sums[1] = sums.get(1, 0) + c * value
            else:
                d = c.denominator
                sums[d] = sums.get(d, 0) + c.numerator * value
        den = lcm(*sums)
        num = sum(total * (den // d) for d, total in sums.items())
        return Fraction(num, den * scale[top])

    def degree_values(self, point: dict, bound: int) -> list:
        """[value at point of the terms of total degree k, for k < bound].

        Coordinates are used as given, so integer ones keep the sums integer.
        """
        try:
            lanes = [(offset, point[v]) for v, offset in self._lanes()]
        except KeyError as missing:
            raise ValueError(f"point has no value for x_{missing.args[0]}") from None
        values = [0] * max(bound, 0)
        for m, c in self.terms.items():
            degree = m & _MASK
            if degree < bound:
                for offset, x in lanes:
                    e = (m >> offset) & _MASK
                    if e:
                        c *= x**e
                values[degree] += c
        return values

    def substitute(self, var: str, value: "Polynomial") -> "Polynomial":
        """Replace var by a polynomial value, expanding exactly.

        Horner evaluation in var: (((A_top * value) + A_top-1) * value + ...)
        + A_0, where A_e holds the terms with var^e, var^e divided out.
        """
        offset = _offset(var)
        unit = (1 << offset) + 1
        layers = {}
        for m, c in self.terms.items():
            e = (m >> offset) & _MASK
            layers.setdefault(e, {})[m - e * unit] = c
        top = max(layers, default=0)
        acc = Polynomial(layers.get(top))
        for e in range(top - 1, -1, -1):
            acc = acc * value + Polynomial(layers.get(e))
        return acc

    def set_var_zero(self, var: str) -> "Polynomial":
        offset = _offset(var)
        return Polynomial(
            {m: c for m, c in self.terms.items() if not (m >> offset) & _MASK}
        )

    def divide_out(self, var: str):
        """Write self = var^k * rest with rest not divisible by var.

        Returns (k, rest); the zero polynomial returns (0, 0).
        """
        offset = _offset(var)
        k = min(((m >> offset) & _MASK for m in self.terms), default=0)
        if k == 0:
            return 0, self
        shift = k * ((1 << offset) + 1)
        return k, Polynomial({m - shift: c for m, c in self.terms.items()})

    def euler(self) -> "Polynomial":
        """sum_i x_i d/dx_i: each term times its total degree."""
        return Polynomial({m: c * (m & _MASK) for m, c in self.terms.items() if m})

    def sorted_terms(self) -> list:
        """[(((variable, exponent), ...), coefficient)] in graded-lex order.

        The one place a key is decoded; variables are in name order, and
        only positive exponents are listed.
        """
        lanes = self._lanes()
        rows = []
        for m, c in self.terms.items():
            exps = [(v, (m >> offset) & _MASK) for v, offset in lanes]
            order = (m & _MASK, [-e for _, e in exps])
            rows.append((order, tuple((v, e) for v, e in exps if e), c))
        rows.sort(key=lambda row: row[0])
        return [(mono, c) for _, mono, c in rows]

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            factors = "*".join(
                f"x_{v}" if e == 1 else f"x_{v}^{e}" for v, e in m
            )
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = factors
            else:
                body = f"{abs(c)}*{factors}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"Polynomial({self})"


def point_str(point) -> str:
    """A point as ``x_a=1/2, x_b=1/2``, in variable order."""
    return ", ".join(f"x_{k}={v}" for k, v in sorted(point.items()))


def integer_point(values: dict):
    """(L, a): L the lcm of the denominators of the rational values, and
    a = L * values in integers, under the same keys.  The values are read as
    Fractions, as Polynomial.evaluate reads a point's coordinates."""
    values = {k: _fraction(x) for k, x in values.items()}
    common = lcm(*[x.denominator for x in values.values()])
    return common, {
        k: x.numerator * (common // x.denominator) for k, x in values.items()
    }


def stochastic_complement(elim_var: str, generator_vars, box_var=None) -> Polynomial:
    """elim_var under the stochastic constraint: 1 - (other generators) [- box].

    The generators, plus the box variable when there is one, sum to 1.
    """
    value = Polynomial.const(1)
    if box_var is not None:
        value = value - Polynomial.variable(box_var)
    for v in generator_vars:
        if v != elim_var:
            value = value - Polynomial.variable(v)
    return value


class _Factor:
    """A polynomial shared by every rational function that uses it.

    Made only by :func:`_factor`, which interns one instance per polynomial,
    so identity is equality and factor dictionaries hash by identity.
    """

    __slots__ = ("poly", "memo", "__weakref__")

    def __init__(self, poly: Polynomial):
        self.poly = poly
        # its box limits, keyed by (box, elim, generators), made on first
        # use and kept as long as the factor (see limit_at_box_zero)
        self.memo = None


# Weak, so a factor lives only as long as some rational function uses it.
_INTERNED = weakref.WeakValueDictionary()


@lru_cache(maxsize=64)
def _complement_power(elim_var: str, generator_vars: tuple, k: int) -> Polynomial:
    """(1 - others)^k, elim_var's value to the k under the constraint."""
    return stochastic_complement(elim_var, generator_vars) ** k


def _factor(poly: Polynomial):
    """Split a non-constant polynomial into (scale, interned factor).

    The factor is poly / scale, scaled so that its first term in graded-lex
    order (the constant term, when there is one) has coefficient 1.  That
    term is found without sorting when it is the only one of lowest degree.
    """
    scale = poly.constant_term()
    if not scale:
        low = min(m & _MASK for m in poly.terms)
        lowest = [c for m, c in poly.terms.items() if m & _MASK == low]
        scale = lowest[0] if len(lowest) == 1 else poly.sorted_terms()[0][1]
    if scale != 1:
        poly = poly * Fraction(1, scale)
    key = frozenset(poly.terms.items())
    factor = _INTERNED.get(key)
    if factor is None:
        factor = _INTERNED[key] = _Factor(poly)
    return scale, factor


class RationalFunction:
    """A rational function as poly * prod(factor^e), with integer e != 0.

    Factors are interned polynomials scaled to a leading coefficient of 1;
    any constant is carried by poly, and zero is poly = 0 with no factors.
    Equality of factors is identity of polynomials, never a gcd, so equal
    values can have different forms; :meth:`equals` compares values.  The
    numerator and denominator (:attr:`num`, :attr:`den`) are multiplied out
    on first use and kept.
    """

    __slots__ = ("poly", "factors", "_pair")

    def __init__(self, num: Polynomial, den: Polynomial = None):
        """num / den, with den kept as one factor."""
        self.poly = num
        self.factors = {}
        self._pair = None
        if den is not None:
            if den.is_zero():
                raise ZeroDenominator("denominator is identically zero")
            quotient = self * RationalFunction.power(den, -1)
            self.poly, self.factors = quotient.poly, quotient.factors

    @classmethod
    def _form(cls, poly: Polynomial, factors: dict) -> "RationalFunction":
        """poly * prod(factor^e) from its parts; a zero poly drops the factors."""
        rf = cls(poly)
        if not poly.is_zero():
            rf.factors = factors
        return rf

    @classmethod
    def const(cls, value) -> "RationalFunction":
        return cls(Polynomial.const(value))

    @classmethod
    def variable(cls, name: str) -> "RationalFunction":
        return cls(Polynomial.variable(name))

    @classmethod
    def zero(cls) -> "RationalFunction":
        return cls(Polynomial.zero())

    @classmethod
    def power(cls, poly: Polynomial, e: int) -> "RationalFunction":
        """poly^e, with poly kept as one factor."""
        if poly.is_zero():
            if e < 0:
                raise DivisionByZero("negative power of the zero polynomial")
            return cls.zero()
        if poly.total_degree() == 0:
            return cls.const(Fraction(poly.constant_term()) ** e)
        scale, factor = _factor(poly)
        return cls._form(Polynomial.const(Fraction(scale) ** e), {factor: e})

    @classmethod
    def sum(cls, parts) -> "RationalFunction":
        """Exact sum that multiplies out only the factors addends do not share.

        Addends with the same factors to the same exponents (one signature)
        are added as polynomials first, with no product.  Each factor then
        keeps its smallest exponent, if negative, over the signatures, and
        each signature's sum is multiplied by the powers its factors carry
        above that, so a factor every addend carries to the same negative
        power is never expanded.  A signature whose sum cancels still counts
        for the smallest exponents, so the form does not depend on the order
        or grouping of the addends.
        """
        parts = [p for p in parts if p.poly.terms]
        if len(parts) < 2:
            return parts[0] if parts else cls.zero()
        groups = {}  # signature -> (factors, summed terms)
        for p in parts:
            signature = frozenset(p.factors.items())
            group = groups.get(signature)
            if group is None:
                groups[signature] = (p.factors, dict(p.poly.terms))
            else:
                _add_terms(group[1], p.poly.terms)
        lowest = {}
        for factors, _ in groups.values():
            for f, e in factors.items():
                if e < lowest.get(f, 0):
                    lowest[f] = e
        powers = {}  # (factor, exponent) -> factor.poly ** exponent
        total = {}
        for factors, terms in groups.values():
            if not terms:
                continue
            lifts = [(f, e - lowest.get(f, 0)) for f, e in factors.items()]
            lifts += [(f, -low) for f, low in lowest.items() if f not in factors]
            lift = []
            for f, e in lifts:
                if e:
                    power = powers.get((f, e))
                    if power is None:
                        power = powers[f, e] = f.poly**e
                    lift.append(power)
            # the powers are multiplied together first, the largest first,
            # and then the sum; that costs less than multiplying the sum by
            # one power after another
            term = Polynomial(terms)
            if lift:
                lift.sort(key=lambda power: len(power.terms), reverse=True)
                term = term * reduce(mul, lift)
            _add_terms(total, term.terms)
        return cls._form(Polynomial(total), lowest)

    @classmethod
    def product(cls, parts) -> "RationalFunction":
        """The product of parts in one pass, left to right.

        The constants and monomials of single-term polys are multiplied as
        numbers and keys, and a poly of several terms is multiplied in as a
        polynomial.  The first part's factors are copied as one dict and
        the later parts' exponents added to it, so a first part of many
        factors, such as a path-sum prefix, costs no Python step per factor;
        factors whose exponents cancel are dropped once, at the end, where
        the result is made.
        """
        key, coeff = 0, 1
        poly = None  # the product of the polys of several terms
        factors = None
        cancelled = False
        for p in parts:
            terms = p.poly.terms
            if len(terms) == 1:
                for k, c in terms.items():
                    key += k
                    coeff *= c
            elif not terms:
                return cls.zero()
            else:
                poly = p.poly if poly is None else poly * p.poly
            if factors is None:
                factors = dict(p.factors)
                get = factors.get
                continue
            for f, e in p.factors.items():
                e += get(f, 0)
                factors[f] = e
                cancelled = cancelled or not e
        out = Polynomial({key: coeff})
        if poly is not None:
            out = out * poly
        if cancelled:
            factors = {f: e for f, e in factors.items() if e}
        return cls._form(out, factors or {})

    @staticmethod
    def _coerce(other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, Polynomial):
            return RationalFunction(other)
        if isinstance(other, (int, Fraction)):
            return RationalFunction.const(other)
        return NotImplemented

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction.sum((self, other))

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction._form(-self.poly, self.factors)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction.product((self, other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        """self times every piece of other with its exponent negated."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise DivisionByZero("division by the zero rational function")
        return self * RationalFunction._product((p, -e) for p, e in other.pieces())

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    @property
    def num(self) -> Polynomial:
        """poly times the factors of positive exponent, multiplied out."""
        return self._num_den()[0]

    @property
    def den(self) -> Polynomial:
        """The factors of negative exponent, multiplied out."""
        return self._num_den()[1]

    def _num_den(self):
        if self._pair is None:
            num = self.poly
            den = Polynomial.const(1)
            for f, e in self.factors.items():
                if e > 0:
                    num = num * (f.poly if e == 1 else f.poly**e)
                else:
                    den = den * (f.poly if e == -1 else f.poly**-e)
            self._pair = (num, den)
        return self._pair

    def pieces(self) -> list:
        """[(polynomial, exponent)]: poly with exponent 1, then every factor."""
        return [(self.poly, 1), *((f.poly, e) for f, e in self.factors.items())]

    @staticmethod
    def _product(pieces) -> "RationalFunction":
        return RationalFunction.product(RationalFunction.power(p, e) for p, e in pieces)

    def equals(self, other) -> bool:
        """True iff self - other is the zero function."""
        return (self - other).is_zero()

    def variables(self) -> list:
        return sorted({v for poly, _ in self.pieces() for v in poly.variables()})

    def evaluate(self, point: dict) -> Fraction:
        """The value at point, read by a fresh :func:`evaluator`."""
        return evaluator(point)(self)

    def substitute(self, var: str, value: Polynomial) -> "RationalFunction":
        """Replace var by a polynomial, one piece at a time."""
        pieces = [(p.substitute(var, value), e) for p, e in self.pieces()]
        if any(p.is_zero() and e < 0 for p, e in pieces):
            raise ZeroDenominator(
                f"substituting {var} makes the denominator identically zero"
            )
        return RationalFunction._product(pieces)

    def star(self) -> "RationalFunction":
        """The geometric series 1/(1 - f): for f = P/Q this is Q * (Q - P)^-1.

        Q keeps its factors, now with positive exponents, and Q - P becomes
        one new factor.
        """
        p, q = self._num_den()
        if q.constant_term() == 0:
            raise StarOfUnit("star argument has no series at the origin")
        if p.constant_term() != 0:
            raise StarOfUnit(
                "star argument accepts the empty word; geometric series diverges"
            )
        top = RationalFunction._form(
            Polynomial.const(1), {f: -e for f, e in self.factors.items() if e < 0}
        )
        return top * RationalFunction.power(q - p, -1)

    def series_at(self, point: dict, bound: int) -> list:
        """[s_k at point, for k < bound], s_k the power-series terms of total
        degree k.

        From num = den * s degree by degree: with N_k and D_k the degree-k
        parts of num and den at point, s_k = (N_k - sum_{i>=1} D_i s_{k-i}) / D_0.
        D_0 is den's constant term: 1, as every factor is scaled to a constant
        term of 1 when it has one, or 0.  So integer coordinates give integers.
        """
        num, den = self._num_den()
        if den.constant_term() == 0:
            raise NonUnitDenominator(
                "series requires a denominator with nonzero constant term"
            )
        d = den.degree_values(point, bound)
        s = []
        for k, value in enumerate(num.degree_values(point, bound)):
            for i in range(1, k + 1):
                if d[i]:
                    value -= d[i] * s[k - i]
            s.append(value)
        return s

    def __str__(self):
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RationalFunction({self})"


def evaluator(point: dict):
    """value(rf): rf's value at point, rf.poly times each factor's value, and
    value.euler(rf): the value there of D rf, D = sum_i x_i d/dx_i, by the
    product rule.
    Each distinct factor, and its Euler derivative, is evaluated once for as
    long as value lives."""
    factor_value = cache(lambda f: f.poly.evaluate(point))
    factor_euler = cache(lambda f: f.poly.euler().evaluate(point))

    def vanishes():
        return ZeroDenominator(f"denominator vanishes at {point_str(point)}")

    def value(rf: RationalFunction) -> Fraction:
        out = rf.poly.evaluate(point)
        for f, e in rf.factors.items():
            v = factor_value(f)
            if v == 0 and e < 0:
                raise vanishes()
            out *= v**e
        return out

    def euler(rf: RationalFunction) -> Fraction:
        """The sum over the pieces p^e of e * D(p) * p^(e-1) times the other
        pieces, from the pieces' values: no symbolic sum is built."""
        pieces = [(rf.poly.evaluate(point), rf.poly.euler().evaluate(point), 1)]
        for f, e in rf.factors.items():
            v = factor_value(f)
            if v == 0 and e < 0:
                raise vanishes()
            pieces.append((v, factor_euler(f), e))
        out = Fraction(0)
        for j, (v, dv, e) in enumerate(pieces):
            if dv:
                others = prod(u**k for i, (u, _, k) in enumerate(pieces) if i != j)
                out += e * dv * v ** (e - 1) * others
        return out

    value.euler = euler
    return value


def limit_at_box_zero(
    r: RationalFunction, box_var: str, elim_var: str, generator_vars
) -> RationalFunction:
    """The limit box -> 0 under the constraint sum(generators) + box = 1.

    Works one piece of r at a time.  A piece's limit is its box order and
    its value at box = 0: elim_var is replaced by 1 - (other generators) -
    box, the largest power of box is divided out, and box is set to 0.  A
    factor's limit is taken once and kept on the interned factor, keyed by
    (box_var, elim_var, generators), so the loop-star factors that every
    path sum repeats are substituted once.  A poly of one term c * x^m is
    not substituted: with k the exponent of elim_var in m, its value at
    box = 0 is c times x^m less elim_var and box times (1 - others)^k, made
    by shifting the keys of that power, which is kept for the constraint
    and k (``_complement_power``); its box order is the exponent of box in m.

    The box orders, weighted by the exponents, add up to the order of r.  A
    positive total gives 0, zero gives the product of the pieces at box = 0,
    and a negative one raises PoleAtLimit.  The result is in the remaining
    generator variables, to be read with elim_var = 1 - sum(others).
    """
    if elim_var not in generator_vars:
        raise ValueError(f"{elim_var!r} is not a generator variable")
    key = (box_var, elim_var, tuple(generator_vars))
    limits = []  # (exponent, (box order, scale, factor or None at box = 0))
    for f, e in ((None, 1), *r.factors.items()):
        limit = None if f is None or f.memo is None else f.memo.get(key)
        if limit is None:
            poly = r.poly if f is None else f.poly
            if f is None and len(poly.terms) == 1:
                ((m, c),) = poly.terms.items()
                elim, box = _offset(elim_var), _offset(box_var)
                k, order = (m >> elim) & _MASK, (m >> box) & _MASK
                m -= k * ((1 << elim) + 1) + order * ((1 << box) + 1)
                power = _complement_power(elim_var, tuple(generator_vars), k)
                at_zero = Polynomial({m + p: c * v for p, v in power.terms.items()})
            else:
                repl = stochastic_complement(elim_var, generator_vars, box_var)
                order, rest = poly.substitute(elim_var, repl).divide_out(box_var)
                at_zero = rest.set_var_zero(box_var)
            if at_zero.total_degree():
                limit = (order, *_factor(at_zero))
            else:
                limit = (order, at_zero.constant_term(), None)
            if f is not None:
                if f.memo is None:
                    f.memo = {}
                f.memo[key] = limit
        limits.append((e, limit))
    if any(scale == 0 and e < 0 for e, (_, scale, _) in limits):
        raise ZeroDenominator(
            f"substituting {elim_var} makes the denominator identically zero"
        )
    if any(scale == 0 for _, (_, scale, _) in limits):
        return RationalFunction.zero()
    order = sum(k * e for e, (k, _, _) in limits)
    if order < 0:
        raise PoleAtLimit(f"box order {order} below zero")
    if order > 0:
        return RationalFunction.zero()
    # the product of the pieces scale^e * g^e, in the form product gives,
    # multiplied here as numbers and exponents: a limit read back from the
    # factors took 30-50 % longer when each piece was a RationalFunction
    coeff = 1
    factors = {}
    for e, (_, scale, g) in limits:
        if scale != 1:
            coeff *= Fraction(scale) ** e
        if g is not None:
            factors[g] = factors.get(g, 0) + e
    return RationalFunction._form(
        Polynomial.const(coeff), {g: e for g, e in factors.items() if e}
    )
