"""Exact sparse multivariate polynomials and rational functions.

A monomial is a tuple of (variable, exponent) pairs, sorted by variable name,
with no zero exponents stored.  A polynomial maps monomials to Fraction
coefficients; zero coefficients are never stored, so equal polynomials have
identical term dictionaries.

A :class:`RationalFunction` is a polynomial times a product of shared
factors raised to integer exponents.  Products add exponents, sums pull out
each factor's smallest exponent and expand only the leftover powers, so
identical factors are never multiplied out; the numerator/denominator pair
is multiplied out only when it is read.  No multivariate gcd is ever
computed: the only cancellation is of identical factors and, in
:func:`limit_at_box_zero`, of powers of the box variable.

Variables are plain strings (a generator label); they render as ``x_<label>``.
Term order everywhere is graded lexicographic: lower total degree first, and
within a degree the lexicographically larger exponent vector first, so that
``x_a^2`` prints before ``x_a*x_b`` before ``x_b^2``.
"""

from __future__ import annotations

import weakref
from fractions import Fraction

from .errors import (
    DivisionByZero,
    NonUnitDenominator,
    PoleAtLimit,
    StarOfUnit,
    ZeroDenominator,
)

Monomial = tuple  # tuple[(str, int), ...] sorted by variable, exponents > 0

_ONE_MONO: Monomial = ()

# Exponent lane width for the packed-integer keys used inside multiplication.
# Total degrees stay far below 2^20, so lane sums never carry.
_LANE = 20
_LANE_MASK = (1 << _LANE) - 1


def _mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    exps = dict(m1)
    for v, e in m2:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def _pack(terms, var_slot):
    """Terms as (packed key, total degree, coefficient) triples."""
    packed = []
    for m, c in terms.items():
        key = 0
        deg = 0
        for v, e in m:
            key += e << var_slot[v]
            deg += e
        packed.append((key, deg, c))
    return packed


def _unpack(out, variables):
    terms = {}
    for key, c in out.items():
        mono = []
        for i, v in enumerate(variables):
            e = (key >> (_LANE * i)) & _LANE_MASK
            if e:
                mono.append((v, e))
        terms[tuple(mono)] = c
    return terms


def mono_key(m: Monomial, variables) -> tuple:
    """Graded-lex sort key for a monomial over an ordered variable list."""
    vec = dict(m)
    return (_mono_degree(m), tuple(-vec.get(v, 0) for v in variables))


class Polynomial:
    """Immutable-by-convention sparse polynomial with Fraction coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {} if terms is None else terms

    @classmethod
    def const(cls, value) -> "Polynomial":
        if type(value) is int:
            return cls({_ONE_MONO: value} if value else {})
        c = Fraction(value)
        if c == 0:
            return cls({})
        return cls({_ONE_MONO: int(c) if c.denominator == 1 else c})

    @classmethod
    def variable(cls, name: str) -> "Polynomial":
        return cls({((name, 1),): 1})

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls({})

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self):
        return self.terms.get(_ONE_MONO, 0)

    def variables(self) -> list:
        seen = set()
        for m in self.terms:
            for v, _ in m:
                seen.add(v)
        return sorted(seen)

    def total_degree(self) -> int:
        return max((_mono_degree(m) for m in self.terms), default=0)

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
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
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
        return self.mul_truncated(other)

    __rmul__ = __mul__

    def mul_truncated(self, other: "Polynomial", bound: int = None) -> "Polynomial":
        """The product, keeping only terms of total degree < bound if given."""
        a, b = self.terms, other.terms
        if not a or not b:
            return Polynomial()
        if len(a) == 1 and _ONE_MONO in a:
            c = a[_ONE_MONO]
            out = {m: c * v for m, v in b.items()}
            return Polynomial(out if bound is None else {
                m: v for m, v in out.items() if _mono_degree(m) < bound
            })
        if len(b) == 1 and _ONE_MONO in b:
            return other.mul_truncated(self, bound)
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1 and bound is None:
            # one term times many: shift monomials, no packing needed
            ((m1, c1),) = a.items()
            return Polynomial({_mono_mul(m1, m2): c1 * c2 for m2, c2 in b.items()})
        variables = sorted(
            {v for m in a for v, _ in m} | {v for m in b for v, _ in m}
        )
        slot = {v: _LANE * i for i, v in enumerate(variables)}
        pa = _pack(a, slot)
        pb = _pack(b, slot)
        if len(pa) > len(pb):
            pa, pb = pb, pa
        out = {}
        get = out.get
        for k1, d1, c1 in pa:
            for k2, d2, c2 in pb:
                if bound is not None and d1 + d2 >= bound:
                    continue
                k = k1 + k2
                s = get(k, 0) + c1 * c2
                if s:
                    out[k] = s
                else:
                    del out[k]
        return Polynomial(_unpack(out, variables))

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def truncate(self, bound: int) -> "Polynomial":
        """Keep only terms of total degree < bound."""
        return Polynomial(
            {m: c for m, c in self.terms.items() if _mono_degree(m) < bound}
        )

    def evaluate(self, point: dict) -> Fraction:
        total = Fraction(0)
        for m, c in self.terms.items():
            val = c
            for v, e in m:
                val *= Fraction(point[v]) ** e
            total += val
        return total

    def substitute(self, var: str, value: "Polynomial") -> "Polynomial":
        """Replace var by a polynomial value, expanding exactly.

        Horner evaluation in var, carried out on packed exponent keys:
        (((A_top * value) + A_top-1) * value + ...) + A_0.
        """
        top = max((dict(m).get(var, 0) for m in self.terms), default=0)
        if top == 0:
            return Polynomial(dict(self.terms))
        variables = sorted(
            (set(self.variables()) - {var}) | set(value.variables())
        )
        slot = {v: _LANE * i for i, v in enumerate(variables)}
        packed_value = {}
        for m, c in value.terms.items():
            packed_value[sum(e << slot[v] for v, e in m)] = c
        layers = [dict() for _ in range(top + 1)]
        for m, c in self.terms.items():
            e = 0
            key = 0
            for v, k in m:
                if v == var:
                    e = k
                else:
                    key += k << slot[v]
            layers[e][key] = c
        acc = layers[top]
        for e in range(top - 1, -1, -1):
            nxt = {}
            get = nxt.get
            for k1, c1 in acc.items():
                for k2, c2 in packed_value.items():
                    k = k1 + k2
                    s = get(k, 0) + c1 * c2
                    if s:
                        nxt[k] = s
                    else:
                        del nxt[k]
            for k, c in layers[e].items():
                s = nxt.get(k, 0) + c
                if s:
                    nxt[k] = s
                else:
                    nxt.pop(k, None)
            acc = nxt
        return Polynomial(_unpack(acc, variables))

    def set_var_zero(self, var: str) -> "Polynomial":
        return Polynomial(
            {m: c for m, c in self.terms.items() if dict(m).get(var, 0) == 0}
        )

    def divide_out(self, var: str):
        """Write self = var^k * rest with rest not divisible by var.

        Returns (k, rest); the zero polynomial returns (0, 0).
        """
        if not self.terms:
            return 0, self
        k = min(dict(m).get(var, 0) for m in self.terms)
        if k == 0:
            return 0, self
        out = {}
        for m, c in self.terms.items():
            exps = dict(m)
            exps[var] -= k
            out[tuple(sorted((v, e) for v, e in exps.items() if e))] = c
        return k, Polynomial(out)

    def partial(self, var: str) -> "Polynomial":
        out = {}
        for m, c in self.terms.items():
            e = dict(m).get(var, 0)
            if not e:
                continue
            exps = dict(m)
            exps[var] -= 1
            mono = tuple(sorted((v, k) for v, k in exps.items() if k))
            out[mono] = out.get(mono, 0) + c * e
        return Polynomial({m: c for m, c in out.items() if c})

    def euler(self) -> "Polynomial":
        """sum_i x_i d/dx_i: each term times its total degree."""
        return Polynomial(
            {m: c * _mono_degree(m) for m, c in self.terms.items() if m}
        )

    def degree_slices(self) -> dict:
        """Split into {total degree: polynomial of that degree}."""
        out = {}
        for m, c in self.terms.items():
            out.setdefault(_mono_degree(m), {})[m] = c
        return {d: Polynomial(t) for d, t in sorted(out.items())}

    def sorted_terms(self):
        variables = self.variables()
        return sorted(self.terms.items(), key=lambda mc: mono_key(mc[0], variables))

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


class _Factor:
    """A polynomial shared by every rational function that uses it.

    Made only by :func:`_factor`, which interns one instance per polynomial,
    so identity is equality and factor dictionaries hash by identity.
    """

    __slots__ = ("poly", "__weakref__")

    def __init__(self, poly: Polynomial):
        self.poly = poly


# Weak, so a factor lives only as long as some rational function uses it.
_INTERNED = weakref.WeakValueDictionary()


def _factor(poly: Polynomial):
    """Split a non-constant polynomial into (scale, interned factor).

    The factor is poly / scale, scaled so that its first term in graded-lex
    order (the constant term, when there is one) has coefficient 1.
    """
    scale = poly.terms.get(_ONE_MONO)
    if scale is None:
        variables = poly.variables()
        scale = poly.terms[min(poly.terms, key=lambda m: mono_key(m, variables))]
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
        if not poly.terms.keys() - {_ONE_MONO}:
            return cls.const(Fraction(poly.constant_term()) ** e)
        scale, factor = _factor(poly)
        return cls._form(Polynomial.const(Fraction(scale) ** e), {factor: e})

    @classmethod
    def sum(cls, parts) -> "RationalFunction":
        """Exact sum that multiplies out only the factors addends do not share.

        Each factor keeps its smallest exponent over the addends; every
        addend is expanded against the rest, so a factor all addends carry
        to the same power is never expanded.
        """
        parts = [p for p in parts if not p.is_zero()]
        if len(parts) < 2:
            return parts[0] if parts else cls.zero()
        lowest = {}
        for p in parts:
            for f in p.factors:
                lowest[f] = 0
        for p in parts:
            for f in lowest:
                e = p.factors.get(f, 0)
                if e < lowest[f]:
                    lowest[f] = e
        total = Polynomial.zero()
        for p in parts:
            term = p.poly
            for f, low in lowest.items():
                extra = p.factors.get(f, 0) - low
                if extra:
                    term = term * f.poly**extra
            total = total + term
        return cls._form(total, {f: e for f, e in lowest.items() if e})

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
        if self.is_zero() or other.is_zero():
            return RationalFunction.zero()
        if not other.factors:
            return RationalFunction._form(self.poly * other.poly, self.factors)
        factors = dict(self.factors)
        for f, e in other.factors.items():
            total = factors.get(f, 0) + e
            if total:
                factors[f] = total
            else:
                del factors[f]
        return RationalFunction._form(self.poly * other.poly, factors)

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
        out = RationalFunction.const(1)
        for poly, e in pieces:
            out = out * RationalFunction.power(poly, e)
        return out

    def equals(self, other) -> bool:
        """True iff self - other is the zero function."""
        return (self - other).is_zero()

    def as_constant(self):
        """The constant this function equals everywhere, or None.

        Detects numerator = c * denominator termwise; no gcd involved.
        """
        if self.is_zero():
            return Fraction(0)
        num, den = self._num_den()
        if len(num.terms) != len(den.terms):
            return None
        mono, den_c = next(iter(den.terms.items()))
        num_c = num.terms.get(mono)
        if num_c is None:
            return None
        ratio = Fraction(num_c, den_c)
        for m, c in den.terms.items():
            if num.terms.get(m) != ratio * c:
                return None
        return ratio

    def variables(self) -> list:
        return sorted({v for poly, _ in self.pieces() for v in poly.variables()})

    def evaluate(self, point: dict) -> Fraction:
        """The value at point, one piece at a time."""
        value = Fraction(1)
        for poly, e in self.pieces():
            v = poly.evaluate(point)
            if v == 0 and e < 0:
                raise ZeroDenominator(f"denominator vanishes at {point_str(point)}")
            value *= v**e
        return value

    def substitute(self, var: str, value: Polynomial) -> "RationalFunction":
        """Replace var by a polynomial, one piece at a time."""
        pieces = [(p.substitute(var, value), e) for p, e in self.pieces()]
        if any(p.is_zero() and e < 0 for p, e in pieces):
            raise ZeroDenominator(
                f"substituting {var} makes the denominator identically zero"
            )
        return RationalFunction._product(pieces)

    def _derive(self, d) -> "RationalFunction":
        """A derivation d of polynomials, extended by the product rule: the
        sum over the pieces p^e of self * e * d(p) / p."""
        terms = [RationalFunction._form(d(self.poly), self.factors)]
        for f, e in self.factors.items():
            dp = d(f.poly)
            if dp.is_zero():
                continue
            factors = dict(self.factors)
            if e == 1:
                del factors[f]
            else:
                factors[f] = e - 1
            terms.append(RationalFunction._form(self.poly * (dp * e), factors))
        return RationalFunction.sum(terms)

    def partial(self, var: str) -> "RationalFunction":
        """d self / d var, by the product rule over the pieces."""
        return self._derive(lambda p: p.partial(var))

    def euler(self) -> "RationalFunction":
        """sum_i x_i d self / d x_i, by the product rule over the pieces."""
        return self._derive(Polynomial.euler)

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

    def series(self, bound: int) -> Polynomial:
        """Power-series coefficients of total degree < bound.

        Works by iterated truncated multiplication with u = 1 - den/c, which
        has zero constant term, so u^k only contributes degrees >= k.
        """
        num, den = self._num_den()
        c = den.constant_term()
        if c == 0:
            raise NonUnitDenominator(
                "series requires a denominator with nonzero constant term"
            )
        if bound <= 0:
            return Polynomial.zero()
        u = (Polynomial.const(1) - den * Fraction(1, c)).truncate(bound)
        inv = Polynomial.const(1)
        acc = Polynomial.const(1)
        for _ in range(1, bound):
            acc = acc.mul_truncated(u, bound)
            if acc.is_zero():
                break
            inv = inv + acc
        return num.truncate(bound).mul_truncated(inv, bound) * Fraction(1, c)

    def __str__(self):
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RationalFunction({self})"


def limit_at_box_zero(
    r: RationalFunction, box_var: str, elim_var: str, generator_vars
) -> RationalFunction:
    """The limit box -> 0 under the constraint sum(generators) + box = 1.

    Works one piece of r at a time: eliminates elim_var as
    1 - (other generators) - box, divides the largest box power out of each
    piece, and adds up the box orders weighted by the exponents.  A positive
    total gives 0, zero gives the product of the pieces at box = 0, and a
    negative one raises PoleAtLimit.  The result is in the remaining
    generator variables, to be read with elim_var = 1 - sum(others).
    """
    if elim_var not in generator_vars:
        raise ValueError(f"{elim_var!r} is not a generator variable")
    repl = Polynomial.const(1) - Polynomial.variable(box_var)
    for v in generator_vars:
        if v != elim_var:
            repl = repl - Polynomial.variable(v)
    order = 0
    at_zero = []
    for poly, e in r.substitute(elim_var, repl).pieces():
        k, rest = poly.divide_out(box_var)
        order += k * e
        at_zero.append((rest.set_var_zero(box_var), e))
    if order < 0:
        raise PoleAtLimit(f"box order {order} below zero")
    return RationalFunction._product(at_zero) if order == 0 else RationalFunction.zero()
