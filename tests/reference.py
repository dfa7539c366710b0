"""Helpers that only the tests read.

The library reads derivatives only as values at a point
(``algebra.evaluator``'s ``euler``, by the product rule); ``partial`` and
``euler`` build them as rational functions, for the tests to compare
against.  ``eval_word`` multiplies out a word in a semigroup, and
``evaluate_matrix`` reads a transition matrix at a point in Fractions; the
pipeline names elements by their KR vertex and the oracle eliminates in
integers, so neither is needed outside the tests.  ``path_sum`` builds one
vertex's path sum from the root, part by part; the pipeline reads every
path sum off one fold down the tree (``loopkleene.path_sums``).
"""

from fractions import Fraction

from sgmc.algebra import _MASK, Polynomial, RationalFunction, _offset
from sgmc.loopkleene import _product


def poly_partial(p: Polynomial, var: str) -> Polynomial:
    """d p / d var."""
    offset = _offset(var)
    unit = (1 << offset) + 1
    out = {}
    for m, c in p.terms.items():
        e = (m >> offset) & _MASK
        if e:
            out[m - unit] = c * e
    return Polynomial(out)


def _derive(rf: RationalFunction, d) -> RationalFunction:
    """A derivation d of polynomials, extended by the product rule: the
    sum over the pieces p^e of rf of rf * e * d(p) / p."""
    terms = [RationalFunction._form(d(rf.poly), rf.factors)]
    for f, e in rf.factors.items():
        dp = d(f.poly)
        if dp.is_zero():
            continue
        factors = dict(rf.factors)
        if e == 1:
            del factors[f]
        else:
            factors[f] = e - 1
        terms.append(RationalFunction._form(rf.poly * (dp * e), factors))
    return RationalFunction.sum(terms)


def partial(rf: RationalFunction, var: str) -> RationalFunction:
    """d rf / d var, by the product rule over the pieces."""
    return _derive(rf, lambda p: poly_partial(p, var))


def euler(rf: RationalFunction) -> RationalFunction:
    """sum_i x_i d rf / d x_i, by the product rule over the pieces."""
    return _derive(rf, Polynomial.euler)


def eval_word(s, word) -> int:
    """The element of a FiniteSemigroup named by a word of generator labels,
    multiplied out from the identity."""
    eid = s.identity_id
    for label in word:
        eid = s.mul(eid, s.gens[label])
    return eid


def evaluate_matrix(tm, point: dict) -> list:
    """T = sum over generators x of x_x P_x at point, as rows of Fractions,
    rebuilt from a TransitionMatrix's actions: P_x[i][j] = 1 when
    action[j] = i."""
    n = len(tm.states)
    t = [[Fraction(0)] * n for _ in range(n)]
    for x, action in tm.actions.items():
        for j, i in enumerate(action):
            t[i][j] += Fraction(point[x])
    return t


def path_sum(g, stars, path_edges) -> RationalFunction:
    """The path sum at the end of a unique simple path, from ``loop_stars``:
    S(root) x_e1 S(v1) ... multiplied in one product from the root."""
    parts = [stars[g.root], _product(g, stars, path_edges, None)]
    return RationalFunction.product(p for p in parts if p is not None)
