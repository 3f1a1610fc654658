"""Exact multivariate polynomials over the rationals with a small Buchberger
engine: normal forms, reduced bases, ideal membership, radical membership
via the extra-variable trick, and intersections via elimination.

A coefficient is an int or a Fraction: arithmetic on ints stays in ints,
and a division (`_div`) makes a Fraction only when the quotient is not
integral.

Everything is deterministic: fixed variable order, graded reverse
lexicographic comparisons by default, normal pair selection, and reduced
monic output sorted by leading monomial.

A polynomial computes its leading term once, on first use, and keeps it
(nothing mutates ``terms`` after construction).  `buchberger` keeps the
pending S-pairs in a heap keyed by (degree of the lcm of the leads,
pair).  The keys are unique, so the pairs come out in the same order as a
scan for the smallest key would pick them: the heap changes the cost of
the selection, not the basis sequence or the reduced output.  Next to each
basis member it keeps the support mask of its leading monomial (bit t set
iff variable t occurs), which decides the coprime test and rules out most
divisibility tests with one ``&``."""

from __future__ import annotations

import heapq
import re
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import compress
from operator import add, le, sub
from typing import Optional, Sequence, Union

__all__ = [
    "PolyRing",
    "Polynomial",
    "Ideal",
    "GroebnerBasis",
    "PolyTimeout",
    "parse_polynomial",
    "normal_form",
    "buchberger",
    "membership",
    "radical_membership",
    "intersect",
    "ideal_equal",
]

Expo = tuple  # exponent vector
Coef = Union[int, Fraction]  # see Polynomial
OrderTag = Union[str, tuple]  # "grevlex" | "lex" | ("block", k)


class PolyTimeout(Exception):
    """A Groebner computation exceeded its deadline."""


def _coef(c) -> Coef:
    """c as an exact coefficient: an int when it is integral."""
    if type(c) is int:
        return c
    if not isinstance(c, Fraction):
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _div(a: Coef, b: Coef) -> Coef:
    """The exact quotient a / b: an int when b divides a, else a Fraction
    (never ``/`` on two ints, which would give a float)."""
    if type(a) is int and type(b) is int and a % b == 0:
        return a // b
    return _coef(Fraction(a, b))


def _grevlex_key(e: Expo):
    return (sum(e), tuple(-x for x in reversed(e)))


@dataclass(frozen=True)
class PolyRing:
    variables: tuple[str, ...]
    order: OrderTag = "grevlex"

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        if isinstance(self.order, tuple):
            tag, k = self.order
            if tag != "block" or not 0 < k < len(self.variables):
                raise ValueError(f"bad order {self.order}")
        elif self.order not in ("grevlex", "lex"):
            raise ValueError(f"bad order {self.order}")

    def key(self, e: Expo):
        """Sort key: ascending in the ring's monomial order."""
        if self.order == "grevlex":
            return _grevlex_key(e)
        if self.order == "lex":
            return tuple(e)
        _, k = self.order
        return (_grevlex_key(e[:k]), _grevlex_key(e[k:]))

    def var(self, name: str) -> "Polynomial":
        i = self.variables.index(name)
        e = tuple(1 if j == i else 0 for j in range(len(self.variables)))
        return Polynomial(self, {e: 1})

    def const(self, c) -> "Polynomial":
        c = _coef(c)
        return Polynomial(self, {} if c == 0 else {(0,) * len(self.variables): c})


class Polynomial:
    """Exact polynomial: map from exponent vector to nonzero coefficient.

    A coefficient is an int or a Fraction.  Sums, differences and products
    of ints stay ints, and `PolyRing.const` and `scale` turn an integral
    argument into an int.  The divisions (`_div`: normal-form steps,
    S-polynomials, `monic`) return an int when the quotient is integral
    and a Fraction otherwise; arithmetic on Fractions may still leave an
    integral Fraction.  Since ``Fraction(n) == n`` and
    ``hash(Fraction(n)) == hash(n)``, the type of an integral coefficient
    changes neither ``==``, ``hash`` nor ``str``."""

    __slots__ = ("ring", "terms", "_lead")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = {e: c for e, c in terms.items() if c != 0}
        self._lead: Optional[tuple[Expo, Coef]] = None

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "Polynomial"):
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("polynomials from different rings")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return Polynomial(self.ring, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) - c
        return Polynomial(self.ring, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return Polynomial(self.ring, out)

    def scale(self, c) -> "Polynomial":
        c = _coef(c)
        return Polynomial(self.ring, {e: v * c for e, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    def leading(self) -> tuple[Expo, Coef]:
        if self._lead is None:
            if not self.terms:
                raise ValueError("zero polynomial has no leading term")
            e = max(self.terms, key=self.ring.key)
            self._lead = (e, self.terms[e])
        return self._lead

    def monic(self) -> "Polynomial":
        _, c = self.leading()
        return Polynomial(self.ring, {e: _div(v, c) for e, v in self.terms.items()})

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names = self.ring.variables
        items = sorted(self.terms.items(), key=lambda t: self.ring.key(t[0]), reverse=True)
        parts = []
        for e, c in items:
            factors = []
            for name, k in zip(names, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = str(mag) + "*" + "*".join(factors)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"<{self}>"


@dataclass(frozen=True)
class Ideal:
    ring: PolyRing
    generators: tuple[Polynomial, ...]


@dataclass(frozen=True)
class GroebnerBasis:
    ring: PolyRing
    polys: tuple[Polynomial, ...]


_TOKEN = re.compile(r"\s*(?:(\d+(?:/\d+)?)|([A-Za-z_][A-Za-z0-9_]*)|([-+*^()]))")


def parse_polynomial(ring: PolyRing, text: str) -> Polynomial:
    """Parse sums of products: rational coefficients, `*`, `^`, variables."""
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ValueError(f"cannot tokenize {text[pos:]!r}")
            break
        tokens.append(m.group(1) or m.group(2) or m.group(3))
        pos = m.end()
    idx = 0

    def peek() -> Optional[str]:
        return tokens[idx] if idx < len(tokens) else None

    def take() -> str:
        nonlocal idx
        idx += 1
        return tokens[idx - 1]

    def factor() -> Polynomial:
        tok = peek()
        if tok is None:
            raise ValueError("unexpected end of input")
        if tok == "(":
            take()
            p = expression()
            if peek() != ")":
                raise ValueError("missing closing parenthesis")
            take()
        elif re.fullmatch(r"\d+(/\d+)?", tok):
            take()
            p = ring.const(Fraction(tok))
        else:
            take()
            if tok not in ring.variables:
                raise ValueError(f"unknown variable {tok!r}")
            p = ring.var(tok)
        if peek() == "^":
            take()
            exp_tok = take()
            if not exp_tok.isdigit():
                raise ValueError("exponent must be a nonnegative integer")
            out = ring.const(1)
            for _ in range(int(exp_tok)):
                out = out * p
            p = out
        return p

    def term() -> Polynomial:
        p = factor()
        while peek() == "*":
            take()
            p = p * factor()
        return p

    def expression() -> Polynomial:
        sign = 1
        while peek() in ("+", "-"):
            if take() == "-":
                sign = -sign
        p = term().scale(sign)
        while peek() in ("+", "-"):
            sign = 1
            while peek() in ("+", "-"):
                if take() == "-":
                    sign = -sign
            p = p + term().scale(sign)
        return p

    out = expression()
    if idx != len(tokens):
        raise ValueError(f"trailing tokens: {tokens[idx:]}")
    return out


def _divides(a: Expo, b: Expo) -> bool:
    return all(map(le, a, b))


def _expo_sub(a: Expo, b: Expo) -> Expo:
    return tuple(map(sub, a, b))


def _expo_lcm(a: Expo, b: Expo) -> Expo:
    return tuple(map(max, a, b))


def _mono_times(p: Polynomial, e: Expo, c: Coef) -> Polynomial:
    return Polynomial(p.ring, {tuple(map(add, e, t)): c * v for t, v in p.terms.items()})


@cache
def _bits(n: int) -> tuple[int, ...]:
    return tuple(1 << t for t in range(n))


def _support(e: Expo) -> int:
    """Support mask of a monomial: bit t is set iff variable t occurs."""
    return sum(compress(_bits(len(e)), e))


def normal_form(f: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Remainder of multivariate division of f by the basis, in list order."""
    leads = [g.leading()[0] for g in basis]
    return _reduce(f, basis, leads, [_support(e) for e in leads])


def _reduce(
    f: Polynomial, basis: Sequence[Polynomial], leads: list, sevs: list
) -> Polynomial:
    """`normal_form`, given the leading monomials of the basis and their
    support masks: a lead with a variable outside the support of the
    current term cannot divide it, so `_divides` runs only on the rest."""
    ring = f.ring
    rem: dict = {}
    p = f
    while not p.is_zero():
        e, c = p.leading()
        outside = ~_support(e)
        for k, le in enumerate(leads):
            if not sevs[k] & outside and _divides(le, e):
                g = basis[k]
                p = p - _mono_times(g, _expo_sub(e, le), _div(c, g.leading()[1]))
                break
        else:
            # the leading monomial strictly drops at every step
            rem[e] = c
            p = p - Polynomial(ring, {e: c})
    return Polynomial(ring, rem)


def _s_poly(f: Polynomial, g: Polynomial) -> Polynomial:
    ef, cf = f.leading()
    eg, cg = g.leading()
    l = _expo_lcm(ef, eg)
    return _mono_times(f, _expo_sub(l, ef), _div(1, cf)) - _mono_times(
        g, _expo_sub(l, eg), _div(1, cg)
    )


def buchberger(
    ideal: Ideal, deadline: Optional[float] = None
) -> GroebnerBasis:
    """Reduced basis; classic pair pruning (coprime leads and the chain
    criterion), pairs popped from a heap smallest lcm degree first, ties
    broken by the pair's indices.

    ``leads`` and the support masks ``sevs`` run parallel to ``basis``.
    Two leads are coprime iff their masks are disjoint, and a lead whose
    mask has a bit outside the mask of a monomial cannot divide it, so
    the masks settle most tests before `_divides` runs."""
    ring = ideal.ring
    basis = [g for g in ideal.generators if not g.is_zero()]
    if not basis:
        return GroebnerBasis(ring, ())
    leads = [g.leading()[0] for g in basis]
    sevs = [_support(e) for e in leads]

    def entry(i: int, j: int) -> tuple:
        return sum(map(max, leads[i], leads[j])), (i, j)

    pairs = [entry(i, j) for i in range(len(basis)) for j in range(i)]
    heapq.heapify(pairs)
    done: set[tuple[int, int]] = set()

    while pairs:
        if deadline is not None and time.monotonic() > deadline:
            raise PolyTimeout("basis computation exceeded the deadline")
        _, (i, j) = heapq.heappop(pairs)
        done.add((i, j))
        if not sevs[i] & sevs[j]:
            continue  # coprime leading monomials
        l = _expo_lcm(leads[i], leads[j])
        outside = ~(sevs[i] | sevs[j])
        chain = False
        for k in range(len(basis)):
            if k in (i, j) or sevs[k] & outside or not _divides(leads[k], l):
                continue
            p1 = (max(i, k), min(i, k))
            p2 = (max(j, k), min(j, k))
            if p1 in done and p2 in done:
                chain = True
                break
        if chain:
            continue
        r = _reduce(_s_poly(basis[i], basis[j]), basis, leads, sevs)
        if r.is_zero():
            continue
        k = len(basis)
        basis.append(r)
        leads.append(r.leading()[0])
        sevs.append(_support(leads[k]))
        for t in range(k):
            heapq.heappush(pairs, entry(k, t))
    # minimalize: drop members whose lead is divisible by another lead
    keep: list[Polynomial] = []
    for i, g in enumerate(basis):
        outside = ~sevs[i]
        if any(
            j != i
            and not sevs[j] & outside
            and _divides(leads[j], leads[i])
            and (leads[j] != leads[i] or j < i)
            for j in range(len(basis))
        ):
            continue
        keep.append(g)
    # inter-reduce tails and normalize
    reduced = []
    for i, g in enumerate(keep):
        others = keep[:i] + keep[i + 1 :]
        r = normal_form(g, others) if others else g
        if not r.is_zero():
            reduced.append(r.monic())
    reduced.sort(key=lambda g: g.ring.key(g.leading()[0]))
    return GroebnerBasis(ring, tuple(reduced))


def membership(
    f: Polynomial, ideal: Ideal, deadline: Optional[float] = None
) -> bool:
    gb = buchberger(ideal, deadline)
    if not gb.polys:
        return f.is_zero()
    return normal_form(f, gb.polys).is_zero()


def _lift(
    ring_new: PolyRing, p: Polynomial, shift: int
) -> Polynomial:
    """Reinterpret p in a ring with extra variables (prepended when shift>0,
    appended when shift==0)."""
    pad = len(ring_new.variables) - len(p.ring.variables)
    out = {}
    for e, c in p.terms.items():
        if shift:
            out[(0,) * pad + tuple(e)] = c
        else:
            out[tuple(e) + (0,) * pad] = c
    return Polynomial(ring_new, out)


def radical_membership(
    f: Polynomial, ideal: Ideal, deadline: Optional[float] = None
) -> bool:
    """Extra-variable trick: f is in the radical iff 1 lies in the ideal
    extended by 1 - y*f."""
    ring = ideal.ring
    fresh = "_rad"
    while fresh in ring.variables:
        fresh += "_"
    big = PolyRing(ring.variables + (fresh,), ring.order if isinstance(ring.order, str) else "grevlex")
    gens = [_lift(big, g, 0) for g in ideal.generators]
    y = big.var(fresh)
    gens.append(big.const(1) - y * _lift(big, f, 0))
    gb = buchberger(Ideal(big, tuple(gens)), deadline)
    return len(gb.polys) == 1 and gb.polys[0].terms == {(0,) * len(big.variables): 1}


def intersect(
    a: Ideal, b: Ideal, deadline: Optional[float] = None
) -> Ideal:
    """Elimination: t*a + (1-t)*b with a block order putting t first."""
    if a.ring != b.ring:
        raise ValueError("ideals from different rings")
    ring = a.ring
    fresh = "_t"
    while fresh in ring.variables:
        fresh += "_"
    big = PolyRing((fresh,) + ring.variables, ("block", 1))
    t = big.var(fresh)
    one = big.const(1)
    gens = [t * _lift(big, g, 1) for g in a.generators]
    gens += [(one - t) * _lift(big, g, 1) for g in b.generators]
    gb = buchberger(Ideal(big, tuple(gens)), deadline)
    out = []
    for g in gb.polys:
        if all(e[0] == 0 for e in g.terms):
            out.append(Polynomial(ring, {tuple(e[1:]): c for e, c in g.terms.items()}))
    return Ideal(ring, tuple(out))


def ideal_equal(a: Ideal, b: Ideal, deadline: Optional[float] = None) -> bool:
    return all(membership(g, b, deadline) for g in a.generators) and all(
        membership(g, a, deadline) for g in b.generators
    )
