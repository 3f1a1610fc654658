"""Exact multivariate polynomials over the rationals with a small Buchberger
engine: normal forms, reduced bases, ideal membership, radical membership
via the extra-variable trick, and intersections via elimination.

A coefficient is an int or a Fraction: arithmetic on ints stays in ints,
and a division (`_div`) makes a Fraction only when the quotient is not
integral.  The module imports `fractions` on its first use of the class
(`_fraction` binds it to a module global), so a run whose coefficients
stay ints never loads it; the tokenizer of `parse_polynomial` is likewise
compiled on its first call.

Everything is deterministic: fixed variable order, graded reverse
lexicographic comparisons by default, normal pair selection, and reduced
monic output sorted by leading monomial.

A polynomial computes its leading term once, on first use, and keeps it
(nothing mutates ``terms`` after construction); the completion and
`_lift` set it instead where they already know it.  In the same way an
`Ideal` computes its reduced basis once, on the first `buchberger` call,
and keeps it, so `membership`, `ideal_equal`, `radical_membership` and
callers that ask again all read one basis; the basis keeps the leading
monomials and support masks that `membership` reduces with.

One completion loop, `_complete`, serves every basis: it takes a prefix
that is already a Groebner basis plus new generators, and never makes a
pair inside the prefix (such a pair reduces to zero by the prefix).
`buchberger` runs it with an empty prefix; `radical_membership` runs it on
the ideal's kept basis, lifted, with 1 - y*f as the only new member.  Next
to each basis member the loop keeps the support mask of its leading
monomial (bit t set iff variable t occurs), which gives the coprime test
and rules out most divisibility tests with one ``&``.  A pair whose
S-polynomial is known to reduce to zero (coprime leads, or two monomials)
is settled when it is made; only the others are recorded, as pending
pairs in a heap keyed by (degree of the lcm of the leads, pair), and a
pair is treated iff it is not pending.  The keys are unique, so the pair
order is fixed.  A constant member ends the loop at once with basis (1).
Minimalization runs in ascending lead order and yields the output order.

Reduction works on one mutable terms dict: an S-polynomial is built as a
dict and each division step subtracts its multiple of a basis member in
place, so no intermediate `Polynomial` is made.  `_add_product` adds a
product into a terms dict in place; it is the one multiply-accumulate
kernel, used by those division steps (with the monomial multiplier as a
one-term dict and c = -1), by `Polynomial.__mul__` and by the Poisson
chart layer, which sums every bracket in one dict."""

from __future__ import annotations

import heapq
import time
from functools import cache
from itertools import compress
from operator import add, le, sub
from typing import TYPE_CHECKING, Optional, Sequence, Union

from ._record import Record

if TYPE_CHECKING:
    from fractions import Fraction

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
Coef = Union[int, "Fraction"]  # see Polynomial
OrderTag = Union[str, tuple]  # "grevlex" | "lex" | ("block", k)


class PolyTimeout(Exception):
    """A Groebner computation exceeded its deadline."""


_Fraction = None  # fractions.Fraction once _fraction() has run


def _fraction() -> type:
    """fractions.Fraction, imported and bound to ``_Fraction`` on the first
    call, so that a run on int coefficients never loads the module."""
    global _Fraction
    from fractions import Fraction

    _Fraction = Fraction
    return Fraction


def _coef(c) -> Coef:
    """c as an exact coefficient: an int when it is integral."""
    if type(c) is int:
        return c
    Fraction = _Fraction or _fraction()
    if not isinstance(c, Fraction):
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _div(a: Coef, b: Coef) -> Coef:
    """The exact quotient a / b: an int when b divides a, else a Fraction
    (never ``/`` on two ints, which would give a float)."""
    if type(a) is int and type(b) is int and a % b == 0:
        return a // b
    return _coef((_Fraction or _fraction())(a, b))


def _grevlex_key(e: Expo):
    return (sum(e), tuple(-x for x in reversed(e)))


class PolyRing:
    __slots__ = ("variables", "order")

    def __init__(self, variables: tuple[str, ...], order: OrderTag = "grevlex"):
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        if isinstance(order, tuple):
            tag, k = order
            if tag != "block" or not 0 < k < len(variables):
                raise ValueError(f"bad order {order}")
        elif order not in ("grevlex", "lex"):
            raise ValueError(f"bad order {order}")
        self.variables = variables
        self.order = order

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyRing)
            and self.variables == other.variables
            and self.order == other.order
        )

    def __hash__(self) -> int:
        return hash((self.variables, self.order))

    def key(self, e: Expo):
        """Sort key: ascending in the ring's monomial order."""
        if self.order == "grevlex":
            return _grevlex_key(e)
        if self.order == "lex":
            return tuple(e)
        _, k = self.order
        return (_grevlex_key(e[:k]), _grevlex_key(e[k:]))

    def index(self, name: str) -> int:
        """Position of the variable ``name``; ValueError naming it if absent."""
        if name not in self.variables:
            raise ValueError(f"unknown variable {name!r}")
        return self.variables.index(name)

    def var(self, name: str) -> "Polynomial":
        i = self.index(name)
        e = tuple(1 if j == i else 0 for j in range(len(self.variables)))
        return Polynomial(self, {e: 1})

    def const(self, c) -> "Polynomial":
        c = _coef(c)
        return Polynomial(self, {} if c == 0 else {(0,) * len(self.variables): c})


def _check_rings(a: PolyRing, b: PolyRing, what: str) -> None:
    if a is not b and a != b:
        raise ValueError(f"{what} from different rings")


class Polynomial:
    """Exact polynomial: map from exponent vector to nonzero coefficient.

    A coefficient is an int or a Fraction.  Sums, differences and products
    of ints stay ints, and `PolyRing.const` and `scale` turn an integral
    argument into an int.  The divisions (`_div`: normal-form steps,
    S-polynomials, making a basis member monic) return an int when the
    quotient is integral and a Fraction otherwise; arithmetic on Fractions
    may still leave an integral Fraction.  Since ``Fraction(n) == n`` and
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
        _check_rings(self.ring, other.ring, "polynomials")

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
        _add_product(out, self.terms, other.terms)
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


class Ideal:
    """An ideal given by its generators.  `buchberger` computes its reduced
    basis once, on first use, and keeps it in ``_basis``, which takes no
    part in ``==``, ``hash`` or ``repr`` (nothing mutates ``generators``)."""

    __slots__ = ("ring", "generators", "_basis")

    def __init__(self, ring: PolyRing, generators: tuple[Polynomial, ...]):
        self.ring = ring
        self.generators = generators
        self._basis: Optional[GroebnerBasis] = None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Ideal)
            and self.ring == other.ring
            and self.generators == other.generators
        )

    def __hash__(self) -> int:
        return hash((self.ring, self.generators))

    def __repr__(self) -> str:
        ring = self.ring
        return f"Ideal(PolyRing({ring.variables!r}, {ring.order!r}), {self.generators!r})"


class GroebnerBasis(Record):
    """A basis and the data every reduction by it reads: the leading
    monomials of its members (``leads``) and their support masks
    (``sevs``), which the completion loop that built it already holds."""

    __slots__ = ("ring", "polys", "leads", "sevs")


_OPERATORS = frozenset("-+*^)")


@cache
def _token_pattern():
    """The tokenizer of `parse_polynomial`, compiled on its first call."""
    import re

    # in a str pattern \d would also match other scripts' digits
    return re.compile(r"\s*(?:(\d+(?:/\d+)?)|([A-Za-z_][A-Za-z0-9_]*)|([-+*^()]))", re.ASCII)


def parse_polynomial(ring: PolyRing, text: str) -> Polynomial:
    """Parse sums of products: rational coefficients, `*`, `^`, variables."""
    token = _token_pattern()
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = token.match(text, pos)
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
        elif tok in _OPERATORS:
            raise ValueError(f"unexpected {tok!r}")
        elif tok[0].isdigit():
            take()
            den = tok.partition("/")[2]
            if den and int(den) == 0:
                raise ValueError(f"zero denominator in {tok!r}")
            p = ring.const((_Fraction or _fraction())(tok))
        else:
            take()
            p = ring.var(tok)
        if peek() == "^":
            take()
            exp_tok = peek()
            if exp_tok is None or not exp_tok.isdigit():
                raise ValueError("exponent must be a nonnegative integer")
            take()
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


@cache
def _bits(n: int) -> tuple[int, ...]:
    return tuple(1 << t for t in range(n))


def _support(e: Expo) -> int:
    """Support mask of a monomial: bit t is set iff variable t occurs."""
    return sum(compress(_bits(len(e)), e))


def normal_form(f: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Remainder of multivariate division of f by the basis, in list order."""
    leads = [g.leading()[0] for g in basis]
    sevs = [_support(e) for e in leads]
    return Polynomial(f.ring, _reduce_terms(dict(f.terms), basis, leads, sevs, f.ring.key))


def _reduce_terms(
    p: dict, basis: Sequence[Polynomial], leads: list, sevs: list, key
) -> dict:
    """Reduce the terms dict p in place and return the remainder's terms
    (p ends empty).  A lead with a variable outside the support of the
    current term cannot divide it, so `_divides` runs only on the rest."""
    rem: dict = {}
    while p:
        e = max(p, key=key)
        outside = ~_support(e)
        for k, le in enumerate(leads):
            if not sevs[k] & outside and _divides(le, e):
                g = basis[k]
                q = _div(p[e], g.leading()[1])
                _add_product(p, {_expo_sub(e, le): q}, g.terms, -1)
                break
        else:
            # the leading monomial strictly drops at every step
            rem[e] = p.pop(e)
    return rem


def _add_product(acc: dict, f: dict, g: dict, c: Coef = 1) -> None:
    """acc += c * f * g in place, for terms dicts f and g and a nonzero c;
    a term that cancels leaves acc."""
    for e1, c1 in f.items():
        k = c * c1
        for e2, c2 in g.items():
            e = tuple(map(add, e1, e2))
            w = acc.get(e, 0) + k * c2
            if w:
                acc[e] = w
            else:
                del acc[e]


def _check_deadline(deadline: Optional[float]) -> None:
    # written so that a NaN deadline counts as passed
    if deadline is not None and not time.monotonic() <= deadline:
        raise PolyTimeout("basis computation exceeded the deadline")


def buchberger(
    ideal: Ideal, deadline: Optional[float] = None
) -> GroebnerBasis:
    """The reduced basis of the ideal: monic, sorted by leading monomial,
    unique for the ring's order.

    The first call completes the generators (`_complete` with an empty
    prefix) and keeps the result on the ideal; later calls return the kept
    basis.  Every call checks the deadline first, also when the basis is
    kept.  The completion reduces each S-polynomial in one mutable terms
    dict and returns (1) as soon as a member is a nonzero constant."""
    _check_deadline(deadline)
    if ideal._basis is None:
        ideal._basis = _complete(ideal.ring, (), ideal.generators, deadline)
    return ideal._basis


def _complete(
    ring: PolyRing,
    prefix: Sequence[Polynomial],
    new: Sequence[Polynomial],
    deadline: Optional[float],
) -> GroebnerBasis:
    """Reduced basis of the ideal generated by ``prefix`` and ``new``, where
    ``prefix`` is already a Groebner basis: every pair inside it reduces to
    zero by it, so those pairs are never made.  A basis member that is a
    nonzero constant ends the run at once with the basis (1).

    ``leads``, the support masks ``sevs`` and the flags ``monos`` (the
    member is a single term) run parallel to ``basis``.  Each pair is
    decided when it is made.  If the two leads are coprime (their masks
    are disjoint; Buchberger's first criterion) or both members are
    monomials (their S-polynomial is exactly zero), the pair is settled
    and never recorded.  Every other pair is keyed by its lcm degree,
    pushed on a heap and kept in ``pending`` until it is popped, smallest
    degree first with ties broken by the pair's indices; it is then
    dropped if the chain criterion applies, and else reduced.  A pair of
    members is treated iff it is not pending, which is all the chain
    criterion asks (Gebauer and Moeller, J. Symbolic Comput. 6, 1988).  A
    lead whose mask has a bit outside the mask of a monomial cannot divide
    it, so the masks settle most divisibility tests before `_divides`
    runs.  Minimalization walks the members once in ascending (lead,
    index) order, keeping those no kept lead divides: the output order."""
    m = len(prefix)
    basis = list(prefix) + [g for g in new if not g.is_zero()]
    if not basis:
        return GroebnerBasis(ring, (), (), ())
    leads = [g.leading()[0] for g in basis]
    sevs = [_support(e) for e in leads]
    monos = [len(g.terms) == 1 for g in basis]
    unit = GroebnerBasis(ring, (ring.const(1),), ((0,) * len(ring.variables),), (0,))
    if not all(sevs):
        return unit  # a constant member (its lead has empty support)
    pending: set[tuple[int, int]] = set()

    def make_pairs(i: int) -> list:
        """Key the pairs (i, j), j < i, whose S-polynomial is not known to
        reduce to zero (coprime leads, or two monomials), and mark them
        pending."""
        keyed = []
        si, li, mi = sevs[i], leads[i], monos[i]
        for j in range(i):
            if si & sevs[j] and not (mi and monos[j]):
                keyed.append((sum(map(max, li, leads[j])), (i, j)))
                pending.add((i, j))
        return keyed

    pairs = [e for i in range(m, len(basis)) for e in make_pairs(i)]
    heapq.heapify(pairs)

    while pairs:
        _check_deadline(deadline)
        _, (i, j) = heapq.heappop(pairs)
        pending.remove((i, j))
        l = _expo_lcm(leads[i], leads[j])
        outside = ~(sevs[i] | sevs[j])
        chain = False
        for k, (sk, lk) in enumerate(zip(sevs, leads)):
            if sk & outside or k == i or k == j or not _divides(lk, l):
                continue
            ik, jk = (max(i, k), min(i, k)), (max(j, k), min(j, k))
            if ik not in pending and jk not in pending:
                chain = True
                break
        if chain:
            continue
        # the S-polynomial as a terms dict, reduced in place
        f, g = basis[i], basis[j]
        sf, qf = _expo_sub(l, leads[i]), _div(1, f.leading()[1])
        s = {tuple(map(add, sf, t)): qf * v for t, v in f.terms.items()}
        sg, qg = _expo_sub(l, leads[j]), _div(1, g.leading()[1])
        _add_product(s, {sg: qg}, g.terms, -1)
        r = _reduce_terms(s, basis, leads, sevs, ring.key)
        if not r:
            continue
        k = len(basis)
        basis.append(Polynomial(ring, r))
        # r was filled in strictly descending order: its first key is the lead
        lead = next(iter(r))
        basis[k]._lead = (lead, r[lead])
        leads.append(lead)
        sevs.append(_support(leads[k]))
        monos.append(len(r) == 1)
        if not sevs[k]:
            return unit
        for e in make_pairs(k):
            heapq.heappush(pairs, e)
    # minimalize in ascending lead order: a lead divisible by another is
    # larger, or equal with a later index, so it meets a kept divisor first
    keep: list[int] = []
    for i in sorted(range(len(basis)), key=lambda i: (ring.key(leads[i]), i)):
        outside = ~sevs[i]
        if not any(not sevs[j] & outside and _divides(leads[j], leads[i]) for j in keep):
            keep.append(i)
    basis = [basis[i] for i in keep]
    leads = [leads[i] for i in keep]
    sevs = [sevs[i] for i in keep]
    # inter-reduce tails and normalize: no kept lead divides another, nor
    # (being larger) any term below its own lead, so reducing a tail by
    # the whole list is reducing it by the other members; the kept leads
    # ascend, which is the output order
    reduced = []
    for g, e in zip(basis, leads):
        tail = dict(g.terms)
        c = tail.pop(e)
        rem = _reduce_terms(tail, basis, leads, sevs, ring.key)
        terms = {e: 1} | {t: _div(v, c) for t, v in rem.items()}
        reduced.append(Polynomial(ring, terms))
        reduced[-1]._lead = (e, 1)
    return GroebnerBasis(ring, tuple(reduced), tuple(leads), tuple(sevs))


def membership(
    f: Polynomial, ideal: Ideal, deadline: Optional[float] = None
) -> bool:
    """f lies in the ideal: its remainder by the kept reduced basis is zero."""
    _check_rings(f.ring, ideal.ring, "polynomials")
    gb = buchberger(ideal, deadline)
    return not _reduce_terms(dict(f.terms), gb.polys, gb.leads, gb.sevs, f.ring.key)


def _lift(
    ring_new: PolyRing, p: Polynomial, shift: int
) -> Polynomial:
    """Reinterpret p in a ring with extra variables (prepended when shift>0,
    appended when shift==0).  Appended variables keep the grevlex, lex and
    block orders on the old monomials, so a lead p already knows carries
    over, padded, when the new ring has p's order."""
    pad = len(ring_new.variables) - len(p.ring.variables)
    out = {}
    for e, c in p.terms.items():
        if shift:
            out[(0,) * pad + tuple(e)] = c
        else:
            out[tuple(e) + (0,) * pad] = c
    q = Polynomial(ring_new, out)
    if not shift and p._lead is not None and ring_new.order == p.ring.order:
        e, c = p._lead
        q._lead = (tuple(e) + (0,) * pad, c)
    return q


def radical_membership(
    f: Polynomial, ideal: Ideal, deadline: Optional[float] = None
) -> bool:
    """Extra-variable trick: f is in the radical iff 1 lies in the ideal
    extended by 1 - y*f, in a ring with y appended as the last variable.

    Restricted to the monomials without y, the extended order (grevlex,
    lex or ("block", k) on one more variable) is the ring's own, so the
    ideal's reduced basis, lifted, is still a Groebner basis.  The
    completion starts from it as a prefix, with 1 - y*f its only new
    member, and stops as soon as a constant appears."""
    _check_rings(f.ring, ideal.ring, "polynomials")
    ring = ideal.ring
    fresh = "_rad"
    while fresh in ring.variables:
        fresh += "_"
    big = PolyRing(ring.variables + (fresh,), ring.order)
    prefix = [_lift(big, g, 0) for g in buchberger(ideal, deadline).polys]
    y = big.var(fresh)
    gb = _complete(big, prefix, (big.const(1) - y * _lift(big, f, 0),), deadline)
    return gb.polys == (big.const(1),)


def intersect(
    a: Ideal, b: Ideal, deadline: Optional[float] = None
) -> Ideal:
    """Elimination: t*a + (1-t)*b with a block order putting t first."""
    _check_rings(a.ring, b.ring, "ideals")
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
    _check_rings(a.ring, b.ring, "ideals")
    return all(membership(g, b, deadline) for g in a.generators) and all(
        membership(g, a, deadline) for g in b.generators
    )
