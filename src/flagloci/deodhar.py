"""Distinguished subwords of a reduced word, their (n, m) statistics, and
the R-polynomial computed two independent ways: as the point-count sum
over distinguished subwords and by the classical descent recurrence."""

from __future__ import annotations

from typing import Optional, Sequence

from ._record import Record
from .bruhat import leq, walk_subwords
from .polyalg import PolyRing, Polynomial
from .rootsys import RootSystem
from .weyl import (
    WeylElement,
    is_right_descent,
    length,
    reduced_word,
    simple_times,
    smallest_left_descent,
)

__all__ = [
    "DistinguishedSubword",
    "LaurentFreePolynomial",
    "ZERO",
    "ONE",
    "q_minus_one_power",
    "distinguished_subwords",
    "positive_subword",
    "r_polynomial_deodhar",
    "r_polynomial_recurrence",
]


class LaurentFreePolynomial:
    """Integer polynomial in q, coefficients stored low-to-high."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        self.coeffs = coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentFreePolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    @staticmethod
    def of(coeffs: Sequence[int]) -> "LaurentFreePolynomial":
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        return LaurentFreePolynomial(tuple(cs))

    def __add__(self, other: "LaurentFreePolynomial") -> "LaurentFreePolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        out = [0] * n
        for i, c in enumerate(self.coeffs):
            out[i] += c
        for i, c in enumerate(other.coeffs):
            out[i] += c
        return LaurentFreePolynomial.of(out)

    def __mul__(self, other: "LaurentFreePolynomial") -> "LaurentFreePolynomial":
        if not self.coeffs or not other.coeffs:
            return ZERO
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return LaurentFreePolynomial.of(out)

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def factored(self) -> Optional[str]:
        """"(q-1)^k" when the polynomial is exactly that, else None; only k =
        degree can match."""
        k = self.degree()
        if k >= 0 and self == q_minus_one_power(k):
            return "(q-1)^%d" % k
        return None

    def pretty(self) -> str:
        return str(Polynomial(_Q_RING, {(e,): c for e, c in enumerate(self.coeffs)}))

    def __str__(self) -> str:
        return self.pretty()


_Q_RING = PolyRing(("q",))
ZERO = LaurentFreePolynomial(())
ONE = LaurentFreePolynomial((1,))
_Q = LaurentFreePolynomial((0, 1))
_Q_MINUS_1 = LaurentFreePolynomial((-1, 1))


def q_minus_one_power(k: int) -> LaurentFreePolynomial:
    out = ONE
    for _ in range(k):
        out = out * _Q_MINUS_1
    return out


class DistinguishedSubword(Record):
    """A keep/remove pattern on a reduced word whose kept letters multiply
    to the target: the 1-based removed positions and the statistics of the
    partial-product trace.

    n_stat counts steps with sigma unchanged (the removals), m_stat counts
    kept steps where sigma drops; n_stat + 2*m_stat is the length gap."""

    __slots__ = ("removed", "n_stat", "m_stat")


def _kept_descents(trace: Sequence[WeylElement]) -> int:
    return sum(1 for a, b in zip(trace, trace[1:]) if length(b) < length(a))


def distinguished_subwords(
    rs: RootSystem, word: Sequence[int], v: WeylElement
) -> list[DistinguishedSubword]:
    """Depth-first enumeration (removal sets lexicographic) of the subwords
    of ``word`` with value v in which every removal happens at an ascent."""
    word = tuple(word)

    def step(k, sigma, removed):
        # removal keeps sigma and needs an ascent (s_k not a right descent
        # of sigma); keeping is always allowed
        return not is_right_descent(sigma, word[k]), True

    return [
        DistinguishedSubword(removed, len(removed), _kept_descents(trace))
        for removed, trace in walk_subwords(rs, word, v, step)
    ]


def positive_subword(
    rs: RootSystem, word: Sequence[int], v: WeylElement
) -> DistinguishedSubword:
    """The unique distinguished subword with no kept descents."""
    word = tuple(word)

    def step(k, sigma, removed):
        # a descent forces a kept descent or an illegal removal
        ascent = not is_right_descent(sigma, word[k])
        return ascent, ascent

    hits = [
        DistinguishedSubword(removed, len(removed), 0)
        for removed, _ in walk_subwords(rs, word, v, step)
    ]
    if len(hits) != 1:
        raise RuntimeError(f"expected a unique no-descent subword, got {len(hits)}")
    return hits[0]


def r_polynomial_deodhar(v: WeylElement, w: WeylElement) -> LaurentFreePolynomial:
    """Sum of (q-1)^n q^m over the distinguished subwords of a reduced word
    of w with value v."""
    rs = w.rs
    out = ZERO
    for sub in distinguished_subwords(rs, reduced_word(w), v):
        term = q_minus_one_power(sub.n_stat)
        for _ in range(sub.m_stat):
            term = term * _Q
        out = out + term
    return out


def r_polynomial_recurrence(v: WeylElement, w: WeylElement) -> LaurentFreePolynomial:
    """Independent route: descent recurrence with memoization."""
    rs = w.rs
    memo: dict = rs.cache.setdefault("rpoly", {})

    def rec(a: WeylElement, b: WeylElement) -> LaurentFreePolynomial:
        if a == b:
            return ONE
        if not leq(a, b):
            return ZERO
        key = (a, b)
        got = memo.get(key)
        if got is not None:
            return got
        i = smallest_left_descent(b)
        sb = simple_times(i, b)
        sa = simple_times(i, a)
        if length(sa) < length(a):
            out = rec(sa, sb)
        else:
            out = _Q_MINUS_1 * rec(a, sb) + _Q * rec(sa, sb)
        memo[key] = out
        return out

    return rec(v, w)
