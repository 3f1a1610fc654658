"""Parabolic quotients W^P, the parabolic refinement of the Bruhat order
(covers must change coset), canonical representatives of pair classes, and
the parabolic checks for witnessed orthogonal-removal pairs."""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ._record import Record
from .bruhat import BruhatTable, closure, require_table
from .gcr import GcrPair, enumerate_gcr, sub_pairs, verify_powerset_interval
from .rootsys import RootSystem
from .weyl import (
    WeylElement,
    act,
    inverse,
    is_right_descent,
    multiply,
    times_simple,
)

__all__ = [
    "PairClass",
    "min_coset_rep",
    "is_min_rep",
    "p_bruhat_leq",
    "canonicalize_pair",
    "gcr_p",
    "verify_p_interval",
    "verify_classes_distinct",
]


def _norm_j(rs: RootSystem, J: Iterable[int]) -> tuple[int, ...]:
    js = sorted(set(J))
    n = len(rs.cartan)
    for j in js:
        if not 1 <= j <= n:
            raise ValueError(f"simple index {j} out of range 1..{n}")
    return tuple(js)


def _first_descent(w: WeylElement, js: tuple[int, ...]) -> Optional[int]:
    """The smallest j in the sorted ``js`` that is a right descent of w,
    or None."""
    for j in js:
        if is_right_descent(w, j):
            return j
    return None


def _coset_rep(w: WeylElement, js: tuple[int, ...]) -> WeylElement:
    """w^P for a normalized J: strip right descents inside J."""
    while (j := _first_descent(w, js)) is not None:
        w = times_simple(w, j)
    return w


def min_coset_rep(w: WeylElement, J: Iterable[int]) -> tuple[WeylElement, WeylElement]:
    """Factor w = w^P * w_P with w_P in the subgroup generated by J and w^P
    of minimal length in the coset (no right descent inside J)."""
    top = _coset_rep(w, _norm_j(w.rs, J))
    return top, multiply(inverse(top), w)


def is_min_rep(w: WeylElement, J: Iterable[int]) -> bool:
    return _first_descent(w, _norm_j(w.rs, J)) is None


def _support(root: Sequence) -> set[int]:
    return {i + 1 for i, c in enumerate(root) if c != 0}


def _p_masks(table: BruhatTable, J: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Down-set and up-set bitmasks of the parabolic order (reflexive
    transitive closure of Bruhat covers that change J-coset).

    The coset of each element is named by the table index of x^J, placed
    in one pass in table order: x^J = x when x has no right descent in J,
    else x^J = (x s_j)^J for such a descent j, and x s_j is shorter, so it
    is placed already."""
    cache = table.rs.cache.setdefault("p_masks", {})
    if J not in cache:
        index = table.index
        coset: list[int] = []
        for k, x in enumerate(table.elements):
            j = _first_descent(x, J)
            coset.append(k if j is None else coset[index[times_simple(x, j)]])
        cache[J] = closure(
            [[j for j in js if coset[j] != coset[k]] for k, js in enumerate(table.covers_down)]
        )
    return cache[J]


def p_bruhat_leq(v: WeylElement, w: WeylElement, J: Iterable[int]) -> bool:
    if v.rs is not w.rs:
        raise ValueError("elements of different groups")
    table = require_table(v.rs)
    down, _ = _p_masks(table, _norm_j(v.rs, J))
    return bool(down[table.index[w]] >> table.index[v] & 1)


class PairClass(Record):
    """Canonical representative (v w_P^{-1}, w^P) of a pair class."""

    __slots__ = ("v", "w", "J")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PairClass)
            and self.v == other.v
            and self.w == other.w
            and self.J == other.J
        )

    def __hash__(self) -> int:
        return hash((self.v, self.w, self.J))


def canonicalize_pair(v: WeylElement, w: WeylElement, J: Iterable[int]) -> PairClass:
    js = _norm_j(v.rs, J)
    if not p_bruhat_leq(v, w, js):
        raise ValueError("pair is not related in the parabolic order")
    return _canonical(v, w, js)


def _canonical(v: WeylElement, w: WeylElement, js: tuple[int, ...]) -> PairClass:
    """The class of (v, w) for a normalized J, without the comparability
    check: w = w^P w_P, so v w_P^{-1} = v w^{-1} w^P."""
    top = _coset_rep(w, js)
    return PairClass(multiply(v, multiply(inverse(w), top)), top, js)


def gcr_p(rs: RootSystem, J: Iterable[int], cap: int = 60000) -> list[GcrPair]:
    """Witnessed pairs whose upper element is a minimal coset representative."""
    js = _norm_j(rs, J)
    poset = enumerate_gcr(rs, cap)
    return [p for p in poset.pairs if _first_descent(p.w, js) is None]


def verify_p_interval(pair: GcrPair, J: Iterable[int]) -> bool:
    """The parabolic interval of the pair must coincide with its Bruhat
    interval, which in turn must be the reverse power set."""
    rs = pair.w.rs
    js = _norm_j(rs, J)
    table = require_table(rs)
    down, up = _p_masks(table, js)
    iv, iw = table.index[pair.v], table.index[pair.w]
    p_mask = up[iv] & down[iw]
    b_mask = table.up[iv] & table.down[iw]
    if p_mask != b_mask:
        return False
    return verify_powerset_interval(pair)


def verify_classes_distinct(pair: GcrPair, J: Iterable[int]) -> bool:
    """All disjoint-(A,B) derived pairs must be parabolic-comparable, land in
    pairwise distinct classes, and every witness root must leave the Levi
    subsystem under w^{-1}.  ``sub_pairs`` gives exactly the 3^d disjoint
    (A, B), so their classes need no count: a repeated one fails first."""
    rs = pair.w.rs
    js = _norm_j(rs, J)
    w_inv, levi = inverse(pair.w), set(js)
    for beta in pair.removed_roots:
        if _support(act(w_inv, beta)) <= levi:
            return False
    table = require_table(rs)
    index = table.index
    down, _ = _p_masks(table, js)
    seen: set[PairClass] = set()
    for _, _, va, wb in sub_pairs(pair):
        if not down[index[wb]] >> index[va] & 1:
            return False
        cls = _canonical(va, wb, js)
        if cls in seen:
            return False
        seen.add(cls)
    return True
