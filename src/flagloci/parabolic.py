"""Parabolic quotients W^P, the parabolic refinement of the Bruhat order
(covers must change coset), canonical representatives of pair classes, and
the parabolic checks for witnessed orthogonal-removal pairs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .bruhat import BruhatTable, closure, require_table
from .gcr import GcrPair, enumerate_gcr, sub_pairs, verify_powerset_interval
from .rootsys import RootSystem
from .weyl import (
    WeylElement,
    act,
    from_word,
    inverse,
    length,
    multiply,
    right_descents,
    simple_reflection,
)

__all__ = [
    "PairClass",
    "min_coset_rep",
    "is_min_rep",
    "levi_contains",
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


def min_coset_rep(w: WeylElement, J: Iterable[int]) -> tuple[WeylElement, WeylElement]:
    """Factor w = w^P * w_P with w_P in the subgroup generated by J and w^P
    of minimal length in the coset (no right descent inside J)."""
    rs = w.rs
    js = set(_norm_j(rs, J))
    stripped: list[int] = []
    cur = w
    while True:
        ds = sorted(set(right_descents(cur)) & js)
        if not ds:
            break
        j = ds[0]
        cur = multiply(cur, simple_reflection(rs, j))
        stripped.append(j)
    w_p = from_word(rs, tuple(reversed(stripped)))
    if multiply(cur, w_p) != w or length(cur) + length(w_p) != length(w):
        raise RuntimeError("coset factorization is not length-additive")
    return cur, w_p


def is_min_rep(w: WeylElement, J: Iterable[int]) -> bool:
    js = set(_norm_j(w.rs, J))
    return not (set(right_descents(w)) & js)


def levi_contains(rs: RootSystem, root: Sequence, J: Iterable[int]) -> bool:
    """Whether a (positive or negative) root lies in the subsystem spanned by J."""
    js = set(_norm_j(rs, J))
    supp = {i + 1 for i, c in enumerate(root) if c != 0}
    return supp <= js


def _p_masks(table: BruhatTable, J: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Down-set and up-set bitmasks of the parabolic order (reflexive
    transitive closure of Bruhat covers that change J-coset)."""
    cache = table.rs.cache.setdefault("p_masks", {})
    if J not in cache:
        coset = [min_coset_rep(x, J)[0] for x in table.elements]

        def changing(covers: list[list[int]]) -> list[list[int]]:
            return [[j for j in js if coset[j] != coset[k]] for k, js in enumerate(covers)]

        cache[J] = closure(changing(table.covers_down), changing(table.covers_up))
    return cache[J]


def p_bruhat_leq(v: WeylElement, w: WeylElement, J: Iterable[int]) -> bool:
    js = _norm_j(v.rs, J)
    table = require_table(v.rs)
    down, _ = _p_masks(table, js)
    return bool(down[table.idx(w)] >> table.idx(v) & 1)


@dataclass(frozen=True)
class PairClass:
    """Canonical representative (v w_P^{-1}, w^P) of a pair class."""

    v: WeylElement
    w: WeylElement
    J: tuple[int, ...]


def canonicalize_pair(v: WeylElement, w: WeylElement, J: Iterable[int]) -> PairClass:
    rs = v.rs
    js = _norm_j(rs, J)
    if not p_bruhat_leq(v, w, js):
        raise ValueError("pair is not related in the parabolic order")
    w_top, w_bot = min_coset_rep(w, js)
    return PairClass(multiply(v, inverse(w_bot)), w_top, js)


def gcr_p(rs: RootSystem, J: Iterable[int], cap: int = 60000) -> list[GcrPair]:
    """Witnessed pairs whose upper element is a minimal coset representative."""
    js = _norm_j(rs, J)
    poset = enumerate_gcr(rs, cap)
    return [p for p in poset.pairs if is_min_rep(p.w, js)]


def verify_p_interval(pair: GcrPair, J: Iterable[int]) -> bool:
    """The parabolic interval of the pair must coincide with its Bruhat
    interval, which in turn must be the reverse power set."""
    rs = pair.w.rs
    js = _norm_j(rs, J)
    table = require_table(rs)
    down, up = _p_masks(table, js)
    iv, iw = table.idx(pair.v), table.idx(pair.w)
    p_mask = up[iv] & down[iw]
    b_mask = table.up[iv] & table.down[iw]
    if p_mask != b_mask:
        return False
    return verify_powerset_interval(pair)


def verify_classes_distinct(pair: GcrPair, J: Iterable[int]) -> bool:
    """All disjoint-(A,B) derived pairs must be parabolic-comparable, land in
    pairwise distinct classes, and every witness root must leave the Levi
    subsystem under w^{-1}."""
    rs = pair.w.rs
    js = _norm_j(rs, J)
    w_inv = inverse(pair.w)
    for beta in pair.removed_roots:
        if levi_contains(rs, act(w_inv, beta), js):
            return False
    seen: set[PairClass] = set()
    for _, _, va, wb in sub_pairs(pair):
        if not p_bruhat_leq(va, wb, js):
            return False
        cls = canonicalize_pair(va, wb, js)
        if cls in seen:
            return False
        seen.add(cls)
    return len(seen) == 3 ** pair.d
