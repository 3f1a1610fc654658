"""Bruhat order, covering relation, intervals, subwords, and DOT export.

Every comparison in the package goes through ``leq`` and every walk over
the subwords of a reduced word goes through ``walk_subwords``; the other
modules only supply policies.  Two independent routes to the order sit
behind ``leq`` and are kept deliberately:

* ``bruhat_leq`` runs the classical descent recursion (iteratively), which
  works in any group without enumeration;
* ``BruhatTable`` builds the covering relation from reflections on an
  enumerated group and stores reachability bitmasks.

``leq`` reads the table when one exists (or may be built) and falls back
to the recursion otherwise.  The two routes are cross-checked against each
other and against the raw subword definition in the test suite.

``closure`` is the one routine that turns a covering relation into
down-set and up-set bitmasks: the table runs it on all covers, the
parabolic order on the covers that change coset.  ``require_table`` is the
one "table within the cap, else ``GroupTooLargeError``" lookup.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Sequence

from .rootsys import RootSystem, weyl_order
from .weyl import (
    GroupTooLargeError,
    WeylElement,
    enumerate_group,
    identity,
    inverse,
    is_reduced,
    is_type_a,
    length,
    perm_string,
    reduced_word,
    reflection,
    right_descents,
    simple_reflection,
    smallest_left_descent,
)

__all__ = [
    "bruhat_leq",
    "leq",
    "covers",
    "covering_pairs",
    "interval",
    "walk_subwords",
    "subwords_with_value",
    "export_bruhat_graph",
    "BruhatTable",
    "closure",
    "get_table",
    "require_table",
]

_TABLE_BUILD_LIMIT = 10000  # don't auto-build reachability tables beyond this


def bruhat_leq(v: WeylElement, w: WeylElement) -> bool:
    """Descent recursion: for a left descent s of w, v <= w iff min(v,sv) <= sw."""
    if v.rs is not w.rs:
        raise ValueError("elements of different groups")
    rs = v.rs
    while True:
        if v == w:
            return True
        if length(v) >= length(w):
            return False
        i = smallest_left_descent(w)
        s = simple_reflection(rs, i)
        sv = s * v
        if length(sv) < length(v):
            v = sv
        w = s * w


def closure(
    covers_down: list[list[int]], covers_up: list[list[int]]
) -> tuple[list[int], list[int]]:
    """Down-set and up-set bitmasks of the reflexive transitive closure of a
    covering relation on elements indexed in length order (covers_down[k]
    lists the elements k covers, covers_up[k] those covering k): one
    forward and one backward pass."""
    n = len(covers_down)
    down = [0] * n
    for k in range(n):
        mask = 1 << k
        for j in covers_down[k]:
            mask |= down[j]
        down[k] = mask
    up = [0] * n
    for k in range(n - 1, -1, -1):
        mask = 1 << k
        for j in covers_up[k]:
            mask |= up[j]
        up[k] = mask
    return down, up


class BruhatTable:
    """Reachability over the covering graph of a fully enumerated group."""

    def __init__(self, rs: RootSystem, cap: int = 60000):
        self.rs = rs
        self.elements = enumerate_group(rs, cap)
        self.index = {w: k for k, w in enumerate(self.elements)}
        n = len(self.elements)
        refls = [reflection(rs, b) for b in rs.positive_roots]
        # covers_down[k] = indices of elements covered by element k
        self.covers_down: list[list[int]] = [[] for _ in range(n)]
        self.covers_up: list[list[int]] = [[] for _ in range(n)]
        for k, w in enumerate(self.elements):
            lw = length(w)
            for t in refls:
                tw = t * w
                if length(tw) == lw - 1:
                    j = self.index[tw]
                    self.covers_down[k].append(j)
                    self.covers_up[j].append(k)
        for lst in self.covers_down:
            lst.sort()
        for lst in self.covers_up:
            lst.sort()
        self.down, self.up = closure(self.covers_down, self.covers_up)

    def idx(self, w: WeylElement) -> int:
        return self.index[w]

    def leq(self, v: WeylElement, w: WeylElement) -> bool:
        return bool(self.down[self.idx(w)] >> self.idx(v) & 1)

    def interval_indices(self, v: WeylElement, w: WeylElement) -> list[int]:
        mask = self.up[self.idx(v)] & self.down[self.idx(w)]
        out = []
        k = 0
        while mask:
            if mask & 1:
                out.append(k)
            mask >>= 1
            k += 1
        return out


def get_table(rs: RootSystem, build_limit: int = _TABLE_BUILD_LIMIT) -> Optional[BruhatTable]:
    table = rs.cache.get("bruhat_table")
    if table is None and weyl_order(rs.cartan_type) <= build_limit:
        table = rs.cache["bruhat_table"] = BruhatTable(rs, cap=build_limit)
    return table


def require_table(rs: RootSystem, cap: int = 60000) -> BruhatTable:
    """The table of rs, built if |W| <= cap; GroupTooLargeError otherwise."""
    table = get_table(rs, build_limit=cap)
    if table is None:
        raise GroupTooLargeError(weyl_order(rs.cartan_type), cap)
    return table


def leq(v: WeylElement, w: WeylElement, build_limit: int = _TABLE_BUILD_LIMIT) -> bool:
    """v <= w: by the reachability table when one exists or the group is
    small enough to build one (``build_limit``), else by descent recursion."""
    table = get_table(v.rs, build_limit)
    if table is not None:
        return table.leq(v, w)
    return bruhat_leq(v, w)


def covers(v: WeylElement, w: WeylElement) -> bool:
    return length(v) == length(w) - 1 and leq(v, w)


def covering_pairs(rs: RootSystem, cap: int = 60000) -> list[tuple[WeylElement, WeylElement]]:
    table = require_table(rs, cap)
    out = []
    for k, w in enumerate(table.elements):
        for j in table.covers_down[k]:
            out.append((table.elements[j], w))
    out.sort(key=lambda p: (p[0].sort_key(), p[1].sort_key()))
    return out


def interval(
    v: WeylElement, w: WeylElement
) -> tuple[list[WeylElement], list[tuple[WeylElement, WeylElement]]]:
    """Elements and Hasse edges of [v, w].  Requires v <= w."""
    table = require_table(v.rs, _TABLE_BUILD_LIMIT)
    if not table.leq(v, w):
        raise ValueError("lower element is not below upper element in Bruhat order")
    idxs = table.interval_indices(v, w)
    inside = set(idxs)
    elements = [table.elements[k] for k in idxs]
    edges = []
    for k in idxs:
        for j in table.covers_down[k]:
            if j in inside:
                edges.append((table.elements[j], table.elements[k]))
    elements.sort(key=lambda x: x.sort_key())
    edges.sort(key=lambda p: (p[0].sort_key(), p[1].sort_key()))
    return elements, edges


Step = Callable[[int, WeylElement, list[int]], tuple[bool, bool]]


def walk_subwords(
    rs: RootSystem, word: Sequence[int], target: WeylElement, step: Step
) -> Iterator[tuple[tuple[int, ...], tuple[WeylElement, ...]]]:
    """Depth-first walk over the subwords of the reduced ``word`` whose
    letters multiply to ``target``.

    At letter k (0-based) with partial product ``sigma``,
    ``step(k, sigma, removed)`` returns ``(may_remove, may_keep)``; removal
    is tried first, so hits come in lexicographic order of their removal
    sets.  Each hit is ``(removed, trace)``: the 1-based removed positions
    and the l + 1 partial products from the identity on.  A branch is
    pruned as soon as ``sigma^{-1} target`` is no longer below the value of
    the remaining suffix (subword property).  Validation and the suffix
    products happen at the call; the walk runs as the result is iterated.
    """
    word = tuple(word)
    if not is_reduced(rs, word):
        raise ValueError(f"word {word} is not reduced")
    l = len(word)
    gens = [simple_reflection(rs, i) for i in word]
    suffix = [identity(rs)] * (l + 1)  # suffix[k] = value of word[k:]
    for k in range(l - 1, -1, -1):
        suffix[k] = gens[k] * suffix[k + 1]
    removed: list[int] = []
    trace = [identity(rs)]

    def walk(k: int):
        sigma = trace[-1]
        if k == l:
            if sigma == target:
                yield tuple(removed), tuple(trace)
            return
        if not leq(inverse(sigma) * target, suffix[k]):
            return
        may_remove, may_keep = step(k, sigma, removed)
        if may_remove:
            removed.append(k + 1)
            trace.append(sigma)
            yield from walk(k + 1)
            trace.pop()
            removed.pop()
        if may_keep:
            trace.append(sigma * gens[k])
            yield from walk(k + 1)
            trace.pop()

    return walk(0)


def subwords_with_value(
    rs: RootSystem,
    word: Sequence[int],
    target: WeylElement,
    reduced_only: bool = False,
    removal_filter: Optional[Callable[[list[int], int], bool]] = None,
    first_only: bool = False,
) -> list[tuple[int, ...]]:
    """All removal-position sets (1-based, ascending) whose complementary
    subword multiplies to ``target``.

    ``reduced_only`` keeps only subwords that are reduced words of the target.
    ``removal_filter(removed_so_far, position)`` may veto growing a removal
    set (used by the orthogonal-witness search); it must be monotone in the
    sense that a vetoed prefix cannot become acceptable later.  Results come
    in lexicographic order of removal sets; ``first_only`` stops at one.
    """
    word = tuple(word)
    lt = length(target)
    d_total = len(word) - lt  # removals needed in reduced mode

    def step(k, sigma, removed):
        may_remove = not (reduced_only and len(removed) >= d_total) and (
            removal_filter is None or removal_filter(removed, k)
        )
        # in reduced mode a kept letter must ascend and fit the target length
        may_keep = not reduced_only or (
            word[k] not in right_descents(sigma) and k - len(removed) < lt
        )
        return may_remove, may_keep

    results = []
    for removed, _ in walk_subwords(rs, word, target, step):
        results.append(removed)
        if first_only:
            break
    return results


def _vertex_name(w: WeylElement) -> str:
    if is_type_a(w.rs):
        return perm_string(w)
    word = reduced_word(w)
    return "e" if not word else "s" + ".".join(str(i) for i in word)


def export_bruhat_graph(
    rs: RootSystem,
    highlight: Optional[set] = None,
    cap: int = 60000,
) -> str:
    """Graphviz DOT text of the Hasse diagram; edges in ``highlight`` (pairs
    of elements) are flagged."""
    flagged = highlight or set()
    lines = ["digraph bruhat {", "  rankdir=BT;"]
    for w in require_table(rs, cap).elements:
        lines.append(f'  "{_vertex_name(w)}";')
    for v, w in covering_pairs(rs, cap):
        attr = ' [color=red, penwidth=2]' if (v, w) in flagged else ""
        lines.append(f'  "{_vertex_name(v)}" -> "{_vertex_name(w)}"{attr};')
    lines.append("}")
    return "\n".join(lines) + "\n"
