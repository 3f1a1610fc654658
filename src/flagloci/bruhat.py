"""Bruhat order, covering relation, intervals, subwords, and DOT export.

Every comparison in the package goes through ``leq`` and every walk over
the subwords of a reduced word towards a target goes through
``walk_subwords``; the other modules only supply its ``step`` policy (the
orthogonal-witness search ``gcr.is_gcr_cond6``, Deodhar's distinguished
and positive subwords in ``deodhar``), and ``subwords_with_value`` is the
policy that allows everything.  The one walk without a target is the
enumeration's (``gcr._removal_walk``), which collects every v it reaches
at once and is kept apart from ``walk_subwords`` so that ``is_gcr_cond6``
stays an independent oracle for it.  Two independent routes to the order
sit behind ``leq`` and are kept deliberately:

* ``bruhat_leq`` runs the classical descent recursion (iteratively) on the
  permutations of the inverses (``weyl.leq_by_descents``), where each left
  descent becomes a right descent (one lookup), both lengths are tracked
  as ints and no element is built; it works in any group without
  enumeration and reads no table;
* ``BruhatTable`` builds the covering relation from reflections on an
  enumerated group and stores reachability bitmasks.

``leq`` reads the table when one exists and runs the recursion otherwise;
it never builds a table.  The two routes are cross-checked against each
other and against the raw subword definition in the test suite.  The walk
runs ``leq`` on one child per branch only; the lifting property answers
the other (see ``walk_subwords``).

``closure`` is the one routine that turns a covering relation into
down-set and up-set bitmasks, both from the one list ``covers_down``: the
table runs it on all covers, the parabolic order on the covers that
change coset.  ``require_table`` is the one table lookup, and a table is
built only there, for a request on the whole group (enumeration,
intervals, the DOT graph), under the caller's cap or the default.  The
cap is checked where the group is enumerated: ``enumerate_group`` raises
``GroupTooLargeError``.  A caller that builds the table under its own cap
(``enumerate_gcr``, ``gcr_p``, the CLI) has it cached before it asks for
the covers, an interval or the graph, which take no cap.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Sequence

from .rootsys import RootSystem, simple_lowering, weyl_order
from .weyl import (
    WeylElement,
    element_name,
    enumerate_group,
    identity,
    inverse,
    is_reduced,
    is_right_descent,
    is_type_a,
    length,
    leq_by_descents,
    simple_reflection,
    times_simple,
)

__all__ = [
    "bruhat_leq",
    "leq",
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

def bruhat_leq(v: WeylElement, w: WeylElement) -> bool:
    """Descent recursion, run on the permutations of the inverses (see
    ``weyl.leq_by_descents``): for a right descent s of y = w^{-1},
    x <= y iff min(x, xs) <= ys, with x = v^{-1}.  It builds no element on
    the way and reads no table, and stays the independent route that
    ``BruhatTable`` is checked against."""
    if v.rs is not w.rs:
        raise ValueError("elements of different groups")
    return leq_by_descents(v, w)


def closure(covers_down: list[list[int]]) -> tuple[list[int], list[int]]:
    """Down-set and up-set bitmasks of the reflexive transitive closure of a
    covering relation on elements indexed in length order, from the one
    list covers_down (covers_down[k] lists the elements k covers, all of
    smaller index).  The down pass runs k upwards and ORs down[j] into
    down[k]; the up pass runs k downwards and ORs up[k] into up[j] for each
    j that k covers, so up[k] is complete when it is handed on."""
    n = len(covers_down)
    down = [0] * n
    for k in range(n):
        mask = 1 << k
        for j in covers_down[k]:
            mask |= down[j]
        down[k] = mask
    up = [1 << k for k in range(n)]
    for k in range(n - 1, -1, -1):
        mask = up[k]
        for j in covers_down[k]:
            up[j] |= mask
    return down, up


class BruhatTable:
    """Reachability over the covering graph of a fully enumerated group.
    ``elements`` are in ``enumerate_group`` order, which is ``sort_key``
    order, so sorting by table index sorts by ``sort_key``.

    w covers t w for each reflection t with l(t w) = l(w) - 1.  The left
    products by reflections are formed on table indices: s_i w is one
    permutation product per simple i and element, and for any other
    positive root b, with s_i and b' = s_i b from ``simple_lowering``,
    t_b = s_i t_{b'} s_i gives the index of t_b w as S_i[L_{b'}[S_i[k]]]."""

    def __init__(self, rs: RootSystem, cap: int = 60000):
        self.rs = rs
        self.elements = enumerate_group(rs, cap)
        self.index = index = {w: k for k, w in enumerate(self.elements)}
        n = len(self.elements)
        lengths = [length(w) for w in self.elements]
        # covers_down[k] = indices of elements covered by element k
        self.covers_down: list[list[int]] = [[] for _ in range(n)]
        left: dict[tuple, tuple[int, ...]] = {}  # b -> (index of t_b w_k)_k
        for b in rs.positive_roots:
            if sum(b) == 1:
                s = simple_reflection(rs, b.index(1) + 1)
                lb = tuple(index[s * w] for w in self.elements)
            else:
                i, lower = simple_lowering(rs, b)
                si, lo = left[rs.simple_root(i)], left[lower]
                lb = tuple([si[lo[j]] for j in si])
            left[b] = lb
            for k, j in enumerate(lb):
                if lengths[j] == lengths[k] - 1:
                    self.covers_down[k].append(j)
        for lst in self.covers_down:
            lst.sort()
        self.down, self.up = closure(self.covers_down)

    def leq(self, v: WeylElement, w: WeylElement) -> bool:
        return bool(self.down[self.index[w]] >> self.index[v] & 1)

    def interval_indices(self, v: WeylElement, w: WeylElement) -> list[int]:
        mask = self.up[self.index[v]] & self.down[self.index[w]]
        out = []
        k = 0
        while mask:
            if mask & 1:
                out.append(k)
            mask >>= 1
            k += 1
        return out


def require_table(rs: RootSystem, cap: int = 60000) -> BruhatTable:
    """The table of rs, from the cache or built under ``cap``, where
    ``enumerate_group`` raises GroupTooLargeError if |W| > cap."""
    table = rs.cache.get("bruhat_table")
    if table is None:
        table = rs.cache["bruhat_table"] = BruhatTable(rs, cap)
    return table


def get_table(rs: RootSystem, build_limit: int = 60000) -> Optional[BruhatTable]:
    """The table of rs if it is cached or |W| <= build_limit, else None."""
    if "bruhat_table" in rs.cache or weyl_order(rs.cartan_type) <= build_limit:
        return require_table(rs, build_limit)
    return None


def leq(v: WeylElement, w: WeylElement) -> bool:
    """v <= w: by the reachability table when one exists, else by descent
    recursion.  It builds no table, and refuses elements of two groups."""
    if v.rs is not w.rs:
        raise ValueError("elements of different groups")
    table = v.rs.cache.get("bruhat_table")
    if table is not None:
        return table.leq(v, w)
    return leq_by_descents(v, w)


def covering_pairs(rs: RootSystem) -> list[tuple[WeylElement, WeylElement]]:
    table = require_table(rs)
    els = table.elements
    pairs = sorted((j, k) for k, js in enumerate(table.covers_down) for j in js)
    return [(els[j], els[k]) for j, k in pairs]


def interval(
    v: WeylElement, w: WeylElement
) -> tuple[list[WeylElement], list[tuple[WeylElement, WeylElement]]]:
    """Elements and Hasse edges of [v, w].  Requires v <= w; reads the
    table of the whole group, built under the default cap if it is not
    there yet."""
    table = require_table(v.rs)
    if not leq(v, w):
        raise ValueError("lower element is not below upper element in Bruhat order")
    idxs = table.interval_indices(v, w)  # ascending
    inside = set(idxs)
    pairs = sorted((j, k) for k in idxs for j in table.covers_down[k] if j in inside)
    els = table.elements
    return [els[k] for k in idxs], [(els[j], els[k]) for j, k in pairs]


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
    pruned as soon as y = target^{-1} sigma is no longer below the value u
    of the reversed remaining suffix (the subword property, read on
    inverses, as Bruhat order is invariant under inversion).  Only one
    child per branch runs that test: the next letter s is a right descent
    of u and y <= u, so by the lifting property (Bjorner-Brenti,
    Prop. 2.2.7) y <= us if s is an ascent of y, and ys <= us if it is a
    descent; one descent lookup on y says which child is already known to
    be below, so a skipped test is one whose answer is True and the hits
    are unchanged.  Keeping a letter moves y by one right product,
    removing it leaves y unchanged, and a leaf is a hit iff l(y) = 0, so
    the walk takes one inverse in all.  The word and the target's group are
    validated and the word's reversed suffix products built at the call; the
    walk runs as the result is iterated.
    """
    if target.rs is not rs:
        raise ValueError("elements of different groups")
    word = tuple(word)
    if not is_reduced(rs, word):
        raise ValueError(f"word {word} is not reduced")
    l = len(word)
    rsuffix = [identity(rs)] * (l + 1)  # rsuffix[k] = value of reversed(word[k:])
    for k in range(l - 1, -1, -1):
        rsuffix[k] = times_simple(rsuffix[k + 1], word[k])
    removed: list[int] = []
    trace = [identity(rs)]

    def walk(k: int, y: WeylElement, below: bool):
        # below: y <= rsuffix[k] is already known
        if k == l:
            if length(y) == 0:
                yield tuple(removed), tuple(trace)
            return
        if not below and not leq(y, rsuffix[k]):
            return
        sigma = trace[-1]
        may_remove, may_keep = step(k, sigma, removed)
        # s = s_{word[k]} is a right descent of u = rsuffix[k], and y <= u: if s
        # is an ascent of y then y <= us, else ys <= us (lifting property)
        ascent = not is_right_descent(y, word[k])
        if may_remove:
            removed.append(k + 1)
            trace.append(sigma)
            yield from walk(k + 1, y, ascent)
            trace.pop()
            removed.pop()
        if may_keep:
            trace.append(times_simple(sigma, word[k]))
            yield from walk(k + 1, times_simple(y, word[k]), not ascent)
            trace.pop()

    return walk(0, inverse(target), False)


def subwords_with_value(
    rs: RootSystem, word: Sequence[int], target: WeylElement
) -> list[tuple[int, ...]]:
    """All removal-position sets (1-based, ascending) whose complementary
    subword multiplies to ``target``, in lexicographic order."""
    hits = walk_subwords(rs, word, target, lambda k, sigma, removed: (True, True))
    return [removed for removed, _ in hits]


def export_bruhat_graph(rs: RootSystem, highlight: Optional[set] = None) -> str:
    """Graphviz DOT text of the Hasse diagram; edges in ``highlight`` (pairs
    of elements) are flagged."""
    flagged = highlight or set()
    elements = require_table(rs).elements
    # the CLI's names, with an "s" before a reduced word
    prefix = "" if is_type_a(rs) else "s"
    name = {
        w: element_name(w) if w.is_identity() else prefix + element_name(w)
        for w in elements
    }
    lines = ["digraph bruhat {", "  rankdir=BT;"]
    for w in elements:
        lines.append(f'  "{name[w]}";')
    for v, w in covering_pairs(rs):
        attr = ' [color=red, penwidth=2]' if (v, w) in flagged else ""
        lines.append(f'  "{name[v]}" -> "{name[w]}"{attr};')
    lines.append("}")
    return "\n".join(lines) + "\n"
