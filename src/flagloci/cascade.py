"""Recursive family of strongly orthogonal positive roots built by taking
highest roots, passing to the orthogonal part of the support subsystem, and
repeating.  Carries the E-sets, their pair matchings, and checks of the
classical identities (product of reflections is the longest element, the
E-sets partition the positive roots, |E| = 2 h-dual - 3).

The forest is built once per root system and memoized in its cache
(``rs.cache["cascade"]``); every ``build_cascade`` call wraps it in a fresh
``Cascade``.  Only the forest is kept, which holds root tuples and no
reference back to the root system, so the memo adds no cycle.  A node
pairs the roots of its support subsystem with gamma in one pass, reading
the form image of gamma once, and its E-set (pairing > 0) and descendants
(pairing = 0) share that pass."""

from __future__ import annotations

from ._record import Record
from .rootsys import (
    RootSystem,
    dual_coxeter_number,
    highest_roots,
    is_positive_root,
    nonorthogonal_components,
    pairing,
    pairings_with,
    strongly_orthogonal,
)
from .weyl import (
    identity,
    longest_element,
    multiply,
    reflection,
    reflection_length,
)

__all__ = [
    "CascadeNode",
    "iter_nodes",
    "Cascade",
    "support_subsystem",
    "descendants",
    "build_cascade",
    "verify_kostant",
    "KostantCheckError",
]


class KostantCheckError(Exception):
    """A structural identity of the cascade failed."""


def _support_masks(rs: RootSystem) -> tuple[int, ...]:
    """Bit i of ``masks[k]`` is set iff simple root i+1 occurs in positive
    root k; built once per root system and kept in its cache."""
    masks = rs.cache.get("support_masks")
    if masks is None:
        masks = rs.cache["support_masks"] = tuple(
            sum(1 << i for i, c in enumerate(g) if c) for g in rs.positive_roots
        )
    return masks


def support_subsystem(rs: RootSystem, beta) -> tuple[tuple[int, ...], list[tuple]]:
    """Simple indices occurring in beta, and all positive roots supported there."""
    beta = tuple(beta)
    if not is_positive_root(rs, beta):
        raise ValueError(f"{beta} is not a positive root")
    masks = _support_masks(rs)
    supp = masks[rs.root_index[beta]]
    roots = [g for g, m in zip(rs.positive_roots, masks) if m | supp == supp]
    return tuple(i + 1 for i, c in enumerate(beta) if c), roots


def _descendants(rs: RootSystem, gamma: tuple, sub: list[tuple], values: list) -> list[tuple]:
    """``descendants`` given the support subsystem ``sub`` of gamma and the
    pairings ``values[k] = (sub[k], gamma)``."""
    h = rs.height(gamma)
    if any(rs.height(d) >= h for d in sub if d != gamma):
        raise ValueError(f"{gamma} is not the highest root of its support subsystem")
    orth = [d for d, p in zip(sub, values) if p == 0]
    comps = nonorthogonal_components(rs, orth)
    tops = [max(c, key=lambda r: (rs.height(r), r)) for c in comps]
    tops.sort(key=lambda r: (-rs.height(r), r))
    return tops


def descendants(rs: RootSystem, gamma) -> list[tuple]:
    """Highest roots of the components of the part of the support subsystem
    orthogonal to gamma."""
    gamma = tuple(gamma)
    sub = support_subsystem(rs, gamma)[1]
    return _descendants(rs, gamma, sub, pairings_with(rs, sub, gamma))


class CascadeNode(Record):
    __slots__ = ("gamma", "support", "E_set", "pairs", "children")


class Cascade:
    __slots__ = ("rs", "forest", "roots")

    def __init__(self, rs: RootSystem, forest: tuple[CascadeNode, ...]):
        self.rs = rs
        self.forest = forest
        self.roots = tuple(node.gamma for node in iter_nodes(self))  # in preorder


def _match_pairs(gamma: tuple, e_set) -> tuple:
    """The pairs (m, gamma - m) of the E-set without gamma.  The E-set is in
    root order, so m, the first of its pair to be met, is the lower one, and
    the pairs come in the order of their lower roots."""
    rest = set(e_set)
    rest.discard(gamma)
    seen = set()
    out = []
    for m in e_set:
        if m == gamma or m in seen:
            continue
        partner = tuple(g - c for g, c in zip(gamma, m))
        if partner not in rest or partner == m:
            raise KostantCheckError(f"no twin for {m} inside E({gamma})")
        seen.add(partner)
        out.append((m, partner))
    return tuple(out)


def _build_node(rs: RootSystem, gamma: tuple) -> CascadeNode:
    supp, sub = support_subsystem(rs, gamma)
    values = pairings_with(rs, sub, gamma)  # the one pairing pass of the node
    # the roots with (m, gamma) > 0, in the order of sub, which is the order
    # of rs.positive_roots: by height, then coordinates
    e_set = tuple(m for m, p in zip(sub, values) if p > 0)
    pairs = _match_pairs(gamma, e_set)
    children = tuple(_build_node(rs, d) for d in _descendants(rs, gamma, sub, values))
    return CascadeNode(gamma, supp, e_set, pairs, children)


def build_cascade(rs: RootSystem) -> Cascade:
    """The cascade of rs; its forest is built on the first call only."""
    forest = rs.cache.get("cascade")
    if forest is None:
        forest = rs.cache["cascade"] = tuple(_build_node(rs, th) for th in highest_roots(rs))
    return Cascade(rs, forest)


def iter_nodes(c: Cascade) -> list[CascadeNode]:
    """All nodes of the forest in preorder (same order as c.roots)."""
    out = []

    def walk(node: CascadeNode):
        out.append(node)
        for ch in node.children:
            walk(ch)

    for node in c.forest:
        walk(node)
    return out


def verify_kostant(rs: RootSystem, c: Cascade) -> dict:
    """Run every structural identity; raise KostantCheckError on the first
    failure, otherwise return a report of the checked quantities.  A node's
    h-dual is read off its gamma, the highest root of its support."""
    if c.rs.cartan_type != rs.cartan_type:
        raise ValueError(f"cascade of {c.rs.cartan_type} checked against {rs.cartan_type}")
    nodes = iter_nodes(c)
    w0 = longest_element(rs)

    prod = identity(rs)
    for g in c.roots:
        prod = multiply(prod, reflection(rs, g))
    if prod != w0:
        raise KostantCheckError("product of cascade reflections is not the longest element")
    # strongly orthogonal roots are orthogonal, so their reflections commute
    for i in range(len(c.roots)):
        for j in range(i + 1, len(c.roots)):
            if not strongly_orthogonal(rs, c.roots[i], c.roots[j]):
                raise KostantCheckError(
                    f"{c.roots[i]} and {c.roots[j]} are not strongly orthogonal"
                )

    covered: dict[tuple, tuple] = {}
    for node in nodes:
        for m in node.E_set:
            if m in covered:
                raise KostantCheckError(f"{m} lies in E({covered[m]}) and E({node.gamma})")
            covered[m] = node.gamma
    if set(covered) != set(rs.positive_roots):
        raise KostantCheckError("E-sets do not partition the positive roots")

    rows = []
    for node in nodes:
        h = dual_coxeter_number(rs, node.gamma)
        if len(node.E_set) != 2 * h - 3:
            raise KostantCheckError(
                f"|E({node.gamma})| = {len(node.E_set)} but 2h-3 = {2 * h - 3}"
            )
        den = pairing(rs, node.gamma, node.gamma)
        for m, p in zip(node.E_set, pairings_with(rs, node.E_set, node.gamma)):
            if m == node.gamma:
                continue
            if 2 * p != den:
                raise KostantCheckError(
                    f"2(gamma,mu)/|gamma|^2 != 1 for gamma={node.gamma}, mu={m}"
                )
        rows.append(
            {
                "gamma": node.gamma,
                "e_size": len(node.E_set),
                "dual_coxeter": h,
                "pair_count": len(node.pairs),
            }
        )

    m = len(c.roots)
    rl = reflection_length(w0)
    if m != rl:
        raise KostantCheckError(f"|B| = {m} but reflection length of w0 is {rl}")
    return {
        "size": m,
        "reflection_length_w0": rl,
        "positive_roots": len(rs.positive_roots),
        "rows": rows,
    }
