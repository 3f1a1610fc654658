"""Recursive family of strongly orthogonal positive roots built by taking
highest roots, passing to the orthogonal part of the support subsystem, and
repeating.  Carries the E-sets, their pair matchings, and checks of the
classical identities (product of reflections is the longest element, the
E-sets partition the positive roots, |E| = 2 h-dual - 3)."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .rootsys import (
    RootSystem,
    classify_component,
    dual_coxeter_number,
    highest_roots,
    is_positive_root,
    nonorthogonal_components,
    pairing,
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


def _support(root: Sequence) -> frozenset[int]:
    return frozenset(i + 1 for i, c in enumerate(root) if c != 0)


def support_subsystem(rs: RootSystem, beta) -> tuple[tuple[int, ...], list[tuple]]:
    """Simple indices occurring in beta, and all positive roots supported there."""
    beta = tuple(beta)
    if not is_positive_root(rs, beta):
        raise ValueError(f"{beta} is not a positive root")
    supp = _support(beta)
    roots = [g for g in rs.positive_roots if _support(g) <= supp]
    return tuple(sorted(supp)), roots


def _is_locally_high(rs: RootSystem, gamma: tuple) -> bool:
    _, sub = support_subsystem(rs, gamma)
    h = rs.height(gamma)
    return all(rs.height(d) < h for d in sub if d != gamma)


def descendants(rs: RootSystem, gamma) -> list[tuple]:
    """Highest roots of the components of the part of the support subsystem
    orthogonal to gamma."""
    gamma = tuple(gamma)
    if not _is_locally_high(rs, gamma):
        raise ValueError(f"{gamma} is not the highest root of its support subsystem")
    _, sub = support_subsystem(rs, gamma)
    orth = [d for d in sub if pairing(rs, d, gamma) == 0]
    comps = nonorthogonal_components(rs, orth)
    tops = [max(c, key=lambda r: (rs.height(r), r)) for c in comps]
    tops.sort(key=lambda r: (-rs.height(r), r))
    return tops


@dataclass(frozen=True)
class CascadeNode:
    gamma: tuple
    support: tuple[int, ...]
    E_set: tuple[tuple, ...]
    pairs: tuple[tuple[tuple, tuple], ...]
    children: tuple["CascadeNode", ...]


@dataclass(frozen=True)
class Cascade:
    rs: RootSystem
    forest: tuple[CascadeNode, ...]

    @cached_property
    def roots(self) -> tuple[tuple, ...]:
        """The roots gamma of the nodes, in preorder."""
        return tuple(node.gamma for node in iter_nodes(self))


def _e_set(rs: RootSystem, gamma: tuple) -> tuple[tuple, ...]:
    _, sub = support_subsystem(rs, gamma)
    es = [m for m in sub if pairing(rs, m, gamma) > 0]
    es.sort(key=lambda r: (rs.height(r), r))
    return tuple(es)


def _match_pairs(rs: RootSystem, gamma: tuple, e_set) -> tuple:
    rest = [m for m in e_set if m != gamma]
    seen = set()
    out = []
    for m in rest:
        if m in seen:
            continue
        partner = tuple(g - c for g, c in zip(gamma, m))
        if partner not in rest or partner == m:
            raise KostantCheckError(f"no twin for {m} inside E({gamma})")
        seen.add(m)
        seen.add(partner)
        a, b = sorted((m, partner), key=lambda r: (rs.height(r), r))
        out.append((a, b))
    out.sort(key=lambda p: (rs.height(p[0]), p[0]))
    return tuple(out)


def _build_node(rs: RootSystem, gamma: tuple) -> CascadeNode:
    supp, _ = support_subsystem(rs, gamma)
    e_set = _e_set(rs, gamma)
    pairs = _match_pairs(rs, gamma, e_set)
    children = tuple(_build_node(rs, d) for d in descendants(rs, gamma))
    return CascadeNode(gamma, supp, e_set, pairs, children)


def build_cascade(rs: RootSystem) -> Cascade:
    return Cascade(rs, tuple(_build_node(rs, th) for th in highest_roots(rs)))


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


def _subsystem_dual_coxeter(rs: RootSystem, node: CascadeNode) -> int:
    letter, rank, _ = classify_component(rs.cartan, [i - 1 for i in node.support])
    return dual_coxeter_number(letter, rank)


def verify_kostant(rs: RootSystem, c: Cascade) -> dict:
    """Run every structural identity; raise KostantCheckError on the first
    failure, otherwise return a report of the checked quantities."""
    nodes = iter_nodes(c)
    w0 = longest_element(rs)

    prod = identity(rs)
    refls = [reflection(rs, g) for g in c.roots]
    for r in refls:
        prod = multiply(prod, r)
    if prod != w0:
        raise KostantCheckError("product of cascade reflections is not the longest element")
    for i in range(len(refls)):
        for j in range(i + 1, len(refls)):
            if multiply(refls[i], refls[j]) != multiply(refls[j], refls[i]):
                raise KostantCheckError("cascade reflections do not commute")

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
        h = _subsystem_dual_coxeter(rs, node)
        if len(node.E_set) != 2 * h - 3:
            raise KostantCheckError(
                f"|E({node.gamma})| = {len(node.E_set)} but 2h-3 = {2 * h - 3}"
            )
        for m in node.E_set:
            if m == node.gamma:
                continue
            num = 2 * pairing(rs, node.gamma, m)
            den = pairing(rs, node.gamma, node.gamma)
            if num != den:
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
