"""Constructive pipeline for a top-dimensional witnessed pair (v, w0 v):
build a short element u whose inversion set sits inside E(theta), pass to
the subsystem orthogonal to u^{-1}(theta), recurse, and certify that the
inversion set of v picks exactly one member of every matched pair."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .cascade import build_cascade, iter_nodes
from .gcr import enumerate_gcr, is_gcr_cond3
from .rootsys import (
    RootSystem,
    build_root_system,
    classify_component,
    dual_coxeter_number,
    highest_roots,
    is_positive_root,
    nonorthogonal_components,
    pairing,
    reflect,
    weyl_order,
)
from .weyl import (
    WeylElement,
    act,
    from_word,
    identity,
    inversion_set,
    inverse,
    is_reduced,
    length,
    longest_element,
    multiply,
    reduced_word,
    reflection,
)

__all__ = [
    "ConstructError",
    "TopPair",
    "Subsystem",
    "build_u_for_theta",
    "orthogonal_subsystem",
    "build_v",
    "build_top_pair",
]

_ENUM_CROSSCHECK_LIMIT = 200  # group order up to which the sweep cross-check runs


class ConstructError(Exception):
    """A postcondition of the constructive pipeline failed."""


def _require_simple(rs: RootSystem) -> tuple[str, int]:
    if len(rs.cartan_type.components) != 1:
        raise ValueError("expected a simple (one-component) root system")
    return rs.cartan_type.components[0]


def _e_of_theta(rs: RootSystem, theta) -> set:
    return {m for m in rs.positive_roots if pairing(rs, m, theta) > 0}


def build_u_for_theta(rs: RootSystem) -> tuple[int, ...]:
    """Word of an element u with l(u) = h_dual - 2 and all inversions inside
    E(theta) minus theta itself.  Greedy height descent for the single-laced
    types, fixed words otherwise; the postcondition is always checked."""
    letter, n = _require_simple(rs)
    theta = highest_roots(rs)[0]
    target_len = dual_coxeter_number(letter, n) - 2
    if letter in ("A", "D", "E"):
        word: list[int] = []
        cur = theta
        for _ in range(target_len):
            pick = None
            for i in range(1, n + 1):
                if cur[i - 1] != 0 and pairing(rs, rs.simple_root(i), cur) > 0:
                    pick = i
                    break
            if pick is None:
                raise ConstructError(f"greedy descent stuck at {cur}")
            word.append(pick)
            cur = reflect(rs, rs.simple_root(pick), cur)
    elif letter == "C":
        word = list(range(1, n))
    elif letter == "B":
        word = list(range(2, n + 1)) + list(range(1, n - 1))
    elif letter == "G":
        # short root first under Bourbaki labels; (1, 2) fails the
        # postcondition because a_1 is orthogonal to theta here
        word = [2, 1]
    else:  # F4
        word = [1, 2, 3, 4, 2, 3, 1]
    word_t = tuple(word)
    if len(word_t) != target_len or not is_reduced(rs, word_t):
        raise ConstructError(f"u word {word_t} is not reduced of length {target_len}")
    u = from_word(rs, word_t)
    allowed = _e_of_theta(rs, theta) - {theta}
    if not inversion_set(u) <= allowed:
        raise ConstructError(f"inversions of u escape E(theta): {word_t}")
    return word_t


@dataclass(frozen=True)
class Subsystem:
    """The roots orthogonal to ``fixed_root``, repackaged as a standalone
    root system; ``pi_prime`` lists the ambient coordinates of the child's
    simple roots in the child's labeling order."""

    rs: RootSystem
    fixed_root: tuple
    pi_prime: tuple[tuple, ...]
    child: Optional[RootSystem]

    def to_ambient(self, child_root) -> tuple:
        n = len(self.rs.cartan)
        out = [0] * n
        for c, beta in zip(child_root, self.pi_prime):
            for k in range(n):
                out[k] += c * beta[k]
        return tuple(out)

    def lift(self, x: WeylElement) -> WeylElement:
        out = identity(self.rs)
        for i in reduced_word(x):
            out = multiply(out, reflection(self.rs, self.pi_prime[i - 1]))
        return out


def _indecomposables(rs: RootSystem, pos: list[tuple]) -> list[tuple]:
    pos_set = set(pos)
    out = []
    for b in pos:
        if not any(
            a != b and tuple(x - y for x, y in zip(b, a)) in pos_set for a in pos
        ):
            out.append(b)
    return out


def orthogonal_subsystem(rs: RootSystem, u: WeylElement, theta) -> Subsystem:
    """Subsystem of roots orthogonal to u^{-1}(theta), with verification of
    the inclusion u(positives) inside the ambient positives and of the
    cascade correspondence."""
    _require_simple(rs)
    fixed = act(inverse(u), theta)
    pos = [b for b in rs.positive_roots if pairing(rs, b, fixed) == 0]
    if not pos:
        return Subsystem(rs, fixed, (), None)
    comps = nonorthogonal_components(rs, _indecomposables(rs, pos))
    # classify each component and put its roots into Bourbaki order
    typed: list[tuple[str, int, list[tuple]]] = []
    for comp in comps:
        m = len(comp)
        cm = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(m):
                val = Fraction(2 * pairing(rs, comp[i], comp[j]), pairing(rs, comp[i], comp[i]))
                if val.denominator != 1:
                    raise ConstructError("non-integral Cartan entry in the subsystem")
                cm[i][j] = int(val)
        letter, rank, order = classify_component(cm, range(m))
        typed.append((letter, rank, [comp[k] for k in order]))
    typed.sort(key=lambda t: (t[0], t[1], t[2]))
    name = "x".join(f"{letter}{rank}" for letter, rank, _ in typed)
    child = build_root_system(name)
    pi_prime = tuple(b for _, _, roots in typed for b in roots)
    # labeling guard: the child's Cartan data must match the form on pi_prime
    n = len(pi_prime)
    for i in range(n):
        for j in range(n):
            pij = Fraction(
                2 * pairing(rs, pi_prime[i], pi_prime[j]),
                pairing(rs, pi_prime[i], pi_prime[i]),
            )
            if pij != child.cartan[i][j]:
                raise ConstructError("child Cartan data does not match the subsystem")
    sub = Subsystem(rs, fixed, pi_prime, child)
    images = {sub.to_ambient(b) for b in child.positive_roots}
    if images != set(pos):
        raise ConstructError("child positive roots do not cover the subsystem")
    for b in images:
        if not is_positive_root(rs, act(u, b)):
            raise ConstructError("u does not carry the subsystem into the positives")
    amb = build_cascade(rs)  # preorder starts at theta for a simple system
    want = {act(inverse(u), g) for g in amb.roots[1:]}
    got = {sub.to_ambient(g) for g in build_cascade(child).roots}
    if got != want:
        raise ConstructError("subsystem cascade does not match the ambient one")
    return sub


def _build_v_simple(rs: RootSystem) -> WeylElement:
    theta = highest_roots(rs)[0]
    u_word = build_u_for_theta(rs)
    u = from_word(rs, u_word)
    sub = orthogonal_subsystem(rs, u, theta)
    if sub.child is None:
        return u
    v_child = build_v(sub.child)
    return multiply(u, sub.lift(v_child))


def build_v(rs: RootSystem) -> WeylElement:
    """Element whose inversion set avoids the cascade and meets every
    matched pair exactly once; built per component as u times a lifted
    recursive solution."""
    v = identity(rs)
    offset = 0
    for letter, rank in rs.cartan_type.components:
        comp_rs = build_root_system(f"{letter}{rank}")
        v_comp = _build_v_simple(comp_rs)
        shifted = tuple(i + offset for i in reduced_word(v_comp))
        v = multiply(v, from_word(rs, shifted))
        offset += rank
    return v


@dataclass(frozen=True)
class TopPair:
    """(v, w0 v) with the per-pair certificate: for every matched pair
    (mu, nu) of every cascade node, which twin lies in the inversion set."""

    v: WeylElement
    w: WeylElement
    d: int
    certificate: tuple[tuple[tuple, tuple, tuple, tuple], ...]


def build_top_pair(rs: RootSystem) -> TopPair:
    casc = build_cascade(rs)
    m = len(casc.roots)
    big_n = len(rs.positive_roots)
    v = build_v(rs)
    if 2 * length(v) != big_n - m:
        raise ConstructError(f"l(v) = {length(v)} but (N-m)/2 = {(big_n - m) / 2}")
    inv = inversion_set(v)
    if inv & set(casc.roots):
        raise ConstructError("inversion set of v meets the cascade")
    cert = []
    for node in iter_nodes(casc):
        for mu, nu in node.pairs:
            got = (mu in inv) + (nu in inv)
            if got != 1:
                raise ConstructError(
                    f"pair ({mu}, {nu}) of {node.gamma} hit {got} times"
                )
            cert.append((node.gamma, mu, nu, mu if mu in inv else nu))
    w = multiply(longest_element(rs), v)
    d = length(w) - length(v)
    if d != m:
        raise ConstructError(f"length gap {d} != cascade size {m}")
    if not is_gcr_cond3(v, w):
        raise ConstructError("(v, w0 v) fails the eigenvalue membership test")
    if weyl_order(rs.cartan_type) <= _ENUM_CROSSCHECK_LIMIT:
        poset = enumerate_gcr(rs)
        top = max(p.d for p in poset.maximal_pairs())
        if d != top:
            raise ConstructError(f"built d = {d} but the sweep maximum is {top}")
    return TopPair(v, w, d, tuple(cert))
