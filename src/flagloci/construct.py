"""Constructive pipeline for a top-dimensional witnessed pair (v, w0 v):
build a short element u (by ``simple_lowering`` steps from theta_c in the
single-laced components) whose inversion set sits inside the union of the
E(theta_c), the E-sets of the cascade's tree tops, pass to the subsystem
orthogonal to every u^{-1}(theta_c), recurse, and certify that the
inversion set of v picks exactly one member of every matched pair.  A
reducible system needs no separate path: its components' recursions run
side by side, one child root system per level."""

from __future__ import annotations

from operator import mul

from ._record import Record
from .cascade import build_cascade, iter_nodes
from .gcr import is_gcr_cond3
from .rootsys import (
    RootSystem,
    build_root_system,
    classify_component,
    dual_coxeter_number,
    highest_roots,
    is_positive_root,
    nonorthogonal_components,
    pairings_with,
    simple_lowering,
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

class ConstructError(Exception):
    """A postcondition of the constructive pipeline failed."""


def build_u_for_theta(rs: RootSystem) -> tuple[int, ...]:
    """Word of an element u, one factor per simple component in component
    order and in ambient labels, with l(u) = sum_c (h_dual_c - 2) and all
    inversions inside the union of E(theta_c) minus theta_c, E(theta_c)
    being the E-set of the cascade's tree for component c.  Single-laced
    components take h_dual - 2 ``simple_lowering`` steps down from their
    theta (height h_dual - 1), each one level lower; the others have fixed
    words shifted onto their labels.  The postcondition is always checked."""
    word: list[int] = []
    target_len = 0
    for (letter, n), comp, cur in zip(rs.cartan_type.components, rs.components, highest_roots(rs)):
        steps = dual_coxeter_number(letter, n) - 2
        target_len += steps
        if letter in ("A", "D", "E"):
            for _ in range(steps):
                i, cur = simple_lowering(rs, cur)
                word.append(i)
            continue
        if letter == "C":
            local = list(range(1, n))
        elif letter == "B":
            local = list(range(2, n + 1)) + list(range(1, n - 1))
        elif letter == "G":
            # short root first under Bourbaki labels; (1, 2) fails the
            # postcondition because a_1 is orthogonal to theta here
            local = [2, 1]
        else:  # F4
            local = [1, 2, 3, 4, 2, 3, 1]
        word.extend(i + comp[0] for i in local)  # comp[0] labels precede this component
    word_t = tuple(word)
    if len(word_t) != target_len or not is_reduced(rs, word_t):
        raise ConstructError(f"u word {word_t} is not reduced of length {target_len}")
    u = from_word(rs, word_t)
    # the forest has one tree per component, with theta_c at its top
    allowed = {m for top in build_cascade(rs).forest for m in top.E_set if m != top.gamma}
    if not inversion_set(u) <= allowed:
        raise ConstructError(f"inversions of u escape E(theta): {word_t}")
    return word_t


class Subsystem(Record):
    """The roots orthogonal to u^{-1}(theta_c) for every highest root
    theta_c, repackaged as a standalone root system ``child``, or None if
    there are none; ``pi_prime`` lists the ambient coordinates of the
    child's simple roots in the child's labeling order, and ``lift`` is the
    embedding of the child's Weyl group into the ambient one."""

    __slots__ = ("rs", "pi_prime", "child")

    def to_ambient(self, child_root) -> tuple:
        return tuple(sum(map(mul, child_root, col)) for col in zip(*self.pi_prime))

    def lift(self, x: WeylElement) -> WeylElement:
        out = identity(self.rs)
        for i in reduced_word(x):
            out = multiply(out, reflection(self.rs, self.pi_prime[i - 1]))
        return out


def _indecomposables(rs: RootSystem, pos: list[tuple]) -> list[tuple]:
    """The roots of ``pos`` that are not a sum of two of its roots, for
    ``pos`` the positive roots of a closed subsystem in increasing height.
    The indecomposables are the simple roots of the subsystem, a positive
    root that is not simple is a simple root plus a positive root, and a
    sum is higher than its terms, so each root is tested against the
    indecomposables found before it only."""
    pos_set = set(pos)
    out: list[tuple] = []
    for b in pos:
        if not any(tuple(x - y for x, y in zip(b, a)) in pos_set for a in out):
            out.append(b)
    return out


def orthogonal_subsystem(rs: RootSystem, u: WeylElement) -> Subsystem:
    """Subsystem of roots orthogonal to u^{-1}(theta_c) for every highest
    root theta_c, with verification of the inclusion u(positives) inside
    the ambient positives and of the cascade correspondence: the child's
    cascade is the ambient one without its forest tops, carried by
    u^{-1}."""
    u_inv = inverse(u)
    tops = highest_roots(rs)
    pos = list(rs.positive_roots)
    for theta in tops:
        pos = [b for b, p in zip(pos, pairings_with(rs, pos, act(u_inv, theta))) if not p]
    if not pos:
        return Subsystem(rs, (), None)
    comps = nonorthogonal_components(rs, _indecomposables(rs, pos))
    # classify each component and put its roots into Bourbaki order
    typed: list[tuple[str, int, list[tuple]]] = []
    for comp in comps:
        m = len(comp)
        cm = [[0] * m for _ in range(m)]
        for i in range(m):
            row = pairings_with(rs, comp, comp[i])  # (comp[j], comp[i]) = (comp[i], comp[j])
            for j in range(m):
                cm[i][j], rem = divmod(2 * row[j], row[i])
                if rem:
                    raise ConstructError("non-integral Cartan entry in the subsystem")
        letter, rank, order = classify_component(cm, range(m))
        typed.append((letter, rank, [comp[k] for k in order]))
    typed.sort(key=lambda t: (t[0], t[1], t[2]))
    name = "x".join(f"{letter}{rank}" for letter, rank, _ in typed)
    child = build_root_system(name)
    pi_prime = tuple(b for _, _, roots in typed for b in roots)
    sub = Subsystem(rs, pi_prime, child)
    images = list(map(sub.to_ambient, child.positive_roots))
    if set(images) != set(pos):
        raise ConstructError("child positive roots do not cover the subsystem")
    if not all(is_positive_root(rs, act(u, b)) for b in images):
        raise ConstructError("u does not carry the subsystem into the positives")
    want = {act(u_inv, g) for g in build_cascade(rs).roots if g not in tops}
    got = {images[child.root_index[g]] for g in build_cascade(child).roots}
    if got != want:
        raise ConstructError("subsystem cascade does not match the ambient one")
    return sub


def build_v(rs: RootSystem) -> WeylElement:
    """Element whose inversion set avoids the cascade and meets every
    matched pair exactly once: u times the lift of the recursive solution
    on the subsystem orthogonal to u^{-1}(theta_c) for every component c.
    Components commute, so a reducible system is its components' recursions
    side by side, and each level builds one child root system."""
    u = from_word(rs, build_u_for_theta(rs))
    sub = orthogonal_subsystem(rs, u)
    if sub.child is None:
        return u
    return multiply(u, sub.lift(build_v(sub.child)))


class TopPair(Record):
    """(v, w0 v) with the per-pair certificate: for every matched pair
    (mu, nu) of every cascade node, which twin lies in the inversion set."""

    __slots__ = ("v", "w", "d", "certificate")


def build_top_pair(rs: RootSystem) -> TopPair:
    """(v, w0 v) for v = ``build_v(rs)``, with its certificate.  The gap is
    checked against the cascade size and membership by ``is_gcr_cond3``;
    that no witnessed pair has a larger gap is the paper's theorem, which
    the tests check against the whole-group sweep on small groups."""
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
    # l(w0 v) = N - l(v), so the length check above makes the gap m
    w = multiply(longest_element(rs), v)
    if not is_gcr_cond3(v, w):
        raise ConstructError("(v, w0 v) fails the eigenvalue membership test")
    return TopPair(v, w, m, tuple(cert))
