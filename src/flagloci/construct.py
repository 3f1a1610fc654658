"""Constructive pipeline for a top-dimensional witnessed pair (v, w0 v):
build a short element u (by ``simple_lowering`` steps from theta_c, or a
fixed word in types B and F) whose inversion set sits inside the union of
the E(theta_c), the E-sets of the cascade's tree tops; pass to the
subsystem orthogonal to every u^{-1}(theta_c), whose simple roots are the
u^{-1}(a_j) for the simple roots a_j orthogonal to every theta_c; recurse;
take v = x' u, x' being the child's solution with each letter k renamed to
its a_j; and certify that the inversion set of v picks exactly one member
of every matched pair.  A reducible system needs no separate path: its
components' recursions run side by side, one child root system per
level."""

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
    inversion_set,
    inverse,
    is_reduced,
    length,
    longest_element,
    multiply,
    reduced_word,
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
    being the E-set of the cascade's tree for component c.  A component
    lowers its theta by ``simple_lowering`` steps until the root is simple,
    so that u^{-1}(theta_c) is a simple root.  B and F keep fixed words,
    shifted onto their labels: other reduced words of the same u than the
    lowering gives.  The postcondition is always checked."""
    word: list[int] = []
    target_len = 0
    for (letter, n), comp, cur in zip(rs.cartan_type.components, rs.components, highest_roots(rs)):
        target_len += dual_coxeter_number(rs, cur) - 2
        if letter == "B":
            local = list(range(2, n + 1)) + list(range(1, n - 1))
        elif letter == "F":
            local = [1, 2, 3, 4, 2, 3, 1]
        else:
            while sum(cur) > 1:
                i, cur = simple_lowering(rs, cur)
                word.append(i)
            continue
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
    there are none.  ``pi_prime`` lists the ambient coordinates of the
    child's simple roots in the child's labeling order, and ``labels`` the
    simple index j with u(pi_prime[k]) = a_j for each of them."""

    __slots__ = ("rs", "pi_prime", "labels", "child")

    def to_ambient(self, child_root) -> tuple:
        return tuple(sum(map(mul, child_root, col)) for col in zip(*self.pi_prime))


def orthogonal_subsystem(rs: RootSystem, u: WeylElement) -> Subsystem:
    """Subsystem of roots orthogonal to u^{-1}(theta_c) for every highest
    root theta_c.  theta_c is dominant, so a positive root orthogonal to it
    has no a_j with (a_j, theta_c) > 0 in its support: the roots orthogonal
    to every theta_c have the simple roots a_j orthogonal to every theta_c,
    and the subsystem has the simple roots u^{-1}(a_j), in root order.
    Verified: they are positive, so u carries the subsystem into the
    positives, and the child's cascade is the ambient one without its
    forest tops, carried by u^{-1}."""
    if u.rs is not rs:
        raise ValueError("elements of different groups")
    u_inv = inverse(u)
    tops = highest_roots(rs)
    # (a_j, theta) = 0 iff <theta, a_j^v> = 0
    top_pairings = [rs.coroot_pairings[rs.root_index[theta]] for theta in tops]
    label = {
        act(u_inv, rs.simple_root(j + 1)): j + 1
        for j in range(rs.rank)
        if not any(p[j] for p in top_pairings)
    }
    if not all(is_positive_root(rs, b) for b in label):
        raise ConstructError("u does not carry the subsystem into the positives")
    if not label:
        return Subsystem(rs, (), (), None)
    comps = nonorthogonal_components(rs, sorted(label, key=rs.root_index.__getitem__))
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
    sub = Subsystem(rs, pi_prime, tuple(map(label.__getitem__, pi_prime)), child)
    want = {act(u_inv, g) for g in build_cascade(rs).roots if g not in tops}
    got = set(map(sub.to_ambient, build_cascade(child).roots))
    if got != want:
        raise ConstructError("subsystem cascade does not match the ambient one")
    return sub


def build_v(rs: RootSystem) -> WeylElement:
    """Element whose inversion set avoids the cascade and meets every
    matched pair exactly once: u times the lift of the recursive solution x
    on the subsystem orthogonal to u^{-1}(theta_c) for every component c.
    u maps the child's simple root k to a_j, j = ``labels[k - 1]``, so the
    lift is u^{-1} x' u, x' being a word of x with each letter k relabelled
    to j, and v = x' u.  Components commute, so a reducible system is its
    components' recursions side by side, and each level builds one child
    root system."""
    word = build_u_for_theta(rs)
    u = from_word(rs, word)
    sub = orthogonal_subsystem(rs, u)
    if sub.child is None:
        return u
    x = reduced_word(build_v(sub.child))
    return from_word(rs, tuple(sub.labels[k - 1] for k in x) + word)


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
