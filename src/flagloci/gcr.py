"""Pairs (v, w) obtained from w by removing pairwise-orthogonal inversion
reflections, their enumeration, and the powerset structure of their
Bruhat intervals.

Three equivalent membership tests are implemented separately so they can be
cross-checked: a matrix eigenvalue count (``is_gcr_cond3``), an involution
plus reflection-length test (``is_gcr_cond4``), and an explicit witness
search inside a reduced word (``is_gcr_cond6``, a ``step`` policy over
``bruhat.walk_subwords``).  The enumeration generates the pairs by the
witness condition itself: one walk over a reduced word of each w yields
every v with its witness (``_removal_walk``, a walker of its own so that
cond6 checks it independently), and cond3 and cond4 stay the independent
oracles.  Maximality is decided from the pairs one gap up that share v or
w (``GcrPoset.maximal_pairs``).

Every ``GcrPair`` stores its witness once, as the host word of w and the
removed positions in it: d is their number, and the removed roots are the
host's inversion roots b_k at those positions, read on demand.  Each pair
is built by its own constructor and validated in two parts (``_Host``).
The per-host part runs once per host word, which ``_host`` keeps per root
system: the host word is reduced, it multiplies to w, and it gives the
inversion roots b_k.  The per-pair part runs for every pair: the positions
strictly ascend inside the host word, the kept letters are a reduced word
of v (so d = l(w) - l(v)), and the removed roots are pairwise orthogonal.
That the removed reflections carry w to v follows and is not checked:
removing positions p_1 < ... < p_d leaves t_{p_1} ... t_{p_d} w, and
orthogonal reflections commute.
Orthogonality of positive roots is read off one bitmask per root system
(``rootsys.orthogonality_masks``); ``is_gcr_cond6`` calls ``orthogonal``
itself, so that it stays an independent oracle.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional

from .bruhat import BruhatTable, interval, leq, require_table, walk_subwords
from .rootsys import RootSystem, orthogonal, orthogonality_masks
from .weyl import (
    WeylElement,
    eigenspace_dim,
    from_word,
    identity,
    inverse,
    is_involution,
    is_right_descent,
    length,
    multiply,
    reduced_word,
    reflection,
    reflection_length,
    roots_of_word,
    times_simple,
)

__all__ = [
    "GcrPair",
    "is_gcr_cond3",
    "is_gcr_cond4",
    "is_gcr_cond6",
    "make_gcr_pair",
    "enumerate_gcr",
    "GcrPoset",
    "pair_encloses",
    "sub_pairs",
    "verify_powerset_interval",
]

# (host_word, removed_positions)
Witness = tuple[tuple[int, ...], tuple[int, ...]]


def is_gcr_cond3(v: WeylElement, w: WeylElement) -> bool:
    """v <= w and the (-1)-eigenspace of v w^{-1} has dim = length difference."""
    d = length(w) - length(v)
    if d < 0 or not leq(v, w):
        return False
    return eigenspace_dim(multiply(v, inverse(w)), -1) == d


def is_gcr_cond4(v: WeylElement, w: WeylElement) -> bool:
    """v <= w and v w^{-1} is an involution of reflection length = length difference."""
    d = length(w) - length(v)
    if d < 0 or not leq(v, w):
        return False
    x = multiply(v, inverse(w))
    if d == 0:
        return x.is_identity()
    return is_involution(x) and reflection_length(x) == d


def is_gcr_cond6(v: WeylElement, w: WeylElement) -> Optional[Witness]:
    """Search a reduced word of w for a reduced subword equal to v whose
    removed inversion roots are pairwise orthogonal.

    Returns (host_word, removed_positions) for the lexicographically first
    removal set, or None.  The search is a policy over
    ``bruhat.walk_subwords``; it is the independent oracle that the
    enumeration (``_removal_walk``, a walker of its own) is tested against,
    so the two share no walk.
    """
    lv = length(v)
    if length(w) < lv:
        return None
    rs = w.rs
    word = reduced_word(w)
    betas = roots_of_word(rs, word)
    d = len(word) - lv

    def step(k, sigma, removed):
        # remove while fewer than d letters are out and the root is
        # orthogonal to every earlier removal; keep a letter only if it
        # ascends and still fits in a reduced word of v
        may_remove = len(removed) < d and all(
            orthogonal(rs, betas[k], betas[p - 1]) for p in removed
        )
        may_keep = not is_right_descent(sigma, word[k]) and k - len(removed) < lv
        return may_remove, may_keep

    hit = next(walk_subwords(rs, word, v, step), None)
    return None if hit is None else (word, hit[0])


def _removal_walk(host: _Host) -> dict[WeylElement, tuple[int, ...]]:
    """Every v that ``is_gcr_cond6`` accepts below ``host.w``, with the
    removed positions of its witness, from one depth-first walk over the
    host word; the inversion roots are the ones ``host`` derived.

    Removal is tried before keeping, as in ``bruhat.walk_subwords``: a
    letter may be removed only if its inversion root is orthogonal to every
    root removed so far, and kept only if it is not a right descent of the
    partial product, so the kept letters stay a reduced word.  Leaves come
    in lexicographic order of their removal sets and pruning never
    reorders them, so the first leaf reaching v carries exactly the
    witness ``is_gcr_cond6(v, w)`` returns.  This walk has no target and is
    kept apart from ``walk_subwords`` on purpose: ``is_gcr_cond6`` is the
    oracle the enumeration is tested against, so the two share no walk."""
    rs, word = host.w.rs, host.word
    n = len(word)
    # a removal set is held as a mask over the positive roots: the roots of
    # a reduced word are distinct, so it names the positions as well
    orth = orthogonality_masks(rs)
    ids = [rs.root_index[b] for b in host.betas]
    first: dict[WeylElement, int] = {}  # v -> mask of its first removal set
    stack = [(0, identity(rs), 0)]
    while stack:
        k, sigma, mask = stack.pop()
        if k == n:
            first.setdefault(sigma, mask)
            continue
        # keep is pushed first, so the removal branch is walked first
        if not is_right_descent(sigma, word[k]):
            stack.append((k + 1, times_simple(sigma, word[k]), mask))
        if not mask & ~orth[ids[k]]:
            stack.append((k + 1, sigma, mask | 1 << ids[k]))
    return {
        v: tuple(k + 1 for k in range(n) if mask >> ids[k] & 1)
        for v, mask in first.items()
    }


class GcrPair:
    """A witnessed pair: removing ``removed_positions`` from ``host_word``
    (a reduced word of w) leaves a reduced word of v, and the removed
    inversion roots are pairwise orthogonal.

    A pair is read-only: the constructor is the one place its fields are
    set, so every pair handed out has passed the checks."""

    __slots__ = ("v", "w", "host_word", "removed_positions")

    def __init__(
        self,
        v: WeylElement,
        w: WeylElement,
        host_word: tuple[int, ...],
        removed_positions: tuple[int, ...],
    ):
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "w", w)
        # stored as tuples before the checks, so a pair given lists hashes
        # and compares like the same pair given tuples
        object.__setattr__(self, "host_word", tuple(host_word))
        object.__setattr__(self, "removed_positions", tuple(removed_positions))
        _host(w, self.host_word).check(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"GcrPair is read-only: cannot assign to {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"GcrPair is read-only: cannot delete {name!r}")

    def __reduce__(self):
        # a copy or an unpickled pair is rebuilt, and so checked, by __init__
        return GcrPair, (self.v, self.w, self.host_word, self.removed_positions)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GcrPair)
            and self.v == other.v
            and self.w == other.w
            and self.host_word == other.host_word
            and self.removed_positions == other.removed_positions
        )

    def __hash__(self) -> int:
        return hash((self.v, self.w, self.host_word, self.removed_positions))

    @property
    def d(self) -> int:
        return len(self.removed_positions)

    @property
    def removed_roots(self) -> tuple[tuple, ...]:
        """The host word's inversion roots at the removed positions."""
        betas = _host(self.w, self.host_word).betas
        return tuple(betas[p - 1] for p in self.removed_positions)


class _Host:
    """A host word of w that passed the per-host checks of ``GcrPair``: it
    is reduced (``roots_of_word`` gives its inversion roots b_k) and it
    multiplies to w.  ``check`` runs the per-pair checks on it.  The roots
    b_k are derived here only: ``_removal_walk`` and
    ``GcrPair.removed_roots`` read them from the host, and every pair on
    the host shares its word."""

    __slots__ = ("w", "word", "betas")

    def __init__(self, w: WeylElement, word: tuple[int, ...]):
        self.betas = roots_of_word(w.rs, word)  # ValueError unless reduced
        if from_word(w.rs, word) != w:
            raise ValueError("host word does not multiply to w")
        self.w = w
        self.word = word

    def check(self, pair: GcrPair) -> None:
        rs, v, positions = self.w.rs, pair.v, pair.removed_positions
        bounds = (0, *positions, len(self.word) + 1)
        if not all(a < b for a, b in zip(bounds, bounds[1:])):
            raise ValueError(
                f"removed positions {positions} do not strictly ascend"
                f" inside 1..{len(self.word)}"
            )
        # the host word is reduced, so this also makes d = l(w) - l(v)
        kept = tuple(s for k, s in enumerate(self.word, start=1) if k not in positions)
        if from_word(rs, kept) != v or len(kept) != length(v):
            raise ValueError("kept letters are not a reduced word of v")
        # inversion roots of a reduced word are positive
        orth, index = orthogonality_masks(rs), rs.root_index
        roots = [self.betas[p - 1] for p in positions]
        for a, b in itertools.combinations(roots, 2):
            if not orth[index[a]] >> index[b] & 1:
                raise ValueError(f"removed roots {a} and {b} are not orthogonal")


def _host(w: WeylElement, word: tuple[int, ...]) -> _Host:
    """The checked host word ``word`` of w, kept in
    ``rs.cache["gcr_hosts"]`` under (w, word): its per-host checks run for
    the first pair on it, and every later pair on it reuses them."""
    hosts = w.rs.cache.setdefault("gcr_hosts", {})
    host = hosts.get((w, word))
    if host is None:
        host = hosts[w, word] = _Host(w, word)
    return host


def make_gcr_pair(v: WeylElement, w: WeylElement) -> GcrPair:
    witness = is_gcr_cond6(v, w)
    if witness is None:
        raise ValueError("pair admits no orthogonal removal witness")
    return GcrPair(v, w, *witness)


def pair_encloses(outer: GcrPair, inner: GcrPair) -> bool:
    """True when [inner.v, inner.w] sits inside [outer.v, outer.w]."""
    return leq(outer.v, inner.v) and leq(inner.w, outer.w)


class GcrPoset:
    """All witnessed pairs of a finite group, ordered by interval enclosure;
    ``pairs`` is a list of its own, ordered by w and then by v, each by
    ``sort_key``."""

    def __init__(self, rs: RootSystem, pairs: Iterable[GcrPair]):
        self.rs = rs
        self.pairs = list(pairs)

    def counts_by_d(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for p in self.pairs:
            out[p.d] = out.get(p.d, 0) + 1
        return dict(sorted(out.items()))

    def maximal_pairs(self) -> list[GcrPair]:
        """Pairs whose interval is not strictly contained in another pair's.

        ``pairs`` must be all witnessed pairs of the group, as
        ``enumerate_gcr`` gives them.  Each interval is Boolean and each of
        its sub-intervals is again witnessed (``sub_pairs``); a d-cube
        strictly inside a larger cube lies in a (d+1)-face of it that
        shares its bottom or its top (Bjorner-Brenti, ch. 2 and 5).  So a
        pair is enclosed iff a pair of gap d + 1 with the same v lies above
        its w, or one with the same w lies below its v."""
        table = require_table(self.rs)
        index = table.index
        ups: dict[tuple[WeylElement, int], int] = {}  # (v, d) -> mask of the w
        downs: dict[tuple[WeylElement, int], int] = {}  # (w, d) -> mask of the v
        for p in self.pairs:
            ups[p.v, p.d] = ups.get((p.v, p.d), 0) | 1 << index[p.w]
            downs[p.w, p.d] = downs.get((p.w, p.d), 0) | 1 << index[p.v]
        return [
            p
            for p in self.pairs
            if not table.up[index[p.w]] & ups.get((p.v, p.d + 1), 0)
            and not table.down[index[p.v]] & downs.get((p.w, p.d + 1), 0)
        ]


def enumerate_gcr(rs: RootSystem, cap: int = 60000) -> GcrPoset:
    """Every witnessed pair of rs, found once per root system and kept in
    ``rs.cache["gcr_pairs"]``; each call returns a fresh poset over them."""
    table = require_table(rs, cap)
    pairs = rs.cache.get("gcr_pairs")
    if pairs is None:
        pairs = rs.cache["gcr_pairs"] = _search(table)
    return GcrPoset(rs, pairs)


def _search(table: BruhatTable) -> tuple[GcrPair, ...]:
    """The pairs of ``_removal_walk`` over every w of the enumerated group,
    ordered by w and then by v, each by ``sort_key``: the table lists the
    elements in that order, so the w come in order and each w's pairs are
    sorted by the table index of v.  Every v the walk reaches is already
    the group's own element (an enumerated group keeps one object per
    element).  The host word reduced_word(w) passes its checks and gives
    its inversion roots once per w (``_host``); each pair is built by the
    ``GcrPair`` constructor, whose lookup finds that host again and runs
    the per-pair checks alone."""
    index = table.index
    pairs = []
    for w in table.elements:
        host = _host(w, reduced_word(w))
        found = sorted(_removal_walk(host).items(), key=lambda item: index[item[0]])
        pairs.extend(GcrPair(v, w, host.word, pos) for v, pos in found)
    return tuple(pairs)


def _subset_products(pair: GcrPair, x: WeylElement) -> dict[tuple[int, ...], WeylElement]:
    """x multiplied on the left by the removed reflections of each subset K
    of {1..d} (ascending, 1-based), subsets in order of size and then
    lexicographically; each product is one reflection times the product of
    K without its largest member."""
    rs = pair.w.rs
    refls = [reflection(rs, g) for g in pair.removed_roots]
    out = {(): x}
    for size in range(1, pair.d + 1):
        for K in itertools.combinations(range(1, pair.d + 1), size):
            out[K] = multiply(refls[K[-1] - 1], out[K[:-1]])
    return out


def sub_pairs(
    pair: GcrPair,
) -> list[tuple[tuple[int, ...], tuple[int, ...], WeylElement, WeylElement]]:
    """For disjoint J, K inside {1..d}: raise v by the J reflections, lower w
    by the K reflections.  Every (v_J, w_K) is again a witnessed pair."""
    w_by_set = _subset_products(pair, pair.w)
    return [
        (J, K, vj, wk)
        for J, vj in _subset_products(pair, pair.v).items()
        for K, wk in w_by_set.items()
        if set(J).isdisjoint(K)
    ]


def verify_powerset_interval(pair: GcrPair) -> bool:
    """Check that [v, w] is exactly {w_K : K subset of {1..d}} and that its
    Hasse diagram is the boolean one (w_K covered by w_{K minus a point}).

    The Hasse diagram decides the order as well: Bruhat order is graded, so
    x <= y inside [v, w] holds iff a chain of covers runs from x up to y,
    and every element of such a chain lies in [v, w].  The order on the
    interval is the closure of its covers, so equal Hasse diagrams give
    the containment-reversing order on the subsets."""
    w_by_set = {frozenset(K): x for K, x in _subset_products(pair, pair.w).items()}
    if len(set(w_by_set.values())) != 2**pair.d:
        return False
    elements, edges = interval(pair.v, pair.w)
    if set(elements) != set(w_by_set.values()):
        return False
    elt_to_set = {x: K for K, x in w_by_set.items()}
    expected_edges = set()
    for K in w_by_set:
        for k in K:
            expected_edges.add((K, K - {k}))  # lower has the larger set
    got_edges = {(elt_to_set[a], elt_to_set[b]) for a, b in edges}
    return got_edges == expected_edges
