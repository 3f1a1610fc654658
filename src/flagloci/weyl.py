"""Exact Weyl group elements as permutations of the roots.

The 2N roots are numbered as in ``RootSystem.roots`` (positives first, so
root k + N is -(root k)), and an element is the tuple ``perm`` with
``perm[k]`` the index of its image of root k (Bjorner-Brenti, *Combinatorics
of Coxeter Groups*, ch. 4).  Within one Cartan type permutation equality is
element equality, so no word-problem normalization is ever needed;
products, inverses, lengths, inversion sets and descents are index
lookups.  The simple root a_i is positive root n - i (``rootsys`` orders
the positive roots by height, then coordinates), so s_i is a right
descent of w iff ``perm[n - i] >= N``, on every element alike.

The integer matrix whose columns are the images of the simple roots is a
derived view, built and cached where behaviour depends on it: the ordering
``sort_key`` (length, then matrix), eigenspace dimensions (hence reflection
length) and the action on a vector that is not a root.

Once a group has been enumerated there is one object per element: every
constructor goes through ``_make``, which returns the object recorded by
``enumerate_group`` in ``rs.cache["elements"]``, so an element's length,
reduced word and matrix are computed once per group element.  A pooled
element also keeps its right neighbours w s_1, ..., w s_n, which the
enumeration forms anyway, and its inverse, which ``inverse`` links both
ways on first use.  So on a pooled group ``times_simple`` and ``inverse``
are lookups, with no permutation product and no pool lookup; a left step
s_i w goes through ``simple_times`` as (w^{-1} s_i)^{-1}, and
``identity`` and ``from_word`` read the pool the same way.  A group that
is never enumerated has no pool, and each product is a fresh object that
holds no reference to another element.  An unpickled or deep-copied
element is made again from its permutation on a root system rebuilt from
its type, so it equals the original but is not pooled.

The representation is private to this module: other modules see only the
functions below, and they key dicts and sets on the elements themselves
(an element hashes its permutation once; equality is identity first, then
the permutation and the Cartan type, so elements of B2 and C2 differ).
Changing the representation touches this file only.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Optional, Sequence

from .rootsys import RootSystem, is_root, simple_lowering, weyl_order

__all__ = [
    "WeylElement",
    "GroupTooLargeError",
    "identity",
    "simple_reflection",
    "reflection",
    "multiply",
    "times_simple",
    "simple_times",
    "inverse",
    "act",
    "length",
    "inversion_set",
    "right_descents",
    "is_right_descent",
    "smallest_right_descent",
    "leq_by_descents",
    "left_descents",
    "smallest_left_descent",
    "reduced_word",
    "all_reduced_words",
    "roots_of_word",
    "from_word",
    "is_reduced",
    "reflection_length",
    "is_involution",
    "longest_element",
    "enumerate_group",
    "kernel_dim",
    "eigenspace_dim",
    "is_type_a",
    "parse_perm",
    "perm_word",
    "oneline",
    "perm_to_element",
    "element_to_perm",
    "perm_string",
    "element_name",
    "perm_from_string",
]

Matrix = tuple  # tuple of row tuples, ints
Perm = tuple  # perm[k] = index of the image of root k


class GroupTooLargeError(RuntimeError):
    def __init__(self, order: int, cap: int):
        super().__init__(f"group order {order} exceeds enumeration cap {cap}")
        self.order = order
        self.cap = cap


def _reflection_perm(rs: RootSystem, b: tuple) -> Perm:
    """r -> r - 2(r, b)/(b, b) b on the root indices, for a root b; built
    once per positive root (-b gives the same reflection) and kept in the
    root system's cache.

    A simple reflection s_i changes only coordinate i of a root,
    r -> r - <r, a_i^v> a_i, read off the pairings the root enumeration
    carries (a root with <r, a_i^v> = 0 is fixed, and no tuple is built for
    it), and sends -r to the negative of the image of r.  Any other positive
    root b is s_i b' for the root b' = s_i b of lower height that
    ``simple_lowering`` picks, and s_b = s_i s_{b'} s_i (Humphreys,
    *Reflection Groups and Coxeter Groups*, 1.2) is composed on the
    permutations, with no form arithmetic."""
    perms = rs.cache.setdefault("reflections", {})
    n_pos = len(rs.positive_roots)
    k = rs.root_index[b]
    if k >= n_pos:
        b = rs.roots[k - n_pos]
    perm = perms.get(b)
    if perm is not None:
        return perm
    if sum(b) == 1:
        i = b.index(1)
        index = rs.root_index
        images = [
            index[r[:i] + (r[i] - p[i],) + r[i + 1 :]] if p[i] else m
            for m, (r, p) in enumerate(zip(rs.positive_roots, rs.coroot_pairings))
        ]
        perm = tuple(images + [(j + n_pos) % (2 * n_pos) for j in images])
    else:
        i, lower = simple_lowering(rs, b)
        s = _reflection_perm(rs, rs.simple_root(i))
        middle = _reflection_perm(rs, lower)
        perm = itemgetter(*itemgetter(*s)(middle))(s)  # s[middle[s[k]]]
    perms[b] = perm
    return perm


def _simple(rs: RootSystem) -> tuple:
    """For each s_i an ``itemgetter`` that right-multiplies a permutation by
    it."""
    got = rs.cache.get("simple_reflections")
    if got is None:
        got = rs.cache["simple_reflections"] = tuple(
            itemgetter(*_reflection_perm(rs, rs.simple_root(i))) for i in range(1, rs.rank + 1)
        )
    return got


def _first_simple(perm: Perm, n: int, negative: bool = True) -> Optional[int]:
    """The smallest 1-based i for which the permutation sends a_i, positive
    root n - i, to a negative root (``negative=False``: to a positive one);
    None if there is none."""
    n_pos = len(perm) // 2
    for i in range(1, n + 1):
        if (perm[n - i] >= n_pos) == negative:
            return i
    return None


def _mat_vec(m: Matrix, v: Sequence) -> tuple:
    n = len(m)
    return tuple(sum(m[i][k] * v[k] for k in range(n)) for i in range(n))


class WeylElement:
    __slots__ = ("rs", "perm", "_hash", "_len", "_rword", "_matrix", "_right", "_inv")

    def __init__(self, rs: RootSystem, perm: Perm):
        self.rs = rs
        self.perm = perm
        self._hash = hash(perm)
        self._len: Optional[int] = None
        self._rword: Optional[tuple[int, ...]] = None
        self._matrix: Optional[Matrix] = None
        # set on pooled elements only: w s_1, ..., w s_n by enumerate_group,
        # the inverse by inverse on first use; the descents are read off perm
        self._right: Optional[tuple[WeylElement, ...]] = None
        self._inv: Optional[WeylElement] = None

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, WeylElement)
            and self.perm == other.perm
            and self.rs.cartan_type == other.rs.cartan_type
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # a copy or an unpickled element is made again from its permutation,
        # so the neighbours of a pooled element are not walked depth-first
        return _make, (self.rs, self.perm)

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if self.rs is not other.rs:
            raise ValueError("elements of different groups")
        return _make(self.rs, itemgetter(*other.perm)(self.perm))

    @property
    def matrix(self) -> Matrix:
        """Rows of the matrix whose column j is the image of a_{j+1}."""
        if self._matrix is None:
            roots, n, perm = self.rs.roots, self.rs.rank, self.perm
            cols = [roots[perm[n - j]] for j in range(1, n + 1)]  # a_j is root n - j
            self._matrix = tuple(zip(*cols))
        return self._matrix

    def act(self, v: Sequence) -> tuple:
        k = self.rs.root_index.get(tuple(v))
        if k is None:
            return _mat_vec(self.matrix, v)
        return self.rs.roots[self.perm[k]]

    def is_identity(self) -> bool:
        return length(self) == 0

    def sort_key(self):
        return (length(self), self.matrix)

    def __repr__(self) -> str:
        word = ",".join(str(i) for i in reduced_word(self))
        return f"W[{word or 'e'}]"


def _make(rs: RootSystem, perm: Perm) -> WeylElement:
    """The element with permutation ``perm``: the pooled object once the
    group has been enumerated, a fresh one otherwise.  The one call site of
    the constructor."""
    pool = rs.cache.get("elements")
    if pool is not None:
        return pool[perm]
    return WeylElement(rs, perm)


def identity(rs: RootSystem) -> WeylElement:
    pool = rs.cache.get("elements")
    if pool is not None:
        return next(iter(pool.values()))  # the pool starts at length 0
    return _make(rs, tuple(range(len(rs.roots))))


def _check_letter(rs: RootSystem, i: int) -> None:
    if not 1 <= i <= rs.rank:
        raise ValueError(f"simple index {i} out of range")


def simple_reflection(rs: RootSystem, i: int) -> WeylElement:
    """s_i for a 1-based simple index: it changes only coordinate i of a
    root, b_i -> b_i - sum_j c_ij b_j."""
    return _make(rs, _reflection_perm(rs, rs.simple_root(i)))


def reflection(rs: RootSystem, b: Sequence) -> WeylElement:
    """The reflection s_b through a root b; ValueError for a non-root."""
    b = tuple(b)
    if not is_root(rs, b):
        raise ValueError(f"{b} is not a root")
    return _make(rs, _reflection_perm(rs, b))


def multiply(a: WeylElement, b: WeylElement) -> WeylElement:
    return a * b


def times_simple(w: WeylElement, i: int) -> WeylElement:
    """w s_i for a 1-based simple index: the neighbour a pooled element
    keeps, else one permutation product."""
    _check_letter(w.rs, i)
    right = w._right
    if right is not None:
        return right[i - 1]
    return _make(w.rs, _simple(w.rs)[i - 1](w.perm))


def simple_times(i: int, w: WeylElement) -> WeylElement:
    """s_i w for a 1-based simple index: (w^{-1} s_i)^{-1} on a pooled
    element, whose inverse and neighbours are lookups, else one
    permutation product."""
    if w._right is not None:
        return inverse(times_simple(inverse(w), i))
    return _make(w.rs, itemgetter(*w.perm)(_reflection_perm(w.rs, w.rs.simple_root(i))))


def _inverse_perm(perm: Perm) -> Perm:
    inv = [0] * len(perm)
    for k, j in enumerate(perm):
        inv[j] = k
    return tuple(inv)


def inverse(a: WeylElement) -> WeylElement:
    """a^{-1}: a pooled element links it both ways on first use, and an
    element outside a pool stays free of references to other elements."""
    inv = a._inv
    if inv is None:
        inv = _make(a.rs, _inverse_perm(a.perm))
        if a._right is not None:
            a._inv, inv._inv = inv, a
    return inv


def act(a: WeylElement, v: Sequence) -> tuple:
    return a.act(v)


def length(w: WeylElement) -> int:
    """The number of positive roots that w sends to negative ones."""
    if w._len is None:
        n_pos = len(w.perm) // 2
        w._len = sum(1 for j in w.perm[:n_pos] if j >= n_pos)
    return w._len


def inversion_set(w: WeylElement) -> frozenset:
    """The set of positive roots sent negative by w^{-1}."""
    n_pos = len(w.perm) // 2
    return frozenset(w.rs.roots[j - n_pos] for j in w.perm[:n_pos] if j >= n_pos)


def right_descents(w: WeylElement) -> list[int]:
    n, perm = w.rs.rank, w.perm
    n_pos = len(perm) // 2
    return [i for i in range(1, n + 1) if perm[n - i] >= n_pos]


def is_right_descent(w: WeylElement, i: int) -> bool:
    """Whether s_i is a right descent of w: whether w sends a_i, positive
    root n - i, to a negative root.  One lookup, where ``i in
    right_descents(w)`` scans every simple root."""
    _check_letter(w.rs, i)
    return w.perm[w.rs.rank - i] >= len(w.perm) // 2


def smallest_right_descent(w: WeylElement) -> Optional[int]:
    return _first_simple(w.perm, w.rs.rank)


def leq_by_descents(v: WeylElement, w: WeylElement) -> bool:
    """Whether v <= w in Bruhat order, by the descent recursion on the
    permutations of the inverses x = v^{-1} and y = w^{-1}: v <= w iff
    x <= y, and for a right descent s of y, x <= y iff min(x, xs) <= ys.
    Each step scans y for its smallest right descent, tests it on x (one
    lookup) and right-multiplies by the cached ``itemgetter`` of s, so no
    element is built; the lengths are tracked as ints, as a step lowers
    l(y) by exactly 1 and l(x) by exactly 1 when s is a descent of x."""
    times = _simple(v.rs)
    n, n_pos = v.rs.rank, len(v.perm) // 2
    x, y = _inverse_perm(v.perm), _inverse_perm(w.perm)
    lx, ly = length(v), length(w)
    while lx < ly:
        i = _first_simple(y, n)
        if x[n - i] >= n_pos:
            x = times[i - 1](x)
            lx -= 1
        y = times[i - 1](y)
        ly -= 1
    return x == y


def left_descents(w: WeylElement) -> list[int]:
    return right_descents(inverse(w))


def smallest_left_descent(w: WeylElement) -> Optional[int]:
    return smallest_right_descent(inverse(w))


def reduced_word(w: WeylElement) -> tuple[int, ...]:
    """Lexicographically smallest reduced word (greedy smallest left descent),
    stripped on the permutation of w^{-1}."""
    if w._rword is None:
        times, n = _simple(w.rs), w.rs.rank
        word = []
        u = _inverse_perm(w.perm)  # right descents of w^{-1} = left descents of w
        while (i := _first_simple(u, n)) is not None:
            word.append(i)
            u = times[i - 1](u)
        w._rword = tuple(word)
    return w._rword


def all_reduced_words(w: WeylElement) -> list[tuple[int, ...]]:
    if w.is_identity():
        return [()]
    out = []
    for i in left_descents(w):
        shorter = simple_times(i, w)
        out.extend((i,) + tail for tail in all_reduced_words(shorter))
    return sorted(out)


def from_word(rs: RootSystem, word: Sequence[int]) -> WeylElement:
    """The product s_{i_1}...s_{i_m}: a walk over the neighbours in a
    pooled group, else composed on the permutations."""
    if rs.cache.get("elements") is not None:
        w = identity(rs)
        for i in word:
            _check_letter(rs, i)
            w = w._right[i - 1]
        return w
    times = _simple(rs)
    w = range(len(rs.roots))
    for i in word:
        _check_letter(rs, i)
        w = times[i - 1](w)
    return _make(rs, tuple(w))


def is_reduced(rs: RootSystem, word: Sequence[int]) -> bool:
    return length(from_word(rs, word)) == len(word)


def roots_of_word(rs: RootSystem, word: Sequence[int]) -> list[tuple]:
    """The roots b_k = (s_{i_1}...s_{i_{k-1}})(a_{i_k}) of a reduced word;
    the word is reduced iff every b_k is positive."""
    times = _simple(rs)
    n, n_pos = rs.rank, len(rs.positive_roots)
    out = []
    prefix = range(len(rs.roots))
    for i in word:
        _check_letter(rs, i)
        k = prefix[n - i]
        if k >= n_pos:
            raise ValueError(f"word {tuple(word)} is not reduced")
        out.append(rs.roots[k])
        prefix = times[i - 1](prefix)
    return out


def kernel_dim(matrix: Sequence[Sequence]) -> int:
    """Exact nullity over the rationals of a square integer matrix, by
    fraction-free Gaussian elimination: below the pivot p of ``top``,
    row <- p * row - f * top with f the row's entry in the pivot column.
    Scaling a row by the nonzero p keeps the rank over Q, and no division
    is made, so the entries stay integers."""
    rows = [list(row) for row in matrix]
    n = len(rows)
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, n) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        p = top[col]
        for r in range(rank + 1, n):
            f = rows[r][col]
            if f:
                rows[r] = [p * x - f * y for x, y in zip(rows[r], top)]
        rank += 1
    return n - rank


def eigenspace_dim(w: WeylElement, sign: int) -> int:
    """dim Ker(w - sign): the fixed space of w for sign 1, its (-1)-eigenspace
    for sign -1."""
    m = w.matrix
    return kernel_dim([[x - sign * (i == j) for j, x in enumerate(row)] for i, row in enumerate(m)])


def reflection_length(w: WeylElement) -> int:
    """Minimal number of reflections multiplying to w: n - dim Ker(w - 1)."""
    return w.rs.rank - eigenspace_dim(w, 1)


def is_involution(w: WeylElement) -> bool:
    return (w * w).is_identity()


def longest_element(rs: RootSystem) -> WeylElement:
    """Greedy ascent: right-multiply by the smallest non-descent until all
    simple roots map to negatives, composed on the permutation.  The
    permutation is kept in ``rs.cache["longest"]``, so the ascent runs once
    per root system; each call hands it to ``_make``, which gives the
    pooled object on an enumerated group."""
    w = rs.cache.get("longest")
    if w is None:
        times = _simple(rs)
        w = tuple(range(len(rs.roots)))
        while (i := _first_simple(w, rs.rank, negative=False)) is not None:
            w = times[i - 1](w)
        rs.cache["longest"] = w
    return _make(rs, w)


def enumerate_group(rs: RootSystem, cap: int = 60000) -> list[WeylElement]:
    """All elements, ordered by (length, matrix).  Raises
    GroupTooLargeError unless |W| <= cap (so a NaN cap refuses every
    group); this is the package's one check of the enumeration cap, and
    ``bruhat.require_table`` builds its table through it.

    The first enumeration of a root system records its elements as the pool
    ``rs.cache["elements"]`` (perm -> element, in this order), and every
    element of rs made afterwards is a pooled object.  The breadth-first
    search forms every w s_i once, so it hands each element its right
    neighbours as it goes."""
    order = weyl_order(rs.cartan_type)
    if not order <= cap:
        raise GroupTooLargeError(order, cap)
    pool = rs.cache.get("elements")
    if pool is not None:
        return list(pool.values())
    times = _simple(rs)
    layer = [identity(rs)]
    seen = {layer[0].perm: layer[0]}
    out = []
    depth = 0
    while layer:
        nxt = []
        for w in layer:
            w._len = depth  # BFS depth over simple generators is the length
            right = []
            for g in times:
                perm = g(w.perm)
                x = seen.get(perm)
                if x is None:
                    x = seen[perm] = _make(rs, perm)
                    nxt.append(x)
                right.append(x)
            w._right = tuple(right)
        out.extend(layer)
        layer = sorted(nxt, key=lambda x: x.matrix)
        depth += 1
    if len(out) != order:
        raise RuntimeError(f"enumerated {len(out)} elements, expected {order}")
    rs.cache["elements"] = {w.perm: w for w in out}
    return out


# ---------------------------------------------------------------------------
# One-line notation for type A_n (permutations of 1..n+1).


def is_type_a(rs: RootSystem) -> bool:
    """Whether rs is a single type-A component, the systems with one-line
    notation."""
    comps = rs.cartan_type.components
    return len(comps) == 1 and comps[0][0] == "A"


def _check_type_a(rs: RootSystem) -> int:
    if not is_type_a(rs):
        raise ValueError("one-line notation requires a single type-A component")
    return rs.rank


def parse_perm(text: str) -> tuple[int, ...]:
    """The entries of a one-line permutation: run-together digits or
    comma-separated entries.  ValueError("cannot parse permutation ...")
    when the text is empty or an entry is empty or not a number in ASCII
    digits; whether the entries form a permutation is not checked here."""
    text = text.strip()
    entries = [tok.strip() for tok in text.split(",")] if "," in text else list(text)
    if not entries or not all(tok.isascii() and tok.isdecimal() for tok in entries):
        raise ValueError(f"cannot parse permutation {text!r}")
    return tuple(int(tok) for tok in entries)


def perm_word(perm: Sequence[int], n: int) -> tuple[int, ...]:
    """A reduced word i_1...i_m with perm = s_{i_1}...s_{i_m}, after
    checking that perm is a permutation of 1..n+1.

    Right multiplication by s_j swaps entries j and j+1, so bubble-sorting
    perm by the swaps j_1, ..., j_m gives perm = s_{j_m} ... s_{j_1}; each
    swap removes one inversion, so the word is reduced."""
    if sorted(perm) != list(range(1, n + 2)):
        raise ValueError(f"{perm} is not a permutation of 1..{n + 1}")
    p, swaps = list(perm), []
    for _ in range(n):
        for j in range(n):
            if p[j] > p[j + 1]:
                p[j], p[j + 1] = p[j + 1], p[j]
                swaps.append(j + 1)
    return tuple(swaps[::-1])


def oneline(perm: Sequence[int]) -> str:
    """One-line notation: digits run together up to 9 entries, and
    comma-separated from 10 entries on, where digits would be ambiguous."""
    return ("," if len(perm) >= 10 else "").join(str(k) for k in perm)


def perm_to_element(rs: RootSystem, perm: Sequence[int]) -> WeylElement:
    return from_word(rs, perm_word(perm, _check_type_a(rs)))


def element_to_perm(w: WeylElement) -> tuple[int, ...]:
    """The one-line permutation of a type-A element: starting from
    (1, ..., n+1), right multiplication by s_i swaps entries i and i+1,
    applied along a reduced word of w (the rule of `perm_word`)."""
    perm = list(range(1, _check_type_a(w.rs) + 2))
    for i in reduced_word(w):
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    return tuple(perm)


def perm_string(w: WeylElement) -> str:
    """One-line notation of a type-A element (see `oneline`)."""
    return oneline(element_to_perm(w))


def element_name(w: WeylElement) -> str:
    """One-line notation in a single type-A system, else a dot-separated
    reduced word; ``e`` for the identity outside type A."""
    if is_type_a(w.rs):
        return perm_string(w)
    word = reduced_word(w)
    return "e" if not word else ".".join(str(i) for i in word)


def perm_from_string(rs: RootSystem, text: str) -> WeylElement:
    """Inverse of perm_string: run-together digits or comma-separated entries."""
    return perm_to_element(rs, parse_perm(text))
