"""Exact Weyl group elements as permutations of the roots.

The 2N roots are numbered as in ``RootSystem.roots`` (positives first, so
root k + N is -(root k)), and an element is the tuple ``perm`` with
``perm[k]`` the index of its image of root k (Bjorner-Brenti, *Combinatorics
of Coxeter Groups*, ch. 4).  Permutation equality is element equality, so no
word-problem normalization is ever needed; products, inverses, lengths,
inversion sets and descents are index lookups.

The integer matrix whose columns are the images of the simple roots is a
derived view, built and cached where behaviour depends on it: the ordering
``sort_key`` (length, then matrix), eigenspace dimensions (hence reflection
length) and the action on a vector that is not a root.

The representation is private to this module: other modules see only the
functions below, and they key dicts and sets on the elements themselves
(an element hashes its permutation once and compares by it).  Changing the
representation touches this file only.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .rootsys import RootSystem, is_positive_root, is_root, weyl_order

__all__ = [
    "WeylElement",
    "GroupTooLargeError",
    "identity",
    "simple_reflection",
    "reflection",
    "multiply",
    "inverse",
    "act",
    "length",
    "inversion_set",
    "reduced_word",
    "all_reduced_words",
    "roots_of_word",
    "from_word",
    "reflection_length",
    "longest_element",
    "enumerate_group",
    "kernel_dim",
    "eigenspace_dim",
    "is_type_a",
    "perm_to_element",
    "element_to_perm",
    "perm_string",
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
    once per root and kept in the root system's cache."""
    perms = rs.cache.setdefault("reflections", {})
    perm = perms.get(b)
    if perm is None:
        fb = [sum(f * c for f, c in zip(row, b)) for row in rs.form]  # (e_i, b)
        bb = sum(c * f for c, f in zip(b, fb))
        images = []
        for r in rs.roots:
            k = 2 * sum(c * f for c, f in zip(r, fb)) // bb  # exact for roots
            images.append(rs.root_index[tuple(c - k * x for c, x in zip(r, b))])
        perm = perms[b] = tuple(images)
    return perm


def _simple(rs: RootSystem) -> tuple[tuple[Perm, ...], tuple[int, ...]]:
    """The permutations of s_1..s_n and the root indices of a_1..a_n."""
    got = rs.cache.get("simple_reflections")
    if got is None:
        simple = [rs.simple_root(i) for i in range(1, rs.rank + 1)]
        got = rs.cache["simple_reflections"] = (
            tuple(_reflection_perm(rs, a) for a in simple),
            tuple(rs.root_index[a] for a in simple),
        )
    return got


def _mat_vec(m: Matrix, v: Sequence) -> tuple:
    n = len(m)
    return tuple(sum(m[i][k] * v[k] for k in range(n)) for i in range(n))


class WeylElement:
    __slots__ = ("rs", "perm", "_hash", "_len", "_rword", "_matrix")

    def __init__(self, rs: RootSystem, perm: Perm):
        self.rs = rs
        self.perm = perm
        self._hash = hash(perm)
        self._len: Optional[int] = None
        self._rword: Optional[tuple[int, ...]] = None
        self._matrix: Optional[Matrix] = None

    def __eq__(self, other) -> bool:
        return isinstance(other, WeylElement) and self.perm == other.perm

    def __hash__(self) -> int:
        return self._hash

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if self.rs is not other.rs:
            raise ValueError("elements of different groups")
        a = self.perm
        return WeylElement(self.rs, tuple([a[k] for k in other.perm]))

    @property
    def matrix(self) -> Matrix:
        """Rows of the matrix whose column j is the image of a_{j+1}."""
        if self._matrix is None:
            roots = self.rs.roots
            _, simple_index = _simple(self.rs)
            cols = [roots[self.perm[k]] for k in simple_index]
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


def identity(rs: RootSystem) -> WeylElement:
    return WeylElement(rs, tuple(range(len(rs.roots))))


def simple_reflection(rs: RootSystem, i: int) -> WeylElement:
    """s_i for a 1-based simple index: it changes only coordinate i of a
    root, b_i -> b_i - sum_j c_ij b_j."""
    if not 1 <= i <= rs.rank:
        raise ValueError(f"simple index {i} out of range")
    perms, _ = _simple(rs)
    return WeylElement(rs, perms[i - 1])


def reflection(rs: RootSystem, b: Sequence) -> WeylElement:
    """The reflection s_b through a root b; ValueError for a non-root."""
    b = tuple(b)
    if not is_root(rs, b):
        raise ValueError(f"{b} is not a root")
    return WeylElement(rs, _reflection_perm(rs, b))


def multiply(a: WeylElement, b: WeylElement) -> WeylElement:
    return a * b


def inverse(a: WeylElement) -> WeylElement:
    inv = [0] * len(a.perm)
    for k, j in enumerate(a.perm):
        inv[j] = k
    return WeylElement(a.rs, tuple(inv))


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


def _scan_simple_images(w: WeylElement, negative: bool = True) -> Iterator[int]:
    """1-based indices i, ascending, for which w sends a_i to a negative
    root (``negative=False``: to a positive one).  Lazy, so ``next`` stops
    at the first hit."""
    n_pos = len(w.perm) // 2
    _, simple_index = _simple(w.rs)
    for i, k in enumerate(simple_index, 1):
        if (w.perm[k] >= n_pos) == negative:
            yield i


def right_descents(w: WeylElement) -> list[int]:
    return list(_scan_simple_images(w))


def left_descents(w: WeylElement) -> list[int]:
    return right_descents(inverse(w))


def smallest_left_descent(w: WeylElement) -> Optional[int]:
    return next(_scan_simple_images(inverse(w)), None)


def reduced_word(w: WeylElement) -> tuple[int, ...]:
    """Lexicographically smallest reduced word (greedy smallest left descent)."""
    if w._rword is None:
        word = []
        u = inverse(w)  # strip right descents of w^{-1} = left descents of w
        while (i := next(_scan_simple_images(u), None)) is not None:
            word.append(i)
            u = u * simple_reflection(w.rs, i)
        if not u.is_identity():
            raise RuntimeError("descent stripping did not reach the identity")
        w._rword = tuple(word)
    return w._rword


def all_reduced_words(w: WeylElement) -> list[tuple[int, ...]]:
    if w.is_identity():
        return [()]
    out = []
    for i in left_descents(w):
        shorter = simple_reflection(w.rs, i) * w
        out.extend((i,) + tail for tail in all_reduced_words(shorter))
    return sorted(out)


def from_word(rs: RootSystem, word: Sequence[int]) -> WeylElement:
    w = identity(rs)
    for i in word:
        w = w * simple_reflection(rs, i)
    return w


def is_reduced(rs: RootSystem, word: Sequence[int]) -> bool:
    return length(from_word(rs, word)) == len(word)


def roots_of_word(rs: RootSystem, word: Sequence[int]) -> list[tuple]:
    """The roots b_k = (s_{i_1}...s_{i_{k-1}})(a_{i_k}) of a reduced word;
    the word is reduced iff every b_k is positive."""
    out = []
    prefix = identity(rs)
    for i in word:
        s = simple_reflection(rs, i)
        b = prefix.act(rs.simple_root(i))
        if not is_positive_root(rs, b):
            raise ValueError(f"word {tuple(word)} is not reduced")
        out.append(b)
        prefix = prefix * s
    return out


def kernel_dim(matrix: Sequence[Sequence]) -> int:
    """Exact nullity of a square matrix over the rationals (Gaussian
    elimination on Fractions)."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    n = len(rows)
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, n) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        for r in range(rank + 1, n):
            f = rows[r][col] / top[col]
            if f:
                rows[r] = [x - f * y for x, y in zip(rows[r], top)]
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
    simple roots map to negatives."""
    w = identity(rs)
    while (i := next(_scan_simple_images(w, negative=False), None)) is not None:
        w = w * simple_reflection(rs, i)
    return w


def enumerate_group(rs: RootSystem, cap: int = 60000) -> list[WeylElement]:
    """All elements, ordered by (length, matrix).  Raises if |W| > cap."""
    order = weyl_order(rs.cartan_type)
    if order > cap:
        raise GroupTooLargeError(order, cap)
    gens = [simple_reflection(rs, i) for i in range(1, rs.rank + 1)]
    layer = [identity(rs)]
    seen = set(layer)
    out = []
    depth = 0
    while layer:
        for w in layer:
            w._len = depth  # BFS depth over simple generators is the length
        out.extend(layer)
        nxt = {w * s for w in layer for s in gens} - seen
        seen |= nxt
        layer = sorted(nxt, key=lambda x: x.matrix)
        depth += 1
    if len(out) != order:
        raise RuntimeError(f"enumerated {len(out)} elements, expected {order}")
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


def _eps_coords(c: Sequence) -> list:
    """Root-lattice coords -> coefficients in the e_1..e_{n+1} basis."""
    n = len(c)
    return [c[0]] + [c[m] - c[m - 1] for m in range(1, n)] + [-c[n - 1]]


def perm_to_element(rs: RootSystem, perm: Sequence[int]) -> WeylElement:
    n = _check_type_a(rs)
    if sorted(perm) != list(range(1, n + 2)):
        raise ValueError(f"{perm} is not a permutation of 1..{n + 1}")
    # right multiplication by s_j swaps entries j and j+1, so bubble-sorting
    # p by the swaps j_1, ..., j_m gives p = s_{j_m} ... s_{j_1}
    p, swaps = list(perm), []
    for _ in range(n):
        for j in range(n):
            if p[j] > p[j + 1]:
                p[j], p[j + 1] = p[j + 1], p[j]
                swaps.append(j + 1)
    return from_word(rs, swaps[::-1])


def element_to_perm(w: WeylElement) -> tuple[int, ...]:
    n = _check_type_a(w.rs)
    perm = [0] * (n + 1)
    for j in range(1, n + 1):
        x = w.act(tuple(int(k < j) for k in range(n)))  # w(a_1 + ... + a_j)
        eps = _eps_coords(x)
        plus = eps.index(1) + 1
        minus = eps.index(-1) + 1
        perm[0] = plus
        perm[j] = minus
    return tuple(perm)


def perm_string(w: WeylElement) -> str:
    """One-line notation: digits run together up to 9 entries, and
    comma-separated from 10 entries on, where digits would be ambiguous."""
    perm = element_to_perm(w)
    return ("," if len(perm) >= 10 else "").join(str(k) for k in perm)


def perm_from_string(rs: RootSystem, text: str) -> WeylElement:
    """Inverse of perm_string: run-together digits or comma-separated entries."""
    text = text.strip()
    entries = text.split(",") if "," in text else text
    return perm_to_element(rs, tuple(int(tok) for tok in entries))
