"""Exact Weyl group elements as integer matrices on root-lattice coordinates.

An element is the n x n integer matrix whose columns are the images of the
simple roots.  Matrix equality is element equality, so no word-problem
normalization is ever needed.  Lengths, inversion sets, descents, reduced
words, reflection length and capped breadth-first enumeration all run on
exact integer/rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .rootsys import RootSystem, pairing, weyl_order

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
    "perm_to_element",
    "element_to_perm",
    "perm_string",
]

Matrix = tuple  # tuple of row tuples, ints


class GroupTooLargeError(RuntimeError):
    def __init__(self, order: int, cap: int):
        super().__init__(f"group order {order} exceeds enumeration cap {cap}")
        self.order = order
        self.cap = cap


def _identity_matrix(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(row[k] * col[k] for k in range(n)) for col in bt) for row in a
    )


def _mat_vec(m: Matrix, v: Sequence) -> tuple:
    n = len(m)
    return tuple(sum(m[i][k] * v[k] for k in range(n)) for i in range(n))


class WeylElement:
    __slots__ = ("rs", "matrix", "_hash", "_len", "_inv", "_rword")

    def __init__(self, rs: RootSystem, matrix: Matrix):
        self.rs = rs
        self.matrix = matrix
        self._hash = hash(matrix)
        self._len: Optional[int] = None
        self._inv: Optional["WeylElement"] = None
        self._rword: Optional[tuple[int, ...]] = None

    def __eq__(self, other) -> bool:
        return isinstance(other, WeylElement) and self.matrix == other.matrix

    def __hash__(self) -> int:
        return self._hash

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if self.rs is not other.rs:
            raise ValueError("elements of different groups")
        return WeylElement(self.rs, _mat_mul(self.matrix, other.matrix))

    def act(self, v: Sequence) -> tuple:
        return _mat_vec(self.matrix, v)

    def is_identity(self) -> bool:
        return self.matrix == _identity_matrix(self.rs.rank)

    def sort_key(self):
        return (length(self), self.matrix)

    def __repr__(self) -> str:
        word = ",".join(str(i) for i in reduced_word(self))
        return f"W[{word or 'e'}]"


def identity(rs: RootSystem) -> WeylElement:
    return WeylElement(rs, _identity_matrix(rs.rank))


def simple_reflection(rs: RootSystem, i: int) -> WeylElement:
    """s_i for a 1-based simple index: row i gets delta_ij - c_ij."""
    if not 1 <= i <= rs.rank:
        raise ValueError(f"simple index {i} out of range")
    n = rs.rank
    k = i - 1
    rows = []
    for r in range(n):
        if r != k:
            rows.append(tuple(int(r == j) for j in range(n)))
        else:
            rows.append(tuple(int(k == j) - rs.cartan[k][j] for j in range(n)))
    return WeylElement(rs, tuple(rows))


def reflection(rs: RootSystem, b: Sequence) -> WeylElement:
    """The reflection s_b through an arbitrary root b."""
    nb = pairing(rs, b, b)
    n = rs.rank
    cols = []
    for j in range(n):
        e = tuple(int(j == k) for k in range(n))
        coeff = Fraction(2 * pairing(rs, e, b), nb)
        col = [e[k] - coeff * b[k] for k in range(n)]
        if any(Fraction(c).denominator != 1 for c in col):
            raise ValueError(f"{tuple(b)} does not give an integral reflection")
        cols.append([int(c) for c in col])
    rows = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
    return WeylElement(rs, rows)


def multiply(a: WeylElement, b: WeylElement) -> WeylElement:
    return a * b


def inverse(a: WeylElement) -> WeylElement:
    if a._inv is None:
        n = len(a.matrix)
        aug = [
            [Fraction(a.matrix[i][j]) for j in range(n)]
            + [Fraction(int(i == j)) for j in range(n)]
            for i in range(n)
        ]
        for col in range(n):
            piv = next(r for r in range(col, n) if aug[r][col] != 0)
            aug[col], aug[piv] = aug[piv], aug[col]
            inv_p = 1 / aug[col][col]
            aug[col] = [x * inv_p for x in aug[col]]
            for r in range(n):
                if r != col and aug[r][col] != 0:
                    f = aug[r][col]
                    aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
        rows = tuple(tuple(int(aug[i][n + j]) for j in range(n)) for i in range(n))
        a._inv = WeylElement(a.rs, rows)
        a._inv._inv = a
    return a._inv


def act(a: WeylElement, v: Sequence) -> tuple:
    return a.act(v)


def _is_negative(v: Sequence) -> bool:
    return all(c <= 0 for c in v)


def length(w: WeylElement) -> int:
    if w._len is None:
        w._len = sum(1 for b in w.rs.positive_roots if _is_negative(w.act(b)))
    return w._len


def inversion_set(w: WeylElement) -> frozenset:
    """The set of positive roots sent negative by w^{-1}."""
    out = []
    for b in w.rs.positive_roots:
        img = w.act(b)
        if _is_negative(img):
            out.append(tuple(-c for c in img))
    return frozenset(out)


def right_descents(w: WeylElement) -> list[int]:
    n = w.rs.rank
    cols = tuple(zip(*w.matrix))
    return [i + 1 for i in range(n) if _is_negative(cols[i])]


def left_descents(w: WeylElement) -> list[int]:
    return right_descents(inverse(w))


def smallest_left_descent(w: WeylElement) -> Optional[int]:
    inv = inverse(w)
    cols = tuple(zip(*inv.matrix))
    for i in range(w.rs.rank):
        if _is_negative(cols[i]):
            return i + 1
    return None


def reduced_word(w: WeylElement) -> tuple[int, ...]:
    """Lexicographically smallest reduced word (greedy smallest left descent)."""
    if w._rword is None:
        word = []
        u = inverse(w)  # strip right descents of w^{-1} = left descents of w
        n = w.rs.rank
        while True:
            cols = tuple(zip(*u.matrix))
            i = next((k + 1 for k in range(n) if _is_negative(cols[k])), None)
            if i is None:
                break
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
    """The roots b_k = (s_{i_1}...s_{i_{k-1}})(a_{i_k}) of a reduced word."""
    if not is_reduced(rs, word):
        raise ValueError(f"word {tuple(word)} is not reduced")
    out = []
    prefix = identity(rs)
    for i in word:
        out.append(prefix.act(rs.simple_root(i)))
        prefix = prefix * simple_reflection(rs, i)
    return out


def kernel_dim(matrix: Sequence[Sequence]) -> int:
    """Exact nullity of a square matrix over the rationals."""
    n = len(matrix)
    rows = [[Fraction(x) for x in row] for row in matrix]
    rank = 0
    col = 0
    while rank < n and col < n:
        piv = next((r for r in range(rank, n) if rows[r][col] != 0), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv_p = 1 / rows[rank][col]
        rows[rank] = [x * inv_p for x in rows[rank]]
        for r in range(n):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return n - rank


def reflection_length(w: WeylElement) -> int:
    """Minimal number of reflections multiplying to w: n - dim Ker(w - 1)."""
    n = w.rs.rank
    shifted = [
        [w.matrix[i][j] - int(i == j) for j in range(n)] for i in range(n)
    ]
    return n - kernel_dim(shifted)


def is_involution(w: WeylElement) -> bool:
    return (w * w).is_identity()


def longest_element(rs: RootSystem) -> WeylElement:
    """Greedy ascent: right-multiply by the smallest non-descent until all
    simple roots map to negatives."""
    w = identity(rs)
    n = rs.rank
    while True:
        cols = tuple(zip(*w.matrix))
        i = next((k + 1 for k in range(n) if not _is_negative(cols[k])), None)
        if i is None:
            return w
        w = w * simple_reflection(rs, i)


def enumerate_group(rs: RootSystem, cap: int = 60000) -> list[WeylElement]:
    """All elements, ordered by (length, matrix).  Raises if |W| > cap."""
    order = weyl_order(rs.cartan_type)
    if order > cap:
        raise GroupTooLargeError(order, cap)
    gens = [simple_reflection(rs, i) for i in range(1, rs.rank + 1)]
    e = identity(rs)
    seen = {e.matrix: e}
    layer = [e]
    layers = [layer]
    while layer:
        nxt = {}
        for w in layer:
            for s in gens:
                ws = w * s
                if ws.matrix not in seen and ws.matrix not in nxt:
                    nxt[ws.matrix] = ws
        layer = [nxt[m] for m in sorted(nxt)]
        seen.update(nxt)
        if layer:
            layers.append(layer)
    out = []
    for depth, lv in enumerate(layers):
        for w in lv:
            w._len = depth  # BFS depth over simple generators is the length
        out.extend(lv)
    if len(out) != order:
        raise RuntimeError(f"enumerated {len(out)} elements, expected {order}")
    return out


# ---------------------------------------------------------------------------
# One-line notation for type A_n (permutations of 1..n+1).


def _check_type_a(rs: RootSystem) -> int:
    t = rs.cartan_type
    if len(t.components) != 1 or t.components[0][0] != "A":
        raise ValueError("one-line notation requires a single type-A component")
    return t.components[0][1]


def _eps_coords(c: Sequence) -> list:
    """Root-lattice coords -> coefficients in the e_1..e_{n+1} basis."""
    n = len(c)
    return [c[0]] + [c[m] - c[m - 1] for m in range(1, n)] + [-c[n - 1]]


def perm_to_element(rs: RootSystem, perm: Sequence[int]) -> WeylElement:
    n = _check_type_a(rs)
    if sorted(perm) != list(range(1, n + 2)):
        raise ValueError(f"{perm} is not a permutation of 1..{n + 1}")
    cols = []
    for j in range(n):
        a, b = perm[j], perm[j + 1]
        col = [0] * n
        sign = 1
        if a > b:
            a, b = b, a
            sign = -1
        for k in range(a - 1, b - 1):
            col[k] = sign
        cols.append(col)
    rows = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
    return WeylElement(rs, rows)


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
