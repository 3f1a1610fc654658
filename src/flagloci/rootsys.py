"""Finite crystallographic root systems with exact arithmetic.

Roots are integer coordinate vectors in the simple-root basis, so a root
system of rank n stores tuples of length n.  The bilinear form is encoded
by the symmetrized Cartan matrix (a_i, a_j) = d_i c_ij with the d_i chosen
relatively prime per simple component.  Everything is exact: coordinates
are ints, form values are ints, general vectors may carry Fractions.

Simple roots are labeled 1..n following the Bourbaki numbering, components
of semisimple types in sorted order ("G2xB2" and "B2xG2" agree).

The positive roots are the closure of the simple roots under the raising
simple reflections s_i b = b - <b, a_i^v> a_i with <b, a_i^v> < 0.  The
enumeration carries each root's coroot pairings <b, a_i^v> = sum_j c_ij b_j,
as p(s_i b) = p(b) - <b, a_i^v> * column i of the Cartan matrix, and keeps
them in ``RootSystem.coroot_pairings``.  They are the one source of what is
derived from a root's pairings: its form image F b = (d_i <b, a_i^v>)_i
(``_form_image``), its simple reflections (``weyl``) and the step
``simple_lowering`` to a root of lower height.  The positive roots are
sorted by height, then coordinates, so a_i is positive root n - i, which
is where ``weyl`` reads the descents.  What other modules derive from the
roots (form images, reflection permutations, masks, the cascade forest,
the longest element's permutation) is built on first use and kept in
``RootSystem.cache``.
"""

from __future__ import annotations

from math import factorial
from operator import mul
from typing import Optional, Sequence

__all__ = [
    "CartanType",
    "RootSystem",
    "build_root_system",
    "pairing",
    "pairings_with",
    "simple_lowering",
    "reflect",
    "is_root",
    "is_positive_root",
    "add_roots",
    "highest_roots",
    "orthogonal",
    "orthogonality_masks",
    "strongly_orthogonal",
    "nonorthogonal_components",
    "classify_component",
    "dual_coxeter_number",
    "weyl_order",
]

Coords = tuple  # integer (or Fraction) vector in the simple-root basis

_RANK_MIN = {"A": 1, "B": 2, "C": 2, "D": 4, "E": 6, "F": 4, "G": 2}
_RANK_MAX = {"A": None, "B": None, "C": None, "D": None, "E": 8, "F": 4, "G": 2}

class CartanType:
    """A semisimple Cartan type: ordered tuple of (letter, rank) components."""

    __slots__ = ("components",)

    def __init__(self, components: tuple[tuple[str, int], ...]):
        self.components = components

    def __eq__(self, other) -> bool:
        return isinstance(other, CartanType) and self.components == other.components

    def __hash__(self) -> int:
        return hash(self.components)

    @staticmethod
    def parse(text: str) -> "CartanType":
        parts = text.strip().split("x")
        comps = []
        for part in parts:
            # a token is one letter in A-G or a-g, then ASCII digits
            token = part.strip()
            letter, digits = token[:1].upper(), token[1:]
            if letter not in _RANK_MIN or not (digits.isascii() and digits.isdigit()):
                raise ValueError(f"cannot parse Cartan type token {part!r}")
            rank = int(digits)
            lo = _RANK_MIN[letter]
            hi = _RANK_MAX[letter]
            if rank < lo or (hi is not None and rank > hi):
                raise ValueError(f"rank {rank} out of range for type {letter}")
            comps.append((letter, rank))
        # canonical component order
        comps.sort()
        return CartanType(tuple(comps))

    @property
    def rank(self) -> int:
        return sum(r for _, r in self.components)

    def __str__(self) -> str:
        return "x".join(f"{letter}{rank}" for letter, rank in self.components)


def _cartan_block(letter: str, n: int) -> tuple[list[list[int]], list[int]]:
    """Cartan matrix and symmetrizers of one simple component, Bourbaki labels."""
    c = [[2 * (i == j) for j in range(n)] for i in range(n)]

    def chain(pairs):
        for i, j in pairs:
            c[i][j] = -1
            c[j][i] = -1

    if letter == "A":
        chain((i, i + 1) for i in range(n - 1))
        d = [1] * n
    elif letter == "B":
        # a_n is the short simple root: c[n-1][n-2] = -2
        chain((i, i + 1) for i in range(n - 1))
        c[n - 1][n - 2] = -2
        d = [2] * (n - 1) + [1]
    elif letter == "C":
        # a_n is the long simple root: c[n-2][n-1] = -2
        chain((i, i + 1) for i in range(n - 1))
        c[n - 2][n - 1] = -2
        d = [1] * (n - 1) + [2]
    elif letter == "D":
        chain((i, i + 1) for i in range(n - 2))
        chain([(n - 3, n - 1)])
        d = [1] * n
    elif letter == "E":
        # chain 1-3-4-5-..., node 2 hangs off node 4 (0-based: 1 off 3)
        chain([(0, 2), (2, 3), (1, 3)])
        chain((i, i + 1) for i in range(3, n - 1))
        d = [1] * n
    elif letter == "F":
        chain([(0, 1), (2, 3)])
        c[1][2] = -1
        c[2][1] = -2
        d = [2, 2, 1, 1]
    elif letter == "G":
        c[0][1] = -3
        c[1][0] = -1
        d = [1, 3]
    else:  # pragma: no cover
        raise ValueError(letter)
    return c, d


_POSITIVE_COUNT = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}

_WEYL_ORDER = {
    "A": lambda n: factorial(n + 1),
    "B": lambda n: (1 << n) * factorial(n),
    "C": lambda n: (1 << n) * factorial(n),
    "D": lambda n: (1 << (n - 1)) * factorial(n),
    "E": lambda n: {6: 51840, 7: 2903040, 8: 696729600}[n],
    "F": lambda n: 1152,
    "G": lambda n: 12,
}

def weyl_order(t: CartanType) -> int:
    out = 1
    for letter, rank in t.components:
        out *= _WEYL_ORDER[letter](rank)
    return out


class RootSystem:
    """Root system: Cartan data plus the enumerated roots, immutable apart
    from ``cache``."""

    def __init__(self, cartan_type: CartanType):
        self.cartan_type = cartan_type
        n = cartan_type.rank
        self.rank = n
        cartan = [[0] * n for _ in range(n)]
        sym: list[int] = []
        comps: list[tuple[int, ...]] = []
        off = 0
        for letter, r in cartan_type.components:
            block, d = _cartan_block(letter, r)
            for i in range(r):
                for j in range(r):
                    cartan[off + i][off + j] = block[i][j]
            sym.extend(d)
            comps.append(tuple(range(off, off + r)))
            off += r
        self.cartan = tuple(tuple(row) for row in cartan)
        self.symmetrizers = tuple(sym)
        self.components = tuple(comps)
        form = [[sym[i] * cartan[i][j] for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                if form[i][j] != form[j][i]:
                    raise ValueError("symmetrizers do not symmetrize the Cartan matrix")
        self.form = tuple(tuple(row) for row in form)
        # coroot_pairings[k][i] = <b, a_{i+1}^v> for positive root b = k
        self.positive_roots, self.coroot_pairings = self._enumerate_positive()
        # all 2N roots, positives first: root k + N is -(root k)
        self.roots = self.positive_roots + tuple(
            tuple(-c for c in b) for b in self.positive_roots
        )
        self.root_index = {b: k for k, b in enumerate(self.roots)}
        # memo for tables derived from the root system (Bruhat table, the
        # element pool "elements" of an enumerated group, witnessed pairs,
        # the "gcr_hosts" checked host words of pairs under (w, word),
        # parabolic masks, R-polynomials, reflection permutations, one per
        # positive root, the "simple_reflections" right products, the
        # permutation of the "longest" element, the "form_images" F y of
        # roots read by pairing, orthogonality masks, the "highest_roots",
        # the cascade forest and the cascade's "support_masks"), one entry
        # per name, living as long as the root system
        self.cache: dict = {}
        expected = sum(
            _POSITIVE_COUNT[letter](r) for letter, r in cartan_type.components
        )
        if len(self.positive_roots) != expected:
            raise AssertionError(
                f"positive root count {len(self.positive_roots)} != classical {expected}"
            )

    def _enumerate_positive(self) -> tuple[tuple[Coords, ...], tuple[tuple[int, ...], ...]]:
        # closure of the simple roots under raising simple reflections: every
        # positive root is reached from a simple root by steps
        # s_i b = b - <b, a_i^v> a_i with <b, a_i^v> < 0 (Humphreys 10.3).
        # Each root's pairings come along: a_i has column i of the Cartan
        # matrix, and s_i b has p(b) - <b, a_i^v> * column i.
        n = self.rank
        cols = tuple(zip(*self.cartan))
        simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        found = dict(zip(simple, cols))  # root -> its coroot pairings
        stack = list(found.items())
        while stack:
            b, p = stack.pop()
            for i, c in enumerate(p):
                if c < 0:
                    up = b[:i] + (b[i] - c,) + b[i + 1 :]
                    if up not in found:
                        found[up] = q = tuple(x - c * y for x, y in zip(p, cols[i]))
                        stack.append((up, q))
        # increasing height, which highest_roots, construct and cascade rely on
        out = sorted(found, key=lambda b: (sum(b), b))
        return tuple(out), tuple(found[b] for b in out)

    def simple_root(self, i: int) -> Coords:
        """Simple root a_i, 1-based index."""
        if not 1 <= i <= self.rank:
            raise ValueError(f"simple index {i} out of range")
        return tuple(int(k == i - 1) for k in range(self.rank))

    def height(self, b: Coords) -> int:
        return sum(b)

    def __reduce__(self):
        # a copy or an unpickled root system is rebuilt from its type, with
        # an empty cache: the cache keys dicts on elements of this system,
        # which cannot be hashed before their own state is restored
        return RootSystem, (self.cartan_type,)

    def __repr__(self) -> str:
        return f"RootSystem({self.cartan_type})"


def build_root_system(t: CartanType | str) -> RootSystem:
    if isinstance(t, str):
        t = CartanType.parse(t)
    return RootSystem(t)


def _form_image(rs: RootSystem, y: Sequence) -> tuple:
    """The vector F y, with F the symmetrized Cartan matrix ``rs.form``, so
    (x, y) = sum_i x_i (F y)_i.  The image of a root b is
    (d_i <b, a_i^v>)_i, read off its carried pairings (negated for a
    negative root) once and kept in ``rs.cache["form_images"]`` under the
    root's tuple (at most 2N entries, int entries); any other vector is
    computed afresh and not kept."""
    images = rs.cache.get("form_images")
    if images is None:
        images = rs.cache["form_images"] = {}
    key = tuple(y)
    fy = images.get(key)
    if fy is None:
        k = rs.root_index.get(key)
        if k is None:
            return tuple(sum(map(mul, row, key)) for row in rs.form)
        n_pos = len(rs.positive_roots)
        sign = 1 if k < n_pos else -1
        fy = images[rs.roots[k]] = tuple(
            sign * d * p for d, p in zip(rs.symmetrizers, rs.coroot_pairings[k % n_pos])
        )
    return fy


def pairing(rs: RootSystem, x: Sequence, y: Sequence):
    """Exact value of the invariant form (x, y), read as x . (F y) with the
    form image of y kept per root (see ``_form_image``)."""
    n = rs.rank
    if len(x) != n or len(y) != n:
        raise ValueError("vector length does not match rank")
    return sum(map(mul, x, _form_image(rs, y)))


def pairings_with(rs: RootSystem, xs: Sequence, y: Sequence) -> list:
    """[(x, y) for x in xs], reading the form image of y once: the loop for
    one fixed vector against many."""
    fy = _form_image(rs, y)
    return [sum(map(mul, x, fy)) for x in xs]


def simple_lowering(rs: RootSystem, b: Coords) -> tuple[int, Coords]:
    """For a positive root b of height > 1: the smallest 1-based i with
    <b, a_i^v> > 0, and s_i b = b - <b, a_i^v> a_i, a positive root of lower
    height.  Such an i exists, as 0 < (b, b) = sum_i b_i (b, a_i)."""
    p = rs.coroot_pairings[rs.root_index[b]]
    i = next(i for i, c in enumerate(p) if c > 0 and b[i])
    return i + 1, b[:i] + (b[i] - p[i],) + b[i + 1 :]


def reflect(rs: RootSystem, b: Coords, x: Sequence) -> tuple:
    """Image of x under the reflection through root b: x - 2(x,b)/(b,b) * b."""
    if not is_root(rs, b):
        raise ValueError(f"{b} is not a root")
    num, den = 2 * pairing(rs, x, b), pairing(rs, b, b)
    k, rem = divmod(num, den)
    if not rem and all(type(c) is int for c in x):  # an int image, no Fraction
        return tuple(c - k * y for c, y in zip(x, b))
    from fractions import Fraction  # only a non-integral image needs it

    coeff = Fraction(num, den)
    out = tuple(x[i] - coeff * b[i] for i in range(rs.rank))
    if all(Fraction(c).denominator == 1 for c in out):
        return tuple(int(c) for c in out)
    return out


def is_root(rs: RootSystem, v: Sequence) -> bool:
    return tuple(v) in rs.root_index


def is_positive_root(rs: RootSystem, v: Sequence) -> bool:
    k = rs.root_index.get(tuple(v))
    return k is not None and k < len(rs.positive_roots)


def add_roots(rs: RootSystem, b: Coords, g: Coords) -> Optional[Coords]:
    s = tuple(b[i] + g[i] for i in range(rs.rank))
    return s if is_root(rs, s) else None


def orthogonal(rs: RootSystem, b: Coords, g: Coords) -> bool:
    return pairing(rs, b, g) == 0


def orthogonality_masks(rs: RootSystem) -> tuple[int, ...]:
    """Bit j of ``masks[k]`` is set iff positive roots k and j (numbered as
    in ``rs.positive_roots``) are orthogonal; built once per root system and
    kept in its cache."""
    masks = rs.cache.get("orthogonality_masks")
    if masks is None:
        pos = rs.positive_roots
        masks = rs.cache["orthogonality_masks"] = tuple(
            sum(1 << j for j, p in enumerate(pairings_with(rs, pos, b)) if not p) for b in pos
        )
    return masks


def strongly_orthogonal(rs: RootSystem, b: Coords, g: Coords) -> bool:
    """b and g orthogonal with neither b+g nor b-g a root."""
    if not orthogonal(rs, b, g):
        return False
    diff = tuple(b[i] - g[i] for i in range(rs.rank))
    return add_roots(rs, b, g) is None and not is_root(rs, diff)


def nonorthogonal_components(rs: RootSystem, roots: Sequence) -> list[list[tuple]]:
    """Classes of ``roots`` under the transitive closure of non-orthogonality,
    in order of first appearance; each class in depth-first visiting order."""
    comps: list[list[tuple]] = []
    remaining = list(roots)
    while remaining:
        stack = [remaining.pop(0)]
        comp = []
        while stack:
            x = stack.pop()
            comp.append(x)
            still = []
            for y, p in zip(remaining, pairings_with(rs, remaining, x)):
                if p != 0:
                    stack.append(y)
                else:
                    still.append(y)
            remaining = still
        comps.append(comp)
    return comps


def dual_coxeter_number(rs: RootSystem, theta: Coords) -> int:
    """h-dual of the simple system whose highest root is theta:
    1 + ht(theta^v), with theta^v = sum_i theta_i (a_i, a_i)/(theta, theta)
    a_i^v in the simple coroots (Bourbaki, Lie VI).  The coroot of a root
    has an integral height, so a non-integral one is refused."""
    num = sum(c * rs.form[i][i] for i, c in enumerate(theta))
    height, rem = divmod(num, pairing(rs, theta, theta))
    if rem:
        raise ValueError(f"{theta} has a coroot of non-integral height")
    return 1 + height


def highest_roots(rs: RootSystem) -> list[Coords]:
    """The highest root of each simple component, in component order.

    ``rs.positive_roots`` runs in increasing height and a component has one
    root of greatest height, so its highest root is the last positive root
    supported in it: one pass, kept in ``rs.cache["highest_roots"]``, and
    each call gets a fresh list."""
    top = rs.cache.get("highest_roots")
    if top is None:
        comp_of = {i: c for c, comp in enumerate(rs.components) for i in comp}
        best = [None] * len(rs.components)
        for b in rs.positive_roots:
            best[comp_of[next(i for i, x in enumerate(b) if x)]] = b
        top = rs.cache["highest_roots"] = tuple(best)
    return list(top)


# ---------------------------------------------------------------------------
# Cartan-type classification of a connected simple-root subset.


def classify_component(
    cartan: Sequence[Sequence[int]], indices: Sequence[int]
) -> tuple[str, int, tuple[int, ...]]:
    """Identify the type of a connected set of simple roots.

    ``cartan`` is the ambient Cartan matrix; ``indices`` the 0-based ambient
    indices of the subset.  Returns (letter, rank, order) where ``order``
    lists the indices permuted into Bourbaki numbering.  Raises if the
    subset is not connected or not a valid simple diagram.
    """
    idx = list(indices)
    n = len(idx)
    a = {i: {} for i in idx}
    for i in idx:
        for j in idx:
            if i != j and cartan[i][j] != 0:
                a[i][j] = cartan[i][j]
    degree = {i: len(a[i]) for i in idx}

    def path_from(start: int, prev: Optional[int] = None) -> list[int]:
        # the walk from start away from prev, refused where it branches
        out = [start]
        cur = start
        while True:
            nxt = [j for j in a[cur] if j != prev]
            if not nxt:
                return out
            if len(nxt) > 1:
                raise ValueError("not a path")
            prev, cur = cur, nxt[0]
            out.append(cur)

    if n == 1:
        return _checked("A", 1, (idx[0],), cartan)

    mults = {}
    for i in idx:
        for j, cij in a[i].items():
            if i < j:
                mults[(i, j)] = cartan[i][j] * cartan[j][i]
    if any(m not in (1, 2, 3) for m in mults.values()):
        raise ValueError("invalid bond multiplicity")

    triple = [e for e, m in mults.items() if m == 3]
    double = [e for e, m in mults.items() if m == 2]

    if triple:
        if n != 2 or double:
            raise ValueError("G2 bond in a larger diagram")
        i, j = triple[0]
        short = i if cartan[i][j] == -3 else j
        longr = j if short == i else i
        return _checked("G", 2, (short, longr), cartan)

    if double:
        if len(double) != 1:
            raise ValueError("more than one double bond")
        x, y = double[0]
        # a_xy = -2 means x is the short endpoint
        short = x if cartan[x][y] == -2 else y
        longr = y if short == x else x
        if n == 2:
            return _checked("B", 2, (longr, short), cartan)
        if degree[short] > 1 and degree[longr] > 1:
            # interior double bond: F4
            if n != 4:
                raise ValueError("interior double bond outside F4")
            far_long = [j for j in a[longr] if j != short][0]
            far_short = [j for j in a[short] if j != longr][0]
            return _checked("F", 4, (far_long, longr, short, far_short), cartan)
        if degree[short] == 1:
            # short leaf at the double bond: type B, path ends at short
            order = path_from(short)[::-1]
            return _checked("B", n, tuple(order), cartan)
        # long leaf at the double bond: type C
        order = path_from(longr)[::-1]
        return _checked("C", n, tuple(order), cartan)

    # simply laced
    branch_nodes = [i for i in idx if degree[i] > 2]
    if not branch_nodes:
        # from the lowest end; with no end (a cycle) the walk is refused
        order = path_from(min(idx, key=lambda i: (degree[i], i)))
        return _checked("A", n, tuple(order), cartan)
    if len(branch_nodes) > 1:
        raise ValueError("more than one branch node")
    z = branch_nodes[0]
    if degree[z] != 3:
        raise ValueError("branch node of degree > 3")
    branches = sorted((path_from(nb, z) for nb in a[z]), key=lambda arm: (len(arm), arm))
    lens = sorted(len(arm) for arm in branches)
    if lens[0] == 1 and lens[1] == 1:
        # D_n: two singleton arms, long arm ordered from its far end
        longarm = branches[2]
        order = longarm[::-1] + [z] + sorted(branches[0] + branches[1])
        return _checked("D", n, tuple(order), cartan)
    if lens[0] == 1 and lens[1] == 2 and lens[2] in (2, 3, 4):
        # E6/E7/E8: arm of length 1 is node 2, arm of length 2 is (3, 1)
        two = branches[1]
        order = [two[1], branches[0][0], two[0], z] + branches[2]
        return _checked("E", n, tuple(order), cartan)
    raise ValueError(f"unrecognized simply-laced diagram with arms {lens}")


def _checked(
    letter: str, rank: int, order: tuple[int, ...], cartan
) -> tuple[str, int, tuple[int, ...]]:
    """Validate a classification by comparing against the standard block.
    An order shorter than the rank means the walk did not reach every
    index: the subset is not connected."""
    if len(order) != rank:
        raise ValueError("the simple-root subset is not connected")
    block, _ = _cartan_block(letter, rank)
    for i in range(rank):
        for j in range(rank):
            if cartan[order[i]][order[j]] != block[i][j]:
                raise ValueError(
                    f"classification {letter}{rank} does not match Cartan data"
                )
    return (letter, rank, order)
