"""Symbolic Poisson geometry on translated big cells of SL(n+1)/B+.

A chart is a translate v.U_-B+/B+ of the opposite big cell, with coordinates
x_ij (1 <= j < i <= n+1) reading off the lower-unitriangular factor.  The
standard bivector is the sum of wedges of the infinitesimal actions of the
root vector pairs (E_ij, E_ji); its coefficient matrix generates the
degeneracy ideal of the zero locus, and a variable f with f^2 in the ideal
but f not in it certifies non-reducedness of the chart scheme.

A chart needs no root system: `build_chart` reads a reduced word off the
one-line permutation (`weyl.perm_word`) and multiplies the signed lifts of
its letters.  A root vector's field depends on the chart only through the
two columns of the lift on its rows, and the signs of the lift cancel in a
bracket, so the bivector of every chart is a signed sum of the same
brackets, one per pair of columns a < b: -1 when the chart puts column a
on a lower row than column b, +1 otherwise.  The brackets do not depend on
how each pair (e, f) is normalized either, so there is one bivector per
chart and no knob.  `_root_brackets` builds those brackets once per n on
terms dicts (u^-1 by forward substitution, each tail sum of a root vector
field computed once and shared by every root with the same column, the
product kernel of `polyalg`) and keeps the last four; `poisson_matrix`
adds them up in fresh dicts and makes one `Polynomial` per entry below the
diagonal, and `PoissonMatrix` fills in the rest by antisymmetry.
`vector_field` is the independent route, on polynomial matrices, that the
tests hold it against."""

from __future__ import annotations

import itertools
import os
from functools import lru_cache
from time import monotonic
from typing import Optional, Sequence

from ._record import Record
from .polyalg import (
    Ideal,
    PolyRing,
    Polynomial,
    PolyTimeout,
    _add_product,
    ideal_equal,
    intersect,
    membership,
    parse_polynomial,
)
from .weyl import oneline, parse_perm, perm_word

__all__ = [
    "Chart",
    "PoissonMatrix",
    "DegeneracyIdeal",
    "build_chart",
    "vector_field",
    "poisson_matrix",
    "degeneracy_ideal",
    "nonreduced_witness",
    "scan_cells",
    "verify_sl3_decomposition",
    "partial_derivative",
    "variable_weight",
]


class Chart(Record):
    """Affine chart v.U_-B+/B+ with row-major coordinates x_ij, i > j."""

    # representative is the chosen lift of v, a signed permutation matrix:
    # column b is sign * e_row, stored as representative[b] = (row, sign),
    # 0-based rows
    __slots__ = ("n", "v_oneline", "ring", "representative")

    @property
    def size(self) -> int:
        return self.n + 1

    def positions(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(2, self.n + 2) for j in range(1, i)]


def _lift(n: int, word: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """The signed permutation matrix lifting s_{i_1}...s_{i_m} to SL(n+1),
    column b stored as (row, sign).  Right multiplication by the lift of
    s_i makes column i-1 minus column i, and column i column i-1.  These
    lifts satisfy the braid relations, so every reduced word of one
    permutation gives the same matrix."""
    rep = [(b, 1) for b in range(n + 1)]
    for i in word:
        rep[i - 1], rep[i] = (rep[i][0], -rep[i][1]), rep[i - 1]
    return tuple(rep)


def build_chart(n: int, v: Optional[str] = None) -> Chart:
    if n < 1:
        raise ValueError("need n >= 1")
    perm = tuple(range(1, n + 2)) if v is None else parse_perm(v)
    rep = _lift(n, perm_word(perm, n))
    names = tuple(f"x{i}{j}" for i in range(2, n + 2) for j in range(1, i))
    return Chart(n, oneline(perm), PolyRing(names), rep)


def _poly_matrix_u(chart: Chart) -> list[list[Polynomial]]:
    """Lower unitriangular matrix whose below-diagonal entries are the x_ij."""
    m = chart.size
    ring = chart.ring
    zero, one = ring.const(0), ring.const(1)
    u = [[zero] * m for _ in range(m)]
    for a in range(m):
        u[a][a] = one
    for i, j in chart.positions():
        u[i - 1][j - 1] = ring.var(f"x{i}{j}")
    return u


def _pm_mul(a, b) -> list[list[Polynomial]]:
    m = len(a)
    zero = a[0][0].ring.const(0)
    out = []
    for i in range(m):
        row = []
        for j in range(m):
            acc = zero
            for k in range(m):
                if a[i][k].terms and b[k][j].terms:  # most entries are zero
                    acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def _u_inverse(chart: Chart, u) -> list[list[Polynomial]]:
    # Neumann series: (I + N)^-1 with N strictly lower, nilpotent
    m = chart.size
    ring = chart.ring
    zero, one = ring.const(0), ring.const(1)
    ident = [[one if a == b else zero for b in range(m)] for a in range(m)]
    nmat = [[u[a][b] if a > b else zero for b in range(m)] for a in range(m)]
    out = [row[:] for row in ident]
    power = ident
    sign = 1
    for _ in range(1, m):
        power = _pm_mul(power, nmat)
        sign = -sign
        for a in range(m):
            for b in range(m):
                term = power[a][b] if sign > 0 else -power[a][b]
                out[a][b] = out[a][b] + term
    return out


def vector_field(chart: Chart, X: Sequence[Sequence]) -> list[Polynomial]:
    """Infinitesimal action of a traceless matrix X on the chart.

    The curve exp(tX).v(u)B+ stays in the chart to first order, and the
    derivative of the lower-unitriangular factor is u times the strictly
    lower part of (vu)^-1 X (vu).  Returns one polynomial per coordinate,
    in row-major order.

    This is the generic route, for any X, and the oracle for
    `poisson_matrix`: it multiplies dense matrices of `Polynomial`s and
    inverts u by the Neumann series, where `poisson_matrix` uses terms
    dicts, forward substitution and the rank-one shape of root vectors."""
    m = chart.size
    if len(X) != m or any(len(r) != m for r in X):
        raise ValueError("matrix has the wrong shape")
    if sum(X[a][a] for a in range(m)) != 0:
        raise ValueError("matrix must be traceless")
    ring = chart.ring
    u = _poly_matrix_u(chart)
    uinv = _u_inverse(chart, u)
    # rep^T X rep: entry (a, b) is X[p(a)][p(b)] times the signs of
    # columns a and b of rep, where (p(b), sign) is column b
    col = chart.representative
    conj = [[ring.const(sa * sb * X[pa][pb]) for pb, sb in col] for pa, sa in col]
    ad = _pm_mul(_pm_mul(uinv, conj), u)
    zero = ring.const(0)
    lower = [[ad[a][b] if a > b else zero for b in range(m)] for a in range(m)]
    delta = _pm_mul(u, lower)
    return [delta[i - 1][j - 1] for i, j in chart.positions()]


class PoissonMatrix:
    """The bracket matrix of a chart, antisymmetric by construction: it is
    built from its strict lower triangle, ``lower[a]`` holding the ``a``
    brackets {x_a, x_b} with b < a.  ``entries`` is the full k x k tuple,
    zero on the diagonal and the negated lower half above it."""

    __slots__ = ("chart", "entries")

    def __init__(self, chart: Chart, lower: Sequence[Sequence[Polynomial]]):
        ring = chart.ring
        k = len(ring.variables)
        if len(lower) != k:
            raise ValueError(f"bracket triangle has {len(lower)} rows, chart has {k} variables")
        zero = ring.const(0)
        entries = [[zero] * k for _ in range(k)]
        for a, row in enumerate(lower):
            if len(row) != a:
                raise ValueError(f"bracket triangle row {a} has {len(row)} entries, not {a}")
            for b, p in enumerate(row):
                if p.ring is not ring and p.ring != ring:
                    raise ValueError(f"bracket ({a}, {b}) is from another ring than the chart's")
                entries[a][b], entries[b][a] = p, -p
        self.chart = chart
        self.entries = tuple(map(tuple, entries))  # entries[a][b] = {x_a, x_b}

    def bracket(self, name_a: str, name_b: str) -> Polynomial:
        ring = self.chart.ring
        return self.entries[ring.index(name_a)][ring.index(name_b)]

    def nonzero(self) -> list[tuple[int, int, Polynomial]]:
        """``(a, b, {x_a, x_b})`` for each nonzero entry below the
        diagonal, in row-major order."""
        return [
            (a, b, p)
            for a, row in enumerate(self.entries)
            for b, p in enumerate(row[:a])
            if not p.is_zero()
        ]

    def pretty(self) -> str:
        """Wedge expansion over pairs a > b in row-major order."""
        names = self.chart.ring.variables
        parts = [f"({p}) d{names[a][1:]}^d{names[b][1:]}" for a, b, p in self.nonzero()]
        return " + ".join(parts) if parts else "0"


def _u_terms(chart: Chart) -> tuple[list[list[dict]], list[list[dict]]]:
    """u and u^-1 as matrices of terms dicts ({} is zero), u^-1 by forward
    substitution: u^-1[r][c] = -sum_{c <= t < r} u[r][t] u^-1[t][c]."""
    m = chart.size
    k = len(chart.ring.variables)
    one = (0,) * k
    u = [[{} for _ in range(m)] for _ in range(m)]
    uinv = [[{} for _ in range(m)] for _ in range(m)]
    for r in range(m):
        u[r][r] = {one: 1}
        uinv[r][r] = {one: 1}
    for v, (i, j) in enumerate(chart.positions()):
        u[i - 1][j - 1] = {tuple(int(t == v) for t in range(k)): 1}
    for c in range(m):
        for r in range(c + 1, m):
            for t in range(c, r):
                _add_product(uinv[r][c], u[r][t], uinv[t][c], -1)
    return u, uinv


@lru_cache(maxsize=4)
def _root_brackets(n: int) -> tuple:
    """The bracket of each pair of rep columns a < b of SL(n+1): the wedge
    of the fields of E_ab and E_ba on the identity chart,
    as ``(a, b, entries)`` with one ``(x, y, terms)`` per nonzero entry
    x > y and ``terms`` a tuple of (exponent, coefficient) pairs.

    rep^T E_ij rep is s * E_ab for the column a of rep on row i and the
    column b on row j, with s the product of their signs.  So in
    `vector_field`, u^-1 (rep^T E_ij rep) u is the rank-one matrix
    s u^-1[:, a] u[b, :], and coordinate (r, q), r > q, of the field of
    E_ij is s u[b][q] T(a, r, q) with the tail sum
    T(a, r, q) = sum_{q < t <= r} u[r][t] u^-1[t][a].  Every root with
    column a shares T(a, ., .), so each tail sum is computed once, and
    u^-1 comes from forward substitution.  None of this depends on the
    chart, which is why it is kept, for the last few n."""
    chart = build_chart(n)
    m = chart.size
    k = len(chart.ring.variables)
    positions = [(i - 1, j - 1) for i, j in chart.positions()]
    u, uinv = _u_terms(chart)
    # tails[a][r][q] = T(a, r, q), summed from t = r down; u^-1[t][a] is
    # zero for t < a, so the sum stops growing there and is shared
    tails = [[[{}] * m for _ in range(m)] for _ in range(m)]
    for a in range(m):
        for r in range(a, m):
            run: dict = {}
            for q in range(r - 1, -1, -1):
                if q + 1 >= a:
                    run = dict(run)
                    _add_product(run, u[r][q + 1], uinv[q + 1][a])
                tails[a][r][q] = run

    def field(a: int, b: int) -> list[dict]:
        # the field of a root vector whose rep columns are a, b
        out = []
        for r, q in positions:
            f: dict = {}
            if q <= b:  # u[b][q] is zero above the diagonal
                _add_product(f, u[b][q], tails[a][r][q])
            out.append(f)
        return out

    pairs = []
    for a, b in itertools.combinations(range(m), 2):
        chi_e, chi_f = field(a, b), field(b, a)
        entries = []
        for x in range(k):
            ex, fx = chi_e[x], chi_f[x]
            for y in range(x):
                acc: dict = {}
                if ex and chi_f[y]:
                    _add_product(acc, ex, chi_f[y])
                if chi_e[y] and fx:
                    _add_product(acc, chi_e[y], fx, -1)
                if acc:
                    entries.append((x, y, tuple(acc.items())))
        pairs.append((a, b, tuple(entries)))
    return tuple(pairs)


def poisson_matrix(chart: Chart) -> PoissonMatrix:
    """Coefficient matrix of the standard bivector on the chart.

    The field of E_ij depends on the chart only through the rep columns
    on rows i and j, and a bracket multiplies the fields of E_ij and
    E_ji, so the signs of the lift cancel, as would any rescaling of the
    pair to (c E_ij, E_ji / c).  So the bivector is the signed sum over
    column pairs a < b of the chart-free brackets of `_root_brackets`:
    with sign -1 when the chart puts column a on a lower row than column
    b, +1 otherwise.  The sum runs in fresh dicts, one `Polynomial` per
    entry below the diagonal at the end."""
    ring = chart.ring
    k = len(ring.variables)
    rows = [row for row, _ in chart.representative]
    acc = [[{} for _ in range(x)] for x in range(k)]  # acc[x][y], y < x
    for a, b, entries in _root_brackets(chart.n):
        sign = -1 if rows[a] > rows[b] else 1
        for x, y, terms in entries:
            d = acc[x][y]
            for e, c in terms:
                d[e] = d.get(e, 0) + sign * c
    return PoissonMatrix(chart, [[Polynomial(ring, d) for d in row] for row in acc])


class DegeneracyIdeal(Record):
    __slots__ = ("chart", "ideal")


def _same_cell(chart: Chart, given: Chart, what: str) -> None:
    """Refuse a record built for another cell than ``chart``."""
    if (given.n, given.v_oneline) != (chart.n, chart.v_oneline):
        raise ValueError(
            f"{what} is for cell {given.v_oneline} of SL({given.n + 1}),"
            f" not for cell {chart.v_oneline} of SL({chart.n + 1})"
        )


def degeneracy_ideal(chart: Chart, pm: Optional[PoissonMatrix] = None) -> DegeneracyIdeal:
    """Ideal generated by the nonzero bivector coefficients below the
    diagonal, in row-major order, each kept at its first occurrence.  A
    ``pm`` built for another cell is refused."""
    if pm is None:
        pm = poisson_matrix(chart)
    _same_cell(chart, pm.chart, "the bracket matrix")
    gens = dict.fromkeys(p for _, _, p in pm.nonzero())
    return DegeneracyIdeal(chart, Ideal(chart.ring, tuple(gens)))


def nonreduced_witness(
    chart: Chart, timeout_secs: float = 60.0, di: Optional[DegeneracyIdeal] = None
) -> Optional[str]:
    """First variable f (row-major) with f^2 in the ideal but f outside it.
    A ``di`` built for another cell is refused."""
    if di is None:
        di = degeneracy_ideal(chart)
    _same_cell(chart, di.chart, "the degeneracy ideal")
    deadline = monotonic() + timeout_secs
    for name in chart.ring.variables:
        f = chart.ring.var(name)
        if membership(f * f, di.ideal, deadline) and not membership(f, di.ideal, deadline):
            return name
    return None


def _scan_one(n: int, oneline: str, deadline: float) -> dict:
    """One chart of a scan, given the scan's ``monotonic()`` deadline (a
    system-wide clock, so a worker process reads it too); a chart that
    starts after it, or runs past it, is marked ``timeout``."""
    late = not monotonic() < deadline  # a NaN deadline counts as passed
    record = {"v": oneline, "witness": None, "generators": 0, "timeout": late}
    if late:
        return record
    try:
        chart = build_chart(n, oneline)
        di = degeneracy_ideal(chart)
        record["generators"] = len(di.ideal.generators)
        record["witness"] = nonreduced_witness(chart, deadline - monotonic(), di)
    except PolyTimeout:
        record["timeout"] = True
    return record


def scan_cells(n: int, timeout_secs: float = 60.0, workers: int = 1) -> dict:
    """Witness scan over every chart of SL(n+1)/B+, 2 <= n <= 5, on at most
    ``workers`` processes (never more than the CPUs or the charts).

    The whole scan has one budget of ``timeout_secs``, held as one
    deadline that each chart reads when it starts."""
    if not 2 <= n <= 5:
        raise ValueError("scan supports 2 <= n <= 5 only")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    deadline = monotonic() + timeout_secs
    perms = [oneline(p) for p in itertools.permutations(range(1, n + 2))]
    size = min(workers, os.cpu_count() or 1, len(perms))
    if size > 1:
        # imported here, so that no other run loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=size) as pool:
            args = (itertools.repeat(n), perms, itertools.repeat(deadline))
            charts = list(pool.map(_scan_one, *args))
    else:
        charts = [_scan_one(n, v, deadline) for v in perms]
    witness_charts = [c["v"] for c in charts if c["witness"] is not None]
    return {"n": n, "charts": charts, "witness_charts": witness_charts}


def verify_sl3_decomposition(timeout_secs: float = 60.0) -> bool:
    """Degeneracy ideal of the SL3 big cell equals the intersection of its
    two component ideals with the embedded one (so it sits inside each)."""
    chart = build_chart(2)
    di = degeneracy_ideal(chart)
    ring = chart.ring
    p = lambda s: parse_polynomial(ring, s)
    comp1 = Ideal(ring, (p("x32"), p("x31")))
    comp2 = Ideal(ring, (p("x31"), p("x21")))
    embedded = Ideal(
        ring,
        (p("x32^2"), p("x31*x32"), p("x21*x32 - 2*x31"), p("x21*x31"), p("x21^2")),
    )
    deadline = monotonic() + timeout_secs
    meet = intersect(intersect(comp1, comp2, deadline), embedded, deadline)
    return ideal_equal(di.ideal, meet, deadline)


def partial_derivative(f: Polynomial, var_index: int) -> Polynomial:
    k = len(f.ring.variables)
    if not 0 <= var_index < k:
        raise ValueError(f"variable index {var_index} is outside 0..{k - 1}")
    out = {}
    for e, c in f.terms.items():
        k = e[var_index]
        if k == 0:
            continue
        e2 = tuple(x - 1 if t == var_index else x for t, x in enumerate(e))
        out[e2] = out.get(e2, 0) + c * k
    return Polynomial(f.ring, out)


def variable_weight(chart: Chart, name: str) -> tuple[int, ...]:
    """Torus weight of x_ij: the j-th minus the i-th coordinate vector."""
    i, j = chart.positions()[chart.ring.index(name)]
    w = [0] * chart.size
    w[j - 1] += 1
    w[i - 1] -= 1
    return tuple(w)
