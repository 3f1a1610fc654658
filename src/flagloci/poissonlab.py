"""Symbolic Poisson geometry on translated big cells of SL(n+1)/B+.

A chart is a translate v.U_-B+/B+ of the opposite big cell, with coordinates
x_ij (1 <= j < i <= n+1) reading off the lower-unitriangular factor.  The
standard bivector is the sum of wedges of the infinitesimal actions of the
root vector pairs (E_ij, E_ji); its coefficient matrix generates the
degeneracy ideal of the zero locus, and a variable f with f^2 in the ideal
but f not in it certifies non-reducedness of the chart scheme.

A chart needs no root system: `build_chart` reads a reduced word off the
one-line permutation (`weyl.perm_word`) and multiplies the signed lifts of
its letters.  `poisson_matrix` works on terms dicts: u^-1 by forward
substitution, each tail sum of a root vector field computed once and
shared by every root with the same column, every bracket accumulated in
one dict with the product kernel of `polyalg`, and one `Polynomial` per
entry at the end.  `vector_field` is the independent route, on polynomial
matrices, that the tests hold it against."""

from __future__ import annotations

import itertools
import os
from time import monotonic
from typing import TYPE_CHECKING, Optional, Sequence

from .polyalg import (
    Ideal,
    PolyRing,
    Polynomial,
    PolyTimeout,
    _add_product,
    _coef,
    _div,
    ideal_equal,
    intersect,
    membership,
    parse_polynomial,
)
from .weyl import oneline, parse_perm, perm_word

if TYPE_CHECKING:
    from fractions import Fraction

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
    "substitute_zero",
]


class Chart:
    """Affine chart v.U_-B+/B+ with row-major coordinates x_ij, i > j."""

    __slots__ = ("n", "v_oneline", "ring", "representative")

    def __init__(
        self,
        n: int,
        v_oneline: str,
        ring: PolyRing,
        representative: tuple[tuple[int, int], ...],
    ):
        self.n = n
        self.v_oneline = v_oneline
        self.ring = ring
        # the chosen lift of v, a signed permutation matrix: column b is
        # sign * e_row, stored as representative[b] = (row, sign), 0-based rows
        self.representative = representative

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


def _negates(p: Polynomial, q: Polynomial) -> bool:
    """Whether p == -q, read off the terms dicts without building -q."""
    if p.ring is not q.ring and p.ring != q.ring:
        return False
    tq = q.terms
    return len(p.terms) == len(tq) and all(tq.get(e) == -c for e, c in p.terms.items())


class PoissonMatrix:
    __slots__ = ("chart", "entries")

    def __init__(self, chart: Chart, entries: tuple):
        k = len(chart.ring.variables)
        if len(entries) != k:
            raise ValueError(f"bracket matrix has {len(entries)} rows, chart has {k} variables")
        for a in range(k):
            if not entries[a][a].is_zero():
                raise ValueError(f"bracket matrix has a nonzero diagonal entry at {a}")
            for b in range(a):
                if not _negates(entries[a][b], entries[b][a]):
                    raise ValueError(f"bracket matrix is not antisymmetric at ({a}, {b})")
        self.chart = chart
        self.entries = entries  # entries[a][b] = {x_a, x_b}, antisymmetric

    def bracket(self, name_a: str, name_b: str) -> Polynomial:
        ring = self.chart.ring
        return self.entries[ring.index(name_a)][ring.index(name_b)]

    def pretty(self) -> str:
        """Wedge expansion over pairs a > b in row-major order."""
        names = self.chart.ring.variables
        parts = []
        for a in range(len(names)):
            for b in range(a):
                c = self.entries[a][b]
                if c.is_zero():
                    continue
                da = "d" + names[a][1:]
                db = "d" + names[b][1:]
                parts.append(f"({c}) {da}^{db}")
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


def poisson_matrix(chart: Chart, scale: int | Fraction = 1) -> PoissonMatrix:
    """Coefficient matrix of the standard bivector on the chart.

    scale, a nonzero int or Fraction (default the int 1), rescales every
    root vector pair (e, f) to (scale*e, f/scale); the result is
    independent of it.

    Works on terms dicts and makes one `Polynomial` per entry at the end.
    rep^T E_ij rep is s * E_ab for the column a of rep on row i and the
    column b on row j, with s the product of their signs.  So in
    `vector_field`, u^-1 (rep^T E_ij rep) u is the rank-one matrix
    s u^-1[:, a] u[b, :], and coordinate (r, q), r > q, of the field of
    E_ij is s u[b][q] T(a, r, q) with the tail sum
    T(a, r, q) = sum_{q < t <= r} u[r][t] u^-1[t][a].  Every root with
    column a shares T(a, ., .), so each tail sum is computed once, and
    u^-1 comes from forward substitution."""
    m = chart.size
    ring = chart.ring
    k = len(ring.variables)
    scale = _coef(scale)
    inv = _div(1, scale)
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

    def field(a: int, b: int, c) -> list[dict]:
        # c times the field of a root vector whose rep columns are a, b
        out = []
        for r, q in positions:
            f: dict = {}
            if q <= b:  # u[b][q] is zero above the diagonal
                _add_product(f, u[b][q], tails[a][r][q], c)
            out.append(f)
        return out

    where = {p: (col, s) for col, (p, s) in enumerate(chart.representative)}
    acc = [[{} for _ in range(a)] for a in range(k)]  # acc[a][b], b < a
    for i in range(m):
        for j in range(i + 1, m):
            (a, sa), (b, sb) = where[i], where[j]
            chi_e = field(a, b, sa * sb * scale)  # scale * E_ij
            chi_f = field(b, a, sa * sb * inv)  # E_ji / scale
            for x in range(k):
                ex, fx, row = chi_e[x], chi_f[x], acc[x]
                for y in range(x):
                    if ex and chi_f[y]:
                        _add_product(row[y], ex, chi_f[y])
                    if chi_e[y] and fx:
                        _add_product(row[y], chi_e[y], fx, -1)
    zero = ring.const(0)
    entries = [[zero] * k for _ in range(k)]
    for x in range(k):
        for y in range(x):
            entries[x][y] = Polynomial(ring, acc[x][y])
            entries[y][x] = -entries[x][y]
    return PoissonMatrix(chart, tuple(tuple(row) for row in entries))


class DegeneracyIdeal:
    __slots__ = ("chart", "ideal")

    def __init__(self, chart: Chart, ideal: Ideal):
        self.chart = chart
        self.ideal = ideal


def degeneracy_ideal(chart: Chart, pm: Optional[PoissonMatrix] = None) -> DegeneracyIdeal:
    """Ideal generated by the nonzero bivector coefficients below the
    diagonal, in row-major order, each kept at its first occurrence."""
    if pm is None:
        pm = poisson_matrix(chart)
    gens = dict.fromkeys(
        g for a, row in enumerate(pm.entries) for g in row[:a] if not g.is_zero()
    )
    return DegeneracyIdeal(chart, Ideal(chart.ring, tuple(gens)))


def nonreduced_witness(
    chart: Chart, timeout_secs: float = 60.0, di: Optional[DegeneracyIdeal] = None
) -> Optional[str]:
    """First variable f (row-major) with f^2 in the ideal but f outside it."""
    if di is None:
        di = degeneracy_ideal(chart)
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
    late = monotonic() >= deadline
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
    perms = ["".join(map(str, p)) for p in itertools.permutations(range(1, n + 2))]
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


def substitute_zero(f: Polynomial, names: Sequence[str]) -> Polynomial:
    idxs = {f.ring.index(n) for n in names}
    out = {e: c for e, c in f.terms.items() if all(e[t] == 0 for t in idxs)}
    return Polynomial(f.ring, out)
