"""Symbolic Poisson geometry on translated big cells of SL(n+1)/B+.

A chart is a translate v.U_-B+/B+ of the opposite big cell, with coordinates
x_ij (1 <= j < i <= n+1) reading off the lower-unitriangular factor.  The
standard bivector is the sum of wedges of the infinitesimal actions of the
root vector pairs (E_ij, E_ji); its coefficient matrix generates the
degeneracy ideal of the zero locus, and a variable f with f^2 in the ideal
but f not in it certifies non-reducedness of the chart scheme."""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from time import monotonic
from typing import Optional, Sequence

from .polyalg import (
    Ideal,
    PolyRing,
    Polynomial,
    PolyTimeout,
    buchberger,
    ideal_equal,
    intersect,
    normal_form,
    parse_polynomial,
)
from .rootsys import build_root_system
from .weyl import _mat_mul, identity, perm_from_string, perm_string, reduced_word

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


def _embedded_s(n1: int, i: int) -> tuple:
    m = [[1 if a == b else 0 for b in range(n1)] for a in range(n1)]
    m[i - 1][i - 1] = 0
    m[i][i] = 0
    m[i - 1][i] = 1
    m[i][i - 1] = -1
    return tuple(tuple(r) for r in m)


@dataclass(frozen=True)
class Chart:
    """Affine chart v.U_-B+/B+ with row-major coordinates x_ij, i > j."""

    n: int
    v_oneline: str
    v_word: tuple[int, ...]
    ring: PolyRing
    representative: tuple  # integer matrix for the chosen lift of v

    @property
    def size(self) -> int:
        return self.n + 1

    def positions(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(2, self.n + 2) for j in range(1, i)]


def build_chart(n: int, v: Optional[str] = None) -> Chart:
    if n < 1:
        raise ValueError("need n >= 1")
    rs = build_root_system(f"A{n}")
    if v is None:
        w = identity(rs)
    else:
        w = perm_from_string(rs, v)
    word = reduced_word(w)
    rep = tuple(tuple(1 if a == b else 0 for b in range(n + 1)) for a in range(n + 1))
    for i in word:
        rep = _mat_mul(rep, _embedded_s(n + 1, i))
    names = tuple(f"x{i}{j}" for i in range(2, n + 2) for j in range(1, i))
    ring = PolyRing(names)
    return Chart(n, perm_string(w), word, ring, rep)


def _var_index(chart: Chart, i: int, j: int) -> int:
    return chart.ring.variables.index(f"x{i}{j}")


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


def _conjugate(chart: Chart, X: Sequence[Sequence]) -> list[list]:
    """rep^T X rep for the chart's signed permutation representative: entry
    (a, b) is X[p(a)][p(b)] times the signs of columns a and b of rep, where
    p(b) is the row of the one nonzero entry in column b."""
    m = chart.size
    rep = chart.representative
    col = [next((c, rep[c][b]) for c in range(m) if rep[c][b]) for b in range(m)]
    return [[sa * sb * X[pa][pb] for pb, sb in col] for pa, sa in col]


def _vector_field(chart: Chart, u, uinv, X: Sequence[Sequence]) -> list[Polynomial]:
    """vector_field with the chart's u and u^-1 built by the caller."""
    m = chart.size
    if len(X) != m or any(len(r) != m for r in X):
        raise ValueError("matrix has the wrong shape")
    if sum(Fraction(X[a][a]) for a in range(m)) != 0:
        raise ValueError("matrix must be traceless")
    ring = chart.ring
    conj = _conjugate(chart, X)
    a_const = [[ring.const(conj[a][b]) for b in range(m)] for a in range(m)]
    ad = _pm_mul(_pm_mul(uinv, a_const), u)
    zero = ring.const(0)
    lower = [[ad[a][b] if a > b else zero for b in range(m)] for a in range(m)]
    delta = _pm_mul(u, lower)
    return [delta[i - 1][j - 1] for i, j in chart.positions()]


def vector_field(chart: Chart, X: Sequence[Sequence]) -> list[Polynomial]:
    """Infinitesimal action of a traceless matrix X on the chart.

    The curve exp(tX).v(u)B+ stays in the chart to first order, and the
    derivative of the lower-unitriangular factor is u times the strictly
    lower part of (vu)^-1 X (vu).  Returns one polynomial per coordinate,
    in row-major order."""
    u = _poly_matrix_u(chart)
    return _vector_field(chart, u, _u_inverse(chart, u), X)


@dataclass(frozen=True)
class PoissonMatrix:
    chart: Chart
    entries: tuple  # entries[a][b] = {x_a, x_b}, antisymmetric

    def __post_init__(self):
        k = len(self.chart.ring.variables)
        if len(self.entries) != k:
            raise ValueError(
                f"bracket matrix has {len(self.entries)} rows, chart has {k} variables"
            )
        for a in range(k):
            if not self.entries[a][a].is_zero():
                raise ValueError(f"bracket matrix has a nonzero diagonal entry at {a}")
            for b in range(a):
                if self.entries[a][b] != -self.entries[b][a]:
                    raise ValueError(f"bracket matrix is not antisymmetric at ({a}, {b})")

    def bracket(self, name_a: str, name_b: str) -> Polynomial:
        va = self.chart.ring.variables.index(name_a)
        vb = self.chart.ring.variables.index(name_b)
        return self.entries[va][vb]

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


def poisson_matrix(chart: Chart, scale: Fraction = Fraction(1)) -> PoissonMatrix:
    """Coefficient matrix of the standard bivector on the chart.

    scale rescales every root vector pair (e, f) to (scale*e, f/scale);
    the result is independent of it."""
    m = chart.size
    k = len(chart.ring.variables)
    zero = chart.ring.const(0)
    entries = [[zero] * k for _ in range(k)]
    inv = Fraction(1) / Fraction(scale)
    u = _poly_matrix_u(chart)
    uinv = _u_inverse(chart, u)
    for i in range(m):
        for j in range(i + 1, m):
            e = [[Fraction(0)] * m for _ in range(m)]
            f = [[Fraction(0)] * m for _ in range(m)]
            e[i][j] = Fraction(scale)
            f[j][i] = inv
            chi_e = _vector_field(chart, u, uinv, e)
            chi_f = _vector_field(chart, u, uinv, f)
            for a in range(k):
                for b in range(a):
                    term = chi_e[a] * chi_f[b] - chi_e[b] * chi_f[a]
                    entries[a][b] = entries[a][b] + term
    for a in range(k):
        for b in range(a):
            entries[b][a] = -entries[a][b]
    return PoissonMatrix(chart, tuple(tuple(row) for row in entries))


@dataclass(frozen=True)
class DegeneracyIdeal:
    chart: Chart
    ideal: Ideal


def degeneracy_ideal(chart: Chart, pm: Optional[PoissonMatrix] = None) -> DegeneracyIdeal:
    """Ideal generated by the bivector coefficients, deduplicated."""
    if pm is None:
        pm = poisson_matrix(chart)
    gens: list[Polynomial] = []
    for a in range(len(chart.ring.variables)):
        for b in range(a):
            g = pm.entries[a][b]
            if g.is_zero() or g in gens:
                continue
            gens.append(g)
    return DegeneracyIdeal(chart, Ideal(chart.ring, tuple(gens)))


def nonreduced_witness(
    chart: Chart, timeout_secs: float = 60.0, di: Optional[DegeneracyIdeal] = None
) -> Optional[str]:
    """First variable f (row-major) with f^2 in the ideal but f outside it."""
    if di is None:
        di = degeneracy_ideal(chart)
    deadline = monotonic() + timeout_secs
    gb = buchberger(di.ideal, deadline)
    if not gb.polys:
        return None
    for name in chart.ring.variables:
        f = chart.ring.var(name)
        if normal_form(f * f, gb.polys).is_zero() and not normal_form(f, gb.polys).is_zero():
            return name
    return None


def _scan_one(args) -> dict:
    n, oneline, timeout_secs = args
    chart = build_chart(n, oneline)
    record = {"v": oneline, "witness": None, "generators": 0, "timeout": False}
    try:
        di = degeneracy_ideal(chart)
        record["generators"] = len(di.ideal.generators)
        record["witness"] = nonreduced_witness(chart, timeout_secs, di)
    except PolyTimeout:
        record["timeout"] = True
    return record


def scan_cells(n: int, timeout_secs: float = 60.0, workers: int = 1) -> dict:
    """Witness scan over every chart of SL(n+1)/B+, n in {2, 3}, on at most
    ``workers`` processes (never more than the CPUs or the charts)."""
    if n not in (2, 3):
        raise ValueError("scan supports n = 2 and n = 3 only")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    perms = ["".join(map(str, p)) for p in itertools.permutations(range(1, n + 2))]
    jobs = [(n, v, timeout_secs) for v in perms]
    size = min(workers, os.cpu_count() or 1, len(jobs))
    if size > 1:
        with ProcessPoolExecutor(max_workers=size) as pool:
            charts = list(pool.map(_scan_one, jobs))
    else:
        charts = [_scan_one(job) for job in jobs]
    witness_charts = [c["v"] for c in charts if c["witness"] is not None]
    return {"n": n, "charts": charts, "witness_charts": witness_charts}


def verify_sl3_decomposition(timeout_secs: float = 60.0) -> bool:
    """Degeneracy ideal of the SL3 big cell equals the intersection of its
    two component ideals with the embedded one, and sits inside each of the
    first two."""
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
    for comp in (comp1, comp2):
        gb = buchberger(comp, deadline)
        if any(not normal_form(g, gb.polys).is_zero() for g in di.ideal.generators):
            return False
    meet = intersect(intersect(comp1, comp2, deadline), embedded, deadline)
    return ideal_equal(di.ideal, meet, deadline)


def partial_derivative(f: Polynomial, var_index: int) -> Polynomial:
    out = {}
    for e, c in f.terms.items():
        k = e[var_index]
        if k == 0:
            continue
        e2 = tuple(x - 1 if t == var_index else x for t, x in enumerate(e))
        out[e2] = out.get(e2, Fraction(0)) + c * k
    return Polynomial(f.ring, out)


def variable_weight(chart: Chart, name: str) -> tuple[int, ...]:
    """Torus weight of x_ij: the j-th minus the i-th coordinate vector."""
    i, j = chart.positions()[chart.ring.variables.index(name)]
    w = [0] * chart.size
    w[j - 1] += 1
    w[i - 1] -= 1
    return tuple(w)


def substitute_zero(f: Polynomial, names: Sequence[str]) -> Polynomial:
    idxs = {f.ring.variables.index(n) for n in names}
    out = {e: c for e, c in f.terms.items() if all(e[t] == 0 for t in idxs)}
    return Polynomial(f.ring, out)
