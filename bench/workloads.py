"""The workloads: seeded op lists, and one op with its oracles.

An op is a fixed sequence of calls into the library's public functions,
each made through ``tr.call(span name, fn, *args)`` so a traced run can
time it.  After the calls the op checks every output against a reference
entry or an independent route and raises ``CheckFailed`` on the first
mismatch.  The library receives only the generated inputs.
"""

from __future__ import annotations

import random
from math import comb

from flagloci.bruhat import bruhat_leq, get_table
from flagloci.cascade import build_cascade, verify_kostant
from flagloci.construct import build_top_pair
from flagloci.deodhar import r_polynomial_deodhar, r_polynomial_recurrence
from flagloci.gcr import (
    enumerate_gcr,
    is_gcr_cond3,
    is_gcr_cond4,
    is_gcr_cond6,
    verify_powerset_interval,
)
from flagloci.parabolic import gcr_p, verify_classes_distinct, verify_p_interval
from flagloci.poissonlab import (
    build_chart,
    degeneracy_ideal,
    nonreduced_witness,
    poisson_matrix,
    verify_sl3_decomposition,
)
from flagloci.polyalg import radical_membership
from flagloci.rootsys import build_root_system
from flagloci.weyl import (
    from_word,
    inverse,
    length,
    longest_element,
    multiply,
    reflection_length,
)


class CheckFailed(Exception):
    """An op's output disagrees with its reference or its second route."""


def expect(cond, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def q_minus_one_coeffs(d: int) -> tuple[int, ...]:
    """Coefficients of (q - 1)^d, low to high, by the binomial theorem."""
    return tuple((-1) ** (d - k) * comb(d, k) for k in range(d + 1))


# ---------------------------------------------------------------- tables


BUDGET_S = 60.0  # per op, by SIGALRM; also the library's own poisson deadline


def tables_ops(seed: int, ref) -> list:
    rng = random.Random(f"tables:{seed}")
    types = sorted(ref.TABLES)
    rng.shuffle(types)
    return [(t, rng.choice(sorted(ref.TABLES[t]["gcr_p"]))) for t in types]


def candidates(t: str) -> int:
    """Pairs v <= w with l(w) - l(v) at most the reflection length of w0:
    the pairs ``enumerate_gcr`` tests.  Counted on a table of its own,
    outside the timed ops."""
    rs = build_root_system(t)
    table = get_table(rs)
    bound = reflection_length(longest_element(rs))
    lens = [length(x) for x in table.elements]
    return sum(
        1
        for kw, down in enumerate(table.down)
        for kv in _bits(down)
        if lens[kw] - lens[kv] <= bound
    )


def pass_counts(name: str, ops) -> dict:
    """Counters of one pass that are computed once, after the run."""
    if name == "tables":
        return {"gcr.candidates": sum(candidates(t) for t, _ in ops)}
    return {}


def tables_op(spec, tr, ref) -> None:
    t, jkey = spec
    J = tuple(int(c) for c in jkey)
    want = ref.TABLES[t]
    rs = tr.call("rootsys.build", build_root_system, t)
    table = tr.call("bruhat.table_build", get_table, rs)
    poset = tr.call("gcr.enumerate", enumerate_gcr, rs)
    maximal = tr.call("gcr.maximal", poset.maximal_pairs)
    powerset_ok = all(tr.call("gcr.powerset", verify_powerset_interval, p) for p in maximal)
    for p in maximal:
        c3 = tr.call("gcr.check", is_gcr_cond3, p.v, p.w)
        c4 = tr.call("gcr.check", is_gcr_cond4, p.v, p.w)
        c6 = tr.call("gcr.witness", is_gcr_cond6, p.v, p.w)
        r_sub = tr.call("deodhar.subword", r_polynomial_deodhar, p.v, p.w)
        r_rec = tr.call("deodhar.recurrence", r_polynomial_recurrence, p.v, p.w)
        expect(c3 and c4 and c6 is not None, f"{t}: a maximal pair fails a characterization")
        expect(r_sub.coeffs == r_rec.coeffs, f"{t}: R-polynomial routes disagree")
        expect(r_sub.coeffs == q_minus_one_coeffs(p.d), f"{t}: R is not (q-1)^{p.d}")
    quotient = tr.call("parabolic.gcr_p", gcr_p, rs, J)
    quotient_ok = all(
        tr.call("parabolic.verify", verify_p_interval, p, J)
        and tr.call("parabolic.verify", verify_classes_distinct, p, J)
        for p in quotient
    )

    covers = sum(len(c) for c in table.covers_down)
    counts = poset.counts_by_d()
    tr.count("rootsys.positive_roots", len(rs.positive_roots))
    tr.count("bruhat.elements", len(table.elements))
    tr.count("bruhat.covers", covers)
    tr.count("gcr.pairs", len(poset.pairs))
    tr.count("parabolic.pairs", len(quotient))

    expect(len(rs.positive_roots) == want["positive_roots"], f"{t}: positive roots")
    expect(len(table.elements) == want["order"], f"{t}: group order")
    expect(covers == want["covers"], f"{t}: Bruhat covers")
    expect(counts == want["counts_by_d"], f"{t}: counts by d {counts}")
    expect(counts.get(1, 0) == covers, f"{t}: d = 1 pairs are not the covers")
    expect(len(maximal) == want["maximal"], f"{t}: maximal pairs {len(maximal)}")
    expect(powerset_ok, f"{t}: a maximal interval is not a power set")
    expect(len(quotient) == want["gcr_p"][jkey], f"{t}: gcr_p J={jkey} gave {len(quotient)}")
    expect(quotient_ok, f"{t}: parabolic checks failed for J={jkey}")


# ---------------------------------------------------------------- topdim


def topdim_ops(seed: int, ref) -> list:
    types = sorted(ref.TOPDIM)
    random.Random(f"topdim:{seed}").shuffle(types)
    return types


def topdim_op(t, tr, ref) -> None:
    want = ref.TOPDIM[t]
    rs = tr.call("rootsys.build", build_root_system, t)
    casc = tr.call("cascade.build", build_cascade, rs)
    report = tr.call("cascade.verify", verify_kostant, rs, casc)
    top = tr.call("construct.top_pair", build_top_pair, rs)
    c3 = tr.call("gcr.check", is_gcr_cond3, top.v, top.w)
    c4 = tr.call("gcr.check", is_gcr_cond4, top.v, top.w)
    c6 = tr.call("gcr.witness", is_gcr_cond6, top.v, top.w)

    m = want["cascade"]
    tr.count("rootsys.positive_roots", len(rs.positive_roots))
    tr.count("cascade.size", len(casc.roots))
    expect(len(rs.positive_roots) == want["positive_roots"], f"{t}: positive roots")
    expect(len(casc.roots) == m == report["size"], f"{t}: cascade size {len(casc.roots)}")
    expect(top.d == m, f"{t}: top pair d = {top.d}, cascade size {m}")
    expect(length(top.w) - length(top.v) == m, f"{t}: top pair length gap")
    expect(reflection_length(longest_element(rs)) == m, f"{t}: reflection length of w0")
    expect(c3 and c4 and c6 is not None, f"{t}: top pair fails a characterization")
    expect(len(c6[1]) == m, f"{t}: witness removes {len(c6[1])} roots")
    expect(get_table(rs, build_limit=0) is None, f"{t}: an op built a Bruhat table")


# ---------------------------------------------------------------- poisson


def poisson_ops(seed: int, ref) -> list:
    ops = sorted(ref.SL4_CHARTS) + ["sl3"]
    random.Random(f"poisson:{seed}").shuffle(ops)
    return ops


def poisson_op(spec, tr, ref) -> None:
    if spec == "sl3":
        ok = tr.call("poissonlab.sl3", verify_sl3_decomposition, BUDGET_S)
        expect(ok is True, "SL3 decomposition check failed")
        return
    gens, want = ref.SL4_CHARTS[spec]
    chart = tr.call("poissonlab.chart", build_chart, 3, spec)
    pm = tr.call("poissonlab.chart", poisson_matrix, chart)
    di = tr.call("poissonlab.chart", degeneracy_ideal, chart, pm)
    got = tr.call("poissonlab.witness", nonreduced_witness, chart, BUDGET_S, di)
    tr.count("poissonlab.generators", len(di.ideal.generators))
    expect(len(di.ideal.generators) == gens, f"chart {spec}: {len(di.ideal.generators)} generators")
    expect(got == want, f"chart {spec}: witness {got}, want {want}")
    if got is not None:
        f = chart.ring.var(got)
        expect(
            tr.call("polyalg.radical", radical_membership, f, di.ideal),
            f"chart {spec}: witness {got} is not in the radical",
        )


# ---------------------------------------------------------------- probes


def probe_types(name: str, ops) -> list[str]:
    """Groups whose elements the per-call Weyl and Bruhat probes sample."""
    if name == "poisson":
        return ["A3"]
    return sorted({spec if isinstance(spec, str) else spec[0] for spec in ops})


def probe_inputs(t: str, rng: random.Random, k: int):
    """k pairs of fresh elements built from random words, so the per-element
    inverse and length caches are cold."""
    rs = build_root_system(t)
    span = len(rs.positive_roots)

    def element():
        return from_word(rs, [rng.randrange(1, rs.rank + 1) for _ in range(rng.randrange(span + 1))])

    return [(element(), element()) for _ in range(k)]


PROBES = {
    "weyl.multiply_us": lambda a, b: multiply(a, b),
    "weyl.inverse_us": lambda a, b: inverse(a),
    "weyl.length_us": lambda a, b: length(a),
    "weyl.reflection_length_us": lambda a, b: reflection_length(a),
    "bruhat.leq_us": lambda a, b: bruhat_leq(a, b),
}


WORKLOADS = {
    # name: (seeded op list, op, minimum passes per run)
    "tables": (tables_ops, tables_op, 4),
    "topdim": (topdim_ops, topdim_op, 4),
    "poisson": (poisson_ops, poisson_op, 3),
}
