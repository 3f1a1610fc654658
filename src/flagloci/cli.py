"""Command-line surface: exact, deterministic reports over every module.

Exit codes: 0 success, 1 bad input, 2 cap or timeout exceeded,
3 verification failure.  A verification subcommand names its checks in
`Report.checks`; `main` turns them into the traceability map (named
property -> pass/fail) of the JSON output, and any "fail" into exit 3."""

from __future__ import annotations

import argparse
import io
import os
import random
import sys
from collections import Counter
from time import monotonic
from typing import Optional

from .bruhat import export_bruhat_graph, require_table
from .cascade import KostantCheckError, build_cascade, iter_nodes, verify_kostant
from .construct import ConstructError, build_top_pair
from .deodhar import r_polynomial_deodhar, r_polynomial_recurrence
from .gcr import (
    enumerate_gcr,
    is_gcr_cond3,
    is_gcr_cond4,
    is_gcr_cond6,
    make_gcr_pair,
    verify_powerset_interval,
)
from .parabolic import gcr_p, verify_classes_distinct, verify_p_interval
from .poissonlab import (
    build_chart,
    degeneracy_ideal,
    nonreduced_witness,
    poisson_matrix,
    scan_cells,
    verify_sl3_decomposition,
)
from .polyalg import PolyTimeout
from .rootsys import RootSystem, build_root_system
from .weyl import (
    GroupTooLargeError,
    WeylElement,
    element_name,
    enumerate_group,
    from_word,
    identity,
    is_type_a,
    length,
    perm_from_string,
    reduced_word,
)

__all__ = ["main"]


class InputError(ValueError):
    pass


def parse_element(rs: RootSystem, text: str) -> WeylElement:
    """One-line permutation for a single type-A system (digits, or
    comma-separated entries once n+1 > 9), else a dot-separated reduced
    word; `e` is the identity everywhere."""
    text = text.strip()
    if text == "e":
        return identity(rs)
    if is_type_a(rs) and ("," in text or text.isdigit()):
        return perm_from_string(rs, text)
    # int() would also take a sign, spaces, underscores and other scripts'
    # digits, so every letter must be a run of ASCII digits
    tokens = text.split(".")
    if not text.isascii() or not all(tok.isdecimal() for tok in tokens):
        raise InputError(f"cannot parse element {text!r}")
    word = [int(tok) for tok in tokens]
    if any(i < 1 or i > rs.rank for i in word):
        raise InputError(f"word letters out of range in {text!r}")
    w = from_word(rs, word)
    if length(w) != len(word):
        raise InputError(f"word {text!r} is not reduced")
    return w


def _root_str(root) -> str:
    return "(" + ",".join(str(c) for c in root) + ")"


class Report:
    __slots__ = ("payload", "text", "csv", "dot", "code", "checks")

    def __init__(
        self,
        payload: dict,
        text: list[str],
        csv: Optional[tuple[list[str], list[list]]] = None,
        dot: Optional[str] = None,
        code: int = 0,
        checks: Optional[dict[str, bool]] = None,
    ):
        self.payload = payload
        self.text = text
        self.csv = csv
        self.dot = dot
        self.code = code
        self.checks = {} if checks is None else checks  # property -> held


def _emit(report: Report, fmt: str) -> str:
    # json and csv are imported in their branches: text, the default, needs neither
    if fmt == "json":
        import json

        return json.dumps(report.payload, indent=2, sort_keys=True)
    if fmt == "text":
        return "\n".join(report.text)
    if fmt == "csv":
        if report.csv is None:
            raise InputError("no tabular form for this subcommand")
        import csv

        header, rows = report.csv
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue().rstrip("\n")
    if fmt == "dot":
        if report.dot is None:
            raise InputError("no DOT form for this subcommand")
        return report.dot
    raise InputError(f"unknown format {fmt!r}")


def _read_pair(rs: RootSystem, args) -> tuple[WeylElement, WeylElement]:
    for name in ("v", "w"):
        if getattr(args, name) is None:
            raise InputError(f"--{name} is required here")
    return parse_element(rs, args.v), parse_element(rs, args.w)


def cmd_gcr(rs: RootSystem, args) -> Report:
    if args.action in ("enumerate", "components"):
        if args.v is not None or args.w is not None:
            raise InputError(
                f"--v and --w do not apply to {args.action}, which sweeps the whole group"
            )
        poset = enumerate_gcr(rs, cap=args.cap)
        pairs = poset.pairs if args.action == "enumerate" else poset.maximal_pairs()
        # every element is named once, and each format reads the rows
        header = ["v", "w", "d"]
        rows = [[element_name(p.v), element_name(p.w), p.d] for p in pairs]
        by_d = sorted(Counter(d for _, _, d in rows).items())
        payload = {
            "mode": args.action,
            "count": len(rows),
            "by_dimension": {str(k): v for k, v in by_d},
            "pairs": [dict(zip(header, r)) for r in rows],
        }
        text = [f"{args.action} {rs.cartan_type}: {len(rows)} pairs"]
        text += [f"  d={k}: {v}" for k, v in by_d]
        text += [f"  ({v}, {w}) d={d}" for v, w, d in rows]
        return Report(payload, text, csv=(header, rows))
    v, w = _read_pair(rs, args)
    if args.action == "check":
        c3 = is_gcr_cond3(v, w)
        c4 = is_gcr_cond4(v, w)
        c6 = is_gcr_cond6(v, w) is not None
        payload = {
            "v": element_name(v),
            "w": element_name(w),
            "gcr": c3,
            "d": length(w) - length(v) if c3 else None,
            "conditions": {"kernel": c3, "involution": c4, "subword": c6},
        }
        text = [
            f"({element_name(v)}, {element_name(w)}) gcr={c3}"
            f" kernel={c3} involution={c4} subword={c6}"
        ]
        checks = {"equivalent-characterizations": c3 == c4 == c6}
        # a pair that is not witnessed exits 3 even when all three agree
        return Report(payload, text, code=0 if c3 else 3, checks=checks)
    if args.action == "powerset":
        require_table(rs, args.cap)
        pair = make_gcr_pair(v, w)
        ok = verify_powerset_interval(pair)
        payload = {
            "v": element_name(v),
            "w": element_name(w),
            "d": pair.d,
            "interval_size": 2**pair.d,
        }
        text = [f"[{element_name(v)}, {element_name(w)}] boolean of rank {pair.d}: {ok}"]
        return Report(payload, text, checks={"powerset-interval": ok})
    raise InputError(f"unknown gcr action {args.action!r}")


def cmd_cascade(rs: RootSystem, args) -> Report:
    casc = build_cascade(rs)
    try:
        summary = verify_kostant(rs, casc)
        ok = True
    except KostantCheckError as exc:
        summary = {"error": str(exc)}
        ok = False
    rows = []
    for node in iter_nodes(casc):
        rows.append(
            [
                _root_str(node.gamma),
                rs.height(node.gamma),
                ".".join(str(i) for i in node.support),
                len(node.E_set),
                len(node.pairs),
            ]
        )
    payload = {
        "size": len(casc.roots),
        "roots": [_root_str(g) for g in casc.roots],
        "verification": summary,
    }
    text = [f"cascade {rs.cartan_type}: {len(casc.roots)} roots, verified={ok}"]
    text += [f"  {r[0]} height={r[1]} support={r[2]} |E|={r[3]} pairs={r[4]}" for r in rows]
    return Report(
        payload,
        text,
        csv=(["root", "height", "support", "e_size", "pairs"], rows),
        checks={"kostant-cascade-identities": ok},
    )


def _rpoly_record(v: WeylElement, w: WeylElement) -> dict:
    r1 = r_polynomial_deodhar(v, w)
    r2 = r_polynomial_recurrence(v, w)
    return {
        "v": element_name(v),
        "w": element_name(w),
        "coeffs": list(r1.coeffs),
        "pretty": r1.pretty(),
        "factored": r1.factored(),
        "agree": r1 == r2,
    }


def cmd_rpoly(rs: RootSystem, args) -> Report:
    if args.sample is not None:
        if args.v is not None or args.w is not None:
            raise InputError("--v and --w do not apply with --sample")
        elements = enumerate_group(rs, cap=args.cap)
        rng = random.Random(0 if args.seed is None else args.seed)
        records = []
        for _ in range(args.sample):
            v = elements[rng.randrange(len(elements))]
            w = elements[rng.randrange(len(elements))]
            records.append(_rpoly_record(v, w))
    else:
        if args.seed is not None:
            raise InputError("--seed applies only with --sample")
        records = [_rpoly_record(*_read_pair(rs, args))]
    all_agree = all(r["agree"] for r in records)
    payload = {"pairs": records, "all_agree": all_agree}
    text = [
        f"R[{r['v']}, {r['w']}] = {r['pretty']}"
        + (f" = {r['factored']}" if r["factored"] else "")
        + ("" if r["agree"] else "  DISAGREE")
        for r in records
    ]
    text.append(f"agreement on {len(records)} pairs: {all_agree}")
    rows = [[r["v"], r["w"], r["pretty"], r["agree"]] for r in records]
    return Report(
        payload,
        text,
        csv=(["v", "w", "rpoly", "agree"], rows),
        checks={"rpolynomial-two-routes": all_agree},
    )


def _parse_parabolic(text: str) -> list[int]:
    """The comma-separated simple indices of --parabolic; an entry that is
    not a run of ASCII digits (after stripping spaces), or an index given
    twice, is bad input."""
    tokens = [tok.strip() for tok in text.split(",")]
    if not all(tok.isascii() and tok.isdecimal() for tok in tokens):
        raise InputError(f"cannot parse --parabolic {text!r}")
    J = [int(tok) for tok in tokens]
    for k, i in enumerate(J):
        if i in J[:k]:
            raise InputError(f"repeated simple index {i} in --parabolic {text!r}")
    return J


def cmd_parabolic(rs: RootSystem, args) -> Report:
    if not args.parabolic:
        raise InputError("--parabolic is required here")
    J = tuple(sorted(_parse_parabolic(args.parabolic)))
    pairs = gcr_p(rs, J, cap=args.cap)
    header = ["v", "w", "d", "interval_ok", "classes_ok"]
    rows = []
    for p in pairs:
        verdicts = [verify_p_interval(p, J), verify_classes_distinct(p, J)]
        rows.append([element_name(p.v), element_name(p.w), p.d, *verdicts])
    intervals_ok = all(r[3] for r in rows)
    classes_ok = all(r[4] for r in rows)
    payload = {
        "J": list(J),
        "count": len(pairs),
        "pairs": [dict(zip(header, r)) for r in rows],
    }
    ok = intervals_ok and classes_ok
    text = [f"gcr_p {rs.cartan_type} J={list(J)}: {len(pairs)} pairs, verified={ok}"]
    text += [f"  ({r[0]}, {r[1]}) d={r[2]} interval={r[3]} classes={r[4]}" for r in rows]
    return Report(
        payload,
        text,
        csv=(header, rows),
        checks={
            "parabolic-powerset-interval": intervals_ok,
            "parabolic-classes-distinct": classes_ok,
        },
    )


def cmd_construct(rs: RootSystem, args) -> Report:
    pair = build_top_pair(rs)
    payload = {
        "d": pair.d,
        "l_v": length(pair.v),
        "l_w": length(pair.w),
        "v_word": list(reduced_word(pair.v)),
        "v": element_name(pair.v),
        "w": element_name(pair.w),
        "certificate": [
            {
                "gamma": _root_str(g),
                "mu": _root_str(mu),
                "nu": _root_str(nu),
                "chosen": _root_str(ch),
            }
            for g, mu, nu, ch in pair.certificate
        ],
    }
    text = [
        f"top pair {rs.cartan_type}: d={pair.d} l(v)={length(pair.v)} l(w)={length(pair.w)}",
        f"  v = {element_name(pair.v)}",
    ]
    # build_top_pair raises ConstructError (exit 3) on any failed invariant
    return Report(payload, text, checks={"top-pair-invariants": True})


def cmd_poisson(rs: RootSystem, args) -> Report:
    if not is_type_a(rs):
        raise InputError("poisson subcommands support single type-A systems only")
    if args.action == "scan":
        if args.cell is not None:
            raise InputError("--cell does not apply to scan, which runs every chart")
        payload = scan_cells(rs.rank, timeout_secs=args.timeout_secs, workers=args.workers)
        text = [f"scan {rs.cartan_type}: witnesses on {len(payload['witness_charts'])} charts"]
        text += [
            f"  {c['v']}: witness={c['witness']} generators={c['generators']}"
            + (" TIMEOUT" if c["timeout"] else "")
            for c in payload["charts"]
        ]
        rows = [
            [c["v"], c["witness"] or "", c["generators"], c["timeout"]]
            for c in payload["charts"]
        ]
        # a chart that ran out of time is a budget overrun, not "no witness"
        code = 2 if any(c["timeout"] for c in payload["charts"]) else 0
        return Report(
            payload, text, csv=(["v", "witness", "generators", "timeout"], rows), code=code
        )
    chart = build_chart(rs.rank, args.cell)
    pm = poisson_matrix(chart)
    if args.action == "matrix":
        header = ["a", "b", "bracket"]
        names = chart.ring.variables
        rows = [[names[a], names[b], str(p)] for a, b, p in pm.nonzero()]
        payload = {
            "cell": chart.v_oneline,
            "bivector": pm.pretty(),
            "entries": [dict(zip(header, r)) for r in rows],
        }
        text = [f"pi on cell {chart.v_oneline} of {rs.cartan_type}:", "  " + pm.pretty()]
        return Report(payload, text, csv=(header, rows))
    if args.action == "ideal":
        di = degeneracy_ideal(chart, pm)
        # the witness search and the SL3 check share one --timeout-secs
        deadline = monotonic() + args.timeout_secs
        witness = nonreduced_witness(chart, timeout_secs=args.timeout_secs, di=di)
        generators = [str(g) for g in di.ideal.generators]
        payload = {
            "cell": chart.v_oneline,
            "generators": generators,
            "witness": witness,
        }
        checks = {}
        if rs.rank == 2 and chart.v_oneline == "123":
            checks["sl3-primary-decomposition"] = verify_sl3_decomposition(
                timeout_secs=deadline - monotonic()
            )
        text = [f"degeneracy ideal on cell {chart.v_oneline}: {len(generators)} generators"]
        text += [f"  {g}" for g in generators]
        text.append(f"witness: {witness}")
        return Report(payload, text, csv=(["generator"], [[g] for g in generators]), checks=checks)
    raise InputError(f"unknown poisson action {args.action!r}")


def cmd_graph(rs: RootSystem, args) -> Report:
    poset = enumerate_gcr(rs, cap=args.cap)
    highlight = {(p.v, p.w) for p in poset.maximal_pairs() if p.d == 1}
    dot = export_bruhat_graph(rs, highlight=highlight)
    payload = {"dot": dot, "highlighted_edges": len(highlight)}
    return Report(payload, [dot], dot=dot)


def _at_least(low: int, kind: type = int):
    """An argparse type: a number of ``kind`` no smaller than ``low``; NaN
    compares with nothing and is refused too."""

    def number(text: str):
        value = kind(text)
        if not value >= low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return number


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flagloci",
        description="Exact combinatorics of Poisson degeneracy loci of flag varieties.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p, fmt_default="text"):
        p.add_argument("type", help="Cartan type, e.g. A3 or B2xA1")
        p.add_argument("--format", choices=["json", "csv", "dot", "text"], default=fmt_default)
        p.add_argument("--cap", type=_at_least(0), default=60000)
        p.add_argument("--timeout-secs", type=_at_least(0, float), default=60.0)

    p = sub.add_parser("gcr", help="enumerate or check witnessed pairs")
    p.add_argument("action", choices=["enumerate", "components", "check", "powerset"])
    common(p)
    p.add_argument("--v")
    p.add_argument("--w")
    p.set_defaults(handler=cmd_gcr)

    p = sub.add_parser("cascade", help="orthogonal cascade table with verification")
    common(p)
    p.set_defaults(handler=cmd_cascade)

    p = sub.add_parser("rpoly", help="R-polynomials by two routes")
    common(p)
    p.add_argument("--v")
    p.add_argument("--w")
    p.add_argument("--sample", type=_at_least(1))
    p.add_argument("--seed", type=int, help="seed of --sample's draws (default 0)")
    p.set_defaults(handler=cmd_rpoly)

    p = sub.add_parser("parabolic", help="quotient-side pair tables and checks")
    common(p)
    p.add_argument("--parabolic", help="comma-separated simple indices, e.g. 1,3")
    p.set_defaults(handler=cmd_parabolic)

    p = sub.add_parser("construct", help="build a top-dimensional pair")
    p.add_argument("action", choices=["top-pair"])
    common(p)
    p.set_defaults(handler=cmd_construct)

    p = sub.add_parser("poisson", help="bivectors, ideals, witness scans")
    p.add_argument("action", choices=["matrix", "ideal", "scan"])
    common(p)
    p.add_argument("--cell", default=None, help="one-line permutation of the chart")
    p.add_argument("--workers", type=_at_least(1), default=1)
    p.set_defaults(handler=cmd_poisson)

    p = sub.add_parser("graph", help="DOT Bruhat graph with component edges flagged")
    common(p, fmt_default="dot")
    p.set_defaults(handler=cmd_graph)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 1
    try:
        rs = build_root_system(args.type)
        report = args.handler(rs, args)
        report.payload["type"] = str(rs.cartan_type)
        if report.checks:
            report.payload["traceability"] = {
                name: "pass" if ok else "fail" for name, ok in report.checks.items()
            }
            if not all(report.checks.values()):
                report.code = 3
        out = _emit(report, args.format)
    except ValueError as exc:  # InputError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (GroupTooLargeError, PolyTimeout) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (KostantCheckError, ConstructError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        print(out)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe: send what is left, and the
        # interpreter's final flush of stdout, to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return report.code


if __name__ == "__main__":
    sys.exit(main())
