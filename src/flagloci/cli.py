"""Command-line surface: exact, deterministic reports over every module.

Exit codes: 0 success, 1 bad input, 2 cap or timeout exceeded,
3 verification failure.  Verification subcommands attach a traceability
map (named property -> pass/fail) to their JSON output."""

from __future__ import annotations

import argparse
import csv as csv_mod
import io
import json
import random
import sys
from dataclasses import dataclass
from typing import Optional

from .bruhat import export_bruhat_graph
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
    enumerate_group,
    from_word,
    identity,
    length,
    perm_from_string,
    perm_string,
    reduced_word,
)

__all__ = ["main"]


class InputError(ValueError):
    pass


class VerificationFailure(Exception):
    pass


def _is_single_a(rs: RootSystem) -> bool:
    t = rs.cartan_type.components
    return len(t) == 1 and t[0][0] == "A"


def element_name(w: WeylElement) -> str:
    if _is_single_a(w.rs):
        return perm_string(w)
    word = reduced_word(w)
    return "e" if not word else ".".join(str(i) for i in word)


def parse_element(rs: RootSystem, text: str) -> WeylElement:
    """One-line permutation for a single type-A system (digits, or
    comma-separated entries once n+1 > 9), else a dot-separated reduced
    word; `e` is the identity everywhere."""
    text = text.strip()
    if text == "e":
        return identity(rs)
    if _is_single_a(rs) and "," in text:
        if not all(tok.strip().isdigit() for tok in text.split(",")):
            raise InputError(f"cannot parse permutation {text!r}")
        return perm_from_string(rs, text)
    if _is_single_a(rs) and text.isdigit():
        return perm_from_string(rs, text)
    try:
        word = [int(tok) for tok in text.split(".")]
    except ValueError:
        raise InputError(f"cannot parse element {text!r}")
    if any(i < 1 or i > rs.rank for i in word):
        raise InputError(f"word letters out of range in {text!r}")
    return from_word(rs, word)


def _root_str(root) -> str:
    return "(" + ",".join(str(c) for c in root) + ")"


@dataclass
class Report:
    payload: dict
    text: list[str]
    csv: Optional[tuple[list[str], list[list]]] = None
    dot: Optional[str] = None
    code: int = 0


def _emit(report: Report, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report.payload, indent=2, sort_keys=True)
    if fmt == "text":
        return "\n".join(report.text)
    if fmt == "csv":
        if report.csv is None:
            raise InputError("no tabular form for this subcommand")
        header, rows = report.csv
        buf = io.StringIO()
        writer = csv_mod.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue().rstrip("\n")
    if fmt == "dot":
        if report.dot is None:
            raise InputError("no DOT form for this subcommand")
        return report.dot
    raise InputError(f"unknown format {fmt!r}")


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise InputError(f"--{name} is required here")


def _pair_rows(pairs) -> list[list]:
    return [[element_name(p.v), element_name(p.w), p.d] for p in pairs]


def cmd_gcr(args) -> Report:
    rs = build_root_system(args.type)
    if args.action in ("enumerate", "components"):
        poset = enumerate_gcr(rs, cap=args.cap)
        pairs = poset.pairs if args.action == "enumerate" else poset.maximal_pairs()
        by_d: dict[int, int] = {}
        for p in pairs:
            by_d[p.d] = by_d.get(p.d, 0) + 1
        payload = {
            "type": str(rs.cartan_type),
            "mode": args.action,
            "count": len(pairs),
            "by_dimension": {str(k): v for k, v in sorted(by_d.items())},
            "pairs": [
                {"v": element_name(p.v), "w": element_name(p.w), "d": p.d} for p in pairs
            ],
        }
        text = [f"{args.action} {rs.cartan_type}: {len(pairs)} pairs"]
        text += [f"  d={k}: {v}" for k, v in sorted(by_d.items())]
        text += [f"  ({element_name(p.v)}, {element_name(p.w)}) d={p.d}" for p in pairs]
        return Report(payload, text, csv=(["v", "w", "d"], _pair_rows(pairs)))
    _require(args, "v", "w")
    v = parse_element(rs, args.v)
    w = parse_element(rs, args.w)
    if args.action == "check":
        c3 = is_gcr_cond3(v, w)
        c4 = is_gcr_cond4(v, w)
        c6 = is_gcr_cond6(v, w) is not None
        agree = c3 == c4 == c6
        payload = {
            "type": str(rs.cartan_type),
            "v": element_name(v),
            "w": element_name(w),
            "gcr": c3,
            "d": length(w) - length(v) if c3 else None,
            "conditions": {"kernel": c3, "involution": c4, "subword": c6},
            "traceability": {"equivalent-characterizations": "pass" if agree else "fail"},
        }
        text = [
            f"({element_name(v)}, {element_name(w)}) gcr={c3}"
            f" kernel={c3} involution={c4} subword={c6}"
        ]
        return Report(payload, text, code=0 if (agree and c3) else 3)
    if args.action == "powerset":
        pair = make_gcr_pair(v, w)
        ok = verify_powerset_interval(pair)
        payload = {
            "type": str(rs.cartan_type),
            "v": element_name(v),
            "w": element_name(w),
            "d": pair.d,
            "interval_size": 2**pair.d,
            "traceability": {"powerset-interval": "pass" if ok else "fail"},
        }
        text = [f"[{element_name(v)}, {element_name(w)}] boolean of rank {pair.d}: {ok}"]
        return Report(payload, text, code=0 if ok else 3)
    raise InputError(f"unknown gcr action {args.action!r}")


def cmd_cascade(args) -> Report:
    rs = build_root_system(args.type)
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
        "type": str(rs.cartan_type),
        "size": len(casc.roots),
        "roots": [_root_str(g) for g in casc.roots],
        "verification": summary,
        "traceability": {"kostant-cascade-identities": "pass" if ok else "fail"},
    }
    text = [f"cascade {rs.cartan_type}: {len(casc.roots)} roots, verified={ok}"]
    text += [f"  {r[0]} height={r[1]} support={r[2]} |E|={r[3]} pairs={r[4]}" for r in rows]
    return Report(
        payload,
        text,
        csv=(["root", "height", "support", "e_size", "pairs"], rows),
        code=0 if ok else 3,
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


def cmd_rpoly(args) -> Report:
    rs = build_root_system(args.type)
    records = []
    if args.sample:
        elements = enumerate_group(rs, cap=args.cap)
        rng = random.Random(args.seed)
        for _ in range(args.sample):
            v = elements[rng.randrange(len(elements))]
            w = elements[rng.randrange(len(elements))]
            records.append(_rpoly_record(v, w))
    else:
        _require(args, "v", "w")
        records.append(_rpoly_record(parse_element(rs, args.v), parse_element(rs, args.w)))
    all_agree = all(r["agree"] for r in records)
    payload = {
        "type": str(rs.cartan_type),
        "pairs": records,
        "all_agree": all_agree,
        "traceability": {"rpolynomial-two-routes": "pass" if all_agree else "fail"},
    }
    text = [
        f"R[{r['v']}, {r['w']}] = {r['pretty']}"
        + (f" = {r['factored']}" if r["factored"] else "")
        + ("" if r["agree"] else "  DISAGREE")
        for r in records
    ]
    text.append(f"agreement on {len(records)} pairs: {all_agree}")
    rows = [[r["v"], r["w"], r["pretty"], r["agree"]] for r in records]
    return Report(
        payload, text, csv=(["v", "w", "rpoly", "agree"], rows), code=0 if all_agree else 3
    )


def cmd_parabolic(args) -> Report:
    rs = build_root_system(args.type)
    if not args.parabolic:
        raise InputError("--parabolic is required here")
    J = tuple(sorted(int(tok) for tok in args.parabolic.split(",") if tok))
    pairs = gcr_p(rs, J, cap=args.cap)
    rows = []
    intervals_ok = True
    classes_ok = True
    for p in pairs:
        a = verify_p_interval(p, J)
        b = verify_classes_distinct(p, J)
        intervals_ok = intervals_ok and a
        classes_ok = classes_ok and b
        rows.append([element_name(p.v), element_name(p.w), p.d, a, b])
    ok = intervals_ok and classes_ok
    payload = {
        "type": str(rs.cartan_type),
        "J": list(J),
        "count": len(pairs),
        "pairs": [
            {"v": r[0], "w": r[1], "d": r[2], "interval_ok": r[3], "classes_ok": r[4]}
            for r in rows
        ],
        "traceability": {
            "parabolic-powerset-interval": "pass" if intervals_ok else "fail",
            "parabolic-classes-distinct": "pass" if classes_ok else "fail",
        },
    }
    text = [f"gcr_p {rs.cartan_type} J={list(J)}: {len(pairs)} pairs, verified={ok}"]
    text += [f"  ({r[0]}, {r[1]}) d={r[2]} interval={r[3]} classes={r[4]}" for r in rows]
    return Report(
        payload,
        text,
        csv=(["v", "w", "d", "interval_ok", "classes_ok"], rows),
        code=0 if ok else 3,
    )


def cmd_construct(args) -> Report:
    rs = build_root_system(args.type)
    pair = build_top_pair(rs)
    payload = {
        "type": str(rs.cartan_type),
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
        "traceability": {"top-pair-invariants": "pass"},
    }
    text = [
        f"top pair {rs.cartan_type}: d={pair.d} l(v)={length(pair.v)} l(w)={length(pair.w)}",
        f"  v = {element_name(pair.v)}",
    ]
    return Report(payload, text)


def cmd_poisson(args) -> Report:
    rs = build_root_system(args.type)
    if not _is_single_a(rs):
        raise InputError("poisson subcommands support single type-A systems only")
    if args.action == "scan":
        report = scan_cells(rs.rank, timeout_secs=args.timeout_secs, workers=args.workers)
        payload = dict(report)
        payload["type"] = str(rs.cartan_type)
        text = [f"scan {rs.cartan_type}: witnesses on {len(report['witness_charts'])} charts"]
        text += [
            f"  {c['v']}: witness={c['witness']} generators={c['generators']}"
            + (" TIMEOUT" if c["timeout"] else "")
            for c in report["charts"]
        ]
        rows = [
            [c["v"], c["witness"] or "", c["generators"], c["timeout"]]
            for c in report["charts"]
        ]
        return Report(payload, text, csv=(["v", "witness", "generators", "timeout"], rows))
    chart = build_chart(rs.rank, args.cell)
    pm = poisson_matrix(chart)
    if args.action == "matrix":
        entries = []
        names = chart.ring.variables
        for a in range(len(names)):
            for b in range(a):
                coeff = pm.entries[a][b]
                if not coeff.is_zero():
                    entries.append({"a": names[a], "b": names[b], "bracket": str(coeff)})
        payload = {
            "type": str(rs.cartan_type),
            "cell": chart.v_oneline,
            "bivector": pm.pretty(),
            "entries": entries,
        }
        text = [f"pi on cell {chart.v_oneline} of {rs.cartan_type}:", "  " + pm.pretty()]
        rows = [[e["a"], e["b"], e["bracket"]] for e in entries]
        return Report(payload, text, csv=(["a", "b", "bracket"], rows))
    if args.action == "ideal":
        di = degeneracy_ideal(chart, pm)
        witness = nonreduced_witness(chart, timeout_secs=args.timeout_secs, di=di)
        payload = {
            "type": str(rs.cartan_type),
            "cell": chart.v_oneline,
            "generators": [str(g) for g in di.ideal.generators],
            "witness": witness,
        }
        if rs.rank == 2 and chart.v_oneline == "123":
            ok = verify_sl3_decomposition(timeout_secs=args.timeout_secs)
            payload["traceability"] = {
                "sl3-primary-decomposition": "pass" if ok else "fail"
            }
        text = [f"degeneracy ideal on cell {chart.v_oneline}: {len(di.ideal.generators)} generators"]
        text += [f"  {g}" for g in payload["generators"]]
        text.append(f"witness: {witness}")
        rows = [[g] for g in payload["generators"]]
        code = 0
        if payload.get("traceability", {}).get("sl3-primary-decomposition") == "fail":
            code = 3
        return Report(payload, text, csv=(["generator"], rows), code=code)
    raise InputError(f"unknown poisson action {args.action!r}")


def cmd_graph(args) -> Report:
    rs = build_root_system(args.type)
    poset = enumerate_gcr(rs, cap=args.cap)
    highlight = {(p.v, p.w) for p in poset.maximal_pairs() if p.d == 1}
    dot = export_bruhat_graph(rs, highlight=highlight, cap=args.cap)
    payload = {"type": str(rs.cartan_type), "dot": dot, "highlighted_edges": len(highlight)}
    return Report(payload, [dot], dot=dot)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flagloci",
        description="Exact combinatorics of Poisson degeneracy loci of flag varieties.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p, fmt_default="text"):
        p.add_argument("type", help="Cartan type, e.g. A3 or B2xA1")
        p.add_argument("--format", choices=["json", "csv", "dot", "text"], default=fmt_default)
        p.add_argument("--cap", type=int, default=60000)
        p.add_argument("--timeout-secs", type=float, default=60.0)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--workers", type=_positive_int, default=1)

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
    p.add_argument("--sample", type=int, default=0)
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
        report = args.handler(args)
        out = _emit(report, args.format)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (GroupTooLargeError, PolyTimeout) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (KostantCheckError, ConstructError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(out)
    return report.code


if __name__ == "__main__":
    sys.exit(main())
