"""Self-test of the benchmark itself (a few seconds):

    python3 bench/selftest.py

* the same seed gives the same op list, and another seed another order;
* a corrupted reference entry makes exactly that op count as failed, and
  so do an op over its budget and an op that builds a Bruhat table it was
  not meant to build;
* the reference tables agree with facts that need no library call;
* BENCHMARK.json names exactly the workloads and metrics run.py reports.
"""

from __future__ import annotations

import copy
import json
import math
import sys
import types

import run


def classical_order(t: str) -> int:
    out = 1
    for comp in t.split("x"):
        letter, n = comp[0], int(comp[1:])
        out *= {
            "A": math.factorial(n + 1),
            "B": 2**n * math.factorial(n),
            "C": 2**n * math.factorial(n),
            "D": 2 ** (n - 1) * math.factorial(n),
            "E": {6: 51840, 7: 2903040, 8: 696729600}.get(n, 0),
            "G": 12,
        }[letter]
    return out


def classical_positive_roots(t: str) -> int:
    out = 0
    for comp in t.split("x"):
        letter, n = comp[0], int(comp[1:])
        out += {
            "A": n * (n + 1) // 2,
            "B": n * n,
            "C": n * n,
            "D": n * (n - 1),
            "E": {6: 36, 7: 63, 8: 120}.get(n, 0),
            "G": 6,
        }[letter]
    return out


def convolve(a: dict, b: dict) -> dict:
    out: dict = {}
    for da, ca in a.items():
        for db, cb in b.items():
            out[da + db] = out.get(da + db, 0) + ca * cb
    return out


def check_reference(ref) -> None:
    for t, want in ref.TABLES.items():
        assert want["order"] == classical_order(t), t
        assert want["positive_roots"] == classical_positive_roots(t), t
        assert want["covers"] == want["counts_by_d"][1], t
        factors = t.split("x")
        if len(factors) > 1:
            counts, maximal = {0: 1}, 1
            for f in factors:
                counts = convolve(counts, ref.FACTORS[f]["counts_by_d"])
                maximal *= ref.FACTORS[f]["maximal"]
            assert want["counts_by_d"] == counts, t
            assert want["maximal"] == maximal, t
    for t, want in ref.TOPDIM.items():
        assert want["order"] == classical_order(t), t
        assert want["positive_roots"] == classical_positive_roots(t), t
    assert ref.TABLES["A3"]["counts_by_d"] == {0: 24, 1: 58, 2: 11}
    assert ref.TABLES["A3"]["maximal"] == 25
    assert ref.SL4_CHARTS["1234"][1] == "x31"
    assert len(ref.SL4_CHARTS) == 24


def corrupted(ref, table: str, key: str, edit) -> types.SimpleNamespace:
    out = types.SimpleNamespace(**{k: copy.deepcopy(getattr(ref, k)) for k in dir(ref) if k.isupper()})
    entry = getattr(out, table)
    entry[key] = edit(entry.get(key))
    return out


def failures(workloads, name, spec, ref, budget_s=60.0) -> int:
    """Failed ops when a one-op list runs through the benchmark's own loop."""
    _, op_fn, _ = workloads.WORKLOADS[name]
    _, _, attempted, failed = run.run_passes([spec], op_fn, ref, budget_s, 1, 0.0)
    assert attempted == 1
    return failed


def main() -> int:
    if not run.import_library():
        return 2
    import reference as ref
    import workloads

    check_reference(ref)

    for name, (ops_fn, _, _) in workloads.WORKLOADS.items():
        first = ops_fn(7, ref)
        assert first == ops_fn(7, ref), name
        assert first != ops_fn(8, ref), name

    # the unmodified reference passes, a corrupted entry fails that op only
    spec = ("A2xA1", "12")
    assert failures(workloads, "tables", spec, ref) == 0
    bad = corrupted(ref, "TABLES", "A2xA1", lambda e: {**e, "maximal": e["maximal"] + 1})
    assert failures(workloads, "tables", spec, bad) == 1
    assert failures(workloads, "tables", ("A3", "12"), bad) == 0

    assert failures(workloads, "topdim", "E6", ref) == 0
    bad = corrupted(ref, "TOPDIM", "E6", lambda e: {**e, "cascade": 5})
    assert failures(workloads, "topdim", "E6", bad) == 1

    assert failures(workloads, "poisson", "2314", ref) == 0
    bad = corrupted(ref, "SL4_CHARTS", "2314", lambda e: (e[0], "x21"))
    assert failures(workloads, "poisson", "2314", bad) == 1

    # a blown budget and an unwanted Bruhat table are failures too
    assert failures(workloads, "tables", ("B3", "12"), ref, budget_s=0.01) == 1
    small = corrupted(ref, "TOPDIM", "A3", lambda e: {"order": 24, "positive_roots": 6, "cascade": 2})
    assert failures(workloads, "topdim", "A3", small) == 1

    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    layers = (
        set(run.SPAN_METRICS.values()) | set(run.COUNTERS) | set(workloads.PROBES)
        | {"gcr.hit_ratio", "trace.overhead_s", "trace.spans"}
    )
    assert {m["name"] for m in spec["per_layer"]} == layers
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"]), m["name"]
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
