"""Benchmark for flagloci: end-to-end time to solution and per-layer spans.

    python3 bench/run.py --workload tables --seed 1 --seconds 30 --trace 0

One process, one thread, a closed loop: each op starts when the previous
one ends.  A run repeats the workload's fixed, seeded op list ("a pass")
until ``--seconds`` have passed and at least the workload's minimum number
of passes has run.  Times are scaled to a reference machine speed that a
calibration loop, run between ops, measures.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from spans import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

END_TO_END = ("setup_s", "wall_s", "op_p50_s", "op_tail_s", "peak_rss_mb")

# Span name -> per-layer metric; "op" is the op's own root span, whose self
# time is the benchmark's glue and oracles.
SPAN_METRICS = {
    "rootsys.build": "rootsys.build_s",
    "bruhat.table_build": "bruhat.table_build_s",
    "gcr.enumerate": "gcr.enumerate_s",
    "gcr.maximal": "gcr.maximal_s",
    "gcr.powerset": "gcr.powerset_s",
    "gcr.check": "gcr.check_s",
    "gcr.witness": "gcr.witness_s",
    "deodhar.subword": "deodhar.subword_s",
    "deodhar.recurrence": "deodhar.recurrence_s",
    "parabolic.gcr_p": "parabolic.gcr_p_s",
    "parabolic.verify": "parabolic.verify_s",
    "cascade.build": "cascade.build_s",
    "cascade.verify": "cascade.verify_s",
    "construct.top_pair": "construct.top_pair_s",
    "poissonlab.chart": "poissonlab.chart_s",
    "poissonlab.witness": "poissonlab.witness_s",
    "poissonlab.sl3": "poissonlab.sl3_s",
    "polyalg.radical": "polyalg.radical_s",
    "op": "bench.check_s",
}
COUNTERS = (
    "rootsys.positive_roots",
    "bruhat.elements",
    "bruhat.covers",
    "gcr.candidates",
    "gcr.pairs",
    "parabolic.pairs",
    "cascade.size",
    "poissonlab.generators",
)
PROBE_CALLS = 12  # calls per probed group and probe
IMPORTS_FIRST = 3  # fresh-process imports before the first pass; one follows each pass
TAIL_BEYOND = 2  # op_tail_s is the op latency with this many slower ops beyond it
IMPORT_CODE = "import time; t0 = time.perf_counter(); import flagloci; print(time.perf_counter() - t0)"
CAL_SAMPLES = 2  # calibration runs after every op of an untraced run
CAL_REF_S = 2.0e-3  # about calibrate()'s mean time on a quiet 2.0 GHz Xeon vCPU


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout("op exceeded its budget")


def calibrate() -> float:
    """Time of a fixed pure-Python mix of what the library spends its time
    on: integer arithmetic, Fraction arithmetic, and tuples hashed into a
    set.  Its mean over a run measures how fast the machine ran."""
    t0 = perf_counter()
    s = 0
    for i in range(10000):
        s += (i * i) % 7
    f = Fraction(0)
    for k in range(1, 250):
        f += Fraction(k % 7, k)
    p, seen = tuple(range(9)), set()
    for i in range(450):
        p = tuple(p[(j * 5 + i) % 9] for j in range(9))
        seen.add(p)
    return perf_counter() - t0


def time_import() -> float:
    """Import time of flagloci in a fresh interpreter, as a CLI process
    pays it: the package and every module it pulls in."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_CODE],
        capture_output=True, text=True, check=True, cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    return float(proc.stdout)


def import_library() -> bool:
    """Import flagloci from this checkout's src/; False when the checkout
    holds no sources."""
    if not (SRC / "flagloci" / "__init__.py").is_file():
        print(f"flagloci sources not found under {SRC}", file=sys.stderr)
        return False
    # Imports then read cached bytecode, as a CLI process does after its
    # first run, also where the environment turns bytecode writing off.
    compileall.compile_dir(SRC / "flagloci", quiet=1)
    sys.path.insert(0, str(SRC))
    import flagloci

    origin = Path(flagloci.__file__).resolve()
    if not origin.is_relative_to(SRC):
        print(f"imported flagloci from {origin}, not from {SRC}", file=sys.stderr)
        return False
    return True


def run_passes(
    ops, op_fn, ref, budget_s, min_passes, seconds, tracer=None, after_op=None, after_pass=None
):
    """Closed loop over whole passes.  With a tracer, passes alternate
    untraced and traced so the two can be compared.  ``after_op`` and
    ``after_pass`` run between ops and between passes, outside the op
    latencies.

    Returns the pass times, each op's latencies in untraced and in traced
    passes, and the attempted and failed op counts."""
    signal.signal(signal.SIGALRM, _on_alarm)
    null = NullTracer()
    passes = []  # (traced, seconds)
    lats = {False: [[] for _ in ops], True: [[] for _ in ops]}
    attempted = failed = 0
    need = max(min_passes, 4) if tracer is not None else min_passes
    start = perf_counter()
    k = 0
    while k < need or perf_counter() - start < seconds:
        traced = tracer is not None and k % 2 == 1
        tr = tracer if traced else null
        t_pass = perf_counter()
        for i, spec in enumerate(ops):
            tr.begin_op((k, i))
            t_op = perf_counter()
            try:
                signal.setitimer(signal.ITIMER_REAL, budget_s)
                op_fn(spec, tr, ref)
            except Exception as exc:  # every failure is counted, never retried
                failed += 1
                if failed <= 5:
                    print(f"op {k}:{i} {spec!r} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                tr.end_op()
            attempted += 1
            lats[traced][i].append(perf_counter() - t_op)
            if after_op is not None:
                after_op()
        passes.append((traced, perf_counter() - t_pass))
        k += 1
        if after_pass is not None:
            after_pass()
    return passes, lats, attempted, failed


def op_latencies(lats) -> list[float]:
    """Each op's latency: the median of its repetitions."""
    return [statistics.median(reps) for reps in lats]


def layer_metrics(tracer, passes, lats, probes, pass_counts) -> dict:
    """Per traced pass, each layer's self time and each counter's total;
    report the median over traced passes.  ``pass_counts`` are counters
    computed once for a whole pass, outside the timed ops."""
    traced = [k for k, (is_traced, _) in enumerate(passes) if is_traced]
    per_pass = {k: {} for k in traced}
    for name, op, self_s in tracer.self_times():
        bucket = per_pass[op[0]]
        key = SPAN_METRICS[name]
        bucket[key] = bucket.get(key, 0.0) + self_s
    for op, counts in tracer.counts.items():
        bucket = per_pass[op[0]]
        for key, value in counts.items():
            bucket[key] = bucket.get(key, 0) + value
    for k in traced:
        bucket = per_pass[k]
        bucket["trace.spans"] = sum(1 for span in tracer.spans if span[4][0] == k)
        bucket.update(pass_counts)
        if bucket.get("gcr.candidates"):
            bucket["gcr.hit_ratio"] = bucket.get("gcr.pairs", 0) / bucket["gcr.candidates"]
    keys = list(SPAN_METRICS.values()) + list(COUNTERS) + ["gcr.hit_ratio", "trace.spans"]
    out = {key: statistics.median(per_pass[k].get(key, 0) for k in traced) for key in keys}
    out.update(probes)
    # traced minus untraced wall_s
    out["trace.overhead_s"] = sum(op_latencies(lats[True])) - sum(op_latencies(lats[False]))
    return out


def run_probes(types, seed, probe_inputs, probes) -> dict:
    """Per-call cost of single Weyl and Bruhat calls, in microseconds: the
    median over the probed groups of the mean over fresh inputs."""
    rng = random.Random(f"probe:{seed}")
    per_group = {key: [] for key in probes}
    for t in types:
        for key, fn in probes.items():
            pairs = probe_inputs(t, rng, PROBE_CALLS)  # built outside the timed region
            t0 = perf_counter()
            for a, b in pairs:
                fn(a, b)
            per_group[key].append((perf_counter() - t0) / len(pairs) * 1e6)
    return {key: statistics.median(vals) for key, vals in per_group.items()}


def unit_of(key: str) -> str:
    if key.endswith("_us"):
        return "us"
    if key.endswith("_s"):
        return "s"
    if key.endswith("_mb"):
        return "MB"
    if key == "gcr.hit_ratio":
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not import_library():
        return 2
    import reference
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    ops_fn, op_fn, min_passes = workloads.WORKLOADS[args.workload]
    ops = ops_fn(args.seed, reference)
    tracer = Tracer() if args.trace else None

    # Set-up is the import alone, timed before the first pass and after
    # every pass.  Calibration runs after every op, so its mean time
    # follows the machine's speed over the same stretch as the ops.
    imports, cal = [], []
    if tracer is None:
        imports = [time_import() for _ in range(IMPORTS_FIRST)]
        hooks = {
            "after_op": lambda: cal.extend(calibrate() for _ in range(CAL_SAMPLES)),
            "after_pass": lambda: imports.append(time_import()),
        }
    else:
        hooks = {}
    passes, lats, attempted, failed = run_passes(
        ops, op_fn, reference, workloads.BUDGET_S, min_passes, args.seconds, tracer, **hooks
    )
    tail_rank = max(0, len(ops) - 1 - TAIL_BEYOND)
    summary = (
        f"workload={args.workload} seed={args.seed} passes={len(passes)} ops={attempted} "
        f"failed={failed} error_rate={failed / attempted:.6f} "
        f"tail=p{100 * (tail_rank + 1) / len(ops):.1f} of {len(ops)} op latencies, "
        f"{len(ops) - 1 - tail_rank} beyond it"
    )

    if tracer is None:
        raw = op_latencies(lats[False])
        speed = statistics.mean(cal) / CAL_REF_S  # > 1 when the machine ran slow
        plain = sorted(x / speed for x in raw)
        values = {
            "setup_s": statistics.median(imports) / speed,
            "wall_s": sum(plain),
            "op_p50_s": plain[math.ceil(len(plain) / 2) - 1],
            "op_tail_s": plain[tail_rank],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        print(f"{summary} slowdown={speed:.4f} unscaled_wall_s={sum(raw):.4f}")
    else:
        print(summary)
        probes = run_probes(
            workloads.probe_types(args.workload, ops), args.seed,
            workloads.probe_inputs, workloads.PROBES,
        )
        values = layer_metrics(
            tracer, passes, lats, probes, workloads.pass_counts(args.workload, ops)
        )
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": v, "unit": unit_of(key)} for key, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
