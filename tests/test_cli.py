"""Command-line interface: exit codes, output formats, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from flagloci import cli
from flagloci.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def test_enumerate_ok(capsys):
    code, data = run_json(capsys, "gcr", "enumerate", "A2")
    assert code == 0
    assert data["count"] == 14
    assert data["by_dimension"] == {"0": 6, "1": 8}
    assert data["pairs"][0] == {"d": 0, "v": "123", "w": "123"}


def test_bad_type_exits_1(capsys):
    assert main(["gcr", "enumerate", "Z9"]) == 1
    capsys.readouterr()


def test_unknown_command_exits_1(capsys):
    assert main(["bogus"]) == 1
    capsys.readouterr()


def test_cap_exceeded_exits_2(capsys):
    code, _ = run(capsys, "gcr", "enumerate", "E8", "--cap", "100")
    assert code == 2


def test_check_requires_pair(capsys):
    assert main(["gcr", "check", "A3"]) == 1
    capsys.readouterr()


def test_check_gcr_pair(capsys):
    code, data = run_json(capsys, "gcr", "check", "A3", "--v", "1234", "--w", "2143")
    assert code == 0
    assert data["gcr"] is True
    assert data["d"] == 2
    assert data["conditions"] == {"involution": True, "kernel": True, "subword": True}
    assert data["traceability"] == {"equivalent-characterizations": "pass"}


def test_check_non_gcr_pair_exits_3(capsys):
    code, data = run_json(capsys, "gcr", "check", "A3", "--v", "2134", "--w", "1324")
    assert code == 3
    assert data["gcr"] is False


def test_word_element_syntax(capsys):
    code, data = run_json(capsys, "gcr", "check", "B2", "--v", "2", "--w", "1.2.1")
    assert code == 0
    assert data["gcr"] is True
    assert data["d"] == 2


def test_identity_alias(capsys):
    code, data = run_json(capsys, "gcr", "check", "B2", "--v", "e", "--w", "1")
    assert code == 0
    assert data["d"] == 1


def test_determinism(capsys):
    a = run(capsys, "gcr", "enumerate", "A3", "--format", "json")
    b = run(capsys, "gcr", "enumerate", "A3", "--format", "json")
    assert a == b
    c = run(capsys, "rpoly", "B3", "--sample", "20", "--seed", "7", "--format", "json")
    d = run(capsys, "rpoly", "B3", "--sample", "20", "--seed", "7", "--format", "json")
    assert c == d


def test_seed_changes_sample(capsys):
    _, a = run_json(capsys, "rpoly", "B3", "--sample", "5", "--seed", "1")
    _, b = run_json(capsys, "rpoly", "B3", "--sample", "5", "--seed", "2")
    assert a != b
    assert a["all_agree"] and b["all_agree"]


def test_rpoly_single_pair(capsys):
    code, data = run_json(capsys, "rpoly", "A2", "--v", "e", "--w", "1.2.1")
    assert code == 0
    pair = data["pairs"][0]
    assert pair["agree"] is True
    assert pair["coeffs"] == [-1, 2, -2, 1]
    assert pair["pretty"] == "q^3 - 2*q^2 + 2*q - 1"
    assert data["traceability"] == {"rpolynomial-two-routes": "pass"}


def test_cascade_text_format(capsys):
    code, out = run(capsys, "cascade", "G2", "--format", "text")
    assert code == 0
    assert "(3,2)" in out
    assert "verified=True" in out


def test_cascade_csv_format(capsys):
    code, out = run(capsys, "cascade", "B3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "root,height,support,e_size,pairs"
    assert len(lines) == 4


def test_parabolic_command(capsys):
    code, data = run_json(capsys, "parabolic", "A3", "--parabolic", "1,3")
    assert code == 0
    assert data["J"] == [1, 3]
    assert data["count"] == 20
    assert data["traceability"] == {
        "parabolic-classes-distinct": "pass",
        "parabolic-powerset-interval": "pass",
    }


def test_bad_parabolic_exits_1(capsys):
    # an empty or non-integer entry is bad input, never a silent J
    for text in (",", "1,,3", "x"):
        assert main(["parabolic", "A3", "--parabolic", text]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot parse --parabolic {text!r}\n"


def test_repeated_parabolic_index_exits_1(capsys):
    # a repeated index is bad input, never echoed in J
    assert main(["parabolic", "A3", "--parabolic", "2,1,2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: repeated simple index 2 in --parabolic '2,1,2'\n"


def test_construct_command(capsys):
    code, data = run_json(capsys, "construct", "top-pair", "F4")
    assert code == 0
    assert data["d"] == 4
    assert data["l_w"] - data["l_v"] == 4
    assert data["traceability"] == {"top-pair-invariants": "pass"}


def test_poisson_matrix(capsys):
    code, data = run_json(capsys, "poisson", "matrix", "A2")
    assert code == 0
    entries = {(e["a"], e["b"]): e["bracket"] for e in data["entries"]}
    assert entries[("x32", "x21")] == "x21*x32 - 2*x31"
    assert "d31^d21" in data["bivector"]


def test_poisson_ideal(capsys):
    code, data = run_json(capsys, "poisson", "ideal", "A2")
    assert code == 0
    assert data["witness"] == "x31"
    assert data["generators"] == ["-x21*x31", "x21*x32 - 2*x31", "-x31*x32"]
    assert data["traceability"] == {"sl3-primary-decomposition": "pass"}


def test_poisson_cell_flag(capsys):
    code, data = run_json(capsys, "poisson", "ideal", "A2", "--cell", "132")
    assert code == 0
    assert data["cell"] == "132"
    assert data["witness"] is None


def test_bad_cell_exits_1(capsys):
    # an empty or non-digit entry is bad input, named as a permutation
    for text in ("1a3", "1,2,,3"):
        assert main(["poisson", "matrix", "A2", "--cell", text]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot parse permutation {text!r}\n"


def test_poisson_scan(capsys):
    code, data = run_json(capsys, "poisson", "scan", "A2")
    assert code == 0
    assert data["witness_charts"] == ["123", "321"]
    assert len(data["charts"]) == 6


def test_poisson_scan_has_one_budget(capsys):
    # 0.05 s cannot cover the 120 SL5 charts, although each one fits
    code, data = run_json(capsys, "poisson", "scan", "A4", "--timeout-secs", "0.05")
    assert code == 2
    flags = [c["timeout"] for c in data["charts"]]
    first = flags.index(True)
    # once the budget is spent, no later chart gets any of it
    assert all(flags[first:])
    code, data = run_json(
        capsys, "poisson", "scan", "A4", "--timeout-secs", "0.05", "--workers", "2"
    )
    assert code == 2
    assert any(c["timeout"] for c in data["charts"])


def test_poisson_scan_default_budget_output_is_frozen(capsys):
    # SHA-256 of the text report, computed when each chart had its own budget
    code, out = run(capsys, "poisson", "scan", "A4")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "312f3d6251f792948116e65d682b4b5f2418ce9155bd870b7e7ef4ad2ba10ef2"
    )


def test_poisson_scan_timeout_exits_2(capsys, monkeypatch):
    def fake_scan(n, timeout_secs, workers):
        charts = [
            {"v": "123", "witness": "x31", "generators": 3, "timeout": False},
            {"v": "132", "witness": None, "generators": 0, "timeout": True},
        ]
        return {"n": n, "charts": charts, "witness_charts": ["123"]}

    monkeypatch.setattr(cli, "scan_cells", fake_scan)
    code, out = run(capsys, "poisson", "scan", "A2")
    assert code == 2
    assert out.splitlines() == [
        "scan A2: witnesses on 1 charts",
        "  123: witness=x31 generators=3",
        "  132: witness=None generators=0 TIMEOUT",
    ]


def test_poisson_rejects_non_type_a(capsys):
    assert main(["poisson", "matrix", "B2"]) == 1
    capsys.readouterr()


def test_graph_dot(capsys):
    code, out = run(capsys, "graph", "A2")
    assert code == 0
    assert out.startswith("digraph")
    assert "->" in out


def test_csv_pairs(capsys):
    code, out = run(capsys, "gcr", "enumerate", "A2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "v,w,d"
    assert len(lines) == 15


def test_comma_separated_permutation(capsys):
    ident = ",".join(str(k) for k in range(1, 11))
    code, data = run_json(capsys, "gcr", "check", "A9", "--v", ident, "--w", ident)
    assert code == 0
    assert data["gcr"] is True
    assert data["d"] == 0
    _, digits = run_json(capsys, "gcr", "check", "A3", "--v", "1234", "--w", "2143")
    _, commas = run_json(capsys, "gcr", "check", "A3", "--v", "1,2,3,4", "--w", "2,1,4,3")
    assert commas == digits


def test_a9_names_read_back(capsys):
    v = "1,2,3,4,5,6,7,8,9,10"
    w = "2,1,3,4,5,6,7,8,10,9"
    code, first = run_json(capsys, "gcr", "check", "A9", "--v", v, "--w", w)
    assert code == 0
    assert (first["v"], first["w"]) == (v, w)
    again = run_json(capsys, "gcr", "check", "A9", "--v", first["v"], "--w", first["w"])
    assert again == (code, first)
    # up to A8 the entries still run together
    _, a8 = run_json(capsys, "gcr", "check", "A8", "--v", "1,2,3,4,5,6,7,8,9", "--w", "213456789")
    assert (a8["v"], a8["w"]) == ("123456789", "213456789")


def test_bad_comma_permutation_exits_1(capsys):
    assert main(["gcr", "check", "A3", "--v", "1,2,x,4", "--w", "2143"]) == 1
    assert main(["gcr", "check", "A3", "--v", "1,2,2,4", "--w", "2143"]) == 1
    capsys.readouterr()


def test_workers_below_one_exits_1(capsys):
    assert main(["poisson", "scan", "A2", "--workers", "0"]) == 1
    assert main(["poisson", "ideal", "A2", "--workers", "-3"]) == 1
    assert "must be at least 1, got -3" in capsys.readouterr().err


def test_seed_and_workers_belong_to_one_subcommand(capsys):
    # only rpoly reads --seed and only poisson reads --workers; every other
    # subcommand rejects them instead of ignoring them
    others = [
        ["gcr", "enumerate", "A2"],
        ["cascade", "A2"],
        ["parabolic", "A2"],
        ["construct", "top-pair", "A2"],
        ["graph", "A2"],
    ]
    for argv in others + [["poisson", "matrix", "A2"]]:
        assert main(argv + ["--seed", "1"]) == 1
    for argv in others + [["rpoly", "A2"]]:
        assert main(argv + ["--workers", "2"]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert main(["rpoly", "A2", "--sample", "2", "--seed", "1"]) == 0
    assert main(["poisson", "matrix", "A2", "--workers", "2"]) == 0
    capsys.readouterr()


def test_bad_budget_exits_1(capsys):
    # a NaN or negative timeout and a negative cap are bad input, refused
    # before any work: never a run with no deadline, nor a budget overrun
    for argv, message in (
        (["poisson", "ideal", "A2", "--timeout-secs", "nan"], "got nan"),
        (["poisson", "ideal", "A2", "--timeout-secs", "-1"], "got -1.0"),
        (["gcr", "enumerate", "A3", "--cap", "-1"], "got -1"),
    ):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"must be at least 0, {message}" in captured.err


def test_negative_sample_exits_1(capsys):
    # a negative sample size is bad input, not a report over no pairs
    assert main(["rpoly", "A2", "--sample", "-3"]) == 1
    assert "agreement" not in capsys.readouterr().out


def test_sample_refuses_a_given_pair(capsys):
    # --sample draws its own pairs: a pair given with it is refused, not ignored
    for extra in (["--v", "123"], ["--w", "213"], ["--v", "123", "--w", "213"]):
        assert main(["rpoly", "A2", "--sample", "2", *extra]) == 1, extra
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--v and --w do not apply with --sample" in captured.err


def test_enumerate_refuses_a_given_pair(capsys):
    # enumerate sweeps the whole group: a pair given with it is refused, not ignored
    assert main(["gcr", "enumerate", "A2", "--v", "123", "--w", "321"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--v and --w do not apply to enumerate" in captured.err


def test_components_refuses_a_given_pair(capsys):
    # components sweeps the whole group: a pair given with it is refused, not ignored
    assert main(["gcr", "components", "A2", "--v", "123"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--v and --w do not apply to components" in captured.err


def test_seed_without_sample_is_refused(capsys):
    # --seed seeds only --sample's draws: given for one pair it is refused, not ignored
    assert main(["rpoly", "A2", "--v", "e", "--w", "1.2.1", "--seed", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--seed applies only with --sample" in captured.err


def test_scan_refuses_a_cell(capsys):
    # a scan runs every chart: a --cell given with it is refused, not ignored
    assert main(["poisson", "scan", "A2", "--cell", "132"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--cell does not apply to scan" in captured.err


def test_powerset_builds_its_table_under_cap(capsys):
    # |A1xA6| = 10080: the table behind the interval is built under --cap
    code, out = run(capsys, "gcr", "powerset", "A1xA6", "--v", "e", "--w", "1")
    assert (code, out) == (0, "[e, 1] boolean of rank 1: True\n")
    argv = ["gcr", "powerset", "A1xA6", "--v", "e", "--w", "1", "--cap", "10000"]
    assert main(argv) == 2
    assert "group order 10080 exceeds enumeration cap 10000" in capsys.readouterr().err


def test_closed_pipe_is_quiet():
    # a reader that stops after one byte gets no traceback on stderr
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    argv = ["gcr", "enumerate", "B4", "--format", "json"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "flagloci.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0
    assert err == b""


def _raise_kostant(rs, casc):
    raise cli.KostantCheckError("product of cascade reflections is not the longest element")


# (argv, the check the CLI imports, a failing stand-in, expected traceability)
FAIL_PATHS = [
    (
        ["gcr", "powerset", "A3", "--v", "1324", "--w", "3142"],
        "verify_powerset_interval",
        lambda pair: False,
        {"powerset-interval": "fail"},
    ),
    (
        ["cascade", "B3"],
        "verify_kostant",
        _raise_kostant,
        {"kostant-cascade-identities": "fail"},
    ),
    (
        ["rpoly", "A2", "--v", "e", "--w", "1.2.1"],
        "r_polynomial_recurrence",
        lambda v, w: None,
        {"rpolynomial-two-routes": "fail"},
    ),
    (
        ["parabolic", "A3", "--parabolic", "1,3"],
        "verify_p_interval",
        lambda pair, J: False,
        {"parabolic-powerset-interval": "fail", "parabolic-classes-distinct": "pass"},
    ),
    (
        ["parabolic", "A3", "--parabolic", "1,3"],
        "verify_classes_distinct",
        lambda pair, J: False,
        {"parabolic-powerset-interval": "pass", "parabolic-classes-distinct": "fail"},
    ),
    (
        ["poisson", "ideal", "A2"],
        "verify_sl3_decomposition",
        lambda timeout_secs: False,
        {"sl3-primary-decomposition": "fail"},
    ),
]


@pytest.mark.parametrize(
    "argv, name, fake, traceability", FAIL_PATHS, ids=[case[1] for case in FAIL_PATHS]
)
def test_failed_check_exits_3_and_is_named(capsys, monkeypatch, argv, name, fake, traceability):
    # a verification that does not hold is named "fail" and sets exit 3
    monkeypatch.setattr(cli, name, fake)
    code, data = run_json(capsys, *argv)
    assert code == 3
    assert data["traceability"] == traceability


def test_sl3_check_spends_the_same_budget(capsys, monkeypatch):
    # the SL3 check gets what the witness search left of --timeout-secs,
    # not a fresh budget of its own
    def slow_witness(chart, timeout_secs, di):
        time.sleep(0.15)
        return "x31"

    monkeypatch.setattr(cli, "nonreduced_witness", slow_witness)
    code, _ = run(capsys, "poisson", "ideal", "A2", "--timeout-secs", "0.1")
    assert code == 2
