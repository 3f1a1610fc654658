"""Command-line interface: exit codes, output formats, determinism."""

import json

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


def test_poisson_scan(capsys):
    code, data = run_json(capsys, "poisson", "scan", "A2")
    assert code == 0
    assert data["witness_charts"] == ["123", "321"]
    assert len(data["charts"]) == 6


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
    assert main(["gcr", "enumerate", "A2", "--workers", "-3"]) == 1
    capsys.readouterr()
