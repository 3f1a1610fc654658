"""Byte-identical CLI contract: every command in ``tests/data/cli_golden.txt``
is replayed in process through ``cli.main`` and must reproduce its recorded
exit code, stdout and stderr exactly.

The file is the gate for refactors that must not change any output.  To
record it afresh (only when an output change is intended), run
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import contextlib
import io
from pathlib import Path

import pytest

from flagloci.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.txt"

COMMANDS = [
    "gcr enumerate A2",
    "gcr enumerate A3 --format json",
    "gcr enumerate B2 --format csv",
    "gcr enumerate B3",
    "gcr enumerate G2xA1 --format json",
    "gcr components A2 --format csv",
    "gcr components A3",
    "gcr components B2 --format json",
    "gcr components B3 --format csv",
    "gcr components G2xA1",
    "gcr check A3 --v 1234 --w 2143 --format json",
    "gcr check A2 --v 213 --w 132",
    "gcr check B3 --v 2.3.2 --w 1.2.3.2.1.3 --format json",
    "gcr check G2xA1 --v 2 --w 1.3.2 --format csv",
    "gcr powerset A3 --v 1324 --w 3142",
    "gcr powerset B2 --v e --w 1 --format json",
    "gcr powerset B3 --v 1.2.1 --w 3.2.1.3.2.3 --format json",
    "gcr powerset G2xA1 --v 2 --w 1.3.2",
    "cascade E6 --format json",
    "cascade F4",
    "rpoly B3 --sample 20 --format json",
    "parabolic A3 --parabolic 1,2 --format json",
    "construct top-pair E8 --format json",
    "graph A3",
    "poisson matrix A2 --format json",
    "poisson ideal A3 --cell 1423",
    "gcr check A8 --v 1,2,3,4,5,6,7,8,9 --w 213456789 --format json",
    "gcr check A9 --v 1,2,3,4,5,6,7,8,9,10 --w 2,1,3,4,5,6,7,8,10,9",
    "gcr enumerate E8 --cap 100",
    "gcr check A3 --v 1,2,x,4 --w 2143",
    "gcr check B2 --v 3 --w 1.2",
    "construct top-pair B4xC3xD5 --format json",
]


def record(command: str, code: int, out: str, err: str) -> str:
    return f"=== {command}\nexit {code}\n--- stdout\n{out}--- stderr\n{err}"


def read_golden() -> dict[str, str]:
    records: dict[str, str] = {}
    for chunk in GOLDEN.read_text().split("=== ")[1:]:
        records[chunk.split("\n", 1)[0]] = "=== " + chunk
    return records


def test_golden_lists_every_command():
    assert list(read_golden()) == COMMANDS


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_output_matches_golden(capsys, command):
    code = main(command.split())
    captured = capsys.readouterr()
    assert record(command, code, captured.out, captured.err) == read_golden()[command]


if __name__ == "__main__":
    chunks = []
    for command in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(command.split())
        chunks.append(record(command, code, out.getvalue(), err.getvalue()))
    GOLDEN.write_text("".join(chunks))
