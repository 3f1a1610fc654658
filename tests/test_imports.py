"""Every top-level import of a package or test module is used: the module
names it somewhere, or lists it in its ``__all__`` as a re-export."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from flagloci import polyalg

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "flagloci").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    return [
        f"line {line}: {name}"
        for name, line in imported.items()
        if name not in used and name not in exported
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_caught():
    assert unused_imports("import os\nfrom a import b, c as d\nprint(b)\n") == [
        "line 1: os",
        "line 2: d",
    ]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []


def test_private_names_stay_home():
    # only bruhat names its table's cache key, poissonlab imports from
    # polyalg only public names and the three term-level helpers it shares,
    # construct takes from gcr only the membership test, never the pair
    # enumeration, and from rootsys neither pairing nor reflect (the descent
    # from theta is rootsys.simple_lowering); no module imports
    # cached_property, as every record is filled in its constructor
    allowed = set(polyalg.__all__) | {"_add_product", "_coef", "_div"}
    offences = []
    for path in sorted((ROOT / "src" / "flagloci").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                path.name != "bruhat.py"
                and isinstance(node, ast.Constant)
                and node.value == "bruhat_table"
            ):
                offences.append(f"{path.name}:{node.lineno} names the table key")
            if (
                path.name == "poissonlab.py"
                and isinstance(node, ast.ImportFrom)
                and node.level == 1
                and node.module == "polyalg"
            ):
                offences += [
                    f"{path.name}:{node.lineno} imports polyalg.{a.name}"
                    for a in node.names
                    if a.name not in allowed
                ]
            if path.name == "construct.py" and isinstance(
                node, (ast.Import, ast.ImportFrom)
            ):
                # "gcr.is_gcr_cond3" for "from .gcr import is_gcr_cond3",
                # "gcr" for "from . import gcr"
                module = getattr(node, "module", None) or ""
                for a in node.names:
                    parts = f"{module}.{a.name}".strip(".").split(".")
                    if "gcr" in parts and parts[-1] != "is_gcr_cond3":
                        offences.append(f"{path.name}:{node.lineno} imports {'.'.join(parts)}")
                    if "rootsys" in parts and parts[-1] in ("pairing", "reflect"):
                        offences.append(f"{path.name}:{node.lineno} imports {'.'.join(parts)}")
            # "from functools import cached_property" or "functools.cached_property"
            if (
                isinstance(node, ast.ImportFrom)
                and any(a.name == "cached_property" for a in node.names)
            ) or (isinstance(node, ast.Attribute) and node.attr == "cached_property"):
                offences.append(f"{path.name}:{node.lineno} uses cached_property")
    assert offences == []


def test_one_way_to_build_and_one_covering_list():
    # every GcrPair goes through its own constructor, so src/ fills no
    # object behind __init__'s back; the Bruhat table stores its covers in
    # one direction only, so no module reads a transpose
    offences = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Attribute):
                continue
            if node.attr == "covers_up":
                offences.append(f"{path.name}:{node.lineno} reads covers_up")
            if (
                path.parent.name == "flagloci"
                and node.attr == "__new__"
                and isinstance(node.value, ast.Name)
                and node.value.id == "object"
            ):
                offences.append(f"{path.name}:{node.lineno} calls object.__new__")
    assert offences == []


def test_handlers_leave_verdicts_to_main():
    # a handler names its checks in Report.checks; only main turns them
    # into the traceability map and the exit code
    offences = []
    for path in sorted((ROOT / "src" / "flagloci").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_")):
                continue
            offences += [
                f"{path.name}:{node.lineno} {fn.name} names {node.value!r}"
                for node in ast.walk(fn)
                if isinstance(node, ast.Constant) and node.value in ("traceability", "pass", "fail")
            ]
    assert offences == []


def _loaded_by_import(modules: set[str]) -> list[str]:
    """Those of ``modules`` that importing the package and its CLI loads,
    in a fresh interpreter."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = f"import sys, flagloci, flagloci.cli; print(sorted({modules!r} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return ast.literal_eval(proc.stdout)


def test_import_leaves_multiprocessing_unloaded():
    # only a scan on more than one process needs the process pool
    assert _loaded_by_import({"multiprocessing"}) == []


def test_import_leaves_dataclasses_and_inspect_unloaded():
    # the records are plain classes: a CLI process pays for neither module
    assert _loaded_by_import({"dataclasses", "inspect"}) == []
