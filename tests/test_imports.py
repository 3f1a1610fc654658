"""Every top-level import of a package or test module is used: the module
names it somewhere, or lists it in its ``__all__`` as a re-export.  Every
public name a package module imports from another is in that module's
``__all__``.  Every public definition of the package has a reader in the
package or the bench, or a listed reason to stay."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from flagloci import cascade, construct, deodhar, parabolic, poissonlab, polyalg

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "flagloci").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")
)


def declared_all(tree: ast.Module) -> set[str]:
    """The names a module's top-level ``__all__`` lists."""
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    return exported


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
    exported = declared_all(tree)
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


def test_package_imports_are_exported():
    # a public name one package module takes from another is part of that
    # module's interface, so its __all__ lists it
    package = ROOT / "src" / "flagloci"
    offences = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1 and node.module):
                continue
            exported = declared_all(ast.parse((package / f"{node.module}.py").read_text()))
            offences += [
                f"{path.name}:{node.lineno} imports {node.module}.{a.name}"
                for a in node.names
                if not a.name.startswith("_") and a.name not in exported
            ]
    assert offences == []


def test_private_names_stay_home():
    # only bruhat names its table's cache key, poissonlab imports from
    # polyalg only public names and the term-level kernel it shares,
    # construct takes from gcr only the membership test, never the pair
    # enumeration, and from rootsys neither pairing nor reflect (the descent
    # from theta is rootsys.simple_lowering); no module imports
    # cached_property, as every record is filled in its constructor
    allowed = set(polyalg.__all__) | {"_add_product"}
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


def test_cascade_reads_h_dual_off_theta():
    # verify_kostant takes each node's h-dual from its gamma, so cascade
    # classifies no support and imports no classifier
    tree = ast.parse((ROOT / "src" / "flagloci" / "cascade.py").read_text())
    names = {
        a.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for a in node.names
    }
    used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "classify_component" not in names | used


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


def store_only_constructors(source: str) -> list[str]:
    """The classes whose ``__init__``, apart from a docstring, only does
    ``self.p = p`` for two or more of its parameters p."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for fn in cls.body:
            if not (isinstance(fn, ast.FunctionDef) and fn.name == "__init__"):
                continue
            body = fn.body
            if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                body = body[1:]
            params = {a.arg for a in fn.args.args[1:]}
            stores = [
                s
                for s in body
                if isinstance(s, ast.Assign)
                and len(s.targets) == 1
                and isinstance(s.targets[0], ast.Attribute)
                and isinstance(s.targets[0].value, ast.Name)
                and s.targets[0].value.id == "self"
                and isinstance(s.value, ast.Name)
                and s.value.id == s.targets[0].attr in params
            ]
            if len(stores) == len(body) >= 2:
                found.append(cls.name)
    return found


def test_no_store_only_constructor():
    # a record that only stores its fields takes Record's constructor
    offences = []
    for path in sorted((ROOT / "src" / "flagloci").glob("*.py")):
        offences += [f"{path.name}: {name}" for name in store_only_constructors(path.read_text())]
    assert offences == []


def test_store_only_constructor_is_caught():
    source = """
class Pair:
    def __init__(self, a, b):
        '''Doc.'''
        self.a = a
        self.b = b

class One:
    def __init__(self, a):
        self.a = a

class Derived:
    def __init__(self, a, b):
        self.a = a
        self.b = b
        self.c = a + b
"""
    assert store_only_constructors(source) == ["Pair"]


def _reads(node: ast.AST) -> Counter:
    """How often each name is read under ``node``: as a ``Name``, as the
    attribute of an ``Attribute``, or as the last part of an import alias."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name.rsplit(".", 1)[-1]] += 1
    return found


def readerless_public_names(sources: dict[str, str], readers: list[str]) -> list[str]:
    """The public top-level defs and classes of ``sources`` (module name ->
    source), and the public methods of their classes, that neither
    ``sources`` outside the definition itself nor any of ``readers``
    reads, as ``module.name`` or ``module.Class.method``."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    for source in readers:
        reads += _reads(ast.parse(source))
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                defs += [
                    (f"{node.name}.{fn.name}", fn)
                    for fn in node.body
                    if isinstance(fn, ast.FunctionDef)
                ]
            for qualname, fn in defs:
                if not fn.name.startswith("_") and reads[fn.name] == _reads(fn)[fn.name]:
                    found.append(f"{module}.{qualname}")
    return found


# the public names that no module of the package nor the bench reads, each
# with the reason it stays: an oracle a test checks a pipeline against, a
# name the acceptance tests import, or a roadmap item's next caller
UNREAD_PUBLIC = {
    "cascade.descendants": "the public handle of _descendants",
    "deodhar.positive_subword": "ROADMAP item 1 is its next caller",
    "gcr.pair_encloses": "the oracle for GcrPoset.maximal_pairs",
    "parabolic.canonicalize_pair": (
        "the public handle of _canonical, which verify_classes_distinct relies on"
    ),
    "parabolic.is_min_rep": "the oracle for gcr_p",
    "poissonlab.PoissonMatrix.bracket": "imported by the acceptance tests",
    "poissonlab.partial_derivative": "imported by the acceptance tests",
    "poissonlab.variable_weight": (
        "the reference weights for the bracket test, and the grading of ROADMAP item 6"
    ),
    "poissonlab.vector_field": (
        "the oracle for poisson_matrix, and ROADMAP item 10's generic route"
    ),
    "polyalg.normal_form": "imported by the acceptance tests",
    "rootsys.reflect": "the oracle for weyl._reflection_perm",
    "weyl.WeylElement.sort_key": "the reference order for enumeration and intervals",
    "weyl.all_reduced_words": (
        "the oracle for the host-word independence of r_polynomial_deodhar"
    ),
}


def test_public_names_have_readers():
    # a public name stays only if the package or the bench reads it, or it
    # is listed above; an entry that is gone or now read fails too, so the
    # list stays exact
    package = ROOT / "src" / "flagloci"
    sources = {path.stem: path.read_text() for path in sorted(package.glob("*.py"))}
    readers = [path.read_text() for path in sorted((ROOT / "bench").glob("*.py"))]
    unread = set(readerless_public_names(sources, readers))
    assert sorted(unread - UNREAD_PUBLIC.keys()) == []
    assert sorted(UNREAD_PUBLIC.keys() - unread) == []


def test_readerless_public_name_is_caught():
    sources = {
        "m": """
def used():
    pass

def unused():
    used()

def recursive():
    return recursive()

class Kept:
    def method(self):
        return self.helper()

    def helper(self):
        pass

    def unread(self):
        pass

    def _private(self):
        pass
""",
        "n": "from .m import Kept\n",
    }
    readers = ["Kept().method()\n"]
    assert readerless_public_names(sources, readers) == [
        "m.unused",
        "m.recursive",
        "m.Kept.unread",
    ]
    assert readerless_public_names({"m": sources["m"]}, []) == [
        "m.unused",
        "m.recursive",
        "m.Kept",
        "m.Kept.method",
        "m.Kept.unread",
    ]


RECORDS = [
    cascade.CascadeNode,
    construct.Subsystem,
    construct.TopPair,
    deodhar.DistinguishedSubword,
    parabolic.PairClass,
    poissonlab.Chart,
    poissonlab.DegeneracyIdeal,
    polyalg.GroebnerBasis,
]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_takes_one_value_per_field(cls):
    fields = cls.__slots__
    for count in (len(fields) - 1, len(fields) + 1):
        with pytest.raises(TypeError, match=cls.__name__):
            cls(*range(count))
    with pytest.raises(TypeError):
        cls(**dict.fromkeys(fields))
    record = cls(*range(len(fields)))
    assert [getattr(record, name) for name in fields] == list(range(len(fields)))
    assert not hasattr(record, "__dict__")


def test_handlers_leave_verdicts_to_main():
    # a handler names its checks in Report.checks; only main turns them
    # into the traceability map and the exit code, and only main stamps
    # the payload's "type" from the root system it built
    offences = []
    for path in sorted((ROOT / "src" / "flagloci").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_")):
                continue
            offences += [
                f"{path.name}:{node.lineno} {fn.name} names {node.value!r}"
                for node in ast.walk(fn)
                if isinstance(node, ast.Constant)
                and node.value in ("traceability", "pass", "fail", "type")
            ]
    assert offences == []


def _fresh(code: str):
    """The value a fresh interpreter prints last for ``code``, with this
    checkout's package on its path."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def _loaded_by_import(modules: set[str]) -> list[str]:
    """Those of ``modules`` that importing the package and its CLI loads,
    in a fresh interpreter."""
    return _fresh(
        f"import sys, flagloci, flagloci.cli; print(sorted({modules!r} & set(sys.modules)))"
    )


def _loaded_by_cli(argv: list[str], modules: set[str]) -> tuple[int, list[str]]:
    """The exit code of one CLI run in a fresh interpreter, and those of
    ``modules`` loaded after it."""
    return _fresh(
        "import sys; from flagloci.cli import main; "
        f"code = main({argv!r}); print((code, sorted({modules!r} & set(sys.modules))))"
    )


def test_import_leaves_multiprocessing_unloaded():
    # only a scan on more than one process needs the process pool
    assert _loaded_by_import({"multiprocessing"}) == []


def test_import_leaves_dataclasses_and_inspect_unloaded():
    # the records are plain classes: a CLI process pays for neither module
    assert _loaded_by_import({"dataclasses", "inspect"}) == []


# the Weyl side is exact integer data, and text is the default output
WEYL_SIDE_UNUSED = {"fractions", "decimal", "numbers", "json", "csv"}


def test_import_leaves_fractions_json_and_csv_unloaded():
    assert _loaded_by_import(WEYL_SIDE_UNUSED) == []


@pytest.mark.parametrize(
    "argv", [["gcr", "enumerate", "A3"], ["construct", "top-pair", "E8"]], ids=" ".join
)
def test_weyl_side_cli_run_leaves_fractions_json_and_csv_unloaded(argv):
    assert _loaded_by_cli(argv, WEYL_SIDE_UNUSED) == (0, [])


def test_json_cli_run_loads_json():
    # the control: the guard above sees a module that a run does load
    argv = ["gcr", "enumerate", "A3", "--format", "json"]
    code, loaded = _loaded_by_cli(argv, WEYL_SIDE_UNUSED)
    assert code == 0 and "json" in loaded


# each a first use of the coefficient class in a fresh interpreter:
# (code that sets v, repr(v), whether fractions is loaded after it)
FIRST_USE = [
    # an integral quotient of two ints needs no Fraction
    ("from flagloci.polyalg import _div; v = _div(4, 2)", "2", False),
    ("from flagloci.polyalg import _div; v = _div(1, 2)", "Fraction(1, 2)", True),
    (
        "from flagloci.polyalg import PolyRing, parse_polynomial; "
        "v = list(parse_polynomial(PolyRing(('x',)), '1/2*x').terms.values())",
        "[Fraction(1, 2)]",
        True,
    ),
    (
        "from fractions import Fraction; from flagloci.polyalg import PolyRing; "
        "v = PolyRing(('x',)).const(Fraction(3, 1)).terms",
        "{(0,): 3}",
        True,
    ),
    (
        "from fractions import Fraction; "
        "from flagloci.rootsys import build_root_system, reflect; "
        "v = reflect(build_root_system('B2'), (1, 0), (Fraction(1, 2), 0))",
        "(Fraction(-1, 2), Fraction(0, 1))",
        True,
    ),
]


@pytest.mark.parametrize(
    "code, want, loads_fractions",
    FIRST_USE,
    ids=["div_integral", "div_fraction", "parse_fraction", "const_integral", "reflect_fraction"],
)
def test_exact_coefficients_on_first_use(code, want, loads_fractions):
    got = _fresh(f"import sys; {code}; print((repr(v), 'fractions' in sys.modules))")
    assert got == (want, loads_fractions)
