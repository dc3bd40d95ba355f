"""Every top-level function, class and method of ``src/berglab`` is named
somewhere else in the package or under ``perfbench/``, no call in it
imports ``numpy.ma`` as a side effect, no pipeline path imports
``numpy.polynomial``, no invariant in it is an ``assert``, and no dataclass
field in it defaults to a None that its annotation does not admit or to a
value that every caller overrides.

A definition that only the tests call is not library code: a multi-step
check of the paper's claims belongs in ``tests/claim_checks.py``, and a
wrapper of one public call is written out where it is used.  The scan is by
name, so a definition whose name some other code also uses passes even when
nothing calls it."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "berglab"

IDENTIFIER = re.compile(r"[A-Za-z_]\w*\Z")


def names_used(node: ast.AST) -> Counter:
    """Every name, attribute and identifier-shaped string in ``node``; the
    strings count because ``getattr`` finds methods such as
    ``ScaleFunction.h1`` by the family name.  Import statements bind names
    but use none."""
    used = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            used[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and IDENTIFIER.match(sub.value):
            used[sub.value] += 1
    return used


def definitions(tree: ast.Module):
    """(qualified name, name, node) of each top-level function and class and
    of each method of a top-level class; dunder methods are called by Python
    itself and are left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and not re.fullmatch(r"__\w+__", method.name):
                    yield f"{node.name}.{method.name}", method.name, method


def unused_definitions(package: Path, bench: Path) -> list[str]:
    """The definitions of ``package`` (``__init__.py``, which only
    re-exports, aside) whose name occurs nowhere in the package outside the
    definition itself and in no word of a Python file under ``bench``."""
    modules = {path: ast.parse(path.read_text()) for path in sorted(package.glob("*.py")) if path.name != "__init__.py"}
    used = sum((names_used(tree) for tree in modules.values()), Counter())
    bench_words = set(re.findall(r"\w+", " ".join(path.read_text() for path in sorted(bench.rglob("*.py")))))
    return [
        f"{path.stem}.{qualified}"
        for path, tree in modules.items()
        for qualified, name, node in definitions(tree)
        if used[name] == names_used(node)[name] and name not in bench_words
    ]


def test_every_definition_is_used_outside_the_tests():
    assert unused_definitions(PACKAGE, ROOT / "perfbench") == []


#: the keywords that keep ``np.unique`` off its plain path
UNIQUE_RETURNS = {"return_index", "return_inverse", "return_counts"}


def numpy_ma_triggers(package: Path) -> list[str]:
    """``file:line`` of each ``np.unique`` call in ``package`` that asks for
    none of ``UNIQUE_RETURNS`` and of each ``np.median`` call: numpy 2.4
    reaches ``np.ma`` from both, and the first such call in a process
    imports ``numpy.ma`` (10-20 ms and 1.2 MB of resident memory)."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "np"
            ):
                continue
            returns = {kw.arg for kw in node.keywords} & UNIQUE_RETURNS
            if node.func.attr == "median" or (node.func.attr == "unique" and not returns):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_call_imports_numpy_ma():
    assert numpy_ma_triggers(PACKAGE) == [], (
        "np.median and a plain np.unique import numpy.ma on first use: "
        "sort as asymptotics._median does, or pass return_index=True"
    )


def numpy_polynomial_uses(package: Path) -> list[str]:
    """``file:line`` of each ``np.polynomial`` attribute in ``package`` and of
    each module-level import from ``numpy.polynomial``: either imports that
    package (about 3 ms) in every process that loads the module or takes the
    path.  An import inside a function that no pipeline calls is allowed."""
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "polynomial"
                and isinstance(node.value, ast.Name)
                and node.value.id == "np"
            ):
                found.append(f"{path.name}:{node.lineno}")
        for node in tree.body:
            names = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            if any(name.startswith("numpy.polynomial") for name in names):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_pipeline_path_imports_numpy_polynomial():
    assert numpy_polynomial_uses(PACKAGE) == [], (
        "np.polynomial imports numpy.polynomial on first use: write the "
        "coefficient arithmetic out, or import inside a function no pipeline calls"
    )


def test_no_assert_in_the_package():
    # invariants are explicit errors: ``python -O`` strips an assert, and
    # AssertionError is no BerglabError, so the CLI would exit 1 with a traceback
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], "raise a BerglabError subclass instead of asserting"


def is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        isinstance(d, ast.Name) and d.id == "dataclass"
        or isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass"
        for d in node.decorator_list
    )


def defaults_to_none(value: ast.expr | None) -> bool:
    """``= None`` or ``= field(default=None)``; a bare annotation has no value."""
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name) and value.func.id == "field":
        value = next((kw.value for kw in value.keywords if kw.arg == "default"), None)
    return isinstance(value, ast.Constant) and value.value is None


def none_placeholder_fields(package: Path) -> list[str]:
    """``file class.field`` of each dataclass field in ``package`` that
    defaults to None while its annotation admits no None: a placeholder that
    lets a half-built object through where a missing argument should be a
    TypeError."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.ClassDef) and is_dataclass(node)):
                continue
            for stmt in node.body:
                if not (isinstance(stmt, ast.AnnAssign) and defaults_to_none(stmt.value)):
                    continue
                annotation = ast.unparse(stmt.annotation)
                if not re.search(r"\bOptional\[|\|\s*None\b|\bNone\s*\|", annotation):
                    found.append(f"{path.name} {node.name}.{stmt.target.id}")
    return found


def test_no_dataclass_field_defaults_to_an_untyped_none():
    assert none_placeholder_fields(PACKAGE) == [], (
        "annotate the field Optional[...] or drop the placeholder default"
    )


def calls_of(name: str, trees: list[ast.Module], own: ast.ClassDef) -> list[ast.Call]:
    """Every call of the class ``name``, as ``name(...)``, ``module.name(...)``
    or ``cls(...)`` inside a method of ``own``, the class itself."""
    found = [
        node
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (isinstance(node.func, ast.Name) and node.func.id == name
             or isinstance(node.func, ast.Attribute) and node.func.attr == name)
    ]
    for method in own.body:
        if isinstance(method, ast.FunctionDef):
            found += [
                node for node in ast.walk(method)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "cls"
            ]
    return found


def overridden_defaults(package: Path, callers: list[Path]) -> list[str]:
    """``file class.field`` of each defaulted field that the body of a
    ``package`` dataclass declares and that every call of the class under
    ``callers`` passes, by keyword or by position: a placeholder no caller
    relies on, which lets a half-built object through where a missing
    argument should be a TypeError.  A class nobody calls is left out, and
    positions count only in a keyword-capable class without base classes."""
    trees = [ast.parse(path.read_text()) for root in callers for path in sorted(root.rglob("*.py"))]
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.ClassDef) and is_dataclass(node)):
                continue
            positional = not node.bases and "kw_only=True" not in "".join(map(ast.unparse, node.decorator_list))
            calls = calls_of(node.name, trees, node)
            fields = [stmt for stmt in node.body if isinstance(stmt, ast.AnnAssign)]
            for position, stmt in enumerate(fields):
                field = stmt.target.id
                if stmt.value is not None and calls and all(
                    any(kw.arg == field for kw in call.keywords) or positional and position < len(call.args)
                    for call in calls
                ):
                    found.append(f"{path.name} {node.name}.{field}")
    return found


def test_no_dataclass_default_that_every_call_overrides():
    assert overridden_defaults(PACKAGE, [PACKAGE, ROOT / "tests", ROOT / "perfbench"]) == [], (
        "every caller passes these fields: drop the default so that a missing one is a TypeError"
    )
