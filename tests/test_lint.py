"""Every top-level function, class and method of ``src/berglab`` is named
somewhere else in the package or under ``perfbench/``, and no call in it
imports ``numpy.ma`` as a side effect.

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
