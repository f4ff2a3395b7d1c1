"""Every name `src/hvforecast` defines is used by the program or its
benchmark: code that only tests call belongs in the tests."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hvforecast"

# Names kept although only tests call them, each with its reason.
ALLOWED = {
    # the engine's finite-difference verifier: the check every hand-written
    # backward is held to, shipped with the engine it verifies
    "numerics.gradient_check",
}


def used_names(tree) -> Counter:
    """Identifiers read as a bare name or as an attribute."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
    return names


def definitions(tree):
    """Top-level functions and classes, and public methods of those
    classes, as (qualified name, bare name, node)."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item


def test_every_definition_is_referenced_outside_itself():
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sources}
    total = Counter()
    for tree in trees.values():
        total += used_names(tree)
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualified, name, node in definitions(trees[path]):
            key = f"{path.stem}.{qualified}"
            if key not in ALLOWED and total[name] - used_names(node)[name] < 1:
                unused.append(key)
    assert not unused, f"defined in src/ but used by neither src/ nor perfbench/: {unused}"
