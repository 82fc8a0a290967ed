"""Every public name the package defines is used by the program itself.

A public name that only the tests call is library API kept for its own
tests; this scan fails naming every such name, so each is deleted or made
private instead of drifting from the code paths that really run.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wordsteg"
# The program: the package, the benchmark harness and the tools.
PROGRAM = (PACKAGE, ROOT / "perfbench", ROOT / "tools")


def _trees(directory):
    for path in sorted(directory.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


def _used_names():
    """Every name the program reads, as a bare name, an attribute or an
    import, plus the functions pyproject.toml names as console scripts."""
    used = set()
    for directory in PROGRAM:
        for _, tree in _trees(directory):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.update(node.name.split("."))
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = pyproject.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    used.update(re.findall(r'^\S+\s*=\s*"[\w.]+:(\w+)"', scripts, re.M))
    return used


def _public_names(tree):
    """The public top-level functions, classes and constants of a module,
    and the public methods of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id


def test_every_public_name_is_used_outside_the_tests():
    used = _used_names()
    unused = [
        f"{path.relative_to(ROOT)}: {name}"
        for path, tree in _trees(PACKAGE)
        for name in _public_names(tree)
        if not name.startswith("_") and name not in used
    ]
    assert unused == [], "public names that only the tests use"
