"""Every Python file of the project parses with the grammar of Python 3.10,
the oldest version pyproject.toml accepts, whatever version runs the tests;
so newer syntax (except*, type parameters, type statements) fails here and
not only on a 3.10 runner."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
OLDEST = (3, 10)
SOURCES = sorted(
    path for directory in ("src", "tests", "tools", "perfbench")
    for path in (ROOT / directory).rglob("*.py")
)


def test_the_sources_are_found():
    assert ROOT / "src" / "wordsteg" / "corpus.py" in SOURCES
    assert ROOT / "perfbench" / "run.py" in SOURCES


@pytest.mark.parametrize(
    "source",
    ["try:\n    pass\nexcept* ValueError:\n    pass\n", "def first[T](items: list[T]) -> T: ...\n"],
    ids=["except-star", "type-parameters"],
)
def test_newer_syntax_fails_the_check(source):
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=OLDEST)


def test_every_source_parses_as_the_oldest_python():
    failed = []
    for path in SOURCES:
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=OLDEST)
        except SyntaxError as exc:
            failed.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert failed == []
