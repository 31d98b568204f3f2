"""Every backquoted `module.name` or `_private` name in the package's
docstrings and comments, and in README.md, names an attribute that
exists, so that moving or renaming code cannot leave a stale pointer.

A dotted name counts when its first part is a module of the package (or
`l0l1` itself); other dotted names, such as `np.linalg.lstsq`, are not
the package's.  A `_private` name resolves in the module whose text holds
it; in README.md, in any module of the package.
"""

import ast
import importlib
import io
import pathlib
import re
import tokenize

import pytest

import l0l1

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "l0l1").glob("*.py"))
MODULES = {
    path.stem: importlib.import_module(f"l0l1.{path.stem}")
    for path in SOURCES
    if path.stem != "__init__"
}
NAME = re.compile(r"`([A-Za-z_]\w*(?:\.\w+)*)`")


def prose(path: pathlib.Path) -> str:
    """The docstrings and comments of a source file."""
    source = path.read_text()
    docs = [
        ast.get_docstring(node, clean=False) or ""
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
    ]
    comments = [
        tok.string
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    ]
    return "\n".join(docs + comments)


def has(obj, parts) -> bool:
    for part in parts:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def stale(text: str, homes: list) -> list[str]:
    """The package names in `text` that resolve to no attribute; private
    names are looked up in `homes`."""
    missing = []
    for name in sorted(set(NAME.findall(text))):
        head, *rest = name.split(".")
        if rest and head == "l0l1":
            found = has(l0l1, rest)
        elif rest and head in MODULES:
            found = has(MODULES[head], rest)
        elif not rest and head.startswith("_"):
            found = any(hasattr(home, head) for home in homes)
        else:
            continue
        if not found:
            missing.append(name)
    return missing


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_names_resolve(path):
    home = l0l1 if path.stem == "__init__" else MODULES[path.stem]
    assert stale(prose(path), [home]) == []


def test_readme_names_resolve():
    assert stale((ROOT / "README.md").read_text(), list(MODULES.values())) == []


def test_a_stale_name_is_caught():
    text = "`pursuit._pursue`, `numerics.as_system`, `_clash_loop`, `np.gone`"
    assert stale(text, [MODULES["pursuit"]]) == []
    text = "`pursuit._gone`, `game._gone`, `_gone`, `l0l1.bench.gone`"
    assert stale(text, list(MODULES.values())) == [
        "_gone", "game._gone", "l0l1.bench.gone", "pursuit._gone"
    ]
