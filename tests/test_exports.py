"""Every public name and function of the package has a user path."""
import ast
import inspect
import re
from pathlib import Path

import conemv

ROOT = Path(__file__).resolve().parents[1]


def names_read(source: str) -> set[str]:
    """Names and attributes that python source loads; a def or class
    line, a docstring and a comment read nothing."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}


def user_sources():
    """The package's own modules but for ``__init__``, the scripts, the
    benchmark and the README's python block."""
    files = [p for p in (ROOT / "src" / "conemv").glob("*.py")
             if p.name != "__init__.py"]
    files += sorted((ROOT / "scripts").rglob("*.py"))
    files += sorted((ROOT / "perfbench").rglob("*.py"))
    sources = [p.read_text(encoding="utf-8") for p in files]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sources.append(re.search(r"^```python\n(.*?)^```", readme,
                             re.S | re.M).group(1))
    return sources


def test_every_export_is_read_outside_the_tests():
    exports = {name for name, value in vars(conemv).items()
               if not name.startswith("_") and not inspect.ismodule(value)}
    read = set().union(*map(names_read, user_sources()))
    unread = sorted(exports - read)
    assert not unread, f"exports that no user path reads: {unread}"


def public_defs():
    """(qualified name, name) of every public function and method that
    a module of the package defines at module or class level."""
    for path in sorted((ROOT / "src" / "conemv").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [(path.stem, tree.body)] + [
            (f"{path.stem}.{node.name}", node.body) for node in tree.body
            if isinstance(node, ast.ClassDef)]
        for prefix, body in scopes:
            for node in body:
                if (isinstance(node, ast.FunctionDef)
                        and not node.name.startswith("_")):
                    yield f"{prefix}.{node.name}", node.name


def test_every_public_def_is_read_outside_the_tests():
    read = set().union(*map(names_read, user_sources()))
    unread = sorted(qual for qual, name in public_defs() if name not in read)
    assert not unread, f"functions that no user path calls: {unread}"
