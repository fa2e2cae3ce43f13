"""Every definition in the package has a reader in the program.

An AST pass over ``src/todalab`` and ``perfbench``: each top-level function
and class of the package, and each method of such a class (dunders exempt),
must be read by name somewhere, as a ``Name``, an ``Attribute`` or a string
literal.  The export table of ``__init__`` does not count as a reader, so a
name that only ``import todalab`` offers still fails.  Test code does not
count either: an oracle that only tests read lives in the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "todalab"
READERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def export_table_nodes(tree):
    """The ids of every node inside the ``_EXPORTS = {...}`` assignment."""
    return {id(node) for stmt in tree.body if isinstance(stmt, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "_EXPORTS" for t in stmt.targets)
            for node in ast.walk(stmt.value)}


def names_read(path):
    tree = ast.parse(path.read_text(), str(path))
    skip = export_table_nodes(tree) if path == PACKAGE / "__init__.py" else set()
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skip):
            out.add(node.value)
    return out


def definitions(path):
    """(qualified name, name) of each top-level function and class and of each
    method of such a class, dunders left out."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, defs):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, defs):
                        yield f"{node.name}.{member.name}", member.name


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def test_every_definition_has_a_reader():
    read = set().union(*map(names_read, READERS))
    unread = [f"{path.name}: {qualname}" for path in sorted(PACKAGE.glob("*.py"))
              for qualname, name in definitions(path)
              if not is_dunder(name) and name not in read]
    assert not unread, "no reader in src/todalab or perfbench:\n" + "\n".join(unread)


def test_the_scan_sees_the_package_and_the_benchmark():
    # an empty glob would pass the guard vacuously
    assert {p.name for p in READERS} >= {"__init__.py", "cli.py", "verify.py", "tracing.py"}
