"""No module of the package reaches into another module's private names."""

import ast
from pathlib import Path

import balmet

SRC = Path(balmet.__file__).parent
MODULES = {path.stem for path in SRC.glob("*.py")}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _is_package(node: ast.ImportFrom) -> bool:
    """Whether ``from <module> import ...`` names this package or one of its modules."""
    return node.level > 0 or (node.module or "").split(".")[0] == "balmet"


def private_reaches(path: Path) -> list[str]:
    """Each ``from .x import _y`` and each read of ``x._z``, x a module of
    the package, in the file at path."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_package(node):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"{path.name}:{node.lineno}: imports {alias.name}")
                elif alias.name in MODULES:
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            found.append(f"{path.name}:{node.lineno}: reads {node.value.id}.{node.attr}")
    return found


def test_no_module_uses_another_modules_private_names():
    paths = sorted(SRC.glob("*.py"))
    assert {"cp1", "cpn", "dynamics", "quadrature"} <= MODULES
    assert [reach for path in paths for reach in private_reaches(path)] == []


def test_the_check_sees_both_kinds_of_reach(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("from . import cpn, quadrature as q\nfrom .cp1 import _rows, apply_T\n\n"
                    "def f(b):\n    return cpn._step(b), q._TINY, cpn.__name__\n",
                    encoding="utf-8")
    assert sorted(private_reaches(path)) == ["probe.py:2: imports _rows",
                                             "probe.py:5: reads cpn._step",
                                             "probe.py:5: reads q._TINY"]
