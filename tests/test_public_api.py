"""Every function that ``planar3b`` exports has a user.

A function in ``planar3b.__all__`` (classes and constants aside) must be
imported by name, or read as ``<module>.<name>``, in a ``src/planar3b``
module other than its own and ``__init__``, or be named in the Library
section of the README.  References are found with ``ast``, so a local
variable or an attribute of some other object (``args.n_max``) with the
same name does not count.
"""

import ast
import inspect
import re
from pathlib import Path

import planar3b

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "planar3b"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _references(path):
    """Names that one module imports from the package or reads as an
    attribute of a package module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith("planar3b")):
            names.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in MODULES):
            names.add(node.attr)
    return names


def _library_section():
    readme = (ROOT / "README.md").read_text()
    return re.search(r"^## Library\n(.*?)(?=^## )", readme, re.M | re.S).group(1)


def _unused_exports():
    used_by = {path.stem: _references(path) for path in PACKAGE.glob("*.py")
               if path.stem != "__init__"}
    library = _library_section()
    unused = []
    for name in planar3b.__all__:
        obj = getattr(planar3b, name)
        if not inspect.isfunction(obj):
            continue
        home = obj.__module__.rpartition(".")[2]
        if any(name in refs for module, refs in used_by.items() if module != home):
            continue
        if re.search(rf"\b{re.escape(name)}\b", library):
            continue
        unused.append(name)
    return sorted(unused)


def test_every_exported_function_has_a_user():
    assert _unused_exports() == []
