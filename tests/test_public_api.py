"""The public API is declared once, and every public name is used outside the tests.

Each module's ``__all__`` is the only declaration of its public names,
and the package's ``__all__`` is their union. A name belongs there only
when the package's own code, a demo or the benchmark harness refers to
it: a function that only tests call is not public API. Likewise every
field of a public dataclass is read somewhere outside the tests.
"""

import ast
import dataclasses
import pkgutil
import re
from importlib import import_module
from pathlib import Path

import fourier_surrogates as fs

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(fs.__file__).parent

#: the command line is the package's entry point, not a re-exported module
NOT_REEXPORTED = {"cli", "__main__"}

#: public names that only tests call, each kept for the reason given
KEPT_FOR_TESTS = {
    # the paper's kernel-error tail bound, which acceptance criterion 08 checks
    "kernel_error_probability",
}


def _modules():
    names = [m.name for m in pkgutil.iter_modules([str(SRC)]) if m.name not in NOT_REEXPORTED]
    return [import_module(f"fourier_surrogates.{name}") for name in sorted(names)]


def test_package_all_lists_each_name_once_and_every_name_resolves():
    assert len(fs.__all__) == len(set(fs.__all__))
    assert [name for name in fs.__all__ if not hasattr(fs, name)] == []


def test_package_all_is_the_union_of_the_module_all_lists():
    declared = ["__version__"] + [name for m in _modules() for name in m.__all__]
    assert sorted(declared) == sorted(fs.__all__)
    for m in _modules():
        assert [name for name in m.__all__ if not hasattr(m, name)] == [], m.__name__


def _read_in_src() -> set[str]:
    """Names the package's code reads, as a variable or an attribute.

    Definitions, imports and the string entries of ``__all__`` are not
    reads, so a name that is only defined, re-exported and listed is
    not counted.
    """
    read = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def _outside_paths() -> list[Path]:
    paths = sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    assert paths, "demos/ and perfbench/ hold no Python files"
    return paths


def _outside_text() -> str:
    return "\n".join(p.read_text(encoding="utf-8") for p in _outside_paths())


def test_every_public_name_is_used_outside_the_tests():
    read, outside = _read_in_src(), _outside_text()
    unused = [
        name
        for name in fs.__all__
        if name not in read and not re.search(rf"\b{re.escape(name)}\b", outside)
    ]
    assert sorted(unused) == sorted(KEPT_FOR_TESTS)


def test_every_field_of_a_public_dataclass_is_read_outside_the_tests():
    """A field counts as read where ``obj.field`` is loaded in src/, demos/ or perfbench/."""
    read = {
        node.attr
        for path in [*SRC.glob("*.py"), *_outside_paths()]
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    classes = [getattr(fs, name) for name in fs.__all__]
    unread = [
        f"{cls.__name__}.{field.name}"
        for cls in classes
        if isinstance(cls, type) and dataclasses.is_dataclass(cls)
        for field in dataclasses.fields(cls)
        if field.name not in read
    ]
    assert unread == []
