"""The package surface: one list of public names per module."""

from __future__ import annotations

import ast
import hashlib
from pathlib import Path

import intprob as ip

MODULES = (
    ip.capacity,
    ip.conditioning,
    ip.dominance,
    ip.errors,
    ip.measure,
    ip.product,
    ip.scenario,
    ip.space,
)


def test_all_is_the_sorted_union_of_the_module_lists():
    union = [name for module in MODULES for name in module.__all__]
    assert len(union) == len(set(union))
    assert ip.__all__ == sorted(union)


def test_every_name_resolves_and_star_import_binds_exactly_them():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(ip, name) is getattr(module, name)
    namespace: dict = {}
    exec("from intprob import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == ip.__all__


def _package_imports(path):
    """The package modules ``path`` imports, by their names under ``intprob``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level:  # from . import x / from .x import y
                base = node.module
            elif (node.module or "").startswith("intprob"):
                base = node.module.removeprefix("intprob").lstrip(".")
            else:
                continue
            if base:
                found.add(base.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                top, _, rest = alias.name.partition(".")
                if top == "intprob":
                    found.add(rest.split(".")[0] or "__init__")
    return found


def test_the_oracle_stays_independent_of_the_kernel():
    """No kernel module imports the oracle, and the oracle imports only ``errors``."""
    package = Path(ip.__file__).parent
    for path in package.glob("*.py"):
        if path.stem != "oracle":
            assert "oracle" not in _package_imports(path), path.name
    assert _package_imports(package / "oracle.py") <= {"errors"}


ORACLE_SHA256 = "5ca9b05028301afad10fd92e7ee6c425a19309ac6d85f43c1654655de6fd6141"


def test_the_oracle_stays_byte_for_byte():
    """``oracle.py`` is pinned to its bytes.

    It is the kernel's independent check: edited alongside the kernel, it
    could come to share the kernel's decisions, and kernel/oracle
    agreement would then prove nothing.
    """
    source = (Path(ip.__file__).parent / "oracle.py").read_bytes()
    assert hashlib.sha256(source).hexdigest() == ORACLE_SHA256
