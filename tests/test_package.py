"""The package surface: one list of public names per module."""

from __future__ import annotations

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
