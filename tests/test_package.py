import types

import prunescope as ps


def test_all_names_no_module():
    modules = [name for name in ps.__all__ if isinstance(getattr(ps, name), types.ModuleType)]
    assert modules == []


def test_all_lists_every_imported_name_once():
    imported = {
        name
        for name, value in vars(ps).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(ps.__all__) == imported
    assert len(ps.__all__) == len(imported)


def test_star_import_binds_no_module():
    namespace: dict = {}
    exec("from prunescope import *", namespace)
    bound = {k: v for k, v in namespace.items() if not k.startswith("__")}
    assert sorted(bound) == sorted(ps.__all__)
    assert not [k for k, v in bound.items() if isinstance(v, types.ModuleType)]
