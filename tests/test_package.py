"""The package surface: every exported name resolves to its submodule's object."""

import importlib
import inspect

import pytest

import pdnx


def test_every_exported_name_is_its_submodules_object():
    for name in pdnx.__all__:
        module = importlib.import_module(f"pdnx.{pdnx._SUBMODULE_OF[name]}")
        value = getattr(pdnx, name)
        assert value is getattr(module, name), name
        if inspect.isclass(value) or inspect.isfunction(value):
            # The table names the module that defines the name, not one
            # that re-imports it.
            assert value.__module__ == module.__name__, name


def test_star_import_binds_exactly_the_exported_names():
    namespace = {}
    exec("from pdnx import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(pdnx.__all__)
    for name, value in namespace.items():
        assert value is getattr(pdnx, name), name


def test_dir_lists_every_exported_name():
    assert set(pdnx.__all__) <= set(dir(pdnx))
    assert "__version__" in dir(pdnx)


def test_an_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        pdnx.no_such_name
    assert not hasattr(pdnx, "calibrate_spread")
