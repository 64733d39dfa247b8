"""Package surface: the public names and the runnable docstring examples."""
import doctest
import importlib

import pytest

import higgsmoduli
import higgsmoduli.exactpoly


@pytest.mark.parametrize("name", ["bundles", "higgs", "mirror", "stability"])
def test_submodule_exports_are_package_exports(name):
    module = importlib.import_module(f"higgsmoduli.{name}")
    assert set(module.__all__) <= set(higgsmoduli.__all__)


def test_package_exports_resolve():
    for name in higgsmoduli.__all__:
        assert hasattr(higgsmoduli, name), name


def test_exactpoly_doctests():
    results = doctest.testmod(higgsmoduli.exactpoly)
    assert results.failed == 0
    assert results.attempted >= 7
