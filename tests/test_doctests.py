"""The docstring examples of every queryspell module run as tests."""

import doctest
import importlib
import pkgutil

import pytest

import queryspell

MODULES = sorted(info.name for info in pkgutil.iter_modules(queryspell.__path__,
                                                             "queryspell."))


def test_modules_with_examples_are_listed():
    assert {"queryspell.dictionary", "queryspell.metaphone",
            "queryspell.suggest"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_doctests(name):
    result = doctest.testmod(importlib.import_module(name), verbose=False)
    assert result.failed == 0
