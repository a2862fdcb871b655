"""The docstring examples of every queryspell module run as tests."""

import doctest
import importlib
import pkgutil

import pytest

import queryspell

MODULES = sorted(info.name for info in pkgutil.iter_modules(queryspell.__path__,
                                                             "queryspell."))


# Modules whose examples must keep running: losing them fails the test.
WITH_EXAMPLES = {"queryspell.dictionary", "queryspell.metaphone", "queryspell.suggest"}


def test_modules_with_examples_are_listed():
    assert WITH_EXAMPLES <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_doctests(name):
    result = doctest.testmod(importlib.import_module(name), verbose=False)
    assert result.failed == 0
    if name in WITH_EXAMPLES:
        assert result.attempted > 0
