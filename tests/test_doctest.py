"""The examples in the package's docstrings run and hold."""

import doctest
import importlib
import pkgutil

import ocbord


def test_every_module_doctest_passes():
    names = ["ocbord"] + [f"ocbord.{m.name}"
                          for m in pkgutil.iter_modules(ocbord.__path__)]
    assert "ocbord.dsl" in names
    attempted = 0
    for name in names:
        result = doctest.testmod(importlib.import_module(name))
        assert result.failed == 0, name
        attempted += result.attempted
    assert attempted >= 3
