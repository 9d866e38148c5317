"""The examples in the package's docstrings and in the README run and
hold."""

import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import ocbord

ROOT = Path(__file__).resolve().parent.parent


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


def test_the_readme_python_example_prints_what_its_comments_say(
        monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    [block] = re.findall(r"```python\n(.*?)```", readme, re.S)
    comments = [line.split("# ", 1)[1] for line in block.splitlines()
                if line.startswith("print(")]
    assert comments == ["(2 5 6)(3 4)", "True", "exact Fractions"]
    monkeypatch.chdir(ROOT)     # the example reads corpus/ from here
    exec(block, {})
    assert capsys.readouterr().out.splitlines() == [
        "(2 5 6)(3 4)", "True",
        "[Fraction(1, 1), Fraction(0, 1), Fraction(0, 1), Fraction(0, 1)]"]
