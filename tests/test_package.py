"""The package's public surface: every exported name exists, every check
survives ``python -O``, and the README's Quick start runs."""

import ast
import importlib
import pkgutil
from pathlib import Path

import simonstruct


def test_every_name_in_all_exists_on_its_module():
    # a name left in __all__ after its deletion breaks `from module import *`
    checked = 0
    for info in pkgutil.iter_modules(simonstruct.__path__):
        module = importlib.import_module(f"simonstruct.{info.name}")
        names = getattr(module, "__all__", None)
        if names is None:
            continue
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, f"simonstruct.{info.name}.__all__ lists missing {missing}"
        assert len(set(names)) == len(names), f"simonstruct.{info.name}.__all__ repeats a name"
        checked += 1
    assert checked >= 9


def test_no_assert_statement_in_the_package():
    # python -O strips assert statements, so a check written as one would vanish
    sources = sorted(Path(simonstruct.__file__).resolve().parent.glob("*.py"))
    assert len(sources) >= 13
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            assert not isinstance(node, ast.Assert), f"{path.name}:{node.lineno} uses assert"


def test_readme_quick_start_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(block, {})
    assert capsys.readouterr().out.splitlines() == ["1100000000", "0000000011", "True True False"]
