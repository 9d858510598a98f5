"""The package's public surface: its exports and its console script."""

import importlib
import tomllib
from pathlib import Path

import cnotswap

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_exports_resolve_and_the_console_script_is_callable():
    names = cnotswap.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(cnotswap, name), name
    scripts = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts == {"cnotswap": "cnotswap.cli:main"}
    module, _, attr = scripts["cnotswap"].partition(":")
    assert callable(getattr(importlib.import_module(module), attr))
