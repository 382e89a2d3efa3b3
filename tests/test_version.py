"""The version is spelled once: pyproject.toml reads marlkit.__version__."""

from __future__ import annotations

import pathlib
import tomllib

import marlkit

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_pyproject_takes_the_version_from_the_package():
    config = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))
    assert "version" not in config["project"]
    assert config["project"]["dynamic"] == ["version"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "marlkit.__version__"}
    assert isinstance(marlkit.__version__, str) and marlkit.__version__
