import os
import re
import subprocess
import sys
import types
from pathlib import Path

import qconc
from qconc.stateio import TOOL_VERSION


def test_all_lists_exactly_the_public_names():
    public = {
        name
        for name, value in vars(qconc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(qconc.__all__) == len(set(qconc.__all__))
    assert set(qconc.__all__) == public | {"__version__"}


def _declared_version() -> str:
    """[project] version from pyproject.toml, read without tomllib (absent
    before Python 3.11)."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    return re.search(r'^version\s*=\s*"([^"]+)"', project, re.M).group(1)


def test_version_literal_matches_pyproject():
    assert qconc.__version__ == TOOL_VERSION == _declared_version() == "0.1.0"


def test_cli_import_leaves_click_out():
    """The CLI parses with the standard library; its one runtime dependency
    is numpy."""
    src = str(Path(qconc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, qconc.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'click'))"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout == "[]\n"
