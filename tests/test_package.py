import re
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
