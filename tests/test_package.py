import importlib
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import qconc
from qconc.stateio import TOOL_VERSION


def test_all_lists_exactly_the_public_names():
    """Each name of __all__ resolves to the object of the module that defines
    it, and dir() lists exactly those names."""
    assert len(qconc.__all__) == len(set(qconc.__all__))
    for name in qconc.__all__:
        module, attr = qconc._WHERE[name]
        defining = importlib.import_module(f"qconc.{module}")
        value = getattr(qconc, name)
        assert value is getattr(defining, attr)
        if isinstance(value, (type, types.FunctionType)):
            assert value.__module__ == defining.__name__
    public = {name for name in dir(qconc) if not name.startswith("_")}
    assert public | {"__version__"} == set(qconc.__all__)


def test_unknown_names_raise():
    with pytest.raises(ImportError):
        from qconc import nope  # noqa: F401
    with pytest.raises(AttributeError):
        getattr(qconc, "nope")


def _run_fresh(code: str) -> str:
    """What code prints in a fresh interpreter that imports qconc from this tree."""
    src = str(Path(qconc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return result.stdout


#: a decimal number that is not the tail of a name such as Rank2Canonical
_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def test_readme_quick_start_prints_its_comments():
    """The README's library quick start runs in a fresh interpreter, and each
    print gives the numbers of the comment beside it, to 1e-12."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    expected = [
        [float(x) for x in _NUMBER.findall(line.split("#", 1)[1])]
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    assert len(expected) == 3 and all(expected)
    printed = _run_fresh(code).splitlines()
    assert len(printed) == len(expected)
    for line, numbers in zip(printed, expected):
        assert [float(x) for x in _NUMBER.findall(line)] == pytest.approx(numbers, abs=1e-12)


def test_readme_cli_report_is_the_clis(capsys, monkeypatch, tmp_path):
    """The README's `gen --named ladder:0.3` and `concurrence` commands, run
    through cli.main, print the README's text block, and the report of
    `werner:0.8` ends in `estimate    none applicable`."""
    from qconc.cli import main

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```text\n(.*?)```", readme.split("qconc concurrence l.json", 1)[1], re.S)
    monkeypatch.chdir(tmp_path)
    for argv in (["gen", "--named", "ladder:0.3", "--out", "l.json"], ["concurrence", "l.json"]):
        assert f"qconc {' '.join(argv)}\n" in readme
        assert main(argv) == 0
    assert capsys.readouterr().out == block.group(1)
    assert main(["gen", "--named", "werner:0.8", "--out", "w.json"]) == 0
    capsys.readouterr()
    assert main(["concurrence", "w.json"]) == 0
    assert capsys.readouterr().out.endswith("\nestimate    none applicable\n")


def _declared_version() -> str:
    """[project] version from pyproject.toml, read without tomllib (absent
    before Python 3.11)."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    return re.search(r'^version\s*=\s*"([^"]+)"', project, re.M).group(1)


def test_version_literal_matches_pyproject():
    assert qconc.__version__ == TOOL_VERSION == _declared_version() == "0.1.0"


def _loaded_after(statement: str) -> list[str]:
    """The qconc and click modules a fresh interpreter holds after statement."""
    probe = (
        f"import json, sys; {statement}; "
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in ('qconc', 'click'))))"
    )
    return json.loads(_run_fresh(probe))


def test_cli_import_leaves_click_out():
    """The CLI parses with the standard library; its one runtime dependency
    is numpy. The package loads no submodule until a name is used, and the
    CLI loads the suites, the bounds and the measurement model only for the
    commands that run them."""
    assert _loaded_after("import qconc") == ["qconc"]
    loaded = _loaded_after("import qconc.cli")
    assert "qconc.cli" in loaded
    assert not {"qconc.validate", "qconc.bounds", "qconc.measurement", "click"} & set(loaded)


def test_single_chunk_validate_leaves_process_machinery_out(tmp_path):
    """A validate run whose suites have one chunk each runs its chunks in
    this process and loads no multiprocessing or concurrent.futures module."""
    out = str(tmp_path / "validate.json")
    probe = (
        "import json, sys; from qconc.cli import main; "
        f"code = main(['validate', '--samples', '200', '--seed', '0', '--out', {out!r}]); "
        "print(json.dumps([code] + sorted("
        "m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent'))))"
    )
    assert json.loads(_run_fresh(probe)) == [0]
