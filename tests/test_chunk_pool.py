"""Where a multi-chunk run_suites call runs its chunks: on a pool of forked
workers, or in this process, with the same reports and the same errors."""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from qconc import validate
from qconc.cli import main
from qconc.errors import InvalidState, SamplerExhausted
from qconc.stateio import canonical_dumps
from qconc.validate import SUITES, run_suites

#: a chunk cap and a sample count that split every sampled suite into three
#: chunks (7, 7 and 6 states), so the pool path runs in a fraction of a second
_CAP, _SAMPLES = 7, 20

_CHUNKED = [name for name, suite in SUITES.items() if hasattr(suite, "kernel")]

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the pool forks its workers")


@pytest.fixture(autouse=True)
def small_chunks(monkeypatch):
    monkeypatch.setattr(validate, "_CHUNK_CAP", _CAP)


def _force_workers(monkeypatch, workers: int) -> None:
    monkeypatch.setattr(validate, "_workers", lambda: workers)


def _spy_kernel(monkeypatch, name: str, before=None) -> list:
    """Wrap a suite's kernel so that each call made in this process records
    its pid; before(), if given, runs first in every process."""
    kernel = SUITES[name].kernel
    pids = []

    def spy(rng, n):
        if before is not None:
            before()
        pids.append(os.getpid())
        return kernel(rng, n)

    monkeypatch.setattr(SUITES[name], "kernel", spy)
    return pids


def test_every_sampled_suite_is_chunked():
    assert len(_CHUNKED) == 11
    assert validate._chunk_sizes(_SAMPLES) == [7, 7, 6]


@pytest.mark.parametrize("names", [[name] for name in _CHUNKED] + [None], ids=str)
def test_pool_and_inline_give_the_same_bytes(monkeypatch, names):
    """Two workers and none give byte-identical reports, and with two
    workers no chunk kernel runs in this process."""
    spies = {name: _spy_kernel(monkeypatch, name) for name in names or _CHUNKED}
    reports = {}
    for workers in (2, 1):
        _force_workers(monkeypatch, workers)
        reports[workers] = canonical_dumps([r.to_dict() for r in run_suites(names, _SAMPLES, seed=5)])
        assert multiprocessing.active_children() == []
        ran_here = sum(len(pids) for pids in spies.values())
        assert ran_here == (0 if workers == 2 else 3 * len(spies))
    assert reports[2] == reports[1]


@pytest.mark.parametrize(
    "error",
    [
        InvalidState("state 2: not positive semidefinite", lowest_eigenvalue=-0.25),
        SamplerExhausted("no rank-2 draw cleared the guards in 1000 draws"),
        MemoryError("Unable to allocate 7.11 PiB for an array"),
    ],
    ids=lambda e: type(e).__name__,
)
def test_a_worker_error_ends_like_an_inline_one(monkeypatch, capsys, error):
    """An error raised in a worker reaches the caller with its type, message
    and attributes, and the CLI prints the same one error line for it."""

    def failing(rng, n):
        exc = type(error)(*error.args)
        exc.__dict__.update(vars(error), pid=os.getpid())
        raise exc

    monkeypatch.setattr(SUITES["pure"], "kernel", failing)
    raised, printed = {}, {}
    for workers in (2, 1):
        _force_workers(monkeypatch, workers)
        with pytest.raises(type(error)) as info:
            run_suites(["lu-invariance", "pure"], _SAMPLES, seed=0)
        raised[workers] = info.value
        assert multiprocessing.active_children() == []
        assert main(["validate", "--suite", "pure", "--samples", str(_SAMPLES)]) == 1
        printed[workers] = capsys.readouterr().err
        assert multiprocessing.active_children() == []
    pool, inline = raised[2], raised[1]
    assert type(pool) is type(inline) and str(pool) == str(inline)
    assert pool.pid != os.getpid() == inline.pid
    assert {**vars(pool), "pid": None} == {**vars(inline), "pid": None} == {**vars(error), "pid": None}
    assert printed[2] == printed[1] and printed[1].count("\n") == 1
    assert printed[1].startswith("error: ")


def _run_fresh(code: str) -> subprocess.CompletedProcess:
    """code run in a fresh interpreter that imports qconc from this tree; a
    run that hangs fails the test after a minute."""
    src = str(Path(validate.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )


#: a validate run whose pure chunks run on two workers, each of which dies in
#: its kernel ({death}); it prints main's exit code and the children left
_DYING = f"""
import multiprocessing, os, signal
from qconc import validate
from qconc.cli import main

parent = os.getpid()

def dying(rng, n):
    if os.getpid() == parent:
        raise SystemExit("the kernel ran in the parent")
    {{death}}

validate._CHUNK_CAP = {_CAP}
validate._workers = lambda: 2
validate.SUITES["pure"].kernel = dying
code = main(["validate", "--suite", "lu-invariance", "--suite", "pure", "--samples", "{_SAMPLES}"])
print(code, len(multiprocessing.active_children()))
"""


@pytest.mark.parametrize(
    "death", ["os._exit(3)", "os.kill(os.getpid(), signal.SIGKILL)"], ids=["exit", "sigkill"]
)
def test_a_dying_worker_ends_in_one_error_line(death):
    run = _run_fresh(_DYING.format(death=death))
    assert (run.returncode, run.stdout) == (0, "1 0\n"), run.stderr
    assert run.stderr.startswith("error: WorkerLost: a worker process ended before returning")
    assert run.stderr.count("\n") == 1 and "Traceback" not in run.stderr


def test_workers_leave_sigint_to_the_parent(monkeypatch):
    """A SIGINT that reaches a worker mid-chunk does not stop its chunk."""
    parent = os.getpid()

    def interrupt():
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGINT)

    _spy_kernel(monkeypatch, "pure", before=interrupt)
    reports = {}
    for workers in (2, 1):
        _force_workers(monkeypatch, workers)
        try:
            reports[workers] = [r.to_dict() for r in run_suites(["pure"], _SAMPLES, seed=1)]
        except KeyboardInterrupt:
            pytest.fail("a worker's SIGINT reached the caller")
    assert reports[2] == reports[1]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_one_usable_cpu_runs_the_chunks_inline():
    """Pinned to one CPU, a multi-chunk run loads no process machinery."""
    code = (
        "import json, os, sys; from qconc import validate; "
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
        f"validate._CHUNK_CAP = {_CAP}; "
        f"validate.run_suites(['pure', 'lu-invariance'], {_SAMPLES}); "
        "print(json.dumps([validate._workers()] + sorted("
        "m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent'))))"
    )
    run = _run_fresh(code)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == [1]
