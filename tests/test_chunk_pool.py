"""Where a multi-chunk run_suites call runs its chunks: split round-robin
between this process and forked workers, or all in this process, with the
same reports and the same errors."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from qconc import validate
from qconc.cli import main
from qconc.errors import InvalidState, SamplerExhausted
from qconc.stateio import canonical_dumps
from qconc.validate import SUITES, run_suites

#: a chunk cap and a sample count that split every sampled suite, and the
#: ladder and threshold grids, into three chunks (7, 7 and 6 states), so the
#: pool path runs in a fraction of a second
_CAP, _SAMPLES = 7, 20

_CHUNKED = list(SUITES)

#: each suite's chunks at _CAP and _SAMPLES; region and inversions take one
#: fixed stack each
_CHUNKS = {name: 1 if name in ("region", "inversions") else 3 for name in _CHUNKED}

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the split forks its workers")


@pytest.fixture(autouse=True)
def small_chunks(monkeypatch):
    monkeypatch.setattr(validate, "_CHUNK_CAP", _CAP)


def _force_workers(monkeypatch, workers: int) -> None:
    monkeypatch.setattr(validate, "_workers", lambda: workers)


def _assert_no_child() -> None:
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


def test_every_suite_is_chunked():
    assert len(_CHUNKED) == 15
    assert all(callable(SUITES[name].kernel) for name in _CHUNKED)
    assert validate._chunk_sizes(_SAMPLES) == [7, 7, 6]
    seq = np.random.SeedSequence(0)
    assert {name: len(SUITES[name].chunks(seq, _SAMPLES)) for name in _CHUNKED} == _CHUNKS


@pytest.mark.parametrize("names", [[name] for name in _CHUNKED] + [None], ids=str)
def test_pool_and_inline_give_the_same_bytes(monkeypatch, names):
    """Three processes, two and one give byte-identical reports. With W of
    them, at most one per task, this process runs tasks 0, W, 2W, ... and
    forked workers the rest, unless every requested suite has one chunk,
    which all run here."""
    spies = {name: _spy_kernel(monkeypatch, name) for name in names or _CHUNKED}
    pooled = any(_CHUNKS[name] > 1 for name in spies)
    tasks = sum(_CHUNKS[name] for name in spies)
    reports = {}
    for workers in (3, 2, 1):
        _force_workers(monkeypatch, workers)
        reports[workers] = canonical_dumps([r.to_dict() for r in run_suites(names, _SAMPLES, seed=5)])
        _assert_no_child()
        ran_here = sum(len(pids) for pids in spies.values())
        assert ran_here == len(range(0, tasks, min(workers, tasks) if pooled else 1))
        for pids in spies.values():
            pids.clear()
    assert reports[3] == reports[2] == reports[1]


@pytest.mark.parametrize(
    "error",
    [
        InvalidState("state 2: not positive semidefinite", lowest_eigenvalue=-0.25),
        SamplerExhausted("1000 rounds kept fewer than 2500 rank-2 rows"),
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
        _assert_no_child()
        assert main(["validate", "--suite", "pure", "--samples", str(_SAMPLES)]) == 1
        printed[workers] = capsys.readouterr().err
        _assert_no_child()
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


#: a validate run whose chunks split between this process and one forked
#: worker, and whose pure kernel runs for real here and ends with {death} in
#: the worker; it prints main's exit code and 1 if a child is left, running
#: or unreaped, else 0
_DYING = f"""
import os, signal
from qconc import validate
from qconc.cli import main

parent = os.getpid()
real = validate.SUITES["pure"].kernel

def dying(rng, n):
    if os.getpid() == parent:
        return real(rng, n)
    {{death}}

def children():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return 0
    return 1

validate._CHUNK_CAP = {_CAP}
validate._workers = lambda: 2
validate.SUITES["pure"].kernel = dying
code = main(["validate", "--suite", "lu-invariance", "--suite", "pure", "--samples", "{_SAMPLES}"])
print(code, children())
"""


@pytest.mark.parametrize(
    "death, error",
    [
        ("os._exit(3)", "a worker process ended before returning its chunk (exit status 3)"),
        (
            "os.kill(os.getpid(), signal.SIGKILL)",
            "a worker process ended before returning its chunk (exit status -9)",
        ),
        ("return (*real(rng, n), lambda: None)", "a worker process could not send its chunk results: "),
    ],
    ids=["exit", "sigkill", "unpicklable"],
)
def test_a_dying_worker_ends_in_one_error_line(death, error):
    """A worker that dies, or whose results cannot be pickled, ends the run
    in one WorkerLost line with exit 1, no child left and no hang."""
    run = _run_fresh(_DYING.format(death=death))
    assert (run.returncode, run.stdout) == (0, "1 0\n"), run.stderr
    assert run.stderr.startswith(f"error: WorkerLost: {error}")
    assert run.stderr.count("\n") == 1 and "Traceback" not in run.stderr


@pytest.mark.parametrize(
    "failing, lowest_here",
    [(["pure"], False), (["lu-invariance", "pure"], True)],
    ids=["worker-first", "caller-first"],
)
def test_the_first_failing_task_sets_the_error(monkeypatch, failing, lowest_here):
    """With failures in both this process's share and the worker's, the
    error raised is the inline one: the lowest failing task's, with the pid
    of the process that ran it. Tasks 0-2 are lu-invariance's chunks and 3-5
    pure's; this process runs 0, 2 and 4, the worker 1, 3 and 5."""

    def fail(rng, n):
        exc = InvalidState(f"chunk {rng.integers(2**62)}")
        exc.pid = os.getpid()
        raise exc

    for name in failing:
        monkeypatch.setattr(SUITES[name], "kernel", fail)
    raised = {}
    for workers in (2, 1):
        _force_workers(monkeypatch, workers)
        with pytest.raises(InvalidState) as info:
            run_suites(["lu-invariance", "pure"], _SAMPLES, seed=0)
        raised[workers] = info.value
        _assert_no_child()
    assert str(raised[2]) == str(raised[1])
    assert raised[1].pid == os.getpid()
    assert (raised[2].pid == os.getpid()) is lowest_here


def test_an_interrupt_here_kills_every_worker(monkeypatch):
    """A KeyboardInterrupt in this process's share ends the call at once and
    leaves no child, however long the worker's chunks would run."""
    parent = os.getpid()

    def interrupted(rng, n):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(30)

    monkeypatch.setattr(SUITES["pure"], "kernel", interrupted)
    _force_workers(monkeypatch, 2)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_suites(["pure"], _SAMPLES, seed=0)
    assert time.monotonic() - start < 10
    _assert_no_child()


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
