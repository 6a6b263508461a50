"""The task runner every parallel path shares (:func:`run_tasks`).

Results come back in task order; a dead worker costs only the task it
was running, even when it dies partway through its reply; what crosses
a worker's pipe arrives as pickle would rebuild it; an exception a task
raises keeps its type; and no worker process outlives a run, however it
ends.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import pathlib
import pickle
import select
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import repro.parallel.runner as runner
from repro.parallel.runner import ShardExecutionError, WorkerCrashError, run_tasks
from repro.parallel.worker import SimulatedWorkerCrash


def _die() -> None:
    """What a crashed worker looks like: ``os._exit`` in a worker, the
    runner's in-process stand-in otherwise."""
    if multiprocessing.parent_process() is not None:
        os._exit(3)
    raise SimulatedWorkerCrash("in process")


def _square(x: int) -> int:
    return x * x


def _dies_this_run(payload: tuple[str, int, str]) -> bool:
    """Append this process to ``x``'s run log; ``mode`` says whether
    ``x`` dies never, on its first run only, or on every run."""
    log_dir, x, mode = payload
    log = pathlib.Path(log_dir, f"ran-{x}")
    first = not log.exists()
    with open(log, "a") as fh:
        fh.write(f"{os.getpid()}\n")
    return mode == "always" or (mode == "once" and first)


def _logged(payload: tuple[str, int, str]) -> int:
    """Square ``x``, dying first as ``_dies_this_run`` says."""
    if _dies_this_run(payload):
        _die()
    return payload[1] ** 2


#: Each array of a :func:`_arrays` reply: its bytes go out as one buffer.
ARRAY_BYTES = 8 * 1000


class _ExitAfterFirstBuffer:
    """A worker's pipe end that ends its process once the first array
    buffer of a reply has been written: a death partway through it."""

    def __init__(self, conn) -> None:
        self.conn = conn

    def send_bytes(self, data) -> None:
        self.conn.send_bytes(data)
        if memoryview(data).nbytes == ARRAY_BYTES:
            os._exit(3)


def _arrays(payload: tuple[str, int, str]) -> list[np.ndarray]:
    """Several arrays of ``x``; a run that dies does so after the first
    array of its reply is on the pipe, by patching its own process's
    send helper."""
    if _dies_this_run(payload):
        send = runner._send
        runner._send = lambda conn, obj: send(_ExitAfterFirstBuffer(conn), obj)
    return [np.full(ARRAY_BYTES // 8, payload[1] + k, dtype=np.int64) for k in range(4)]


def _odd_arrays() -> list[np.ndarray]:
    """Arrays whose buffers pickle out of band, in band, or not at all."""
    read_only = np.arange(6.0)
    read_only.setflags(write=False)
    grid = np.arange(24, dtype=np.int32).reshape(4, 6)
    return [
        np.zeros((0, 44), dtype=np.int64),
        grid[:, ::2],  # not contiguous: pickled in band
        np.asfortranarray(grid),
        read_only,
        np.array([1, "two", None], dtype=object),  # no buffer at all
    ]


def _echo(arrays: list[np.ndarray]) -> tuple[list[np.ndarray], list[bool]]:
    """The payload back, with whether each array arrived writable."""
    return arrays, [a.flags.writeable for a in arrays]


def _runs(log_dir: pathlib.Path, x: int) -> int:
    return len((log_dir / f"ran-{x}").read_text().splitlines())


def _raise_or_sleep(x: int) -> int:
    if x == 1:
        raise KeyError(x)
    time.sleep(30)
    return x


def _unpicklable(x: int) -> tuple[np.ndarray, threading.Lock]:
    """A reply whose pickling fails after it has met an array buffer."""
    return np.arange(1000), threading.Lock()


@pytest.fixture
def no_backoff(monkeypatch) -> list[float]:
    """Skip the retry backoff; the list collects the waits asked for."""
    waits: list[float] = []
    monkeypatch.setattr(runner.time, "sleep", waits.append)
    return waits


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_results_come_back_in_task_order(workers):
    assert run_tasks(_square, list(range(7)), workers=workers) == [x * x for x in range(7)]
    assert multiprocessing.active_children() == []


def test_no_tasks_is_no_results():
    assert run_tasks(_square, [], workers=2) == []


@pytest.mark.parametrize("workers", [1, 2])
def test_a_dead_worker_costs_only_its_task(workers, tmp_path, no_backoff):
    payloads = [(str(tmp_path), x, "once" if x == 1 else "never") for x in range(4)]
    assert run_tasks(_logged, payloads, workers=workers) == [0, 1, 4, 9]
    assert [_runs(tmp_path, x) for x in range(4)] == [1, 2, 1, 1]
    assert no_backoff == [runner.BACKOFF_SECONDS]
    assert multiprocessing.active_children() == []


def test_a_task_dying_on_every_attempt_names_itself(tmp_path, no_backoff):
    payloads = [(str(tmp_path), x, "always" if x == 2 else "never") for x in range(4)]
    with pytest.raises(WorkerCrashError) as err:
        run_tasks(_logged, payloads, workers=2, max_attempts=3)
    assert (err.value.failed, err.value.attempts) == ([2], 3)
    assert str(err.value) == "tasks [2] failed after 3 attempt(s)"
    assert [_runs(tmp_path, x) for x in range(4)] == [1, 1, 3, 1]
    # Every attempt ran in a worker, the lone retries too: a real death
    # never reaches this process.
    pids = (tmp_path / "ran-2").read_text().split()
    assert len(pids) == 3 and str(os.getpid()) not in pids
    assert no_backoff == [runner.BACKOFF_SECONDS, 2 * runner.BACKOFF_SECONDS]
    assert multiprocessing.active_children() == []


def test_a_worker_dying_partway_through_its_reply_is_retried(tmp_path, no_backoff):
    payloads = [(str(tmp_path), x, "once" if x == 1 else "never") for x in range(3)]
    results = run_tasks(_arrays, payloads, workers=2)
    for x, arrays in enumerate(results):
        assert [a.tolist() for a in arrays] == [[x + k] * 1000 for k in range(4)]
    assert [_runs(tmp_path, x) for x in range(3)] == [1, 2, 1]
    assert no_backoff == [runner.BACKOFF_SECONDS]
    assert multiprocessing.active_children() == []


def test_a_worker_dying_partway_through_every_reply_names_its_task(tmp_path, no_backoff):
    payloads = [(str(tmp_path), x, "always" if x == 2 else "never") for x in range(4)]
    with pytest.raises(WorkerCrashError) as err:
        run_tasks(_arrays, payloads, workers=2, max_attempts=3)
    assert (err.value.failed, err.value.attempts) == ([2], 3)
    assert [_runs(tmp_path, x) for x in range(4)] == [1, 1, 3, 1]
    assert multiprocessing.active_children() == []


def test_arrays_cross_the_pipe_as_pickle_rebuilds_them():
    """Both ways: as a payload to the worker, and back in its reply.
    Each array also keeps whether it can be written to, which an
    in-band pickle does not keep for a read-only one."""
    sent = _odd_arrays()
    [(back, writable_there)] = run_tasks(_echo, [sent], workers=2)
    expected = pickle.loads(pickle.dumps(sent))
    assert len(back) == len(expected)
    for got, want, original in zip(back, expected, sent):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert np.array_equal(got, want)
        assert got.flags.f_contiguous == want.flags.f_contiguous
        assert got.flags.writeable == original.flags.writeable
    assert writable_there == [a.flags.writeable for a in sent]


def test_a_raising_task_keeps_its_type_and_stops_its_siblings():
    start = time.monotonic()
    with pytest.raises(KeyError) as err:
        run_tasks(_raise_or_sleep, [0, 1, 2], workers=2)
    assert time.monotonic() - start < 20  # the sleeping sibling was stopped
    assert multiprocessing.active_children() == []
    # The worker's traceback is the cause: it names the raising line.
    assert "raise KeyError(x)" in str(err.value.__cause__)


def test_a_raising_task_in_process_is_not_retried(no_backoff):
    with pytest.raises(KeyError):
        run_tasks(_raise_or_sleep, [1], workers=1)
    assert no_backoff == []


def test_a_result_that_does_not_pickle_is_an_error_not_a_crash(no_backoff):
    with pytest.raises(TypeError, match="pickle"):
        run_tasks(_unpicklable, [0, 1], workers=2)
    assert no_backoff == []
    assert multiprocessing.active_children() == []


def test_attempts_must_be_positive():
    with pytest.raises(ValueError, match="max_attempts"):
        run_tasks(_square, [1], max_attempts=0)


def test_shard_error_points_at_resume_only_with_checkpoints():
    assert str(ShardExecutionError([1], 3)) == "shards [1] failed after 3 attempt(s)"
    assert str(ShardExecutionError([1], 3, "ckpt")).endswith("rerun with resume")


#: A parent that starts two workers: one finishes its task at once and
#: waits for the next, the other is still busy when the parent dies.
ORPHANS = """
import os, time
from repro.parallel.runner import run_tasks

def task(x):
    print(os.getpid(), flush=True)
    time.sleep(x)
    return x

run_tasks(task, [0, 1], workers=2)
"""


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="workers are spawned"
)
def test_workers_exit_when_the_parent_dies():
    """Killed parent: the idle worker reads EOF, the busy one fails to
    reply, and both exit.  They share the parent's stdout, so the pipe
    reads EOF once every worker is gone."""
    src = str(pathlib.Path(runner.__file__).resolve().parents[2])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.Popen([sys.executable, "-c", ORPHANS], stdout=subprocess.PIPE, env=env)
    pids: list[int] = []
    try:
        for _ in range(2):
            pids.append(int(proc.stdout.readline()))
        proc.kill()
        proc.wait()
        fd = proc.stdout.fileno()
        deadline = time.monotonic() + 20
        while select.select([fd], [], [], max(0.0, deadline - time.monotonic()))[0]:
            if not os.read(fd, 4096):
                return
        pytest.fail("a worker outlived its parent by 20 s")
    finally:
        proc.kill()
        proc.stdout.close()
        for pid in pids:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
