"""A runner keeps its worker pool warm across calls.

:class:`~repro.parallel.runner.ParallelRunner` starts a pool on its
first fan-out and runs every later call on it; the pool stops when the
runner is dropped, and only in the process that started it.  Results
stay bit-identical to ``workers=1`` through crashes, failed calls and
forks.
"""

import gc
import multiprocessing.process
import os
import pickle
import select
import signal
import sys
import time

import pytest

from repro.api import ScenarioSpec
from repro.parallel import ParallelRunner, SweepRunner
from repro.parallel import pool as pool_module

SPECS = [ScenarioSpec(engine="mvp_batched", workload="database", size=96,
                      items=2, batch=5, seed=seed) for seed in range(4)]

#: Seconds a forked child may take to run its sweep and answer.
CHILD_TIMEOUT = 60.0


def comparable(result) -> dict:
    data = result.to_dict()
    for key in ("wall_seconds", "parallel", "cache"):
        data["provenance"].pop(key, None)
    return data


def serial() -> list[dict]:
    return [comparable(r) for r in SweepRunner(workers=1).run(SPECS)]


@pytest.fixture
def starts(monkeypatch):
    """Every process started in this process during the test."""
    started = []
    real = multiprocessing.process.BaseProcess.start

    def counting(self):
        started.append(self)
        real(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                        counting)
    return started


def test_second_fan_out_starts_no_process(starts):
    runner = SweepRunner(workers=2)
    first = [comparable(r) for r in runner.run(SPECS)]
    assert len(starts) == 2
    second = [comparable(r) for r in runner.run(SPECS)]
    assert len(starts) == 2
    assert first == second == serial()


def test_dropping_the_runner_stops_its_workers(starts):
    runner = ParallelRunner(workers=2)
    runner.run_many(SPECS)
    workers = list(starts)
    assert len(workers) == 2
    assert all(worker.is_alive() for worker in workers)
    del runner
    gc.collect()
    assert not any(worker.is_alive() for worker in workers)
    assert [worker.exitcode for worker in workers] == [0, 0]


def test_worker_killed_in_a_kept_pool_is_retried(monkeypatch, tmp_path,
                                                 starts):
    """A cell whose worker is SIGKILLed mid-task in the kept pool's
    second call runs again on a fresh worker; the sweep still equals
    ``workers=1`` bit for bit."""
    armed = tmp_path / "armed"
    killed = tmp_path / "killed-once"
    doomed = SPECS[2]
    real = pool_module._execute_task

    def kill_once(kind, payload):
        if armed.exists() and kind == "spec" and payload == doomed:
            try:
                killed.open("x").close()
            except FileExistsError:
                pass  # the retry: run normally
            else:
                os.kill(os.getpid(), signal.SIGKILL)
        return real(kind, payload)

    # The pool's workers fork on the first call and inherit the patch.
    monkeypatch.setattr(pool_module, "_execute_task", kill_once)
    runner = SweepRunner(workers=2)
    runner.run(SPECS)
    assert len(starts) == 2
    armed.touch()
    fanned = [comparable(r) for r in runner.run(SPECS)]
    assert killed.exists()  # the kill really happened
    assert len(starts) == 3  # the replacement worker, nothing else
    monkeypatch.setattr(pool_module, "_execute_task", real)
    assert fanned == serial()


def test_a_call_that_raised_leaves_the_runner_usable(monkeypatch, starts):
    real = pool_module._execute_task

    def refuse(kind, payload):
        if payload.seed == 99:
            raise RuntimeError("refused")
        return real(kind, payload)

    monkeypatch.setattr(pool_module, "_execute_task", refuse)
    runner = SweepRunner(workers=2)
    with pytest.raises(RuntimeError, match="refused"):
        runner.run([SPECS[0].replaced(seed=99), SPECS[1]])
    results = [comparable(r) for r in runner.run(SPECS)]
    assert len(starts) == 2
    monkeypatch.setattr(pool_module, "_execute_task", real)
    assert results == serial()


def _read_all(fd: int, timeout: float) -> bytes:
    """Everything written to ``fd`` until EOF, or TimeoutError."""
    chunks = []
    deadline = time.monotonic() + timeout
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
            raise TimeoutError("the forked child did not answer in time")
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_runs_on_its_own_pool(starts):
    """A call in an ``os.fork`` child starts the child's own pool (the
    parent's worker queues are not the child's to use) and matches the
    serial run.  Dropping the runner in the child stops the child's
    pool and leaves the parent's alone, without an error; the parent's
    pool then still serves, with no restart."""
    runner = SweepRunner(workers=2, pool="fork")
    runner.run(SPECS)
    expected = serial()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: answer over the pipe, never return
        status = 1
        try:
            os.close(read_end)
            ignored = []  # errors raised in finalizers
            sys.unraisablehook = ignored.append
            results = [comparable(r) for r in runner.run(SPECS)]
            del runner
            gc.collect()
            payload = pickle.dumps(
                (results, [repr(u.exc_value) for u in ignored]))
            with os.fdopen(write_end, "wb") as out:
                out.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    try:
        answer = _read_all(read_end, CHILD_TIMEOUT)
    except TimeoutError:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(read_end)
        _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    results, ignored = pickle.loads(answer)
    assert ignored == []
    assert results == expected
    assert [comparable(r) for r in runner.run(SPECS)] == expected
    assert len(starts) == 2
