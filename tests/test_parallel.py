import os
import threading
import time
from concurrent import futures

import pytest

from dustlab.errors import ParameterError
from dustlab.parallel import parallel_map


def test_results_in_index_order():
    assert parallel_map(lambda i: i * i, 10, 3) == [i * i for i in range(10)]
    assert parallel_map(lambda i: i, 0, 4) == []


def test_threads_capped_at_cpu_count():
    # eight tasks bound the thread count even if the cap were lost
    seen = set()
    lock = threading.Lock()

    def task(i):
        with lock:
            seen.add(threading.get_ident())
        time.sleep(0.05)
        return i

    assert parallel_map(task, 8, 10_000) == list(range(8))
    assert 1 <= len(seen) <= (os.cpu_count() or 1)


def test_parallel_map_caps_threads_at_tasks_and_cpus(monkeypatch):
    pools = []

    class Recorded(futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(futures, "ThreadPoolExecutor", Recorded)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert parallel_map(lambda i: i, 8, 10_000) == list(range(8))  # capped at the CPUs
    assert parallel_map(lambda i: i, 2, 3) == [0, 1]  # capped at the tasks
    assert parallel_map(lambda i: i, 5, 1) == list(range(5))  # one thread: no pool
    assert parallel_map(lambda i: i, 0, 4) == []
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one CPU
    assert parallel_map(lambda i: i, 8, 4) == list(range(8))
    assert pools == [4, 2]
    for n in (5, 0):  # refused before any task is looked at
        with pytest.raises(ParameterError):
            parallel_map(lambda i: i, n, 0)


def test_one_job_runs_in_the_calling_thread():
    caller = threading.get_ident()
    assert parallel_map(lambda i: threading.get_ident(), 3, 1) == [caller] * 3


@pytest.mark.parametrize("jobs", [0, -2])
def test_jobs_below_one_rejected(jobs):
    with pytest.raises(ParameterError):
        parallel_map(lambda i: i, 4, jobs)
