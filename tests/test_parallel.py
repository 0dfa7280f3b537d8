import os
import threading
import time

import pytest

from dustlab.errors import ParameterError
from dustlab.parallel import parallel_map, worker_count


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


def test_worker_count_caps_jobs_at_tasks_and_cpus():
    cpus = os.cpu_count() or 1
    assert worker_count(10_000, 8) == min(8, cpus)
    assert worker_count(3, 2) == min(2, cpus)
    assert worker_count(1, 5) == 1
    assert worker_count(4, 0) == 0
    with pytest.raises(ParameterError):
        worker_count(0, 5)


def test_one_job_runs_in_the_calling_thread():
    caller = threading.get_ident()
    assert parallel_map(lambda i: threading.get_ident(), 3, 1) == [caller] * 3


@pytest.mark.parametrize("jobs", [0, -2])
def test_jobs_below_one_rejected(jobs):
    with pytest.raises(ParameterError):
        parallel_map(lambda i: i, 4, jobs)
