"""The thread map behind every ``jobs`` parameter."""

from __future__ import annotations

import os
from typing import Callable

from .errors import ParameterError


def parallel_map(fn: Callable[[int], object], n: int, jobs: int) -> list:
    """``[fn(i) for i in range(n)]`` on at most ``jobs`` threads, in index order.

    Threads are capped at ``os.cpu_count()`` and at ``n``; with one, ``fn``
    runs in the calling thread.  Raises ParameterError when ``jobs < 1``.
    """
    check_jobs(jobs)
    workers = min(jobs, n, os.cpu_count() or 1)
    if workers <= 1:
        return [fn(i) for i in range(n)]
    from concurrent import futures  # it loads logging; a one-thread run needs neither
    with futures.ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(n)))


def check_jobs(jobs: int) -> None:
    """Refuse a ``jobs`` below 1; callers check before any other work."""
    if jobs < 1:
        raise ParameterError(f"jobs must be at least 1, got {jobs}")
