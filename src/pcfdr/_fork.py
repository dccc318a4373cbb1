"""Work split over the usable cores: this process works the first run of
items and a forked child each other run, whose rows come back through a pipe.
"""

from __future__ import annotations

import gc
import os
import signal
import threading
from collections.abc import Callable, Sequence
from typing import NoReturn

import numpy as np


def _cores() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity outside Linux
        return os.cpu_count() or 1


def _processes(most: int) -> int:
    """How many processes to split work over: the usable cores, at most
    ``most`` and at least 1; 1 without ``os.fork`` or with another Python
    thread alive, which a child would lack."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return max(1, min(_cores(), most))


def map_rows(fn: Callable[..., np.ndarray], items: Sequence, most: int) -> np.ndarray:
    """The rows of ``fn(run)`` for every run, in item order, as one array:
    ``items`` is cut into :func:`_processes` (min(most, len(items))) runs of
    consecutive items. This process computes the first run and a forked child
    each other run, whose rows come back through a pipe into the first run's
    array, grown by realloc, so that no second array holds them all. ``fn``
    returns a new array of the same dtype and row shape for every run. If this
    process raises, every child is killed; all are reaped before the call ends.
    Raises ChildProcessError if a child exits other than 0 or sends too few
    rows, and OSError if a pipe or a fork fails.

    A child holds one thread (numpy's OpenBLAS joins its worker before a
    fork). It disables the garbage collector, which could run a finalizer
    of the parent's, closes the read ends, so that a writer sees a dead
    parent, and leaves by ``os._exit``: it runs no exit hook and flushes no
    buffer inherited from the parent.
    """
    p = _processes(min(most, n := len(items)))
    runs = [items[i * n // p:(i + 1) * n // p] for i in range(p)]
    pids, reads = [], []
    try:
        for run in runs[1:]:
            r, w = os.pipe()
            reads.append(r)
            try:
                if (pid := os.fork()) == 0:
                    _child(fn, run, w, reads)
            finally:
                os.close(w)
            pids.append(pid)
        own = fn(runs[0])
        counts = [int(_read_into(r, np.empty(1, np.int64))[0]) for r in reads]
        first = len(own)
        own.resize((first + sum(counts), *own.shape[1:]), refcheck=False)
        for r, count in zip(reads, counts):
            _read_into(r, own[first:first + count])
            first += count
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for r in reads:
            os.close(r)
        failed = sum(os.waitpid(pid, 0)[1] != 0 for pid in pids)
    if failed:
        raise ChildProcessError(f"{failed} forked worker(s) failed")
    return own


def _child(fn, run, out: int, reads: list[int]) -> NoReturn:
    """In a forked child: write the row count and values of ``fn(run)``
    to the pipe ``out``. Exits 0 once all is written, else 1."""
    status = 1
    try:
        gc.disable()
        for r in reads:
            os.close(r)
        arr = np.ascontiguousarray(fn(run))
        with open(out, "wb") as fh:
            fh.write(np.array([len(arr)], np.int64))
            fh.write(arr)
        status = 0
    finally:
        os._exit(status)


def _read_into(fd: int, buf: np.ndarray) -> np.ndarray:
    """Fill the C-contiguous array ``buf`` from the pipe ``fd`` and return
    it; raises ChildProcessError if the pipe ends first."""
    view = memoryview(buf.reshape(-1).view(np.uint8))
    while view:
        if not (got := os.readv(fd, [view])):
            raise ChildProcessError("a forked worker ended early")
        view = view[got:]
    return buf
