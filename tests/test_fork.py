"""``_fork.map_rows(fn, items, most)``: the one place that picks a process
count and deals work into runs. The items go in p = min(usable cores, most,
len(items)) runs of consecutive items, at least one; this process maps the
first run and a forked child each other run. The rows are those of
``fn(items)``, bit for bit, and no child is left behind."""

import os

import numpy as np
import pytest

from pcfdr import _fork

PAIRS = [(i, 3 * i + 1) for i in range(7)]


def values(run):
    """A pure per-item map: one row per item, any item kind."""
    return np.sqrt(np.array([*run], float).reshape(len(run), -1) + np.pi)


def tagged(run):
    """One row per item: the item, the run's first item, its length and
    the pid of the process that mapped it."""
    return np.array([[item, run[0], len(run), os.getpid()] for item in run], float)


@pytest.fixture
def forks(monkeypatch):
    """A function that sets the usable core count and returns the list of
    forks made so far; no child may be left when the test ends."""
    made, fork = [], os.fork

    def counting_fork():
        made.append(1)
        return fork()

    def cores(k):
        monkeypatch.setattr(_fork, "_cores", lambda: k)
        return made

    monkeypatch.setattr(os, "fork", counting_fork)
    yield cores
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cores", [1, 2, 3])
@pytest.mark.parametrize("most", [0, 1, "len", 99])
@pytest.mark.parametrize("items", [range(1), range(5), range(3, 10), PAIRS[:2], PAIRS],
                         ids=["range-1", "range-5", "range-3-10", "pairs-2", "pairs-7"])
def test_rows_are_fn_of_all_items_and_forks_are_one_less_than_runs(forks, cores, most, items):
    most = len(items) if most == "len" else most
    made = forks(cores)
    rows = _fork.map_rows(values, items, most)
    assert rows.tobytes() == values(items).tobytes()
    assert rows.shape == values(items).shape
    assert len(made) == max(0, min(cores, most, len(items)) - 1)


@pytest.mark.parametrize("cores", [1, 2, 3])
@pytest.mark.parametrize("most", [0, 1, 2, 3, 99])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 10])
def test_runs_are_contiguous_in_order_and_cover_each_item_once(forks, cores, most, n):
    forks(cores)
    items = range(10, 10 + n)
    rows = _fork.map_rows(tagged, items, most)
    assert rows[:, 0].tolist() == [*items]  # each item once, in order
    p = max(1, min(cores, most, n))
    starts = [n * i // p for i in range(p + 1)]
    runs = [rows[lo:hi] for lo, hi in zip(starts, starts[1:])]
    for run, lo, hi in zip(runs, starts, starts[1:]):
        assert (run[:, 1] == items[lo]).all()  # one run: consecutive items
        assert (run[:, 2] == hi - lo).all()
    pids = [int(run[0, 3]) for run in runs]
    assert pids[0] == os.getpid()
    assert len(set(pids)) == p  # each other run in a child of its own


@pytest.mark.parametrize("cores", [1, 3])
def test_no_items_map_one_empty_run_here(forks, cores):
    made, runs = forks(cores), []
    rows = _fork.map_rows(lambda run: runs.append(run) or np.empty((0, 2)), range(0), 5)
    assert runs == [range(0)] and rows.shape == (0, 2)
    assert len(made) == 0


def test_one_process_with_another_thread_alive(forks, monkeypatch):
    made = forks(3)
    monkeypatch.setattr(_fork.threading, "active_count", lambda: 2)
    rows = _fork.map_rows(tagged, range(6), 6)
    assert len(made) == 0
    assert (rows[:, 3] == os.getpid()).all()
