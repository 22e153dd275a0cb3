"""Fixtures shared by the test modules."""

import os

import pytest


@pytest.fixture
def forks(monkeypatch):
    """The pid of every child forked, in order: a fork_map call of n shares forks n - 1.

    fork_map gives the caller back the affinity it read, so a test that patches
    ``os.sched_getaffinity`` has the real one restored afterwards."""
    forked, fork, usable = [], os.fork, os.sched_getaffinity(0)

    def recorded():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    yield forked
    os.sched_setaffinity(0, usable)
