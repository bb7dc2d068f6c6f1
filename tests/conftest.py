import os
import tracemalloc

import pytest

from motionsnn import assemble_network, tessellate
from motionsnn import core

# Filled by tests/test_acceptance.py; shown after the run so the checklist
# survives output capture.
acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def default_layout():
    return tessellate(10, 11)


@pytest.fixture(scope="session")
def default_net(default_layout):
    return assemble_network(default_layout)


@pytest.fixture
def usable_cpus(monkeypatch):
    """Set how many CPUs the CSV writer sees as usable, whatever this host has."""

    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    return use


@pytest.fixture
def forks(monkeypatch):
    """Record the pid of every child that os.fork starts in this process."""
    made = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return made


@pytest.fixture
def no_fork(monkeypatch):
    """Fail any attempt to fork a child."""

    def refuse():
        raise AssertionError("a child process was forked")

    monkeypatch.setattr(os, "fork", refuse)


@pytest.fixture
def failing_children(monkeypatch):
    """Make the CSV block formatter raise the given error in every process
    but this one, so only forked part writers fail."""

    def fail(error):
        parent, real = os.getpid(), core._format_block

        def format_block(row, columns, i):
            if os.getpid() != parent:
                raise error
            return real(row, columns, i)

        monkeypatch.setattr(core, "_format_block", format_block)

    return fail


@pytest.fixture
def peak_bytes():
    """Peak of the memory traced while fn(*args) runs, above what was traced
    before; numpy reports its data buffers to tracemalloc."""

    def peak(fn, *args) -> int:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fn(*args)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    return peak
