import concurrent.futures
import os

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
def pooled_csv(monkeypatch):
    """Send every CSV table of one block or more through a two-worker format
    pool, whatever this host has; the list collects each pool made."""
    made = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, mp_context=None, **kwargs):
            made.append(self)
            self.start_method = mp_context and mp_context.get_start_method()
            super().__init__(max_workers, mp_context, **kwargs)

    monkeypatch.setattr(core, "CSV_PARALLEL_ROWS", core.CSV_BLOCK_ROWS)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    # write_csv imports the executor from concurrent.futures when it pools
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    return made


@pytest.fixture
def no_csv_pool(monkeypatch):
    """Fail any attempt to start a CSV format pool."""

    def refuse(*args, **kwargs):
        raise AssertionError("a CSV format pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
