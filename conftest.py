"""Shared by every test directory."""

import os

import pytest


@pytest.fixture(autouse=True)
def _restore_cpu_affinity():
    """Put back the CPU affinity of the test process after each test; a test
    that runs the benchmark in-process pins it to one CPU."""
    if not hasattr(os, "sched_getaffinity"):
        yield
        return
    before = os.sched_getaffinity(0)
    yield
    if os.sched_getaffinity(0) != before:
        os.sched_setaffinity(0, before)
