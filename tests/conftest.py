"""Shared fixtures: small traces and profiles, cached per session."""

from __future__ import annotations

import pytest

from repro.core import nehalem
from repro.profiler import SamplingConfig, profile_application
from repro.workloads import generate_trace, make_workload

TRACE_LENGTH = 20_000
SAMPLING = SamplingConfig(micro_trace_length=1000, window_length=5000)


@pytest.fixture(scope="session")
def gcc_trace():
    return generate_trace(make_workload("gcc"), max_instructions=TRACE_LENGTH)


@pytest.fixture(scope="session")
def mcf_trace():
    return generate_trace(make_workload("mcf"), max_instructions=TRACE_LENGTH)


@pytest.fixture(scope="session")
def libquantum_trace():
    return generate_trace(
        make_workload("libquantum"), max_instructions=TRACE_LENGTH
    )


@pytest.fixture(scope="session")
def gamess_trace():
    return generate_trace(
        make_workload("gamess"), max_instructions=TRACE_LENGTH
    )


@pytest.fixture(scope="session")
def gcc_profile(gcc_trace):
    return profile_application(gcc_trace, SAMPLING)


@pytest.fixture(scope="session")
def mcf_profile(mcf_trace):
    return profile_application(mcf_trace, SAMPLING)


@pytest.fixture(scope="session")
def libquantum_profile(libquantum_trace):
    return profile_application(libquantum_trace, SAMPLING)


@pytest.fixture(scope="session")
def gamess_profile(gamess_trace):
    return profile_application(gamess_trace, SAMPLING)


@pytest.fixture(scope="session")
def reference_config():
    return nehalem()


@pytest.fixture
def pool_starts(monkeypatch):
    """On a pretended 4-CPU host, record every attempt to start a
    ``multiprocessing.Pool`` (each raises): a test asserts the list
    stays empty to show its code ran in-process."""
    import multiprocessing
    import os

    started = []

    def no_pool(*args, **kwargs):
        started.append(kwargs)
        raise OSError("worker processes are off limits here")

    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    return started
