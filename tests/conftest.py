"""Shared fixtures: bundled scenarios and common collapsed variants."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import egstherm
from egstherm.scenario import bundled_scenario, collapse_to_single


def with_total_rate(sc, total_rate):
    op = dataclasses.replace(sc.operating, total_rate=total_rate)
    return dataclasses.replace(sc, operating=op)


def python_run(*args: str) -> subprocess.CompletedProcess:
    """Run a new interpreter that imports this egstherm with these arguments."""
    src = str(Path(egstherm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def fresh_python(code: str) -> str:
    """Run code in a new interpreter that imports this egstherm; return its stdout.

    What a new interpreter has in sys.modules shows what the code imported,
    which this test session's own imports would hide.
    """
    proc = python_run("-c", code)
    proc.check_returncode()
    return proc.stdout


@pytest.fixture(scope="session")
def valles():
    return bundled_scenario("valles_caldera")


@pytest.fixture(scope="session")
def zeinali():
    return bundled_scenario("zeinali")


@pytest.fixture(scope="session")
def valles_single(valles):
    return collapse_to_single(valles, faces=1)


@pytest.fixture(scope="session")
def valles_gringarten(valles):
    return collapse_to_single(valles, faces=2)
