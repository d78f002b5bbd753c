"""Shared fixtures: bundled scenarios and common collapsed variants."""

import dataclasses

import pytest

from egstherm.scenario import bundled_scenario, collapse_to_single


def with_total_rate(sc, total_rate):
    op = dataclasses.replace(sc.operating, total_rate=total_rate)
    return dataclasses.replace(sc, operating=op)


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
