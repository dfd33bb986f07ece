"""Tests marked ``exhaustive`` enumerate a whole fault space and take
minutes; they run only with ``pytest --exhaustive``."""

import pytest


def pytest_addoption(parser):
    parser.addoption("--exhaustive", action="store_true",
                     help="also run the exhaustive fault enumerations")


def pytest_configure(config):
    config.addinivalue_line("markers", "exhaustive: enumerates a whole fault space "
                            "(run with --exhaustive)")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--exhaustive"):
        return
    skip = pytest.mark.skip(reason="exhaustive enumeration; run with --exhaustive")
    for item in items:
        if "exhaustive" in item.keywords:
            item.add_marker(skip)
