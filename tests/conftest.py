"""Shared pytest configuration."""

import pytest


def pytest_report_header(config):
    # pyproject.toml puts this checkout's src/ ahead of PYTHONPATH, so the
    # package under test is the one beside the tests run; name it.
    import lmroofline

    return f"lmroofline: {lmroofline.__file__}"


@pytest.fixture(autouse=True)
def empty_prefill_slot():
    # end_to_end keeps the last arm prefill it built. A test starts as a
    # fresh process does, so what it counts does not depend on the tests
    # run before it.
    from lmroofline import roofline

    roofline._last_prefill = None
