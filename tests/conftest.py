"""Shared pytest configuration."""


def pytest_report_header(config):
    # pyproject.toml puts this checkout's src/ ahead of PYTHONPATH, so the
    # package under test is the one beside the tests run; name it.
    import lmroofline

    return f"lmroofline: {lmroofline.__file__}"

