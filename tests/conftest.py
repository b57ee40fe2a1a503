import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

_ACCEPTANCE_RESULTS: list[tuple[str, str]] = []


def record_acceptance(name: str, passed: bool) -> None:
    _ACCEPTANCE_RESULTS.append((name, "PASS" if passed else "FAIL"))


def returns_within(seconds: float, func, *args, **kwargs):
    """func(*args, **kwargs), failing the test if it has not returned within
    ``seconds``: a loop that never ends is left spinning in a daemon thread
    instead of hanging the suite."""
    result = []
    worker = threading.Thread(target=lambda: result.append(func(*args, **kwargs)),
                              daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), f"{func.__name__} did not return within {seconds} s"
    assert result, f"{func.__name__} raised"
    return result[0]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, verdict in _ACCEPTANCE_RESULTS:
        terminalreporter.write_line(f"{verdict}  {name}")


@pytest.fixture
def rng():
    import numpy as np

    return np.random.default_rng(12345)
