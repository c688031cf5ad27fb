r"""
Test configuration shared by every test directory: a wall-time bound
on each test, registered here at the root of the checkout so that it
holds whichever of tests/ and bench/ a run collects.
"""

import contextlib
import signal

import pytest

# wall-time bound of each phase (setup, call, teardown) of a test, far
# above the slowest test (~3 s), so that a loop that never ends fails its
# own test instead of hanging the suite
TIME_BOUND_S = 60


class TimeBoundExceeded(BaseException):
    r"""
    Raised in a test that runs past TIME_BOUND_S.  A BaseException, so
    neither the test's own ``except Exception`` nor Hypothesis, which
    would rerun a failing example to shrink it, catches it.
    """


@contextlib.contextmanager
def _bounded(item):
    def expire(signum, frame):
        raise TimeBoundExceeded("%s ran past %d s"
                                % (item.nodeid, TIME_BOUND_S))

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_BOUND_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class _TimeBound:
    # each phase on its own, so that a fixture's setup is bounded too

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_setup(self, item):
        with _bounded(item):
            yield

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(self, item):
        with _bounded(item):
            yield

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_teardown(self, item):
        with _bounded(item):
            yield


def pytest_configure(config):
    # a named plugin, so that --trace-config lists it as registered
    config.pluginmanager.register(_TimeBound(), "curvelat-time-bound")
