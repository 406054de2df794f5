"""A per-test time limit: a test that hangs fails with a traceback naming it.

``faulthandler.dump_traceback_later`` is armed around each test.  If the
test runs past the limit, every thread's traceback goes to the terminal
and the process exits, so a run can never hang; the traceback's frames
name the test.  Pytest captures the test's own stderr, so the traceback
goes to a copy of the stream pytest itself writes to, made once while
capture is off.
"""

import faulthandler
import os

import pytest

TEST_TIMEOUT_S = 120


@pytest.fixture(scope="session")
def real_stderr(request):
    capture = request.config.pluginmanager.getplugin("capturemanager")
    with capture.global_and_fixture_disabled():
        fd = os.dup(2)
    with os.fdopen(fd, "w") as stream:
        yield stream


@pytest.fixture(autouse=True)
def time_limit(real_stderr):
    faulthandler.dump_traceback_later(TEST_TIMEOUT_S, exit=True, file=real_stderr)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
