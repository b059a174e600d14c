"""Minor page faults, peak memory and exit costs, counted in a fresh interpreter."""

import os
import subprocess
import sys
import time
from typing import NamedTuple

import pytest


def minor_faults(code):
    """The number ``code`` prints when run in a fresh interpreter.

    ``code`` may call ``minflt()``, the process's minor page faults so far,
    from ``getrusage``; a page that glibc's malloc gave back to the kernel
    and that is written again counts once more.
    """
    pytest.importorskip("resource")
    prelude = ("import resource\n"
               "def minflt():\n"
               "    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n")
    run = subprocess.run([sys.executable, "-c", prelude + code],
                         capture_output=True, text=True, check=True)
    return int(run.stdout)


# Linux carries a process's RSS high-water mark across exec, and a child
# starts from its parent's pages, so a child of a large process (pytest)
# reports at least that process's size.  A bare launcher spawns the child
# instead and reports the child's own ``ru_maxrss`` (KiB on Linux).
_LAUNCHER = """import os, sys
pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ,
                     file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def peak_rss_mb(argv):
    """Peak resident memory, in MiB, of a fresh ``python argv...`` process.

    It is the child's ``ru_maxrss`` from ``os.wait4``.  A nonzero exit
    raises ``CalledProcessError`` with the child's stderr.
    """
    if not hasattr(os, "posix_spawn") or not hasattr(os, "wait4"):
        pytest.skip("needs os.posix_spawn and os.wait4")
    run = subprocess.run([sys.executable, "-c", _LAUNCHER, *argv],
                         capture_output=True, text=True, check=True)
    code, maxrss = map(int, run.stdout.split())
    if code:
        raise subprocess.CalledProcessError(code, argv, stderr=run.stderr)
    return maxrss / 1024.0


# Runs ``python -m finsler9 argv...`` as runpy does, with ``cli.main`` wrapped
# to note when it is called and when it returns.  The atexit hook, registered
# first and so run last, writes those times and the collector's freeze count
# to the descriptor given as the first argument.
_EXIT_LAUNCHER = """import atexit, gc, os, runpy, sys, time
fd, now = int(sys.argv[1]), lambda: time.clock_gettime(time.CLOCK_MONOTONIC)
marks = [float("nan")] * 2
atexit.register(lambda: os.write(fd, f"{gc.get_freeze_count()} {marks[0]!r} {marks[1]!r}".encode()))
import finsler9.cli
main = finsler9.cli.main
def timed_main(argv=None):
    marks[0] = now()
    try:
        return main(argv)
    finally:
        marks[1] = now()
finsler9.cli.main = timed_main
sys.argv = ["finsler9", *sys.argv[2:]]
runpy.run_module("finsler9", run_name="__main__")
"""


class ExitProfile(NamedTuple):
    code: int          #: the exit code
    frozen: int        #: ``gc.get_freeze_count()`` when the atexit hooks run
    startup_s: float   #: from the spawn to ``cli.main`` being called
    main_s: float      #: in ``cli.main``
    teardown_s: float  #: from ``cli.main`` returning to the child being reaped


def exit_profile(argv):
    """Where a fresh ``python -m finsler9 argv...`` process spends its time.

    The child's stdout and stderr go to ``os.devnull``.  Times come from
    ``CLOCK_MONOTONIC``, which parent and child share; a process that ends
    before ``cli.main`` returns gives NaN for the phases it did not reach,
    and one that skips its atexit hooks (``os._exit``, a signal) reports
    nothing, which raises ValueError.  This is a probe, not a timing gate.
    """
    if not hasattr(time, "clock_gettime"):
        pytest.skip("needs time.clock_gettime")
    read, write = os.pipe()
    with os.fdopen(read, "rb") as report:
        try:
            start = time.clock_gettime(time.CLOCK_MONOTONIC)
            proc = subprocess.Popen([sys.executable, "-c", _EXIT_LAUNCHER, str(write), *argv],
                                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                    pass_fds=(write,))
        finally:
            os.close(write)
        code = proc.wait()
        reaped = time.clock_gettime(time.CLOCK_MONOTONIC)
        frozen, called, returned = report.read().split()
    called, returned = float(called), float(returned)
    return ExitProfile(code, int(frozen), called - start, returned - called, reaped - returned)
