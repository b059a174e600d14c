"""Minor page faults and peak memory, counted in a fresh interpreter."""

import os
import subprocess
import sys

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
