"""Minor page faults counted inside a fresh interpreter."""

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
