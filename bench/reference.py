"""Fixed reference jobs that tell how fast the host is right now.

    python bench/reference.py {kernels,render} OUT

The benchmark runs one of these between its operations.  They never
import finsler9, so their time changes only with the host: on a shared
machine the other tenants can slow every process by half for tens of
seconds, and a job of the same make as a workload slows down by the same
factor as it does.  Dividing an operation's wall time by the reference's,
timed just before and just after it, leaves the part that the code under
test is responsible for.

- ``kernels``: one-vector 3x3 complex kernels in a Python loop, then one
  stacked kernel, like the ``suite`` and ``ensemble`` workloads.
- ``render``: rows of floats formatted to 17 digits as CSV and as nested
  JSON text and written to OUT, like the ``render`` workload.
"""

import sys

import numpy as np

import oracle

#: One-vector rounds and stacked rows of one ``kernels`` job.
ROUNDS = 3000
ROWS = 10_000
#: Rows of ten floats of one ``render`` job.
RENDER_ROWS = 10_000


def _fmt(value):
    return format(float(value), ".17g")


def kernels(rounds=ROUNDS, rows=ROWS):
    """The kernels job; returns a checksum so no step can be skipped."""
    rng = np.random.default_rng(12345)
    total = 0.0
    for _ in range(rounds):
        x = rng.uniform(-1.0, 1.0, size=9)
        m = oracle.hermitian(x)
        n = np.linalg.inv(m) * np.cbrt(np.linalg.det(m).real)
        total += float(np.abs(n @ m).sum()) + sum(v * v for v in x.tolist())
    return total + float(np.abs(oracle.momenta(rng.uniform(-1.0, 1.0, size=(rows, 9)))).sum())


def render(out, rows=RENDER_ROWS):
    """The render job; returns the number of characters written to ``out``."""
    x = np.random.default_rng(12345).uniform(-10.0, 10.0, size=(rows, 10))
    csv = "\n".join(",".join(_fmt(c) for c in row) for row in x) + "\n"
    doc = "[" + ", ".join(
        '{"s": ' + _fmt(row[0]) + ', "x": [' + ", ".join(_fmt(c) for c in row[1:]) + "]}"
        for row in x) + "]\n"
    with open(out, "w") as handle:
        return handle.write(csv) + handle.write(doc)


if __name__ == "__main__":
    job, out = sys.argv[1:]
    print(kernels() if job == "kernels" else render(out))
