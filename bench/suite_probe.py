"""Times ``run_checks`` and each of its checks, in one process.

Run as ``python bench/suite_probe.py SEED TRIALS ROUNDS``; prints one JSON
line with the seconds of the median of ROUNDS calls of ``run_checks``.
Each check function is wrapped in a timer, so ``run_checks`` itself calls
check ``i`` with ``default_rng([seed, i])`` and the per-check times and the
total come from the same pass.  The report of the last pass is printed
too; its worst residuals must equal the ones the ``check`` command reports.
"""

import dataclasses
import json
import statistics
import sys
import time

from finsler9 import checks


def timed(spec, seconds):
    def fn(rng, trials):
        t0 = time.perf_counter()
        residuals = spec.fn(rng, trials)
        seconds[spec.name] = time.perf_counter() - t0
        return residuals

    return dataclasses.replace(spec, fn=fn)


def main(seed, trials, rounds):
    totals, passes = [], []
    originals = list(checks.CHECKS)
    for _ in range(rounds):
        seconds = {}
        checks.CHECKS[:] = [timed(spec, seconds) for spec in originals]
        t0 = time.perf_counter()
        report = checks.run_checks(seed=seed, trials=trials)
        totals.append(time.perf_counter() - t0)
        passes.append(seconds)
    checks.CHECKS[:] = originals
    middle = totals.index(statistics.median_low(totals))
    print(json.dumps({"run_checks_s": totals[middle], "seconds": passes[middle],
                      "report": report}))


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3]))
