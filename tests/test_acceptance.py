"""Acceptance suite: every release criterion at its stated tolerance.

Criteria 01-11 are the paper's invariants: each is a row of ``CRITERIA``
that names checks of ``finsler9.checks`` with a tolerance no looser than
the check's own.  Criteria 12-18 time whole commands and stacked kernels.
Each test prints one ``[PASS]``/``[FAIL]`` line (run ``pytest -s`` to see
them on passing runs) and enforces both the numeric tolerance and the
runtime budget of its criterion.
"""

import json
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np
import pytest

from finsler9 import (
    canonical_momenta,
    cubic_form,
    invert_momenta,
    momenta_matrix,
    unit_speed_velocity,
    vec_to_matrix,
)
from finsler9.checks import CHECK_NAMES, CHECKS, all_passed, run_checks

from faults import peak_rss_mb

DIAG_MOMENTA = ["-0.6666666666666666", "0", "0", "0", "0", "0", "0", "0",
                "-0.3333333333333333"]

SPECS = {spec.name: spec for spec in CHECKS}


def verdict(name, ok, elapsed, budget):
    status = "PASS" if (ok and elapsed < budget) else "FAIL"
    print(f"[{status}] {name} ({elapsed:.3f} s, budget {budget:g} s)")
    assert ok, f"{name}: tolerance violated"
    assert elapsed < budget, f"{name}: {elapsed:.3f} s over budget {budget} s"


@dataclass(frozen=True)
class Criterion:
    """Release criterion: each of ``checks`` passes at its tolerance within ``budget`` seconds.

    Check ``name`` runs ``trials`` trials on ``default_rng([seed, CHECK_NAMES.index(name)])``,
    the generator that ``run_checks(seed, trials)`` gives it.
    """

    name: str
    checks: dict  # check name -> tolerance, compared in the check's own direction
    trials: int
    seed: int
    budget: float


CRITERIA = [
    Criterion("01 determinant identity", {"determinant_identity": 1e-11}, 1000, 1001, 1.0),
    Criterion("02 metric tensor faithfulness", {"metric_contraction": 1e-12}, 1000, 1002, 1.0),
    Criterion("03 cubic form invariance", {"group_invariance": 1e-9}, 200, 1003, 2.0),
    Criterion("04 basis duality (81 exact pairs)", {"duality": 0.0}, 1, 1004, 1e-3),
    Criterion("05 momenta gradient oracle", {"gradient_oracle": 1e-6}, 500, 1005, 2.0),
    Criterion("06 velocity-momentum matrix identity", {"matrix_identity": 1e-10}, 1000, 1006, 1.0),
    Criterion("07 zero canonical energy", {"zero_energy": 1e-10}, 500, 1007, 1.0),
    Criterion("08 momentum inversion round trip",
              {"inversion_round_trip": 1e-9, "adjugate_vs_inverse": 1e-11,
               "momentum_constraint": 1e-9, "unit_determinant": 1e-9}, 500, 1008, 2.0),
    Criterion("09 straight-line action stationarity", {"stationarity": 0.1}, 1, 1009, 5.0),
    Criterion("10 block decomposition of embedded elements",
              {"block_structure": 1e-12, "scalar_invariance": 1e-12,
               "lorentz_preservation": 1e-10}, 200, 1010, 2.0),
    Criterion("11 relativistic limit of the action",
              {"action_equality": 1e-10, "action_kappa_sensitivity": 1e-3}, 100, 1011, 2.0),
]


def holds(name, tolerance, residuals):
    """``run_checks``' verdict: every residual on the check's side of ``tolerance``; NaN fails."""
    if SPECS[name].cmp == "le":
        return bool(np.all(residuals <= tolerance))
    return bool(np.all(residuals >= tolerance))


ENTRIES = [(criterion, name) for criterion in CRITERIA for name in criterion.checks]


@pytest.mark.parametrize("criterion, name", ENTRIES,
                         ids=[f"{c.name.split()[0]}-{name}" for c, name in ENTRIES])
def test_a_criterion_names_a_check_at_no_looser_tolerance(criterion, name):
    # a tolerance is no looser than its check's when it would pass as a residual of the check
    assert name in CHECK_NAMES, (criterion.name, name)
    assert holds(name, SPECS[name].tolerance, criterion.checks[name]), (criterion.name, name)


@pytest.mark.parametrize("criterion", CRITERIA, ids=[c.name.split()[0] for c in CRITERIA])
def test_a_criterion_holds_within_its_budget(criterion):
    start = time.perf_counter()
    failed = [name for name, tolerance in criterion.checks.items()
              if not holds(name, tolerance, SPECS[name].fn(
                  np.random.default_rng([criterion.seed, CHECK_NAMES.index(name)]),
                  criterion.trials))]
    elapsed = time.perf_counter() - start
    verdict(criterion.name + "".join(f", {name} failed" for name in failed), not failed,
            elapsed, criterion.budget)


def test_12_cli_determinism(tmp_path):
    start = time.perf_counter()
    reports = []
    for run in range(2):
        path = tmp_path / f"report{run}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "finsler9", "check", "--seed", "0",
             "--trials", "100", "--out", str(path)],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        reports.append(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "-m", "finsler9", "propagate",
         "--x0", *(["0"] * 9), "--momenta", *DIAG_MOMENTA,
         "--s-max", "1", "--samples", "3"],
        capture_output=True, text=True,
    )
    expected = (
        "s,X0,X1,X2,X3,X4,X5,X6,X7,X8\n"
        "0,0,0,0,0,0,0,0,0,0\n"
        "0.5,0.5,0,0,0,0,0,0,0,0.5\n"
        "1,1,0,0,0,0,0,0,0,1\n"
    )
    ok = (reports[0] == reports[1] and proc.returncode == 0
          and proc.stdout == expected)
    verdict("12 command line determinism", ok, time.perf_counter() - start, 5.0)


def test_13_invariant_suite_runtime():
    start = time.perf_counter()
    report = run_checks(seed=0, trials=500)
    ok = len(report) == 27 and all_passed(report)
    verdict("13 invariant suite, 27 checks at 500 trials", ok,
            time.perf_counter() - start, 1.0)


def test_18_invariant_suite_memory(tmp_path):
    # memory holds the draws plus one block of evaluation; holding every
    # trial's arrays at once, the same command peaked at about 254 MB
    path = tmp_path / "report.json"
    start = time.perf_counter()
    peak = peak_rss_mb(["-m", "finsler9", "check", "--seed", "0", "--trials", "5000",
                        "--out", str(path)])
    elapsed = time.perf_counter() - start
    report = json.loads(path.read_text())
    print(f"peak RSS {peak:.1f} MB")
    ok = len(report) == 27 and all_passed(report) and peak < 80.0
    verdict("18 invariant suite at 5000 trials in under 80 MB", ok, elapsed, 5.0)


def test_14_propagate_runtime(tmp_path):
    for fmt in ("csv", "json"):
        path = tmp_path / f"trajectory.{fmt}"
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "finsler9", "propagate", "--format", fmt,
             "--x0", *(["0"] * 9), "--momenta", *DIAG_MOMENTA,
             "--s-max", "1", "--samples", "100000", "--out", str(path)],
            capture_output=True, text=True,
        )
        elapsed = time.perf_counter() - start
        text = path.read_text()
        if fmt == "csv":
            rows = text.splitlines()
            ok = len(rows) == 100001 and rows[-1] == "1,1,0,0,0,0,0,0,0,1"
        else:
            samples = json.loads(text)["samples"]
            ok = len(samples) == 100000 and samples[-1] == {"s": 1, "x": [1] + [0] * 7 + [1]}
        verdict(f"14 propagate, 100000 samples as {fmt.upper()}",
                proc.returncode == 0 and ok, elapsed, 2.0)


def test_17_propagate_full_precision_runtime(tmp_path):
    # test 14's rows are mostly 0 and integers; these have 17 significant digits
    rng = np.random.default_rng(1017)
    x0 = rng.uniform(-10, 10, size=9)
    momenta = canonical_momenta(unit_speed_velocity(rng))
    s_max = rng.uniform(1, 10)
    v0 = invert_momenta(momenta)
    last = [s_max, *(x0 + s_max * v0)]
    argv = ["--x0", *[format(v, ".17g") for v in x0],
            "--momenta", *[format(v, ".17g") for v in momenta],
            "--s-max", format(s_max, ".17g"), "--samples", "100000"]
    for fmt in ("csv", "json"):
        path = tmp_path / f"trajectory.{fmt}"
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "finsler9", "propagate", "--format", fmt, *argv,
             "--out", str(path)],
            capture_output=True, text=True,
        )
        elapsed = time.perf_counter() - start
        text = path.read_text()
        if fmt == "csv":
            rows = text.splitlines()
            ok = len(rows) == 100001 and rows[-1] == ",".join(format(v, ".17g") for v in last)
        else:
            samples = json.loads(text)["samples"]
            ok = len(samples) == 100000 and samples[-1] == {"s": last[0], "x": last[1:]}
        verdict(f"17 propagate, 100000 full-precision samples as {fmt.upper()}",
                proc.returncode == 0 and ok, elapsed, 2.0)


def test_15_stacked_basis_maps_runtime():
    x = np.random.default_rng(1015).uniform(-1, 1, size=(100_000, 9))
    dual_scale = np.array([1.0] * 8 + [2.0])  # momenta_matrix(p) == vec_to_matrix(D p)
    for func, scale in ((vec_to_matrix, 1.0), (momenta_matrix, dual_scale)):
        func(x)  # untimed: the allocator maps fresh pages for the first outputs
        times = []
        for _ in range(3):
            start = time.perf_counter()
            m = func(x)
            times.append(time.perf_counter() - start)
        head = x[:1000] * scale
        det = np.linalg.det(m[:1000])
        bound = 1e-12 * np.maximum(1.0, np.linalg.norm(head, axis=1) ** 3)
        ok = bool(
            m.shape == (100_000, 3, 3)
            and np.array_equal(m, np.conj(np.swapaxes(m, -1, -2)))
            and np.all(np.abs(det.real - cubic_form(head)) <= bound)
            and np.all(np.abs(det.imag) <= bound)
        )
        verdict(f"15 {func.__name__} on 100000 stacked vectors, min of 3", ok,
                min(times), 0.02)


def test_16_stacked_mechanics_runtime():
    v = unit_speed_velocity(np.random.default_rng(1016), size=100_000)
    invert_momenta(canonical_momenta(v))  # untimed: fresh pages for the first outputs
    times = []
    for _ in range(3):
        start = time.perf_counter()
        back = invert_momenta(canonical_momenta(v))
        times.append(time.perf_counter() - start)
    error = np.abs(back - v).max(axis=1) / np.linalg.norm(v, axis=1) ** 3
    print(f"worst round-trip error over |v|^3: {error.max():.3e}")
    verdict("16 canonical_momenta then invert_momenta on 100000 stacked velocities, min of 3",
            back.shape == v.shape and error.max() <= 1e-12, min(times), 0.5)
