"""Correctness gates: each raises GateError when an output is wrong.

A gate that raises turns its operation into a failed one, which is what the
benchmark's ``failed`` count reports.  Tolerances are fixed here, far above
the rounding error measured on correct outputs and far below what any
corrupted value produces.
"""

import json

import numpy as np

import oracle

EPS = np.finfo(float).eps

#: Round-trip error allowed, in units of eps * |x|^3 / |f| (the library's
#: conditioning); correct inversions stay below 40 on 1e7 draws.
ROUND_TRIP_UNITS = 1000.0
#: Relative tolerances of exact identities; correct outputs stay below
#: 1e-14 on 10 000 particles.
LINE_TOL = 1e-12
IDENTITY_TOL = 1e-12
CLOSURE_TOL = 1e-12
ARC_TOL = 1e-11

CSV_HEADER = "s," + ",".join(f"X{a}" for a in range(9))
N_CHECKS = 27


class GateError(Exception):
    pass


def _require(ok, message):
    if not ok:
        raise GateError(message)


def suite_report(exit_code, text):
    """The check command exited 0 and its report lists 27 passing checks."""
    _require(exit_code == 0, f"check exited {exit_code}")
    report = json.loads(text)
    _require(len(report) == N_CHECKS, f"report lists {len(report)} checks")
    failing = [name for name, entry in report.items() if entry["failures"] != 0]
    _require(not failing, f"failing checks: {failing}")
    return report


def same_residuals(report, worst):
    """Worst residuals timed in-process equal the ones the CLI reported."""
    differ = [name for name, value in worst.items()
              if report[name]["worst_residual"] != value]
    _require(not differ, f"in-process residuals differ from the report: {differ}")


def render(csv_text, json_text, x0, v, s_max, samples):
    """Every CSV row and JSON sample lies on ``x0 + s v``, identically in both."""
    header, _, body = csv_text.partition("\n")
    _require(header == CSV_HEADER, f"CSV header {header!r}")
    rows = np.loadtxt(body.splitlines(), delimiter=",", ndmin=2)
    _require(rows.shape == (samples, 10), f"CSV shape {rows.shape}")
    doc = json.loads(json_text)
    _require(doc["kappa"] == oracle.KAPPA, f"JSON kappa {doc['kappa']!r}")
    _require(np.array_equal(doc["x0"], x0), "JSON x0 differs from the input")
    _require(len(doc["samples"]) == samples, f"JSON has {len(doc['samples'])} samples")
    sample_rows = np.array([[smp["s"]] + smp["x"] for smp in doc["samples"]], dtype=float)
    _require(sample_rows.shape == rows.shape, f"JSON sample shape {sample_rows.shape}")
    _require(np.array_equal(rows, sample_rows), "CSV and JSON values differ")
    v0 = np.asarray(doc["v0"], dtype=float)
    _require(np.abs(v0 - v).max() <= ROUND_TRIP_UNITS * EPS * np.linalg.norm(v) ** 3,
             "JSON v0 differs from the velocity the momenta came from")
    s = rows[:, 0]
    _require(np.array_equal(s, np.linspace(0.0, s_max, samples)), "s grid differs")
    scale = np.abs(x0).max() + s_max * np.abs(v).max()
    gap = np.abs(rows[:, 1:] - (x0 + s[:, None] * v0)).max()
    _require(gap <= LINE_TOL * scale, f"point off the line by {gap:.3e}")


def round_trip(v, back):
    """Inverted momenta return each velocity within its conditioning bound."""
    bound = ROUND_TRIP_UNITS * EPS * np.linalg.norm(v, axis=1) ** 3 / np.abs(oracle.cubic(v))
    err = np.abs(back - v).max(axis=1)
    bad = np.flatnonzero(~(err <= bound))
    _require(bad.size == 0, f"{bad.size} round trips exceed eps*|x|^3/|f| bound")


def group_action(v, w, ell):
    """``w = D v D^+`` keeps the cubic form and equals ``ell @ v`` row by row."""
    size = np.maximum(np.linalg.norm(v, axis=1), np.linalg.norm(w, axis=1))
    drift = np.abs(oracle.cubic(w) - oracle.cubic(v))
    _require(np.all(drift <= IDENTITY_TOL * size**3), "cubic form changed under D")
    gap = np.abs(w - v @ ell.T).max(axis=1)
    scale = np.abs(ell).max() * np.abs(v).max(axis=1)
    _require(np.all(gap <= IDENTITY_TOL * scale), "conjugation and group_action differ")


def closure(x4, spinor, nine, residual):
    """Assembled velocities keep their inputs and close the 4D constraint."""
    _require(np.array_equal(nine[:, :4], x4) and np.array_equal(nine[:, 4:8], spinor),
             "assembled velocity changed its inputs")
    scale = np.maximum(1.0, oracle.minkowski_sq(x4) ** 1.5)
    _require(np.all(np.abs(residual) <= CLOSURE_TOL * scale), "constraint residual too large")
    gap = np.abs(oracle.cubic(nine) - oracle.minkowski_sq(x4) ** 1.5)
    _require(np.all(gap <= CLOSURE_TOL * scale), "cubic form misses |v|^3 of the 4D limit")


def arc(s, length):
    """Cubic-norm arc length of a unit-speed line equals its parameter."""
    gap = np.abs(np.asarray(length) - s).max()
    _require(gap <= ARC_TOL * max(1.0, s[-1]), f"arc length off by {gap:.3e}")
