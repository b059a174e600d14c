"""Tests for the command line front end: formats, exit codes, determinism.

``OUTCOMES`` is one table of one-command outcomes: each row is an argv
with its exact exit code, whole stdout and whole stderr.  One property
runs every row in process, again with an ``--out`` file added (which then
holds the stdout, or does not exist after a refusal), and as a
``python -m finsler9`` process where the row asks; one guard checks that
every exit code and every token the CLI can print is some row's.  The
tests below the table build on seeded data or library oracles, or on what
the process does around ``main``.
"""

import gc
import json
import os
import pathlib
import re
import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finsler9
from finsler9 import (
    FinslerError,
    __version__,
    assemble_velocity,
    canonical_momenta,
    checks,
    cubic_form,
    invert_momenta,
    minkowski_norm_sq,
    unit_speed_velocity,
)
from finsler9._render import CHUNK_ROWS, Renderer
from finsler9.cli import _fmt, _to_json, main

from faults import exit_profile, minor_faults

DIAG_MOMENTA = ["-0.6666666666666666", "0", "0", "0", "0", "0", "0", "0",
                "-0.3333333333333333"]
ZEROS9 = ["0"] * 9


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fmt17(x):
    return format(float(x), ".17g")


def assert_same_text(got, expected):
    # a short message: pytest's own diff of megabyte strings takes minutes
    if got != expected:
        at = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b),
                  min(len(got), len(expected)))
        near = slice(max(at - 40, 0), at + 40)
        pytest.fail(f"texts of {len(got)} and {len(expected)} chars differ at {at}: "
                    f"{got[near]!r} != {expected[near]!r}")


class Outcome(NamedTuple):
    """One command and its whole outcome: exit code, stdout and stderr.

    ``{tmp}`` in the argv or the stderr is the test's ``tmp_path``, where
    ``files`` (name -> text) are written first.  ``process``: the same three
    parts again from a ``python -m finsler9`` process.
    """
    argv: list
    code: int
    stdout: str
    stderr: str
    files: dict = None
    process: bool = False


LINE_HEAD = "s," + ",".join(f"X{a}" for a in range(9)) + "\n"
INVERT_HEAD = ",".join(f"X{a}dot" for a in range(9)) + ",det\n"
TRANSFORM_HEAD = ",".join(f"X{a}p" for a in range(9)) + ",cubic_in,cubic_out\n"
REDUCE4D_HEAD = "x8dot,finsler_density,minkowski_density\n"
PROPAGATE = ["propagate", "--x0", *ZEROS9, "--s-max", "1"]
DIAG_LINE = [*PROPAGATE, "--momenta", *DIAG_MOMENTA, "--samples", "3"]
FAR_LINE = ["propagate", "--x0", *ZEROS9[:8], "1e308", "--momenta", *DIAG_MOMENTA,
            "--s-max", "1e308", "--samples", "2"]
INVERT = ["invert", "--momenta"]
# momenta that invert_momenta admits, whose velocity misses unit speed by 1.8e-8
EDGE_MOMENTA = [fmt17(p) for p in canonical_momenta(
    unit_speed_velocity(np.random.default_rng(0))) * (1 + 3e-9)]
# on the constraint, but singular relative to their norm
ILL_CONDITIONED = [fmt17(p) for p in (2.0**-52 / 3, 0, 0, -(2.0**-52) / 3, 2.0**27 / 3,
                                      0, 0, 0, 0)]
IDENTITY_18 = ["1", *ZEROS9[:7], "1", *ZEROS9[:7], "1", "0"]
TRANSFORM = ["transform", "--entries"]
REDUCE4D = ["reduce4d", "--xdot47", *ZEROS9[:4], "--xdot03"]
REST = [*REDUCE4D, "1", "0", "0", "0"]
CHECK = ["check", "--trials", "1"]
KAPPA_RANGE = "kappa must be nonzero, with 2^-300 <= |kappa| <= 2^300, got"
MASS_AND_C = "Usage: --mass and --c (kappa = -mass * c):"
NOT_A_FLOAT = "could not convert string to float: 'abc'"
NO_DIRECTORY = "MalformedInput: --out: [Errno 2] No such file or directory: '{tmp}/missing/x'\n"
ZERO_MOMENTA = "InconsistentMomenta: residual 2.962963e-01 exceeds 2.963e-09\n"
NINE_ARGUMENTS = "Usage: argument --momenta: expected 9 arguments\n"
TOLERANCE = "Usage: the tolerance of duality is"

#: name -> the outcome of one command.
OUTCOMES = {
    "propagate": Outcome(DIAG_LINE, 0, LINE_HEAD + "0,0,0,0,0,0,0,0,0,0\n"
                         "0.5,0.5,0,0,0,0,0,0,0,0.5\n1,1,0,0,0,0,0,0,0,1\n", ""),
    "propagate-one-sample": Outcome(
        ["propagate", "--x0", *map(str, range(9)), "--momenta", *DIAG_MOMENTA,
         "--s-max", "5", "--samples", "1"], 0, LINE_HEAD + "0,0,1,2,3,4,5,6,7,8\n", ""),
    "propagate-exponent-negatives": Outcome(
        ["propagate", "--x0", "-1e-05", "-1.2345678901234568e+20", *ZEROS9[2:],
         "--momenta", *DIAG_MOMENTA, "--s-max", "-2.5e-01", "--samples", "2"], 0,
        LINE_HEAD + "0,-1.0000000000000001e-05,-1.2345678901234568e+20,0,0,0,0,0,0,0\n"
        "-0.25,-0.25001000000000001,-1.2345678901234568e+20,0,0,0,0,0,0,-0.25\n", ""),
    "propagate-zero-momenta": Outcome(
        [*PROPAGATE, "--momenta", *ZEROS9, "--samples", "3"], 2, "", ZERO_MOMENTA),
    "propagate-edge-momenta": Outcome(
        [*PROPAGATE, "--momenta", *EDGE_MOMENTA, "--samples", "3"], 2, "",
        "NotUnitSpeed: |det - 1| = 1.800e-08 exceeds 1.0e-09\n"),
    "propagate-far": Outcome(
        FAR_LINE, 2, "", "NonRealEntry: the world line is beyond the float range\n"),
    "propagate-far-json": Outcome(
        [*FAR_LINE, "--format", "json"], 2, "",
        "NonRealEntry: the world line is beyond the float range\n", process=True),
    "propagate-letters": Outcome(
        [*PROPAGATE, "--momenta", *DIAG_MOMENTA[:8], "abc", "--samples", "3"], 1, "",
        f"MalformedInput: --momenta: {NOT_A_FLOAT}\n"),
    "propagate-inf": Outcome(
        [*PROPAGATE, "--momenta", *DIAG_MOMENTA[:8], "inf", "--samples", "3"], 1, "",
        "MalformedInput: --momenta: values must be finite\n"),
    "propagate-zero-samples": Outcome(
        [*PROPAGATE, "--momenta", *DIAG_MOMENTA, "--samples", "0"], 64, "",
        "Usage: --samples must be at least 1\n"),
    "propagate-kappa-0": Outcome([*DIAG_LINE, "--kappa", "0"], 64, "",
                                 f"Usage: {KAPPA_RANGE} 0.0\n"),
    "propagate-kappa-1e300": Outcome([*DIAG_LINE, "--kappa", "1e300"], 64, "",
                                     f"Usage: {KAPPA_RANGE} 1e+300\n"),
    "propagate-kappa-1e-120": Outcome([*DIAG_LINE, "--kappa", "1e-120"], 64, "",
                                      f"Usage: {KAPPA_RANGE} 1e-120\n"),
    "propagate-out-in-no-directory": Outcome(
        [*DIAG_LINE, "--out", "{tmp}/missing/x"], 1, "", NO_DIRECTORY),
    "invert": Outcome([*INVERT, *DIAG_MOMENTA], 0, INVERT_HEAD + "1,0,0,0,0,0,0,0,1,1\n", "",
                      process=True),
    "invert-exponent-negatives": Outcome(
        [*INVERT, "-6.6666666666666663e-01", *ZEROS9[:7], "-3.3333333333333331e-01"], 0,
        INVERT_HEAD + "1,0,0,0,0,0,0,0,1,1\n", ""),
    "invert-small-exponent-negative": Outcome(
        [*INVERT, DIAG_MOMENTA[0], "-1e-05", *ZEROS9[:6], DIAG_MOMENTA[8]], 0,
        INVERT_HEAD + "1,-1.5e-05,0,0,0,0,0,0,0.99999999977499998,0.99999999954999996\n", ""),
    "invert-letters": Outcome([*INVERT, *DIAG_MOMENTA[:8], "abc"], 1, "",
                              f"MalformedInput: --momenta: {NOT_A_FLOAT}\n", process=True),
    "invert-zero-momenta": Outcome([*INVERT, *ZEROS9], 2, "", ZERO_MOMENTA, process=True),
    "invert-overflowing-momenta": Outcome(
        [*INVERT, *[fmt17(1e110 * float(p)) for p in DIAG_MOMENTA]], 2, "",
        "InconsistentMomenta: residual nan exceeds 2.963e-09\n", process=True),
    "invert-ill-conditioned": Outcome(
        [*INVERT, *ILL_CONDITIONED], 2, "",
        "SingularMomentumMatrix: |det| = 2.963e-01 below 1e-12 * |P|^3\n"),
    "invert-no-momenta": Outcome(
        ["invert"], 64, "", "Usage: the following arguments are required: --momenta\n",
        process=True),
    "invert--inf": Outcome([*INVERT, *DIAG_MOMENTA[:8], "-inf"], 64, "", NINE_ARGUMENTS),
    "invert--nan": Outcome([*INVERT, *DIAG_MOMENTA[:8], "-nan"], 64, "", NINE_ARGUMENTS),
    "invert--1x": Outcome([*INVERT, *DIAG_MOMENTA[:8], "-1x"], 64, "", NINE_ARGUMENTS),
    "invert-kappa-1e300": Outcome([*INVERT, *DIAG_MOMENTA, "--kappa", "1e300"], 64, "",
                                  f"Usage: {KAPPA_RANGE} 1e+300\n"),
    "invert-kappa-1e-120": Outcome([*INVERT, *DIAG_MOMENTA, "--kappa", "1e-120"], 64, "",
                                   f"Usage: {KAPPA_RANGE} 1e-120\n"),
    "invert-out-in-no-directory": Outcome(
        [*INVERT, *DIAG_MOMENTA, "--out", "{tmp}/missing/x"], 1, "", NO_DIRECTORY),
    "transform": Outcome([*TRANSFORM, *IDENTITY_18, "--x", *map(str, range(1, 10))], 0,
                         TRANSFORM_HEAD + "1,2,3,4,5,6,7,8,9,-290,-290\n", ""),
    "transform-matrix-file": Outcome(
        ["transform", "--matrix", "{tmp}/matrix.txt", "--x", *ZEROS9], 0,
        TRANSFORM_HEAD + "0,0,0,0,0,0,0,0,0,0,0\n", "",
        files={"matrix.txt": "1 0 0 0 0 0\n0 0 1 0 0 0\n0 0 0 0 1 0\n"}),
    "transform-no-matrix-file": Outcome(
        ["transform", "--matrix", "{tmp}/nope.txt", "--x", *ZEROS9], 1, "",
        "MalformedInput: --matrix: [Errno 2] No such file or directory: '{tmp}/nope.txt'\n"),
    "transform-short-matrix-file": Outcome(
        ["transform", "--matrix", "{tmp}/short.txt", "--x", *ZEROS9], 1, "",
        "MalformedInput: expected 18 reals (re/im pairs row-major), got 3\n",
        files={"short.txt": "1 0 0\n"}),
    "transform-det-2": Outcome(
        [*TRANSFORM, "2", *IDENTITY_18[1:], "--x", *ZEROS9], 2, "",
        "NotUnimodular: |det - 1| = 1.000e+00 exceeds 1.0e-09\n"),
    "transform-det-inf": Outcome(
        [*TRANSFORM, *[e if e == "0" else "1e160" for e in IDENTITY_18], "--x", *ZEROS9], 2, "",
        "NotUnimodular: |det - 1| = inf exceeds 1.0e-09\n"),
    "transform-far-matrix": Outcome(
        [*TRANSFORM, "1e160", *IDENTITY_18[1:8], "1e-160", *IDENTITY_18[9:],
         "--x", "1", *ZEROS9[:7], "1"], 2, "",
        "NonRealEntry: the action has a non-finite entry\n"),
    "transform-far-image": Outcome(
        [*TRANSFORM, "2", *IDENTITY_18[1:8], "0.5", *IDENTITY_18[9:],
         "--x", "1e308", *ZEROS9[:7], "1e308"], 2, "",
        "NotHermitian: the conjugated vector has a non-finite entry\n"),
    "transform-far-cubic-form-1e103": Outcome(
        [*TRANSFORM, *IDENTITY_18, "--x", "1e103", *ZEROS9[:7], "1e103"], 2, "",
        "NonRealEntry: the cubic form is beyond the float range\n", process=True),
    "transform-far-cubic-form-1e200": Outcome(
        [*TRANSFORM, *IDENTITY_18, "--x", "1e200", *ZEROS9[:7], "1e200"], 2, "",
        "NonRealEntry: the cubic form is beyond the float range\n", process=True),
    "reduce4d": Outcome(REST, 0, REDUCE4D_HEAD + "1,-1,-1\n", ""),
    "reduce4d-time-dilation": Outcome([*REDUCE4D, "2", "0", "0", "0"], 0,
                                      REDUCE4D_HEAD + "2,-2,-2\n", ""),
    "reduce4d-spacelike": Outcome(
        [*REDUCE4D, "0.1", "1", "0", "0"], 2, "",
        "NonTimelike: the 4-velocity part must satisfy g(v, v) > 0\n"),
    "reduce4d-isotropic": Outcome(
        ["reduce4d", "--xdot03", "1", "0", "0", "0", "--xdot47", "1e8", "0", "0", "0"], 2, "",
        "IsotropicVelocity: |cubic form| below 1e-09 of |v|^3 (1 velocity sample(s))\n"),
    "reduce4d-far": Outcome(
        [*REDUCE4D, "1e200", "0", "0", "0"], 2, "",
        "NonRealEntry: the 4D-limit record is beyond the float range\n"),
    "reduce4d-far-json": Outcome(
        [*REDUCE4D, "1e103", "0", "0", "0", "--format", "json"], 2, "",
        "NonRealEntry: the 4D-limit record is beyond the float range\n"),
    "reduce4d-negative-mass": Outcome([*REST, "--mass", "-1"], 64, "",
                                      f"{MASS_AND_C} mass and light speed must be positive\n"),
    "reduce4d-kappa-inf": Outcome([*REST, "--mass", "1e308", "--c", "1e308", "--format", "json"],
                                  64, "", f"{MASS_AND_C} {KAPPA_RANGE} -inf\n"),
    "reduce4d-kappa-1e-200": Outcome([*REST, "--mass", "1e-200"], 64, "",
                                     f"{MASS_AND_C} {KAPPA_RANGE} -1e-200\n"),
    "check-failure": Outcome(
        [*CHECK, "--tol", "determinant_identity=0", "--out", "{tmp}/report.json"], 1, "",
        "CheckFailure: 1 of 27 checks failed\n"),
    "check-zero-trials": Outcome(["check", "--trials", "0"], 64, "",
                                 "Usage: trials must be a positive integer, got 0\n"),
    "check-negative-seed": Outcome(["check", "--seed", "-1"], 64, "",
                                   "Usage: seed must be a non-negative integer, got -1\n"),
    "check-unknown-tol": Outcome(["check", "--tol", "nope=1"], 64, "",
                                 "Usage: unknown check 'nope' in tolerances\n"),
    "check-tol-without-value": Outcome(
        ["check", "--tol", "duality"], 64, "",
        "Usage: --tol expects <known-check>=<value>, got 'duality'\n"),
    "check-tol-letter": Outcome(["check", "--tol", "duality=x"], 64, "",
                                "Usage: --tol duality: bad value 'x'\n"),
    "check-tol-nan": Outcome([*CHECK, "--tol", "duality=nan"], 64, "", f"{TOLERANCE} NaN\n"),
    "check-tol-inf": Outcome([*CHECK, "--tol", "duality=inf"], 64, "", f"{TOLERANCE} inf\n"),
    "check-two-tols-inf": Outcome(
        [*CHECK, "--tol", "duality=inf", "--tol", "constant_count=-inf"], 64, "",
        f"{TOLERANCE} inf\n"),
    "check-kappa-letters": Outcome([*CHECK, "--kappa", "abc"], 1, "",
                                   f"MalformedInput: kappa: {NOT_A_FLOAT}\n"),
    "check-kappa-nan": Outcome([*CHECK, "--kappa", "nan"], 1, "",
                               "MalformedInput: kappa: values must be finite\n"),
    "check-kappa-0": Outcome([*CHECK, "--kappa", "0"], 64, "", f"Usage: {KAPPA_RANGE} 0.0\n"),
    "check-kappa-1e300": Outcome([*CHECK, "--kappa", "1e300"], 64, "",
                                 f"Usage: {KAPPA_RANGE} 1e+300\n"),
    "check-kappa-1e-120": Outcome([*CHECK, "--kappa", "1e-120"], 64, "",
                                  f"Usage: {KAPPA_RANGE} 1e-120\n"),
    "check-out-in-no-directory": Outcome([*CHECK, "--out", "{tmp}/missing/x"], 1, "",
                                         NO_DIRECTORY),
    "no-command": Outcome([], 64, "", "Usage: the following arguments are required: command\n"),
}


@pytest.mark.parametrize("name", list(OUTCOMES))
def test_a_command_gives_its_row(name, capsys, tmp_path):
    """In process; to an added ``--out`` file; and as a process if the row asks."""
    argv, code, stdout, stderr, files, process = OUTCOMES[name]
    for file, text in (files or {}).items():
        (tmp_path / file).write_text(text)
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    stderr = stderr.replace("{tmp}", str(tmp_path))
    assert run(argv, capsys) == (code, stdout, stderr)
    if argv and "--out" not in argv:  # the file holds the stdout; a refusal leaves none
        path = tmp_path / "row.out"
        assert run([*argv, "--out", str(path)], capsys) == (code, "", stderr)
        assert (path.read_text() if path.exists() else None) == (stdout if code == 0 else None)
    if process:
        proc = cli_process(argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, stdout, stderr)


#: Tokens that no command prints, with the reason.
UNREACHABLE_FROM_CLI = {
    "DegeneratePath": "raised for a grid of samples; no command takes one",
    "NonMonotone": "raised by reparametrize, which no command calls",
    "BlockLeakage": "no command calls block_split_check on its input, and no public input "
                    "reaches it (tests/test_contract.py::UNREACHABLE)",
}


def test_every_exit_code_and_token_is_a_row():
    tokens = {name for name, value in vars(finsler9).items()
              if isinstance(value, type) and issubclass(value, FinslerError)} - {"FinslerError"}
    printed = {row.stderr.partition(":")[0] for row in OUTCOMES.values() if row.stderr}
    assert {row.code for row in OUTCOMES.values()} == {0, 1, 2, 64}
    assert printed == tokens - set(UNREACHABLE_FROM_CLI) | {"Usage", "MalformedInput",
                                                            "CheckFailure"}


class TestPropagate:
    def test_final_row_cubic_form_oracle(self, capsys):
        rng = np.random.default_rng(307)
        x0 = rng.uniform(-1, 1, size=9)
        momenta = canonical_momenta(unit_speed_velocity(rng))
        s_max = 1.75
        code, out, _ = run(
            ["propagate", "--x0", *[fmt17(v) for v in x0],
             "--momenta", *[fmt17(v) for v in momenta],
             "--s-max", fmt17(s_max), "--samples", "7"],
            capsys,
        )
        assert code == 0
        last = np.array([float(v) for v in out.strip().splitlines()[-1].split(",")])
        assert last[0] == pytest.approx(s_max)
        assert cubic_form(last[1:] - x0) == pytest.approx(s_max**3, abs=1e-9)

    def test_csv_and_json_carry_identical_values(self, capsys, tmp_path):
        rng = np.random.default_rng(311)
        momenta = canonical_momenta(unit_speed_velocity(rng))
        base = ["propagate", "--x0", *[fmt17(v) for v in rng.uniform(-1, 1, 9)],
                "--momenta", *[fmt17(v) for v in momenta],
                "--s-max", "2.5", "--samples", "5"]
        code, csv_text, _ = run(base + ["--format", "csv"], capsys)
        assert code == 0
        code, json_text, _ = run(base + ["--format", "json"], capsys)
        assert code == 0
        doc = json.loads(json_text)
        csv_rows = [line.split(",") for line in csv_text.strip().splitlines()[1:]]
        assert len(csv_rows) == len(doc["samples"])
        for row, sample in zip(csv_rows, doc["samples"]):
            assert row[0] == fmt17(sample["s"])
            assert row[1:] == [fmt17(v) for v in sample["x"]]

    def test_repeated_runs_are_byte_identical(self, capsys, tmp_path):
        rng = np.random.default_rng(337)
        momenta = canonical_momenta(unit_speed_velocity(rng))
        argv = ["propagate", "--format", "json",
                "--x0", *[fmt17(v) for v in rng.uniform(-1, 1, 9)],
                "--momenta", *[fmt17(v) for v in momenta],
                "--s-max", "3", "--samples", "11"]
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code, _, _ = run(argv + ["--out", str(path)], capsys)
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        doc = json.loads(paths[0].read_text())
        assert list(doc) == ["kappa", "x0", "v0", "samples"]
        assert list(doc["samples"][0]) == ["s", "x"]


def trajectory_csv(s_values, points):
    """Whole-document CSV renderer the streamed writer replaced."""
    lines = ["s," + ",".join(f"X{a}" for a in range(9))]
    for s, x in zip(s_values, points):
        lines.append(",".join([_fmt(s)] + [_fmt(c) for c in x]))
    return "\n".join(lines) + "\n"


def trajectory_json(kappa, x0, v0, s_values, points):
    """Whole-document JSON renderer the streamed writer replaced."""
    doc = {
        "kappa": kappa,
        "x0": list(x0),
        "v0": list(v0),
        "samples": [{"s": s, "x": list(x)} for s, x in zip(s_values, points)],
    }
    return _to_json(doc) + "\n"


class TestStreamedTrajectory:
    # -0 at s = 0 where the velocity component is negative, |values| >= 1e16
    # in x0 and along s, and a subnormal
    X0 = ["-0", "30000000000000000", "-123456789012345678901", "5e-324", "0.1",
          "-0.7", "2", "-3.5", "100000000000000000"]
    S_MAX = "3e16"
    KAPPA = "-1.5"

    @pytest.fixture(scope="class")
    def case(self):
        rng = np.random.default_rng(347)
        momenta = canonical_momenta(unit_speed_velocity(rng), float(self.KAPPA))
        argv = ["propagate", "--kappa", self.KAPPA, "--x0", *self.X0,
                "--momenta", *[fmt17(v) for v in momenta], "--s-max", self.S_MAX]
        x0 = np.array([float(v) for v in self.X0])
        v0 = invert_momenta(momenta, float(self.KAPPA))
        assert (v0 < 0).any() and (v0 > 0).any()
        return argv, x0, v0

    def oracle(self, case, fmt, samples):
        _, x0, v0 = case
        s_values = np.linspace(0.0, float(self.S_MAX), samples)
        points = x0 + s_values[:, None] * v0
        if fmt == "csv":
            return trajectory_csv(s_values, points)
        return trajectory_json(float(self.KAPPA), x0, v0, s_values, points)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("samples", [1, 2, CHUNK_ROWS - 1, CHUNK_ROWS,
                                         CHUNK_ROWS + 1, 20000])
    def test_bytes_match_whole_document_oracle(self, case, fmt, samples, capsys,
                                               tmp_path):
        expected = self.oracle(case, fmt, samples)
        argv = case[0] + ["--samples", str(samples), "--format", fmt]
        code, out, err = run(argv, capsys)
        assert (code, err) == (0, "")
        assert_same_text(out, expected)
        path = tmp_path / f"traj.{fmt}"
        code, out, _ = run(argv + ["--out", str(path)], capsys)
        assert (code, out) == (0, "")
        assert_same_text(path.read_bytes().decode(), expected)

    def test_signed_zero_and_large_values_are_rendered(self, case, capsys):
        code, out, _ = run(case[0] + ["--samples", "2"], capsys)
        assert code == 0
        first, last = out.splitlines()[1:]
        assert first.startswith("0,-0,30000000000000000,-1.2345678901234568e+20,")
        assert last.startswith("30000000000000000,")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_no_write_holds_more_than_one_chunk(self, case, fmt, monkeypatch):
        writes = []
        stdout = SimpleNamespace(write=writes.append, flush=lambda: None)
        monkeypatch.setattr(sys, "stdout", stdout)
        samples = 3 * CHUNK_ROWS + 5
        assert main(case[0] + ["--samples", str(samples), "--format", fmt]) == 0
        assert_same_text("".join(writes), self.oracle(case, fmt, samples))
        marker = "\n" if fmt == "csv" else '{"s": '
        rows = [text.count(marker) for text in writes]
        assert max(rows) <= CHUNK_ROWS
        assert sum(rows) == samples + (fmt == "csv")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_blocks_after_the_first_fault_no_pages_in(self, fmt):
        # the writes are the head, the first block, ...: count from the first block on;
        # the sink keeps no text, so that only the renderer's own pages count
        code = (
            "import numpy as np\n"
            "from finsler9 import Trajectory, unit_speed_velocity\n"
            "from finsler9.cli import _write_trajectory\n"
            "rng = np.random.default_rng(7)\n"
            "traj = Trajectory(rng.uniform(-10, 10, 9), unit_speed_velocity(rng), (0.0, 7.0))\n"
            "class Sink:\n"
            "    faults = []\n"
            "    def write(self, text):\n"
            "        self.faults.append(minflt())\n"
            f"_write_trajectory(Sink(), {fmt!r}, -1.0, traj, np.linspace(0.0, 7.0, 20000))\n"
            "print(Sink.faults[-1] - Sink.faults[1])\n"
        )
        # measured: 1; 4096-row chunks, each with fresh temporaries, took about 5 500
        assert minor_faults(code) < 500


# the row templates the trajectory renderer replaced, kept as its oracle
CSV_ROW = ",".join(["%.17g"] * 10) + "\n"
JSON_ROW = ', {"s": %.17g, "x": [' + ", ".join(["%.17g"] * 9) + "]}"


def render_rows(rows, fmt):
    """The text of ``(n, 10)`` trajectory rows, ``CHUNK_ROWS`` at a time in one workspace."""
    renderer = Renderer(fmt, min(len(rows), CHUNK_ROWS))
    return "".join([renderer.text(rows[i:i + CHUNK_ROWS, 0], rows[i:i + CHUNK_ROWS, 1:])
                    for i in range(0, len(rows), CHUNK_ROWS)])


def assert_rows_render_as_templates(values, formats=("csv", "json")):
    rows = np.asarray(values, dtype=float).reshape(-1, 10)
    for fmt, template in (("csv", CSV_ROW), ("json", JSON_ROW)):
        if fmt in formats:
            expected = "".join([template % tuple(r) for r in rows.tolist()])
            assert_same_text(render_rows(rows, fmt), expected)


def padded(values):
    """``values`` and their negatives, zero-padded to whole rows of ten."""
    values = np.concatenate([values, -np.asarray(values)])
    return np.concatenate([values, np.zeros(-len(values) % 10)])


class TestRowRenderer:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_any_floats_render_as_the_templates(self, values):
        values = values + [0.0] * (-len(values) % 10)
        assert_rows_render_as_templates(values)

    def test_ties_round_half_to_even(self):
        assert _fmt(1234567890123456.25) == "1234567890123456.2"
        assert _fmt(1234567890123456.75) == "1234567890123456.8"
        # the odd multiples of 1/4 in [2^50, 2^51) all end on a tie at 17 digits
        k = np.random.default_rng(41).integers(0, 2**51, size=2000)
        assert_rows_render_as_templates(padded(2.0**50 + (2 * k + 1) / 4))

    def test_powers_of_ten_and_their_neighbours(self):
        powers = np.array([10.0 ** k for k in range(-8, 19)])
        values = [powers, np.nextafter(powers, np.inf), np.nextafter(powers, -np.inf)]
        assert_rows_render_as_templates(padded(np.concatenate(values)))

    def test_window_edges_and_extremes(self):
        values = [1e-4, 9.9999999999999995e-05, 1e17, 99999999999999984.0,
                  5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                  0.0, np.inf, np.nan]
        assert_rows_render_as_templates(padded(values))
        row = np.array([[1e-4, 9.9999999999999995e-05, 1e17, 5e-324, -0.0, -np.inf, np.nan,
                         1.7976931348623157e308, 0.5, 123.0]])
        assert render_rows(row, "csv") == (
            "0.0001,9.9999999999999991e-05,1e+17,4.9406564584124654e-324,-0,-inf,nan,"
            "1.7976931348623157e+308,0.5,123\n")

    @pytest.mark.parametrize("exponents", [(0, 2048), (1023 - 20, 1023 + 60)],
                             ids=["all", "near-fixed-window"])
    def test_seeded_sweep_of_bit_patterns(self, exponents):
        # all 64-bit patterns (NaNs, infinities and subnormals included), and
        # patterns with binary exponents from 2^-20 to 2^59, around 1e-4 and 1e17
        rng = np.random.default_rng(2024)
        bits = rng.integers(0, 2**64, size=10**6, dtype=np.uint64)
        exponent = rng.integers(*exponents, size=bits.size).astype(np.uint64)
        bits = bits & ~np.uint64(0x7FF << 52) | exponent << np.uint64(52)
        assert_rows_render_as_templates(bits.view(np.float64), formats=("csv",))


class TestInvert:
    def test_round_trip_against_library(self, capsys):
        rng = np.random.default_rng(313)
        v = unit_speed_velocity(rng)
        momenta = canonical_momenta(v)
        code, out, _ = run(
            ["invert", "--format", "json",
             "--momenta", *[fmt17(x) for x in momenta]],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert np.abs(np.array(doc["v0"]) - v).max() < 1e-9
        assert doc["det"] == pytest.approx(1.0, abs=1e-9)



class TestTransform:
    def test_embedded_boost_fixes_ninth_slot(self, capsys):
        a, inv_a = np.exp(0.15), np.exp(-0.15)
        entries = [fmt17(a), "0", "0", "0", "0", "0",
                   "0", "0", fmt17(inv_a), "0", "0", "0",
                   "0", "0", "0", "0", "1", "0"]
        x = ["0.3", "-0.2", "0.9", "0.1", "0.4", "-0.5", "0.6", "0.7", "1.25"]
        code, out, _ = run(
            ["transform", "--format", "json", "--entries", *entries, "--x", *x],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["x_out"][8] == pytest.approx(1.25, abs=1e-13)

    def test_cubic_form_preserved_for_random_matrix(self, capsys):
        from finsler9 import random_unimodular

        rng = np.random.default_rng(317)
        d = random_unimodular(rng)
        entries = []
        for row in d:
            for z in row:
                entries += [fmt17(z.real), fmt17(z.imag)]
        x = rng.uniform(-1, 1, size=9)
        code, out, _ = run(
            ["transform", "--format", "json", "--entries", *entries,
             "--x", *[fmt17(v) for v in x]],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["cubic_out"] == pytest.approx(doc["cubic_in"], rel=1e-9)



class TestReduce4d:
    def test_densities_agree_on_random_input(self, capsys):
        rng = np.random.default_rng(331)
        spatial = rng.uniform(-0.4, 0.4, size=3)
        q = rng.uniform(0.5, 2.0)
        x4 = [np.sqrt(q + spatial @ spatial), *spatial]
        spinor = 0.2 * np.sqrt(q) * rng.uniform(-1, 1, size=4)
        code, out, _ = run(
            ["reduce4d", "--format", "json", "--mass", "1.7", "--c", "0.8",
             "--xdot03", *[fmt17(v) for v in x4],
             "--xdot47", *[fmt17(v) for v in spinor]],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["finsler_density"] == pytest.approx(
            doc["minkowski_density"], rel=1e-10
        )

    def test_rows_have_the_bits_of_the_two_density_formulas(self, capsys):
        rng = np.random.default_rng(337)
        x4, spinor = checks._random_timelike(rng, 200)
        for a, b, mass, light_speed in zip(x4, spinor, *10.0 ** rng.uniform(-4, 4, (2, 200))):
            # the oracle: both densities written out at kappa = -m c
            kappa = -mass * light_speed
            nine = assemble_velocity(a, b)
            expected = [nine[8], kappa * np.cbrt(cubic_form(nine)),
                        kappa * np.sqrt(minkowski_norm_sq(a))]
            argv = ["reduce4d", "--xdot03", *map(fmt17, a), "--xdot47", *map(fmt17, b),
                    "--mass", fmt17(mass), "--c", fmt17(light_speed)]
            code, out, err = run(argv, capsys)
            assert (code, err) == (0, "")
            assert out.splitlines()[1] == ",".join(map(_fmt, expected))



class TestCheck:
    def test_small_run_passes(self, capsys):
        code, out, err = run(["check", "--seed", "0", "--trials", "5"], capsys)
        assert code == 0
        assert err == ""
        report = json.loads(out)
        assert len(report) == 27
        for entry in report.values():
            assert entry["failures"] == 0

    def test_reports_are_byte_identical(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code, _, _ = run(
                ["check", "--seed", "3", "--trials", "5", "--out", str(path)],
                capsys,
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_different_seed_changes_report(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for seed, path in zip(("0", "1"), paths):
            run(["check", "--seed", seed, "--trials", "5", "--out", str(path)],
                capsys)
        assert paths[0].read_bytes() != paths[1].read_bytes()

    def test_forced_tolerance_fails_and_still_prints_report(self, capsys):
        code, out, err = run(
            ["check", "--trials", "5", "--tol", "determinant_identity=0"],
            capsys,
        )
        assert code == 1
        report = json.loads(out)
        assert report["determinant_identity"]["failures"] == 5
        assert err.startswith("CheckFailure:")

    @pytest.mark.parametrize("cmp", ["le", "ge"])
    def test_a_nan_residual_fails_and_the_report_stays_json(self, cmp, tmp_path, capsys,
                                                            monkeypatch):
        spec = replace(checks.CHECKS[1], tolerance=0.0, cmp=cmp,
                       fn=lambda rng, trials: np.array([0.0, np.nan]))
        monkeypatch.setattr(checks, "CHECKS", [checks.CHECKS[0], spec, *checks.CHECKS[2:]])
        path = tmp_path / "report.json"
        code, out, err = run(["check", "--trials", "2", "--out", str(path)], capsys)
        assert (code, out, err) == (1, "", "CheckFailure: 1 of 27 checks failed\n")
        text = path.read_text()
        assert f'"{spec.name}": {{"trials": 2, "failures": 1, "worst_residual": NaN}}' in text
        assert np.isnan(json.loads(text)[spec.name]["worst_residual"])

    def test_non_finite_numbers_are_written_as_json_loads_reads_them(self):
        doc = {"a": float("nan"), "b": [float("inf"), -float("inf"), 0.1, 3]}
        text = _to_json(doc)
        assert text == '{"a": NaN, "b": [Infinity, -Infinity, 0.10000000000000001, 3]}'
        assert json.loads(text)["b"][:2] == [float("inf"), -float("inf")]

    def test_a_valid_kappa_keeps_the_report_bytes(self, capsys):
        _, plain, _ = run(["check", "--trials", "3"], capsys)
        for kappa in ("-1", "0.5", "-2e3"):
            assert run(["check", "--trials", "3", "--kappa", kappa], capsys) == (0, plain, "")


class TestTopLevel:
    def test_only_propagate_imports_the_renderer(self, tmp_path):
        propagate = ["propagate", "--x0", *ZEROS9, "--momenta", *DIAG_MOMENTA,
                     "--s-max", "1", "--samples", "3", "--out", str(tmp_path / "line.csv")]
        code = (
            "import sys\n"
            "from finsler9.cli import main\n"
            "loaded = ['finsler9._render' in sys.modules]\n"
            f"main(['check', '--trials', '1', '--out', {str(tmp_path / 'report.json')!r}])\n"
            "loaded.append('finsler9._render' in sys.modules)\n"
            f"main({propagate!r})\n"
            "loaded.append('finsler9._render' in sys.modules)\n"
            "print(loaded)\n"
        )
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        assert run.stdout == "[False, False, True]\n"

    def test_version_is_the_one_in_pyproject(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"
        doc = tomllib.loads(pyproject.read_text())
        assert "version" not in doc["project"] and "version" in doc["project"]["dynamic"]
        assert doc["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "finsler9.__version__"}
        assert re.fullmatch(r"\d+\.\d+\.\d+", __version__)


# stdout is a BufferedWriter unless PYTHONUNBUFFERED is set; a write can
# fail in either, and a buffered one can fail again at the last flush.
STDOUT_BUFFERING = {
    "buffered": {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
    "unbuffered": {**os.environ, "PYTHONUNBUFFERED": "1"},
}
PROPAGATE_20000 = ["propagate", "--x0", *ZEROS9, "--momenta", *DIAG_MOMENTA,
                   "--s-max", "1", "--samples", "20000"]


def cli_process(argv, env=None, stdout=subprocess.PIPE):
    return subprocess.run([sys.executable, "-m", "finsler9", *argv], env=env, stdout=stdout,
                          stderr=subprocess.PIPE, text=True)


class TestProcess:
    """The ``finsler9`` process around ``main``: its exit code, its collector, its writes."""

    def test_the_process_freezes_the_collector_before_it_exits(self):
        profile = exit_profile(["invert", "--momenta", *DIAG_MOMENTA])
        assert profile.code == 0
        assert profile.frozen > 0

    def test_help_exits_through_the_freeze(self):
        profile = exit_profile(["--help"])
        assert profile.code == 0
        assert profile.frozen > 0

    @pytest.mark.parametrize("argv, usage", [
        (["--help"], "usage: finsler9 [-h]"),
        (["propagate", "--help"], "usage: finsler9 propagate [-h]"),
    ], ids=["top", "propagate"])
    def test_help_prints_its_text_and_exits_0(self, argv, usage, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps the text to the terminal width
        proc = cli_process(argv)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith(usage)
        assert run(argv, capsys) == (0, proc.stdout, "")

    @pytest.mark.parametrize("buffering", sorted(STDOUT_BUFFERING))
    def test_help_to_a_full_device_gets_one_line(self, buffering):
        if not os.path.exists("/dev/full"):
            pytest.skip("needs /dev/full")
        with open("/dev/full", "w") as full:
            proc = cli_process(["propagate", "--help"], env=STDOUT_BUFFERING[buffering],
                               stdout=full)
        assert proc.returncode == 1
        assert proc.stderr == "MalformedInput: stdout: [Errno 28] No space left on device\n"

    def test_main_in_process_leaves_the_collector_unfrozen(self, capsys):
        before = gc.get_freeze_count()
        assert run(["invert", "--momenta", *DIAG_MOMENTA], capsys)[0] == 0
        assert run(["invert"], capsys)[0] == 64
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("buffering", sorted(STDOUT_BUFFERING))
    def test_a_reader_that_stops_early_gets_one_line(self, buffering):
        proc = subprocess.Popen([sys.executable, "-m", "finsler9", *PROPAGATE_20000],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=STDOUT_BUFFERING[buffering])
        head = proc.stdout.read(100)  # as ``| head -c 100``: the rows fill the pipe first
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert (proc.wait(), head[:5]) == (1, b"s,X0,")
        assert err == "MalformedInput: stdout: [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize("buffering", sorted(STDOUT_BUFFERING))
    @pytest.mark.parametrize("argv", [["invert", "--momenta", *DIAG_MOMENTA],
                                      ["check", "--trials", "1"]], ids=["invert", "check"])
    def test_a_closed_pipe_gets_one_line(self, argv, buffering):
        read, write = os.pipe()
        os.close(read)  # every write fails, the final flush of a buffered stdout too
        try:
            proc = cli_process(argv, env=STDOUT_BUFFERING[buffering], stdout=write)
        finally:
            os.close(write)
        assert proc.returncode == 1
        assert proc.stderr == "MalformedInput: stdout: [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize("buffering", sorted(STDOUT_BUFFERING))
    @pytest.mark.parametrize("to_out", [False, True], ids=["stdout", "out"])
    def test_a_full_device_gets_one_line(self, to_out, buffering):
        if not os.path.exists("/dev/full"):
            pytest.skip("needs /dev/full")
        argv = ["check", "--trials", "5"]
        if to_out:
            proc = cli_process([*argv, "--out", "/dev/full"], env=STDOUT_BUFFERING[buffering])
        else:
            with open("/dev/full", "w") as full:
                proc = cli_process(argv, env=STDOUT_BUFFERING[buffering], stdout=full)
        where = "--out" if to_out else "stdout"
        assert proc.returncode == 1
        assert proc.stderr == f"MalformedInput: {where}: [Errno 28] No space left on device\n"
