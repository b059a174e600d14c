"""Tests for the command line front end: formats, exit codes, determinism."""

import gc
import json
import os
import pathlib
import re
import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsler9 import (
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


class TestPropagate:
    def test_diagonal_fixture_matches_hand_computed_rows(self, capsys):
        code, out, _ = run(
            ["propagate", "--x0", *ZEROS9, "--momenta", *DIAG_MOMENTA,
             "--s-max", "1", "--samples", "3"],
            capsys,
        )
        assert code == 0
        assert out == (
            "s,X0,X1,X2,X3,X4,X5,X6,X7,X8\n"
            "0,0,0,0,0,0,0,0,0,0\n"
            "0.5,0.5,0,0,0,0,0,0,0,0.5\n"
            "1,1,0,0,0,0,0,0,0,1\n"
        )

    def test_single_sample_returns_initial_point(self, capsys):
        x0 = [str(v) for v in range(9)]
        code, out, _ = run(
            ["propagate", "--x0", *x0, "--momenta", *DIAG_MOMENTA,
             "--s-max", "5", "--samples", "1"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert lines[1] == "0," + ",".join(str(v) for v in range(9))

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

    def test_inconsistent_momenta_exit_2(self, capsys):
        code, out, err = run(
            ["propagate", "--x0", *ZEROS9, "--momenta", *ZEROS9,
             "--s-max", "1", "--samples", "3"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("InconsistentMomenta: residual")
        assert len(err.strip().splitlines()) == 1

    def test_overflowing_world_line_prints_one_token_line(self):
        # a subprocess, so that a RuntimeWarning would reach stderr as text
        proc = subprocess.run([sys.executable, "-m", "finsler9", "propagate",
                               "--x0", *ZEROS9[:8], "1e308", "--momenta", *DIAG_MOMENTA,
                               "--s-max", "1e308", "--samples", "2", "--format", "json"],
                              capture_output=True, text=True)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == "NonRealEntry: the world line is beyond the float range\n"

    def test_malformed_momenta_exit_1(self, capsys):
        bad = DIAG_MOMENTA[:8] + ["abc"]
        code, _, err = run(
            ["propagate", "--x0", *ZEROS9, "--momenta", *bad,
             "--s-max", "1", "--samples", "3"],
            capsys,
        )
        assert code == 1
        assert err.startswith("MalformedInput:")

    def test_non_finite_input_exit_1(self, capsys):
        bad = DIAG_MOMENTA[:8] + ["inf"]
        code, _, err = run(
            ["propagate", "--x0", *ZEROS9, "--momenta", *bad,
             "--s-max", "1", "--samples", "3"],
            capsys,
        )
        assert code == 1
        assert err.startswith("MalformedInput:")

    def test_zero_samples_is_usage_error(self, capsys):
        code, _, err = run(
            ["propagate", "--x0", *ZEROS9, "--momenta", *DIAG_MOMENTA,
             "--s-max", "1", "--samples", "0"],
            capsys,
        )
        assert code == 64
        assert err.startswith("Usage:")

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

    def test_writes_to_file(self, capsys, tmp_path):
        out = tmp_path / "traj.csv"
        code, stdout, _ = run(
            ["propagate", "--x0", *ZEROS9, "--momenta", *DIAG_MOMENTA,
             "--s-max", "1", "--samples", "3", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert stdout == ""
        assert out.read_text().startswith("s,X0")

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
    def test_diagonal_fixture(self, capsys):
        code, out, _ = run(["invert", "--momenta", *DIAG_MOMENTA], capsys)
        assert code == 0
        assert out == (
            "X0dot,X1dot,X2dot,X3dot,X4dot,X5dot,X6dot,X7dot,X8dot,det\n"
            "1,0,0,0,0,0,0,0,1,1\n"
        )

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

    def test_zero_momenta_exit_2(self, capsys):
        code, _, err = run(["invert", "--momenta", *ZEROS9], capsys)
        assert code == 2
        assert err.startswith("InconsistentMomenta:")

    def test_overflowing_momenta_print_one_token_line(self):
        # a subprocess, so that a RuntimeWarning would reach stderr as text
        momenta = [fmt17(1e110 * float(x)) for x in DIAG_MOMENTA]
        proc = subprocess.run([sys.executable, "-m", "finsler9", "invert", "--momenta", *momenta],
                              capture_output=True, text=True)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("InconsistentMomenta: ") and proc.stderr.count("\n") == 1


class TestTransform:
    IDENTITY_18 = ["1", "0", "0", "0", "0", "0",
                   "0", "0", "1", "0", "0", "0",
                   "0", "0", "0", "0", "1", "0"]

    def test_identity_leaves_vector_alone(self, capsys):
        x = [str(v) for v in range(1, 10)]
        code, out, _ = run(
            ["transform", "--entries", *self.IDENTITY_18, "--x", *x], capsys
        )
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert row[:9] == x
        assert row[9] == row[10]

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

    def test_matrix_file_input(self, capsys, tmp_path):
        path = tmp_path / "matrix.txt"
        path.write_text("1 0 0 0 0 0\n0 0 1 0 0 0\n0 0 0 0 1 0\n")
        code, out, _ = run(
            ["transform", "--matrix", str(path), "--x", *ZEROS9], capsys
        )
        assert code == 0

    def test_non_unimodular_exit_2(self, capsys):
        entries = ["2", "0", "0", "0", "0", "0",
                   "0", "0", "1", "0", "0", "0",
                   "0", "0", "0", "0", "1", "0"]
        code, _, err = run(
            ["transform", "--entries", *entries, "--x", *ZEROS9], capsys
        )
        assert code == 2
        assert err.startswith("NotUnimodular: |det - 1|")

    def test_overflowing_matrix_exit_2_with_one_line(self, capsys):
        entries = ["1e160", "0", "0", "0", "0", "0",
                   "0", "0", "1e-160", "0", "0", "0",
                   "0", "0", "0", "0", "1", "0"]
        x = ["1", "0", "0", "0", "0", "0", "0", "0", "1"]
        code, out, err = run(["transform", "--entries", *entries, "--x", *x], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("NonRealEntry: ") and err.count("\n") == 1

    def test_overflowing_determinant_exit_2_with_one_line(self, capsys):
        entries = ["1e160", "0", "0", "0", "0", "0",
                   "0", "0", "1e160", "0", "0", "0",
                   "0", "0", "0", "0", "1e160", "0"]
        code, out, err = run(["transform", "--entries", *entries, "--x", *ZEROS9], capsys)
        assert (code, out, err) == (2, "", "NotUnimodular: |det - 1| = inf exceeds 1.0e-09\n")

    def test_image_beyond_the_float_range_exit_2_with_one_line(self, capsys):
        entries = ["2", "0", "0", "0", "0", "0",
                   "0", "0", "0.5", "0", "0", "0",
                   "0", "0", "0", "0", "1", "0"]
        x = ["1e308", "0", "0", "0", "0", "0", "0", "0", "1e308"]
        code, out, err = run(["transform", "--entries", *entries, "--x", *x], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("NotHermitian: ") and err.count("\n") == 1

    @pytest.mark.parametrize("scale", ["1e103", "1e200"])
    def test_cubic_form_beyond_the_float_range_prints_one_token_line(self, scale):
        # a subprocess, so that a RuntimeWarning would reach stderr as text
        x = [scale, "0", "0", "0", "0", "0", "0", "0", scale]
        proc = subprocess.run([sys.executable, "-m", "finsler9", "transform",
                               "--entries", *self.IDENTITY_18, "--x", *x],
                              capture_output=True, text=True)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == "NonRealEntry: the cubic form is beyond the float range\n"

    def test_missing_matrix_file_exit_1(self, capsys, tmp_path):
        code, _, err = run(
            ["transform", "--matrix", str(tmp_path / "nope.txt"), "--x", *ZEROS9],
            capsys,
        )
        assert code == 1
        assert err.startswith("MalformedInput:")

    def test_short_matrix_file_exit_1(self, capsys, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("1 0 0\n")
        code, _, err = run(
            ["transform", "--matrix", str(path), "--x", *ZEROS9], capsys
        )
        assert code == 1
        assert err.startswith("MalformedInput:")


class TestReduce4d:
    def test_rest_velocity(self, capsys):
        code, out, _ = run(
            ["reduce4d", "--xdot03", "1", "0", "0", "0",
             "--xdot47", "0", "0", "0", "0"],
            capsys,
        )
        assert code == 0
        assert out.strip().splitlines()[1] == "1,-1,-1"

    def test_time_dilation(self, capsys):
        code, out, _ = run(
            ["reduce4d", "--xdot03", "2", "0", "0", "0",
             "--xdot47", "0", "0", "0", "0"],
            capsys,
        )
        assert code == 0
        assert out.strip().splitlines()[1] == "2,-2,-2"

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

    def test_spacelike_exit_2(self, capsys):
        code, _, err = run(
            ["reduce4d", "--xdot03", "0.1", "1", "0", "0",
             "--xdot47", "0", "0", "0", "0"],
            capsys,
        )
        assert code == 2
        assert err.startswith("NonTimelike:")

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

    @pytest.mark.parametrize("options, reason", [
        (["--mass", "-1"], "mass and light speed must be positive"),
        (["--mass", "1e308", "--c", "1e308"],
         "kappa must be nonzero, with 2^-300 <= |kappa| <= 2^300, got -inf"),
        (["--mass", "1e-200"],
         "kappa must be nonzero, with 2^-300 <= |kappa| <= 2^300, got -1e-200"),
    ])
    def test_a_mass_or_speed_out_of_range_is_a_usage_error_naming_both(self, options, reason,
                                                                       capsys):
        code, out, err = run(
            ["reduce4d", "--xdot03", "1", "0", "0", "0",
             "--xdot47", "0", "0", "0", "0", *options],
            capsys,
        )
        assert (code, out) == (64, "")
        assert err == f"Usage: --mass and --c (kappa = -mass * c): {reason}\n"


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

    def test_zero_trials_is_usage_error(self, capsys):
        code, _, err = run(["check", "--trials", "0"], capsys)
        assert code == 64
        assert err.startswith("Usage:")

    def test_forced_tolerance_fails_and_still_prints_report(self, capsys):
        code, out, err = run(
            ["check", "--trials", "5", "--tol", "determinant_identity=0"],
            capsys,
        )
        assert code == 1
        report = json.loads(out)
        assert report["determinant_identity"]["failures"] == 5
        assert err.startswith("CheckFailure:")

    def test_unknown_tolerance_name_is_usage_error(self, capsys):
        code, _, err = run(["check", "--tol", "nope=1"], capsys)
        assert code == 64

    @pytest.mark.parametrize("kappa, expected_code, prefix", [
        ("abc", 1, "MalformedInput: kappa: "),
        ("nan", 1, "MalformedInput: kappa: "),
        ("0", 64, "Usage: kappa must be nonzero"),
    ])
    def test_kappa_is_refused_as_in_propagate(self, kappa, expected_code, prefix, capsys):
        code, out, err = run(["check", "--trials", "1", "--kappa", kappa], capsys)
        assert (code, out) == (expected_code, "")
        assert err.startswith(prefix)

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


PROPAGATE = ["propagate", "--x0", *ZEROS9, "--s-max", "1"]
# momenta that invert_momenta admits, whose velocity misses unit speed by 1.8e-8
EDGE_MOMENTA = [fmt17(p) for p in canonical_momenta(
    unit_speed_velocity(np.random.default_rng(0))) * (1 + 3e-9)]
REDUCE4D = ["reduce4d", "--xdot47", *ZEROS9[:4]]


class TestRefusals:
    @pytest.mark.parametrize("argv, expected_code, token", [
        ([*PROPAGATE, "--momenta", *ZEROS9, "--samples", "3"], 2, "InconsistentMomenta"),
        ([*PROPAGATE, "--momenta", *DIAG_MOMENTA, "--samples", "3", "--kappa", "0"], 64,
         "Usage"),
        ([*PROPAGATE, "--momenta", *DIAG_MOMENTA, "--samples", "0"], 64, "Usage"),
        ([*PROPAGATE, "--x0", *ZEROS9[:8], "1e308", "--momenta", *DIAG_MOMENTA,
          "--s-max", "1e308", "--samples", "2"], 2, "NonRealEntry"),
        ([*PROPAGATE, "--momenta", *DIAG_MOMENTA, "--samples", "3", "--kappa", "1e300"], 64,
         "Usage"),
        ([*PROPAGATE, "--momenta", *DIAG_MOMENTA, "--samples", "3", "--kappa", "1e-120"], 64,
         "Usage"),
        (["invert", "--momenta", *DIAG_MOMENTA, "--kappa", "1e300"], 64, "Usage"),
        (["invert", "--momenta", *DIAG_MOMENTA, "--kappa", "1e-120"], 64, "Usage"),
        (["check", "--trials", "1", "--kappa", "1e300"], 64, "Usage"),
        (["check", "--trials", "1", "--kappa", "1e-120"], 64, "Usage"),
        ([*PROPAGATE, "--momenta", *EDGE_MOMENTA, "--samples", "3"], 2, "NotUnitSpeed"),
        ([*REDUCE4D, "--xdot03", "1e200", "0", "0", "0"], 2, "NonRealEntry"),
        ([*REDUCE4D, "--xdot03", "1e103", "0", "0", "0", "--format", "json"], 2,
         "NonRealEntry"),
        ([*REDUCE4D, "--xdot03", "1", "0", "0", "0", "--mass", "1e308", "--c", "1e308",
          "--format", "json"], 64, "Usage"),
        ([*REDUCE4D, "--xdot03", "1", "0", "0", "0", "--mass", "1e-200"], 64, "Usage"),
        (["reduce4d", "--xdot03", "1", "0", "0", "0", "--xdot47", "1e8", "0", "0", "0"], 2,
         "IsotropicVelocity"),
        (["check", "--trials", "5", "--tol", "duality=nan"], 64, "Usage"),
        (["check", "--trials", "5", "--tol", "duality=inf"], 64, "Usage"),
        (["check", "--trials", "5", "--tol", "duality=inf", "--tol", "constant_count=-inf"],
         64, "Usage"),
        (["check", "--trials", "0"], 64, "Usage"),
        (["check", "--seed", "-1"], 64, "Usage"),
        (["transform", "--entries", "2", *ZEROS9[:7], "1", *ZEROS9[:7], "1", "0",
          "--x", *ZEROS9], 2, "NotUnimodular"),
    ])
    def test_failed_checks_leave_no_output_file(self, argv, expected_code, token, capsys,
                                                tmp_path):
        path = tmp_path / "never.out"
        code, out, err = run([*argv, "--out", str(path)], capsys)
        assert code == expected_code
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith(f"{token}: ")
        assert not path.exists()


class TestOutPath:
    @pytest.mark.parametrize("argv", [
        ["propagate", "--x0", *ZEROS9, "--momenta", *DIAG_MOMENTA,
         "--s-max", "1", "--samples", "3"],
        ["invert", "--momenta", *DIAG_MOMENTA],
        ["check", "--trials", "5"],
    ], ids=["propagate", "invert", "check"])
    def test_unopenable_out_path_is_malformed_input(self, argv, capsys, tmp_path):
        path = tmp_path / "missing" / "x.csv"
        code, out, err = run(argv + ["--out", str(path)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("MalformedInput: --out:")
        assert len(err.strip().splitlines()) == 1


class TestNegativeNumbers:
    def test_propagate_reads_exponent_form_negatives(self, capsys):
        x0 = ["-1e-05", "-1.2345678901234568e+20", *ZEROS9[2:]]
        code, out, err = run(["propagate", "--x0", *x0, "--momenta", *DIAG_MOMENTA,
                              "--s-max", "-2.5e-01", "--samples", "2"], capsys)
        assert (code, err) == (0, "")
        first, last = out.splitlines()[1:]
        assert [float(v) for v in first.split(",")[1:]] == [float(v) for v in x0]
        assert float(last.split(",")[0]) == -0.25

    def test_invert_reads_exponent_form_negatives(self, capsys):
        momenta = ["-6.6666666666666663e-01", *ZEROS9[:7], "-3.3333333333333331e-01"]
        code, out, err = run(["invert", "--momenta", *momenta], capsys)
        assert (code, err) == (0, "")
        assert out.endswith("1,0,0,0,0,0,0,0,1,1\n")

    def test_small_exponent_negative_is_not_a_usage_error(self, capsys):
        momenta = [DIAG_MOMENTA[0], "-1e-05", *ZEROS9[:6], DIAG_MOMENTA[8]]
        code, _, err = run(["invert", "--momenta", *momenta], capsys)
        assert code in (0, 2)
        assert not err.startswith("Usage:")

    @pytest.mark.parametrize("token", ["-inf", "-nan", "-1x"])
    def test_non_numeric_dash_tokens_stay_usage_errors(self, token, capsys):
        code, _, err = run(["invert", "--momenta", *DIAG_MOMENTA[:8], token], capsys)
        assert code == 64
        assert err.startswith("Usage:")


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

    def test_missing_subcommand_is_usage_error(self, capsys):
        code, _, err = run([], capsys)
        assert code == 64
        assert err.startswith("Usage:")
        assert len(err.strip().splitlines()) == 1

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "finsler9", "invert",
             "--momenta", *DIAG_MOMENTA],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.endswith("1,0,0,0,0,0,0,0,1,1\n")

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

    @pytest.mark.parametrize("argv, code, prefix", [
        (["invert", "--momenta", *DIAG_MOMENTA], 0, ""),
        (["invert", "--momenta", *DIAG_MOMENTA[:8], "abc"], 1, "MalformedInput: "),
        (["invert", "--momenta", *ZEROS9], 2, "InconsistentMomenta: "),
        (["invert"], 64, "Usage: "),
    ], ids=["0", "1", "2", "64"])
    def test_exit_codes_pass_through_unchanged(self, argv, code, prefix):
        proc = cli_process(argv)
        assert proc.returncode == code
        assert proc.stderr.startswith(prefix) and len(proc.stderr.splitlines()) == bool(prefix)

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
