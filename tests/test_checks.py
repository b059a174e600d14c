"""Tests for the invariant-suite runner."""

import dataclasses
import math

import numpy as np
import pytest

from finsler9 import checks
from finsler9.checks import CHECK_NAMES, CHECKS, all_passed, run_checks

from contract import same_bits


def test_registry_names_are_unique():
    assert len(CHECK_NAMES) == len(set(CHECK_NAMES)) == 27


def test_report_schema_and_all_pass():
    report = run_checks(seed=0, trials=4)
    assert list(report) == CHECK_NAMES
    for entry in report.values():
        assert set(entry) == {"trials", "failures", "worst_residual"}
        assert entry["failures"] == 0
    assert all_passed(report)


def test_same_seed_reproduces_worst_residuals():
    a = run_checks(seed=7, trials=4)
    b = run_checks(seed=7, trials=4)
    assert a == b


def test_tolerance_override_only_flips_verdicts():
    base = run_checks(seed=0, trials=4)
    forced = run_checks(seed=0, trials=4,
                        tolerances={"matrix_identity": 0.0})
    assert forced["matrix_identity"]["failures"] == 4
    assert not all_passed(forced)
    for name in CHECK_NAMES:
        assert forced[name]["worst_residual"] == base[name]["worst_residual"]


def test_lower_bound_checks_fail_when_threshold_is_raised():
    # sensitivity checks pass by exceeding their tolerance, so demanding an
    # absurdly large gap must fail them
    forced = run_checks(seed=0, trials=4,
                        tolerances={"action_kappa_sensitivity": 1e6})
    assert forced["action_kappa_sensitivity"]["failures"] == 4


def test_fixed_enumeration_checks_ignore_trials():
    report = run_checks(seed=0, trials=3)
    assert report["duality"]["trials"] == 81
    assert report["stationarity"]["trials"] == 5


def test_every_check_has_a_direction():
    for spec in CHECKS:
        assert spec.cmp in ("le", "ge")


def test_trial_counts_are_unchanged():
    trials = 7
    report = run_checks(seed=0, trials=trials)
    for name, entry in report.items():
        expected = {"duality": 81, "stationarity": 5}.get(name, trials)
        assert entry["trials"] == expected, name
    assert sum(entry["trials"] for entry in report.values()) == 25 * trials + 81 + 5


def test_action_equivalence_compares_two_computations():
    # a residual of exactly 0 would mean both sides had become one computation
    assert run_checks(seed=0, trials=50)["action_equivalence"]["worst_residual"] > 0



@pytest.mark.parametrize("cmp", ["le", "ge"])
def test_a_nan_residual_is_a_failure(cmp, monkeypatch):
    # the residual 0 passes either direction at tolerance 0; the NaN must fail it
    spec = dataclasses.replace(CHECKS[1], tolerance=0.0, cmp=cmp,
                               fn=lambda rng, trials: np.array([0.0, np.nan]))
    monkeypatch.setattr(checks, "CHECKS", [CHECKS[0], spec, *CHECKS[2:]])
    report = run_checks(seed=0, trials=2)
    assert report[spec.name]["failures"] == 1
    assert math.isnan(report[spec.name]["worst_residual"])
    assert not all_passed(report)


def _residuals(trials):
    return [np.asarray(spec.fn(np.random.default_rng([0, idx]), trials), dtype=float)
            for idx, spec in enumerate(CHECKS)]


# 21 trials are just past the default block edge of the curve checks (20 trials)
@pytest.mark.parametrize("trials", [1, 7, 8, 50, 21])
@pytest.mark.parametrize("block", [1, 7])
def test_block_size_changes_no_bits(block, trials, monkeypatch):
    expected = _residuals(trials)
    monkeypatch.setattr(checks, "_BLOCK_ROWS", block)
    for spec, got, want in zip(CHECKS, _residuals(trials), expected):
        assert same_bits(got, want), spec.name


@pytest.mark.parametrize("spec", [s for s in CHECKS if hasattr(s.fn, "rows")],
                         ids=lambda spec: spec.name)
def test_a_run_just_past_the_default_block_edge_changes_no_bits(spec, monkeypatch):
    idx = CHECKS.index(spec)
    trials = checks._BLOCK_ROWS // spec.fn.rows + 1
    expected = spec.fn(np.random.default_rng([0, idx]), trials)
    monkeypatch.setattr(checks, "_BLOCK_ROWS", 7)
    assert same_bits(spec.fn(np.random.default_rng([0, idx]), trials), expected)


def _old_random_timelike_curve(rng, trials, n=201):
    """The curve sampler as it was before the checks drew parameters only."""
    tau = np.linspace(0.0, 1.0, n)
    wave = 2.0 * np.pi * tau[:, None]
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(trials, 1, 3))
    spatial = 0.4 * np.sin(wave + phase) * rng.uniform(0.2, 1.0, size=(trials, 1, 3))
    q = (0.5 + 0.3 * np.sin(wave[:, 0] + rng.uniform(0.0, 2.0 * np.pi, size=(trials, 1)))
         + rng.uniform(0.2, 1.0, size=(trials, 1)))
    x4 = np.concatenate([np.sqrt(q + np.sum(spatial**2, axis=-1))[..., None], spatial], axis=-1)
    spinor = 0.2 * np.sqrt(q)[..., None] * np.sin(
        wave + rng.uniform(0.0, 2.0 * np.pi, size=(trials, 1, 4))
    )
    mass, speed = rng.uniform(0.5, 2.0, size=(2, trials))
    return tau, x4, spinor, mass, speed


@pytest.mark.parametrize("trials", [1, 20, 21, 500])
def test_curve_parameters_expand_to_the_old_curves(trials):
    old_rng, new_rng = np.random.default_rng([5, 24]), np.random.default_rng([5, 24])
    expected = _old_random_timelike_curve(old_rng, trials)
    *curve, mass, speed = checks._curve_parameters(new_rng, trials)
    assert all(p.shape[0] == trials and p[0].size <= 4 for p in (*curve, mass, speed))
    got = (*checks._timelike_curve(*curve), mass, speed)
    for a, b in zip(got, expected):
        assert same_bits(a, b)
    assert new_rng.bit_generator.state == old_rng.bit_generator.state
