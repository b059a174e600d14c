"""Tests for the invariant-suite runner."""

import pytest

from finsler9.checks import CHECK_NAMES, CHECKS, all_passed, run_checks


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


@pytest.mark.parametrize("kwargs, message", [
    ({"trials": 0}, "trials must be a positive integer"),
    ({"trials": 2.0}, "trials must be a positive integer"),
    ({"seed": -1}, "seed must be a non-negative integer"),
    ({"seed": 0.5}, "seed must be a non-negative integer"),
    ({"tolerances": {"duality": float("nan")}}, "the tolerance of duality is NaN"),
    ({"tolerances": {"nope": 1.0}}, "unknown check 'nope'"),
    ({"tolerances": {"duality": float("inf")}}, "the tolerance of duality is inf"),
    ({"tolerances": {"constant_count": float("-inf")}},
     "the tolerance of constant_count is -inf"),
])
def test_arguments_are_refused_before_any_check_runs(kwargs, message):
    with pytest.raises(ValueError, match=message):
        run_checks(**{"trials": 1, **kwargs})
