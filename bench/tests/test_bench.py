"""Tests of the benchmark's own code: tracer, probe, gates and metric table.

Run from the repository root with ``python -m pytest bench/tests``.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import finsler9  # noqa: E402
import finsler9.cli  # noqa: E402
import ensemble  # noqa: E402
import gates  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


# -- tracer -----------------------------------------------------------------


def test_self_time_is_span_minus_direct_children():
    ticks = iter([0.0, 1.0, 4.0, 5.0, 6.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda: None)
    other = tracer.wrap("other", lambda: None)

    def body():
        inner()
        other()

    tracer.wrap("outer", body)()
    assert tracer.self_s == {"inner": 3.0, "other": 1.0, "outer": 6.0}
    assert tracer.calls == {"outer": 1, "inner": 1, "other": 1}
    assert tracer.edges == {("", "outer"): 1, ("outer", "inner"): 1, ("outer", "other"): 1}


def test_items_count_the_vectors_of_a_stack():
    tracer = spans.Tracer()
    traced = tracer.wrap("f", lambda x: x, item_arg=0)
    traced(np.zeros(9))
    traced(np.zeros((4, 9)))
    traced(np.zeros((2, 3, 9)))
    assert tracer.items["f"] == 1 + 4 + 6


def test_install_wraps_every_binding_and_uninstall_restores():
    import finsler9.checks as checks
    import finsler9.dynamics as dynamics

    original = finsler9.cubic_form
    original_checks = list(checks.CHECKS)
    rng = np.random.default_rng(3)
    plain = finsler9.unit_speed_velocity(np.random.default_rng(3))
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        assert finsler9.cubic_form is not original
        assert dynamics.cubic_form is finsler9.geometry.cubic_form is finsler9.cubic_form
        assert checks.CHECKS[0].fn is not original_checks[0].fn
        traced = finsler9.unit_speed_velocity(rng)
    finally:
        uninstall()
    assert np.array_equal(traced, plain)
    assert tracer.calls["dynamics.unit_speed_velocity"] == 1
    assert tracer.calls["dynamics.random_nonisotropic_velocity"] == 1
    sampler_draws = tracer.edges["dynamics.random_nonisotropic_velocity", "geometry.cubic_form"]
    assert sampler_draws >= 1
    assert finsler9.cubic_form is original and dynamics.cubic_form is original
    assert checks.CHECKS == original_checks


def test_importtime_lines_are_parsed():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       120 |      80000 |   numpy",
        "import time:      3000 |      83000 |   finsler9.geometry",
        "import time:       500 |      90000 | finsler9",
        "import time:        40 |         40 |     numbers",
    ])
    assert run.parse_importtime(text) == {
        "import.numpy_us": 80000,
        "import.finsler9.geometry_us": 3000,
        "import.finsler9.init_us": 500,
    }


def test_suite_probe_times_each_check_inside_run_checks(capsys):
    import suite_probe

    suite_probe.main(seed=2, trials=3, rounds=3)
    out = json.loads(capsys.readouterr().out)
    assert list(out["seconds"]) == finsler9.CHECK_NAMES
    assert sum(out["seconds"].values()) <= out["run_checks_s"]
    assert out["report"] == finsler9.run_checks(seed=2, trials=3)
    assert finsler9.checks.CHECKS[0].fn.__name__ == "_chk_duality"


# -- inversion probe ----------------------------------------------------------


def _momenta(n):
    return finsler9.canonical_momenta(oracle.unit_speed(np.random.default_rng(1), n, 1e-3))


def test_probe_chooses_per_row_for_the_one_vector_inverse():
    # invert_momenta takes one vector per call in this version of the library.
    assert ensemble.stacked_inverse(_momenta(2)) is False


def test_probe_chooses_a_stack_only_when_it_matches_per_row_calls(monkeypatch):
    one = finsler9.invert_momenta

    def stacked(p, kappa=-1.0):
        p = np.asarray(p)
        return np.array([one(row) for row in p]) if p.ndim == 2 else one(p)

    monkeypatch.setattr(finsler9, "invert_momenta", stacked)
    assert ensemble.stacked_inverse(_momenta(2)) is True
    monkeypatch.setattr(finsler9, "invert_momenta",
                        lambda p: stacked(p)[::-1] if np.ndim(p) == 2 else one(p))
    assert ensemble.stacked_inverse(_momenta(2)) is False


# -- gates --------------------------------------------------------------------


def _report(seed=0, trials=3):
    return finsler9.run_checks(seed=seed, trials=trials)


def test_suite_gate_rejects_exit_code_failures_and_missing_checks():
    report = _report()
    text = json.dumps(report)
    assert gates.suite_report(0, text) == report
    with pytest.raises(gates.GateError):
        gates.suite_report(1, text)
    bad = dict(report, duality={**report["duality"], "failures": 1})
    with pytest.raises(gates.GateError):
        gates.suite_report(0, json.dumps(bad))
    report.pop("duality")
    with pytest.raises(gates.GateError):
        gates.suite_report(0, json.dumps(report))


def test_residual_gate_rejects_a_changed_residual():
    report = _report()
    worst = {name: entry["worst_residual"] for name, entry in report.items()}
    gates.same_residuals(report, worst)
    worst["homomorphism"] = np.nextafter(worst["homomorphism"], 1.0)
    with pytest.raises(gates.GateError):
        gates.same_residuals(report, worst)


@pytest.fixture
def trajectory(tmp_path):
    rng = np.random.default_rng(5)
    v = oracle.unit_speed(rng, 1, 1e-3)[0]
    x0 = rng.uniform(-10.0, 10.0, size=9)
    s_max, samples = 3.7, 40
    texts = {}
    for form in ("csv", "json"):
        out = tmp_path / f"t.{form}"
        code = finsler9.cli.main(
            ["propagate", "--x0", *map(run.fmt, x0), "--momenta", *map(run.fmt, oracle.momenta(v)),
             "--s-max", run.fmt(s_max), "--samples", str(samples), "--format", form,
             "--out", str(out)])
        assert code == 0
        texts[form] = out.read_text()
    return texts["csv"], texts["json"], x0, v, s_max, samples


def test_render_gate_accepts_the_cli_output(trajectory):
    gates.render(*trajectory)


def test_render_gate_rejects_a_corrupted_csv_row(trajectory):
    csv_text, json_text, *rest = trajectory
    lines = csv_text.splitlines()
    cells = lines[7].split(",")
    cells[4] = run.fmt(np.nextafter(float(cells[4]), np.inf))
    lines[7] = ",".join(cells)
    with pytest.raises(gates.GateError):
        gates.render("\n".join(lines) + "\n", json_text, *rest)
    with pytest.raises(gates.GateError):
        gates.render("\n".join(lines[:-1]) + "\n", json_text, *rest)


def test_render_gate_rejects_a_corrupted_json_sample(trajectory):
    csv_text, json_text, *rest = trajectory
    doc = json.loads(json_text)
    doc["samples"][11]["x"][2] += 1e-9
    with pytest.raises(gates.GateError):
        gates.render(csv_text, json.dumps(doc), *rest)


def test_render_gate_rejects_a_line_moved_off_its_velocity(trajectory):
    csv_text, json_text, x0, v, s_max, samples = trajectory
    with pytest.raises(gates.GateError):
        gates.render(csv_text, json_text, x0, v * (1 + 1e-9), s_max, samples)


@pytest.fixture(scope="module")
def ensemble_outputs():
    inputs = ensemble.make_inputs(seed=4, n=64)
    d = oracle.unimodular(np.random.default_rng(8))
    return inputs, ensemble.job(inputs, d, stacked=False)


def test_ensemble_gates_accept_a_correct_job(ensemble_outputs):
    ensemble.check(*ensemble_outputs)


@pytest.mark.parametrize("slot, row", [(0, 5), (2, 9), (4, 17), (6, 30)])
def test_ensemble_gates_reject_one_corrupted_row(ensemble_outputs, slot, row):
    inputs, outputs = ensemble_outputs
    outputs = list(outputs)
    corrupted = np.array(outputs[slot], dtype=float)
    corrupted[row] += 1e-9 * np.abs(corrupted[row]).max() + 1e-9
    outputs[slot] = corrupted
    with pytest.raises(gates.GateError):
        ensemble.check(inputs, tuple(outputs))


# -- host normalisation -------------------------------------------------------


def test_host_scale_is_quiet_time_over_the_mean_reference_around_an_operation():
    host = run.Host(iter([0.5, 1.0, 2.0, 3.0, 1.0]).__next__, 0.3)
    assert host.sample() == 0.3 / 0.5
    assert host.sample() == 0.3 / 0.75
    host.mark()
    assert host.sample() == 0.3 / 2.0


def test_closed_loop_scales_each_operation_and_its_set_up():
    host = run.Host(iter([1.0, 3.0, 0.2]).__next__, 0.3)
    host.sample()
    tally = run.closed_loop(lambda k: run.Op(items=10, wall=2.0), 0.0, run.Tally(), min_ops=2,
                            setup=lambda: 0.5, host=host)
    scales = [0.3 / 2.0, 0.3 / 1.6]
    assert [op.scale for op in tally.ops] == scales
    assert tally.setups == [0.5 * scale for scale in scales]
    assert tally.ops[0].rate() == 10 / (2.0 * scales[0])


def test_reference_jobs_are_fixed_work_without_the_library(tmp_path):
    out = tmp_path / "reference.out"
    code = ("import sys; sys.path.insert(0, 'bench'); import reference; "
            "assert reference.kernels(5, 20) == reference.kernels(5, 20); "
            f"n = reference.render({str(out)!r}, 7); "
            "assert not [m for m in sys.modules if m.startswith('finsler9')]; print(n)")
    child = subprocess.run([sys.executable, "-c", code], cwd=BENCH.parent, check=True,
                           capture_output=True, text=True)
    text = out.read_text()
    assert int(child.stdout) == len(text)
    csv, doc = text.split("\n[")
    assert len(csv.splitlines()) == 7 and len(json.loads("[" + doc)) == 7


# -- metric table and oracles -------------------------------------------------


def test_benchmark_json_lists_what_run_prints():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert doc["paths"] == ["bench"]
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == run.per_layer_spec()
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)


def test_traced_names_are_the_library_names():
    assert list(run.CHECKS) == finsler9.CHECK_NAMES
    for layer, names in run.TRACED.items():
        module = getattr(finsler9, layer)
        assert all(callable(getattr(module, name)) for name in names)


def test_oracles_match_the_library():
    x = np.random.default_rng(2).uniform(-1.0, 1.0, size=(50, 9))
    assert np.allclose(oracle.cubic(x), finsler9.cubic_form(x), rtol=0, atol=1e-14)
    v = oracle.unit_speed(np.random.default_rng(2), 50, 1e-3)
    assert np.allclose(oracle.cubic(v), 1.0, rtol=0, atol=1e-12)
    assert np.allclose(oracle.momenta(v), finsler9.canonical_momenta(v), rtol=1e-12, atol=1e-12)


def test_main_refuses_a_tree_without_the_library(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "suite", "--seed", "0", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
