"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one ``[PASS]``/``[FAIL]`` line (run ``pytest -s`` to see
them on passing runs) and enforces both the numeric tolerance and the
runtime budget of its criterion.
"""

import json
import subprocess
import sys
import time

import numpy as np

from finsler9 import (
    LAMBDA_DUAL,
    LAMBDA_MATRICES,
    Trajectory,
    action_stationarity_check,
    canonical_energy,
    canonical_momenta,
    cubic_form,
    embed_sl2,
    group_action,
    invert_momenta,
    lagrangian,
    lorentz_residual,
    matrix_identity_residual,
    matrix_to_vec,
    metric_coefficients,
    momenta_matrix,
    momentum_constraint_residual,
    random_nonisotropic_velocity,
    random_unimodular,
    reduced_action_check,
    unit_speed_velocity,
    vec_to_matrix,
)
from finsler9.checks import all_passed, run_checks

from faults import peak_rss_mb

DIAG_MOMENTA = ["-0.6666666666666666", "0", "0", "0", "0", "0", "0", "0",
                "-0.3333333333333333"]


def verdict(name, ok, elapsed, budget):
    status = "PASS" if (ok and elapsed < budget) else "FAIL"
    print(f"[{status}] {name} ({elapsed:.3f} s, budget {budget:g} s)")
    assert ok, f"{name}: tolerance violated"
    assert elapsed < budget, f"{name}: {elapsed:.3f} s over budget {budget} s"


def test_01_determinant_identity():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    x = rng.uniform(-10, 10, size=(1000, 9))
    det = np.linalg.det(vec_to_matrix(x))
    scale = np.maximum(1.0, np.linalg.norm(x, axis=1) ** 3)
    ok = bool(
        (np.abs(cubic_form(x) - det.real) / scale).max() <= 1e-11
        and (np.abs(det.imag) / scale).max() <= 1e-11
    )
    verdict("01 determinant identity", ok, time.perf_counter() - start, 1.0)


def test_02_metric_tensor_faithfulness():
    rng = np.random.default_rng(1002)
    dense = metric_coefficients().as_dense()
    start = time.perf_counter()
    draws = rng.uniform(-10, 10, size=(1500, 9))
    keep = np.abs(cubic_form(draws)) >= 1e-2 * np.linalg.norm(draws, axis=1) ** 3
    x = draws[keep][:1000]
    assert len(x) == 1000
    full = np.einsum("abc,na,nb,nc->n", dense, x, x, x)
    poly = cubic_form(x)
    ok = bool((np.abs(full - poly) / np.abs(poly)).max() <= 1e-12)
    verdict("02 metric tensor faithfulness", ok, time.perf_counter() - start, 1.0)


def test_03_group_invariance():
    rng = np.random.default_rng(1003)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        ell = group_action(random_unimodular(rng))
        for _ in range(5):
            x = random_nonisotropic_velocity(rng)
            f = cubic_form(x)
            worst = max(worst, abs(cubic_form(ell @ x) - f) / abs(f))
    verdict("03 cubic form invariance", worst <= 1e-9,
            time.perf_counter() - start, 2.0)


def test_04_duality():
    start = time.perf_counter()
    gram = 0.5 * np.einsum("aij,bji->ab", LAMBDA_DUAL, LAMBDA_MATRICES)
    ok = bool(np.array_equal(gram, np.eye(9)))
    verdict("04 basis duality (81 exact pairs)", ok,
            time.perf_counter() - start, 1e-3)


def test_05_momenta_gradient_oracle():
    rng = np.random.default_rng(1005)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        xdot = random_nonisotropic_velocity(rng)
        p = canonical_momenta(xdot)
        h = 1e-6 * max(1.0, np.linalg.norm(xdot))
        for a in range(9):
            step = np.zeros(9)
            step[a] = h
            fd = (lagrangian(xdot + step) - lagrangian(xdot - step)) / (2 * h)
            worst = max(worst, abs(fd - p[a]) / (1 + abs(p[a])))
    verdict("05 momenta gradient oracle", worst <= 1e-6,
            time.perf_counter() - start, 2.0)


def test_06_matrix_identity():
    rng = np.random.default_rng(1006)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        xdot = random_nonisotropic_velocity(rng)
        p = canonical_momenta(xdot)
        scale = 1.0 + np.linalg.norm(xdot) ** 2 * np.linalg.norm(p)
        worst = max(worst, matrix_identity_residual(xdot) / scale)
    verdict("06 velocity-momentum matrix identity", worst <= 1e-10,
            time.perf_counter() - start, 1.0)


def test_07_zero_energy():
    rng = np.random.default_rng(1007)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        xdot = random_nonisotropic_velocity(rng)
        worst = max(worst, abs(canonical_energy(xdot)) / abs(lagrangian(xdot)))
    verdict("07 zero canonical energy", worst <= 1e-10,
            time.perf_counter() - start, 1.0)


def test_08_inversion_round_trip():
    rng = np.random.default_rng(1008)
    c3 = (2.0 / 3.0) ** 3
    start = time.perf_counter()
    worst_rt = worst_dual = worst_con = worst_det = 0.0
    for _ in range(500):
        v = unit_speed_velocity(rng)
        p = canonical_momenta(v)
        va = invert_momenta(p)
        vmat = (-2.0 / 3.0) * np.linalg.inv(momenta_matrix(p))
        vi = matrix_to_vec(0.5 * (vmat + vmat.conj().T))
        worst_rt = max(worst_rt, np.abs(va - v).max())
        worst_dual = max(worst_dual, np.abs(va - vi).max() / np.abs(vi).max())
        worst_con = max(worst_con, abs(momentum_constraint_residual(p)) / c3)
        det = np.linalg.det(vec_to_matrix(va)).real
        worst_det = max(worst_det, abs(det - 1.0))
    ok = (worst_rt <= 1e-9 and worst_dual <= 1e-11
          and worst_con <= 1e-9 and worst_det <= 1e-9)
    verdict("08 momentum inversion round trip", ok,
            time.perf_counter() - start, 2.0)


def test_09_inertia_variational_check():
    start = time.perf_counter()
    v0 = np.zeros(9)
    v0[0] = v0[8] = 1.0
    traj = Trajectory(np.zeros(9), v0)
    amplitudes = np.geomspace(1e-2, 1e-4, 7)

    def bump_in(slot):
        def eta(t):
            out = np.zeros(9)
            z = (t - 0.3) / 0.4
            if 0.0 < z < 1.0:
                out[slot] = np.exp(-1.0 / (z * (1.0 - z)))
            return out
        return eta

    ok = all(
        abs(action_stationarity_check(traj, bump_in(slot), amplitudes) - 2.0) <= 0.1
        for slot in (0, 1, 4, 6, 8)
    )
    verdict("09 straight-line action stationarity", ok,
            time.perf_counter() - start, 5.0)


def test_10_block_decomposition():
    rng = np.random.default_rng(1010)
    start = time.perf_counter()
    mask = np.zeros((9, 9), dtype=bool)
    mask[:4, :4] = mask[4:8, 4:8] = True
    mask[8, 8] = True
    worst_leak = worst_scalar = worst_metric = 0.0
    for _ in range(200):
        ell = group_action(embed_sl2(random_unimodular(rng, n=2)))
        worst_leak = max(worst_leak, np.abs(np.where(mask, 0.0, ell)).max())
        worst_scalar = max(worst_scalar, abs(ell[8, 8] - 1.0))
        worst_metric = max(worst_metric, lorentz_residual(ell[:4, :4]))
    ok = worst_leak <= 1e-12 and worst_scalar <= 1e-12 and worst_metric <= 1e-10
    verdict("10 block decomposition of embedded elements", ok,
            time.perf_counter() - start, 2.0)


def test_11_four_dimensional_limit():
    rng = np.random.default_rng(1011)
    start = time.perf_counter()
    worst_eq = 0.0
    worst_gap = np.inf
    for _ in range(100):
        tau = np.linspace(0.0, 1.0, 201)
        phase = rng.uniform(0.0, 2 * np.pi, size=3)
        spatial = 0.4 * np.sin(2 * np.pi * tau[:, None] + phase)
        q = 0.6 + 0.3 * np.sin(2 * np.pi * tau + rng.uniform(0, 2 * np.pi))
        x4 = np.concatenate(
            [np.sqrt(q + np.sum(spatial**2, axis=1))[:, None], spatial], axis=1
        )
        spinor = 0.2 * np.sqrt(q)[:, None] * np.sin(
            2 * np.pi * tau[:, None] + rng.uniform(0, 2 * np.pi, size=4)
        )
        mass, speed = rng.uniform(0.5, 2.0, size=2)
        s9, s4 = reduced_action_check(tau, x4, spinor, mass, speed)
        worst_eq = max(worst_eq, abs(s9 - s4) / abs(s4))
        p9, p4 = reduced_action_check(tau, x4, spinor, mass, speed,
                                      kappa=-1.01 * mass * speed)
        worst_gap = min(worst_gap, abs(p9 - p4) / abs(p4))
    ok = worst_eq <= 1e-10 and worst_gap >= 1e-3
    verdict("11 relativistic limit of the action", ok,
            time.perf_counter() - start, 2.0)


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
