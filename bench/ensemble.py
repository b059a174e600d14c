"""The ``ensemble`` workload: one stacked library job per operation.

Run as ``python bench/ensemble.py SEED TRACE`` in a fresh process.  It
imports finsler9, draws its inputs, runs one untimed warm-up operation and
prints one JSON line with what set-up found.  Then, for each line ``K`` it
reads, it runs operation ``K`` and prints one JSON line with its seconds
(``null`` if it failed); with TRACE=1 a traced run of the same operation
follows and its spans are printed too.  For a line ``reference`` it times
``reference.kernels()``.  It ends when its input ends, so the caller decides
when each operation runs and can time the host between them.
"""

import json
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

import finsler9 as f9
import gates
import oracle
import reference
import spans

N = 2_500
S_MAX = 2.0
#: Rows this close to the isotropic cone (|f|/|x|^3, f = 1 after scaling)
#: are run once through the inverse map at set-up to find the draws that
#: the forward map admits and the inverse refuses.
SCREEN_BELOW = 1e-4


@dataclass(frozen=True)
class Inputs:
    v: np.ndarray        # (N, 9) unit-speed velocities
    x4: np.ndarray       # (N, 4) timelike 4-velocities
    spinor: np.ndarray   # (N, 4) spinor parts
    x0: np.ndarray       # start of the sampled world line
    line_v: np.ndarray   # its unit-speed velocity
    gap_draws: int       # draws admitted by canonical_momenta, refused by invert_momenta


def inverse_refuses(v):
    """Whether invert_momenta raises a domain token on this velocity's momenta."""
    try:
        f9.invert_momenta(f9.canonical_momenta(v))
    except f9.FinslerError:
        return True
    return False


def make_inputs(seed, n=N):
    """Seeded draws from [-1, 1]^9, rejected below the library's ISOTROPY_EPS."""
    rng = np.random.default_rng([seed, 0])
    kept, gap = np.empty((0, 9)), 0
    while len(kept) < n:
        v = oracle.unit_speed(rng, n - len(kept), f9.ISOTROPY_EPS)
        near = np.linalg.norm(v, axis=1) ** -3 < SCREEN_BELOW
        refused = np.zeros(len(v), dtype=bool)
        refused[near] = [inverse_refuses(row) for row in v[near]]
        gap += int(refused.sum())
        kept = np.concatenate([kept, v[~refused]])
    x4, spinor = oracle.timelike(rng, n)
    line_v = oracle.unit_speed(rng, 1, 1e-2)[0]
    return Inputs(kept, x4, spinor, rng.uniform(-1.0, 1.0, size=9), line_v, gap)


def stacked_inverse(p):
    """True when invert_momenta takes an ``(n, 9)`` stack and matches per-row calls."""
    try:
        out = np.asarray(f9.invert_momenta(p), dtype=float)
    except Exception:  # a probe: any refusal of the stack means per-row calls
        return False
    rows = np.array([f9.invert_momenta(row) for row in p])
    return out.shape == rows.shape and np.allclose(out, rows, rtol=1e-12, atol=0.0)


def job(inputs, d, stacked):
    """One operation; every library call goes through the finsler9 namespace."""
    p = f9.canonical_momenta(inputs.v)
    if stacked:
        back = f9.invert_momenta(p)
    else:
        back = np.array([f9.invert_momenta(row) for row in p])
    ell = f9.group_action(d)
    w = f9.conjugation_action(d, inputs.v)
    nine = f9.assemble_velocity(inputs.x4, inputs.spinor)
    residual = f9.constraint_residual(nine)
    s, points = f9.Trajectory(inputs.x0, inputs.line_v, (0.0, S_MAX)).sample(len(inputs.v))
    length = f9.arc_length(s, points)
    return back, ell, w, nine, residual, s, length


def check(inputs, outputs):
    back, ell, w, nine, residual, s, length = outputs
    gates.round_trip(inputs.v, back)
    gates.group_action(inputs.v, w, ell)
    gates.closure(inputs.x4, inputs.spinor, nine, residual)
    gates.arc(s, length)


def timed_op(inputs, seed, k, stacked, tracer=None):
    """Run and check operation ``k``; returns its seconds, or None if it failed."""
    d = oracle.unimodular(np.random.default_rng([seed, 1, k]))
    uninstall = spans.install(tracer) if tracer is not None else None
    try:
        t0 = time.perf_counter()
        outputs = job(inputs, d, stacked)
        elapsed = time.perf_counter() - t0
    except Exception:  # the benchmark keeps going and counts the failure
        traceback.print_exc()
        return None
    finally:
        if uninstall is not None:
            uninstall()
    try:
        check(inputs, outputs)
    except gates.GateError:
        traceback.print_exc()
        return None
    return elapsed


def main(seed, trace):
    inputs = make_inputs(seed)
    stacked = stacked_inverse(f9.canonical_momenta(inputs.v[:2]))
    warm = timed_op(inputs, seed, 0, stacked)
    print(json.dumps({"n": len(inputs.v), "stacked": stacked, "gap_draws": inputs.gap_draws,
                      "warm_ok": warm is not None}), flush=True)
    for line in sys.stdin:
        if line.strip() == "reference":
            t0 = time.perf_counter()
            reference.kernels()
            print(json.dumps({"reference_s": time.perf_counter() - t0}), flush=True)
            continue
        k = int(line)
        reply = {"wall": timed_op(inputs, seed, k, stacked)}
        if trace and reply["wall"] is not None:
            tracer = spans.Tracer()
            reply["traced_wall"] = timed_op(inputs, seed, k, stacked, tracer)
            reply["summary"] = tracer.summary()
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]))
