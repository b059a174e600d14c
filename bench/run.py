#!/usr/bin/env python3
"""Benchmark of finsler9: whole CLI processes and a stacked library job.

    python3 bench/run.py --workload {suite,render,ensemble} --seed N \\
        --seconds S --trace {0,1}

Run it from the repository root; it imports finsler9 from ``src/``.
Every workload is a single closed-loop caller: the next operation starts
when the previous one has ended, so one operation is in flight at a time.

- ``suite``: one operation is a ``finsler9 check --trials 50`` process.
  Per-trial Python loops and the one-vector kernel paths do the work.
- ``render``: one operation is two ``finsler9 propagate --samples 20000``
  processes, one writing CSV and one JSON.  The renderer and the write
  path do the work; the kernels run once.
- ``ensemble``: one operation is an in-process job on 2 500 particles
  (see ``ensemble.py``): the suite's kernels, stacked.

With ``--trace 0`` the end-to-end metrics are measured untraced, and a
fixed job of ``reference.py`` of the workload's make runs before the first
operation and after each one (and between render's two processes): as a
process of its own next to process operations, inside the worker next to
in-process ones.  Its time moves only with the host, so each operation's
time and set-up time are scaled by the job's time on a quiet host over the
mean of the job's times around it.  These "host-normalised" seconds read
as wall seconds on a quiet host.  The raw median rate is printed on the
summary line: on a shared host it moves by half from one minute to the
next, the normalised rate by a few per cent.  With
``--trace 1`` every traced operation is paired with an untraced one; the
per-layer metrics come from the traced ones (``spans.py``).  Every output
is checked (``gates.py``); an operation whose output is wrong, or whose
process fails, counts as failed.  The last line of output is one JSON
object; the lines before it record the machine and a readable summary.
"""

import argparse
import functools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gates
import oracle
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PY = sys.executable

TRIALS = 50
SAMPLES = 20_000
IMPORT_REPEATS = 5
ENSEMBLE_PROCESSES = 5
MIN_OPS = 3
#: In-process run_checks passes that time each check.
PROBE_ROUNDS = 3
#: Every child is killed past this many seconds after the benchmark starts.
DEADLINE_S = 170.0
#: Wall seconds of each reference job on a quiet host (Intel Xeon, 2 vCPUs):
#: ``python reference.py JOB`` as a process, and ``reference.kernels()``
#: inside an ensemble worker.
QUIET_S = {"kernels": 0.25, "render": 0.35, "in_worker": 0.13}

END_TO_END = {"setup_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}

TRACED = {
    "geometry": ("cubic_form", "vec_to_matrix", "matrix_to_vec", "group_action",
                 "conjugation_action", "random_unimodular"),
    "dynamics": ("canonical_momenta", "invert_momenta", "momenta_matrix",
                 "momentum_constraint_residual", "lagrangian", "transform_momenta",
                 "random_nonisotropic_velocity", "unit_speed_velocity",
                 "action_stationarity_check"),
    "minkowski": ("embed_sl2", "block_split_check", "solve_x8dot", "assemble_velocity",
                  "constraint_residual", "reduced_action_check"),
}
CHECKS = (
    "duality", "determinant_identity", "metric_contraction", "group_invariance",
    "action_equivalence", "homomorphism", "homogeneity", "gradient_oracle",
    "matrix_identity", "zero_energy", "momentum_scale_invariance",
    "inversion_round_trip", "momentum_constraint", "unit_determinant",
    "adjugate_vs_inverse", "inverse_hermiticity", "stationarity",
    "momentum_covariance", "constant_count", "subgroup_closure", "block_structure",
    "lorentz_preservation", "scalar_invariance", "constraint_closure",
    "action_equality", "action_kappa_sensitivity", "constraint_lorentz_invariance",
)
#: Modules in ``-X importtime`` output, and their metric names.
IMPORTS = {
    "numpy": "import.numpy_us",
    "finsler9": "import.finsler9.init_us",
    **{f"finsler9.{m}": f"import.finsler9.{m}_us"
       for m in ("exceptions", "geometry", "dynamics", "minkowski", "checks")},
}
ACCEPT = "dynamics.random_nonisotropic_velocity.accept_ratio"
SAMPLER_DRAWS = "dynamics.random_nonisotropic_velocity>geometry.cubic_form"


def per_layer_spec():
    """``(name, unit, better)`` of every per-layer metric, in output order."""
    spec = []
    for layer, names in TRACED.items():
        for name in names:
            spec += [(f"{layer}.{name}.calls", "count", "lower"),
                     (f"{layer}.{name}.self_s", "s", "lower")]
    spec += [(f"{key}.items_per_call", "count", "higher") for key in spans.ITEM_ARGS]
    spec += [(f"checks.{name}.s", "s", "lower") for name in CHECKS]
    spec += [("checks.run_checks.s", "s", "lower"), (ACCEPT, "ratio", "higher"),
             ("dynamics.invert_momenta.domain_gap_draws", "count", "lower")]
    for fmt in ("csv", "json"):
        spec += [(f"cli.{fmt}.self_s", "s", "lower"), (f"cli.{fmt}.rows_per_s", "1/s", "higher"),
                 (f"cli.{fmt}.out_bytes", "bytes", "lower")]
    spec += [("cli.check.self_s", "s", "lower")]
    spec += [(name, "us", "lower") for name in IMPORTS.values()]
    spec += [("trace.overhead_ratio", "ratio", "lower")]
    return spec


# --------------------------------------------------------------------------
# Child processes


@dataclass
class Child:
    code: int
    wall: float        # seconds from spawn to reaped
    rss_mb: float      # peak resident set size of the child
    ready: float       # seconds from spawn to its first output line (workers)
    stdout: str
    stderr: str


class Runner:
    """Spawns children with ``src/`` importable, inside a work directory."""

    def __init__(self, work):
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        # Imports are timed with bytecode caches in place, whatever the caller set.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def run(self, argv, wait_ready=False):
        """Run one child to its end; rusage comes from ``wait4`` on its pid."""
        with open(self.work / "stderr.txt", "w+") as err:
            t0 = time.perf_counter()
            with subprocess.Popen([str(a) for a in argv], stdout=subprocess.PIPE, stderr=err,
                                  cwd=ROOT, env=self.env, text=True) as proc:
                timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
                timer.start()
                try:
                    first = proc.stdout.readline() if wait_ready else ""
                    ready = time.perf_counter() - t0
                    out = first + proc.stdout.read()
                    _, status, usage = os.wait4(proc.pid, 0)
                    wall = time.perf_counter() - t0
                    proc.returncode = os.waitstatus_to_exitcode(status)
                finally:
                    timer.cancel()
                    if proc.returncode is None:
                        proc.kill()
            err.seek(0)
            stderr = err.read()
        return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, ready, out, stderr)

    def reference(self, job):
        """Wall seconds of a fixed reference job, run now as a process."""
        child = self.run([PY, BENCH / "reference.py", job, self.work / "reference.out"])
        require_ok(child, f"reference.py {job}")
        return child.wall

    def host(self, job):
        """A Host that runs reference job ``job`` as a process."""
        return Host(functools.partial(self.reference, job), QUIET_S[job])

    def cold_import(self):
        """Seconds for a fresh interpreter to ``import finsler9``."""
        child = self.run([PY, "-c", "import finsler9"])
        require_ok(child, "import finsler9")
        return child.wall

    def cli(self, *args):
        return self.run([PY, "-m", "finsler9", *args])

    def traced_cli(self, summary, *args):
        return self.run([PY, BENCH / "spans.py", summary, *args])


class Worker:
    """A child that answers one JSON line per line it is sent."""

    def __init__(self, runner, argv):
        self.err = open(runner.work / "worker-stderr.txt", "w+")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen([str(a) for a in argv], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self.err, cwd=ROOT,
                                     env=runner.env, text=True)
        self.timer = threading.Timer(max(1.0, runner.deadline - time.monotonic()),
                                     self.proc.kill)
        self.timer.start()
        self.t0, self.ready, self.rss_mb = t0, None, 0.0

    def start(self):
        """The child's first line, once it is ready; ``ready`` is seconds since spawn."""
        hello = self.reply()
        self.ready = time.perf_counter() - self.t0
        return hello

    def reply(self):
        line = self.proc.stdout.readline()
        if not line:
            self.err.seek(0)
            raise gates.GateError(f"worker ended early: {self.err.read().strip()[-300:]}")
        return json.loads(line)

    def ask(self, line):
        self.proc.stdin.write(f"{line}\n")
        self.proc.stdin.flush()
        return self.reply()

    def close(self):
        """Ends the child and waits for it; its peak RSS comes from ``wait4``."""
        try:
            self.proc.stdin.close()
            self.proc.stdout.read()
            _, status, usage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.rss_mb = usage.ru_maxrss / 1024.0
        finally:
            self.timer.cancel()
            if self.proc.returncode is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
            self.err.close()
        if self.proc.returncode != 0:
            raise gates.GateError(f"worker exited {self.proc.returncode}")


class Host:
    """Times a reference; ``sample`` gives the scale since the last sample.

    ``reference()`` runs the reference job and returns its wall seconds;
    ``quiet_s`` is what it takes on a quiet host.
    """

    def __init__(self, reference, quiet_s):
        self.reference = reference
        self.quiet_s = quiet_s
        self.span = []    # reference times since the last sample, that one included

    def mark(self):
        """Time the reference inside an operation, to follow the host within it."""
        self.span.append(self.reference())

    def sample(self):
        """``quiet_s`` over the mean reference time since the last sample, both ends in."""
        wall = self.reference()
        span, self.span = self.span + [wall], [wall]
        return self.quiet_s / statistics.mean(span)


def require_ok(child, what):
    if child.code != 0:
        raise gates.GateError(f"{what} exited {child.code}: {child.stderr.strip()[-300:]}")


# --------------------------------------------------------------------------
# Closed loop


@dataclass
class Op:
    items: int = 0
    wall: float = 0.0
    rss_mb: float = 0.0
    layers: dict = field(default_factory=dict)
    scale: float = 1.0    # host-normalised seconds per wall second

    def rate(self):
        return self.items / (self.wall * self.scale)


@dataclass
class Tally:
    ops: list = field(default_factory=list)
    setups: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def closed_loop(op, seconds, tally, min_ops=MIN_OPS, setup=None, host=None):
    """Call ``op(k)`` back to back until the next call would end past ``seconds``.

    At least ``min_ops`` operations succeed, unless twice as many fail.
    ``setup()``, if given, is sampled before each operation, so set-up time
    is measured across the same stretch of the host's load as the work.
    With a ``host``, whose reference has been sampled just before the loop,
    the reference runs again after each operation and scales it.
    """
    start, last = time.perf_counter(), 0.0
    k = 0
    while len(tally.ops) < min_ops and k < 2 * min_ops or \
            time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        tally.attempted += 1
        setup_s = result = None
        try:
            setup_s = setup() if setup is not None else None
            result = op(k)
        except Exception:  # a failed operation is counted, and the loop goes on
            traceback.print_exc()
            tally.failed += 1
        scale = host.sample() if host is not None else 1.0
        if setup_s is not None:
            tally.setups.append(setup_s * scale)
        if result is not None:
            result.scale = scale
            tally.ops.append(result)
        last = time.perf_counter() - t0
        k += 1
    return tally


def op_seed(seed, k):
    return int(np.random.default_rng([seed, k]).integers(2**31))


def median_layers(ops):
    keys = {key for op in ops for key in op.layers}
    return {key: statistics.median(op.layers.get(key, 0.0) for op in ops) for key in keys}


def layer_values(summary):
    """Per-layer values of one operation's merged span summary."""
    calls, self_s = summary["calls"], summary["self_s"]
    out = {}
    for layer, names in TRACED.items():
        for name in names:
            out[f"{layer}.{name}.calls"] = calls.get(f"{layer}.{name}", 0)
            out[f"{layer}.{name}.self_s"] = self_s.get(f"{layer}.{name}", 0.0)
    for key in spans.ITEM_ARGS:
        n = calls.get(key, 0)
        out[f"{key}.items_per_call"] = summary["items"].get(key, 0) / n if n else 0.0
    draws = summary["edges"].get(SAMPLER_DRAWS, 0)
    out[ACCEPT] = calls.get("dynamics.random_nonisotropic_velocity", 0) / draws if draws else 0.0
    return out


# --------------------------------------------------------------------------
# Workloads


def suite(runner, seed, seconds, trace):
    tally = Tally()

    def check(k, summary=None):
        out = runner.work / ("traced.json" if summary else "report.json")
        args = ("check", "--seed", op_seed(seed, k), "--trials", TRIALS, "--out", out)
        child = runner.traced_cli(summary, *args) if summary else runner.cli(*args)
        text = out.read_text()
        report = gates.suite_report(child.code, text)
        trials = sum(entry["trials"] for entry in report.values())
        return child, text, report, Op(trials, child.wall, child.rss_mb)

    if not trace:
        host = runner.host("kernels")
        host.sample()
        return closed_loop(lambda k: check(k)[3], seconds, tally, setup=runner.cold_import,
                           host=host), {}

    extra = {}

    def pair(k):
        plain, text, report, op = check(k)
        if k == 0:
            probe = json.loads(runner.run([PY, BENCH / "suite_probe.py", op_seed(seed, 0),
                                           TRIALS, PROBE_ROUNDS]).stdout)
            gates.same_residuals(report, {name: entry["worst_residual"]
                                          for name, entry in probe["report"].items()})
            extra.update({f"checks.{name}.s": s for name, s in probe["seconds"].items()})
            extra["checks.run_checks.s"] = probe["run_checks_s"]
        summary = runner.work / "summary.json"
        traced, traced_text, _, _ = check(k, summary)
        if traced_text != text:
            raise gates.GateError("tracing changed the check report")
        spans_of_op = json.loads(summary.read_text())
        op.layers = layer_values(spans_of_op)
        op.layers["cli.check.self_s"] = spans_of_op["self_s"]["cli.main"]
        op.layers["trace.overhead_ratio"] = traced.wall / plain.wall
        return op

    closed_loop(pair, seconds, tally, min_ops=1)
    return tally, extra


def render(runner, seed, seconds, trace):
    """Every operation renders the same seeded world line.

    The first operation's files are checked point by point; each later one
    must reproduce them byte for byte, which the CLI promises and which
    leaves the run's time for rendering rather than for parsing.  Untraced,
    the reference also runs between the CSV and the JSON process.
    """
    tally, validated = Tally(), {}
    host = None if trace else runner.host("render")
    rng = np.random.default_rng(seed)
    v = oracle.unit_speed(rng, 1, 1e-3)[0]
    x0 = rng.uniform(-10.0, 10.0, size=9)
    s_max = rng.uniform(1.0, 10.0)
    args = ["propagate", "--x0", *map(fmt, x0), "--momenta", *map(fmt, oracle.momenta(v)),
            "--s-max", fmt(s_max), "--samples", SAMPLES]

    def pair_of_files(tag="", traced=False):
        children, texts, summaries = {}, {}, {}
        for form in ("csv", "json"):
            out = runner.work / f"trajectory{tag}.{form}"
            full = args + ["--format", form, "--out", out]
            if traced:
                summary = runner.work / f"summary.{form}.json"
                children[form] = runner.traced_cli(summary, *full)
                summaries[form] = json.loads(summary.read_text())
            else:
                children[form] = runner.cli(*full)
                if host is not None and form == "csv":
                    host.mark()
            require_ok(children[form], f"propagate --format {form}")
            texts[form] = out.read_text()
        if not validated:
            gates.render(texts["csv"], texts["json"], x0, v, s_max, SAMPLES)
            validated.update(texts)
        elif texts != validated:
            raise gates.GateError("rendered files differ from the checked first ones")
        return children, texts, summaries

    def op(k):
        children, texts, _ = pair_of_files()
        wall = children["csv"].wall + children["json"].wall
        result = Op(SAMPLES, wall, max(c.rss_mb for c in children.values()))
        if trace:
            traced, _, summaries = pair_of_files("-traced", traced=True)
            layers = layer_values(spans.merge(summaries.values()))
            for form in ("csv", "json"):
                layers[f"cli.{form}.self_s"] = summaries[form]["self_s"]["cli.main"]
                layers[f"cli.{form}.rows_per_s"] = SAMPLES / children[form].wall
                layers[f"cli.{form}.out_bytes"] = len(texts[form].encode())
            layers["trace.overhead_ratio"] = (traced["csv"].wall + traced["json"].wall) / wall
            result.layers = layers
        return result

    if trace:
        return closed_loop(op, seconds, tally, min_ops=1), {}
    host.sample()
    return closed_loop(op, seconds, tally, setup=runner.cold_import, host=host), {}


def ensemble(runner, seed, seconds, trace):
    """Fresh worker processes; each sets up once and then runs operations.

    Set-up is the time from spawning a worker to its first line, scaled by
    the reference process run around it.  Each operation is one line sent
    to the worker and its answer, scaled by the reference job the worker
    runs around it.
    """
    tally, extra = Tally(), {}
    processes = 1 if trace else ENSEMBLE_PROCESSES
    spawns = None if trace else runner.host("kernels")
    if spawns is not None:
        spawns.sample()
    for _ in range(processes):
        before = len(tally.ops)
        worker = Worker(runner, [PY, BENCH / "ensemble.py", seed, int(trace)])
        try:
            hello = worker.start()
            tally.attempted += 1  # the untimed warm-up operation
            tally.failed += int(not hello["warm_ok"])
            tally.setups.append(worker.ready * (spawns.sample() if spawns is not None else 1.0))
            extra["dynamics.invert_momenta.domain_gap_draws"] = hello["gap_draws"]
            extra["stacked_inverse"] = hello["stacked"]
            host = None
            if not trace:
                host = Host(lambda: worker.ask("reference")["reference_s"], QUIET_S["in_worker"])
                host.sample()
            closed_loop(lambda k: ensemble_op(worker, k + 1, hello["n"]), seconds / processes,
                        tally, min_ops=1 if trace else MIN_OPS, host=host)
        except (gates.GateError, ValueError, KeyError):
            traceback.print_exc()
            tally.attempted += 1
            tally.failed += 1
        finally:
            try:
                worker.close()
            except gates.GateError:
                traceback.print_exc()
                tally.attempted += 1
                tally.failed += 1
        for op in tally.ops[before:]:
            op.rss_mb = worker.rss_mb
    return tally, extra


def ensemble_op(worker, k, n):
    reply = worker.ask(k)
    if reply["wall"] is None:
        raise gates.GateError(f"ensemble operation {k} failed")
    op = Op(n, reply["wall"])
    if "summary" in reply:
        if reply["traced_wall"] is None:
            raise gates.GateError(f"traced ensemble operation {k} failed")
        op.layers = layer_values(reply["summary"])
        op.layers["trace.overhead_ratio"] = reply["traced_wall"] / reply["wall"]
    return op


WORKLOADS = {"suite": suite, "render": render, "ensemble": ensemble}


# --------------------------------------------------------------------------
# Environment and imports


def fmt(value):
    return format(float(value), ".17g")


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def environment():
    """Interpreter, numpy and BLAS versions, BLAS threads, CPU and caches."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = None
    nproc = len(os.sched_getaffinity(0))
    threads = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    cpu = next((line.split(":", 1)[1].strip()
                for line in (_read("/proc/cpuinfo") or "").splitlines()
                if line.startswith("model name")), None)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind == "Unified":
            caches[f"L{level}"] = _read(index / "size")
    return {
        "python": sys.version.split()[0], "numpy": np.__version__, "blas": blas,
        "blas_threads": min(int(threads), nproc) if threads else nproc, "nproc": nproc,
        "cpu": cpu, **caches,
    }


def import_breakdown(runner):
    """Median microseconds per module from ``python -X importtime``."""
    samples = {name: [] for name in IMPORTS.values()}
    for _ in range(IMPORT_REPEATS):
        child = runner.run([PY, "-X", "importtime", "-c", "import finsler9"])
        require_ok(child, "import finsler9")
        for name, us in parse_importtime(child.stderr).items():
            samples[name].append(us)
    return {name: statistics.median(values) for name, values in samples.items() if values}


def parse_importtime(text):
    """Microseconds of the modules in IMPORTS, keyed by metric name.

    numpy is timed with everything it imports; each finsler9 module alone.
    """
    out = {}
    for line in text.splitlines():
        parts = line.partition("import time:")[2].split("|")
        module = parts[-1].strip()
        if len(parts) == 3 and module in IMPORTS:
            out[IMPORTS[module]] = int(parts[1 if module == "numpy" else 0])
    return out


# --------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "finsler9" / "__init__.py").is_file():
        print(f"bench: no finsler9 sources under {SRC}", file=sys.stderr)
        return 2
    env = environment()
    env["loadavg_start"] = os.getloadavg()
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=build))
    tally, extra, imports = Tally(attempted=1, failed=1), {}, {}
    try:
        runner = Runner(work)
        # The first import also writes the bytecode caches; it is not timed.
        require_ok(runner.run([PY, "-c", "import finsler9.cli"]), "import finsler9.cli")
    except gates.GateError:
        traceback.print_exc()
    else:
        imports = import_breakdown(runner) if args.trace else {}
        tally, extra = WORKLOADS[args.workload](runner, args.seed, args.seconds, args.trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()

    if tally.ops and args.trace:
        values = {**median_layers(tally.ops), **imports, **extra}
        metrics = {name: {"value": values.get(name, 0), "unit": unit}
                   for name, unit, _ in per_layer_spec()}
    elif tally.ops:
        metrics = {
            "setup_s": statistics.median(tally.setups),
            "items_per_s": statistics.median(op.rate() for op in tally.ops),
            "peak_rss_mb": statistics.median(op.rss_mb for op in tally.ops),
        }
        metrics = {name: {"value": v, "unit": END_TO_END[name]} for name, v in metrics.items()}
    else:
        metrics = {}

    print("env " + json.dumps(env))
    walls = sorted(op.wall for op in tally.ops)
    print(f"{args.workload}: {len(tally.ops)} ops measured, {tally.failed} of {tally.attempted} "
          f"failed (fail_ratio {tally.failed / tally.attempted:.4g}); op wall s "
          f"min {walls[0] if walls else 0:.4f} median "
          f"{statistics.median(walls) if walls else 0:.4f} max {walls[-1] if walls else 0:.4f}")
    if tally.ops and not args.trace:
        scales = sorted(op.scale for op in tally.ops)
        print(f"host-normalised s per wall s: min {scales[0]:.4f} median "
              f"{statistics.median(scales):.4f} max {scales[-1]:.4f}; raw items_per_s median "
              f"{statistics.median(op.items / op.wall for op in tally.ops):.6g}")
    if "checks.run_checks.s" in extra:
        share = sum(extra[f"checks.{name}.s"] for name in CHECKS) / extra["checks.run_checks.s"]
        print(f"suite: the {len(CHECKS)} checks sum to {share:.3f} of run_checks")
    if "stacked_inverse" in extra:
        how = "stacked" if extra["stacked_inverse"] else "per row"
        print(f"ensemble: invert_momenta called {how}")
    for name, metric in metrics.items():
        print(f"  {name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": tally.failed == 0 and bool(tally.ops),
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
