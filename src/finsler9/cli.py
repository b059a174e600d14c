"""Command line front end.

Commands: ``propagate`` (straight world line from momenta), ``invert``
(momenta to velocities), ``transform`` (apply a unimodular matrix),
``reduce4d`` (the relativistic limit at one velocity), ``check`` (the
seeded invariant suite).

Every number is rendered with 17 significant digits, which round-trips
double precision, so identical inputs always produce byte-identical
output.  Errors print a single line ``Token: detail`` to stderr; exit codes
are 0 (success), 1 (check failure, malformed numeric input, or an output
that cannot be opened or written), 2 (domain error), 64 (usage).
"""

import argparse
import contextlib
import gc
import os
import re
import sys

import numpy as np

from .checks import _check_arguments, all_passed, run_checks
from .dynamics import Trajectory, _check_kappa, invert_momenta
from .exceptions import FinslerError, NonRealEntry
from .geometry import conjugation_action, cubic_form, vec_to_matrix
from .minkowski import _lagrangians

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_DOMAIN = 2
EXIT_USAGE = 64

class UsageError(Exception):
    pass


class MalformedInput(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's ``_negative_number_matcher`` tells negative values from
        # option names; accept an exponent too, so that the CLI reads back
        # its own ``%.17g`` output such as -1e-05.
        self._negative_number_matcher = re.compile(
            r"^-(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?$")

    def error(self, message):  # exit 64 instead of argparse's default 2
        raise UsageError(message)

    def print_help(self, file=None):  # a failed write is MalformedInput, as for any output
        with _output(None) as handle:
            handle.write(self.format_help())


def _fmt(value):
    return format(float(value), ".17g")


#: Non-finite values as ``json.loads`` reads them (``%.17g`` gives ``nan``, ``inf``).
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _to_json(value):
    if isinstance(value, dict):
        items = ", ".join(f'"{k}": {_to_json(v)}' for k, v in value.items())
        return "{" + items + "}"
    if isinstance(value, list):
        return "[" + ", ".join(_to_json(v) for v in value) + "]"
    if isinstance(value, int):
        return str(value)
    text = _fmt(value)
    return _JSON_NONFINITE.get(text, text)


def _parse_floats(tokens, what):
    try:
        values = np.array([float(tok) for tok in tokens])
    except ValueError as exc:
        raise MalformedInput(f"{what}: {exc}") from None
    if not np.all(np.isfinite(values)):
        raise MalformedInput(f"{what}: values must be finite")
    return values


def _parse_kappa(token):
    try:
        return _check_kappa(_parse_floats([token], "kappa")[0])
    except ValueError as exc:
        raise UsageError(exc) from None


@contextlib.contextmanager
def _output(out):
    """The ``--out`` file opened for writing, or stdout when none is given.

    Everything written is flushed on leaving.  An ``OSError`` from opening,
    writing, flushing or closing raises MalformedInput naming the output.
    """
    try:
        with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as handle:
            yield handle
            handle.flush()
    except OSError as exc:
        raise MalformedInput(f"{'--out' if out else 'stdout'}: {exc}") from None


def _emit(args, columns, values, doc):
    """Write one record: a CSV ``columns`` header over a ``values`` row, or ``doc`` as JSON."""
    if args.format == "csv":
        text = ",".join(columns) + "\n" + ",".join([_fmt(v) for v in values]) + "\n"
    else:
        text = _to_json(doc) + "\n"
    with _output(args.out) as handle:
        handle.write(text)


def _read_matrix(args):
    if args.entries is not None:
        raw = _parse_floats(args.entries, "--entries")
    else:
        try:
            with open(args.matrix) as handle:
                tokens = handle.read().split()
        except OSError as exc:
            raise MalformedInput(f"--matrix: {exc}") from None
        raw = _parse_floats(tokens, f"matrix file {args.matrix}")
    if raw.size != 18:
        raise MalformedInput(f"expected 18 reals (re/im pairs row-major), got {raw.size}")
    pairs = raw.reshape(3, 3, 2)
    return pairs[..., 0] + 1j * pairs[..., 1]


def _write_trajectory(handle, fmt, kappa, traj, s_values):
    """Stream ``traj.at(s)`` for ``s`` in ``s_values`` to ``handle``, one block of rows a write.

    Each block of ``_render.CHUNK_ROWS`` rows is computed by
    :meth:`Trajectory.at`, rendered in one fixed workspace and written
    before the next, so memory does not grow with the sample count beyond
    ``s_values`` itself.
    """
    from . import _render  # only propagate builds the renderer's tables

    if fmt == "csv":
        handle.write("s," + ",".join(f"X{a}" for a in range(9)) + "\n")
        skip, tail = 0, ""
    else:
        head = _to_json({"kappa": kappa, "x0": list(traj.x0), "v0": list(traj.v0)})
        handle.write(head[:-1] + ', "samples": [')
        skip, tail = len(", "), "]}\n"  # the first row opens with no separator
    rows = _render.CHUNK_ROWS
    renderer = _render.Renderer(fmt, min(len(s_values), rows))
    for start in range(0, len(s_values), rows):
        s = s_values[start:start + rows]
        text = renderer.text(s, traj.at(s))
        handle.write(text if start else text[skip:])
    handle.write(tail)


def _cmd_propagate(args):
    kappa = _parse_kappa(args.kappa)
    x0 = _parse_floats(args.x0, "--x0")
    momenta = _parse_floats(args.momenta, "--momenta")
    s_max = float(_parse_floats([args.s_max], "--s-max")[0])
    if args.samples < 1:
        raise UsageError("--samples must be at least 1")
    traj = Trajectory(x0, invert_momenta(momenta, kappa), (0.0, s_max))
    s_values = np.linspace(0.0, s_max, args.samples)
    traj.at(s_values[-1])  # before --out opens; the line is affine in s: its last row bounds all
    with _output(args.out) as handle:
        _write_trajectory(handle, args.format, kappa, traj, s_values)
    return EXIT_OK


def _cmd_invert(args):
    kappa = _parse_kappa(args.kappa)
    momenta = _parse_floats(args.momenta, "--momenta")
    v0 = invert_momenta(momenta, kappa)
    det = float(np.linalg.det(vec_to_matrix(v0)).real)
    _emit(args, [f"X{a}dot" for a in range(9)] + ["det"], [*v0, det],
          {"kappa": kappa, "v0": list(v0), "det": det})
    return EXIT_OK


def _cmd_transform(args):
    d = _read_matrix(args)
    x = _parse_floats(args.x, "--x")
    moved = conjugation_action(d, x)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the test below
        before, after = float(cubic_form(x)), float(cubic_form(moved))
    if not np.isfinite([before, after]).all():
        raise NonRealEntry("the cubic form is beyond the float range")
    _emit(args, [f"X{a}p" for a in range(9)] + ["cubic_in", "cubic_out"],
          [*moved, before, after],
          {"x_out": list(moved), "cubic_in": before, "cubic_out": after})
    return EXIT_OK


def _cmd_reduce4d(args):
    xdot03 = _parse_floats(args.xdot03, "--xdot03")
    xdot47 = _parse_floats(args.xdot47, "--xdot47")
    mass = _parse_floats([args.mass], "--mass")[0]
    light_speed = _parse_floats([args.c], "--c")[0]
    try:
        nine, cubic, relativistic = _lagrangians(xdot03, xdot47, mass, light_speed)
    except ValueError as exc:  # a mass, speed or coupling -mass * c out of range
        raise UsageError(exc) from None
    record = {"x8dot": nine[8], "finsler_density": cubic, "minkowski_density": relativistic}
    _emit(args, list(record), list(record.values()), record)
    return EXIT_OK


def _cmd_check(args):
    _parse_kappa(args.kappa)  # refused as in every other command; the checks use -1
    overrides = {}
    for spec in args.tol or []:
        name, eq, value = spec.partition("=")
        if not eq:
            raise UsageError(f"--tol expects <known-check>=<value>, got {spec!r}")
        try:
            overrides[name] = float(value)
        except ValueError:
            raise UsageError(f"--tol {name}: bad value {value!r}") from None
    try:
        _check_arguments(args.seed, args.trials, overrides)
    except ValueError as exc:
        raise UsageError(exc) from None
    report = run_checks(seed=args.seed, trials=args.trials, tolerances=overrides)
    with _output(args.out) as handle:
        handle.write(_to_json(report) + "\n")
    if not all_passed(report):
        failed = sum(1 for entry in report.values() if entry["failures"])
        print(f"CheckFailure: {failed} of {len(report)} checks failed", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="finsler9", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, kappa=False):
        if kappa:
            p.add_argument("--kappa", default="-1", help="coupling constant (default -1)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("propagate", help="sample the straight world line of given momenta")
    add_common(p, kappa=True)
    p.add_argument("--x0", nargs=9, required=True, metavar="X")
    p.add_argument("--momenta", nargs=9, required=True, metavar="P")
    p.add_argument("--s-max", required=True, dest="s_max")
    p.add_argument("--samples", type=int, required=True)
    p.set_defaults(func=_cmd_propagate)

    p = sub.add_parser("invert", help="recover velocities from momenta")
    add_common(p, kappa=True)
    p.add_argument("--momenta", nargs=9, required=True, metavar="P")
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("transform", help="apply a unimodular 3x3 matrix to a 9-vector")
    add_common(p)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--matrix", help="file with 3 lines of 6 reals (re im re im re im)")
    src.add_argument("--entries", nargs=18, metavar="V",
                     help="18 reals, re/im pairs row-major")
    p.add_argument("--x", nargs=9, required=True, metavar="X")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("reduce4d", help="solve the 4D-limit constraint at one velocity")
    add_common(p)
    p.add_argument("--xdot03", nargs=4, required=True, metavar="V")
    p.add_argument("--xdot47", nargs=4, required=True, metavar="S")
    p.add_argument("--mass", default="1")
    p.add_argument("--c", default="1")
    p.set_defaults(func=_cmd_reduce4d)

    p = sub.add_parser("check", help="run the seeded invariant suite")
    p.add_argument("--kappa", default="-1", help="accepted for uniformity; checks use -1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--tol", action="append", metavar="NAME=VALUE",
                   help="override one check tolerance (repeatable)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse's exit after --help: entry exits
        return exc.code
    except UsageError as exc:
        print(f"Usage: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MalformedInput as exc:
        print(f"MalformedInput: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except FinslerError as exc:
        print(f"{exc.token}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def entry():
    """The ``finsler9`` process: :func:`main` on ``sys.argv``, then exit with its code."""
    code = main()
    try:
        sys.stdout.flush()
    except OSError:
        # main has reported the failed write; the bytes stdout still holds
        # go nowhere, so that the interpreter's last flush adds no line
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    # Finalisation runs full collections over every tracked object that the
    # imports made; frozen objects sit in the permanent generation, which
    # those collections skip.
    gc.freeze()
    sys.exit(code)
