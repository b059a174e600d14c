"""Outside-in tracing of finsler9's layers, installed at run time.

``install`` wraps every public function of ``finsler9.geometry``,
``finsler9.dynamics`` and ``finsler9.minkowski`` in every finsler9
namespace that binds it, and every check function of ``finsler9.checks``.
No library source is edited; ``install`` returns a function that puts the
originals back.  Spans sit on a stack, so a span's self time is its
duration minus the time of its direct children.
"""

import dataclasses
import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("geometry", "dynamics", "minkowski")

#: Functions whose stacked argument is counted in items (argument position).
ITEM_ARGS = {
    "geometry.cubic_form": 0,
    "geometry.conjugation_action": 1,
    "dynamics.canonical_momenta": 0,
    "dynamics.invert_momenta": 0,
}


class Tracer:
    """Aggregated spans: calls, self time, items and parent-child call counts."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.items = Counter()
        self.edges = Counter()

    def wrap(self, name, fn, item_arg=None):
        clock, stack = self.clock, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            self.edges[stack[-1][0] if stack else "", name] += 1
            if item_arg is not None:
                self.items[name] += int(np.prod(np.shape(args[item_arg])[:-1]))
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span = clock() - frame[1]
                self.self_s[name] += span - frame[2]
                if stack:
                    stack[-1][2] += span

        return traced

    def summary(self):
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "items": dict(self.items),
            "edges": {f"{p}>{c}": n for (p, c), n in self.edges.items()},
        }


def install(tracer):
    """Wrap the layer and check functions of the imported finsler9 modules."""
    wrapped = {}
    for layer in LAYERS:
        module = sys.modules[f"finsler9.{layer}"]
        for name, fn in vars(module).items():
            if inspect.isfunction(fn) and fn.__module__ == module.__name__ \
                    and not name.startswith("_"):
                key = f"{layer}.{name}"
                wrapped[id(fn)] = (fn, tracer.wrap(key, fn, ITEM_ARGS.get(key)))
    patches = []
    for modname, module in list(sys.modules.items()):
        if modname != "finsler9" and not modname.startswith("finsler9."):
            continue
        for name, value in list(vars(module).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                patches.append((module, name, value))
                setattr(module, name, hit[1])
    checks = sys.modules["finsler9.checks"]
    originals = list(checks.CHECKS)
    checks.CHECKS[:] = [
        dataclasses.replace(spec, fn=tracer.wrap(f"checks.{spec.name}", spec.fn))
        for spec in originals
    ]

    def uninstall():
        for module, name, value in patches:
            setattr(module, name, value)
        checks.CHECKS[:] = originals

    return uninstall


def merge(summaries):
    """Sum several summaries (for instance one per process of an operation)."""
    total = {"calls": Counter(), "self_s": Counter(), "items": Counter(), "edges": Counter()}
    for summary in summaries:
        for key, counter in total.items():
            counter.update(summary[key])
    return {key: dict(counter) for key, counter in total.items()}


def traced_cli_main():
    """``python bench/spans.py SUMMARY.json <finsler9 arguments>``.

    Runs one finsler9 command with every layer traced and ``cli.main`` as
    the root span, writes the summary, and exits with the command's code.
    """
    import finsler9.cli

    tracer = Tracer()
    install(tracer)
    code = tracer.wrap("cli.main", finsler9.cli.main)(sys.argv[2:])
    with open(sys.argv[1], "w") as handle:
        json.dump(tracer.summary(), handle)
    return code


if __name__ == "__main__":
    sys.exit(traced_cli_main())
