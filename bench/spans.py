"""Spans around the calls into fjerk's public functions, recorded from outside.

`install` replaces module attributes of fjerk with timing wrappers, so a call
that reaches a function through its module (as the library's own code does,
e.g. `integrate` -> `caputo_abm` -> `abm_weights`) leaves a span with its
name, start, end, the span that caused it and optional counts. The library
itself is not changed. Spans of this process stay in memory. Pool workers
started by fork (the default on Linux up to Python 3.13) inherit the wrappers
and append each finished span as one JSON line to a file of their own, since
a pool worker has no end-of-run hook; under another start method the lane
spans, and the per-layer figures made from them, would be missing.
"""

from __future__ import annotations

import functools
import json
import os
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, spill_dir):
        self.pid = os.getpid()
        self.spill_dir = spill_dir
        self.spans = []
        self._stack = []
        self._next = 0
        self._patches = []

    @contextmanager
    def span(self, name, **counts):
        sid = f"{os.getpid()}:{self._next}"
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield counts
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._record({"id": sid, "parent": parent, "name": name, "start": start,
                          "end": end, "pid": os.getpid(), **counts})

    def _record(self, span):
        if os.getpid() == self.pid:
            self.spans.append(span)
        else:
            path = os.path.join(self.spill_dir, f"spans-{os.getpid()}.jsonl")
            with open(path, "a") as fh:
                fh.write(json.dumps(span) + "\n")

    def wrap(self, name, modules, attr, counts=None):
        """Trace `attr` of every module in `modules` as span `name`.

        `counts(args, kwargs, result)` may return a dict stored on the span.
        """
        orig = getattr(modules[0], attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            with self.span(name) as extra:
                result = orig(*args, **kwargs)
                if counts is not None:
                    extra.update(counts(args, kwargs, result))
                return result

        for mod in modules:
            self._patches.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, traced)

    def uninstall(self):
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    def all_spans(self):
        """This process's spans plus every span the pool workers wrote."""
        spans = list(self.spans)
        for fname in sorted(os.listdir(self.spill_dir)):
            if fname.startswith("spans-"):
                with open(os.path.join(self.spill_dir, fname)) as fh:
                    spans.extend(json.loads(line) for line in fh)
        return spans


def install(tracer):
    """Wrap the public functions of solver, chaos, hopf, output and cli."""
    from fjerk import chaos, cli, hopf, output, solver

    def steps(args, kwargs, result):
        return {"steps": args[2].n_steps}

    def tangent(args, kwargs, result):
        return {"steps": args[2].n_steps, "renorms": len(result[1].renorm_times)}

    tracer.wrap("solver.abm_weights", [solver], "abm_weights")
    tracer.wrap("solver.caputo_abm", [solver], "caputo_abm")
    tracer.wrap("solver.integrate", [solver, chaos], "integrate", steps)
    tracer.wrap("solver.integrate_with_tangent", [solver, chaos], "integrate_with_tangent", tangent)
    tracer.wrap("chaos.sweep_bifurcation", [chaos], "sweep_bifurcation")
    tracer.wrap("chaos.lyapunov_spectrum", [chaos], "lyapunov_spectrum")
    tracer.wrap("chaos.extract_extrema", [chaos], "extract_extrema")
    tracer.wrap("chaos.classify_attractor", [chaos], "classify_attractor")
    tracer.wrap("hopf.hopf_commensurate", [hopf], "hopf_commensurate")
    tracer.wrap("hopf.hopf_incommensurate", [hopf], "hopf_incommensurate")
    tracer.wrap("hopf.classify_stability", [hopf], "classify_stability")
    tracer.wrap("output.write_sweep_csv", [output], "write_sweep_csv")
    tracer.wrap("output.render_svg", [output], "render_svg")
    tracer.wrap("cli.main", [cli], "main")
