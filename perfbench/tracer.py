"""Span tracer for the benchmark's traced runs, and the per-layer metrics
derived from its spans.

The tracer wraps named public functions of circlet from outside the
library: each wrapper replaces the function in every circlet module
namespace that binds it, so calls through `circlet.analyze`,
`circlet.cwt.analyze` and `circlet.cli.analyze` all land in one span
record.  A span is [name, start_ns, end_ns, parent_index, op, attrs];
spans stay in memory until the process writes them out.

A target that a later version of circlet renames or removes is recorded
as absent and its metrics are left out, so the traced run still works.

Imports only the standard library at module level, so that importing the
tracer before `import circlet` does not distort the import time.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
import warnings

# Functions called inside an op: each gets `<name>.calls` (calls/op) and
# `<name>.s` (s/op).  Names are <module>.<function> under circlet.
OP_TARGETS = (
    "cwt.dilated_coeffs",
    "cwt.analyze",
    "cwt.synthesize",
    "cwt.fourier_coeffs",
    "cwt.mode_synthesis",
    "circle.trig_interpolate",
    "circle.rep_action",
    "io.write_signal",
    "io.read_signal",
    "io.write_scalogram",
    "io.read_scalogram",
    "io.read_report",
    "line.line_analyze",
    "line.line_synthesize",
    "laguerre.laplace_transform",
    "euclid.euclidean_limit_error",
)
# Functions whose time outside their traced children is reported as `.self_s`.
SELF_TARGETS = ("cwt.analyze", "cwt.synthesize", "circle.rep_action")
# Functions reported per set-up (`<name>.s`, s/setup).
SETUP_TARGETS = (
    "cwt.make_dog",
    "cwt.lambda_sequence",
    "io.write_report",
    "line.line_admissibility",
)
# The dilated-coefficient table is keyed by its arguments so the run can
# count how many calls recomputed a table an earlier call already built.
# `.distinct_frac` is distinct keys over calls in the set-up and the first
# op only, so that it does not fall as faster ops fit more into a run.
KEYED_TARGETS = ("cwt.dilated_coeffs",)
WARNING_TARGETS = {"laguerre.laplace_transform": "QuadratureConvergenceWarning"}
CLI_COMMANDS = ("cwt", "icwt")

SETUP = "setup"


def _digest(obj, h):
    """Feed a content fingerprint of a call argument into hash h."""
    import dataclasses

    import numpy as np

    if isinstance(obj, np.ndarray):
        h.update(repr((obj.dtype.str, obj.shape)).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if not callable(value):
                _digest(value, h)
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            _digest(item, h)
    else:
        h.update(repr(obj).encode())


def call_key(args, kwargs) -> str:
    h = hashlib.sha1()
    _digest(args, h)
    _digest(sorted(kwargs.items()), h)
    return h.hexdigest()


class Tracer:
    """In-memory span recorder; `op` tags the spans of the current op."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.op = None
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        tracer = self
        keyed = name in KEYED_TARGETS
        warn_name = WARNING_TARGETS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = {}
            if keyed:
                attrs["key"] = call_key(args, kwargs)
            span = [name, 0, 0, tracer._stack[-1] if tracer._stack else None, tracer.op, attrs]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                if warn_name is None:
                    return fn(*args, **kwargs)
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    result = fn(*args, **kwargs)
                attrs["warnings"] = sum(type(w.message).__name__ == warn_name for w in caught)
            finally:
                span[2] = time.perf_counter_ns()
                tracer._stack.pop()
            # hand the warnings on to the caller's filters unchanged
            for w in caught:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            return result

        return wrapper

    def install(self):
        """Wrap every target in each loaded circlet module that binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "circlet" or n.startswith("circlet."))]
        for name in OP_TARGETS + SETUP_TARGETS:
            mod_name, func_name = name.split(".")
            fn = getattr(sys.modules.get("circlet." + mod_name), func_name, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)

    def dump(self) -> dict:
        return {"spans": self.spans, "absent": self.absent}


def _durations(spans):
    """(duration_s, self_s) per span; children of one parent never overlap."""
    dur = [(s[2] - s[1]) * 1e-9 for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] is not None:
            child[s[3]] += dur[i]
    return dur, [d - c for d, c in zip(dur, child)]


def layer_metrics(procs: list[dict], n_ops: int) -> tuple[dict, list[str]]:
    """Per-layer metrics from the span dumps of every traced process.

    Each entry of procs holds `spans` and `absent` from Tracer.dump, plus
    `import_s` and, for a CLI process, `command` and `wall_s` measured by
    the parent.  Returns ({metric: (value, unit)}, absent target names).
    """
    absent = sorted({a for p in procs for a in p["absent"]})
    tot = {}  # (name, field) -> summed value
    keys = []
    for p in procs:
        spans = p["spans"]
        dur, self_s = _durations(spans)
        for s, d, sf in zip(spans, dur, self_s):
            name, op, attrs = s[0], s[4], s[5]
            if "key" in attrs and op in (SETUP, 0):
                keys.append(attrs["key"])
            if op == SETUP:
                tot[name, "setup_s"] = tot.get((name, "setup_s"), 0.0) + d
            elif isinstance(op, int):
                for field, v in (("calls", 1), ("s", d), ("self_s", sf),
                                 ("warnings", attrs.get("warnings", 0))):
                    tot[name, field] = tot.get((name, field), 0.0) + v
        if "command" in p:
            name = "cli." + p["command"]
            if p["op"] == SETUP:
                tot[name, "setup_s"] = tot.get((name, "setup_s"), 0.0) + p["wall_s"]
                continue
            root_s = sum(d for s, d in zip(spans, dur) if s[3] is None)
            tot[name, "s"] = tot.get((name, "s"), 0.0) + p["wall_s"]
            tot[name, "self_s"] = (tot.get((name, "self_s"), 0.0)
                                   + p["wall_s"] - p["import_s"] - root_s)

    per_op = max(n_ops, 1)
    out = {}
    for name in OP_TARGETS:
        if name in absent:
            continue
        out[name + ".calls"] = (tot.get((name, "calls"), 0.0) / per_op, "calls/op")
        out[name + ".s"] = (tot.get((name, "s"), 0.0) / per_op, "s/op")
        if name in SELF_TARGETS:
            out[name + ".self_s"] = (tot.get((name, "self_s"), 0.0) / per_op, "s/op")
        if name in WARNING_TARGETS:
            out[name + ".warnings"] = (tot.get((name, "warnings"), 0.0) / per_op, "count/op")
        if name in KEYED_TARGETS:
            calls = len(keys)
            out[name + ".distinct_frac"] = (len(set(keys)) / calls if calls else 0.0, "frac")
    for name in SETUP_TARGETS:
        if name not in absent:
            out[name + ".s"] = (tot.get((name, "setup_s"), 0.0), "s/setup")
    out["cli.admissibility.s"] = (tot.get(("cli.admissibility", "setup_s"), 0.0), "s/setup")
    for command in CLI_COMMANDS:
        out[f"cli.{command}.s"] = (tot.get((f"cli.{command}", "s"), 0.0) / per_op, "s/op")
        out[f"cli.{command}.self_s"] = (tot.get((f"cli.{command}", "self_s"), 0.0) / per_op, "s/op")
    return out, absent
