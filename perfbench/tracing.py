"""In-memory span tracing of the pairtomo layers, installed from outside.

`install` replaces the public functions of every pairtomo module (and the
public methods of the measurement classes) at every module attribute they
are reached through, so a call made as `estimate.moment_features(...)`
and one made as `qstate.moment_features(...)` both open a span named
`qstate.moment_features`.  A few private functions are wrapped as well,
because named metrics need them: the chunk kernel of the plausibility
sweep, and the config loading and file writing of the command line.

A span is (name, start, end, parent index, pass id).  Spans stay in
memory until `write_spans` saves them at the end of a pass.  Counters are
taken at the same boundaries from call arguments and results.
"""

import functools
import gzip
import json
import math
import sys
import time
import types
from collections import Counter, defaultdict

LAYERS = ("cli", "sim", "estimate", "plausible", "recon", "povm", "qstate")

# private functions wrapped in addition to the public ones
PRIVATE = {
    "cli": ("_load_config", "_emit"),
    "plausible": ("_chunk_stats",),
}

# classes whose public methods form a layer's interface
METHOD_CLASSES = {"povm": ("SicPovm", "TetraPovm")}

# moment_features reads 5 float64 inputs and writes 10 per row
MOMENT_FEATURE_BYTES_PER_ROW = 15 * 8


class Tracer:
    """Span stack and counters for one workload pass."""

    def __init__(self, pass_id):
        self.pass_id = pass_id
        self.spans = []
        self.stack = []
        self.counters = Counter()
        self.active = True

    def call(self, name, fn, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        parent = self.stack[-1] if self.stack else -1
        span = [name, 0.0, 0.0, parent]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span[2] = time.perf_counter()
            self.stack.pop()
            self._count(name, args, None, exc)
            raise
        span[2] = time.perf_counter()
        self.stack.pop()
        self._count(name, args, result, None)
        return result

    def _count(self, name, args, result, exc):
        c = self.counters
        if name == "qstate.moment_features":
            shape = getattr(args[0], "shape", None)
            c["qstate.moment_features.rows"] += (
                math.prod(shape[:-1]) if shape is not None else 1)
        elif name == "estimate.ml_estimate" and exc is None:
            c["estimate.ml.fits"] += 1
            c["estimate.ml.evaluations"] += result.n_evaluations
            c["estimate.ml.converged"] += bool(result.converged)
        elif name == "estimate.li_pipeline":
            if exc is not None:
                c["estimate.li_pipeline.failed." + type(exc).__name__] += 1
            else:
                c["estimate.li_pipeline.ok"] += 1
                c["recon.degenerate"] += bool(result.degenerate)
        elif name == "plausible._chunk_stats":
            _, b, _, counts_mat, _, _ = args[0]
            c["plausible.lr_evals"] += b * len(counts_mat)
        elif name == "cli._emit":
            c["cli.output_bytes"] += len(args[0].encode())


def _wrap(tracer, name, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)
    return traced


def _module(layer):
    return sys.modules[f"pairtomo.{layer}"]


def install(tracer):
    """Wrap the layer functions of this process so `tracer` records them."""
    import pairtomo  # noqa: F401  (loads every layer module)

    layer_of = {f"pairtomo.{layer}": layer for layer in LAYERS}
    wrappers = {}

    def wrapper_for(fn):
        if fn not in wrappers:
            layer = layer_of[fn.__module__]
            wrappers[fn] = _wrap(tracer, f"{layer}.{fn.__name__}", fn)
        return wrappers[fn]

    def traceable(name, obj):
        if not isinstance(obj, types.FunctionType):
            return False
        layer = layer_of.get(obj.__module__)
        if layer is None or obj.__name__ != name:
            return False
        return not name.startswith("_") or name in PRIVATE.get(layer, ())

    for mod in [pairtomo] + [_module(layer) for layer in LAYERS]:
        for name, obj in list(vars(mod).items()):
            if traceable(name, obj):
                setattr(mod, name, wrapper_for(obj))
    for layer, classes in METHOD_CLASSES.items():
        for cls_name in classes:
            cls = getattr(_module(layer), cls_name)
            for name, obj in list(vars(cls).items()):
                if not name.startswith("_") and isinstance(obj, types.FunctionType):
                    setattr(cls, name, _wrap(tracer, f"{layer}.{name}", obj))


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children.

    Calls are synchronous and single-threaded, so children never overlap
    and their durations add up to the covered part of the parent.
    """
    child = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [(s[2] - s[1]) - child[i] for i, s in enumerate(spans)]


def summarize(tracer, wall_s):
    """Aggregate a pass's spans into per-name and per-layer figures."""
    spans = tracer.spans
    selfs = self_times(spans)
    by_name = defaultdict(lambda: [0, 0.0, 0.0])  # calls, self, inclusive
    covered = 0.0
    for (name, t0, t1, parent), st in zip(spans, selfs):
        entry = by_name[name]
        entry[0] += 1
        entry[1] += st
        # a recursive name would double count; the layer API has none
        entry[2] += t1 - t0
        if parent < 0:
            covered += t1 - t0
    layers = Counter()
    for name, (_, st, _) in by_name.items():
        layers[name.split(".", 1)[0]] += st
    return {
        "wall_s": wall_s,
        "covered_s": covered,
        "spans": len(spans),
        "by_name": {k: {"calls": v[0], "self_s": v[1], "incl_s": v[2]}
                    for k, v in sorted(by_name.items())},
        "layers": {layer: layers.get(layer, 0.0) for layer in LAYERS},
        "counters": dict(tracer.counters),
    }


def finish(tracer, wall_s):
    """Stop recording and summarize; None when the pass is not traced."""
    if tracer is None:
        return None
    tracer.active = False
    return summarize(tracer, wall_s)


def write_spans(tracer, path):
    """Write the pass's spans as gzipped JSON lines, one span per line."""
    with gzip.open(path, "wt") as fh:
        for i, (name, t0, t1, parent) in enumerate(tracer.spans):
            fh.write(json.dumps({"id": i, "name": name, "start": t0,
                                 "end": t1, "parent": parent,
                                 "pass": tracer.pass_id}) + "\n")
