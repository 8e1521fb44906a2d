"""The traced layers (contactgeom's modules) and the per-layer metrics.

A layer is one module of the package.  Its public functions are wrapped,
plus the hot private functions and methods that later changes are most
likely to touch.  The ``ShapeOperatorField.H`` property is counted, not
timed: it recomputes H from S on every access, and leaving its time with
the caller puts the per-node recomputation in the fields.csv loop into
``cli.self_s``, where the fix belongs.  Metrics ending in
``_s`` are self time (span time minus child spans) summed per operation,
except ``flow.state_s``, which is inclusive so that it shows the whole
cost of one flow state.  Counts are per operation.
"""

import importlib
import inspect
import os

import tracer as tracing

LAYERS = ("cli", "catalog", "sampleio", "surface", "gridops", "calculus",
          "flow", "ambient")

# Functions and members wrapped by name.  A missing one is reported
# as absent: later changes are expected to delete some (_control_gradient).
NAMED_TARGETS = (
    "cli.main",
    "catalog.CatalogEntry.sample",
    "surface._raw_frames",
    "gridops.GridCalc.du", "gridops.GridCalc.dv",
    "gridops.GridCalc.duu", "gridops.GridCalc.dvv",
    "flow._state", "flow._control_gradient", "flow._check_step",
)

COUNTED = ("calculus.ShapeOperatorField.H",)

APPLY = ("gridops.GridCalc.du", "gridops.GridCalc.dv",
         "gridops.GridCalc.duu", "gridops.GridCalc.dvv")


def public_targets():
    """Every public function defined in each layer module, as "layer.name"."""
    out = []
    for layer in LAYERS:
        try:
            module = importlib.import_module(f"{tracing.PACKAGE}.{layer}")
        except ImportError:
            continue
        for name, fn in vars(module).items():
            if (not name.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__):
                out.append(f"{layer}.{name}")
    return out


def _count_values(tr, args, result):
    tr.count("gridops.values_out", int(getattr(result, "size", 0)))


def _count_frames(tr, args, result):
    tr.count("surface.masked_nodes_total", int(result.n_masked))
    tr.count("surface.sign_mismatches_total", int(result.sign_mismatches))


def _count_read(tr, args, result):
    path = args[0] if args else None
    if isinstance(path, (str, os.PathLike)) and os.path.exists(path):
        tr.count("sampleio.bytes_read", os.path.getsize(path))


HOOKS = {
    **{name: _count_values for name in APPLY},
    "surface.contact_angle_field": _count_frames,
    "sampleio.read_samples": _count_read,
}

# (metric, unit, better, kind, argument)
#   self      summed self time of the named spans
#   incl      summed inclusive time of the named spans
#   calls     number of named spans, or calls of a counted target
#   layer     summed self time of every span in the layer
#   counter   a counter, per operation
#   per_call  a counter divided by the calls of the named span
#   ratio     counter / counter
PER_LAYER = (
    *((f"{layer}.self_s", "s", "lower", "layer", layer) for layer in LAYERS),
    ("cli.bytes_written", "bytes", "lower", "counter", "cli.bytes_written"),
    ("catalog.sample_s", "s", "lower", "self", ("catalog.CatalogEntry.sample",)),
    ("catalog.sample_calls", "count", "lower", "calls", ("catalog.CatalogEntry.sample",)),
    ("sampleio.read_s", "s", "lower", "self", ("sampleio.read_samples",)),
    ("sampleio.bytes_read", "bytes", "lower", "counter", "sampleio.bytes_read"),
    ("surface.tangents_s", "s", "lower", "self", ("surface.tangent_fields",)),
    ("surface.raw_frames_s", "s", "lower", "self", ("surface._raw_frames",)),
    ("surface.frames_s", "s", "lower", "self", ("surface.contact_angle_field",)),
    ("surface.frames_calls", "count", "lower", "calls", ("surface.contact_angle_field",)),
    ("surface.masked_nodes", "count", "lower", "per_call",
     ("surface.masked_nodes_total", "surface.contact_angle_field")),
    ("surface.sign_mismatches", "count", "lower", "per_call",
     ("surface.sign_mismatches_total", "surface.contact_angle_field")),
    ("gridops.apply_s", "s", "lower", "self", APPLY),
    ("gridops.apply_calls", "count", "lower", "calls", APPLY),
    ("gridops.values_out", "count", "lower", "counter", "gridops.values_out"),
    ("calculus.analysis_s", "s", "lower", "self", ("calculus.build_analysis",)),
    ("calculus.analysis_calls", "count", "lower", "calls", ("calculus.build_analysis",)),
    ("calculus.shape_s", "s", "lower", "self", ("calculus.shape_operator",)),
    ("calculus.brioschi_s", "s", "lower", "self",
     ("calculus.gaussian_curvature_intrinsic",)),
    ("calculus.laplace_s", "s", "lower", "self", ("calculus.laplace_beltrami",)),
    ("calculus.H_calls", "count", "lower", "calls", ("calculus.ShapeOperatorField.H",)),
    ("calculus.order_check_failures", "count", "lower", "counter",
     "calculus.order_check_failures"),
    ("flow.state_s", "s", "lower", "incl", ("flow._state",)),
    ("flow.state_calls", "count", "lower", "calls", ("flow._state",)),
    ("flow.gradient_s", "s", "lower", "self", ("flow._control_gradient",)),
    ("flow.gradient_calls", "count", "lower", "calls", ("flow._control_gradient",)),
    ("flow.line_search_trials", "count", "lower", "calls", ("flow._check_step",)),
    ("flow.iterations", "count", "lower", "counter", "flow.iterations"),
    ("flow.accept_ratio", "ratio", "higher", "ratio",
     ("flow.iterations", "flow._check_step")),
    ("flow.probe_s", "s", "lower", "self", ("flow.theorem_probe",)),
    ("ambient.cross4_s", "s", "lower", "self", ("ambient.cross4",)),
    ("ambient.cross4_calls", "count", "lower", "calls", ("ambient.cross4",)),
)


def aggregate(spans, counters, n_ops):
    """Per-operation values of every PER_LAYER metric from spans and counters."""
    selfs = tracing.self_times(spans)
    incls = tracing.inclusive_times(spans)
    by_name = {}
    by_layer = {}
    for span, s, inc in zip(spans, selfs, incls):
        rec = by_name.setdefault(span.name, [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += s
        rec[2] += inc
        layer = span.name.partition(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + s

    def total(names, field):
        return sum(by_name.get(n, (0, 0.0, 0.0))[field] for n in names)

    def amount(key):
        # a counter name, or a span name standing for its call count
        return counters.get(key, by_name.get(key, (0,))[0])

    out = {}
    for metric, _unit, _better, kind, arg in PER_LAYER:
        if kind == "layer":
            value = by_layer.get(arg, 0.0) / n_ops
        elif kind == "self":
            value = total(arg, 1) / n_ops
        elif kind == "incl":
            value = total(arg, 2) / n_ops
        elif kind == "calls":
            value = sum(amount(n) for n in arg) / n_ops
        elif kind == "counter":
            value = counters.get(arg, 0) / n_ops
        else:  # per_call and ratio: numerator / denominator, 0 when empty
            num, den = amount(arg[0]), amount(arg[1])
            value = num / den if den else 0.0
        out[metric] = value
    return out
