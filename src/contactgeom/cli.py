"""Command-line front end.

Subcommands: analyze, verify, flow, catalog.  flow samples a catalog
surface, runs the L-BFGS descent of flow.descend on it and probes the final
surface with flow.theorem_probe.  Exit codes are part of the contract so CI
can assert outcomes mechanically:

    0  success (and, for flow, theorem probe passed or was not applicable)
    2  argument errors: an argparse error (a malformed flag, an --out that
       is not a directory) or a RangeError (unknown surface, a value outside
       its range, too few levels); also a surface the analysis cannot frame
       (DegenerateContact, DegenerateParametrization)
    3  input data errors (off-sphere samples, parse failures)
    4  verify: refinement order or residual bound check failed
    5  flow did not converge

main is the one place that turns an error into an exit code: a
ContactGeomError is the input's fault and exits 2 or 3 with one `error:`
line; a bare ValueError (a non-finite output, a wrong array layout) is the
program's fault and propagates.

All file outputs are deterministic: JSON keys are sorted and every float is
rendered through the fixed %.12e format.

A CLI process keeps the memory it frees for reuse until it exits (see
_keep_freed_memory); importing the package leaves the allocator alone.
It also builds its argument parser once (build_parser is cached), so a
script or test that calls main repeatedly parses every argv with one tree;
main looks the command function up on each call.
"""

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import catalog
from .calculus import (IDENTITIES, ORDER_THRESHOLD, TAN_BAND, build_analysis,
                       refinement_study, verify_identity)
from .errors import ContactGeomError, OffSphere, ParseError, RangeError
from .flow import FlowConfig, TraceRow, descend, theorem_probe
from .sampleio import (FIELDS_CSV_HEADER, FIELDS_ROW_FMT, FLOAT_FMT,
                       read_samples, write_table)

FORMAT_VERSION = "1"


def _rounded(obj, where, key="number"):
    """obj with every float rounded through %.12e, tuples as lists, for
    deterministic output; ValueError naming the key of a non-finite float
    and the file it was meant for."""
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite {key} in {where}")
        return float(FLOAT_FMT % obj)
    if isinstance(obj, dict):
        return {k: _rounded(v, where, k) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v, where, key) for v in obj]
    return obj


def _write_json(payload, path):
    """Write a payload _rounded has checked and rounded."""
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _check_finite_columns(columns, names, where):
    """Raise ValueError naming the node and column of the first non-finite
    cell: the first such node in row-major order, and its leftmost such
    column.  columns broadcast to one (n_u, n_v) shape."""
    shape = np.broadcast_shapes(*(np.shape(c) for c in columns))
    # (first non-finite node, column) of each column that has one
    first = [(int(np.argmin(np.isfinite(np.broadcast_to(c, shape)))), k)
             for k, c in enumerate(columns) if not np.isfinite(c).all()]
    if first:
        node, k = min(first)
        raise ValueError(f"non-finite {names[k]} in {where} at node "
                         f"{tuple(int(i) for i in np.unravel_index(node, shape))}")


def _parse_grid(text):
    counts = text.lower().split("x")
    if len(counts) != 2 or not all(c.strip().isdecimal() for c in counts):
        raise argparse.ArgumentTypeError(f"grid must look like 64x64, got {text!r}")
    return int(counts[0]), int(counts[1])


def _parse_levels(text):
    """--refine's comma-separated node counts; empty items are skipped."""
    counts = [c for c in text.split(",") if c.strip()]
    if not all(c.strip().isdecimal() for c in counts):
        raise argparse.ArgumentTypeError(f"refine must look like 32,64,128, got {text!r}")
    return [int(c) for c in counts]


def _parse_out(text):
    """--out: refused before any work unless it, or the nearest of its
    ancestors that exists, is a directory."""
    path = os.path.abspath(text)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"{path} is not a directory")
    return text


def _parse_param(text):
    """One --param k=v as (k, v); v stays a string for catalog.build to read."""
    name, eq, value = text.partition("=")
    if not eq:
        raise argparse.ArgumentTypeError(f"expected k=v, got {text!r}")
    return name, value


def _load_surface(name, params, grid_shape):
    """Catalog entry or sample file (which takes no --param and no --grid)
    -> SurfaceGrid.  A catalog name or alias wins over a path of that name;
    grid_shape None is the entry's default grid."""
    if catalog.ALIASES.get(name, name) not in catalog.names() and os.path.exists(name):
        if params:
            raise RangeError(f"a sample file takes no parameters, got {params[0][0]!r}")
        if grid_shape is not None:
            raise RangeError("a sample file takes no --grid")
        return read_samples(name)
    entry = catalog.build(name, params)
    return entry.sample(entry.default_spec(*(grid_shape or ())))


def _stats(values, mask):
    vals = values[~mask]
    return {"min": float(vals.min()), "max": float(vals.max()),
            "mean": float(vals.mean()), "spread": float(np.ptp(vals))}


def cmd_analyze(args):
    grid = _load_surface(args.surface, args.param, args.grid)
    an = build_analysis(grid)
    frames = an.frames
    mask = frames.mask
    mean_H = float(np.mean(np.abs(an.H[an.valid])))
    curv = verify_identity(an, "curvature")
    lap = verify_identity(an, "laplacian")

    # each residual column is 0 where its identity's norms leave the node
    # out; nothing reads the residuals again, so they are zeroed in place
    for name in ("curvature", "laplacian"):
        getattr(an, f"res_{name}")[~IDENTITIES[name].kept(an)] = 0.0
    mcode = an.tan_band * np.uint8(2)
    mcode[mask] = 1
    columns = [*grid.spec.mesh(sparse=True), *grid.points, frames.beta, an.K_ext,
               an.H, an.res_curvature, an.res_laplacian, mcode]
    _check_finite_columns(columns, FIELDS_CSV_HEADER.split(","), "fields.csv")

    report = {
        "format_version": FORMAT_VERSION,
        "surface": grid.label,
        "grid": {
            "n_u": grid.spec.n_u, "n_v": grid.spec.n_v,
            "u_range": list(grid.spec.u_range), "v_range": list(grid.spec.v_range),
            "topology_u": grid.spec.topology_u, "topology_v": grid.spec.topology_v,
        },
        "fields": {
            "beta": _stats(frames.beta, mask),
            "K_int": _stats(an.K_int, mask),
            "K_ext": _stats(an.K_ext, mask),
            "H": {"max_abs": an.max_H, "mean_abs": mean_H},
        },
        "identities": {
            "curvature": {"linf": curv.linf, "l2": curv.l2},
            "laplacian": {"linf": lap.linf, "l2": lap.l2},
        },
        "masked": {
            "degenerate": int(frames.n_masked),
            "tan_band": int(np.sum(an.tan_band & ~mask)),
            "tan_band_width": TAN_BAND,
        },
        "area": an.area,
        "willmore_energy": an.energy,
    }
    report = _rounded(report, "report.json")

    os.makedirs(args.out, exist_ok=True)
    _write_json(report, os.path.join(args.out, "report.json"))
    with open(os.path.join(args.out, "fields.csv"), "w", newline="\n") as fh:
        fh.write(FIELDS_CSV_HEADER + "\n")
        write_table(fh, columns, FIELDS_ROW_FMT)
    print(f"analyze: wrote report.json and fields.csv to {args.out}")
    return 0


def cmd_verify(args):
    entry = catalog.build(args.surface, args.param)
    report = refinement_study(entry, args.identity, args.refine)
    finest = report.levels[-1]
    payload = _rounded({
        "identity": report.name, "linf": finest.linf, "l2": finest.l2,
        "excluded": finest.excluded,
        "levels": [level._asdict() for level in report.levels],
        "observed_order": report.order, "at_floor": report.order is None,
        "surface": entry.name, "format_version": FORMAT_VERSION,
        "bound": IDENTITIES[args.identity].bound,
        "order_threshold": ORDER_THRESHOLD, "passed": report.passed,
    }, f"identity_{args.identity}.json")
    os.makedirs(args.out, exist_ok=True)
    _write_json(payload, os.path.join(args.out, f"identity_{args.identity}.json"))
    for lv in report.levels:
        print(f"  n={lv.n:4d}  Linf={lv.linf:.3e}  L2={lv.l2:.3e}  excluded={lv.excluded}")
    order = "floor" if report.order is None else f"{report.order:.2f}"
    print(f"verify {args.identity} on {entry.name}: order={order} "
          f"Linf={finest.linf:.3e} -> {'PASS' if payload['passed'] else 'FAIL'}")
    return 0 if payload["passed"] else 4


def cmd_flow(args):
    cfg = FlowConfig(max_iter=args.steps, tol=args.tol)
    entry = catalog.build(args.surface, args.param)
    grid = entry.sample(entry.default_spec(*args.grid))
    report, final = descend(grid, cfg)

    # the trace first: flow_report.json reads its last row
    trace = [_rounded(row._asdict(), f"trace.csv at iteration {row.iteration}")
             for row in report.trace]
    first, last = report.trace[0], report.trace[-1]
    probe = theorem_probe(report, final)
    payload = _rounded({
        "converged": report.converged, "iterations": report.iterations,
        "energy_initial": first.energy, "energy_final": last.energy,
        "final_max_H": report.final_max_H,
        "beta": {"max": report.beta_max, "spread": last.beta_spread},
        "message": report.message, "format_version": FORMAT_VERSION,
        "surface": grid.label, "probe": probe,
    }, "flow_report.json")
    os.makedirs(args.out, exist_ok=True)
    _write_json(payload, os.path.join(args.out, "flow_report.json"))
    rows = [",".join(TraceRow._fields)]
    for row in trace:
        rows.append(",".join(FLOAT_FMT % x if isinstance(x, float) else str(x)
                             for x in row.values()))
    with open(os.path.join(args.out, "trace.csv"), "w", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")

    print(f"flow: converged={report.converged} iterations={report.iterations} "
          f"max|H|={report.final_max_H:.3e} probe={probe['status']}")
    if not report.converged:
        return 5
    return 0 if probe["status"] in ("pass", "not_applicable") else 4


def cmd_catalog(args):
    entries = catalog.describe()
    if args.json:
        print(json.dumps(_rounded(entries, "catalog list"), indent=2, sort_keys=True))
        return 0
    print("available surfaces:")
    for e in entries:
        print(f"  {e['name']:16s} topology={e['topology']}  {e['notes']}")
        for pname, meta in e["params"].items():
            print(f"    param {pname}: default={meta['default']} range={meta['range']}")
        for key, val in e["ground_truth"].items():
            print(f"    ground truth {key} = {val}")
    return 0


@functools.cache
def build_parser():
    """The parser of every subcommand, built once per process: it depends
    on module constants alone, and parse_args returns a new namespace on
    each call."""
    ap = argparse.ArgumentParser(
        prog="contactgeom", allow_abbrev=False,
        description="contact-angle numerics for surfaces in the unit 3-sphere")
    sub = ap.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", allow_abbrev=False,
                        help="field summaries and residuals for a surface")
    pa.add_argument("--surface", required=True,
                    help="catalog name or path to a sample file")
    pa.add_argument("--param", action="append", type=_parse_param, help="k=v, repeatable")
    pa.add_argument("--grid", type=_parse_grid,
                    help="catalog surfaces only; default: the entry's default grid")
    pa.add_argument("--out", type=_parse_out, default=".")

    pv = sub.add_parser("verify", allow_abbrev=False,
                        help="identity residuals under grid refinement")
    pv.add_argument("--surface", required=True)
    pv.add_argument("--param", action="append", type=_parse_param)
    pv.add_argument("--identity", required=True,
                    choices=sorted(IDENTITIES))
    pv.add_argument("--refine", type=_parse_levels, default="32,64,128",
                    help="comma-separated per-axis node counts (>= 3 levels)")
    pv.add_argument("--out", type=_parse_out, default=".")

    pf = sub.add_parser("flow", allow_abbrev=False,
                        help="squared-mean-curvature descent")
    pf.add_argument("--surface", default="rtorus")
    pf.add_argument("--param", action="append", type=_parse_param)
    pf.add_argument("--grid", type=_parse_grid, default=(32, 32))
    pf.add_argument("--steps", type=int, default=FlowConfig.max_iter)
    pf.add_argument("--tol", type=float, default=FlowConfig.tol)
    pf.add_argument("--out", type=_parse_out, default=".")

    pc = sub.add_parser("catalog", allow_abbrev=False,
                        help="list built-in surfaces")
    csub = pc.add_subparsers(dest="subcommand", required=True)
    pl = csub.add_parser("list", allow_abbrev=False)
    pl.add_argument("--json", action="store_true")

    return ap


@functools.cache
def _keep_freed_memory():
    """Fix glibc's mmap and trim thresholds, once per process; True when
    glibc accepted both, False where libc has no mallopt or refused one.

    A field is 0.5 MiB (256^2 scalar) to 8 MiB (512^2 4-vector).  Under
    glibc's dynamic thresholds such a field, once freed, goes back to the
    kernel, and the next level, command or temporary faults its pages in
    again.  With both thresholds fixed, blocks up to 32 MiB come from the
    heap and freed ones stay there for the next allocation; the peak RSS
    does not change.  Both must be set: setting either one stops the
    dynamic adjustment, and the mmap threshold's 128 KiB default would then
    map every field fresh.
    """
    if not sys.platform.startswith("linux"):
        return False
    import ctypes
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    # 32 MiB is the most glibc's dynamic mmap threshold reaches on 64-bit
    # systems, and some versions refuse a larger one
    mmap_set = mallopt(m_mmap_threshold, 32 << 20)
    trim_set = mallopt(m_trim_threshold, 1 << 30)
    return mmap_set == 1 and trim_set == 1


def main(argv=None):
    _keep_freed_memory()
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    # looked up on each call, so the cached parser pins no function: a
    # wrapped or patched cmd_* is the one that runs
    command = {"analyze": cmd_analyze, "verify": cmd_verify, "flow": cmd_flow,
               "catalog": cmd_catalog}[args.command]
    try:
        return command(args)
    except (OffSphere, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ContactGeomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
