"""Command-line front end.

Subcommands: analyze, verify, flow, catalog.  flow samples a catalog
surface, runs the L-BFGS descent of flow.descend on it and probes the final
surface with flow.theorem_probe.  Exit codes are part of the contract so CI
can assert outcomes mechanically:

    0  success (and, for flow, theorem probe passed or was not applicable)
    2  argument errors (unknown surface, malformed flags, too few levels)
    3  input data errors (off-sphere samples, parse failures)
    4  verify: refinement order or residual bound check failed
    5  flow did not converge

All file outputs are deterministic: JSON keys are sorted and every float is
rendered through the fixed %.12e format.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import catalog
from .calculus import (IDENTITIES, ORDER_THRESHOLD, TAN_BAND, build_analysis,
                       refinement_passed, refinement_study, verify_identity)
from .errors import ContactGeomError, OffSphere, ParseError, RangeError
from .flow import FlowConfig, descend, theorem_probe
from .sampleio import (FIELDS_CSV_HEADER, FIELDS_ROW_FMT, FLOAT_FMT,
                       read_samples, write_table)

FORMAT_VERSION = "1"
TRACE_CSV_HEADER = "iteration,energy,max_H,beta_spread"


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


def _check_finite_table(table, columns, where):
    """Raise ValueError naming the column and node of the first non-finite cell."""
    if not np.isfinite(table).all():
        *node, col = (int(k) for k in np.argwhere(~np.isfinite(table))[0])
        raise ValueError(f"non-finite {columns[col]} in {where} "
                         f"at node {tuple(node)}")


def _parse_grid(text):
    try:
        nu, nv = text.lower().split("x")
        return int(nu), int(nv)
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid must look like 64x64, got {text!r}")


def _parse_param(text):
    """One --param k=v as (k, v); v stays a string for catalog.build to read."""
    name, eq, value = text.partition("=")
    if not eq:
        raise argparse.ArgumentTypeError(f"expected k=v, got {text!r}")
    return name, value


def _load_surface(name, params, grid_shape):
    """Catalog entry or sample file (which takes no --param) -> SurfaceGrid."""
    if os.path.exists(name):
        if params:
            raise RangeError(f"a sample file takes no parameters, got {params[0][0]!r}")
        return read_samples(name)
    entry = catalog.build(name, params)
    return entry.sample(entry.default_spec(*grid_shape))


def _stats(values, mask):
    vals = values[~mask]
    return {"min": float(vals.min()), "max": float(vals.max()),
            "mean": float(vals.mean()), "spread": float(np.ptp(vals))}


def cmd_analyze(args):
    try:
        grid = _load_surface(args.surface, args.param, args.grid)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    an = build_analysis(grid)
    frames = an.frames
    mask = frames.mask
    mean_H = float(np.mean(np.abs(an.H[an.valid])))
    curv = verify_identity(an, "curvature")
    lap = verify_identity(an, "laplacian")

    mcode = np.where(mask, 1, np.where(an.tan_band, 2, 0))
    U, V = grid.spec.mesh()
    table = np.stack([U, V, *np.moveaxis(grid.points, -1, 0), frames.beta,
                      an.K_ext, an.H, an.res_curvature, an.res_laplacian, mcode],
                     axis=-1)
    columns = FIELDS_CSV_HEADER.split(",")
    # each residual column is 0 where its identity's norms leave the node out
    for name in ("curvature", "laplacian"):
        table[~IDENTITIES[name].kept(an), columns.index(f"res_{name}")] = 0.0
    _check_finite_table(table, columns, "fields.csv")

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
        write_table(fh, table, FIELDS_ROW_FMT)
    print(f"analyze: wrote report.json and fields.csv to {args.out}")
    return 0


def cmd_verify(args):
    try:
        levels = [int(x) for x in args.refine.split(",") if x.strip()]
        entry = catalog.build(args.surface, args.param)
        report = refinement_study(entry, args.identity, levels)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = _rounded({
        "identity": report.name, "linf": report.linf, "l2": report.l2,
        "excluded": report.n_excluded,
        "levels": [{"n": n, "linf": linf, "l2": l2, "excluded": excl}
                   for (n, linf, l2, excl) in report.levels],
        "observed_order": report.order, "at_floor": report.at_floor,
        "surface": entry.name, "format_version": FORMAT_VERSION,
        "bound": IDENTITIES[args.identity].bound,
        "order_threshold": ORDER_THRESHOLD, "passed": refinement_passed(report),
    }, f"identity_{args.identity}.json")
    os.makedirs(args.out, exist_ok=True)
    _write_json(payload, os.path.join(args.out, f"identity_{args.identity}.json"))
    for (n, linf, l2, excl) in report.levels:
        print(f"  n={n:4d}  Linf={linf:.3e}  L2={l2:.3e}  excluded={excl}")
    order = "floor" if report.at_floor else f"{report.order:.2f}"
    print(f"verify {args.identity} on {entry.name}: order={order} "
          f"Linf={report.linf:.3e} -> {'PASS' if payload['passed'] else 'FAIL'}")
    return 0 if payload["passed"] else 4


def cmd_flow(args):
    try:
        cfg = FlowConfig(max_iter=args.steps, tol=args.tol)
        entry = catalog.build(args.surface, args.param)
        grid = entry.sample(entry.default_spec(*args.grid))
        report, final = descend(grid, cfg)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # the trace first: flow_report.json reads its last row
    columns = TRACE_CSV_HEADER.split(",")
    trace = [_rounded(dict(zip(columns, row)), f"trace.csv at iteration {row[0]}")
             for row in report.trace]
    probe = theorem_probe(report, final)
    payload = _rounded({
        "converged": report.converged, "iterations": report.iterations,
        "energy_initial": report.trace[0][1], "energy_final": report.trace[-1][1],
        "final_max_H": report.final_max_H,
        "beta": {"max": report.beta_max, "spread": report.trace[-1][3]},
        "message": report.message, "format_version": FORMAT_VERSION,
        "surface": grid.label, "probe": probe,
    }, "flow_report.json")
    os.makedirs(args.out, exist_ok=True)
    _write_json(payload, os.path.join(args.out, "flow_report.json"))
    rows = [TRACE_CSV_HEADER]
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


def build_parser():
    ap = argparse.ArgumentParser(
        prog="contactgeom", allow_abbrev=False,
        description="contact-angle numerics for surfaces in the unit 3-sphere")
    sub = ap.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", allow_abbrev=False,
                        help="field summaries and residuals for a surface")
    pa.add_argument("--surface", required=True,
                    help="catalog name or path to a sample file")
    pa.add_argument("--param", action="append", type=_parse_param, help="k=v, repeatable")
    pa.add_argument("--grid", type=_parse_grid, default=(64, 64))
    pa.add_argument("--out", default=".")
    pa.set_defaults(func=cmd_analyze)

    pv = sub.add_parser("verify", allow_abbrev=False,
                        help="identity residuals under grid refinement")
    pv.add_argument("--surface", required=True)
    pv.add_argument("--param", action="append", type=_parse_param)
    pv.add_argument("--identity", required=True,
                    choices=sorted(IDENTITIES))
    pv.add_argument("--refine", default="32,64,128",
                    help="comma-separated per-axis node counts (>= 3 levels)")
    pv.add_argument("--out", default=".")
    pv.set_defaults(func=cmd_verify)

    pf = sub.add_parser("flow", allow_abbrev=False,
                        help="squared-mean-curvature descent")
    pf.add_argument("--surface", default="rtorus")
    pf.add_argument("--param", action="append", type=_parse_param)
    pf.add_argument("--grid", type=_parse_grid, default=(32, 32))
    pf.add_argument("--steps", type=int, default=500)
    pf.add_argument("--tol", type=float, default=1e-3)
    pf.add_argument("--out", default=".")
    pf.set_defaults(func=cmd_flow)

    pc = sub.add_parser("catalog", allow_abbrev=False,
                        help="list built-in surfaces")
    csub = pc.add_subparsers(dest="subcommand", required=True)
    pl = csub.add_parser("list", allow_abbrev=False)
    pl.add_argument("--json", action="store_true")
    pl.set_defaults(func=cmd_catalog)

    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (OffSphere, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ContactGeomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
