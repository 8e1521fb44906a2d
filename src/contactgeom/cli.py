"""Command-line front end.

Subcommands: analyze, verify, flow, catalog.  Exit codes are part of the
contract so CI can assert outcomes mechanically:

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
from .calculus import (IDENTITY_BOUNDS, IDENTITY_VERIFIERS, ORDER_THRESHOLD,
                       build_analysis, refinement_passed, refinement_study,
                       verify_curvature_identity, verify_laplacian_identity,
                       verify_minimality)
from .errors import (AmplitudeTooLarge, ContactGeomError, OffSphere,
                     ParseError, RangeError)
from .flow import FlowConfig, area, descend, descend_r_family, theorem_probe
from .sampleio import (FIELDS_CSV_HEADER, FIELDS_ROW_FMT, FLOAT_FMT,
                       write_table)
from .surface import GridSpec

FORMAT_VERSION = "1"
TRACE_CSV_HEADER = "iteration,energy,max_H,beta_spread"


def _fmt_floats(obj):
    """Round-trip every float through %.12e for deterministic JSON output."""
    if isinstance(obj, float):
        return float(FLOAT_FMT % obj)
    if isinstance(obj, dict):
        return {k: _fmt_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_fmt_floats(v) for v in obj]
    return obj


def _write_json(payload, path):
    with open(path, "w", newline="\n") as fh:
        json.dump(_fmt_floats(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _check_finite(obj, where="report"):
    if isinstance(obj, float) and not math.isfinite(obj):
        raise ValueError(f"non-finite number in {where}")
    if isinstance(obj, dict):
        for v in obj.values():
            _check_finite(v, where)
    if isinstance(obj, (list, tuple)):
        for v in obj:
            _check_finite(v, where)


def _check_finite_table(table, columns, where):
    """Raise ValueError naming the column and node of the first non-finite cell."""
    bad = np.argwhere(~np.isfinite(table))
    if len(bad):
        *node, col = (int(k) for k in bad[0])
        raise ValueError(f"non-finite {columns[col]} in {where} "
                         f"at node {tuple(node)}")


def _parse_grid(text):
    try:
        nu, nv = text.lower().split("x")
        return int(nu), int(nv)
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid must look like 64x64, got {text!r}")


def _parse_params(pairs):
    out = {}
    for p in pairs or []:
        if "=" not in p:
            raise argparse.ArgumentTypeError(f"--param expects k=v, got {p!r}")
        k, v = p.split("=", 1)
        try:
            out[k] = float(v)
        except ValueError:
            out[k] = v
    return out


def _load_surface(name, params, grid_shape):
    """Catalog entry or sample file -> SurfaceGrid."""
    if os.path.exists(name):
        return catalog.load_samples(name)
    entry = catalog.build(name, params)
    nu, nv = grid_shape
    return entry.sample(entry.default_spec(nu, nv))


def _stats(values, mask=None):
    vals = values if mask is None else values[~mask]
    return {"min": float(vals.min()), "max": float(vals.max()),
            "mean": float(vals.mean()), "spread": float(np.ptp(vals))}


def cmd_analyze(args):
    try:
        grid = _load_surface(args.surface, _parse_params(args.param), args.grid)
    except (KeyError, RangeError, AmplitudeTooLarge, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OffSphere, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    an = build_analysis(grid)
    frames = an.frames
    mask = frames.mask
    minim = verify_minimality(an)
    curv = verify_curvature_identity(an)
    lap = verify_laplacian_identity(an)

    mcode = np.where(mask, 1, np.where(an.tan_band, 2, 0))
    U, V = grid.spec.mesh()
    table = np.stack([U, V, *np.moveaxis(grid.points, -1, 0), frames.beta,
                      an.K_ext, an.H, an.res_curvature,
                      np.where(mcode, 0.0, an.res_laplacian), mcode], axis=-1)
    _check_finite_table(table, FIELDS_CSV_HEADER.split(","), "fields.csv")

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
            "H": {"max_abs": minim["max"], "mean_abs": minim["mean"]},
        },
        "identities": {
            "curvature": {"linf": curv.linf, "l2": curv.l2},
            "laplacian": {"linf": lap.linf, "l2": lap.l2},
        },
        "masked": {
            "degenerate": int(frames.n_masked),
            "tan_band": int(np.sum(an.tan_band & ~mask)),
            "tan_band_width": an.band,
        },
        "area": area(grid),
        "willmore_energy": an.energy,
    }
    _check_finite(report)

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
        entry = catalog.build(args.surface, _parse_params(args.param))
        report = refinement_study(entry, args.identity, levels, band=args.band)
    except (KeyError, RangeError, AmplitudeTooLarge, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = report.to_dict()
    payload.update(surface=args.surface, format_version=FORMAT_VERSION,
                   bound=IDENTITY_BOUNDS[args.identity],
                   order_threshold=ORDER_THRESHOLD,
                   passed=refinement_passed(report))
    _check_finite(payload, f"identity_{args.identity}.json")
    os.makedirs(args.out, exist_ok=True)
    _write_json(payload, os.path.join(args.out, f"identity_{args.identity}.json"))
    for (n, linf, l2, excl) in report.levels:
        print(f"  n={n:4d}  Linf={linf:.3e}  L2={l2:.3e}  excluded={excl}")
    order = "floor" if report.at_floor else f"{report.order:.2f}"
    print(f"verify {args.identity} on {args.surface}: order={order} "
          f"Linf={report.linf:.3e} -> {'PASS' if payload['passed'] else 'FAIL'}")
    return 0 if payload["passed"] else 4


def cmd_flow(args):
    params = _parse_params(args.param)
    try:
        cfg = FlowConfig(step=args.step, max_iter=args.steps, tol=args.tol)
        if args.mode == "r-only":
            r0 = float(params.get("r", math.pi / 4))
            report, final = descend_r_family(r0, n=args.grid[0], config=cfg)
        else:
            entry = catalog.build(args.surface, params)
            grid = entry.sample(GridSpec(args.grid[0], args.grid[1],
                                         entry.default_ranges[0],
                                         entry.default_ranges[1],
                                         entry.default_topology[0],
                                         entry.default_topology[1]))
            report, final = descend(grid, cfg)
    except (KeyError, RangeError, AmplitudeTooLarge, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    probe = theorem_probe(report, final)
    payload = report.to_dict()
    payload.update(format_version=FORMAT_VERSION, surface=args.surface,
                   probe=probe)
    _check_finite(payload, "flow_report.json")
    for row in report.trace:
        for name, x in zip(TRACE_CSV_HEADER.split(","), row):
            if isinstance(x, float) and not math.isfinite(x):
                raise ValueError(f"non-finite {name} in trace.csv "
                                 f"at iteration {row[0]}")
    os.makedirs(args.out, exist_ok=True)
    _write_json(payload, os.path.join(args.out, "flow_report.json"))
    rows = [TRACE_CSV_HEADER]
    for (it, E, maxH, dev) in report.trace:
        rows.append(",".join("" if x is None else FLOAT_FMT % x
                             if isinstance(x, float) else str(x)
                             for x in (it, E, maxH, dev)))
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
        print(json.dumps(_fmt_floats(entries), indent=2, sort_keys=True))
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
        prog="contactgeom",
        description="contact-angle numerics for surfaces in the unit 3-sphere")
    sub = ap.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="field summaries and residuals for a surface")
    pa.add_argument("--surface", required=True,
                    help="catalog name or path to a sample file")
    pa.add_argument("--param", action="append", help="k=v, repeatable")
    pa.add_argument("--grid", type=_parse_grid, default=(64, 64))
    pa.add_argument("--out", default=".")
    pa.set_defaults(func=cmd_analyze)

    pv = sub.add_parser("verify", help="identity residuals under grid refinement")
    pv.add_argument("--surface", required=True)
    pv.add_argument("--param", action="append")
    pv.add_argument("--identity", required=True,
                    choices=sorted(IDENTITY_VERIFIERS))
    pv.add_argument("--refine", default="32,64,128",
                    help="comma-separated per-axis node counts (>= 3 levels)")
    pv.add_argument("--band", type=float, default=0.05,
                    help="tan-pole exclusion band width (radians)")
    pv.add_argument("--out", default=".")
    pv.set_defaults(func=cmd_verify)

    pf = sub.add_parser("flow", help="squared-mean-curvature descent")
    pf.add_argument("--surface", default="rtorus")
    pf.add_argument("--param", action="append")
    pf.add_argument("--grid", type=_parse_grid, default=(32, 32))
    pf.add_argument("--steps", type=int, default=500)
    pf.add_argument("--tol", type=float, default=1e-3)
    pf.add_argument("--step", type=float, default=1.0)
    pf.add_argument("--mode", choices=("full", "r-only"), default="full")
    pf.add_argument("--out", default=".")
    pf.set_defaults(func=cmd_flow)

    pc = sub.add_parser("catalog", help="list built-in surfaces")
    csub = pc.add_subparsers(dest="subcommand", required=True)
    pl = csub.add_parser("list")
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
