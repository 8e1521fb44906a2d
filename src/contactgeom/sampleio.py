"""Versioned file formats: native sample files and the analyzer's fields.csv.

Native format (diff-friendly, self-describing):

    S3SAMPLES v1 <nu> <nv> <topo_u> <topo_v> <u0> <u1> <v0> <v1>
    <u> <v> <x1> <y1> <x2> <y2>          (nu*nv rows, v-index fastest)

All floats are written as %.12e.  read_samples also accepts the analyzer's
fields.csv (recognized by its header line); grid shape is inferred from the
u/v columns and an axis is treated as periodic when its node spacing wraps
the range to 2*pi.
"""

import numpy as np

from .errors import OffSphere, ParseError

FORMAT_MAGIC = "S3SAMPLES"
FORMAT_VERSION = "v1"
FLOAT_FMT = "%.12e"
FIELDS_CSV_HEADER = "u,v,x1,y1,x2,y2,beta,K,H,res_curvature,res_laplacian,masked"
FIELDS_ROW_FMT = ",".join([FLOAT_FMT] * 11) + ",%d"
SAMPLE_ROW_FMT = " ".join([FLOAT_FMT] * 6)

_OFF_SPHERE_TOL = 1e-6


def write_table(fh, table, row_fmt):
    """Write table[i, j] as one row_fmt line per node, v-index fastest.

    Lines are formatted one u-row at a time, so only one u-row of Python
    floats and strings is alive at once, however large the grid.
    """
    block_fmt = (row_fmt + "\n") * table.shape[1]
    for block in table:
        fh.write(block_fmt % tuple(block.ravel().tolist()))


def write_samples(grid, path):
    """Write a SurfaceGrid in the native sample format."""
    spec = grid.spec
    header = " ".join([
        FORMAT_MAGIC, FORMAT_VERSION,
        str(spec.n_u), str(spec.n_v), spec.topology_u, spec.topology_v,
        FLOAT_FMT % spec.u_range[0], FLOAT_FMT % spec.u_range[1],
        FLOAT_FMT % spec.v_range[0], FLOAT_FMT % spec.v_range[1],
    ])
    U, V = spec.mesh()
    table = np.stack([U, V, *np.moveaxis(grid.points, -1, 0)], axis=-1)
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        write_table(fh, table, SAMPLE_ROW_FMT)


def _parse_floats(tokens, lineno):
    try:
        return [float(t) for t in tokens]
    except ValueError as exc:
        raise ParseError(f"bad float: {exc}", line=lineno) from None


def _check_on_sphere(points):
    dev = np.abs(np.linalg.norm(points, axis=-1) - 1.0)
    if np.any(dev > _OFF_SPHERE_TOL):
        ij = np.unravel_index(np.argmax(dev), dev.shape)
        raise OffSphere(
            f"node {tuple(int(k) for k in ij)} has norm deviating by "
            f"{dev[ij]:.3e} from 1", node=tuple(int(k) for k in ij))


def _grid_from_columns(u, v, pts4, lineno_base=1):
    """Reconstruct a grid (nu, nv, ranges, topologies) from flat u/v columns."""
    from .surface import GridSpec, SurfaceGrid

    total = len(u)
    nv = 1
    while nv < total and u[nv] == u[0]:
        nv += 1
    if nv < 2 or total % nv != 0:
        raise ParseError("rows do not form a rectangular u-major grid",
                         line=lineno_base + nv)
    nu = total // nv
    U = u.reshape(nu, nv)
    V = v.reshape(nu, nv)
    if not (np.all(U == U[:, :1]) and np.all(V == V[:1, :])):
        raise ParseError("u/v columns are not a tensor-product grid",
                         line=lineno_base + 1)
    us, vs = U[:, 0], V[0, :]

    def axis(vals):
        h = vals[1] - vals[0]
        steps = np.diff(vals)
        if np.any(np.abs(steps - h) > 1e-9 * max(1.0, abs(h))):
            raise ParseError("non-uniform node spacing", line=lineno_base + 1)
        span_wrap = vals[-1] - vals[0] + h
        if abs(span_wrap - 2.0 * np.pi) < 1e-6:
            return "periodic", (vals[0], vals[0] + 2.0 * np.pi)
        return "chart", (vals[0], vals[-1])

    topo_u, u_range = axis(us)
    topo_v, v_range = axis(vs)
    spec = GridSpec(nu, nv, u_range, v_range, topo_u, topo_v)
    points = pts4.reshape(nu, nv, 4)
    _check_on_sphere(points)
    return SurfaceGrid(spec, points / np.linalg.norm(points, axis=-1, keepdims=True))


def _parse_rows(rows, lines, sep, n_cols, n_keep):
    """Floats of the first n_keep columns, one array row per data row.

    rows are the non-blank lines of lines after the first (the header).
    One numpy conversion parses every row; on a ragged row or a bad token
    the lines are re-read one by one, so that the ParseError names the
    first bad line by its number in the file.
    """
    if rows:
        try:
            table = np.loadtxt(rows, delimiter=sep, comments=None, ndmin=2)
        except ValueError:
            table = None
        if table is not None and table.shape[1] == n_cols:
            return table[:, :n_keep]
    data = []
    for k, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            continue
        toks = ln.split(sep)
        if len(toks) != n_cols:
            raise ParseError(f"expected {n_cols} columns, found {len(toks)}", line=k)
        data.append(_parse_floats(toks[:n_keep], k))
    return np.asarray(data, float).reshape(-1, n_keep)


def read_samples(path):
    """Parse a native sample file or a fields.csv export into a SurfaceGrid."""
    from .surface import GridSpec, SurfaceGrid

    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError("empty file", line=1)

    first = lines[0].strip()
    rows = [ln for ln in lines[1:] if ln.strip()]
    if first == FIELDS_CSV_HEADER:
        arr = _parse_rows(rows, lines, ",", 12, 6)
        if len(arr) < 4:
            raise ParseError("too few rows for a grid", line=len(lines))
        return _grid_from_columns(arr[:, 0], arr[:, 1], arr[:, 2:6])

    head = first.split()
    if len(head) != 10 or head[0] != FORMAT_MAGIC:
        raise ParseError(f"expected '{FORMAT_MAGIC} {FORMAT_VERSION} ...' header "
                         "or a fields.csv header", line=1)
    if head[1] != FORMAT_VERSION:
        raise ParseError(f"unsupported format version {head[1]!r}", line=1)
    try:
        nu, nv = int(head[2]), int(head[3])
    except ValueError:
        raise ParseError("node counts must be integers", line=1) from None
    topo_u, topo_v = head[4], head[5]
    u0, u1, v0, v1 = _parse_floats(head[6:10], 1)
    try:
        spec = GridSpec(nu, nv, (u0, u1), (v0, v1), topo_u, topo_v)
    except ValueError as exc:
        raise ParseError(str(exc), line=1) from None

    if len(rows) != nu * nv:
        raise ParseError(f"expected {nu * nv} rows, found {len(rows)}",
                         line=len(lines))
    points = _parse_rows(rows, lines, None, 6, 6)[:, 2:6].reshape(nu, nv, 4)
    _check_on_sphere(points)
    points = points / np.linalg.norm(points, axis=-1, keepdims=True)
    return SurfaceGrid(spec, points, label=f"samples:{path}")
