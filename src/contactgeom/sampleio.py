"""Versioned file formats: native sample files and the analyzer's fields.csv.

Native format (diff-friendly, self-describing):

    S3SAMPLES v1 <nu> <nv> <topo_u> <topo_v> <u0> <u1> <v0> <v1>
    <u> <v> <x1> <y1> <x2> <y2>          (nu*nv rows, v-index fastest)

All floats are written as %.12e, byte for byte what Python's `%` prints.
read_samples also accepts the analyzer's fields.csv (recognized by its
header line).  Either file is a grid and a table, with one rule: each row
is its grid's node, to within 1e-9 max(1, h) per axis; the grid comes from
the header, or for a fields.csv from its first run and each column's
first and last finite values (an axis is periodic when its node spacing
wraps the range to 2*pi).  Either format's grid is labelled
samples:<file name>, without the directory, so a report does not depend
on where the file was read from.

write_table takes a sequence of columns, one (n_u, n_v) array (or one that
broadcasts to it) per cell of a line, and formats in numpy one block of
whole u-rows (_BLOCK_CELLS cells) at a time, each block stacked from their
slices; no whole table is formed.  A cell's digits come from
k = floor(log10|x|) and y = |x| * 10**p, p = 12 - k, formed by multiplying
or dividing by exact powers 10**j, |j| <= 22: once when |p| <= 22, twice
when 22 < |p| <= 44.  y is rounded to the 13-digit mantissa M = round(y),
carried to 10**12 and k+1 at 10**13.

Exponent.  A y outside [1e12, 1e13] means log10 was off by one near a
power of ten; the cell is scaled again with k - 1 or k + 1.  A y inside
while the exact value is just outside lies within 2.2e-3 of 1e12 or 1e13,
where both exponents give the same digits.

Ties of a cell scaled once.  Every half-integer in [1e12, 1e13) is a
double, so one correctly rounded operation cannot carry y across a rounding
tie: it lands on the double nearest the exact value, and the tie is nearer
than any double past it.  Only a y that lands exactly on the tie is
undecided.  Then y = fl(|x| * c / d), with one of c, d the power 10**|p|
and the other 1, and the sign of |x| * c - y * d tells on which side of the
tie the exact value lies.  That difference is formed exactly from Dekker's
error-free product of Veltkamp halves (Dekker 1971): M rounds up when it is
positive, down when it is negative, and half-even when it is zero, as `%`
does (1.0001220703125 prints as 1.000122070312e+00).

Ties of a cell scaled twice.  Two operations miss the exact y by at most
2**-52 * 1e13 ~ 2.2e-3, so M is the mantissa `%` prints when the fraction
of y is more than _TIE_MARGIN = 3e-3 from 1/2.

A line is printed by `%` instead when one of its cells is scaled twice and
within 3e-3 of a tie (or, so scaled, still outside [1e12, 1e13] after the
re-scale), has |x| outside [1e-32, 1e57) (every three-digit exponent and
every subnormal) or is not finite, or when its %d cell is not one of the
digits 0..9.  +-0.0 is written directly, with the sign of -0.0.
"""

import functools
import os
import warnings

import numpy as np

from .errors import ParseError
from .surface import GridSpec, SurfaceGrid, _onto_sphere

FORMAT_MAGIC = "S3SAMPLES"
FORMAT_VERSION = "v1"
FLOAT_FMT = "%.12e"
FIELDS_CSV_HEADER = "u,v,x1,y1,x2,y2,beta,K,H,res_curvature,res_laplacian,masked"
FIELDS_ROW_FMT = ",".join([FLOAT_FMT] * 11) + ",%d"
SAMPLE_ROW_FMT = " ".join([FLOAT_FMT] * 6)

# Cells with 1e-32 <= |x| < 1e57 are formatted from digits: their scale
# exponent p = 12 - k has |p| <= 44 and splits into two exact powers of ten.
_K_MIN, _K_MAX = -32, 56
_P_SPLIT = 22
# Index of the scale tables: i = p + 44 = _I0 - k.
_I0 = 12 + 2 * _P_SPLIT
# Half-width of the band around a rounding tie that is left to `%`, for
# cells scaled twice; a tie of a cell scaled once is settled exactly.
_TIE_MARGIN = 3e-3
# Table cells per block of whole u-rows.  Against ~12k cells the fixed cost
# of each numpy call is small, and a block's temporaries and text stay near
# 1.3 MB (test_write_table_memory_follows_one_u_row).  A 256x256 fields.csv
# wrote slower with 3072- and with 24576-cell blocks.
_BLOCK_CELLS = 12288


def _word(text):
    """Four ASCII characters, with "\\0" as a sentinel byte, as one native uint32."""
    return np.frombuffer(text.encode("ascii"), np.uint32)[0]


def _scale_factors():
    """Four (89,) tables, indexed by i = p + 44, with x * a / b * c / d == x * 10**p.

    Each factor is an exact power 10**j, |j| <= 22; c = d = 1 when |p| <= 22.
    """
    pow10 = np.array([float(10 ** j) for j in range(_P_SPLIT + 1)])
    p = np.arange(-2 * _P_SPLIT, 2 * _P_SPLIT + 1)
    p1 = np.clip(p, -_P_SPLIT, _P_SPLIT)
    p2 = p - p1
    return (pow10[np.maximum(p1, 0)], pow10[np.maximum(-p1, 0)],
            pow10[np.maximum(p2, 0)], pow10[np.maximum(-p2, 0)])


_SCALE = _scale_factors()
# Indexed by i + 1: k = _I0 - i runs to _K_MAX + 1 after a carry.
_EXPONENT = np.array([_word("e%+03d" % (_I0 - i)) for i in range(-1, 4 * _P_SPLIT + 1)])
# Words of a cell: "{sep}{sign}{d}.", three of four digits, "e{sign}{dd}".
_CELL_WORDS = 5
# row format -> (separator, number of FLOAT_FMT cells, whether a %d cell ends it)
_ROW_LAYOUTS = {FIELDS_ROW_FMT: (",", 11, True), SAMPLE_ROW_FMT: (" ", 6, False)}


def _read_only(words):
    words.flags.writeable = False
    return words


@functools.cache
def _digit_words():
    """(10000,) words: the four ASCII digits of 0..9999, read-only.

    Built on the first write_table call and kept: built on import, its
    temporaries raised the peak RSS of every command by about 0.5 MB.
    """
    return _read_only((np.arange(10000, dtype=np.uint16)[:, None]
                       // np.array([1000, 100, 10, 1], np.uint16) % 10
                       + ord("0")).astype(np.uint8).view(np.uint32).ravel())


@functools.cache
def _lead_words(sep, n):
    """(n, 20) first words of n cells, the first without sep; column sign*10 + d.
    Read-only, built once per layout."""
    return _read_only(np.array([[_word(f"{lead}{sign}{d}.") for sign in ("\0", "-")
                                 for d in range(10)]
                                for lead in ["\0"] + [sep] * (n - 1)]))


@functools.cache
def _digit_tail(sep):
    """(10,) last words of a line that ends in a %d cell: "{sep}{d}\\n"; read-only."""
    return _read_only(np.array([_word(f"{sep}{d}\n\0") for d in range(10)]))


def _product_error(a, b):
    """a * b - fl(a * b), exactly: Dekker's product of Veltkamp halves (Dekker 1971)."""
    def halves(v):
        t = 134217729.0 * v  # 2**27 + 1
        hi = t - (t - v)
        return hi, v - hi
    ah, al = halves(a)
    bh, bl = halves(b)
    return ((ah * bh - a * b) + ah * bl + al * bh) + al * bl


def _scaled(a, i):
    """a * 10**p, i = p + 44, as a product and a quotient by each factor pair."""
    return a * _SCALE[0][i] / _SCALE[1][i] * _SCALE[2][i] / _SCALE[3][i]


# Cells outside [1e-32, 1e57) or not finite may overflow; their digits are dropped.
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _format_cells(x, cells, lead, digits):
    """Write %.12e of the (n, c) floats x into cells (n, c, 5) of uint32 where exact.

    Returns the (n, c) boolean array of cells whose bytes, with the 0
    sentinels dropped, are `FLOAT_FMT % x` preceded by its separator; the
    other cells hold zero digits.
    """
    a = np.abs(x).ravel()
    k = np.floor(np.log10(a))
    ok = (k >= _K_MIN) & (k <= _K_MAX)
    k[~ok] = 0.0
    i = (_I0 - k).astype(np.intp)
    # one multiplication by 10**p for 1e-10 <= |x| < 1e13, all four factors elsewhere
    y = a * _SCALE[0][i]
    rest = np.flatnonzero((k < 12 - _P_SPLIT) | (k > 12))
    y[rest] = _scaled(a[rest], i[rest])
    # log10 off by one near a power of ten: scale again with k -+ 1
    off = np.flatnonzero((y < 1e12) | (y > 1e13))
    off = off[ok[off]]
    if off.size:
        k_off = k[off] + np.where(y[off] < 1e12, -1.0, 1.0)
        within = (k_off >= _K_MIN) & (k_off <= _K_MAX)
        i[off] = (_I0 - np.where(within, k_off, 0.0)).astype(np.intp)
        y_off = _scaled(a[off], i[off])
        y[off] = y_off
        ok[off] = within & (y_off >= 1e12) & (y_off <= 1e13)
    m = np.rint(y)
    near = np.flatnonzero(np.abs(y - m) >= 0.5 - _TIE_MARGIN)
    if near.size:
        once = np.abs(i[near] - 2 * _P_SPLIT) <= _P_SPLIT
        ok[near[~once]] = False
        tie = near[once & (np.abs(y[near] - m[near]) == 0.5)]
        # y is one rounding of a * c / d, and a tie; a*c - y*d, formed exactly,
        # says on which side of it the exact value lies; rint broke it half-even
        c, d = _SCALE[0][i[tie]], _SCALE[1][i[tie]]
        at, yt = a[tie], y[tie]
        s = (at * c - yt * d) + (_product_error(at, c) - _product_error(yt, d))
        m[tie] = np.where(s > 0, yt + 0.5, np.where(s < 0, yt - 0.5, m[tie]))
    carry = np.flatnonzero(m == 1e13)
    m[carry] = 1e12
    i[carry] -= 1
    ok |= a == 0.0
    m[~ok] = 0.0
    i[~ok] = _I0

    shape = x.shape
    q = m.astype(np.intp)
    for w in (3, 2, 1):
        r = q // 10000
        cells[:, :, w] = digits[q - r * 10000].reshape(shape)
        q = r
    cells[:, :, 0] = lead.ravel()[(q + 10 * np.signbit(x).ravel()).reshape(shape)
                                 + 20 * np.arange(shape[1])]
    cells[:, :, 4] = _EXPONENT[i + 1].reshape(shape)
    return ok.reshape(shape)


def write_table(fh, columns, row_fmt):
    """Write the columns as one row_fmt line per node, v-index fastest.

    columns is a sequence of arrays that broadcast to one (n_u, n_v) shape,
    one per cell of a line: a list of fields, sparse mesh axes among them,
    or a components-first (c, n_u, n_v) block.  row_fmt is FIELDS_ROW_FMT or
    SAMPLE_ROW_FMT, and the text is byte for byte `row_fmt % row + "\\n"`,
    row the tuple of the columns' values at a node, for every node.  Lines
    are built as fixed-width rows of uint32 words with 0 sentinel bytes, one
    block of whole u-rows at a time (at least one, about _BLOCK_CELLS cells,
    stacked from the columns' slices), so the memory in use follows n_v, not
    the size of the table.  Exact ties of cells scaled once are settled
    exactly and off-by-one exponents re-scaled; a line with a cell scaled
    twice near a tie, a cell outside [1e-32, 1e57) or not finite, or a %d
    cell that is not one digit is formatted by `%` and spliced in (see the
    module docstring for why).
    """
    try:
        sep, n_float, has_int = _ROW_LAYOUTS[row_fmt]
    except KeyError:
        raise ValueError(f"no fixed-width layout for row format {row_fmt!r}") from None
    n_cols = len(columns)
    if n_cols != n_float + has_int:
        raise ValueError(f"{n_cols} columns, row format {n_float + has_int}")
    shape = np.broadcast_shapes(*(np.shape(c) for c in columns))
    if len(shape) != 2:
        raise ValueError(f"columns broadcast to {shape}, not to (n_u, n_v)")
    n_u, n_v = shape
    columns = [np.broadcast_to(c, shape) for c in columns]
    lead = _lead_words(sep, n_float)
    digits = _digit_words()
    digit_tail = _digit_tail(sep)
    u_rows = max(1, _BLOCK_CELLS // max(1, n_v * n_cols))
    stacked = np.empty((u_rows, n_v, n_cols))
    full = np.zeros((u_rows * n_v, _CELL_WORDS * n_float + 1), np.uint32)
    full[:, -1] = _word("\n\0\0\0")
    for u0 in range(0, n_u, u_rows):
        rows = stacked[:min(u_rows, n_u - u0)]
        for k, column in enumerate(columns):
            rows[:, :, k] = column[u0:u0 + len(rows)]
        block = rows.reshape(-1, n_cols)
        buf = full[:len(block)]
        cells = buf[:, :-1].reshape(len(block), n_float, _CELL_WORDS)
        ok = _format_cells(block[:, :n_float], cells, lead, digits).all(axis=1)
        if has_int:
            d = block[:, -1]
            ok &= (d >= 0) & (d <= 9) & (d == np.floor(d))
            buf[:, -1] = digit_tail[np.where(ok, d, 0).astype(np.intp)]
        text = buf.tobytes().replace(b"\0", b"").decode("ascii")
        if not ok.all():
            lines = text.split("\n")
            for r in np.flatnonzero(~ok):
                lines[r] = row_fmt % tuple(block[r].tolist())
            text = "\n".join(lines)
        fh.write(text)


def write_samples(grid, path):
    """Write a SurfaceGrid in the native sample format."""
    spec = grid.spec
    header = " ".join([
        FORMAT_MAGIC, FORMAT_VERSION,
        str(spec.n_u), str(spec.n_v), spec.topology_u, spec.topology_v,
        FLOAT_FMT % spec.u_range[0], FLOAT_FMT % spec.u_range[1],
        FLOAT_FMT % spec.v_range[0], FLOAT_FMT % spec.v_range[1],
    ])
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        write_table(fh, [*spec.mesh(sparse=True), *grid.points], SAMPLE_ROW_FMT)


def _parse_floats(tokens, lineno):
    try:
        return [float(t) for t in tokens]
    except ValueError as exc:
        raise ParseError(f"bad float: {exc}", line=lineno) from None


def _read_lines(path):
    """The file's lines, split where np.loadtxt splits them; ParseError when
    it cannot be read, is empty, or is not UTF-8 (naming the bad line)."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        # read() decodes the whole file at once, so exc.object is all of it
        line = len((exc.object[:exc.start] + b"?").splitlines())
        raise ParseError(f"not UTF-8 text ({exc.reason})", line=line) from None
    if not text:
        raise ParseError("empty file", line=1)
    return text.removesuffix("\n").split("\n")


def _row_lines(lines):
    """The file line of each data row: the non-blank lines after the header."""
    return [k for k, ln in enumerate(lines[1:], start=2) if ln.strip()]


def _last_row_line(path):
    """The file line of the last data row, before any blank lines that
    follow it; the header's line 1 when there is no data row."""
    return (_row_lines(_read_lines(path)) or [1])[-1]


def _parse_rows(path, sep, n_cols):
    """The first 6 columns of the data rows, read line by line so that a
    ParseError names the first bad line."""
    lines = _read_lines(path)
    data = []
    for k in _row_lines(lines):
        toks = lines[k - 1].split(sep)
        if len(toks) != n_cols:
            raise ParseError(f"expected {n_cols} columns, found {len(toks)}", line=k)
        data.append(_parse_floats(toks[:6], k))
    return np.asarray(data, float).reshape(-1, 6)


def _header_grid(first):
    """GridSpec arguments of a native header line; ParseError (line 1) when
    it is not one."""
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
    u0, u1, v0, v1 = _parse_floats(head[6:10], 1)
    return nu, nv, (u0, u1), (v0, v1), head[4], head[5]


def _ends(column):
    """The first and last finite values of a column, as Python floats; (0, 0)
    when it has none."""
    finite = column[np.isfinite(column)]
    return (float(finite[0]), float(finite[-1])) if finite.size else (0.0, 0.0)


def _columns_grid(table):
    """GridSpec arguments of a fields.csv's rows: n_v is the run of the
    column's first finite u value (a row whose u is not finite neither ends
    nor starts it), n_u the number of whole runs, and each axis runs from
    its column's first finite value to its last, periodic where its step
    wraps that to 2*pi.  So a row off its node, NaN included, is left to the
    node check.  No rows give a 0x0 grid, which GridSpec refuses."""
    u = table[:, 0]
    finite = np.isfinite(u)
    first = u[finite][0] if finite.any() else np.nan
    breaks = np.flatnonzero(finite[1:] & (u[1:] != first))
    n_v = int(breaks[0]) + 1 if breaks.size else len(u)
    n_u = len(u) // max(n_v, 1)
    (u0, u1), (v0, v1) = _ends(u), _ends(table[:, 1])

    def axis(a, b, n):
        """Topology and range of n nodes from a to b; Python floats, so a
        NaN or an infinity raises no numpy warning."""
        span = b - a
        if abs(span + span / max(n - 1, 1) - 2.0 * np.pi) < 1e-6:
            return "periodic", (a, a + 2.0 * np.pi)
        return "chart", (a, b)

    topo_u, u_range = axis(u0, u1, n_u)
    topo_v, v_range = axis(v0, v1, n_v)
    return n_u, n_v, u_range, v_range, topo_u, topo_v


def read_samples(path):
    """Parse a native sample file or a fields.csv export into a SurfaceGrid:
    the header line, then one np.loadtxt over the rest of the open file.

    A file is a grid and a table, and each row is its grid's node, to within
    1e-9 max(1, h) per axis (NaN failing); the grid comes from the header, or
    for a fields.csv from its first run and each column's first and last
    finite values.  Raises ParseError naming the line of a malformed file:
    the first row off its node, the last data row for a row count that is
    not n_u n_v, the header (a fields.csv's last data row) for a grid
    GridSpec refuses, or the first byte that is not UTF-8; or saying why the
    file cannot be read.  Raises OffSphere naming the node whose point is
    off S^3 or not finite.
    """
    label = f"samples:{os.path.basename(path)}"
    try:
        with open(path, encoding="utf-8") as fh, warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # no data rows
            first = fh.readline()
            sep = "," if first.strip() == FIELDS_CSV_HEADER else None
            table = np.loadtxt(fh, delimiter=sep, comments=None, ndmin=2)
    except (OSError, ValueError, UserWarning):  # UnicodeDecodeError is a ValueError
        # only a file that one read rejects is read again, line by line
        first, table = _read_lines(path)[0], None

    csv = first.strip() == FIELDS_CSV_HEADER
    header = None if csv else _header_grid(first)
    n_cols = 12 if csv else 6
    if table is None or table.shape[1] != n_cols:
        table = _parse_rows(path, "," if csv else None, n_cols)
    nu, nv, *axes = _columns_grid(table) if csv else header
    if len(table) != nu * nv:
        raise ParseError(f"expected {nu * nv} rows, found {len(table)}",
                         line=_last_row_line(path))
    try:
        spec = GridSpec(nu, nv, *axes)
    except ValueError as exc:
        raise ParseError(str(exc), line=_last_row_line(path) if csv else 1) from None
    table = table[:, :6].reshape(nu, nv, 6)
    U, V = spec.mesh(sparse=True)
    bad = ~((np.abs(table[:, :, 0] - U) <= 1e-9 * max(1.0, spec.h_u))
            & (np.abs(table[:, :, 1] - V) <= 1e-9 * max(1.0, spec.h_v)))
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ParseError(f"(u, v) = {tuple(table[i, j, :2].tolist())} is not node "
                         f"({i}, {j}) of the {nu}x{nv} grid",
                         line=_row_lines(_read_lines(path))[i * nv + j])
    # the four point columns as one contiguous (4, n_u, n_v) block
    points = np.ascontiguousarray(table.transpose(2, 0, 1)[2:])
    return SurfaceGrid(spec, _onto_sphere(points), label=label)
