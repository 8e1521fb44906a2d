"""write_table against Python's `%` formatting, and the memory it holds."""

import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from contactgeom.sampleio import _BLOCK_CELLS, FIELDS_ROW_FMT, SAMPLE_ROW_FMT, write_table
from contactgeom.surface import GridSpec

FORMATS = {"fields.csv": FIELDS_ROW_FMT, "sample file": SAMPLE_ROW_FMT}


def _oracle(table, row_fmt):
    """`%` of each node's row of the columns, broadcast to one (n_u, n_v) shape."""
    shape = np.broadcast_shapes(*(np.shape(c) for c in table))
    rows = zip(*(np.broadcast_to(c, shape).ravel().tolist() for c in table))
    return "".join(row_fmt % row + "\n" for row in rows)


def _written(table, row_fmt):
    fh = io.StringIO()
    write_table(fh, table, row_fmt)
    return fh.getvalue()


def _table(values, row_fmt, n_v=7):
    """values as the float cells of a components-first (c, n_u, n_v) table
    in row_fmt, node by node, %d cells cycling 0, 1, 2."""
    n_float = 11 if row_fmt == FIELDS_ROW_FMT else 6
    values = np.resize(np.asarray(values, float), (-(-len(values) // (n_float * n_v)),
                                                   n_v, n_float)).transpose(2, 0, 1)
    if row_fmt == FIELDS_ROW_FMT:
        flags = np.arange(values.shape[1] * n_v).reshape(1, -1, n_v) % 3
        values = np.concatenate([values, flags.astype(float)])
    return np.ascontiguousarray(values)


ADVERSARIAL = [
    # ties when rounded to an integer, and two exact ties at the 13th digit
    0.5, 2.5, 123456789012.5, 1234567890123.5, 9999999999999.5,
    # round up to a mantissa of 10**13 and carry into the exponent
    9.9999999999995, 9.9999999999995e-5, -9.99999999999951e40,
    -0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e300, 1e22, 1e23,
    1e-32, 1e57, np.nextafter(1e57, 0.0), np.nextafter(1e-32, 0.0),
    np.inf, -np.inf, np.nan, 2.0 ** -40, -(2.0 ** 70), 1.0 / 3.0,
    # near ties scaled by two roundings (|p| > 22): their computed fraction
    # falls on the wrong side of 1/2 and within 1e-3 of it
    9.5008752249085e40, 9.5579427818935e43, 9.7589912497005e-32,
    9.7680528013965e-29, 2.9132921978505e-26, -7.8437390707965e-25,
    # exact dyadic decimal ties at the 13th digit, settled half-even: down
    # to ...312 and up to ...938
    1.0001220703125, 1.0003662109375, -1.0003662109375,
    np.nextafter(0.1, np.inf), np.nextafter(0.1, -np.inf),
] + [y for k in range(-40, 41)
     for x in (float(f"1e{k}"),)
     for y in (np.nextafter(x, 0.0), x, np.nextafter(x, np.inf), -x)]


@pytest.mark.parametrize("name", FORMATS)
def test_write_table_matches_percent_on_adversarial_values(name):
    row_fmt = FORMATS[name]
    table = _table(ADVERSARIAL, row_fmt)
    assert _written(table, row_fmt) == _oracle(table, row_fmt)
    # each value alone among certified cells, so that no other cell of its
    # line hands the line to % and hides a misprint
    n_float = 11 if row_fmt == FIELDS_ROW_FMT else 6
    k = np.arange(len(ADVERSARIAL))
    lone = np.ones((len(ADVERSARIAL), n_float))
    lone[k, k % n_float] = ADVERSARIAL
    table = _table(lone.ravel(), row_fmt, n_v=1)
    assert _written(table, row_fmt) == _oracle(table, row_fmt)


@pytest.mark.parametrize("name", FORMATS)
def test_lines_mixing_digit_and_percent_cells_keep_their_order(name):
    # 1e300 has a three-digit exponent, nan is not finite and 1234567890123.5
    # is a tie, so their lines are printed by %; the other lines of each
    # u-row, and the other cells of those lines, are certified
    row_fmt = FORMATS[name]
    rng = np.random.default_rng(7)
    table = _table(rng.standard_normal(3 * 8 * 11), row_fmt, n_v=8)
    table[3, 0, 0] = 1e300
    table[0, 0, 7] = np.nan
    table[5, 1, 4] = 1234567890123.5
    table[4, 2, 2:6] = -0.0
    if row_fmt == FIELDS_ROW_FMT:
        table[-1, 2, 1] = 12.0  # %d of a number that is not one digit
    assert _written(table, row_fmt) == _oracle(table, row_fmt)


class _NoPercent(str):
    """A row format whose `%` fails the test: write_table must not call it."""

    def __mod__(self, values):
        raise AssertionError(f"write_table handed {values!r} to %")


def _grid_table(us, vs, fill, row_fmt):
    """u, v columns of the grid us x vs, fill cycling through the other float cells."""
    n_float = 11 if row_fmt == FIELDS_ROW_FMT else 6
    U, V = np.meshgrid(us, vs, indexing="ij")
    rest = np.resize(np.asarray(fill, float), U.shape + (n_float - 2,))
    return _table(np.concatenate([U[..., None], V[..., None], rest], axis=-1).ravel(),
                  row_fmt, n_v=len(vs))


_PERIODIC = GridSpec(256, 256, (0.0, 2.0 * np.pi), (0.0, 2.0 * np.pi), "periodic", "periodic")
_CAP = np.linspace(-0.3, 0.3, 193)
_CAP_CHART = GridSpec(193, 193, (-0.3, 0.3), (-0.3, 0.3), "chart", "chart")
# one ulp either side of 10**k: where floor(log10|x|) can be off by one
_POW10_ULPS = [np.nextafter(s * x, s * t) for k in range(-30, 31) for x in (float(f"1e{k}"),)
               for t in (0.0, np.inf) for s in (1.0, -1.0)]


@pytest.mark.parametrize("name", FORMATS)
@pytest.mark.parametrize("axes", ["periodic 256", "cap linspace 193", "cap chart 193"])
def test_workload_shaped_tables_need_no_percent(name, axes):
    # The u, v columns of the analyze workloads, and values next to powers
    # of ten, are all formatted from digits, with exact ties settled exactly
    row_fmt = FORMATS[name]
    us, vs = {"periodic 256": (_PERIODIC.us, _PERIODIC.vs),
              "cap linspace 193": (_CAP, _CAP),
              "cap chart 193": (_CAP_CHART.us, _CAP_CHART.vs)}[axes]
    assert np.isclose(_CAP, -0.1).any() and np.isclose(_CAP, 0.1).any()
    table = _grid_table(us, vs, _POW10_ULPS, row_fmt)
    assert _written(table, _NoPercent(row_fmt)) == _oracle(table, row_fmt)


@pytest.mark.parametrize("name", FORMATS)
@pytest.mark.parametrize("shape", ["last block partial", "u-row over a block", "one u-row"])
def test_blocks_of_u_rows_match_percent(name, shape):
    row_fmt = FORMATS[name]
    n_float = 11 if row_fmt == FIELDS_ROW_FMT else 6
    n_cols = n_float + (row_fmt == FIELDS_ROW_FMT)
    rows = _BLOCK_CELLS // (96 * n_cols)  # u-rows per block at n_v = 96
    n_u, n_v = {"last block partial": (2 * rows + 1, 96),
                "u-row over a block": (3, _BLOCK_CELLS // n_cols + 1),
                "one u-row": (1, 96)}[shape]
    rng = np.random.default_rng(11)
    size = n_u * n_v * n_float
    table = _table(rng.standard_normal(size) * 10.0 ** rng.integers(-12, 12, size),
                   row_fmt, n_v=n_v)
    # the first line of every u-row, and the last line, are printed by %
    table[0, :, 0] = 1e300
    table[1, -1, -1] = np.nan
    assert _written(table, row_fmt) == _oracle(table, row_fmt)


@pytest.mark.parametrize("name", FORMATS)
def test_broadcast_and_integer_columns_write_the_full_table(name):
    # the commands pass U and V as the sparse mesh, an (n_u, 1) column and a
    # (1, n_v) row, and fields.csv's mask code as uint8; they write what the
    # full float table writes, over blocks of several u-rows and a partial one
    row_fmt = FORMATS[name]
    rng = np.random.default_rng(13)
    us, vs = np.linspace(-0.3, 0.3, 25), np.linspace(0.0, 2.0 * np.pi, 96)
    table = _grid_table(us, vs, rng.standard_normal(500), row_fmt)
    U, V = np.meshgrid(us, vs, indexing="ij", sparse=True)
    columns = [U, V, *table[2:]]
    if row_fmt == FIELDS_ROW_FMT:
        columns[-1] = table[-1].astype(np.uint8)
    assert _written(columns, row_fmt) == _written(table, row_fmt) == _oracle(table, row_fmt)


_cells = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(min_value=-1e13, max_value=1e13),
    st.sampled_from(ADVERSARIAL),
    # a 13-digit mantissa with a half in the 14th digit: a tie or a near tie
    st.builds(lambda m, k: (m + 0.5) * 10.0 ** k,
              st.integers(10 ** 12, 10 ** 13 - 1), st.integers(-45, 30)))


@settings(max_examples=150, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                  elements=_cells),
       st.sampled_from(sorted(FORMATS)),
       st.lists(st.one_of(st.integers(0, 9).map(float),
                          st.floats(min_value=-1e6, max_value=1e6)), min_size=6, max_size=6))
@example(np.array([[0.5, 2.5], [123456789012.5, 9.9999999999995]]), "fields.csv",
         [0.0, 1.0, 2.0, 2.5, -0.0, 10.0])
def test_write_table_matches_percent_formatting(cells, name, ints):
    row_fmt = FORMATS[name]
    n_float = 11 if row_fmt == FIELDS_ROW_FMT else 6
    n_u, n_v = cells.shape
    table = list(np.resize(cells, (n_u, n_v, n_float)).transpose(2, 0, 1))
    if row_fmt == FIELDS_ROW_FMT:
        table.append(np.resize(np.array(ints), (n_u, n_v)))
    assert _written(table, row_fmt) == _oracle(table, row_fmt)


def test_write_table_rejects_other_row_formats_and_column_counts():
    with pytest.raises(ValueError):
        _written(np.zeros((2, 2, 2)), "%.12e;%.12e")
    with pytest.raises(ValueError):
        _written(np.zeros((7, 2, 2)), SAMPLE_ROW_FMT)
    with pytest.raises(ValueError):
        _written(np.zeros((6, 2, 2, 2)), SAMPLE_ROW_FMT)
    with pytest.raises(ValueError):
        _written([np.zeros((2, 3))] * 5 + [np.zeros((3, 2))], SAMPLE_ROW_FMT)


class _Discard:
    def write(self, text):
        pass


def _peak_bytes(n_u, n_v):
    rng = np.random.default_rng(3)
    table = rng.standard_normal((12, n_u, n_v))
    table[-1] = rng.integers(0, 3, (n_u, n_v))
    tracemalloc.start()
    try:
        write_table(_Discard(), table, FIELDS_ROW_FMT)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_table_memory_follows_one_u_row():
    # The 256x256x12 table is 6.3 MB and its text about 14 MB; the writer holds
    # one block of whole u-rows, _BLOCK_CELLS = 12288 table cells (~1.3 MB
    # measured).  Formatting the whole table at once would grow 4x with n_u
    # and 16x from 64x64 to 256x256.
    peak = _peak_bytes(256, 256)
    assert peak < 2e6
    assert peak < 1.25 * _peak_bytes(64, 256)
    assert peak < 6 * _peak_bytes(64, 64)
