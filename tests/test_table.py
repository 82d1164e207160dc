"""The grid table a sweep returns, and the CSV bytes written from its columns."""

import itertools
import math
import random

import pytest

from qdcnot.table import CSV_CHUNK_ROWS, GridTable, write_csv

ODD_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308,
              0.1 + 0.2, -123456.78901234, 1e16, 2.5e-7, 0.9374123456789]


def grid(x1, x2, names=("f_up", "f_down"), seed=0):
    """A table over axes ``x1`` by ``x2`` with random and odd values, some
    points failed, and the list of rows it stands for."""
    rng = random.Random(seed)
    size = len(x1) * len(x2)
    values = tuple([rng.choice(ODD_FLOATS) if rng.random() < 0.3 else rng.uniform(-2, 2)
                    for _ in range(size)] for _ in names)
    status = [rng.choice(["ok", "ok", "error:ValueError", "error:AssertionError"])
              for _ in range(size)]
    for k, s in enumerate(status):
        if s != "ok":
            for column in values:
                column[k] = math.nan
    table = GridTable(("a1", "a2", *names, "status"), (list(x1), list(x2)), values, status)
    rows = [["a1", "a2", *names, "status"]]
    for k, (a, b) in enumerate(itertools.product(x1, x2)):
        rows.append([a, b, *(column[k] for column in values), status[k]])
    return table, rows


def test_grid_table_reads_as_its_rows():
    table, rows = grid([-0.0, 0.0, 1e-4, 2.5], [math.nan, -1.0, 0.5])
    assert len(table) == len(rows) == 13
    assert list(table) == rows and [*iter(table)] == rows
    assert repr(list(table)) == repr(rows)  # -0.0 and nan cells in place
    # the rows handed out are new lists: changing one leaves the table as it was
    first, second = itertools.islice(table, 2)
    first.append("x")
    second.clear()
    assert list(table) == rows


def test_grid_table_drops_value_columns():
    table, rows = grid([0.1, 0.2], [1.0, 2.0, 3.0], names=("f_up", "f_down", "f_both"))
    kept = table.without("f_down")
    assert list(kept) == [[r[0], r[1], r[2], r[4], r[5]] for r in rows]
    assert list(table.without("f_up", "f_down")) == [r[:2] + r[4:] for r in rows]
    assert list(table) == rows  # unchanged
    with pytest.raises(KeyError, match="no value column"):
        table.without("status")


@pytest.mark.parametrize("x1, x2", [
    ([-0.0, 0.0, 0.5], [-0.0, 2.0]),                          # signed zeros on both axes
    ([0.25], [1e-300]),                                         # one row
    ([0.1 * k for k in range(3)], [0.01 * k for k in range(200)]),  # past CSV_CHUNK_ROWS
    ([float(k) for k in range(2)], [float(k) for k in range(CSV_CHUNK_ROWS // 2)]),  # one chunk
    ([1.0, math.nan, math.inf, -math.inf], [0.3, 0.1 + 0.2]),
])
def test_grid_table_writes_the_bytes_of_its_rows(tmp_path, x1, x2):
    for names in (("f_up", "f_down"), ("f_both",)):
        table, rows = grid(x1, x2, names, seed=len(x1) * len(x2))
        assert any(s.startswith("error:") for s in table.status) or len(table) < 4
        write_csv(table, str(tmp_path / "columns.csv"))
        write_csv(list(table), str(tmp_path / "rows.csv"))
        data = (tmp_path / "columns.csv").read_bytes()
        assert data == (tmp_path / "rows.csv").read_bytes()
        expected = "".join(",".join(format(c, ".10g") if isinstance(c, float) else c
                                    for c in row) + "\n" for row in rows)
        assert data == expected.encode()
