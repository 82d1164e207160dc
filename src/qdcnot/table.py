"""Grid tables and the CSV writer.

A grid sweep returns a :class:`GridTable`: its header, the distinct values
of its two axes and one column per value and status, in axis1-outer order.
It iterates as the list of rows it stands for (header first).
:func:`write_csv` writes each chunk of rows as one ``%`` template over its
cells: a grid's from its columns, each axis value formatted once, and a
list of rows' from its one row template.  A list of rows has one only when
every row is as long as its header and each column holds one kind; any
other list is rejected before the file is opened.
"""

from __future__ import annotations

import os
import stat
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, islice, repeat


@dataclass(frozen=True, eq=False)
class GridTable:
    """A grid's rows as columns: ``[*header]``, then ``[x1, x2, *values, status]``
    per point, axis1 outer.  Read-only; ``len`` counts those rows and
    iteration gives each as a new list.

    ``axes`` holds each axis's distinct values (m and n floats), ``values``
    one column of m * n floats per value name and ``status`` one string per
    point; ``header`` names the two axes, the values, then ``"status"``.
    """

    header: tuple[str, ...]
    axes: tuple[list, list]
    values: tuple[list, ...]
    status: list

    def __len__(self) -> int:
        return 1 + len(self.status)

    def __iter__(self):
        return chain([list(self.header)], map(list, _grid_rows(*self.axes, self)))

    def without(self, *names: str) -> GridTable:
        """The same grid without the value columns ``names``."""
        value_names = self.header[2:-1]
        if unknown := set(names) - set(value_names):
            raise KeyError(f"no value column {sorted(unknown)} in {list(self.header)}")
        keep = [k for k, name in enumerate(value_names) if name not in names]
        return GridTable((*self.header[:2], *(value_names[k] for k in keep), "status"),
                         self.axes, tuple([self.values[k] for k in keep]), self.status)


def _grid_rows(x1: list, x2: list, table: GridTable):
    """``table``'s rows after its header, axis1 outer, led by cells of ``x1`` and ``x2``."""
    return zip(chain.from_iterable(map(repeat, x1, repeat(len(x2)))),
               chain.from_iterable(repeat(x2, len(x1))), *table.values, table.status)


# rows written per chunk, so the text of a large table is never held whole
CSV_CHUNK_ROWS = 512


@contextmanager
def _overwrite(path: str):
    """A UTF-8 text file with LF endings written over ``path`` in place.

    Unlike ``open(path, "w")`` this does not truncate the file on opening
    it: it writes from the start, then cuts a regular file at the written
    length.  On ext4 (``auto_da_alloc``), closing a file truncated to zero
    starts its writeback, and the next truncate of that file waits for the
    I/O.  The cut runs even when writing fails, so no tail of the old file
    is left; a pipe or a device, which has no length, is not cut.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        fh = open(fd, "w", encoding="utf-8", newline="\n")
    except BaseException:
        os.close(fd)
        raise
    with fh:
        try:
            yield fh
        finally:
            try:
                fh.flush()
            finally:
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


def _row_template(header: list, rows: list) -> str:
    """One ``%`` template for each of ``rows``: each must be as long as
    ``header``, and each column hold only floats (``%.10g``) or only str and
    int (``%s``); a ``ValueError`` names the first row or column that is not."""
    lengths = list(map(len, rows))
    if lengths.count(len(header)) != len(lengths):
        raise ValueError("row {} after the header has {} cells, the header {}".format(
            *next((k, n) for k, n in enumerate(lengths, 1) if n != len(header)), len(header)))
    formats = []
    for name, column in zip(header, zip(*rows)):
        kinds = set(map(type, column))
        if kinds == {float}:
            formats.append("%.10g")
        elif kinds <= {str, int}:
            formats.append("%s")
        else:  # e.g. floats with ints or bools, or a numpy scalar
            raise ValueError(f"column {name!r} mixes kinds "
                             f"{sorted(kind.__name__ for kind in kinds)}")
    return ",".join(formats) + "\n"


def _write_rows(fh, rows, count: int, row_template: str) -> None:
    """``count`` rows from the iterator ``rows``, each chunk of CSV_CHUNK_ROWS
    of them written as one ``%`` template over its cells."""
    full = row_template * CSV_CHUNK_ROWS
    for start in range(0, count, CSV_CHUNK_ROWS):
        size = min(CSV_CHUNK_ROWS, count - start)
        template = full if size == CSV_CHUNK_ROWS else row_template * size
        fh.write(template % tuple(chain.from_iterable(islice(rows, size))))


def write_csv(table: GridTable | list[list], path: str) -> None:
    """UTF-8, comma-separated, 10 significant digits, LF endings.

    The header's cells are written as ``str``, every float cell after it as
    ``format(v, ".10g")`` (the bytes of ``"%.10g" % v``) and any other as
    ``str``.  A :class:`GridTable` is written from its columns, each axis
    value formatted once by position, so 0.0 and -0.0 stay apart; a list of
    rows through its :func:`_row_template`, and one that has none raises
    before ``path`` is opened.  An existing file at ``path`` is overwritten
    in place (see :func:`_overwrite`).
    """
    if not table:
        raise ValueError("refusing to write an empty table")
    if isinstance(table, GridTable):
        head = table.header
        template = "%s,%s," + "%.10g," * len(table.values) + "%s\n"
        rows = _grid_rows(*[["%.10g" % v for v in axis] for axis in table.axes], table)
        count = len(table.status)
    else:
        head, rows = table[0], table[1:]
        template, count = _row_template(head, rows), len(rows)
        rows = iter(rows)
    with _overwrite(path) as fh:
        fh.write(",".join(map(str, head)) + "\n")
        _write_rows(fh, rows, count, template)
