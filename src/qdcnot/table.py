"""Grid tables and the CSV writer.

A grid sweep returns a :class:`GridTable`: its header, the distinct values
of its two axes and one column per value and status, in axis1-outer order.
It iterates as the list of rows it stands for (header first), and
:func:`write_csv` writes it from its columns: each axis value is formatted
once, and each chunk of rows is one ``%`` template over its cells.  Any
other table is a list of rows and is written cell by cell.
"""

from __future__ import annotations

import math
import os
import stat
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, compress, islice, repeat


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
        x1, x2 = self.axes
        return chain([list(self.header)], map(list, zip(
            chain.from_iterable(map(repeat, x1, repeat(len(x2)))),
            chain.from_iterable(repeat(x2, len(x1))), *self.values, self.status)))

    def without(self, *names: str) -> GridTable:
        """The same grid without the value columns ``names``."""
        value_names = self.header[2:-1]
        if unknown := set(names) - set(value_names):
            raise KeyError(f"no value column {sorted(unknown)} in {list(self.header)}")
        keep = [k for k, name in enumerate(value_names) if name not in names]
        return GridTable((*self.header[:2], *(value_names[k] for k in keep), "status"),
                         self.axes, tuple([self.values[k] for k in keep]), self.status)


def _cell_text(cell) -> str:
    return format(cell, ".10g") if isinstance(cell, float) else str(cell)


def _signed_zeros(column: tuple) -> bool:
    """Does ``column`` hold -0.0?  It is one dict key with 0.0 but prints apart."""
    zeros = compress(column, map((0.0).__eq__, column))
    return any(math.copysign(1.0, z) < 0 for z in zeros)


def _column_format(column: tuple):
    """How to write the cells of one column: None for text, else a function of a cell.

    A float column that repeats its values (a grid axis: at most half as
    many distinct values as cells, in its first chunk and in all) formats
    each distinct value once.
    """
    kinds = set(map(type, column))
    if kinds == {str}:
        return None
    if kinds != {float}:
        return _cell_text
    head = column[:CSV_CHUNK_ROWS]
    if 2 * len(set(head)) > len(head):
        return "%.10g".__mod__  # the bytes of format(v, ".10g")
    distinct = dict.fromkeys(column)
    if 2 * len(distinct) > len(column) or 0.0 in distinct and _signed_zeros(column):
        return "%.10g".__mod__
    for value in distinct:
        distinct[value] = format(value, ".10g")
    return distinct.__getitem__


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


def _write_grid(fh, table: GridTable) -> None:
    """The rows of ``table`` from its columns, in chunks of CSV_CHUNK_ROWS.

    ``"%.10g" % v`` gives the bytes of ``format(v, ".10g")`` for every float;
    each axis value is formatted once, by position, so 0.0 and -0.0 stay apart.
    """
    x1, x2 = (["%.10g" % v for v in axis] for axis in table.axes)
    cells_x1 = chain.from_iterable(map(repeat, x1, repeat(len(x2))))
    cells_x2 = chain.from_iterable(repeat(x2, len(x1)))
    row = "%s,%s," + "%.10g," * len(table.values) + "%s\n"
    full = row * CSV_CHUNK_ROWS
    for start in range(0, len(table.status), CSV_CHUNK_ROWS):
        size = min(CSV_CHUNK_ROWS, len(table.status) - start)
        cells = zip(islice(cells_x1, size), islice(cells_x2, size),
                    *(c[start:start + size] for c in (*table.values, table.status)))
        template = full if size == CSV_CHUNK_ROWS else row * size
        fh.write(template % tuple(chain.from_iterable(cells)))


def write_csv(table: GridTable | list[list], path: str) -> None:
    """UTF-8, comma-separated, 10 significant digits, LF endings.

    Every float cell is written as ``format(v, ".10g")``, any other as
    ``str``.  A :class:`GridTable` is written from its columns (see
    :func:`_write_grid`).  A list of rows whose rows after the first have
    one length is formatted column by column, in chunks of rows, else row
    by row.  An existing file at ``path`` is overwritten in place (see
    :func:`_overwrite`).
    """
    if not table:
        raise ValueError("refusing to write an empty table")
    head = table.header if isinstance(table, GridTable) else table[0]
    with _overwrite(path) as fh:
        fh.write(",".join(map(_cell_text, head)) + "\n")
        if isinstance(table, GridTable):
            _write_grid(fh, table)
            return
        rows = table[1:]
        if len(set(map(len, rows))) != 1:
            fh.writelines(",".join(map(_cell_text, row)) + "\n" for row in rows)
            return
        columns = list(zip(*rows))
        formats = [_column_format(column) for column in columns]
        for start in range(0, len(rows), CSV_CHUNK_ROWS):
            chunk = [column[start:start + CSV_CHUNK_ROWS] for column in columns]
            texts = [cells if f is None else [*map(f, cells)] for f, cells in zip(formats, chunk)]
            fh.write("\n".join(map(",".join, zip(*texts))) + "\n")
