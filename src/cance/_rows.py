"""CSV lines from numeric columns, with the standard library only.

`cance.data` imports `text_blocks`. Run as `python -I -S _rows.py`, the
module formats rows for `data.write_table`: stdin holds the line "<rows>
<kinds>" (per column "d" float64, "q" int64 or "-" empty), then the native
bytes of each non-empty column. The whole text is built before any of it
is written, as a child that wrote as it went stalled on the pipe.
"""

import sys
from itertools import repeat

WRITE_BLOCK_LINES = 4096


def text_blocks(columns, rows):
    """The lines of `rows` (a range), WRITE_BLOCK_LINES at a time. A column
    is None (empty cells) or an array or memoryview whose `tolist` gives
    Python floats, written as their repr (the shortest text that reads back
    as the same float), or ints."""
    for start in range(rows.start, rows.stop, WRITE_BLOCK_LINES):
        stop = min(start + WRITE_BLOCK_LINES, rows.stop)
        cells = [repeat("", stop - start) if col is None
                 else map(repr, col[start:stop].tolist()) for col in columns]
        yield "\n".join(map(",".join, zip(*cells))) + "\n"


if __name__ == "__main__":
    head, _, body = sys.stdin.buffer.read().partition(b"\n")
    rows, kinds = head.decode("ascii").split(" ")
    size, view, columns = 8 * int(rows), memoryview(body), []
    for kind in kinds:
        columns.append(None if kind == "-" else view[:size].cast(kind))
        view = view[size * (kind != "-"):]
    text = "".join(text_blocks(columns, range(int(rows))))
    sys.stdout.buffer.write(text.encode("ascii"))
