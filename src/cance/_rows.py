"""CSV lines from numeric columns, with the standard library only.

`cance.data` imports `text_blocks`. Run as `python -I -S _rows.py DATA
TEXT`, with DATA and TEXT two open file descriptors, the module formats
chunks of rows for `data.write_table`: each stdin line "<offset> <rows>
<kinds>" (per column "d" float64, "q" int64 or "-" empty) names the native
bytes of a chunk's non-empty columns at <offset> in DATA. Their text is
appended to TEXT, and its byte count printed on stdout, a line per chunk.
"""

import os
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
    data, text = map(int, sys.argv[1:])
    for line in sys.stdin.buffer:
        offset, rows, kinds = line.decode("ascii").split()
        size, columns = 8 * int(rows), []
        view = memoryview(os.pread(data, size * len(kinds.replace("-", "")), int(offset)))
        for kind in kinds:
            columns.append(None if kind == "-" else view[:size].cast(kind))
            view = view[size * (kind != "-"):]
        chunk = "".join(text_blocks(columns, range(int(rows)))).encode("ascii")
        # a short write shows in the text that data.write_table checks
        print(os.write(text, chunk), flush=True)
