"""Rows of a full-precision CSV, formatted in this process or in a writer process.

A trajectory CSV is a head (the params line and the column header) followed
by rows of ``width`` values, each printed with ``%.17g``: the same bytes as
formatting every value with ``f"{v:.17g}"``.  ``format_rows`` is that
formatter.  ``open_stream`` runs it in a separate process, so that the
caller computes the next rows while the last ones are formatted: it writes
the head to a temporary file next to the target and starts this file as a
script,

    python -I -S csvrows.py TEMP_PATH WIDTH

which reads blocks of rows from stdin as raw float64 values, each framed by
its row count, and appends their text to TEMP_PATH.  A count of 0 ends the
stream: the script exits 0, and the stream renames the temporary file onto
the target.  At the end of its input without that frame the script exits 1;
the stream then removes the temporary file, so the target keeps its bytes.

The module imports only the standard library (never numpy or its own
package), so the script starts in milliseconds.
"""

from __future__ import annotations

import errno
import os
import sys

#: bytes of a frame header: the little-endian row count of the block that
#: follows; a count of 0 ends the stream
_FRAME_BYTES = 8


def block_rows(width: int) -> int:
    """Rows in one block of ``width``-value rows: at most 512 rows and 65,536
    values, so that the text of a block stays small, but at least one row."""
    return max(1, min(512, 65536 // width))


def format_rows(values, width: int) -> str:
    """The CSV lines of the row-major float sequence ``values``, ``width`` per line."""
    row = ",".join(["%.17g"] * width) + "\n"
    return (row * (len(values) // width)) % tuple(values)


class RowStream:
    """Blocks of rows on their way to a writer process; use it as a context manager.

    Leaving the ``with`` block normally sends the end frame, waits for the
    writer and renames the temporary file onto the target; a writer that
    fails raises ``OSError`` with its exit status.  Leaving it by an
    exception closes the pipe, waits for the writer and removes the
    temporary file before the exception goes on.
    """

    def __init__(self, path, temp: str, width: int, process):
        self.path, self.temp, self.width, self.process = path, temp, width, process

    def send(self, block) -> None:
        """Queue a C-contiguous float64 block of whole rows for the writer."""
        data = memoryview(block).cast("B")
        rows = data.nbytes // (8 * self.width)
        self.process.stdin.write(rows.to_bytes(_FRAME_BYTES, "little"))
        self.process.stdin.write(data)

    def __enter__(self) -> RowStream:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            try:
                if exc_type is None:
                    self.process.stdin.write(bytes(_FRAME_BYTES))
                self.process.stdin.close()
            except BrokenPipeError:
                pass  # the writer stopped early; its status tells
            status = self.process.wait()
            if exc_type is None and status == 0:
                os.replace(self.temp, self.path)
        finally:
            try:
                os.remove(self.temp)
            except FileNotFoundError:
                pass  # renamed onto the target
        if status != 0 and (exc_type is None or issubclass(exc_type, BrokenPipeError)):
            raise OSError(f"the CSV writer process exited with status {status}") from exc


def open_stream(path, head: str, width: int) -> RowStream | None:
    """Write ``head`` to a new temporary file next to ``path`` and start its
    writer process; None, with the temporary file removed, when no process
    can be started.  A ``path`` that names a directory raises
    ``IsADirectoryError`` first, before the caller computes a row."""
    import subprocess  # here, not above: it would add about 18 ms to the writer's start-up

    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))
    directory, name = os.path.split(os.fspath(path))
    temp = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
    with open(temp, "x", encoding="utf-8") as fh:
        fh.write(head)
    try:
        process = subprocess.Popen(
            [sys.executable, "-I", "-S", os.path.abspath(__file__), temp, str(width)],
            stdin=subprocess.PIPE, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except OSError:
        os.remove(temp)
        return None
    return RowStream(path, temp, width, process)


def _append(path: str, width: int) -> int:
    """The writer: append the rows of each block on stdin to ``path``; 0 after
    the end frame, 1 at the end of input without it."""
    read = sys.stdin.buffer.read
    with open(path, "a", encoding="utf-8") as fh:
        while len(head := read(_FRAME_BYTES)) == _FRAME_BYTES:
            rows = int.from_bytes(head, "little")
            if rows == 0:
                return 0
            data = read(8 * rows * width)
            if len(data) != 8 * rows * width:
                return 1
            fh.write(format_rows(memoryview(data).cast("d"), width))
    return 1


if __name__ == "__main__":
    sys.exit(_append(sys.argv[1], int(sys.argv[2])))
