"""Every output file of the package, written whole onto its target or not at all.

A trajectory CSV is a head (the params line and the column header) followed
by rows of ``width`` values, each printed with ``%.17g``: the same bytes as
formatting every value with ``f"{v:.17g}"``.  ``format_rows`` is that
formatter.  ``write_csv`` and ``stream_csv`` write the head to a temporary
file next to the target, append the rows of every block (a C-contiguous
float64 array of whole rows), and rename the file onto the target only once
every block is written; on any error, an interrupt included, they remove it,
so the target keeps its bytes.  ``write_text`` writes a text already
formatted whole (a table or a JSON document) the same way.  ``write_csv``
formats the rows in this process, ``stream_csv`` in a writer process, so
that the caller computes the next block while the last one is formatted: it
starts this file as a script,

    python -I -S csvrows.py TEMP_PATH WIDTH

which reads the rows from stdin as raw float64 values, one block of
``block_rows(WIDTH)`` rows at a time until its input ends, and appends their
text to TEMP_PATH with the same loop.  A cut value or a cut row makes it exit
nonzero.  Only this process decides whether the temporary file is renamed or
removed, and it decides after the writer has exited.  When no process can be
started, ``stream_csv`` formats the rows in this process, which gives the
same bytes.

The module imports only the standard library (never numpy or its own
package), so the script starts in milliseconds.
"""

from __future__ import annotations

import errno
import os
import sys


def block_rows(width: int) -> int:
    """Rows in one block of ``width``-value rows: at most 512 rows and 65,536
    values, so that the text of a block stays small, but at least one row."""
    return max(1, min(512, 65536 // width))


def format_rows(values, width: int) -> str:
    """The CSV lines of the row-major float sequence ``values``, ``width`` per line."""
    row = ",".join(["%.17g"] * width) + "\n"
    return (row * (len(values) // width)) % tuple(values)


def write_csv(path, head: str, width: int, blocks):
    """Write ``head`` and every block of rows onto ``path``, formatted in this
    process; the last block, or None."""
    return _write(path, head, lambda temp: _append_rows(temp, width, blocks))


def write_text(path, text: str) -> None:
    """Write ``text`` onto ``path`` whole, by the same temporary file and rename."""
    _write(path, text, lambda temp: None)


def stream_csv(path, head: str, width: int, blocks):
    """``write_csv`` through a writer process when one can be started; a writer
    that fails raises ``OSError`` with its exit status."""
    return _write(path, head, lambda temp: _pipe_rows(temp, width, blocks))


def _write(path, head: str, append):
    """Write ``head`` to a temporary file next to ``path``, let ``append(temp)``
    add to it and rename it onto ``path``; remove it on any error.  Returns what
    ``append`` returns.  A ``path`` that names a directory raises
    ``IsADirectoryError`` before ``append`` runs, and an error that opening
    the temporary file raises names ``path`` too."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))
    directory, name = os.path.split(os.fspath(path))
    temp = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
    try:
        fh = open(temp, "x", encoding="utf-8")
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with fh:
            fh.write(head)
        last = append(temp)
        os.replace(temp, path)
    finally:
        try:
            os.remove(temp)
        except FileNotFoundError:
            pass  # renamed onto the target
    return last


def _append_rows(path: str, width: int, blocks):
    """Append the text of every block to ``path``; the last block, or None."""
    block = None
    with open(path, "a", encoding="utf-8") as fh:
        for block in blocks:
            fh.write(format_rows(memoryview(block).cast("B").cast("d"), width))
    return block


def _pipe_rows(path: str, width: int, blocks):
    """Send the values of every block to a writer process appending to ``path``;
    ``_append_rows`` when no process can be started."""
    import subprocess  # here, not above: it would add about 18 ms to the writer's start-up

    try:
        process = subprocess.Popen(
            [sys.executable, "-I", "-S", os.path.abspath(__file__), path, str(width)],
            stdin=subprocess.PIPE, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except OSError:
        return _append_rows(path, width, blocks)
    block = broken = None
    try:
        for block in blocks:
            process.stdin.write(memoryview(block).cast("B"))
    except BrokenPipeError as exc:
        broken = exc  # the writer stopped early; its status tells
    finally:  # any other error leaves here once the writer has exited
        try:
            process.stdin.close()
        except BrokenPipeError:
            pass
        status = process.wait()
    if broken is not None or status != 0:
        raise OSError(f"the CSV writer process exited with status {status}") from broken
    return block


if __name__ == "__main__":  # the writer: stdin in blocks of whole rows, to its end
    width = int(sys.argv[2])
    size = 8 * width * block_rows(width)
    _append_rows(sys.argv[1], width, iter(lambda: sys.stdin.buffer.read(size), b""))
