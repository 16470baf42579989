"""Line files: the one reader and the one writer of every file the program
reads or writes.

Every line file (corpus and case records, gold annotations, candidate
pairs, config files, PAN ``pairs`` lists, the checkpoint state) is read by
``scan_lines``, or by its strict form ``read_lines``. The file is read as
bytes and each line decoded as UTF-8 on its own, so an undecodable line is
an error of that line, not of the file. Whitespace-only lines are skipped;
every other line is passed to a ``parse`` function with its line break
still attached (so JSON error texts give the same columns whatever the
caller), and what ``parse`` refuses with ``ValueError`` is that line's
error. ``read_lines`` raises the first one as ``path:line: message``.

Every file is written by ``write_lines``, which creates the parent
directory and writes through a temporary file renamed over the target, so
a file appears whole or not at all.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, TypeVar

T = TypeVar("T")


def scan_lines(
    path: str | Path, parse: Callable[[str], T], digest: Any = None
) -> Iterator[tuple[int, T | None, str | None]]:
    """Lenient reader yielding ``(lineno, value, error)`` for each line that
    is not whitespace only: ``parse(line)``, or the text of the
    ``ValueError`` that decoding or ``parse`` raised. Line numbers are
    1-based. ``digest``, if given (a ``hashlib`` object), is updated with
    every byte read, skipped lines included."""
    with open(path, "rb") as fh:
        for lineno, blob in enumerate(fh, 1):
            if digest is not None:
                digest.update(blob)
            if not blob.strip():
                continue
            try:
                value = parse(blob.decode("utf-8"))
            except ValueError as exc:
                yield lineno, None, str(exc)
            else:
                yield lineno, value, None


def read_lines(path: str | Path, parse: Callable[[str], T]) -> list[T]:
    """Strict reader: ``parse`` of every line ``scan_lines`` reads, in file
    order; the first line that fails raises ValueError naming ``path:line``."""
    values = []
    for lineno, value, error in scan_lines(path, parse):
        if error is not None:
            raise ValueError(f"{path}:{lineno}: {error}")
        values.append(value)
    return values


def write_lines(path: str | Path, lines: Iterable[str]) -> int:
    """Write each of ``lines`` followed by a line break; returns how many.
    The parent directory is created, and the file appears whole or not at
    all: the lines go to a temporary file in the same directory, renamed
    over ``path`` once all are written and removed if writing fails."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    count = 0
    try:
        with tmp.open("w", encoding="utf-8") as fh:
            for count, line in enumerate(lines, 1):
                fh.write(f"{line}\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return count


def json_object(line: str) -> dict:
    """``line`` parsed as a JSON object; anything else raises ValueError."""
    try:
        record = json.loads(line)
    except RecursionError as exc:  # arrays or objects nested deeper than the parser goes
        raise ValueError(str(exc)) from None
    if not isinstance(record, dict):
        raise ValueError("record is not a JSON object")
    return record


def read_jsonl(path: str | Path) -> Iterator[dict]:
    """Strict reader of the records as parsed; raises on the first bad line."""
    return iter(read_lines(path, json_object))


def read_records(path: str | Path, build: Callable[[dict], T]) -> list[T]:
    """Strict reader: ``build(record)`` for every record, in file order. The
    first line that is not a JSON object, or whose record ``build`` refuses
    with ValueError, raises ValueError naming ``path:line``."""
    return read_lines(path, lambda line: build(json_object(line)))


def write_jsonl(path: str | Path, records: Iterable[Mapping[str, Any]]) -> int:
    """Write one JSON object per line (``write_lines``)."""
    return write_lines(path, (json.dumps(record, ensure_ascii=False) for record in records))


def write_json(path: str | Path, value: Any) -> None:
    """Write one JSON value, keys sorted and indented (``write_lines``)."""
    write_lines(path, [json.dumps(value, sort_keys=True, indent=2)])
