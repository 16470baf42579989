"""Line-delimited JSON record helpers and whole-file writes."""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator, Mapping, TypeVar

T = TypeVar("T")


@contextmanager
def atomic_open(path: str | Path) -> Iterator[IO[str]]:
    """Open ``path`` for writing text so that it appears whole or not at all.

    Writes go to a temporary file in the same directory, renamed over
    ``path`` when the block exits normally and removed when it raises.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def read_jsonl(path: str | Path) -> Iterator[dict]:
    """Strict reader of the records as parsed; raises on the first bad line."""
    return iter(read_records(path, lambda record: record))


def read_records(path: str | Path, build: Callable[[dict], T]) -> list[T]:
    """Strict reader: ``build(record)`` for every record, in file order. The
    first line that is not a JSON object, or whose record ``build`` refuses
    with ValueError, raises ValueError naming ``path:line``."""
    built = []
    for lineno, record, error in scan_jsonl(path):
        if error is None:
            try:
                built.append(build(record))
            except ValueError as exc:
                error = str(exc)
        if error is not None:
            raise ValueError(f"{path}:{lineno}: {error}")
    return built


def scan_jsonl(path: str | Path, digest: Any = None) -> Iterator[tuple[int, dict | None, str | None]]:
    """Lenient reader yielding (lineno, record, error); exactly one of record/error is set.

    The file is read as bytes so a single undecodable line is reported
    per-line instead of aborting the whole file. ``digest``, if given (a
    ``hashlib`` object), is updated with every byte read, blank lines included.
    """
    with open(path, "rb") as fh:
        for lineno, blob in enumerate(fh, 1):
            if digest is not None:
                digest.update(blob)
            if not blob.strip():
                continue
            try:
                record = json.loads(blob.decode("utf-8"))
            # RecursionError: arrays or objects nested deeper than the parser goes
            except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
                yield lineno, None, str(exc)
                continue
            if not isinstance(record, dict):
                yield lineno, None, "record is not a JSON object"
                continue
            yield lineno, record, None


def write_jsonl(path: str | Path, records: Iterable[Mapping[str, Any]]) -> int:
    """Write one JSON object per line; the file appears whole or not at all."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with atomic_open(path) as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False))
            fh.write("\n")
            count += 1
    return count


def write_json(path: str | Path, value: Any) -> None:
    """Write one JSON value, keys sorted and indented; the file appears whole or not at all."""
    with atomic_open(path) as fh:
        fh.write(json.dumps(value, sort_keys=True, indent=2) + "\n")
