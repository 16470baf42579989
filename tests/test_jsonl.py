"""Every line file is read one way: ``scan_lines`` and its strict form
``read_lines``."""

import hashlib
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from textreuse.cli import _read_config_file
from textreuse.jsonl import read_lines, scan_lines, write_lines
from textreuse.pan import load_pan_corpus
from textreuse.retrieval import read_candidates

# Pieces of a physical line: blanks, text, a lone CR, invalid and valid
# multi-byte UTF-8, and a word the test's parser refuses.
_pieces = st.sampled_from([b" ", b"\t", b"\x0b", b"\r", b"ab", b"\xc3\xa9", b"\xff", b"\xc3", b"bad"])
_lines = st.lists(
    st.tuples(st.lists(_pieces, max_size=4).map(b"".join), st.sampled_from([b"\n", b"\r\n"])).map(b"".join),
    max_size=8,
)


def _refuse_bad(line):
    if "bad" in line:
        raise ValueError("refused")
    return line


@given(lines=_lines, last=st.lists(_pieces, max_size=3).map(b"".join))
def test_scan_lines_yields_each_non_blank_line_once(tmp_path_factory, lines, last):
    physical = lines + [last] if last else lines  # the last line may have no line break
    path = tmp_path_factory.mktemp("scan") / "lines"
    path.write_bytes(b"".join(physical))
    digest = hashlib.sha256()
    scanned = list(scan_lines(path, _refuse_bad, digest))

    expected = []
    for lineno, blob in enumerate(physical, 1):
        if not blob.strip():
            continue
        try:
            expected.append((lineno, _refuse_bad(blob.decode("utf-8")), None))
        except ValueError:
            expected.append((lineno, None, "error"))
    assert [(n, v, "error" if e else None) for n, v, e in scanned] == expected
    assert all((value is None) != (error is None) for _, value, error in scanned)
    assert digest.hexdigest() == hashlib.sha256(path.read_bytes()).hexdigest()


def _candidates(tmp_path, second):
    path = tmp_path / "candidates.tsv"
    path.write_bytes(b"a\tb\t1\n" + second)
    return path, lambda: read_candidates(path)


def _config(tmp_path, second):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"workers = 1\n" + second)
    return path, lambda: _read_config_file(str(path))


def _pan_pairs(tmp_path, second):
    path = tmp_path / "pairs"
    path.write_bytes(b"susp-1.txt src-1.txt\n" + second)
    return path, lambda: load_pan_corpus(tmp_path)


@pytest.mark.parametrize("reader", [_candidates, _config, _pan_pairs], ids=["candidates", "config", "pan-pairs"])
def test_undecodable_line_is_named(tmp_path, reader):
    path, read = reader(tmp_path, b"caf\xff\n")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:2: ')}'utf-8' codec can't decode byte 0xff"):
        read()


def test_read_lines_raises_at_the_first_bad_line(tmp_path):
    path = tmp_path / "lines"
    path.write_bytes(b"ok\n\n  \nbad one\nbad two\n")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:4: refused')}$"):
        read_lines(path, _refuse_bad)


def test_write_lines_creates_the_parent_and_counts(tmp_path):
    path = tmp_path / "new" / "dir" / "lines"
    assert write_lines(path, iter(["one", "two"])) == 2
    assert path.read_bytes() == b"one\ntwo\n"
    assert write_lines(path, []) == 0
    assert path.read_bytes() == b""
    assert [p.name for p in path.parent.iterdir()] == ["lines"]
