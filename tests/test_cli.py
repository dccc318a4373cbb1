import errno
import itertools
import json
import math
import os
import re
import signal
import stat
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from pcfdr import _fork, cli, simulation
from pcfdr.cli import CliError, read_ids, read_matrix, run, write_matrix

REFERENCE = Path(__file__).resolve().parent.parent / "scenarios" / "reference.json"
# The verify report on REFERENCE as the one-replicate-at-a-time Monte Carlo
# loops (now in oracles.py) wrote it; stacked replicates must reproduce it
# byte for byte.
GOLDEN_VERIFY = Path(__file__).resolve().parent / "golden" / "reference_verify.json"
README = Path(__file__).resolve().parent.parent / "README.md"
# A matrix with ids (one of them non-ASCII, one padded with spaces), CRLF
# line ends, blank and whitespace-only lines and no newline after the last
# line. Its replicate reports, as the per-line reader (now in oracles.py)
# gave them, are pinned byte for byte in tests/golden.
GOLDEN_MATRIX = ("gene_a,0.0001,0.0004,0.02\r\n"
                 "gene_b,0.3,0.5,0.9\r\n"
                 "\r\n"
                 "g\u00e8ne_c,0.00002,0.00003,0.00001\r\n"
                 "   \r\n"
                 "gene_d,0.04,0.001,0.7\r\n"
                 "\t\r\n"
                 "gene_e,0.0005,0.2,0.0009\r\n"
                 "gene_f,0.6,0.01,0.03\r\n"
                 "gene_g,0.000001,0.9,0.5\r\n"
                 "\r\n"
                 " gene_h ,0.002,0.003,0.004\r\n"
                 "gene_i,1,0.0,0.5")
GOLDEN_REPLICATE = {"threshold=0.01": "replicate.json", "column=1": "replicate_column.json"}
# A pc-test family of 17 p-values with ids in six groups of one to four,
# with weights, the reciprocal-sum shape and u = ceil(n_g / 2): g5 has a
# smaller PC p-value than g1 but a third of its prior weight, and is the
# one left out. Its report, and the combine report of GOLDEN_MATRIX at
# u = 2, are pinned byte for byte in tests/golden.
PC_TEST_PVALUES = ("f0,0.0001\nf1,0.0003\nf2,0.2\nf3,0.004\nf4,0.0002\nf5,0.9\n"
                   "f6,0.01\nf7,0.6\nf8,5e-05\nf9,0.03\nf10,0.7\nf11,0.0004\n"
                   "f12,0.002\nf13,0.08\nf14,0.5\nf15,0.001\nf16,0.3\n")
PC_TEST_GROUPS = "g1 g1 g1 g2 g2 g3 g3 g3 g4 g4 g1 g5 g5 g5 g6 g4 g6".replace(" ", "\n") + "\n"
PC_TEST_WEIGHTS = "1.5,1\n0.5,2\n1,1\n1.5,1\n0.5,1\n0.5,1\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestReadWriteMatrix:
    def test_plain_matrix(self, tmp_path):
        path = write(tmp_path, "m.csv", "0.1,0.2\n0.3,0.4\n")
        has_ids, rows = read_matrix(path)
        assert has_ids is False
        assert rows.tolist() == [[0.1, 0.2], [0.3, 0.4]]

    def test_id_column_detected(self, tmp_path):
        path = write(tmp_path, "m.csv", "geneA,0.1\ngeneB,0.2\n")
        has_ids, rows = read_matrix(path)
        assert has_ids is True
        assert list(read_ids(path)) == ["geneA", "geneB"]
        assert rows.tolist() == [[0.1], [0.2]]

    def test_ids_decode_alike_one_by_one_and_in_blocks(self, tmp_path):
        names = [f" g\u00e8ne{i} " if i % 7 else f"g{i}" for i in range(9000)]
        path = write(tmp_path, "m.csv", "".join(f"{name},0.5\n" for name in names))
        has_ids, rows = read_matrix(path)
        ids = list(read_ids(path))
        assert has_ids and ids == [n.strip() for n in names]
        for i in (0, 1, 4095, 4096, 8999):
            assert list(read_ids(path, np.arange(9000) == i)) == [ids[i]]
        assert list(read_ids(path, np.arange(9000) % 7 == 3)) == ids[3::7]
        assert rows.shape == (9000, 1)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        path = write(tmp_path, "m.csv", "\ufeff0.01,0.2\n0.3,0.4\n")
        has_ids, rows = read_matrix(path)
        assert has_ids is False
        assert rows.tolist() == [[0.01, 0.2], [0.3, 0.4]]
        path = write(tmp_path, "i.csv", "\ufeffgeneA,0.1\r\ngeneB,0.2\r\n")
        has_ids, rows = read_matrix(path)
        assert has_ids is True
        assert list(read_ids(path)) == ["geneA", "geneB"]
        assert rows.tolist() == [[0.1], [0.2]]

    def test_byte_order_mark_keeps_combined_values(self, tmp_path, capsys):
        path = write(tmp_path, "m.csv", "\ufeff0.01,0.2\n0.3,0.4\n")
        assert run(["combine", path, "--method", "simes"]) == 0
        assert capsys.readouterr().out.splitlines() == ["0.02", "0.40000000000000002"]

    def test_token_only_float_accepts_is_not_a_number(self, tmp_path):
        # float() takes underscores and non-ASCII digits; np.loadtxt does not.
        for token in ("0.0_1", "\u0660.5"):
            path = write(tmp_path, "u.csv", f"0.1,{token}\n")
            with pytest.raises(CliError, match=rf"u\.csv:1:2: not a number: '{token}'"):
                read_matrix(path)

    def test_roundtrip_17_digits(self, tmp_path):
        values = [1 / 3, math.pi / 4, 1e-17, 0.9999999999999999]
        first = tmp_path / "a.csv"
        write_matrix(str(first), ["r1", "r2", "r3", "r4"], values)
        has_ids, rows = read_matrix(str(first))
        assert has_ids is True
        assert rows[:, 0].tolist() == values  # .17g is lossless for doubles
        second = tmp_path / "b.csv"
        write_matrix(str(second), read_ids(str(first)), rows[:, 0].tolist())
        assert first.read_text() == second.read_text()
        for ids in (["r1"] * 3, ["r1"] * 5):
            with pytest.raises(ValueError):
                write_matrix(str(second), ids, values)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_blocks_write_as_one_list(self, tmp_path, offset):
        # The values are formatted a block of rows at a time; the lines are
        # those of one list of floats, on either side of a block boundary.
        m = cli._WRITE_BLOCK + offset
        values = np.random.default_rng(offset + 1).random(m)
        values[:3] = (0.0, 1.0, 1e-300)
        ids = [f"r{i}" for i in range(m)]
        for names, expected in (
                (None, "".join(f"{x:.17g}\n" for x in values.tolist())),
                (ids, "".join(f"{i},{x:.17g}\n" for i, x in zip(ids, values.tolist())))):
            out = tmp_path / "o.csv"
            write_matrix(str(out), names, values)
            assert out.read_text() == expected
        for names in (ids[:-1], ids + ["extra"]):
            with pytest.raises(ValueError):
                write_matrix(str(tmp_path / "o.csv"), iter(names), values)

    def test_only_the_matrix_is_held(self, tmp_path):
        # The ids stay in the file: after read_matrix returns, an id matrix
        # holds no more memory than its values.
        rng = np.random.default_rng(3)
        path = tmp_path / "m.csv"
        np.savetxt(path, rng.random((20_000, 5)), delimiter=",", fmt="%.17g")
        path.write_text("".join(f"gene{i:07d},{line}\n"
                                for i, line in enumerate(path.read_text().splitlines())))
        tracemalloc.start()
        try:
            has_ids, mat = read_matrix(str(path))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert has_ids and mat.shape == (20_000, 5)
        assert held <= 1.05 * mat.nbytes

    def test_path_must_be_a_regular_file(self, tmp_path, capsys):
        # The matrix is read more than once, which a pipe cannot give. The
        # FIFO is never opened, so nothing here can block on it.
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        with pytest.raises(CliError, match=rf"^{re.escape(str(fifo))}: not a regular file$"):
            read_matrix(str(fifo))
        m = write(tmp_path, "m.csv", "0.01\n0.02\n")
        assert run(["replicate", m, "--q", "0.1", "--method", "simes",
                    "--weights", str(fifo)]) == 2
        assert capsys.readouterr().err == f"error: {fifo}: not a regular file\n"
        with pytest.raises(CliError, match=r"^cannot read .*missing\.csv: "):
            read_matrix(str(tmp_path / "missing.csv"))

    def test_diagnostics_carry_line_and_column(self, tmp_path):
        path = write(tmp_path, "m.csv", "0.1,0.2\n0.3,oops\n")
        from pcfdr.cli import CliError
        with pytest.raises(CliError, match=r"m\.csv:2:2"):
            read_matrix(path)

    def test_diagnostics_count_blank_lines(self, tmp_path):
        from pcfdr.cli import CliError
        path = write(tmp_path, "m.csv", "0.1,0.2\n\n0.3,oops\n")
        with pytest.raises(CliError, match=r"m\.csv:3:2: not a number: 'oops'"):
            read_matrix(path)
        path = write(tmp_path, "r.csv", "0.1,0.2\n  \n\n0.3,1.5\n")
        with pytest.raises(CliError, match=r"r\.csv:4:2: p-value 1\.5 outside \[0, 1\]"):
            read_matrix(path)
        path = write(tmp_path, "w.csv", "a,0.1,0.2\n\nb,0.3\n")
        with pytest.raises(CliError, match=r"w\.csv:3:1: expected 2 values, got 1"):
            read_matrix(path)

    @pytest.mark.parametrize("text", ["0.1,0.2\n0.3,0.4,0.5\n",
                                      "a,0.1,0.2\nb,0.3,0.4,0.5\n"])
    def test_longer_row_rejected(self, tmp_path, text):
        from pcfdr.cli import CliError
        path = write(tmp_path, "m.csv", text)
        with pytest.raises(CliError, match=r"m\.csv:2:1: expected 2 values, got 3"):
            read_matrix(path)

    @pytest.mark.parametrize("text, where", [
        ("0.1,0.2\n0.3\n", "2:1: expected 2 values, got 1"),
        ("0.1,0.2\n\n0.3,0.4,0.5\n", "3:1: expected 2 values, got 3"),
        ("a,0.1\nb,0.2,0.3\n", "2:1: expected 1 values, got 2"),
        ("0.1,0.2\n0.3,x\n", "2:2: not a number: 'x'"),
        ("0.1,0.2\n0.3,1.5\n", "2:2: p-value 1.5 outside [0, 1]"),
        ("0.1,0.0_1\n", "1:2: not a number: '0.0_1'"),
        ("", "1:1: empty input"),
        (" \n\n", "1:1: empty input"),
        (b"a,0.1\n\xff,0.2\n", "2:1: not valid UTF-8"),
        (b"0.1,0.2\n0.3,\xff\n", "2:2: not valid UTF-8"),
    ])
    def test_bad_input_exits_2_with_line_and_column(self, tmp_path, capsys, text, where):
        path = tmp_path / "m.csv"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        assert run(["replicate", str(path), "--q", "0.1", "--method", "simes"]) == 2
        assert capsys.readouterr().err == f"error: {path}:{where}\n"

    @pytest.mark.parametrize("flag, text, where", [
        ("--groups", b"a\n\xffb\n", "2:1: not valid UTF-8"),
        ("--groups", b"\xef\xbb\xbfa\r\nb\xff\n", "2:2: not valid UTF-8"),
        ("--groups", b"a\rab\xc3\xa9\xe9\n", "2:4: not valid UTF-8"),
        ("--scenario", b'{"checks":\r\n  [\xff]}', "2:4: not valid UTF-8"),
        ("--scenario", b"\xef\xbb\xbf{\n",
         "2:1: Expecting property name enclosed in double quotes"),
    ])
    def test_labels_and_scenario_bad_input_exits_2_with_line_and_column(
            self, tmp_path, capsys, flag, text, where):
        path = tmp_path / "f.txt"
        path.write_bytes(text)
        p = write(tmp_path, "p.csv", "0.1\n0.2\n")
        argv = (["pc-test", p, "--alpha", "0.05", "--method", "simes", "--groups", str(path)]
                if flag == "--groups" else ["verify", "--scenario", str(path)])
        assert run(argv) == 2
        assert capsys.readouterr().err == f"error: {path}:{where}\n"


class TestChangedBetweenReads:
    """An input read more than once that is changed or removed between two
    reads exits 2 with a message, never a traceback or a report built from
    two versions of the file."""

    def between(self, monkeypatch, name, change):
        """Run ``change`` before each call of cli's ``name``."""
        real = getattr(cli, name)

        def changed(*args, **kwargs):
            change()
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, name, changed)

    def gone(self, path):
        return f"error: cannot read {path}: [Errno 2] No such file or directory: '{path}'\n"

    def test_matrix_gone_before_the_serial_retry(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, "m.csv", "0.1,0.2\n0.3,0.4\n")

        def failing(*args):
            os.remove(path)
            raise OSError("a forked parse failed")

        monkeypatch.setattr(cli, "_loadtxt", failing)
        assert run(["replicate", path, "--q", "0.1", "--method", "simes"]) == 2
        assert capsys.readouterr().err == self.gone(path)

    def test_matrix_gone_before_the_diagnostic(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, "m.csv", "0.1,0.2\n0.3,x\n")
        self.between(monkeypatch, "_bad_cell", lambda: os.remove(path))
        assert run(["replicate", path, "--q", "0.1", "--method", "simes"]) == 2
        assert capsys.readouterr().err == self.gone(path)

    def test_bad_cell_mended_before_the_diagnostic(self, tmp_path, capsys, monkeypatch):
        # Both parses failed, and the third read finds every cell good.
        path = write(tmp_path, "m.csv", "0.1,0.2\n0.3,x\n")
        self.between(monkeypatch, "_bad_cell", lambda: write(tmp_path, "m.csv", "0.1,0.2\n"))
        assert run(["replicate", path, "--q", "0.1", "--method", "simes"]) == 2
        assert capsys.readouterr().err == f"error: {path}: changed while it was read\n"

    def test_ids_gone_before_they_are_read_back(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, "m.csv", "a,0.1,0.2\nb,0.3,0.4\n")
        self.between(monkeypatch, "_row_values", lambda: os.remove(path))
        assert run(["combine", path, "--method", "fisher"]) == 2
        assert capsys.readouterr() == ("", self.gone(path))

    def test_labels_mended_before_the_second_read(self, tmp_path, capsys, monkeypatch):
        # The labels are not UTF-8 when coded and are by the time _read_text
        # looks for the bad byte: the first read's error is reported.
        p = write(tmp_path, "p.csv", "0.1\n0.2\n")
        groups = tmp_path / "g.txt"
        groups.write_bytes(b"a\n\xffb\n")
        self.between(monkeypatch, "_read_text", lambda: groups.write_bytes(b"a\nb\n"))
        argv = ["pc-test", p, "--alpha", "0.05", "--method", "simes", "--groups", str(groups)]
        assert run(argv) == 2
        assert capsys.readouterr().err == (
            f"error: cannot read {groups}: 'utf-8' codec can't decode byte 0xff in "
            "position 2: invalid start byte\n")


def matrix_text(ids, newline, bom, final, rows=60, long_last=False):
    """A p-value matrix of 17-digit values, with a blank first line and a
    blank line after every fifth row. ``newline`` "mixed" cycles through
    LF, CRLF and CR line ends."""
    rng = np.random.default_rng(rows)
    ends = ["\n", "\r\n", "\r"] if newline == "mixed" else [newline]
    lines = [""]
    for i, row in enumerate(rng.random((rows, 4)).tolist()):
        cells = [f"{x:.17g}" for x in row]
        if long_last and i == rows - 1:
            cells = [f"{x:.17g}" + " " * 2000 for x in row]
        lines.append(",".join([f"g{i}"] * ids + cells))
        if i % 5 == 4 and i < rows - 1:
            lines.append("")
    text = "".join(line + ends[i % len(ends)] for i, line in enumerate(lines))
    if not final:
        text = text.rstrip("\r\n")
    return "\ufeff" * bom + text


class TestChunkedParse:
    """A file of two or more _MIN_CHUNK bytes is parsed in one range of
    lines per usable core, the first in this process and each other one in
    a forked child. The matrix is the one a single np.loadtxt gives, bit
    for bit, failures give the single parse's message, and no child is
    left behind."""

    @pytest.fixture
    def split(self, monkeypatch):
        """A function that sets the usable core count, and so k on these
        small files, and returns the counts of forks and of walks over the
        file's rows (the first line, and the serial parse after a
        failure), which the test may reset."""
        calls = {"forks": 0, "rows": 0}
        fork, rows = os.fork, cli._rows

        def counting_fork():
            calls["forks"] += 1
            return fork()

        def counting_rows(*args):
            calls["rows"] += 1
            return rows(*args)

        def cores(k):
            monkeypatch.setattr(_fork, "_cores", lambda: k)
            return calls

        monkeypatch.setattr(os, "fork", counting_fork)
        monkeypatch.setattr(cli, "_rows", counting_rows)
        monkeypatch.setattr(cli, "_MIN_CHUNK", 512)
        monkeypatch.setattr(cli, "_SCAN_BLOCK", 7)  # so that _bounds scans in short blocks
        yield cores
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def serial(split, path):
        """The matrix of one path-fed np.loadtxt of the file: it is shorter
        than _MIN_CHUNK while it is read, so that no range is cut."""
        split(1)
        chunk, cli._MIN_CHUNK = cli._MIN_CHUNK, os.path.getsize(path) + 1
        try:
            return read_matrix(path)
        finally:
            cli._MIN_CHUNK = chunk

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("ids", [False, True], ids=["values", "ids"])
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r", "mixed"],
                             ids=["lf", "crlf", "cr", "mixed"])
    @pytest.mark.parametrize("bom", [False, True], ids=["no-bom", "bom"])
    @pytest.mark.parametrize("final", [True, False], ids=["final", "no-final"])
    def test_parse_equals_one_loadtxt(self, tmp_path, split, k, ids, newline, bom, final):
        path = tmp_path / "m.csv"
        path.write_bytes(matrix_text(ids, newline, bom, final).encode())
        assert path.stat().st_size >= 3 * 1024
        has_ids, expected = self.serial(split, str(path))
        calls = split(k)
        calls.update(forks=0, rows=0)
        got_ids, mat = read_matrix(str(path))
        assert calls == {"forks": k - 1, "rows": 1}  # the first line, and no second parse
        assert (got_ids, mat.shape, mat.dtype) == (has_ids, expected.shape, expected.dtype)
        assert mat.tobytes() == expected.tobytes()
        assert mat.shape == (60, 4)
        # With a reduction the file is cut into size // _MIN_CHUNK ranges,
        # whatever the core count, each reduced where it is parsed.
        calls.update(forks=0, rows=0)
        got_ids, sums = read_matrix(str(path), reduce=lambda rows: rows.sum(axis=1))
        assert calls == {"forks": k - 1, "rows": 1}
        assert (got_ids, sums.tobytes()) == (has_ids, expected.sum(axis=1).tobytes())

    @pytest.mark.parametrize("final", [True, False], ids=["final", "no-final"])
    def test_cut_on_the_last_line(self, tmp_path, split, final):
        # The last line is longer than a third of the file, so the second
        # cut falls on it and only two ranges are parsed.
        path = tmp_path / "m.csv"
        path.write_bytes(matrix_text(True, "\n", False, final, long_last=True).encode())
        _, expected = self.serial(split, str(path))
        calls = split(3)
        calls.update(forks=0, rows=0)
        _, mat = read_matrix(str(path))
        assert calls == {"forks": 1, "rows": 1}
        assert mat.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("k", [2, 3])
    def test_a_range_of_blank_lines_has_no_rows(self, tmp_path, split, k):
        # About the middle third (k = 3) or the last half (k = 2) of the
        # file is blank lines, so one range holds no row.
        head = matrix_text(True, "\n", False, True, rows=30)
        text = head + "\n" * len(head) + (head if k == 3 else "")
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode())
        _, expected = self.serial(split, str(path))
        calls = split(k)
        calls.update(forks=0, rows=0)
        _, mat = read_matrix(str(path))
        assert calls == {"forks": k - 1, "rows": 1}
        assert mat.tobytes() == expected.tobytes()
        assert len(mat) == 30 * (k - 1)

    @pytest.mark.parametrize("row, bad", [
        (45, "g45,0.1,oops,0.3,0.4"),
        (45, "g45,0.1,0.2,0.3"),
        (45, "g45,0.1,0.2,0.3,0.4,0.5"),
        (45, "g45,0.1,\xff,0.3,0.4"),
        (45, "g45,0.1,1.5,0.3,0.4"),
        (45, "  \t"),
        (5, "g5,0.1,oops,0.3,0.4"),
    ], ids=["not-a-number", "short-row", "long-row", "not-utf-8", "p-above-1",
            "whitespace-only", "first-range"])
    def test_a_bad_row_gives_the_message_of_one_parse(self, tmp_path, capsys, split, row, bad):
        # Row 45 of 60 lies in the second of two ranges; row 5 in the first.
        lines = matrix_text(True, "\n", False, True).split("\n")
        lines[lines.index(next(line for line in lines if line.startswith(f"g{row},")))] = bad
        path = tmp_path / "m.csv"
        path.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape")
                         .replace(b"\xc3\xbf", b"\xff"))
        argv = ["replicate", str(path), "--q", "0.1", "--method", "simes", "--out",
                str(tmp_path / "r.json")]
        split(1)
        code = run(argv)
        expected = capsys.readouterr().err, (tmp_path / "r.json").read_bytes() if code == 0 else None
        calls = split(2)
        calls.update(forks=0)
        assert run(argv) == code
        assert (capsys.readouterr().err,
                (tmp_path / "r.json").read_bytes() if code == 0 else None) == expected
        assert calls["forks"] == 1
        assert (code == 0) == (bad.strip() == "")
        if code:
            line = 1 + lines.index(bad)
            assert expected[0].startswith(f"error: {path}:{line}:")

    @pytest.mark.parametrize("block", [1, 2, 3, 5])
    @pytest.mark.parametrize("newline", ["\r\n", "\r", "mixed"])
    @pytest.mark.parametrize("final", [True, False], ids=["final", "no-final"])
    def test_every_cut_is_a_line_start(self, tmp_path, monkeypatch, block, newline, final):
        # With k = size, _bounds cuts past the first line end at or after
        # every offset, so it returns every line start past offset 1 as
        # bytes.splitlines splits, and none inside a "\r\n", though the
        # scan's blocks end at any byte.
        text = matrix_text(True, newline, False, final, rows=6).encode()
        starts = set(itertools.accumulate(map(len, text.splitlines(keepends=True))))
        monkeypatch.setattr(cli, "_SCAN_BLOCK", block)
        (path := tmp_path / "m.csv").write_bytes(text)
        fd = os.open(path, os.O_RDONLY)
        try:
            cuts = cli._bounds(fd, len(text), len(text))
        finally:
            os.close(fd)
        assert cuts == [0, *sorted({s for s in starts if s >= 2} | {len(text)})]

    def test_a_range_reads_only_its_own_bytes(self, tmp_path, monkeypatch):
        # The second of two ranges is parsed from its own bytes alone, not
        # after the lines before it.
        text = matrix_text(True, "\r\n", False, True).encode()
        path = tmp_path / "m.csv"
        path.write_bytes(text)
        kw = dict(dtype=[("id", "S"), ("p", float, (4,))], delimiter=",", comments=None,
                  ndmin=1, encoding="utf-8-sig")
        reads, pread = [], os.pread

        def spy(fd, n, pos):
            reads.append((pos, pos + n))
            return pread(fd, n, pos)

        fd = os.open(path, os.O_RDONLY)
        try:
            start, end = cli._bounds(fd, len(text), 2)[1:]
            monkeypatch.setattr(os, "pread", spy)
            arr = cli._load_range(kw, fd, start, end)
        finally:
            os.close(fd)
        assert 0 < start < end == len(text)
        assert reads and all(start <= a <= b <= end for a, b in reads)
        tail = np.loadtxt(text[start:].decode().splitlines(), **kw)
        assert len(arr) == len(tail) > 0
        assert arr["p"].tobytes() == tail["p"].tobytes()

    def test_a_byte_order_mark_that_starts_a_later_range_is_not_a_number(
            self, tmp_path, capsys, split):
        # Only the start of the file may hold a byte-order mark. No line is
        # blank, so the second range starts with a row.
        text = matrix_text(False, "\n", False, True).replace("\n\n", "\n").lstrip().encode()
        fd = os.open(path := tmp_path / "m.csv", os.O_RDWR | os.O_CREAT)
        try:
            os.write(fd, text)
            cut = cli._bounds(fd, len(text), 2)[1]
            text = text[:cut] + "\ufeff".encode() + text[cut:]
            os.pwrite(fd, text, 0)
            assert cli._bounds(fd, len(text), 2)[1] == cut
        finally:
            os.close(fd)
        argv = ["replicate", str(path), "--q", "0.1", "--method", "simes"]
        split(1)
        assert run(argv) == 2
        expected = capsys.readouterr().err
        calls = split(2)
        calls.update(forks=0)
        assert run(argv) == 2
        assert capsys.readouterr().err == expected
        assert calls["forks"] == 1
        line = text[:cut].count(b"\n") + 1
        assert expected.startswith(f"error: {path}:{line}:1: not a number: '\\ufeff")

    def test_a_child_that_dies_gives_the_serial_matrix(self, tmp_path, split, monkeypatch):
        path = tmp_path / "m.csv"
        path.write_bytes(matrix_text(True, "\n", False, True).encode())
        _, expected = self.serial(split, str(path))
        load_range = cli._load_range

        def dying(kw, fd, start, end):
            if start > 0:  # in the child
                os.kill(os.getpid(), signal.SIGKILL)
            return load_range(kw, fd, start, end)

        monkeypatch.setattr(cli, "_load_range", dying)
        calls = split(2)
        calls.update(forks=0, rows=0)
        _, mat = read_matrix(str(path))
        assert calls == {"forks": 1, "rows": 2}  # the first line, then the second parse
        assert mat.tobytes() == expected.tobytes()

    def test_a_child_exit_status_other_than_0_is_a_failure(self, tmp_path, split, monkeypatch):
        # The child writes all its rows and then exits 7: the rows are
        # parsed again in this process.
        path = tmp_path / "m.csv"
        path.write_bytes(matrix_text(True, "\n", False, True).encode())
        _, expected = self.serial(split, str(path))
        exit = os._exit
        monkeypatch.setattr(os, "_exit", lambda status: exit(status or 7))
        calls = split(2)
        calls.update(forks=0, rows=0)
        _, mat = read_matrix(str(path))
        assert calls == {"forks": 1, "rows": 2}
        assert mat.tobytes() == expected.tobytes()

    def test_children_are_killed_when_this_process_raises(self, tmp_path, split, monkeypatch):
        path = tmp_path / "m.csv"
        path.write_bytes(matrix_text(False, "\n", False, True).encode())
        load_range = cli._load_range

        def interrupted(kw, fd, start, end):
            if start > 0:  # in the child, which only a kill ends in time
                time.sleep(60)
                return load_range(kw, fd, start, end)
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_load_range", interrupted)
        split(3)
        t0 = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            read_matrix(str(path))
        assert time.monotonic() - t0 < 30

    def test_another_thread_keeps_one_process(self, tmp_path, split):
        path = tmp_path / "m.csv"
        path.write_bytes(matrix_text(True, "\n", False, True).encode())
        _, expected = self.serial(split, str(path))
        calls = split(2)
        calls.update(forks=0)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(30,))
        other.start()
        try:
            _, mat = read_matrix(str(path))
        finally:
            release.set()
            other.join(30)
        assert not other.is_alive()
        assert calls["forks"] == 0
        assert mat.tobytes() == expected.tobytes()

    @staticmethod
    def edge_lines():
        """80 rows with ids and 17-digit p-values, about 6 KB; a fifth of
        the rows carry a strong signal, so that each rule selects some."""
        rng = np.random.default_rng(7)
        mat = rng.random((80, 4))
        mat[::5] **= 12
        return [f"g{i}," + ",".join(f"{x:.17g}" for x in row) for i, row in enumerate(mat.tolist())]

    @pytest.mark.parametrize("case", [
        "plain", "no-ids", "no-final", "whitespace-only", "short-row", "cr", "crlf", "mixed",
        "bom", "not-utf-8", "p-above-1", "stouffer-0-and-1", "shared-id"])
    def test_edge_cases_give_the_results_of_one_parse(self, tmp_path, capsys, split,
                                                      monkeypatch, case):
        # Each command's exit status, message and report are the same when
        # the file is parsed whole, in ranges in one process, and in ranges
        # in two. "mixed" cycles through LF, CRLF and CR line ends.
        lines, method = self.edge_lines(), "simes"
        ends = {"cr": ["\r"], "crlf": ["\r\n"], "mixed": ["\n", "\r\n", "\r"]}.get(case, ["\n"])
        if case == "no-ids":
            lines = [line.split(",", 1)[1] for line in lines]
        elif case == "whitespace-only":
            lines.insert(40, "  \t")
        elif case == "short-row":
            lines[50] = "g50,0.1,0.2,0.3"
        elif case == "bom":
            lines[0] = "\ufeff" + lines[0]
        elif case == "not-utf-8":
            lines[50] = "g50,0.1,\udcff,0.3,0.4"  # written as the lone byte 0xff
        elif case == "p-above-1":
            lines[50] = "g50,0.1,1.5,0.3,0.4"
        elif case == "stouffer-0-and-1":
            # Column 1 holds the 0, so the column rule selects the row and
            # Step 2 meets it; the other rules meet it in Step 1.
            lines[0], method = "g0,1,0,0.5,0.5", "stouffer"
        elif case == "shared-id":
            lines[5] = lines[5].replace("g5,", "hit,")  # selected by each rule
            lines[70] = "hit,1e-09,2e-09,3e-09,4e-09"
        text = "".join(line + ends[i % len(ends)] for i, line in enumerate(lines))
        path = tmp_path / "m.csv"
        path.write_bytes(text.rstrip("\n" if case == "no-final" else "").encode(
            "utf-8", "surrogateescape"))
        out = tmp_path / "out"
        argvs = [["combine", str(path), "--method", method],
                 ["replicate", str(path), "--method", method, "--q", "0.1"],
                 ["replicate", str(path), "--method", method, "--q", "0.1", "--rule", "column=1"]]

        def results():
            got = []
            for argv in argvs:
                out.unlink(missing_ok=True)
                code = run([*argv, "--out", str(out)])
                got.append((code, capsys.readouterr().err, out.read_bytes() if code == 0 else None))
            return got

        monkeypatch.setattr(cli, "_MIN_CHUNK", path.stat().st_size + 1)
        whole = results()
        monkeypatch.setattr(cli, "_MIN_CHUNK", 512)
        calls = split(1)
        assert results() == whole
        assert calls["forks"] == 0
        split(2)
        assert results() == whole
        assert calls["forks"] == len(argvs)
        codes = [code for code, _, _ in whole]
        if case in ("plain", "no-ids", "no-final", "whitespace-only", "cr", "crlf", "mixed", "bom"):
            assert codes == [0, 0, 0]
            name = b'"5"' if case == "no-ids" else b'"g5"'
            assert all(name in report for _, _, report in whole[1:])  # a row was selected
        elif case == "stouffer-0-and-1":
            assert {err for _, err, _ in whole} == {
                f"error: {path}:1: Stouffer combiner with both p=0 and p=1\n"}
        elif case == "shared-id":
            assert codes == [0, 2, 2]
            assert whole[1][1] == f"error: {path}:71: selected id 'hit' also names line 6\n"
        else:
            assert codes == [2, 2, 2]
            assert whole[0][1].startswith(f"error: {path}:51:")


class TestCombine:
    def test_report_matches_golden_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(GOLDEN_MATRIX.encode())
        out = tmp_path / "c.csv"
        assert run(["combine", str(path), "--method", "fisher", "--u", "2",
                    "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN_VERIFY.parent / "combine.csv").read_bytes()

    def test_fisher_rows(self, tmp_path, capsys):
        path = write(tmp_path, "m.csv", "0.5,0.5\n0.01,0.02\n")
        assert run(["combine", path, "--method", "fisher"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert float(lines[0]) == pytest.approx(0.5965735902799727)

    def test_pc_u(self, tmp_path, capsys):
        path = write(tmp_path, "m.csv", "0.01,0.02,0.5\n")
        assert run(["combine", path, "--method", "bonferroni", "--u", "2"]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(0.04)

    def test_lambda_rejected_for_plain_method(self, tmp_path):
        path = write(tmp_path, "m.csv", "0.5\n")
        assert run(["combine", path, "--method", "simes", "--lambda", "0.5"]) == 2

    def test_out_may_be_the_input(self, tmp_path):
        # The ids are read back from the input after the values, so writing
        # --out must not empty it first: through the input's own path or a
        # symbolic link, the result is as to a separate file. The report is
        # renamed onto the path, so a hard link becomes a file of its own
        # holding the report, and the input keeps its text.
        path = tmp_path / "m.csv"
        path.write_bytes(GOLDEN_MATRIX.encode())
        argv = ["--method", "fisher", "--u", "2", "--out"]
        assert run(["combine", str(path), *argv, str(tmp_path / "c.csv")]) == 0
        expected = (tmp_path / "c.csv").read_bytes()
        (tmp_path / "sym.csv").symlink_to(path)
        os.link(path, tmp_path / "hard.csv")
        for out in ("m.csv", "sym.csv"):
            path.write_bytes(GOLDEN_MATRIX.encode())
            assert run(["combine", str(path), *argv, str(tmp_path / out)]) == 0
            assert path.read_bytes() == expected
        path.write_bytes(GOLDEN_MATRIX.encode())
        assert run(["combine", str(path), *argv, str(tmp_path / "hard.csv")]) == 0
        assert (tmp_path / "hard.csv").read_bytes() == expected
        assert path.read_bytes() == GOLDEN_MATRIX.encode()

    def test_input_changed_between_reads_exits_2(self, tmp_path, capsys, monkeypatch):
        # The ids are read in a second pass; a row gone by then is an
        # error, not a shorter report.
        path = write(tmp_path, "m.csv", "a,0.1,0.2\nb,0.3,0.4\nc,0.5,0.6\n")
        row_values = cli._row_values
        def truncating(*args, **kwargs):
            Path(path).write_text("a,0.1,0.2\nb,0.3,0.4\n")
            return row_values(*args, **kwargs)
        monkeypatch.setattr(cli, "_row_values", truncating)
        assert run(["combine", path, "--method", "fisher"]) == 2
        assert capsys.readouterr().err == f"error: {path}: changed while it was read\n"

    def test_matrix_is_released_before_output(self, tmp_path):
        # 50,000 x 5 p-values, Simes at u = 2. The matrix is dropped once
        # the PC p-values exist, and they become Python floats a block at
        # a time, so the traced peak of the run, about 1.4 times the matrix,
        # is set by reading and combining. Holding the matrix and a list of
        # m floats while writing took about 2.2 times it.
        rng = np.random.default_rng(2)
        m, n = 50_000, 5
        path = tmp_path / "m.csv"
        np.savetxt(path, rng.random((m, n)), delimiter=",", fmt="%.17g")
        argv = ["combine", str(path), "--method", "simes", "--u", "2",
                "--out", str(tmp_path / "c.csv")]
        assert run(argv) == 0  # imports and caches are not traced below
        tracemalloc.start()
        try:
            assert run(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * m * n * 8
        assert len((tmp_path / "c.csv").read_text().splitlines()) == m


class TestPcTest:
    def test_report_matches_golden_file(self, tmp_path):
        p = write(tmp_path, "p.csv", PC_TEST_PVALUES)
        g = write(tmp_path, "g.txt", PC_TEST_GROUPS)
        w = write(tmp_path, "w.csv", PC_TEST_WEIGHTS)
        out = tmp_path / "r.json"
        assert run(["pc-test", p, "--alpha", "0.008", "--method", "fisher",
                    "--groups", g, "--weights", w, "--shape", "reciprocal_sum",
                    "--u-proportion", "0.5", "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN_VERIFY.parent / "pc_test.json").read_bytes()

    def test_all_ones_empty_report(self, tmp_path, capsys):
        p = write(tmp_path, "p.csv", "1.0\n1.0\n1.0\n1.0\n")
        g = write(tmp_path, "g.txt", "a\na\nb\nb\n")
        assert run(["pc-test", p, "--alpha", "0.05", "--method", "simes",
                    "--groups", g]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rejected_groups"] == []
        assert report["schema_version"] == 1

    def test_rejects_small_group(self, tmp_path, capsys):
        p = write(tmp_path, "p.csv", "0.001\n0.002\n0.9\n0.8\n")
        g = write(tmp_path, "g.txt", "a\na\nb\nb\n")
        assert run(["pc-test", p, "--alpha", "0.05", "--method", "simes",
                    "--groups", g, "--u", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rejected_groups"] == ["a"]
        assert report["u"] == [2, 2]

    def test_interleaved_labels_report_as_contiguous(self, tmp_path, capsys):
        reports = []
        for p, g in (("0.001\n0.002\n0.9\n0.8\n", "a\na\nb\nb\n"),
                     ("0.001\n0.9\n0.002\n0.8\n", "a\nb\na\nb\n")):
            assert run(["pc-test", write(tmp_path, "p.csv", p), "--alpha", "0.05",
                        "--method", "fisher", "--groups", write(tmp_path, "g.txt", g),
                        "--u", "2"]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        assert reports[0] == reports[1]
        assert reports[0]["groups"] == ["a", "b"]

    def test_byte_order_mark_of_labels_file_is_dropped(self, tmp_path, capsys):
        p = write(tmp_path, "p.csv", "0.001\n0.002\n0.9\n")
        g = tmp_path / "g.txt"
        g.write_bytes(b"\xef\xbb\xbfa\na\nb\n")
        assert run(["pc-test", p, "--alpha", "0.05", "--method", "simes",
                    "--groups", str(g)]) == 0
        assert json.loads(capsys.readouterr().out)["groups"] == ["a", "b"]

    def test_u_larger_than_a_group_exits_2(self, tmp_path, capsys):
        p = write(tmp_path, "p.csv", "0.001\n0.002\n0.003\n0.9\n")
        g = write(tmp_path, "g.txt", "a\na\na\nsolo\n")
        assert run(["pc-test", p, "--alpha", "0.05", "--method", "simes",
                    "--groups", g, "--u", "3"]) == 2
        err = capsys.readouterr().err
        assert "--u 3 exceeds the size 1 of group 'solo'" in err

    @pytest.mark.parametrize("flag, value, u, counts", [("--u", "2", [2, 2], 1),
                                                        ("--u-proportion", "0.5", [1, 1], 2)])
    def test_labels_are_counted_once_per_layout(self, tmp_path, capsys, monkeypatch,
                                                flag, value, u, counts):
        # The layout counts the labels once and compute_pc_pvalues reads
        # its sizes; only the proportion counts before building it.
        calls = []
        bincount = np.bincount
        monkeypatch.setattr(np, "bincount", lambda *a, **kw: calls.append(a) or bincount(*a, **kw))
        p = write(tmp_path, "p.csv", "0.001\n0.9\n0.002\n0.8\n")
        g = write(tmp_path, "g.txt", "a\nb\na\nb\n")
        assert run(["pc-test", p, "--alpha", "0.05", "--method", "simes",
                    "--groups", g, flag, value]) == 0
        assert json.loads(capsys.readouterr().out)["u"] == u
        assert len(calls) == counts

    @pytest.mark.parametrize("u", ["0", "-1"])
    def test_u_below_1_exits_2_naming_the_flag(self, tmp_path, capsys, u):
        p = write(tmp_path, "p.csv", "0.001\n0.002\n")
        g = write(tmp_path, "g.txt", "a\na\n")
        assert run(["pc-test", p, "--alpha", "0.05", "--method", "simes",
                    "--groups", g, "--u", u]) == 2
        assert capsys.readouterr().err == f"error: --u {u} must be at least 1\n"

    def test_u_and_u_proportion_together_exit_2(self, tmp_path, capsys):
        p = write(tmp_path, "p.csv", "0.001\n0.002\n0.9\n0.8\n")
        g = write(tmp_path, "g.txt", "a\na\nb\nb\n")
        with pytest.raises(SystemExit) as exc:
            run(["pc-test", p, "--alpha", "0.05", "--method", "simes",
                 "--groups", g, "--u", "2", "--u-proportion", "0.5"])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_unknown_shape_exits_2(self, tmp_path, capsys):
        p = write(tmp_path, "p.csv", "0.001\n0.002\n")
        g = write(tmp_path, "g.txt", "a\na\n")
        with pytest.raises(SystemExit) as exc:
            run(["pc-test", p, "--alpha", "0.05", "--method", "simes",
                 "--groups", g, "--shape", "x"])
        assert exc.value.code == 2
        assert "argument --shape: invalid choice: 'x'" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["nan,1", "0,inf"])
    def test_nan_weight_exits_2(self, tmp_path, capsys, row):
        p = write(tmp_path, "p.csv", "0.001\n0.002\n0.5\n")
        g = write(tmp_path, "g.txt", "a\nb\nc\n")
        w = write(tmp_path, "w.csv", f"{row}\n1,1\n1,1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # 0 * inf must not warn
            assert run(["pc-test", p, "--alpha", "0.05", "--method", "simes",
                        "--groups", g, "--weights", w]) == 2
        assert capsys.readouterr().err == f"error: {w}: sum(w_g * v_g) = nan, expected G = 3\n"

    def test_label_count_mismatch(self, tmp_path):
        p = write(tmp_path, "p.csv", "0.5\n0.5\n")
        g = write(tmp_path, "g.txt", "a\n")
        assert run(["pc-test", p, "--alpha", "0.05", "--method", "simes",
                    "--groups", g]) == 2

    def test_labels_are_coded_line_by_line(self, tmp_path, monkeypatch):
        # 200,000 labels of 8,000 interleaved groups. The label file is
        # coded from the open file, a line at a time, into a read-only code
        # vector that the layout keeps as it is: from the start of the run
        # to the layout, the traced peak is about 20 bytes a label. Holding
        # the text, one string per line and a list of codes took about 75.
        rng = np.random.default_rng(5)
        m, g = 200_000, 8_000
        codes = rng.integers(0, g, m)
        codes[:g] = np.arange(g)
        labels = write(tmp_path, "g.txt", "".join(f"grp{c:05d}\n" for c in codes))
        held = [rng.random((m, 1))]
        monkeypatch.setattr(cli, "read_matrix", lambda path, pvalues=True: (False, held.pop()))
        from_proportion = cli.GroupLayout.from_proportion
        seen = []
        def recording(labels, proportion):
            layout = from_proportion(labels, proportion)
            seen.append((tracemalloc.get_traced_memory()[1], layout.labels is labels))
            return layout
        monkeypatch.setattr(cli.GroupLayout, "from_proportion", recording)
        tracemalloc.start()
        try:
            assert run(["pc-test", "p.csv", "--alpha", "0.05", "--method", "fisher",
                        "--groups", labels, "--u-proportion", "0.5",
                        "--out", str(tmp_path / "r.json")]) == 0
        finally:
            tracemalloc.stop()
        [(peak, handed_over)] = seen
        assert peak <= 30 * m
        assert handed_over
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["groups"] == [f"grp{c:05d}" for c in range(g)]


class TestReplicate:
    def test_one_by_one_matrix(self, tmp_path, capsys):
        path = write(tmp_path, "m.csv", "0.001\n")
        assert run(["replicate", path, "--q", "0.05", "--method", "simes"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["selected"] == ["0"]
        assert report["khat"] == {"0": 1}

    def test_ids_flow_into_report(self, tmp_path, capsys):
        path = write(tmp_path, "m.csv", "hit,0.0001,0.0002\nmiss,0.8,0.9\n")
        assert run(["replicate", path, "--q", "0.1", "--method", "simes"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["selected"] == ["hit"]
        assert report["khat"]["hit"] >= 1

    def test_selected_rows_sharing_an_id_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "m.csv", "g,0.0001,0.0002\n\ng,0.00001,0.5\nh,0.9,0.9\n")
        assert run(["replicate", path, "--q", "0.1", "--method", "simes"]) == 2
        assert capsys.readouterr().err == f"error: {path}:3: selected id 'g' also names line 1\n"

    def test_input_changed_between_reads_exits_2(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, "m.csv", "a,0.8,0.9\nhit,0.0001,0.0002\n")
        selection = cli._selection
        def truncating(*args):
            Path(path).write_text("a,0.8,0.9\n")
            return selection(*args)
        monkeypatch.setattr(cli, "_selection", truncating)
        assert run(["replicate", path, "--q", "0.1", "--method", "simes"]) == 2
        assert capsys.readouterr().err == f"error: {path}: changed while it was read\n"

    def test_a_bad_weights_file_is_reported_before_a_degenerate_row(self, tmp_path, capsys):
        # Step 1 meets the Stouffer row with both 0 and 1 as the matrix is
        # read; the weights file is still checked first.
        path = write(tmp_path, "m.csv", "a,0,1\nb,0.3,0.4\n")
        short = write(tmp_path, "short.csv", "1,1\n")
        good = write(tmp_path, "good.csv", "1,1\n1,1\n")
        argv = ["replicate", path, "--q", "0.1", "--method", "stouffer", "--weights"]
        assert run([*argv, short]) == 2
        assert capsys.readouterr().err == f"error: {short}: expected 2 weight rows, got 1\n"
        assert run([*argv, good]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}:1: Stouffer combiner with both p=0 and p=1\n")

    @pytest.mark.parametrize("rule, cell", [("step-up", 1), ("column=1", 2)])
    def test_selected_cell_changed_between_reads_exits_2(self, tmp_path, capsys, monkeypatch,
                                                         rule, cell):
        # Step 2 reads the selected rows back from the file. A cell that
        # Step 1 read, changed in place before then, changes the row's
        # Step-1 value: Simes of (0.0001, 0.0002) is 0.0002, of (0.0003,
        # 0.0002) 0.0003, and column 1 reads 0.0002, then 0.0005.
        path = write(tmp_path, "m.csv", "a,0.8,0.9\nhit,0.0001,0.0002\n")
        cells = ["hit", "0.0001", "0.0002"]
        cells[cell] = {1: "0.0003", 2: "0.0005"}[cell]
        selection = cli._selection
        def changing(*args):
            Path(path).write_text("a,0.8,0.9\n" + ",".join(cells) + "\n")
            return selection(*args)
        monkeypatch.setattr(cli, "_selection", changing)
        assert run(["replicate", path, "--q", "0.1", "--method", "simes", "--rule", rule]) == 2
        assert capsys.readouterr().err == f"error: {path}: changed while it was read\n"
        assert Path(path).stat().st_size == len("a,0.8,0.9\nhit,0.0001,0.0002\n")

    @pytest.mark.parametrize("rule", sorted(GOLDEN_REPLICATE))
    def test_report_matches_golden_file(self, tmp_path, rule):
        path = tmp_path / "m.csv"
        path.write_bytes(GOLDEN_MATRIX.encode())
        out = tmp_path / "r.json"
        assert run(["replicate", str(path), "--q", "0.1", "--method", "simes",
                    "--rule", rule, "--out", str(out)]) == 0
        golden = GOLDEN_VERIFY.parent / GOLDEN_REPLICATE[rule]
        assert out.read_bytes() == golden.read_bytes()

    def test_unknown_rule(self, tmp_path):
        path = write(tmp_path, "m.csv", "0.5\n")
        assert run(["replicate", path, "--q", "0.05", "--method", "simes",
                    "--rule", "lasso"]) == 2

    def test_analysis_peak_memory_stays_within_one_matrix(self, tmp_path, monkeypatch):
        # 50,000 x 5 p-values in 17 digits, about 5 % of the rows with a
        # signal in their first 1 to 5 studies, read in one process. The
        # matrix is never held: each ~1 MiB range of the file is reduced to
        # one value per row before the next is parsed, and Step 2 reads the
        # selected rows back. So, from the start of the run to the report
        # it hands to the JSON writer, the traced peak is the step-up's:
        # the Step-1 values, the unit weights and the step-up's sorted keys
        # and levels, four vectors of m floats, about 0.85 times the matrix.
        # Holding the matrix as it was parsed took about 1.85.
        rng = np.random.default_rng(1)
        m, n = 50_000, 5
        mat = rng.random((m, n))
        signal = np.flatnonzero(rng.random(m) < 0.05)
        k = rng.integers(1, n + 1, size=signal.size)
        mat[signal] *= np.where(np.arange(n) < k[:, None], 1e-6, 1.0)
        path = tmp_path / "m.csv"
        np.savetxt(path, mat, delimiter=",", fmt="%.17g")
        del mat
        assert path.stat().st_size >= 4 * cli._MIN_CHUNK
        monkeypatch.setattr(_fork, "_cores", lambda: 1)
        argv = ["replicate", str(path), "--q", "0.1", "--method", "simes"]
        write_json = cli._write_json
        monkeypatch.setattr(cli, "_write_json", lambda path, payload: None)
        assert run(argv) == 0  # imports and caches are not traced below
        seen = []
        monkeypatch.setattr(cli, "_write_json", lambda path, payload: seen.append(
            (tracemalloc.get_traced_memory()[1], payload)))
        tracemalloc.start()
        try:
            assert run(argv) == 0
        finally:
            tracemalloc.stop()
        [(peak, payload)] = seen
        assert 0.04 * m < len(payload["selected"]) < 0.06 * m
        assert peak <= 0.9 * m * n * 8
        # The report is the one a single parse of the whole file gives.
        monkeypatch.setattr(cli, "_MIN_CHUNK", path.stat().st_size + 1)
        monkeypatch.setattr(cli, "_write_json", write_json)
        out = tmp_path / "r.json"
        assert run([*argv, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report == json.loads(json.dumps({"schema_version": 1, **payload}))


class TestSimulateVerify:
    def scenario_file(self, tmp_path, checks):
        return write(tmp_path, "scenario.json", json.dumps({"checks": checks}))

    def test_byte_identical_reports(self, tmp_path):
        path = self.scenario_file(tmp_path, [{
            "check": "fdr_pc",
            "scenario": {"m": 10, "n": 3, "true_k": [0] * 10, "reps": 50, "seed": 7},
            "method": "simes", "u": 1, "alpha": 0.05,
        }])
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert run(["simulate", "--scenario", path, "--out", str(out1)]) == 0
        assert run(["simulate", "--scenario", path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_reference_verify_report_matches_golden_file(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["verify", "--scenario", str(REFERENCE), "--out", str(out)]) == 0
        assert out.read_bytes() == GOLDEN_VERIFY.read_bytes()

    def test_byte_order_mark_of_scenario_file_is_dropped(self, tmp_path):
        path = tmp_path / "ref.json"
        path.write_bytes(b"\xef\xbb\xbf" + REFERENCE.read_bytes())
        out = tmp_path / "r.json"
        assert run(["verify", "--scenario", str(path), "--out", str(out)]) == 0
        assert out.read_bytes() == GOLDEN_VERIFY.read_bytes()

    def test_reps_and_seed_overrides(self, tmp_path):
        path = self.scenario_file(tmp_path, [{
            "check": "fdr_pc",
            "scenario": {"m": 5, "n": 3, "true_k": [0] * 5, "reps": 5, "seed": 1},
            "method": "simes", "u": 1,
        }])
        out = tmp_path / "r.json"
        assert run(["simulate", "--scenario", path, "--reps", "20",
                    "--seed", "99", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["records"][0]["scenario"]["reps"] == 20
        assert report["records"][0]["scenario"]["seed"] == 99

    def test_verify_bound_violation_exits_3(self, tmp_path, capsys):
        # The adaptive step-up targets FDR close to alpha, well above the
        # alpha*|M0|/m bound that verify scores fdr_pc checks against, so
        # this configuration fails the bound by a wide, stable margin.
        path = self.scenario_file(tmp_path, [{
            "check": "fdr_pc",
            "scenario": {"m": 40, "n": 3, "true_k": [3] * 30 + [0] * 10,
                         "mu": 4.0, "reps": 300, "seed": 3},
            "method": "simes", "u": 1, "alpha": 0.05, "adaptive_lambda": 0.5,
        }])
        out = tmp_path / "r.json"
        assert run(["verify", "--scenario", path, "--out", str(out)]) == 3
        report = json.loads(out.read_text())
        assert report["pass"] is False
        # simulate mode reports the same violation without the failing status
        assert run(["simulate", "--scenario", path, "--out", str(out)]) == 0

    def test_malformed_scenario_exits_2(self, tmp_path):
        path = write(tmp_path, "bad.json", "{not json")
        assert run(["verify", "--scenario", path]) == 2
        missing = self.scenario_file(tmp_path, [{"check": "fdr_pc", "scenario": {}}])
        assert run(["verify", "--scenario", missing]) == 2

    @pytest.mark.parametrize("text", ["5", '{"checks": 5}', "[]", '{"checks": [5]}'])
    def test_scenario_not_an_object_with_a_list_of_checks_exits_2(self, tmp_path, capsys, text):
        path = write(tmp_path, "bad.json", text)
        assert run(["verify", "--scenario", path]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: bad check spec: not an object with a list of checks\n")

    @pytest.mark.parametrize("change, message", [
        ({"scenario": {"true_k": [1.7] * 10}}, "true_k must be a 1-d integer array"),
        ({"scenario": {"true_k": [3] + [True] * 9}}, "true_k must be a 1-d integer array"),
        ({"u": 2.9}, "u: must be an integer, not 2.9"),
        ({"u": True}, "u: must be an integer, not True"),
        ({"check": "dcc", "u": 2.9}, "u: must be an integer, not 2.9"),
        ({"check": "dcc", "c_grid": []}, "c grid must be nonempty and positive"),
        ({"shape": "x"}, "unknown shape function 'x'"),
        ({"scenario": {"m": True}}, "m: must be an integer, not True"),
        ({"scenario": {"n": "3"}}, "n: must be an integer, not '3'"),
        ({"scenario": {"reps": True}}, "reps: must be an integer, not True"),
        ({"scenario": {"seed": True}}, "seed: must be an integer, not True"),
        ({"scenario": {"block_size": True}}, "block_size: must be an integer, not True"),
        ({"scenario": {"mu": "1.5"}}, "mu: must be a real number, not '1.5'"),
        ({"scenario": {"rho": True}}, "rho: must be a real number, not True"),
        ({"alpha": True}, "alpha: must be a real number, not True"),
        ({"check": "replicability", "u": None, "q": "0.1"},
         "q: must be a real number, not '0.1'"),
        ({"check": "dcc", "c_grid": [True, "0.1"]}, "c_grid: must be a real number, not True"),
        ({"method": "simes_storey", "lambda": "0.5"}, "lambda: must be a real number, not '0.5'"),
        ({"adaptive_lambda": "0.5"}, "adaptive_lambda: must be a real number, not '0.5'"),
        ({"alhpa": 0.5}, "unknown field 'alhpa'"),
        ({"scenario": {"reps": 1}}, "reps: a check needs at least 2, not 1"),
        ({"check": "fdr_cp"}, "unknown check kind 'fdr_cp'"),
        ({"statistic": "bogus"}, "field 'statistic' does not apply to a fdr_pc check"),
        ({"check": "dcc", "shape": "identity"}, "field 'shape' does not apply to a dcc check"),
        ({"check": "replicability"}, "field 'u' does not apply to a replicability check"),
        ({"check": None}, "missing field 'check'"),
        ({"scenario": None}, "missing field 'scenario'"),
        ({"method": None}, "missing field 'method'"),
        ({"u": None}, "missing field 'u'"),
        ({"check": "dcc", "u": None}, "missing field 'u'"),
        ({"scenario": [1, 2]}, "scenario: must be an object, not [1, 2]"),
        ({"scenario": {"mm": 10}}, "scenario: unknown field 'mm'"),
        ({"scenario": {"true_k": None}}, "scenario: missing field 'true_k'"),
        ({"scenario": {"reps": None}}, "scenario: missing field 'reps'"),
        ({"check": ["x"]}, "check: must be a string, not ['x']"),
        ({"method": [1]}, "method: must be a string, not [1]"),
        ({"shape": 5}, "shape: must be a string, not 5"),
        ({"check": "replicability", "u": None, "rule": 5}, "rule: must be a string, not 5"),
        ({"check": "dcc", "statistic": 5}, "statistic: must be a string, not 5"),
        ({"check": "dcc", "c_grid": 5}, "c_grid: must be a list, not 5"),
        ({"alpha": 10**400}, "alpha: int too large to convert to float"),
        ({"scenario": {"mu": 10**400}}, "mu: int too large to convert to float"),
        ({"scenario": {"rho": 10**400}}, "rho: int too large to convert to float"),
        ({"check": "replicability", "u": None, "q": 10**400},
         "q: int too large to convert to float"),
        ({"check": "dcc", "c_grid": [0.1, 10**400]}, "c_grid: int too large to convert to float"),
        ({"method": "simes_storey", "lambda": 10**400}, "lambda: int too large to convert to float"),
        ({"adaptive_lambda": 10**400}, "adaptive_lambda: int too large to convert to float"),
        ({"scenario": {"seed": 2**64 + 1}}, "seed: 18446744073709551617 outside [0, 2**64)"),
        ({"scenario": {"seed": -1}}, "seed: -1 outside [0, 2**64)"),
        ({"check": "replicability", "u": None, "rule": "threshold=abc"},
         "rule: could not convert string to float: 'abc'"),
        ({"check": "replicability", "u": None, "rule": "column=1.5"},
         "rule: invalid literal for int() with base 10: '1.5'"),
        ({"check": "replicability", "u": None, "rule": "threshold=2"},
         "rule: fixed threshold rule needs threshold in [0, 1]"),
        ({"check": "replicability", "u": None, "rule": "lasso"},
         "rule: unknown rule; use step-up, threshold=T, or column=J"),
        ({"check": "replicability", "u": None, "q": 2, "rule": "threshold=0.1"},
         "q: 2.0 outside (0, 1]"),
        ({"u": 0}, "u=0 outside [1, 3]"),
        ({"u": 4}, "u=4 outside [1, 3]"),
        ({"check": "dcc", "u": 0}, "u=0 outside [1, 3]"),
        ({"scenario": {"dependence": 5}}, "dependence: must be a string, not 5"),
        ({"check": "replicability", "u": None, "rule": "column=7"},
         "column 7 outside [0, 3)"),
    ], ids=["true_k-float", "true_k-bool", "u-float", "u-bool", "dcc-u-float",
            "dcc-empty-grid", "shape", "m-bool", "n-string", "reps-bool", "seed-bool",
            "block_size-bool", "mu-string", "rho-bool", "alpha-bool", "q-string",
            "c_grid-bool", "lambda-string", "adaptive_lambda-string", "unknown-field",
            "one-rep", "unknown-kind", "fdr_pc-statistic", "dcc-shape",
            "replicability-u", "no-check", "no-scenario", "no-method", "no-u", "dcc-no-u",
            "scenario-list", "scenario-unknown-field", "scenario-no-true_k", "scenario-no-reps",
            "check-list", "method-list", "shape-int", "rule-int", "statistic-int", "c_grid-int",
            "alpha-overflow", "mu-overflow", "rho-overflow", "q-overflow", "c_grid-overflow",
            "lambda-overflow", "adaptive_lambda-overflow", "seed-above", "seed-negative",
            "rule-threshold", "rule-column", "rule-threshold-range", "rule-unknown",
            "q-range", "u-zero", "u-above-n", "dcc-u-zero", "dependence-int",
            "rule-column-above-n"])
    def test_bad_scenario_value_exits_2(self, tmp_path, capsys, monkeypatch, change, message):
        # Nothing is truncated, read as 0 and 1 or ignored, no check
        # passes on an empty grid or without a standard error, a field of
        # another kind of check is not taken as this kind's, and every
        # message names the field or its value, before any replicate is
        # drawn. A change to None drops the field; a scenario change that
        # is an object changes the scenario's fields.
        drawn, draw = [], simulation._draw
        monkeypatch.setattr(simulation, "_draw", lambda *a: drawn.append(a[1:]) or draw(*a))
        chk = {"check": "fdr_pc", "method": "simes", "u": 1,
               "scenario": {"m": 10, "n": 3, "true_k": [0] * 10, "reps": 5, "seed": 1}}
        if isinstance(sc := change.pop("scenario", {}), dict):
            sc = {k: v for k, v in {**chk["scenario"], **sc}.items() if v is not None}
        chk = {k: v for k, v in {**chk, **change, "scenario": sc}.items() if v is not None}
        path = self.scenario_file(tmp_path, [chk])
        assert run(["verify", "--scenario", path]) == 2
        assert capsys.readouterr().err == f"error: {path}: bad check spec: {message}\n"
        assert drawn == []

    @pytest.mark.parametrize("change, message", [
        ({"alpah": 0.1}, "unknown field 'alpah'"),
        ({"u": None}, "missing field 'u'"),
        ({"alpha": "0.1"}, "alpha: must be a real number, not '0.1'"),
        ({"u": 6}, "u=6 outside [1, 5]"),
        ({"check": "dcc", "u": 6}, "u=6 outside [1, 5]"),
        ({"check": "dcc", "c_grid": []}, "c grid must be nonempty and positive"),
        ({"check": "dcc", "statistic": "bogus"}, "unknown statistic 'bogus'"),
        ({"check": "replicability", "u": None, "rule": "column=7"}, "column 7 outside [0, 5)"),
        ({"check": "replicability", "u": None, "rule": "column=-1"}, "column -1 outside [0, 5)"),
    ], ids=["unknown", "missing", "mistyped", "u-above-n", "dcc-u-above-n", "dcc-empty-grid",
            "dcc-statistic", "rule-column-above-n", "rule-column-negative"])
    def test_last_check_is_read_before_the_first_runs(self, tmp_path, capsys, monkeypatch,
                                                      change, message):
        # Every check of a file is read, and run with no replicate, which
        # applies each of its arguments, before the first draws: a bad last
        # check exits 2 with the library's message and no replicate drawn,
        # however many the checks before it hold.
        drawn, draw = [], simulation._draw
        monkeypatch.setattr(simulation, "_draw", lambda *a: drawn.append(a[1:]) or draw(*a))
        good = {"check": "fdr_pc", "method": "simes", "u": 2,
                "scenario": {"m": 200, "n": 5, "true_k": [0] * 200, "reps": 40_000, "seed": 1}}
        bad = {k: v for k, v in {**good, **change}.items() if v is not None}
        path = self.scenario_file(tmp_path, [good, bad])
        assert run(["verify", "--scenario", path]) == 2
        assert capsys.readouterr().err == f"error: {path}: bad check spec: {message}\n"
        assert drawn == []

    @pytest.mark.parametrize("extra, message", [
        ({"chekcs": 1}, "unknown field 'chekcs'"),
        ({"schema_version": 7}, "schema_version: must be 1, not 7"),
        ({"schema_version": True}, "schema_version: must be an integer, not True"),
    ], ids=["misspelt", "schema-7", "schema-bool"])
    def test_unknown_top_level_field_exits_2(self, tmp_path, capsys, extra, message):
        chk = {"check": "fdr_pc", "method": "simes", "u": 1,
               "scenario": {"m": 10, "n": 3, "true_k": [0] * 10, "reps": 5, "seed": 1}}
        path = write(tmp_path, "scenario.json", json.dumps({"checks": [chk], **extra}))
        assert run(["verify", "--scenario", path]) == 2
        assert capsys.readouterr().err == f"error: {path}: bad check spec: {message}\n"

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
    @pytest.mark.parametrize("field", ["mu", "rho", "alpha", "q", "c_grid"])
    def test_non_finite_scenario_float_exits_2(self, tmp_path, capsys, field, token):
        # json reads each token as a float that is not finite; the field is
        # named before any replicate runs, and no report is written.
        sc = {"m": 10, "n": 3, "true_k": [0] * 10, "reps": 5, "seed": 1}
        chk = {"q": {"check": "replicability"}, "c_grid": {"check": "dcc", "u": 1}}.get(
            field, {"check": "fdr_pc", "u": 1})
        chk = {**chk, "method": "simes", "scenario": sc}
        if field in ("mu", "rho"):
            sc[field] = "@"
        else:
            chk[field] = [0.1, "@"] if field == "c_grid" else "@"
        path = write(tmp_path, "scenario.json",
                     json.dumps({"checks": [chk]}).replace('"@"', token))
        out = tmp_path / "r.json"
        assert run(["verify", "--scenario", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: bad check spec: {field}: must be finite, not {float(token)!r}\n")
        assert not out.exists()

    def test_readme_table_holds_every_field_and_default(self):
        # The README's scenario-file table and the tables that cli reads a
        # file by name the same fields, with the same kinds, JSON types
        # (of check fields; SimulationScenario checks a scenario's) and
        # defaults.
        text = README.read_text()
        rows = {}
        for line in text[text.index("| field | kinds |"):].splitlines()[2:]:
            if not line.startswith("|"):
                break
            field, kinds, json_type, default, _ = (c.strip() for c in line.strip("|").split("|"))
            rows[field.strip("`")] = kinds, json_type, default

        def shown(default):
            if default is cli._REQUIRED:
                return "required"
            if default is None:
                return "none"
            return f"`{default if isinstance(default, str) else json.dumps(default)}`"

        types = {str: "string", int: "integer", float: "number", dict: "object",
                 list: "list of numbers"}
        want = {name: ("`scenario`", rows.get(name, (None, None))[1], shown(default))
                for name, (_, default) in cli._SCENARIO_FIELDS.items()}
        for _, table in cli._CHECKS.values():
            for name, (json_type, default) in table.items():
                kinds = [k for k, (_, t) in cli._CHECKS.items() if name in t]
                want[name] = ("all" if len(kinds) == len(cli._CHECKS)
                              else ", ".join(f"`{k}`" for k in kinds),
                              types[json_type], shown(default))
        assert rows == want

    def test_report_with_a_non_finite_float_is_refused(self, tmp_path):
        out = tmp_path / "r.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._write_json(str(out), {"estimate": float("nan")})
        assert not out.exists()

    def test_adaptive_with_non_identity_shape_exits_2(self, tmp_path, capsys):
        path = self.scenario_file(tmp_path, [{
            "check": "fdr_pc",
            "scenario": {"m": 10, "n": 3, "true_k": [0] * 10, "reps": 5, "seed": 1},
            "method": "simes", "u": 1, "shape": "reciprocal_sum",
            "adaptive_lambda": 0.5,
        }])
        assert run(["verify", "--scenario", path]) == 2
        err = capsys.readouterr().err
        assert "bad check spec: adaptive thresholds require the identity shape" in err

    def test_shipped_reference_scenario_passes(self, tmp_path):
        out = tmp_path / "ref.json"
        assert run(["verify", "--scenario", str(REFERENCE),
                    "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["pass"] is True
        assert {r["check"] for r in report["records"]} == {
            "fdr_pc", "replicability", "dcc"}


class TestExitCodes:
    def test_stouffer_degenerate_row_names_its_line(self, tmp_path, capsys):
        path = write(tmp_path, "m.csv", "0.2,0.3\n\n0.0,1.0\n")
        for cmd in (["combine", path], ["replicate", path, "--q", "0.1"]):
            assert run([*cmd, "--method", "stouffer"]) == 2
            err = capsys.readouterr().err
            assert f"{path}:3: Stouffer combiner with both p=0 and p=1" in err

    @pytest.mark.parametrize("argv, err", [
        (["verify", "--scenario", "D"], "cannot read {D}: {isdir}"),
        (["pc-test", "P", "--alpha", "0.05", "--method", "simes", "--groups", "D"],
         "cannot read {D}: {isdir}"),
        (["replicate", "M", "--q", "0.1", "--method", "simes", "--weights", "W3"],
         "{W3}: weights file must have exactly two columns"),
        (["replicate", "M", "--q", "0.1", "--method", "simes", "--weights", "W"],
         "{W}: expected 2 weight rows, got 3"),
        (["combine", "M5", "--method", "simes", "--u", "6"], "--u 6 outside [1, 5]"),
        (["pc-test", "M", "--alpha", "0.05", "--method", "simes", "--groups", "G"],
         "{M}: pc-test expects a single column of p-values"),
        (["pc-test", "P", "--alpha", "0.05", "--method", "stouffer", "--groups", "G"],
         "{G}: group 'b': Stouffer combiner with both p=0 and p=1"),
    ], ids=["scenario-directory", "groups-directory", "weights-three-columns",
          "weights-rows", "combine-u-above-n", "pc-test-two-columns", "pc-test-stouffer"])
    def test_bad_input_exits_2_with_its_message(self, tmp_path, capsys, argv, err):
        (tmp_path / "d").mkdir()
        files = {"D": str(tmp_path / "d"),
                 "M": write(tmp_path, "m.csv", "0.01,0.2\n0.03,0.5\n"),
                 "M5": write(tmp_path, "m5.csv", "0.1,0.2,0.3,0.4,0.5\n"),
                 "P": write(tmp_path, "p.csv", "0.2\n0.0\n1.0\n"),
                 "G": write(tmp_path, "g.txt", "a\nb\nb\n"),
                 "W": write(tmp_path, "w.csv", "1,1\n1,1\n1,1\n"),
                 "W3": write(tmp_path, "w3.csv", "1,1,1\n1,1,1\n")}
        isdir = IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), files["D"])
        assert run([files.get(a, a) for a in argv]) == 2
        assert capsys.readouterr().err == f"error: {err.format(isdir=isdir, **files)}\n"

    def test_out_of_range_pvalue(self, tmp_path):
        path = write(tmp_path, "m.csv", "0.5,1.5\n")
        assert run(["combine", path, "--method", "fisher"]) == 2

    @pytest.mark.parametrize("cmd", ["combine", "pc-test", "replicate", "verify"])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, cmd):
        m = write(tmp_path, "m.csv", "0.01\n0.02\n")
        g = write(tmp_path, "g.txt", "a\na\n")
        argv = {"combine": ["combine", m, "--method", "simes"],
                "pc-test": ["pc-test", m, "--alpha", "0.05", "--method", "simes",
                            "--groups", g],
                "replicate": ["replicate", m, "--q", "0.1", "--method", "simes"],
                "verify": ["verify", "--scenario", str(REFERENCE), "--reps", "5"]}[cmd]
        out = tmp_path / "missing" / "r.out"
        assert run([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")

    @pytest.mark.parametrize("out", ["missing/r.json", "."])
    def test_unwritable_out_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch, out):
        def never(*args):
            raise AssertionError("Monte Carlo run started")
        monkeypatch.setattr(cli, "mc_fdr_pc", never)
        out = tmp_path / out
        assert run(["verify", "--scenario", str(REFERENCE), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")

    def test_failed_run_leaves_no_new_out_file(self, tmp_path):
        bad = write(tmp_path, "m.csv", "0.5,1.5\n")
        out = tmp_path / "c.csv"
        assert run(["combine", bad, "--method", "fisher", "--out", str(out)]) == 2
        assert not out.exists()
        out.write_text("kept\n")
        assert run(["combine", bad, "--method", "fisher", "--out", str(out)]) == 2
        assert out.read_text() == "kept\n"

    @pytest.mark.skipif(os.geteuid() == 0, reason="root may write a read-only file")
    def test_read_only_out_exits_2_and_is_kept(self, tmp_path, capsys):
        m = write(tmp_path, "m.csv", "0.01\n0.02\n")
        out = tmp_path / "c.csv"
        out.write_text("kept\n")
        out.chmod(0o444)
        assert run(["combine", m, "--method", "simes", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")
        assert out.read_text() == "kept\n"

    def test_missing_file(self):
        assert run(["combine", "/nonexistent.csv", "--method", "fisher"]) == 2

    @pytest.mark.parametrize("argv, err", [
        (["replicate", "M", "--q", "2", "--method", "simes"], "--q 2.0 outside (0, 1]"),
        (["pc-test", "P", "--alpha", "0", "--method", "simes", "--groups", "G"],
         "--alpha 0.0 outside (0, 1]"),
        (["pc-test", "P", "--alpha", "0.05", "--method", "simes", "--groups", "G",
          "--u-proportion", "0"], "--u-proportion 0.0 outside (0, 1]"),
        (["combine", "M", "--method", "simes_storey", "--lambda", "1.5"],
         "--lambda 1.5 outside (0, 1)"),
        (["replicate", "M", "--q", "0.1", "--method", "simes", "--rule", "threshold=abc"],
         "--rule threshold=abc: could not convert string to float: 'abc'"),
        (["replicate", "M", "--q", "0.1", "--method", "simes", "--rule", "column=x"],
         "--rule column=x: invalid literal for int() with base 10: 'x'"),
        (["replicate", "M", "--q", "0.1", "--method", "simes", "--rule", "column=5"],
         "--rule column=5: column 5 outside [0, 2)"),
        (["replicate", "M", "--q", "0.1", "--method", "simes", "--rule", "lasso"],
         "--rule lasso: unknown rule; use step-up, threshold=T, or column=J"),
        (["simulate", "--scenario", str(REFERENCE), "--reps", "0"],
         "--reps 0 must be at least 2"),
        # One replicate has no standard error, so its bound would be the base.
        (["verify", "--scenario", str(REFERENCE), "--reps", "1"],
         "--reps 1 must be at least 2"),
        (["verify", "--scenario", str(REFERENCE), "--seed", "-1"],
         "--seed -1 outside [0, 2**64)"),
        (["simulate", "--scenario", str(REFERENCE), "--seed", str(2**64)],
         "--seed 18446744073709551616 outside [0, 2**64)"),
    ], ids=["q", "alpha", "u-proportion", "lambda", "rule-threshold", "rule-column",
          "rule-column-range", "rule-unknown", "reps", "reps-one", "seed-negative",
          "seed-above"])
    def test_flag_out_of_range_exits_2_naming_the_flag(self, tmp_path, capsys, argv, err):
        files = {"M": write(tmp_path, "m.csv", "0.01,0.2\n0.03,0.5\n"),
                 "P": write(tmp_path, "p.csv", "0.01\n0.2\n"),
                 "G": write(tmp_path, "g.txt", "a\nb\n")}
        assert run([files.get(a, a) for a in argv]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"


class TestOut:
    """--out is written as a temporary file beside it and renamed over it;
    every path a test writes lies under tmp_path."""

    def test_failed_write_keeps_existing_out_and_leaves_no_file(self, tmp_path, capsys,
                                                                 monkeypatch):
        # The input loses a row between the values pass and the ids pass,
        # so the run fails while the report is being written.
        path = write(tmp_path, "m.csv", "a,0.1,0.2\nb,0.3,0.4\nc,0.5,0.6\n")
        outdir = tmp_path / "out"
        outdir.mkdir()
        out = outdir / "out.csv"
        out.write_text("precious\n")
        row_values = cli._row_values
        def truncating(*args, **kwargs):
            Path(path).write_text("a,0.1,0.2\n")
            return row_values(*args, **kwargs)
        monkeypatch.setattr(cli, "_row_values", truncating)
        assert run(["combine", path, "--method", "fisher", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {path}: changed while it was read\n"
        assert out.read_text() == "precious\n"
        assert os.listdir(outdir) == ["out.csv"]

    def test_directory_holds_only_the_report(self, tmp_path):
        m = write(tmp_path, "m.csv", "0.01,0.2\n0.3,0.4\n")
        outdir = tmp_path / "out"
        outdir.mkdir()
        out = outdir / "c.csv"
        assert run(["combine", str(tmp_path / "bad.csv"), "--method", "simes",
                    "--out", str(out)]) == 2
        assert os.listdir(outdir) == []
        for _ in range(2):  # new, then replaced
            assert run(["combine", m, "--method", "simes", "--out", str(out)]) == 0
            assert os.listdir(outdir) == ["c.csv"]
            assert out.read_text() == "0.02\n0.40000000000000002\n"

    def test_permission_bits(self, tmp_path):
        # A new file gets 0o666 less the umask, as open(path, "w") gives
        # it; an existing file keeps its own bits whatever the umask.
        m = write(tmp_path, "m.csv", "0.01\n0.02\n")
        new, kept = tmp_path / "new.csv", tmp_path / "kept.csv"
        kept.write_text("old\n")
        old_umask = os.umask(0o077)
        try:
            assert run(["combine", m, "--method", "simes", "--out", str(new)]) == 0
            for mode in (0o600, 0o754):
                kept.chmod(mode)
                os.umask(0o022 if mode == 0o600 else 0o077)
                assert run(["combine", m, "--method", "simes", "--out", str(kept)]) == 0
                assert kept.stat().st_mode & 0o7777 == mode
        finally:
            os.umask(old_umask)
        assert new.stat().st_mode & 0o7777 == 0o666 & ~0o077
        assert kept.read_text() == new.read_text() == "0.01\n0.02\n"

    def test_symlinked_out_stays_a_link(self, tmp_path):
        m = write(tmp_path, "m.csv", "0.01\n0.02\n")
        (tmp_path / "real").mkdir()
        target = tmp_path / "real" / "c.csv"
        target.write_text("old\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        assert run(["combine", m, "--method", "simes", "--out", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text() == "0.01\n0.02\n"
        assert sorted(os.listdir(tmp_path / "real")) == ["c.csv"]

    def test_out_path_is_taken_as_open_takes_it(self, tmp_path, capsys):
        # The temporary file's name does not grow with the target's, so a
        # name of 254 bytes is written; a trailing slash names a directory.
        m = write(tmp_path, "m.csv", "0.01\n0.02\n")
        long = tmp_path / ("L" * 250 + ".csv")
        assert run(["combine", m, "--method", "simes", "--out", str(long)]) == 0
        assert long.read_text() == "0.01\n0.02\n"
        out = f"{tmp_path / 'new.csv'}/"
        assert run(["combine", m, "--method", "simes", "--out", out]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")
        assert sorted(os.listdir(tmp_path)) == sorted([long.name, "m.csv"])

    def test_fifo_out_is_written_in_place(self, tmp_path):
        m = write(tmp_path, "m.csv", "0.01\n0.02\n")
        fifo = tmp_path / "c.fifo"
        os.mkfifo(fifo)
        got = []
        def read():
            # Each open waits for a writer. Reading until data comes means a
            # run that opens the FIFO more than once fails instead of hanging.
            while not any(got):
                got.append(fifo.read_bytes())
        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        try:
            assert run(["combine", m, "--method", "simes", "--out", str(fifo)]) == 0
        finally:
            reader.join(10)
            if reader.is_alive():  # the run never wrote it: let the reader go
                fifo.write_bytes(b"x")
        assert got == [b"0.01\n0.02\n"]
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert sorted(os.listdir(tmp_path)) == ["c.fifo", "m.csv"]

