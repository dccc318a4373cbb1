"""Command-line front end.

Subcommands:
  combine    per-row combined (or partial conjunction) p-values, CSV out
  pc-test    step-up testing of a family of partial conjunction hypotheses
  replicate  two-step replicability analysis of a p-value matrix
  simulate   Monte Carlo estimation for a scenario file, report only
  verify     like simulate, but exits 3 if any estimate violates its bound

Matrices are headerless CSV, rows = features, columns = studies; a leading
non-numeric column is treated as feature identifiers. Reports are JSON with
a schema_version field. Exit status: 0 success, 2 validation failure,
3 bound violation in verify mode.
"""

from __future__ import annotations

import argparse
import codecs
import collections
import contextlib
import dataclasses
import gc
import io
import itertools
import json
import os
import shutil
import stat
import sys
import warnings
from collections.abc import Iterable, Iterator

import numpy as np

from . import _fork
from .combine import _ROW_COMBINERS, CombiningMethod, DegenerateInputError
from .pc_testing import GroupLayout, compute_pc_pvalues
from .procedures import ShapeFunction, ThresholdCollection, WeightScheme, step_up
from .replicability import SelectionRule, _khat_rows, _row_values, _selection
from .simulation import (
    SimulationScenario,
    _typed,
    dcc_probe,
    mc_fdr_pc,
    mc_replicability_error,
)

SCHEMA_VERSION = 1
# write_matrix formats this many values per block.
_WRITE_BLOCK = 8192
# read_matrix parses a file of two or more of these in byte ranges: one per
# usable core, or with a reduction, ranges of about this size, reduced one at
# a time in each process, so that a process holds one range's rows at once.
# A range parses at about 11 ms a MB, and a fork, its pipe and its reap take
# about 2 ms.
_MIN_CHUNK = 1 << 20
# _bounds reads this many bytes at a time.
_SCAN_BLOCK = 1 << 16
# The types the JSON encoder writes as objects and arrays.
_CONTAINERS = (dict, list, tuple)

__all__ = ["main", "run"]


class CliError(Exception):
    """Validation failure with a user-facing diagnostic."""


def _is_number(token: str) -> bool:
    """Whether ``np.loadtxt`` reads ``token`` as a float: ``float()`` syntax
    once surrounding whitespace is stripped, without the underscores and
    non-ASCII digits that only ``float()`` accepts."""
    token = token.strip()
    if not token.isascii() or "_" in token:
        return False
    try:
        float(token)
    except ValueError:
        return False
    return True


def _rows(path: str, errors: str = "strict") -> Iterator[tuple[int, str]]:
    """(physical line number, line) for each row of the matrix file
    ``path``: its nonblank lines, a leading byte-order mark dropped."""
    with open(path, encoding="utf-8-sig", errors=errors) as fh:
        for row in enumerate(fh, start=1):
            if not row[1].isspace():  # a line read from a file is never ""
                yield row


def read_matrix(path: str, pvalues: bool = True, reduce=None) -> tuple[bool, np.ndarray]:
    """Read a headerless CSV matrix; returns (whether it has ids, 2-d float
    array), or with ``reduce`` (whether it has ids, the 1-d array of one
    value per row): ``reduce`` of the rows, a function of an (r, n) float
    array, which it may change, that returns a new array of r values, each
    from its own row. :func:`read_ids` reads the ids back from the file.

    The text is UTF-8; a leading byte-order mark is dropped. Blank and
    whitespace-only lines are skipped. For a p-value matrix (``pvalues``) a
    leading non-numeric column holds feature ids and every value must lie
    in [0, 1]; otherwise every cell is a number. The path must name a
    regular file, which is read more than once.

    The first nonblank line fixes the width and whether there are ids
    (:func:`_layout`). ``np.loadtxt`` parses each row into a zero-width id
    field, which keeps no bytes, and the values, so it rejects a row of
    another width itself. A file of two or more ``_MIN_CHUNK`` bytes is
    parsed a range of lines at a time, on up to as many cores at once
    (:func:`_loadtxt`); with ``reduce``, each range is checked and reduced
    before the next is parsed. ``np.loadtxt`` cannot skip a whitespace-only
    line, and a range cannot say which line failed, so on any failure of
    that pass, ``reduce``'s included, the nonblank lines are parsed again
    in this process alone; only if that fails too is the file read once
    more to locate the bad cell; if it has none, the file changed in
    between. Then ``reduce`` of the whole matrix raises what it raises. Any
    read's OSError is a CliError.
    """
    try:
        if not stat.S_ISREG((st := os.stat(path)).st_mode):
            raise CliError(f"{path}: not a regular file")
        _, head = next(_rows(path, "surrogateescape"), (None, None))
        if head is None:
            raise CliError(f"{path}:1:1: empty input")
        has_ids, width, kw = _layout(head, pvalues)
        with contextlib.suppress(OSError, ValueError, CliError):  # parsed again below
            if reduce is None:
                return has_ids, _checked(_loadtxt(path, st.st_size, kw)["p"], pvalues)
            return has_ids, _loadtxt(path, st.st_size, kw,
                                     lambda rows: reduce(_checked(rows["p"], pvalues)))
        try:
            mat = _checked(np.loadtxt((line for _, line in _rows(path)), **kw)["p"], pvalues)
        except ValueError:
            raise (_bad_cell(path, has_ids, width, pvalues)
                   or CliError(f"{path}: changed while it was read")) from None
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None
    return has_ids, mat if reduce is None else reduce(mat)


def _layout(head: str, pvalues: bool) -> tuple[bool, int, dict]:
    """For a matrix whose first nonblank line is ``head``: whether it has
    ids (a p-value matrix whose first cell is not a number), its width and
    the ``np.loadtxt`` keywords that parse its rows."""
    cells = head.split(",")
    has_ids = pvalues and not _is_number(cells[0])
    width = len(cells) - has_ids
    return has_ids, width, dict(dtype=[("id", "S")] * has_ids + [("p", float, (width,))],
                                delimiter=",", comments=None, ndmin=1, encoding="utf-8-sig")


def _checked(rows: np.ndarray, pvalues: bool) -> np.ndarray:
    """``rows``, or a ValueError if they are p-values (``pvalues``) and one
    lies outside [0, 1] or is NaN."""
    if pvalues and not ((rows >= 0.0) & (rows <= 1.0)).all():
        raise ValueError("p-value outside [0, 1]")
    return rows


def _loadtxt(path: str, size: int, kw: dict, reduce=None) -> np.ndarray:
    """``np.loadtxt(path, **kw)`` for the ``size``-byte file ``path``, or
    ``reduce`` of it, the same array bit for bit, as ``reduce`` maps each
    row alone. The file is cut into k byte ranges that each end a line
    (:func:`_bounds`), each parsed from its own bytes (:func:`_load_range`).
    Without ``reduce`` there is one range per process, k = min(usable
    cores, size // _MIN_CHUNK) (:func:`_fork.processes`). With it, the k =
    size // _MIN_CHUNK ranges are dealt out in runs of consecutive ranges,
    one run per process (:func:`_fork.map_rows`), and each range is reduced
    before the next is parsed. A k below 2 is one path-fed ``np.loadtxt``.
    Raises what a parse or ``reduce`` in this process raises, and OSError
    if a child, a pipe or a fork fails.
    """
    k = size // _MIN_CHUNK if reduce else _fork.processes(size // _MIN_CHUNK)
    if k < 2:
        rows = np.loadtxt(path, **kw)
        return rows if reduce is None else reduce(rows)
    fd = os.open(path, os.O_RDONLY)
    try:
        bounds = _bounds(fd, size, k)
        ranges = [*zip(bounds, bounds[1:])]
        if reduce is None:
            return _fork.map_rows(lambda span: _load_range(kw, fd, *span), ranges)
        p = _fork.processes(len(ranges))
        runs = [ranges[i * len(ranges) // p:(i + 1) * len(ranges) // p] for i in range(p)]
        return _fork.map_rows(lambda run: np.concatenate(
            [reduce(_load_range(kw, fd, *span)) for span in run]), runs)
    finally:
        os.close(fd)


def _bounds(fd: int, size: int, k: int) -> list[int]:
    """The byte offsets that cut the open file ``fd`` of ``size`` bytes
    into at most k ranges of whole lines: the start of its text (past a
    byte-order mark), for each 0 < i < k that has one the offset past the
    first line end ("\\n", "\\r\\n" or "\\r", as ``open`` reads them)
    that starts at or after i * size / k, and ``size``."""
    cuts = {size}
    for i in range(1, k):
        pos = i * size // k
        while block := os.pread(fd, _SCAN_BLOCK, pos):
            if ends := [j for j in (block.find(b"\n"), block.find(b"\r")) if j >= 0]:
                cut = pos + min(ends) + 1
                if os.pread(fd, 2, cut - 1) == b"\r\n":
                    cut += 1  # its "\n" may lie past the block
                cuts.add(cut)
                break
            pos += len(block)
    bom = os.pread(fd, len(codecs.BOM_UTF8), 0) == codecs.BOM_UTF8
    return [len(codecs.BOM_UTF8) if bom else 0, *sorted(cuts)]


class _Range(io.RawIOBase):
    """Bytes [start, end) of the open file ``fd``, read with ``os.pread``,
    which neither reads nor moves the file offset that a fork shares."""

    def __init__(self, fd: int, start: int, end: int):
        self.fd, self.pos, self.end = fd, start, end

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        data = os.pread(self.fd, min(len(buf), self.end - self.pos), self.pos)
        buf[:len(data)] = data
        self.pos += len(data)
        return len(data)


def _load_range(kw: dict, fd: int, start: int, end: int) -> np.ndarray:
    """``np.loadtxt`` of bytes [start, end) of the open file ``fd``, read as
    UTF-8 text whose "\\n", "\\r\\n" and "\\r" end a line, as ``open`` reads
    it. Range 0 starts past a byte-order mark, so any other U+FEFF is text."""
    text = io.TextIOWrapper(io.BufferedReader(_Range(fd, start, end)), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a range of blank lines warns
        return np.loadtxt(text, **kw)


def _lines(path: str, mask: Iterable[bool] | None = None) -> Iterator[str]:
    """The rows of the matrix ``path`` where ``mask`` is true (every row if
    None), read back from the file one at a time: its nonblank lines, as
    :func:`_rows` reads them. A list mask is walked fastest, as it holds
    Python bools. An OSError is a CliError."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            rows = itertools.filterfalse(str.isspace, fh)
            yield from rows if mask is None else itertools.compress(rows, mask)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None


def _id(line: str) -> str:
    """The id of a matrix row: its first cell, stripped."""
    return line.split(",", 1)[0].strip()


def read_ids(path: str, mask: Iterable[bool] | None = None) -> Iterator[str]:
    """The ids of the matrix ``path`` (one that :func:`read_matrix` found
    ids in), read back from the file, for the rows where ``mask`` is true
    (:func:`_lines`). They come one at a time, so that they never all exist
    as strings at once."""
    return map(_id, _lines(path, mask))


def _read_rows(path: str, mask: Iterable[bool]) -> tuple[list[str] | None, np.ndarray]:
    """The rows of the p-value matrix ``path`` where ``mask`` is true, read
    back: their ids (None if the file has none), and their (k, n) p-values,
    which ``np.loadtxt`` parses with the keywords that the file's first
    nonblank line gives (:func:`_layout`), as :func:`read_matrix` parses
    them. The lines are parsed as they are read, and only their ids are
    kept. Raises ValueError if a line is not UTF-8 or does not parse."""
    rows = _lines(path)
    head = next(rows, "")
    has_ids, _, kw = _layout(head, True)
    ids: list[str] = []
    lines = itertools.compress(itertools.chain([head], rows), mask)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # no line selected warns
        p = np.loadtxt((ids.append(_id(line)) or line for line in lines) if has_ids else lines,
                       **kw)["p"]
    return ids if has_ids else None, p


def _bad_cell(path: str, has_ids: bool, width: int, pvalues: bool) -> CliError | None:
    """The diagnostic for the first bad cell of a matrix whose rows hold
    ``width`` values, after an id if ``has_ids``, numbered by physical line
    and column: bytes that are not UTF-8 (read as lone surrogates, which
    ``str.encode`` rejects), a row of another width, a token that is not a
    number, or (for p-values) a value outside [0, 1]."""
    for ln_no, line in _rows(path, "surrogateescape"):
        try:
            line.encode()
        except UnicodeEncodeError as exc:
            col = line.count(",", 0, exc.start) + 1
            return CliError(f"{path}:{ln_no}:{col}: not valid UTF-8")
        cells = [c.strip() for c in line.split(",")][has_ids:]
        if len(cells) != width:
            return CliError(f"{path}:{ln_no}:1: expected {width} values, got {len(cells)}")
        for col, cell in enumerate(cells, start=1 + has_ids):
            if not _is_number(cell):
                return CliError(f"{path}:{ln_no}:{col}: not a number: {cell!r}")
        for col, cell in enumerate(cells, start=1 + has_ids):
            if pvalues and not 0.0 <= float(cell) <= 1.0:
                return CliError(f"{path}:{ln_no}:{col}: p-value {float(cell)} outside [0, 1]")
    return None


def _read_text(path: str) -> str:
    """The text of ``path`` as UTF-8 text mode reads it, a leading
    byte-order mark dropped. Bytes that are not UTF-8 (read as lone
    surrogates, which ``str.encode`` rejects) give ``path:line:col``."""
    try:
        with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
            text = fh.read()
        text.encode()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None
    except UnicodeEncodeError as exc:
        head = text[:exc.start]
        line, col = head.count("\n") + 1, exc.start - head.rfind("\n")
        raise CliError(f"{path}:{line}:{col}: not valid UTF-8") from None
    return text


def _group_labels(path: str) -> tuple[np.ndarray, list[str]]:
    """The group label file ``path``, one name per nonblank line, stripped:
    a read-only intp array of 0-based codes, in order of first appearance,
    and the names in that order. The file is coded line by line, so its
    text is never held whole; if it cannot be read or is not UTF-8,
    :func:`_read_text` gives the diagnostic."""
    codes: dict[str, int] = collections.defaultdict()
    codes.default_factory = codes.__len__  # a new name is coded len(codes)
    try:
        with open(path, encoding="utf-8-sig") as fh:
            labels = np.fromiter(map(codes.__getitem__, filter(None, map(str.strip, fh))),
                                 dtype=np.intp)
    except (OSError, UnicodeDecodeError) as exc:
        _read_text(path)  # raises, unless the file changed between the reads
        raise CliError(f"cannot read {path}: {exc}") from None
    labels.setflags(write=False)  # so that GroupLayout keeps it as it is
    return labels, list(codes)


def _out_target(path: str) -> str | None:
    """Where :func:`_write` renames the report for ``--out path``: the path
    of a regular or new file, resolved if it is a symbolic link; None for a
    FIFO or a device, written in place. Raises CliError, creating nothing,
    if the path is a directory or read-only, or if no file can be made."""
    if os.path.isdir(path) or os.path.exists(path) and not os.access(path, os.W_OK):
        raise CliError(f"cannot write {path}: a directory or read-only")
    if os.path.exists(path) and not os.path.isfile(path):
        return None
    target = os.path.realpath(path) if os.path.islink(path) else path
    if not os.access(folder := os.path.dirname(target) or ".", os.W_OK | os.X_OK):
        raise CliError(f"cannot write {path}: cannot create a file in {folder}")
    return target


def _write(path, lines) -> None:
    """Write the strings ``lines`` to standard output, flushed, if ``path``
    is None, else to the file ``path``; an OSError is a CliError. A regular
    or new file is written as a temporary file beside it, which takes its
    permission bits and is renamed over it: it holds the whole report or
    is left as it was. A failed standard output (a pipe whose reader has
    gone) is pointed at the null device, so that exit does not fail again."""
    tmp = None
    try:
        if path is None:
            sys.stdout.writelines(lines)
            sys.stdout.flush()
        elif (target := _out_target(path)) is None:
            with open(path, "w") as fh:
                fh.writelines(lines)
        else:
            name = f".pcfdr-{os.urandom(4).hex()}.tmp"  # short, whatever the target's name
            with open(os.path.join(os.path.dirname(target), name), "x") as fh:  # umask applies
                tmp = fh.name
                fh.writelines(lines)
            if os.path.exists(target):
                shutil.copymode(target, tmp)
            os.replace(tmp, target)
    except OSError as exc:
        if path is None:
            os.dup2(devnull := os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            os.close(devnull)
        raise CliError(f"cannot write {'standard output' if path is None else path}: "
                       f"{exc}") from None
    finally:
        if tmp is not None:
            with contextlib.suppress(OSError):  # gone already once renamed
                os.remove(tmp)


def write_matrix(path, ids: Iterable[str] | None, values) -> None:
    """One line per value of the 1-d ``values``, after its id if there
    are ids. Raises ValueError if there are more or fewer ids than values.
    The values become Python floats one block of rows at a time, never all
    at once."""
    values = np.asarray(values, dtype=float)
    floats = itertools.chain.from_iterable(
        values[i:i + _WRITE_BLOCK].tolist() for i in range(0, len(values), _WRITE_BLOCK))
    names = ids if ids is not None else itertools.repeat(None, len(values))
    _write(path, (f"{x:.17g}\n" if name is None else f"{name},{x:.17g}\n"
                  for name, x in zip(names, floats, strict=True)))


def read_weights(path: str, m: int) -> WeightScheme:
    """Two-column CSV: prior weight w, penalty weight v."""
    _, rows = read_matrix(path, pvalues=False)
    if rows.shape[1] != 2:
        raise CliError(f"{path}: weights file must have exactly two columns")
    if len(rows) != m:
        raise CliError(f"{path}: expected {m} weight rows, got {len(rows)}")
    try:
        return WeightScheme(rows[:, 0], rows[:, 1])
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from None


def _write_json(path, payload: dict) -> None:
    """The report ``payload`` and its schema version as JSON, as
    ``json.dumps(indent=2, sort_keys=True)`` writes it, and a newline. Its
    text is made whole, in pieces (:func:`_json`), before any is written,
    so that a non-finite float writes nothing."""
    _write(path, [*_json({"schema_version": SCHEMA_VERSION, **payload}), "\n"])


def _json(obj, indent: str = "\n") -> Iterator[str]:
    """``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)`` in
    pieces, the same text, for JSON data whose keys are strings; ``indent``
    starts each line at the depth of ``obj``. ``indent=2`` would take the
    pure-Python encoder. Here the C encoder writes each container that
    holds no container, its item separator carrying the line break and
    indentation, and the brackets of the others are placed here."""
    inner = indent + "  "
    items = obj if isinstance(obj, _CONTAINERS) else ()
    items = items.values() if isinstance(items, dict) else items
    if not any(isinstance(x, _CONTAINERS) for x in items):
        text = json.dumps(obj, sort_keys=True, allow_nan=False, separators=("," + inner, ": "))
        yield from (text[0] + inner, text[1:-1], indent + text[-1]) if items else (text,)
    elif isinstance(obj, dict):
        for i, (key, value) in enumerate(sorted(obj.items())):
            yield f"{',' if i else '{'}{inner}{json.dumps(key)}: "
            yield from _json(value, inner)
        yield indent + "}"
    else:
        for i, x in enumerate(obj):
            yield ("," if i else "[") + inner
            yield from _json(x, inner)
        yield indent + "]"


def _row_line(path: str, row: int) -> int:
    """Physical line number of 0-based matrix row ``row`` of ``path``."""
    return next(itertools.islice(_rows(path), row, None))[0]


def cmd_combine(args) -> int:
    method = CombiningMethod(args.method, args.lam)

    def pc(rows):
        """The PC p-value of each row at --u; the rows are sorted in place."""
        if not 1 <= args.u <= rows.shape[1]:
            raise CliError(f"--u {args.u} outside [1, {rows.shape[1]}]")
        return _row_values(rows, method, u=args.u)

    try:
        has_ids, values = read_matrix(args.input, reduce=pc)
    except DegenerateInputError as exc:
        raise CliError(f"{args.input}:{_row_line(args.input, exc.row)}: {exc}") from None
    try:
        write_matrix(args.out, read_ids(args.input) if has_ids else None, values)
    except ValueError:
        raise CliError(f"{args.input}: changed while it was read") from None
    return 0


def cmd_pc_test(args) -> int:
    method = CombiningMethod(args.method, args.lam)
    _, mat = read_matrix(args.input)
    if mat.shape[1] != 1:
        raise CliError(f"{args.input}: pc-test expects a single column of p-values")
    p = mat[:, 0]
    labels, names = _group_labels(args.groups)
    if len(labels) != len(p):
        raise CliError(f"{args.groups}: expected {len(p)} group labels, got {len(labels)}")
    if args.u_proportion is not None:
        layout = GroupLayout.from_proportion(labels, args.u_proportion)
    else:
        try:
            layout = GroupLayout(labels, np.full(len(names), args.u))
        except ValueError:  # a group smaller than u: count them again to name it
            sizes = np.bincount(labels)
            small = np.flatnonzero(sizes < args.u)[0]
            raise CliError(f"{args.groups}: --u {args.u} exceeds the size "
                           f"{sizes[small]} of group {names[small]!r}") from None
    g = len(names)
    ws = read_weights(args.weights, g) if args.weights else WeightScheme.unit(g)
    try:
        pc = compute_pc_pvalues(p, layout, method)
    except DegenerateInputError as exc:
        raise CliError(f"{args.groups}: group {names[exc.row]!r}: {exc}") from None
    rej = step_up(pc, ThresholdCollection(alpha=args.alpha, m=g, weights=ws,
                                          shape=ShapeFunction(args.shape)))
    _write_json(args.out, {
        "groups": names,
        "u": layout.u.tolist(),
        "pc_pvalues": pc,
        "rejected_groups": sorted(names[i] for i in rej.indices),
        "fixed_point_volume": rej.fixed_point_volume,
    })
    return 0


def _parse_rule(spec: str, q: float, shape: ShapeFunction) -> SelectionRule:
    kind, _, value = spec.partition("=")
    if spec == "step-up":
        return SelectionRule("step_up_on_combined", alpha=q, shape=shape)
    if kind == "threshold":
        return SelectionRule("fixed_threshold_on_combined", threshold=float(value))
    if kind == "column":
        return SelectionRule("step_up_on_column", alpha=q, shape=shape, column=int(value))
    raise ValueError("unknown rule; use step-up, threshold=T, or column=J")


def cmd_replicate(args) -> int:
    method = CombiningMethod(args.method, args.lam)
    shape = ShapeFunction(args.shape)
    try:
        rule = _parse_rule(args.rule, args.q, shape)
    except ValueError as exc:
        raise CliError(f"--rule {args.rule}: {exc}") from None

    def step1(rows):
        """Step 1's value of each row; the rows are sorted in place."""
        if rule.column is not None and not 0 <= rule.column < rows.shape[1]:
            raise CliError(f"--rule {args.rule}: column {rule.column} outside "
                           f"[0, {rows.shape[1]})")
        return _row_values(rows, method, column=rule.column)

    try:
        # Step 1 reads one value per row; Step 2 reads the selected rows
        # back from the file, once they are known.
        try:
            has_ids, values = read_matrix(args.input, reduce=step1)
        except DegenerateInputError:  # a bad weights file is reported first
            if args.weights:
                read_weights(args.weights, sum(1 for _ in _lines(args.input)))
            raise
        m = len(values)
        ws = read_weights(args.weights, m) if args.weights else WeightScheme.unit(m)
        mask = _selection(values[None], rule, ws)
        rows = np.flatnonzero(mask[0])
        wanted = values[rows]
        del values  # this lowers the peak of the read-back
        try:
            ids, sel = _read_rows(args.input, memoryview(mask[0]))  # walked as Python bools
            # They must be the rows that Step 1 read: the same Step-1 values.
            same = ((ids is not None) == has_ids and len(sel) == len(rows) and
                    _row_values(sel, method, column=rule.column).tobytes() == wanted.tobytes())
        except ValueError:  # a line that no longer parses or combines
            same = False
        if not same:
            raise CliError(f"{args.input}: changed while it was read")
        khat, t, vol = _khat_rows(sel, mask, method, ws, args.q, shape)
    except DegenerateInputError as exc:
        raise CliError(f"{args.input}:{_row_line(args.input, exc.row)}: {exc}") from None
    rows = rows.tolist()
    names = ids if has_ids else [str(i) for i in rows]
    first: dict[str, int] = {}
    for i, name in zip(rows, names):
        if (j := first.setdefault(name, i)) != i:
            raise CliError(f"{args.input}:{_row_line(args.input, i)}: selected id "
                           f"{name!r} also names line {_row_line(args.input, j)}")
    _write_json(args.out, {
        "q": args.q,
        "selected": sorted(names),
        "khat": dict(zip(names, khat.tolist())),
        "threshold_used": dict(zip(names, t.tolist())),
        "selection_volume": float(vol[0]),
    })
    return 0


def _fdr_pc_check(f, scenario, method):
    """Weighted FDR of the PC family against alpha times the PC-null share."""
    base = f["alpha"] * len(scenario.true_null_features(f["u"])) / scenario.m
    tc = ThresholdCollection(alpha=f["alpha"], m=scenario.m, shape=ShapeFunction(f["shape"]),
                             adaptive_lambda=f["adaptive_lambda"])
    return [({}, mc_fdr_pc(scenario, f["u"], method, tc), base)]


def _replicability_check(f, scenario, method):
    """Replicability error of the two-step procedure against q."""
    q, shape = f["q"], ShapeFunction(f["shape"])
    if not 0.0 < q <= 1.0:  # before _parse_rule, which would blame a step-up rule (alpha = q)
        raise ValueError(f"q: {q} outside (0, 1]")
    try:
        rule = _parse_rule(f["rule"], q, shape)
    except ValueError as exc:
        raise ValueError(f"rule: {exc}") from None
    ws = WeightScheme.unit(scenario.m)
    return [({}, mc_replicability_error(scenario, rule, method, ws, q, shape), q)]


def _dcc_check(f, scenario, method):
    """The dependency control condition against each c of the grid."""
    return [({"c": c}, est, c) for c, est in dcc_probe(
        scenario, f["u"], method, f["c_grid"], statistic=f["statistic"], alpha=f["alpha"])]


_REQUIRED = dataclasses.MISSING  # the default of a field that must be given
_COMMON = {"check": (str, _REQUIRED), "scenario": (dict, _REQUIRED),
           "method": (str, _REQUIRED), "lambda": (float, None)}
# Per check kind, the function of its fields, scenario and method that returns
# each result's extra report fields, estimate and bound's base; and the fields
# it reads, with JSON type (list: of real numbers) and default. Others are errors.
_CHECKS = {
    "fdr_pc": (_fdr_pc_check, {**_COMMON, "u": (int, _REQUIRED), "alpha": (float, 0.05),
                               "shape": (str, "identity"), "adaptive_lambda": (float, None)}),
    "replicability": (_replicability_check, {**_COMMON, "q": (float, 0.05),
                                             "rule": (str, "step-up"), "shape": (str, "identity")}),
    "dcc": (_dcc_check, {**_COMMON, "u": (int, _REQUIRED), "statistic": (str, "rejection_volume"),
                         "alpha": (float, 0.05), "c_grid": (list, (0.02, 0.05, 0.1, 0.2, 0.5))}),
}
# The fields of a scenario, whose types and ranges SimulationScenario
# checks, and of a file that holds a list of checks. A check needs reps,
# from the file or --reps: the library default of 1 has no standard error.
_SCENARIO_FIELDS = {f.name: (None, _REQUIRED if f.name == "reps" else f.default)
                    for f in dataclasses.fields(SimulationScenario)}
_FILE_FIELDS = {"checks": (None, _REQUIRED), "schema_version": (int, 1)}


def _fields(obj: dict, table: dict, where: str) -> dict:
    """Each field of ``table`` (name: (JSON type, default)) read from the
    JSON object ``obj`` by :func:`_typed`, or at its default if left out;
    a list must hold real numbers, and type None is left to the caller.
    Raises ValueError, starting with ``where`` unless it names a type, for
    an unknown field (in a check, maybe one of another kind), a missing
    required one or a value of another type."""
    for name in obj:
        if name not in table:
            if "check" in table and any(name in t for _, t in _CHECKS.values()):
                raise ValueError(f"field {name!r} does not apply to a {obj['check']} check")
            raise ValueError(f"{where}unknown field {name!r}")
    out = {}
    for name, (kind, default) in table.items():
        if name not in obj:
            if default is _REQUIRED:
                raise ValueError(f"{where}missing field {name!r}")
            out[name] = default
        elif kind is list:
            out[name] = [_typed(x, name) for x in _typed(obj[name], name, list)]
        else:
            out[name] = obj[name] if kind is None else _typed(obj[name], name, kind)
    return out


def _result(extra: dict, est, base: float) -> dict:
    """One result record: the estimate passes at most 3 SE above the base."""
    bound = base + 3 * est.se
    return {**extra, "estimate": est.mean, "se": est.se, "bound": bound, "pass": est.mean <= bound}


def _run_scenario_file(args, enforce: bool) -> int:
    try:
        spec = json.loads(_read_text(args.scenario))
    except json.JSONDecodeError as exc:
        raise CliError(f"{args.scenario}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    if (not isinstance(spec, dict) or not isinstance(checks := spec.get("checks", [spec]), list)
            or not all(isinstance(chk, dict) for chk in checks)):
        raise CliError(f"{args.scenario}: bad check spec: not an object with a list of checks")
    overrides = {k: v for k, v in (("reps", args.reps), ("seed", args.seed)) if v is not None}
    read = []  # every check is read, and run at reps = 0 to check it, before any draws
    try:
        if "checks" in spec and (v := _fields(spec, _FILE_FIELDS, "")["schema_version"]) != 1:
            raise ValueError(f"schema_version: must be 1, not {v}")
        for chk in checks:
            if "check" not in chk:
                raise ValueError("missing field 'check'")
            if (kind := _typed(chk["check"], "check", str)) not in _CHECKS:
                raise ValueError(f"unknown check kind {kind!r}")
            check, table = _CHECKS[kind]
            f = _fields(chk, table, "")
            scenario = SimulationScenario(
                **_fields(f["scenario"] | overrides, _SCENARIO_FIELDS, "scenario: "))
            if scenario.reps < 2:  # one replicate has no standard error
                raise ValueError(f"reps: a check needs at least 2, not {scenario.reps}")
            method = CombiningMethod(f["method"], f["lambda"])
            check(f, dataclasses.replace(scenario, reps=0), method)
            read.append(({"check": kind, "scenario": dataclasses.asdict(scenario),
                          "method": f["method"]}, check, (f, scenario, method)))
        records = []
        for record, check, inputs in read:
            sub = [_result(*r) for r in check(*inputs)]
            records.append({**record, "results": sub, "pass": all(r["pass"] for r in sub)})
    except (TypeError, ValueError) as exc:
        raise CliError(f"{args.scenario}: bad check spec: {exc}") from None
    all_pass = all(r["pass"] for r in records)
    _write_json(args.out, {"records": records, "pass": all_pass})
    return 3 if enforce and not all_pass else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pcfdr")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # Flags that several subcommands share, each declared once.
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None)
    combining = argparse.ArgumentParser(add_help=False)
    combining.add_argument("--method", required=True, choices=list(_ROW_COMBINERS))
    combining.add_argument("--lambda", dest="lam", type=float, default=None)
    weighting = argparse.ArgumentParser(add_help=False)
    weighting.add_argument("--shape", default="identity",
                           choices=("identity", "reciprocal_sum"))
    weighting.add_argument("--weights", default=None)

    pc = sub.add_parser("combine", help="combine p-values row by row",
                        parents=[combining, out])
    pc.add_argument("input")
    pc.add_argument("--u", type=int, default=1)
    pc.set_defaults(func=cmd_combine)

    pt = sub.add_parser("pc-test", help="step-up testing of partial conjunction family",
                        parents=[combining, weighting, out])
    pt.add_argument("input")
    pt.add_argument("--alpha", type=float, required=True)
    pt.add_argument("--groups", required=True)
    pt_u = pt.add_mutually_exclusive_group()
    pt_u.add_argument("--u", type=int, default=1)
    pt_u.add_argument("--u-proportion", type=float, default=None)
    pt.set_defaults(func=cmd_pc_test)

    rp = sub.add_parser("replicate", help="two-step replicability analysis",
                        parents=[combining, weighting, out])
    rp.add_argument("input")
    rp.add_argument("--q", type=float, required=True)
    rp.add_argument("--rule", default="step-up")
    rp.set_defaults(func=cmd_replicate)

    for name, enforce in (("simulate", False), ("verify", True)):
        sm = sub.add_parser(name, help="Monte Carlo scenario run", parents=[out])
        sm.add_argument("--scenario", required=True)
        sm.add_argument("--reps", type=int, default=None)
        sm.add_argument("--seed", type=int, default=None)
        sm.set_defaults(func=lambda a, e=enforce: _run_scenario_file(a, e))
    return parser


def _check_flags(args) -> None:
    """Raise a CliError naming the first flag out of its range, and its
    value. The library checks the same ranges, in its own words."""
    if getattr(args, "lam", None) is not None and args.method != "simes_storey":
        raise CliError("--lambda only applies to simes_storey")
    unit = "outside (0, 1]", lambda x: 0.0 < x <= 1.0
    for flag, dest, (rule, ok) in (
            ("--alpha", "alpha", unit), ("--q", "q", unit),
            ("--u-proportion", "u_proportion", unit),
            ("--lambda", "lam", ("outside (0, 1)", lambda x: 0.0 < x < 1.0)),
            ("--u", "u", ("must be at least 1", lambda x: x >= 1)),
            ("--reps", "reps", ("must be at least 2", lambda x: x >= 2)),
            ("--seed", "seed", ("outside [0, 2**64)", lambda x: 0 <= x < 2**64))):
        if (x := getattr(args, dest, None)) is not None and not ok(x):
            raise CliError(f"{flag} {x} {rule}")


def run(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_flags(args)  # before any work
        if args.out is not None:
            _out_target(args.out)
        return args.func(args)
    except (CliError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    """The ``pcfdr`` script: exit with the status of :func:`run` on the
    command line. pcfdr makes no BLAS call, so OpenBLAS is capped at one
    thread unless ``OPENBLAS_NUM_THREADS`` is already set: the copy that
    scipy's ``_ufuncs`` maps, which only Stouffer loads, then starts no
    worker, which would otherwise spin on a core the run needs. The
    objects still alive, most of them made by importing numpy, are frozen
    out of the garbage collector after the run, so that its collections at
    shutdown skip them. Only this entry point does either: a caller of
    :func:`run` in its own process keeps its environment and collector as
    they were."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    code = run(sys.argv[1:])
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
