"""Forecast archive ingest, grouping, scoring, and skill tables.

An archive is a flat list of (station, init date, lead time) cases,
each carrying an ensemble and the verifying observation.  Ingest is
deliberately forgiving: malformed rows, and rows repeating the key of an
earlier row, are collected as rejects with line numbers instead of
aborting, up to a configurable fraction.

An ``Archive`` holds its records as columns: tuples of station ids,
init dates and lead times, an (n, m) member array (NaN-padded when
member counts differ) with an (n,) member-count array, and an (n,)
observation array.  ``ArchiveRecord`` views over the columns are built
only when a caller iterates the archive.  A csv file is read in bulk:
the key is split off each line, and the numbers of each block of lines
are parsed by one ``np.loadtxt``.  A row with a wrong field count, a key
that does not parse, a number loadtxt refuses or a non-finite value goes
through the per-row parser's functions, which name every reject reason;
a file with a quote is read row by row throughout.  Json lines are
always parsed row by row.  ``read_archive``, the reader the command line
calls, keeps the archives it parsed by the sha256 of the file's bytes,
so a file read again with the same content is not parsed again.

Raw ensembles are scored by ``kernels._mv_kernel``, the one engine of
the ensemble kernel scores, univariate records as stacks of one
dimension, and the Brier score by ``uniscores._brier_ensembles``:
blocks of at most ``grouping._STACK`` records, or stacked multivariate
cases, sharing a member count go to one kernel call as slices of the
member array, and each case gets exactly the value of the per-case function,
which calls the same kernel.  Like the kernels, the archive functions take
and return columns: ``score_archive`` gives (station ids, init dates,
lead times, values), ``skill_table`` joins two such sets by one sort of
their keys, and ``group_multivariate`` gives the (cases, d) array of the
record indices of each stacked case; rows are keyed and blocked by
``grouping._key_codes`` and ``grouping._blocks``.  Smoothed forecasts
are normal fits to the members, ``postprocess.member_moments`` with the
variance floored, into one ``Normal`` of array parameters, and each
score is one call of the parametric route,
``uniscores._parametric_score``, over all records.

``_write_csv`` is the package's one csv writer: archives, score tables
and every table of the command line interface are written by it, a
column at a time, in one canonical text.
"""

from __future__ import annotations

import csv
import datetime
import hashlib
import io
import json
import math
import os
import threading
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .exceptions import ContractViolation, DataError, DimensionMismatch, UnsupportedInput
from .forecasts import Normal
from .grouping import _blocks, _key_codes
from .kernels import _mv_kernel
from .mvscores import VariogramSpec
from .postprocess import VARIANCE_FLOOR, member_moments
from .uniscores import _NEGATIVE_TOL, ScoreValue, _brier_ensembles, _parametric_score

# Archives are scored by the stacked kernels and the parametric route; the
# per-case functions are not called here, but stay bound under these
# names: perfbench's tracer wraps them here and cannot start without them.
from .mvscores import (  # noqa: F401
    energy_score,
    ow_energy_score,
    tw_energy_score,
    tw_variogram_score,
    variogram_score,
    vr_energy_score,
    vr_variogram_score,
)
from .postprocess import smooth_ensemble  # noqa: F401
from .uniscores import brier, crps, owcrps, owcrps_bs, twcrps, vrcrps  # noqa: F401
from .weights import (
    HEAT_HOT,
    HEAT_WARM,
    BoxIndicator,
    Constant,
    HeatLevelIndicator,
    IndicatorAbove,
)

__all__ = [
    "ArchiveRecord",
    "RejectedRow",
    "Archive",
    "read_archive",
    "read_archive_csv",
    "read_archive_jsonl",
    "write_archive_csv",
    "write_archive_jsonl",
    "group_multivariate",
    "score_archive",
    "skill_score",
    "skill_table",
    "UNIVARIATE_SCORES",
    "MULTIVARIATE_SCORES",
]

UNIVARIATE_SCORES = ("crps", "brier", "twcrps", "owcrps", "owcrps_bs", "vrcrps")
MULTIVARIATE_SCORES = ("es", "vs", "twes", "twvs", "owes", "vres", "vrvs")

_NEEDS_THRESHOLD = ("brier", "twcrps", "owcrps", "owcrps_bs", "vrcrps")


def _check_station_ids(station_ids) -> None:
    """Station ids must be non-empty and free of surrounding whitespace,
    which the readers strip: a written id must read back as itself."""
    for sid in station_ids:
        if not sid:
            raise ContractViolation("station_id must be non-empty")
        if sid != sid.strip():
            raise ContractViolation(f"station_id {sid!r} has surrounding whitespace")


@dataclass(frozen=True)
class ArchiveRecord:
    """One forecast case: ensemble members plus verifying observation."""

    station_id: str
    init_date: datetime.date
    lead_time: int
    members: np.ndarray
    obs: float

    def __post_init__(self):
        _check_station_ids((self.station_id,))
        m = np.asarray(self.members, dtype=float)
        if m.ndim != 1 or m.size == 0 or not np.isfinite(m).all():
            raise ContractViolation("members must be a non-empty finite 1-d array")
        object.__setattr__(self, "members", m)
        object.__setattr__(self, "lead_time", int(self.lead_time))
        obs = float(self.obs)
        if not math.isfinite(obs):
            raise ContractViolation("obs must be finite")
        object.__setattr__(self, "obs", obs)


@dataclass(frozen=True)
class RejectedRow:
    line: int
    reason: str


@dataclass(frozen=True, eq=False)
class Archive:
    """The accepted records of an archive as columns, plus its rejects.

    The key columns are tuples: station ids (str), init dates
    (datetime.date) and lead times (int).  ``members`` is an (n, m)
    float array, NaN-padded past ``n_members[i]`` members when the
    member counts differ (jsonl archives may mix them), and ``obs`` an
    (n,) array.  The archive keeps read-only views of the arrays, because
    the records share their memory.  ``_source`` is the (sha256 hex digest,
    size) of the bytes ``read_archive`` parsed it from, and None for any
    other archive.  The constructor checks what
    ArchiveRecord checks of each record: non-empty station ids without
    surrounding whitespace (checked once per distinct id), at least one
    member, and finite members and observations.
    """

    station_ids: tuple
    init_dates: tuple
    lead_times: tuple
    members: np.ndarray
    n_members: np.ndarray
    obs: np.ndarray
    rejects: tuple = ()
    _source: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        members = np.asarray(self.members, dtype=float).view()
        sizes = np.asarray(self.n_members, dtype=np.intp).view()
        obs = np.asarray(self.obs, dtype=float).view()
        n = len(self.station_ids)
        if (
            members.ndim != 2 or sizes.ndim != 1 or obs.ndim != 1
            or not len(self.init_dates) == len(self.lead_times) == len(members)
            == len(sizes) == len(obs) == n
        ):
            raise ContractViolation(
                "archive columns need one entry per record and a 2-d member array"
            )
        if n and (sizes.min() < 1 or sizes.max() > members.shape[1]):
            raise ContractViolation("member counts must lie in 1..members.shape[1]")
        _check_station_ids(dict.fromkeys(self.station_ids))
        filled = np.arange(members.shape[1]) < sizes[:, None]
        if not np.isfinite(members)[filled].all() or not np.isfinite(obs).all():
            raise ContractViolation("members and obs must be finite")
        for name, a in (("members", members), ("n_members", sizes), ("obs", obs)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @cached_property
    def records(self) -> tuple:
        """The records as ArchiveRecords over the columns, built on first use."""
        return tuple(
            ArchiveRecord(*row)
            for row in zip(
                self.station_ids,
                self.init_dates,
                self.lead_times,
                self._member_rows(),
                self.obs.tolist(),
            )
        )

    def _member_rows(self):
        return (row[:k] for row, k in zip(self.members, self.n_members.tolist()))

    def __len__(self) -> int:
        return len(self.obs)

    def __iter__(self):
        return iter(self.records)


def _archive_of(records, rejects=()) -> Archive:
    """The columns of a sequence of ArchiveRecords."""
    records = tuple(records)
    sizes = np.array([rec.members.size for rec in records], dtype=np.intp)
    members = np.full((len(records), int(sizes.max()) if records else 0), np.nan)
    for row, rec in zip(members, records):
        row[: rec.members.size] = rec.members
    return Archive(
        tuple(rec.station_id for rec in records),
        tuple(rec.init_date for rec in records),
        tuple(rec.lead_time for rec in records),
        members,
        sizes,
        np.array([rec.obs for rec in records], dtype=float),
        tuple(rejects),
    )


def _columns_of(archive) -> Archive:
    return archive if isinstance(archive, Archive) else _archive_of(archive)


def _check_fraction(max_fraction) -> None:
    if not 0.0 <= max_fraction <= 1.0:  # NaN fails too
        raise ContractViolation(f"max_reject_fraction must lie in [0, 1], got {max_fraction!r}")


def _check_reject_fraction(archive: Archive, max_fraction: float, path: str) -> None:
    """DataError when more than ``max_fraction`` of the rows of the file
    ``path`` that ``archive`` was read from were rejected."""
    rejects = archive.rejects
    if not rejects:
        return
    n_rows = len(archive) + len(rejects)
    frac = len(rejects) / n_rows
    if frac > max_fraction:
        shown = "; ".join(f"line {r.line}: {r.reason}" for r in rejects[:5])
        raise DataError(
            f"{path}: {len(rejects)} of {n_rows} rows rejected "
            f"({frac:.1%} > {max_fraction:.1%}): {shown}"
        )


def _parse_key(sid, date_str, lead_str, dates: dict) -> tuple:
    """(station id, init date, lead time) of one row; ``dates`` caches parsed init dates.

    A ValueError names what is wrong with the key.
    """
    sid = sid.strip()
    if not sid:
        raise ValueError("empty station_id")
    init = dates.get(date_str)
    if init is None:
        try:
            init = datetime.date.fromisoformat(date_str.strip())
        except ValueError:
            raise ValueError(f"bad init_date {date_str!r}") from None
        dates[date_str] = init
    try:
        lead = int(lead_str)
    except ValueError:
        raise ValueError(f"bad lead_time {lead_str!r}") from None
    return sid, init, lead


def _parse_record(sid, date_str, lead_str, member_strs, obs_str, dates: dict) -> ArchiveRecord:
    """Parse one row; ``dates`` caches parsed init dates.

    The checks here only name what is wrong with a bad row; the record's
    own constructor is what guards every record.
    """
    key = _parse_key(sid, date_str, lead_str, dates)
    try:
        members = np.fromiter(map(float, member_strs), float, len(member_strs))
    except ValueError:
        raise ValueError("non-numeric member value") from None
    if members.size == 0 or not np.isfinite(members).all():
        raise ValueError("members must be non-empty and finite")
    try:
        obs = float(obs_str)
    except ValueError:
        raise ValueError(f"bad obs {obs_str!r}") from None
    if not math.isfinite(obs):
        raise ValueError("obs must be finite")
    return ArchiveRecord(*key, members, obs)


def _claim(first_line: dict, key, line_no: int):
    """None when ``key`` is new and now taken by ``line_no``, else the reject reason."""
    first = first_line.setdefault(key, line_no)
    return None if first == line_no else f"duplicate of line {first}"


def _collect(rows) -> Archive:
    """Parse the rows of one file into an archive.

    ``rows`` yields (line number, fields) with fields either the raw
    (station, init date, lead time, members, obs) of a row or the reason
    the reader already rejected it for.  A row repeating the (station,
    init date, lead time) of an earlier accepted row is rejected too.
    """
    records = []
    rejects = []
    first_line: dict = {}
    dates: dict = {}
    for line_no, fields in rows:
        if isinstance(fields, str):
            rejects.append(RejectedRow(line_no, fields))
            continue
        try:
            rec = _parse_record(*fields, dates)
        except ValueError as exc:
            rejects.append(RejectedRow(line_no, str(exc)))
            continue
        duplicate = _claim(first_line, (rec.station_id, rec.init_date, rec.lead_time), line_no)
        if duplicate:
            rejects.append(RejectedRow(line_no, duplicate))
            continue
        records.append(rec)
    return _archive_of(records, rejects)


def _csv_header(reader, path: str):
    """The header row of a csv archive, or None for an empty file."""
    header = next(reader, None)
    if header is not None and (
        len(header) < 5
        or header[0] != "station_id"
        or header[1] != "init_date"
        or header[2] != "lead_time"
        or header[-1] != "obs"
    ):
        raise DataError(
            f"{path}: expected header station_id,init_date,lead_time,m1..mK,obs"
        )
    return header


def _csv_fields(row: list, width: int):
    """The raw fields of a csv row of a file ``width`` columns wide, or why it is rejected."""
    if len(row) != width:
        return f"expected {width} fields, got {len(row)}"
    return row[0], row[1], row[2], row[3:-1], row[-1]


def _csv_rows(fh, path: str):
    """(line number, fields or reject reason) of each row of the csv text
    ``fh``, read by ``csv``; ``path`` names the file in errors."""
    reader = csv.reader(fh)
    header = _csv_header(reader, path)
    if header is None:
        return
    # A record is numbered by the file line it starts on; a quoted
    # field may carry it over several lines.
    line_no = reader.line_num + 1
    for row in reader:
        if row:
            yield line_no, _csv_fields(row, len(header))
        line_no = reader.line_num + 1


# Lines per np.loadtxt call of the bulk csv parse.  A block that loadtxt
# refuses is parsed row by row, so the block bounds the cost of a bad
# value; in 32-line blocks a clean 2,400-row file of 51 members parses
# about as fast as in one call.
_READ_BLOCK = 32


def _bulk_csv(fh, path: str):
    """The archive of the csv text ``fh`` read in bulk, or None for a file
    with a quote; ``path`` names the file in errors.

    Each line's key is split off and parsed as ``_parse_record`` parses
    it; the numbers of blocks of ``_READ_BLOCK`` lines are parsed by one
    ``np.loadtxt`` each.  loadtxt's values equal ``float()``'s wherever it
    accepts a field, but it refuses some fields ``float()`` takes (such
    as ``1_0``).  So a row whose key does not parse or whose field count
    is wrong, every row of a block loadtxt refuses, and every row with a
    non-finite value goes through the per-row parser's own functions,
    which give the same records, rejects and reasons as reading the whole
    file row by row.  A quoted field may span lines and hold commas,
    which only ``csv`` reads right, so a quote anywhere after the header
    leaves the file to the per-row parser.
    """
    station_ids, init_dates, lead_times, blocks = [], [], [], []
    rejects = []
    first_line: dict = {}
    dates: dict = {}
    block = []  # (line number, key or reject reason, line)

    def flush():
        lines = [line for _, key, line in block if not isinstance(key, str)]
        values = np.empty((len(lines), width - 3))
        clean = [False] * len(lines)
        if lines:
            try:
                values = np.loadtxt(
                    lines, delimiter=",", usecols=range(3, width), comments=None, ndmin=2
                )
                clean = np.isfinite(values).all(axis=1).tolist()
            except ValueError:
                pass
        keep = []
        i = -1
        for line_no, key, line in block:
            if isinstance(key, str):
                rejects.append(RejectedRow(line_no, key))
                continue
            i += 1
            if not clean[i]:
                try:
                    rec = _parse_record(*_csv_fields(line.rstrip("\r\n").split(","), width), dates)
                except ValueError as exc:
                    rejects.append(RejectedRow(line_no, str(exc)))
                    continue
                values[i, :-1] = rec.members
                values[i, -1] = rec.obs
            duplicate = _claim(first_line, key, line_no)
            if duplicate:
                rejects.append(RejectedRow(line_no, duplicate))
                continue
            keep.append(i)
            station_ids.append(key[0])
            init_dates.append(key[1])
            lead_times.append(key[2])
        blocks.append(values if len(keep) == len(values) else values[keep])
        block.clear()

    reader = csv.reader(fh)
    header = _csv_header(reader, path)
    if header is None:
        return _archive_of(())
    width = len(header)
    # Blank lines are skipped but numbered; without quotes each line is
    # one row.  The header may span lines.
    for line_no, line in enumerate(fh, start=reader.line_num + 1):
        if line in ("\n", "\r\n", "\r"):
            continue
        if '"' in line:
            return None
        if line.count(",") != width - 1:
            key = _csv_fields(line.rstrip("\r\n").split(","), width)
        else:
            sid, date_str, lead_str, _ = line.split(",", 3)
            try:
                key = _parse_key(sid, date_str, lead_str, dates)
            except ValueError as exc:
                key = str(exc)
        block.append((line_no, key, line))
        if len(block) == _READ_BLOCK:
            flush()
    if block:
        flush()
    if not station_ids:
        return _archive_of((), rejects)
    return Archive(
        tuple(station_ids),
        tuple(init_dates),
        tuple(lead_times),
        np.concatenate([b[:, :-1] for b in blocks]),
        np.full(len(station_ids), width - 4, dtype=np.intp),
        np.concatenate([b[:, -1] for b in blocks]),
        tuple(rejects),
    )


class _Hashed(io.RawIOBase):
    """A file's raw bytes, hashed with sha256 as they are read.  Closing
    it reads what is left, so ``sha256`` and ``size`` are always of the
    whole file as this one opening of it read it."""

    def __init__(self, path: str):
        self._fh = open(path, "rb", buffering=0)
        self.sha256 = hashlib.sha256()
        self.size = 0

    def readable(self) -> bool:
        return True

    def readinto(self, b) -> int:
        n = self._fh.readinto(b)
        self.sha256.update(memoryview(b)[:n])
        self.size += n
        return n

    def close(self) -> None:
        if not self.closed:
            rest = bytearray(1 << 16)
            while self.readinto(rest):
                pass
            self._fh.close()
        super().close()


def _parse_csv(open_text, path: str) -> Archive:
    """The archive of a csv file, in bulk or, when it quotes a field, row
    by row; ``open_text(newline=...)`` opens the file as text."""
    with open_text(newline="") as fh:
        archive = _bulk_csv(fh, path)
    if archive is None:
        with open_text(newline="") as fh:
            archive = _collect(_csv_rows(fh, path))
    return archive


def read_archive_csv(path, max_reject_fraction: float = 0.01) -> Archive:
    """Read an archive from csv.

    Expected header: station_id, init_date, lead_time, m1..mK, obs.
    An empty or header-only file yields an empty archive.  Rows that do
    not parse, and rows repeating the (station, init date, lead time) of
    an earlier row, are collected as rejects; the read aborts with
    DataError only when their fraction exceeds ``max_reject_fraction``,
    which must lie in [0, 1].
    The numbers of a file are parsed in bulk unless it quotes a field.
    Every call parses the file; ``read_archive`` keeps what it parsed.
    """
    _check_fraction(max_reject_fraction)
    path = str(path)
    archive = _parse_csv(partial(open, path), path)
    _check_reject_fraction(archive, max_reject_fraction, path)
    return archive


def _jsonl_rows(fh):
    keys = ("station_id", "init_date", "lead_time", "members", "obs")
    for line_no, line in enumerate(fh, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            yield line_no, f"bad json: {exc.msg}"
            continue
        if not isinstance(obj, dict):
            yield line_no, "row is not an object"
            continue
        missing = [k for k in keys if k not in obj]
        if missing:
            yield line_no, f"missing keys {missing}"
        elif not isinstance(obj["members"], list):
            yield line_no, "members must be a list"
        else:
            yield line_no, (
                str(obj["station_id"]),
                str(obj["init_date"]),
                str(obj["lead_time"]),
                [str(v) for v in obj["members"]],
                str(obj["obs"]),
            )


def _parse_jsonl(open_text, path: str) -> Archive:
    """The archive of a jsonl file; ``path``, unused, keeps the signature
    of ``_parse_csv``."""
    with open_text() as fh:
        return _collect(_jsonl_rows(fh))


def read_archive_jsonl(path, max_reject_fraction: float = 0.01) -> Archive:
    """Read an archive from json lines.

    Each line is an object with keys station_id, init_date, lead_time,
    members, obs.  Reject handling matches the csv reader.  Every call
    parses the file; ``read_archive`` keeps what it parsed.
    """
    _check_fraction(max_reject_fraction)
    path = str(path)
    archive = _parse_jsonl(partial(open, path), path)
    _check_reject_fraction(archive, max_reject_fraction, path)
    return archive


# How many parsed archives read_archive keeps: a run of the command line
# reads at most two (report's archive and reference), and the calibrate
# workload's loop alternates two files.
_READ_CACHE = 2
_reads: dict = {}  # (parser, sha256 of the bytes) -> archive, least recently used first
_reads_lock = threading.Lock()


def read_archive(path, max_reject_fraction: float = 0.01) -> Archive:
    """Read csv or jsonl depending on the file extension.

    The archive carries the sha256 digest and size of the bytes it was
    parsed from as ``_source``; they are hashed as the parser reads them.
    The last ``_READ_CACHE`` archives parsed here are kept by that digest
    (and the format), least recently used dropped first.  When a kept
    archive has the file's size, the file is hashed first, and a kept
    archive of the same digest is returned without parsing: the key is
    the content, never the path or the modification time, and an archive
    is immutable, so sharing it is safe.  Each call checks
    ``max_reject_fraction`` itself and names its own path, as
    ``read_archive_csv`` and ``read_archive_jsonl`` do.  The parse
    streams the file, as theirs does; a read that parses also pays the
    hash (about 2 ms on a 2.3 MB file), and only a process that reads the
    same bytes again gains.  Up to ``_READ_CACHE`` archives stay in
    memory for the life of the process.
    """
    p = str(path)
    if p.endswith(".csv"):
        parse = _parse_csv
    elif p.endswith(".jsonl"):
        parse = _parse_jsonl
    else:
        raise DataError(f"{p}: unsupported archive format; use .csv or .jsonl")
    _check_fraction(max_reject_fraction)
    with _reads_lock:
        sizes = {a._source[1] for a in _reads.values()}
    archive = None
    if sizes and os.stat(p).st_size in sizes:
        with _Hashed(p) as whole:
            pass  # closing it hashes the whole file
        key = (parse, whole.sha256.hexdigest())
        with _reads_lock:
            archive = _reads.pop(key, None)
    if archive is None:
        opened = []

        def open_text(newline=None):
            opened.append(_Hashed(p))
            return io.TextIOWrapper(io.BufferedReader(opened[-1]), newline=newline)

        archive = parse(open_text, p)
        key = (parse, opened[-1].sha256.hexdigest())
        object.__setattr__(archive, "_source", (key[1], opened[-1].size))
    with _reads_lock:
        _reads[key] = archive
        while len(_reads) > _READ_CACHE:
            del _reads[next(iter(_reads))]
    _check_reject_fraction(archive, max_reject_fraction, p)
    return archive


def _csv_field(text: str) -> str:
    """``text`` as one csv field: quoted, with inner quotes doubled, when it
    holds a comma, a quote, a carriage return or a newline."""
    if not any(c in text for c in ',"\r\n'):
        return text
    return '"' + text.replace('"', '""') + '"'


def _cell_text(v) -> str:
    """One csv field for a value of any kind."""
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, datetime.date):
        return v.isoformat()
    return _csv_field(str(v))


def _column_text(column) -> list:
    """The csv fields of a column.  A numeric or boolean array is
    formatted from its ``tolist()`` in one pass, a 2-d one a row at a
    time, each row's fields joined into one text; a string, an int or a
    date is formatted once per distinct value.  The cache is keyed by
    exact type, so that True never takes the entry of 1."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "biuf":
        if column.ndim == 2:
            return [",".join(_column_text(row)) for row in column]
        values = column.tolist()
        if column.dtype.kind == "f":
            return list(map(repr, values))
        if column.dtype.kind == "b":
            return ["true" if v else "false" for v in values]
        return list(map(str, values))
    cached = (str, int, datetime.date)
    seen: dict = {}
    out = []
    for v in column:
        if type(v) in cached:
            text = seen.get(v)
            if text is None:
                text = seen[v] = _cell_text(v)
        else:
            text = _cell_text(v)
        out.append(text)
    return out


def _write_csv(path, header, columns) -> None:
    """A csv table from its header and its equal-length columns (a 2-d
    array stands for as many columns as it has columns): floats
    as ``repr``, booleans as true and false, dates in iso format, None
    as an empty field, and text quoted by ``_csv_field``."""
    lines = [",".join(_column_text(header))]
    lines += map(",".join, zip(*map(_column_text, columns), strict=True))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_archive_csv(archive, path) -> None:
    """Write records as csv with a canonical float formatting.

    All records must share one member count; the written file reads
    back to identical records and rewriting it reproduces the bytes.
    """
    a = _columns_of(archive)
    sizes = sorted(set(a.n_members.tolist()))
    if len(sizes) > 1:
        raise DataError(
            f"csv needs one member count per file, found {sizes}; "
            "write jsonl instead"
        )
    k = sizes[0] if sizes else 0
    header = ["station_id", "init_date", "lead_time", *(f"m{i + 1}" for i in range(k)), "obs"]
    columns = [a.station_ids, a.init_dates, a.lead_times, a.members[:, :k], a.obs]
    _write_csv(path, header, columns)


def write_archive_jsonl(archive, path) -> None:
    a = _columns_of(archive)
    with open(str(path), "w") as fh:
        for sid, init, lead, row, y in zip(
            a.station_ids, a.init_dates, a.lead_times, a._member_rows(), a.obs.tolist()
        ):
            fh.write(
                json.dumps(
                    {
                        "station_id": sid,
                        "init_date": init.isoformat(),
                        "lead_time": lead,
                        "members": row.tolist(),
                        "obs": y,
                    }
                )
            )
            fh.write("\n")


# ---------------------------------------------------------------------------
# multivariate grouping
# ---------------------------------------------------------------------------


def _lead_times(lead_times) -> tuple:
    lead_times = tuple(int(lt) for lt in lead_times)
    if len(set(lead_times)) != len(lead_times) or not lead_times:
        raise ContractViolation("lead_times must be non-empty and distinct")
    return lead_times


def group_multivariate(archive, lead_times=(1, 2, 3)) -> np.ndarray:
    """Stack records sharing (station, init date) across lead times.

    Returns the (cases, d) array of record indices: row c holds the
    records of case c in the order of ``lead_times``, and the station and
    init date of case c are those of record ``index[c, 0]``.  Cases sort
    by station and init date.  Member k of a stacked ensemble is the
    trajectory of member k over the lead times, which preserves whatever
    temporal dependence the raw ensemble carries.  Groups missing a lead
    time or mixing member counts are skipped.
    """
    a = _columns_of(archive)
    lead_times = _lead_times(lead_times)
    lead = np.array(a.lead_times, dtype=np.int64).reshape(-1)
    rec = np.flatnonzero(np.isin(lead, lead_times))
    # One row per (station, init date) in sorted order, one column per lead time.
    cols = (np.array(c, dtype=object)[rec] for c in (a.station_ids, a.init_dates))
    group = _key_codes(*cols)
    column = np.argsort(lead_times)[np.searchsorted(np.sort(lead_times), lead[rec])]
    index = np.full((group.max(initial=-1) + 1, len(lead_times)), -1, dtype=np.intp)
    index[group, column] = rec
    sizes = a.n_members[index]
    return index[(index >= 0).all(axis=1) & (sizes == sizes[:, :1]).all(axis=1)]


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------


def _checked(values: np.ndarray, score: str) -> np.ndarray:
    """ScoreValue's checks over all values at once.

    The first value in case order that is not finite, or is more
    negative than roundoff, raises ScoreValue's own NumericalError;
    negative roundoff is clamped to zero.
    """
    bad = ~np.isfinite(values) | (values < -_NEGATIVE_TOL)
    if bad.any():
        ScoreValue(float(values[bad.argmax()]), score)
    return np.where(values < 0.0, 0.0, values)


def _smooth_normals(a: Archive) -> Normal:
    """The normal fit to each record, as smooth_ensemble makes it, as one
    column of forecasts."""
    if (a.n_members < 2).any():
        raise ContractViolation("smoothing needs at least two members")
    mu, var = member_moments(a.members, a.n_members)
    return Normal(mu, np.maximum(var, VARIANCE_FLOOR))


def _score_univariate(a: Archive, score, threshold, x0, smooth) -> tuple:
    # The threshold's indicator is what twcrps's censoring integrates;
    # crps may have no threshold and ignores its weight.
    w = Constant() if threshold is None else IndicatorAbove(threshold)
    anchor = threshold if x0 is None else x0
    if smooth:
        # One call over all records in record order.
        values = _parametric_score(score, _smooth_normals(a), a.obs, w, anchor)
    else:
        kernel = None if score == "brier" else _mv_kernel({score: w}, (anchor,), None, None)
        values = np.empty(len(a))
        for k, items in _blocks(a.n_members):
            x, y = a.members[items, :k], a.obs[items]
            if kernel is None:
                values[items] = _brier_ensembles(x, y, threshold)
            else:
                values[items] = kernel(x[..., None], y[:, None])[score]
    return a.station_ids, a.init_dates, a.lead_times, values


def _mv_weight(threshold, level, warm, hot, d):
    if level is not None:
        w = HeatLevelIndicator(level, warm, hot)
        anchor = np.full(3, hot if level == 4 else warm)
        return w, anchor
    w = BoxIndicator(np.full(d, float(threshold)), np.full(d, np.inf))
    return w, np.full(d, float(threshold))


def _score_multivariate(
    a: Archive, score, threshold, level, warm, hot, p, lead_times
) -> tuple:
    index = group_multivariate(a, lead_times)
    if not len(index):
        return [], [], [], np.empty(0)
    d = index.shape[1]
    w, anchor = (None, None) if score in ("es", "vs") else _mv_weight(threshold, level, warm, hot, d)
    kernel = _mv_kernel({score: w}, anchor, p, np.ones((d, d)))
    values = np.empty(len(index))
    # Blocks follow member counts rather than case order.  That cannot
    # change which owes message is raised: archive weights are indicators,
    # so every case without weight mass has a mass of exactly 0.
    for k, cases in _blocks(a.n_members[index[:, 0]]):
        # (cases, d, m) member trajectories, viewed as (cases, m, d).
        x = a.members[index[cases], :k]
        values[cases] = kernel(x.transpose(0, 2, 1), a.obs[index[cases]])[score]
    first = index[:, 0].tolist()
    sids, dates = ([col[i] for i in first] for col in (a.station_ids, a.init_dates))
    return sids, dates, [None] * len(first), values


def _check_score(score, threshold, p, smooth, lead_times, level, x0=None) -> None:
    """Refuse a score and options that no archive could be scored with.

    These checks read no data, so ``score_archive`` makes them first and
    the CLI before it reads an archive: a bad flag is refused the same
    way whether or not the archive exists.  A threshold, x0 or p that is
    not finite is refused for every score, as the CLI refuses the flag.
    """
    for name, value in (("threshold", threshold), ("x0", x0), ("p", p)):
        if value is not None and not math.isfinite(value):
            raise ContractViolation(f"{name} must be finite, got {value!r}")
    if score in UNIVARIATE_SCORES:
        if score in _NEEDS_THRESHOLD and threshold is None:
            raise ContractViolation(f"score {score!r} needs a threshold")
        if score in ("owcrps", "owcrps_bs") and not smooth:
            raise UnsupportedInput(
                "outcome-weighted scores need a smooth forecast; set smooth: true"
            )
        return
    if score not in MULTIVARIATE_SCORES:
        raise ContractViolation(
            f"unknown score {score!r}; univariate: {UNIVARIATE_SCORES}, "
            f"multivariate: {MULTIVARIATE_SCORES}"
        )
    weighted = score not in ("es", "vs")
    if weighted and threshold is None and level is None:
        raise ContractViolation("multivariate weighted scores need a threshold or a heat level")
    d = len(_lead_times(lead_times))
    if weighted and level is not None and d != 3:
        raise DimensionMismatch(f"heat-level weights need 3 lead times, got {d}")
    if score.endswith("vs"):
        VariogramSpec(p=p)


def score_archive(
    archive,
    score: str,
    threshold: float | None = None,
    x0: float | None = None,
    p: float = 0.5,
    smooth: bool = False,
    lead_times=(1, 2, 3),
    level: int | None = None,
    warm: float = HEAT_WARM,
    hot: float = HEAT_HOT,
) -> tuple:
    """Score every case (or every stacked case) of an archive, as columns:
    (station ids, init dates, lead times, values).

    Univariate scores give one value per record, in record order;
    multivariate ones stack the given lead times per (station, init date)
    first, as ``group_multivariate`` does, and have lead times None.  Raw
    ensembles are scored in blocks by the stacked kernels, smoothed
    forecasts as one column of normals by ``_parametric_score``.
    Threshold-based weights are exceedance indicators; ``level`` selects
    the heat-level weight instead for multivariate scores.  The values
    have passed ScoreValue's checks.
    """
    _check_score(score, threshold, p, smooth, lead_times, level, x0)
    a = _columns_of(archive)
    if score in UNIVARIATE_SCORES:
        sids, dates, leads, values = _score_univariate(a, score, threshold, x0, smooth)
    else:
        sids, dates, leads, values = _score_multivariate(
            a, score, threshold, level, warm, hot, p, lead_times
        )
    return sids, dates, leads, _checked(values, score)


# ---------------------------------------------------------------------------
# skill
# ---------------------------------------------------------------------------


def skill_score(mean_score: float, mean_reference: float) -> tuple[float, bool]:
    """Relative improvement over a reference, 1 - score / reference.

    Returns (nan, True) when the reference mean is zero, since the
    ratio is undefined there; callers should report the flag rather
    than a number.
    """
    if mean_reference == 0.0:
        return float("nan"), True
    return 1.0 - mean_score / mean_reference, False


def skill_table(keys, values, ref_keys, ref_values, by: str = "lead_time") -> list:
    """Mean-score skill of scored cases against reference cases.

    ``keys`` and ``ref_keys`` hold the same key columns: station ids, init
    dates and lead times as ``score_archive`` returns them, then any more
    the cases must match on, such as the score.  Only cases whose key the
    reference has count, each against the reference's last value for that
    key; group means run over the values in case order.  ``by`` groups the
    cases by lead time, sorted as numbers with stacked cases (None) last,
    or pools everything ("all").  Returns one (group, n, mean score, mean
    reference, skill, degenerate) tuple per group.
    """
    if by not in ("lead_time", "all"):
        raise ContractViolation("by must be 'lead_time' or 'all'")
    values, ref_values = np.asarray(values, dtype=float), np.asarray(ref_values, dtype=float)
    n, n_ref = len(values), len(ref_values)
    key = _key_codes(*(list(a) + list(b) for a, b in zip(keys, ref_keys)))
    # One sort of the reversed reference keys finds each key's last case.
    ref_of = np.full(key.size, -1)
    found, last = np.unique(key[n:][::-1], return_index=True)
    ref_of[found] = n_ref - 1 - last
    match = ref_of[key[:n]]
    group = np.where(match < 0, -1, _key_codes(keys[2]) if by == "lead_time" else 0)
    rows = []
    for g in np.unique(group[group >= 0]).tolist():
        cases = np.flatnonzero(group == g)
        mean_s, mean_r = float(values[cases].mean()), float(ref_values[match[cases]].mean())
        label = "all" if by == "all" else str(keys[2][cases[0]])
        rows.append((label, cases.size, mean_s, mean_r, *skill_score(mean_s, mean_r)))
    return rows
