"""Forecast archive ingest, grouping, scoring, and skill tables.

An archive is a flat list of (station, init date, lead time) cases,
each carrying an ensemble and the verifying observation.  Ingest is
deliberately forgiving: malformed rows, and rows repeating the key of an
earlier row, are collected as rejects with line numbers instead of
aborting, up to a configurable fraction.

Raw ensembles are scored through the stacked kernels of ``uniscores``
and ``mvscores``, one call for all records (or all stacked multivariate
cases) sharing a member count; each case gets exactly the value the
per-case function gives.  The stacks are the size of the members the
records already hold, and the kernels build their member-pair
temporaries in small blocks of cases.  Smoothed forecasts are scored
case by case.
"""

from __future__ import annotations

import csv
import datetime
import json
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ContractViolation, DataError, UnsupportedInput
from .forecasts import Ensemble
# Raw ensembles are scored by the stacked kernels; the per-case
# multivariate functions are not called here, but stay bound under these
# names: perfbench's tracer wraps them here and cannot start without them.
from .mvscores import (  # noqa: F401
    MvEnsemble,
    VariogramSpec,
    _energy,
    _ow_energy,
    _transform,
    _variogram,
    _vr_energy,
    _vr_variogram,
    energy_score,
    ow_energy_score,
    tw_energy_score,
    tw_variogram_score,
    variogram_score,
    vr_energy_score,
    vr_variogram_score,
)
from .postprocess import smooth_ensemble
from .uniscores import (
    ScoreValue,
    _brier_ensembles,
    _crps_ensembles,
    _vrcrps_ensembles,
    brier,
    crps,
    owcrps,
    owcrps_bs,
    twcrps,
    vrcrps,
)
from .weights import (
    HEAT_HOT,
    HEAT_WARM,
    BoxIndicator,
    CensorAbove,
    CollapseOutside,
    HeatLevelIndicator,
    IndicatorAbove,
)

__all__ = [
    "ArchiveRecord",
    "RejectedRow",
    "Archive",
    "MultivariateCase",
    "ScoredCase",
    "SkillRow",
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


@dataclass(frozen=True)
class ArchiveRecord:
    """One forecast case: ensemble members plus verifying observation."""

    station_id: str
    init_date: datetime.date
    lead_time: int
    members: np.ndarray
    obs: float

    def __post_init__(self):
        if not self.station_id:
            raise ContractViolation("station_id must be non-empty")
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


@dataclass(frozen=True)
class Archive:
    records: tuple
    rejects: tuple = ()

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


def _check_reject_fraction(n_rows: int, rejects, max_fraction: float, path: str):
    if n_rows == 0 or not rejects:
        return
    frac = len(rejects) / n_rows
    if frac > max_fraction:
        shown = "; ".join(f"line {r.line}: {r.reason}" for r in rejects[:5])
        raise DataError(
            f"{path}: {len(rejects)} of {n_rows} rows rejected "
            f"({frac:.1%} > {max_fraction:.1%}): {shown}"
        )


def _parse_record(sid, date_str, lead_str, member_strs, obs_str, dates: dict) -> ArchiveRecord:
    """Parse one row; ``dates`` caches parsed init dates.

    The checks here only name what is wrong with a bad row; the record's
    own constructor is what guards every record.
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
    return ArchiveRecord(sid, init, lead, members, obs)


def _collect(rows, path: str, max_reject_fraction: float) -> Archive:
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
    n_rows = 0
    for line_no, fields in rows:
        n_rows += 1
        if isinstance(fields, str):
            rejects.append(RejectedRow(line_no, fields))
            continue
        try:
            rec = _parse_record(*fields, dates)
        except ValueError as exc:
            rejects.append(RejectedRow(line_no, str(exc)))
            continue
        key = (rec.station_id, rec.init_date, rec.lead_time)
        if key in first_line:
            rejects.append(RejectedRow(line_no, f"duplicate of line {first_line[key]}"))
            continue
        first_line[key] = line_no
        records.append(rec)
    _check_reject_fraction(n_rows, rejects, max_reject_fraction, path)
    return Archive(tuple(records), tuple(rejects))


def _csv_rows(path: str):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return
        if (
            len(header) < 5
            or header[0] != "station_id"
            or header[1] != "init_date"
            or header[2] != "lead_time"
            or header[-1] != "obs"
        ):
            raise DataError(
                f"{path}: expected header station_id,init_date,lead_time,m1..mK,obs"
            )
        n_members = len(header) - 4
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                yield line_no, f"expected {len(header)} fields, got {len(row)}"
            else:
                yield line_no, (row[0], row[1], row[2], row[3 : 3 + n_members], row[-1])


def read_archive_csv(path, max_reject_fraction: float = 0.01) -> Archive:
    """Read an archive from csv.

    Expected header: station_id, init_date, lead_time, m1..mK, obs.
    An empty or header-only file yields an empty archive.  Rows that do
    not parse, and rows repeating the (station, init date, lead time) of
    an earlier row, are collected as rejects; the read aborts with
    DataError only when their fraction exceeds ``max_reject_fraction``.
    """
    path = str(path)
    return _collect(_csv_rows(path), path, max_reject_fraction)


def _jsonl_rows(path: str):
    keys = ("station_id", "init_date", "lead_time", "members", "obs")
    with open(path) as fh:
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


def read_archive_jsonl(path, max_reject_fraction: float = 0.01) -> Archive:
    """Read an archive from json lines.

    Each line is an object with keys station_id, init_date, lead_time,
    members, obs.  Reject handling matches the csv reader.
    """
    path = str(path)
    return _collect(_jsonl_rows(path), path, max_reject_fraction)


def read_archive(path, max_reject_fraction: float = 0.01) -> Archive:
    """Read csv or jsonl depending on the file extension."""
    p = str(path)
    if p.endswith(".csv"):
        return read_archive_csv(p, max_reject_fraction)
    if p.endswith(".jsonl"):
        return read_archive_jsonl(p, max_reject_fraction)
    raise DataError(f"{p}: unsupported archive format; use .csv or .jsonl")


def _records_of(archive) -> tuple:
    return tuple(archive.records) if isinstance(archive, Archive) else tuple(archive)


def write_archive_csv(archive, path) -> None:
    """Write records as csv with a canonical float formatting.

    All records must share one member count; the written file reads
    back to identical records and rewriting it reproduces the bytes.
    """
    records = _records_of(archive)
    sizes = {rec.members.size for rec in records}
    if len(sizes) > 1:
        raise DataError(
            f"csv needs one member count per file, found {sorted(sizes)}; "
            "write jsonl instead"
        )
    n_members = sizes.pop() if sizes else 0
    header = (
        ["station_id", "init_date", "lead_time"]
        + [f"m{i + 1}" for i in range(n_members)]
        + ["obs"]
    )
    with open(str(path), "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for rec in records:
            writer.writerow(
                [rec.station_id, rec.init_date.isoformat(), rec.lead_time]
                + [repr(float(v)) for v in rec.members]
                + [repr(rec.obs)]
            )


def write_archive_jsonl(archive, path) -> None:
    records = _records_of(archive)
    with open(str(path), "w") as fh:
        for rec in records:
            fh.write(
                json.dumps(
                    {
                        "station_id": rec.station_id,
                        "init_date": rec.init_date.isoformat(),
                        "lead_time": rec.lead_time,
                        "members": [float(v) for v in rec.members],
                        "obs": rec.obs,
                    }
                )
            )
            fh.write("\n")


# ---------------------------------------------------------------------------
# multivariate grouping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultivariateCase:
    """Consecutive lead times of one station/init stacked into a vector."""

    station_id: str
    init_date: datetime.date
    lead_times: tuple
    ensemble: MvEnsemble
    obs: np.ndarray


def _multivariate_groups(records: tuple, lead_times) -> tuple:
    """The stacked cases of ``records``: (lead_times, groups).

    ``groups`` lists ((station, init date), record indices in lead-time
    order) sorted by station and date.  Groups missing a lead time or
    mixing member counts are skipped.
    """
    lead_times = tuple(int(lt) for lt in lead_times)
    if len(set(lead_times)) != len(lead_times) or not lead_times:
        raise ContractViolation("lead_times must be non-empty and distinct")
    by_key: dict = {}
    for i, rec in enumerate(records):
        if rec.lead_time in lead_times:
            by_key.setdefault((rec.station_id, rec.init_date), {})[rec.lead_time] = i
    groups = []
    for key in sorted(by_key, key=lambda k: (k[0], k[1].toordinal())):
        by_lead = by_key[key]
        if set(by_lead) != set(lead_times):
            continue
        idx = tuple(by_lead[lt] for lt in lead_times)
        if len({records[i].members.size for i in idx}) != 1:
            continue
        groups.append((key, idx))
    return lead_times, groups


def group_multivariate(archive, lead_times=(1, 2, 3)) -> list:
    """Stack records sharing (station, init date) across lead times.

    Member k of the multivariate ensemble is the trajectory of member k
    over the requested lead times, which preserves whatever temporal
    dependence the raw ensemble carries.  Groups missing a lead time or
    mixing member counts are skipped.
    """
    records = _records_of(archive)
    lead_times, groups = _multivariate_groups(records, lead_times)
    cases = []
    for (sid, init), idx in groups:
        members = np.stack([records[i].members for i in idx])
        obs = np.array([records[i].obs for i in idx])
        cases.append(MultivariateCase(sid, init, lead_times, MvEnsemble(members), obs))
    return cases


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScoredCase:
    station_id: str
    init_date: datetime.date
    lead_time: int | None
    score: str
    value: float


# Records, or stacked multivariate cases, per kernel call.  The kernels'
# temporaries grow with the stack: scoring the 2,400 records of m = 51
# members of the benchmark's score-raw archive in one call raised the
# peak RSS of a vrcrps run by 7.6 MiB, against 0.9 MiB in blocks of 256.
_STACK = 256


def _blocks(sizes):
    """Index lists of at most ``_STACK`` items sharing one member count.

    Items are taken in order within each member count; archives read
    from jsonl may mix member counts, which cannot share a stack.
    """
    by_size: dict = {}
    for i, m in enumerate(sizes):
        by_size.setdefault(m, []).append(i)
    for idx in by_size.values():
        for a in range(0, len(idx), _STACK):
            yield idx[a : a + _STACK]


def _scored(keys, score: str, values) -> list:
    # ScoreValue applies the per-case functions' checks: finite, and
    # negative roundoff clamped to zero.
    return [
        ScoredCase(sid, init, lead, score, ScoreValue(v, score).value)
        for (sid, init, lead), v in zip(keys, values)
    ]


def _smooth_score(fc, obs: float, score: str, threshold, x0) -> float:
    if score == "crps":
        sv = crps(fc, obs)
    elif score == "brier":
        sv = brier(fc, obs, threshold)
    elif score == "twcrps":
        sv = twcrps(fc, obs, CensorAbove(threshold))
    elif score == "owcrps":
        sv = owcrps(fc, obs, IndicatorAbove(threshold))
    elif score == "owcrps_bs":
        sv = owcrps_bs(fc, obs, threshold)
    else:
        sv = vrcrps(fc, obs, IndicatorAbove(threshold), threshold if x0 is None else x0)
    return sv.value


def _ensemble_kernel(score: str, threshold, x0):
    """The stacked kernel of a raw-ensemble score: (x (n, m), y (n,)) -> (n,)."""
    if score == "crps":
        return _crps_ensembles
    if score == "brier":
        return lambda x, y: _brier_ensembles(x, y, threshold)
    if score == "twcrps":
        v = CensorAbove(threshold)
        return lambda x, y: _crps_ensembles(v.transform(x), v.transform(y))
    if score == "vrcrps":
        w = IndicatorAbove(threshold)
        anchor = threshold if x0 is None else x0
        return lambda x, y: _vrcrps_ensembles(x, y, w, anchor)
    raise ContractViolation(f"no ensemble kernel for score {score!r}")


def _score_univariate(archive, score, threshold, x0, smooth) -> list:
    if score in _NEEDS_THRESHOLD and threshold is None:
        raise ContractViolation(f"score {score!r} needs a threshold")
    if score in ("owcrps", "owcrps_bs") and not smooth:
        raise UnsupportedInput(
            "outcome-weighted scores need a smooth forecast; set smooth: true"
        )
    records = _records_of(archive)
    if smooth:
        values = [
            _smooth_score(smooth_ensemble(Ensemble(rec.members)), rec.obs, score, threshold, x0)
            for rec in records
        ]
    else:
        kernel = _ensemble_kernel(score, threshold, x0)
        values = np.empty(len(records))
        for idx in _blocks(rec.members.size for rec in records):
            x = np.stack([records[i].members for i in idx])
            y = np.array([records[i].obs for i in idx])
            values[idx] = kernel(x, y)
    keys = [(rec.station_id, rec.init_date, rec.lead_time) for rec in records]
    return _scored(keys, score, values)


def _mv_weight(threshold, level, warm, hot, d):
    if level is not None:
        w = HeatLevelIndicator(level, warm, hot)
        anchor = np.full(3, hot if level == 4 else warm)
        return w, anchor
    if threshold is None:
        raise ContractViolation(
            "multivariate weighted scores need a threshold or a heat level"
        )
    w = BoxIndicator(np.full(d, float(threshold)), np.full(d, np.inf))
    return w, np.full(d, float(threshold))


def _mv_kernel(score: str, threshold, level, warm, hot, p, d: int):
    """The stacked kernel of a multivariate score: (x (n, m, d), y (n, d)) -> (n,)."""
    if score == "es":
        return _energy
    h = np.ones((d, d))
    if score == "vs":
        spec = VariogramSpec(p=p)
        return lambda x, y: _variogram(x, y, spec.p, h)
    w, anchor = _mv_weight(threshold, level, warm, hot, d)
    if score == "twes":
        chain = CollapseOutside(w, anchor)
        return lambda x, y: _energy(*_transform(chain, x, y))
    if score == "twvs":
        chain = CollapseOutside(w, anchor)
        spec = VariogramSpec(p=p)
        return lambda x, y: _variogram(*_transform(chain, x, y), spec.p, h)
    if score == "owes":
        return lambda x, y: _ow_energy(x, y, w)
    if score == "vres":
        return lambda x, y: _vr_energy(x, y, w, anchor)
    if score == "vrvs":
        spec = VariogramSpec(p=p, x0=anchor)
        x0 = spec.reference_for(d)
        return lambda x, y: _vr_variogram(x, y, w, spec.p, h, x0)
    raise ContractViolation(f"unknown multivariate score {score!r}")


def _score_multivariate(
    archive, score, threshold, level, warm, hot, p, lead_times
) -> list:
    records = _records_of(archive)
    lead_times, groups = _multivariate_groups(records, lead_times)
    if not groups:
        return []
    kernel = _mv_kernel(score, threshold, level, warm, hot, p, len(lead_times))
    values = np.empty(len(groups))
    # Blocks follow member counts rather than case order.  That cannot
    # change which owes message is raised: archive weights are indicators,
    # so every case without weight mass has a mass of exactly 0.
    for block in _blocks(records[idx[0]].members.size for _, idx in groups):
        cases = [groups[c][1] for c in block]
        # (cases, d, m) as in group_multivariate, viewed as (cases, m, d).
        x = np.array([[records[i].members for i in idx] for idx in cases])
        y = np.array([[records[i].obs for i in idx] for idx in cases])
        values[block] = kernel(x.transpose(0, 2, 1), y)
    keys = [(sid, init, None) for (sid, init), _ in groups]
    return _scored(keys, score, values)


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
) -> list:
    """Score every case (or every stacked case) of an archive.

    Univariate scores give one value per record; multivariate ones stack
    the given lead times per (station, init date) first.  Raw ensembles
    are scored in blocks by the stacked kernels, smoothed forecasts case
    by case.  Threshold-based weights are exceedance indicators;
    ``level`` selects the heat-level weight instead for multivariate
    scores.
    """
    if score in UNIVARIATE_SCORES:
        return _score_univariate(archive, score, threshold, x0, smooth)
    if score in MULTIVARIATE_SCORES:
        return _score_multivariate(
            archive, score, threshold, level, warm, hot, p, lead_times
        )
    raise ContractViolation(
        f"unknown score {score!r}; univariate: {UNIVARIATE_SCORES}, "
        f"multivariate: {MULTIVARIATE_SCORES}"
    )


# ---------------------------------------------------------------------------
# skill
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SkillRow:
    group: str
    n: int
    mean_score: float
    mean_reference: float
    skill: float
    degenerate: bool


def skill_score(mean_score: float, mean_reference: float) -> tuple[float, bool]:
    """Relative improvement over a reference, 1 - score / reference.

    Returns (nan, True) when the reference mean is zero, since the
    ratio is undefined there; callers should report the flag rather
    than a number.
    """
    if mean_reference == 0.0:
        return float("nan"), True
    return 1.0 - mean_score / mean_reference, False


def skill_table(scored, reference, by: str = "lead_time") -> list:
    """Mean-score skill of one set of scored cases against a reference.

    Cases are matched on (station, init date, lead time, score); only
    the intersection contributes.  ``by`` groups rows by lead time or
    pools everything ("all").
    """
    if by not in ("lead_time", "all"):
        raise ContractViolation("by must be 'lead_time' or 'all'")

    def _key(c: ScoredCase):
        return (c.station_id, c.init_date, c.lead_time, c.score)

    ref_map = {_key(c): c.value for c in reference}
    grouped: dict = {}
    for c in scored:
        k = _key(c)
        if k not in ref_map:
            continue
        g = c.lead_time if by == "lead_time" else "all"
        grouped.setdefault(g, []).append((c.value, ref_map[k]))
    rows = []
    # Lead times sort as numbers (1, 2, 10), multivariate cases (lead time
    # None) last; rows are labelled with the string form.
    for g in sorted(grouped, key=lambda g: (g is None, 0 if g is None else g)):
        vals = np.asarray(grouped[g])
        mean_s = float(vals[:, 0].mean())
        mean_r = float(vals[:, 1].mean())
        skill, degenerate = skill_score(mean_s, mean_r)
        rows.append(SkillRow(str(g), len(grouped[g]), mean_s, mean_r, skill, degenerate))
    return rows
