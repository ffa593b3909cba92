"""Forecast archive ingest, grouping, scoring, and skill tables.

An archive is a flat list of (station, init date, lead time) cases,
each carrying an ensemble and the verifying observation.  Ingest is
deliberately forgiving: malformed rows are collected as rejects with
line numbers instead of aborting, up to a configurable fraction.
"""

from __future__ import annotations

import csv
import datetime
import json
from dataclasses import dataclass

import numpy as np

from .exceptions import ContractViolation, DataError, UnsupportedInput
from .forecasts import Ensemble
from .mvscores import (
    MvEnsemble,
    VariogramSpec,
    energy_score,
    ow_energy_score,
    tw_energy_score,
    tw_variogram_score,
    variogram_score,
    vr_energy_score,
    vr_variogram_score,
)
from .postprocess import smooth_ensemble
from .uniscores import brier, crps, owcrps, owcrps_bs, twcrps, vrcrps
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
        if m.ndim != 1 or m.size == 0 or not np.all(np.isfinite(m)):
            raise ContractViolation("members must be a non-empty finite 1-d array")
        object.__setattr__(self, "members", m)
        object.__setattr__(self, "lead_time", int(self.lead_time))
        obs = float(self.obs)
        if not np.isfinite(obs):
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


def _parse_record(sid, date_str, lead_str, member_strs, obs_str) -> ArchiveRecord:
    sid = sid.strip()
    if not sid:
        raise ValueError("empty station_id")
    try:
        init = datetime.date.fromisoformat(date_str.strip())
    except ValueError:
        raise ValueError(f"bad init_date {date_str!r}") from None
    try:
        lead = int(lead_str)
    except ValueError:
        raise ValueError(f"bad lead_time {lead_str!r}") from None
    try:
        members = np.array([float(s) for s in member_strs], dtype=float)
    except ValueError:
        raise ValueError("non-numeric member value") from None
    if members.size == 0 or not np.all(np.isfinite(members)):
        raise ValueError("members must be non-empty and finite")
    try:
        obs = float(obs_str)
    except ValueError:
        raise ValueError(f"bad obs {obs_str!r}") from None
    if not np.isfinite(obs):
        raise ValueError("obs must be finite")
    return ArchiveRecord(sid, init, lead, members, obs)


def read_archive_csv(path, max_reject_fraction: float = 0.01) -> Archive:
    """Read an archive from csv.

    Expected header: station_id, init_date, lead_time, m1..mK, obs.
    An empty or header-only file yields an empty archive.  Rows that do
    not parse are collected as rejects; the read aborts with DataError
    only when their fraction exceeds ``max_reject_fraction``.
    """
    path = str(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            return Archive((), ())
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
        records = []
        rejects = []
        n_rows = 0
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            n_rows += 1
            if len(row) != len(header):
                rejects.append(
                    RejectedRow(line_no, f"expected {len(header)} fields, got {len(row)}")
                )
                continue
            try:
                rec = _parse_record(row[0], row[1], row[2], row[3 : 3 + n_members], row[-1])
            except ValueError as exc:
                rejects.append(RejectedRow(line_no, str(exc)))
                continue
            records.append(rec)
    _check_reject_fraction(n_rows, rejects, max_reject_fraction, path)
    return Archive(tuple(records), tuple(rejects))


def read_archive_jsonl(path, max_reject_fraction: float = 0.01) -> Archive:
    """Read an archive from json lines.

    Each line is an object with keys station_id, init_date, lead_time,
    members, obs.  Reject handling matches the csv reader.
    """
    path = str(path)
    records = []
    rejects = []
    n_rows = 0
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            n_rows += 1
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                rejects.append(RejectedRow(line_no, f"bad json: {exc.msg}"))
                continue
            if not isinstance(obj, dict):
                rejects.append(RejectedRow(line_no, "row is not an object"))
                continue
            missing = [
                k
                for k in ("station_id", "init_date", "lead_time", "members", "obs")
                if k not in obj
            ]
            if missing:
                rejects.append(RejectedRow(line_no, f"missing keys {missing}"))
                continue
            members = obj["members"]
            if not isinstance(members, list):
                rejects.append(RejectedRow(line_no, "members must be a list"))
                continue
            try:
                rec = _parse_record(
                    str(obj["station_id"]),
                    str(obj["init_date"]),
                    str(obj["lead_time"]),
                    [str(v) for v in members],
                    str(obj["obs"]),
                )
            except ValueError as exc:
                rejects.append(RejectedRow(line_no, str(exc)))
                continue
            records.append(rec)
    _check_reject_fraction(n_rows, rejects, max_reject_fraction, path)
    return Archive(tuple(records), tuple(rejects))


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


def group_multivariate(archive, lead_times=(1, 2, 3)) -> list:
    """Stack records sharing (station, init date) across lead times.

    Member k of the multivariate ensemble is the trajectory of member k
    over the requested lead times, which preserves whatever temporal
    dependence the raw ensemble carries.  Groups missing a lead time or
    mixing member counts are skipped.
    """
    lead_times = tuple(int(lt) for lt in lead_times)
    if len(set(lead_times)) != len(lead_times) or not lead_times:
        raise ContractViolation("lead_times must be non-empty and distinct")
    groups: dict = {}
    for rec in _records_of(archive):
        if rec.lead_time in lead_times:
            groups.setdefault((rec.station_id, rec.init_date), {})[rec.lead_time] = rec
    cases = []
    for sid, init in sorted(groups, key=lambda k: (k[0], k[1].toordinal())):
        by_lead = groups[(sid, init)]
        if set(by_lead) != set(lead_times):
            continue
        sizes = {by_lead[lt].members.size for lt in lead_times}
        if len(sizes) != 1:
            continue
        members = np.stack([by_lead[lt].members for lt in lead_times])
        obs = np.array([by_lead[lt].obs for lt in lead_times])
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


def _forecast_for(rec: ArchiveRecord, smooth: bool):
    ens = Ensemble(rec.members)
    return smooth_ensemble(ens) if smooth else ens


def _score_univariate(archive, score, threshold, x0, smooth) -> list:
    if score in _NEEDS_THRESHOLD and threshold is None:
        raise ContractViolation(f"score {score!r} needs a threshold")
    if score in ("owcrps", "owcrps_bs") and not smooth:
        raise UnsupportedInput(
            "outcome-weighted scores need a smooth forecast; set smooth: true"
        )
    rows = []
    for rec in _records_of(archive):
        fc = _forecast_for(rec, smooth)
        if score == "crps":
            sv = crps(fc, rec.obs)
        elif score == "brier":
            sv = brier(fc, rec.obs, threshold)
        elif score == "twcrps":
            sv = twcrps(fc, rec.obs, CensorAbove(threshold))
        elif score == "owcrps":
            sv = owcrps(fc, rec.obs, IndicatorAbove(threshold))
        elif score == "owcrps_bs":
            sv = owcrps_bs(fc, rec.obs, threshold)
        else:
            anchor = threshold if x0 is None else x0
            sv = vrcrps(fc, rec.obs, IndicatorAbove(threshold), anchor)
        rows.append(ScoredCase(rec.station_id, rec.init_date, rec.lead_time, score, sv.value))
    return rows


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


def _score_multivariate(
    archive, score, threshold, level, warm, hot, p, lead_times
) -> list:
    cases = group_multivariate(archive, lead_times)
    rows = []
    for case in cases:
        d = case.ensemble.dim
        if score == "es":
            sv = energy_score(case.ensemble, case.obs)
        elif score == "vs":
            sv = variogram_score(case.ensemble, case.obs, VariogramSpec(p=p))
        elif score in ("twes", "twvs", "owes", "vres", "vrvs"):
            w, anchor = _mv_weight(threshold, level, warm, hot, d)
            if score == "twes":
                sv = tw_energy_score(case.ensemble, case.obs, CollapseOutside(w, anchor))
            elif score == "twvs":
                sv = tw_variogram_score(
                    case.ensemble, case.obs, CollapseOutside(w, anchor), VariogramSpec(p=p)
                )
            elif score == "owes":
                sv = ow_energy_score(case.ensemble, case.obs, w)
            elif score == "vres":
                sv = vr_energy_score(case.ensemble, case.obs, w, x0=anchor)
            else:
                sv = vr_variogram_score(
                    case.ensemble, case.obs, w, VariogramSpec(p=p, x0=anchor)
                )
        else:
            raise ContractViolation(f"unknown multivariate score {score!r}")
        rows.append(ScoredCase(case.station_id, case.init_date, None, score, sv.value))
    return rows


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

    Univariate scores run per record; multivariate ones stack the given
    lead times per (station, init date) first.  Threshold-based weights
    are exceedance indicators; ``level`` selects the heat-level weight
    instead for multivariate scores.
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
