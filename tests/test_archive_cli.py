import ast
import csv
import datetime
import hashlib
import importlib
import importlib.util
import io
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from wverif import (
    InsufficientData,
    ContractViolation,
    DataError,
    Ensemble,
    MvEnsemble,
    Normal,
    NumericalError,
    UnsupportedInput,
    WeightedMassZero,
    crps,
    energy_score,
    skill_score,
    twcrps,
    write_archive_csv,
)
from wverif import archive, cli, grouping, kernels, postprocess
from wverif.archive import (
    Archive,
    ArchiveRecord,
    group_multivariate,
    read_archive,
    read_archive_csv,
    read_archive_jsonl,
    score_archive,
    skill_table,
    write_archive_jsonl,
)
from wverif.cli import main
from wverif.postprocess import (
    StationMeta,
    ecc_reorder,
    fit_climatology,
    fit_emos,
    lapse_rate_correct,
    predict_emos,
    smooth_ensemble,
)
from wverif.mvscores import (
    VariogramSpec,
    ow_energy_score,
    tw_energy_score,
    tw_variogram_score,
    variogram_score,
    vr_energy_score,
    vr_variogram_score,
)
from wverif.uniscores import ScoreValue, brier, owcrps, owcrps_bs, vrcrps
from wverif.weights import (
    HEAT_WARM,
    BoxIndicator,
    CensorAbove,
    CollapseOutside,
    HeatLevelIndicator,
    IndicatorAbove,
)

from emos_oracle import fit_emos_oracle


def _mk_records(n_days=3, stations=("ayr", "bex"), leads=(1, 2, 3), m=5, seed=0):
    rng = np.random.default_rng(seed)
    start = datetime.date(2024, 6, 1)
    recs = []
    for day in range(n_days):
        for sid in stations:
            for lt in leads:
                members = 20.0 + rng.normal(0.0, 2.0, m)
                obs = 20.0 + float(rng.normal(0.0, 2.0))
                recs.append(
                    ArchiveRecord(sid, start + datetime.timedelta(days=day), lt, members, obs)
                )
    return recs


def _stacked_cases(recs, lead_times=(1, 2, 3)):
    """(station, init date, MvEnsemble, obs) of each case that
    group_multivariate stacks, built from its record indices."""
    return [
        (
            recs[idx[0]].station_id,
            recs[idx[0]].init_date,
            MvEnsemble(np.array([recs[i].members for i in idx])),
            np.array([recs[i].obs for i in idx]),
        )
        for idx in group_multivariate(recs, lead_times).tolist()
    ]


def _write_csv_text(path, text):
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# reading and writing
# ---------------------------------------------------------------------------


def test_csv_round_trip_is_lossless_and_stable(tmp_path):
    recs = _mk_records()
    p1 = tmp_path / "a.csv"
    write_archive_csv(recs, p1)
    arch = read_archive_csv(p1)
    assert len(arch) == len(recs)
    assert arch.rejects == ()
    for got, want in zip(arch, recs):
        assert got.station_id == want.station_id
        assert got.init_date == want.init_date
        assert got.lead_time == want.lead_time
        assert np.array_equal(got.members, want.members)
        assert got.obs == want.obs
    p2 = tmp_path / "b.csv"
    write_archive_csv(arch, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_jsonl_round_trip(tmp_path):
    recs = _mk_records(n_days=2)
    p1 = tmp_path / "a.jsonl"
    write_archive_jsonl(recs, p1)
    arch = read_archive_jsonl(p1)
    assert len(arch) == len(recs)
    for got, want in zip(arch, recs):
        assert got.station_id == want.station_id
        assert got.init_date == want.init_date
        assert np.array_equal(got.members, want.members)
        assert got.obs == want.obs
    p2 = tmp_path / "b.jsonl"
    write_archive_jsonl(arch, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_refuses_mixed_member_counts(tmp_path):
    d = datetime.date(2024, 6, 1)
    recs = [
        ArchiveRecord("a", d, 1, [1.0, 2.0], 1.5),
        ArchiveRecord("b", d, 1, [1.0, 2.0, 3.0], 1.5),
    ]
    with pytest.raises(DataError, match="jsonl"):
        write_archive_csv(recs, tmp_path / "a.csv")
    write_archive_jsonl(recs, tmp_path / "a.jsonl")
    assert len(read_archive_jsonl(tmp_path / "a.jsonl")) == 2


def test_rejects_carry_line_numbers_and_reasons(tmp_path):
    path = _write_csv_text(
        tmp_path / "a.csv",
        "station_id,init_date,lead_time,m1,m2,obs\n"
        "a,2024-06-01,1,1.0,2.0,1.5\n"
        "a,2024-06-02,1,oops,2.0,1.5\n"
        "a,not-a-date,1,1.0,2.0,1.5\n"
        "a,2024-06-04,1,1.0,2.0,1.5\n",
    )
    arch = read_archive_csv(path, max_reject_fraction=0.9)
    assert len(arch) == 2
    assert [r.line for r in arch.rejects] == [3, 4]
    assert "non-numeric" in arch.rejects[0].reason
    assert "init_date" in arch.rejects[1].reason or "date" in arch.rejects[1].reason


def test_reject_fraction_gate(tmp_path):
    path = _write_csv_text(
        tmp_path / "a.csv",
        "station_id,init_date,lead_time,m1,obs\n"
        "a,2024-06-01,1,1.0,1.5\n"
        "a,bad,1,1.0,1.5\n",
    )
    with pytest.raises(DataError, match="rejected"):
        read_archive_csv(path)
    arch = read_archive_csv(path, max_reject_fraction=0.5)
    assert len(arch) == 1 and len(arch.rejects) == 1


def test_empty_and_header_only_files(tmp_path):
    empty = _write_csv_text(tmp_path / "empty.csv", "")
    arch = read_archive_csv(empty)
    assert len(arch) == 0 and arch.rejects == ()
    header = _write_csv_text(
        tmp_path / "header.csv", "station_id,init_date,lead_time,m1,obs\n"
    )
    assert len(read_archive_csv(header)) == 0


def test_bad_header_raises(tmp_path):
    path = _write_csv_text(
        tmp_path / "a.csv", "station,date,lead,m1,obs\na,2024-06-01,1,1.0,1.5\n"
    )
    with pytest.raises(DataError, match="header"):
        read_archive_csv(path)


def test_read_archive_dispatches_on_extension(tmp_path):
    recs = _mk_records(n_days=1)
    write_archive_csv(recs, tmp_path / "a.csv")
    write_archive_jsonl(recs, tmp_path / "a.jsonl")
    assert len(read_archive(tmp_path / "a.csv")) == len(recs)
    assert len(read_archive(tmp_path / "a.jsonl")) == len(recs)
    (tmp_path / "a.txt").write_text("x")
    with pytest.raises(DataError, match="format"):
        read_archive(tmp_path / "a.txt")


def test_csv_rejects_duplicate_rows(tmp_path):
    path = _write_csv_text(
        tmp_path / "a.csv",
        "station_id,init_date,lead_time,m1,m2,obs\n"
        "a,2024-06-01,1,1.0,2.0,1.5\n"
        "a,2024-06-01,2,1.0,2.0,1.5\n"
        "b,2024-06-01,1,1.0,2.0,1.5\n"
        "a,2024-06-01,1,3.0,4.0,3.5\n"
        "a,bad,1,1.0,2.0,1.5\n"
        "a,2024-06-01,2,5.0,6.0,5.5\n",
    )
    arch = read_archive_csv(path, max_reject_fraction=0.5)
    assert [(r.line, r.reason) for r in arch.rejects] == [
        (5, "duplicate of line 2"),
        (6, "bad init_date 'bad'"),
        (7, "duplicate of line 3"),
    ]
    # The first row of each key is kept.
    assert [r.obs for r in arch.records] == [1.5, 1.5, 1.5]
    # Duplicates count toward the reject fraction: 3 of 6 rows.
    with pytest.raises(DataError, match="3 of 6 rows rejected"):
        read_archive_csv(path, max_reject_fraction=0.4)


def test_jsonl_rejects_duplicate_rows(tmp_path):
    path = tmp_path / "a.jsonl"
    row = (
        '{{"station_id": "{s}", "init_date": "2024-06-0{d}", "lead_time": {lt}, '
        '"members": [1.0, 2.0], "obs": {obs}}}\n'
    )
    path.write_text(
        row.format(s="a", d=1, lt=1, obs=1.5)
        + row.format(s="a", d=2, lt=1, obs=1.5)
        + "\n"
        + row.format(s="a", d=1, lt=1, obs=9.5)
        + row.format(s="a", d=1, lt=2, obs=1.5)
    )
    arch = read_archive_jsonl(path, max_reject_fraction=0.25)
    assert [(r.line, r.reason) for r in arch.rejects] == [(4, "duplicate of line 1")]
    assert len(arch) == 3 and 9.5 not in [r.obs for r in arch.records]
    with pytest.raises(DataError, match="1 of 4 rows rejected"):
        read_archive_jsonl(path, max_reject_fraction=0.2)


def test_jsonl_rejects_bad_rows(tmp_path):
    path = tmp_path / "a.jsonl"
    path.write_text(
        '{"station_id": "a", "init_date": "2024-06-01", "lead_time": 1, '
        '"members": [1.0, 2.0], "obs": 1.5}\n'
        "not json\n"
        '{"station_id": "a", "init_date": "2024-06-02", "lead_time": 1, '
        '"members": [1.0, 2.0]}\n'
    )
    arch = read_archive_jsonl(path, max_reject_fraction=0.9)
    assert len(arch) == 1
    assert [r.line for r in arch.rejects] == [2, 3]
    assert "json" in arch.rejects[0].reason
    assert "obs" in arch.rejects[1].reason


def test_archive_checks_its_columns():
    d = datetime.date(2024, 6, 1)
    members = np.array([[1.0, 2.0, np.nan], [3.0, np.nan, np.nan]])
    good = dict(station_ids=("a", "b"), init_dates=(d, d), lead_times=(1, 2),
                members=members, n_members=np.array([2, 1]), obs=np.array([0.5, 1.5]))
    arch = Archive(**good)
    assert [rec.members.tolist() for rec in arch] == [[1.0, 2.0], [3.0]]
    # The archive's views are read-only; the caller's arrays stay writable.
    assert members.flags.writeable and not arch.members.flags.writeable
    for bad in (
        dict(lead_times=(1,)),
        dict(members=np.ones(2)),
        dict(obs=np.zeros((2, 1))),
        dict(n_members=np.array([2, 4])),
        dict(n_members=np.array([0, 1])),
        dict(station_ids=("a", "")),
        dict(n_members=np.array([3, 1])),
        dict(obs=np.array([0.5, np.inf])),
    ):
        with pytest.raises(ContractViolation):
            Archive(**{**good, **bad})


def test_csv_writer_writes_only_the_members_of_a_padded_archive(tmp_path):
    # The member array may be wider than every record's member count.
    d = datetime.date(2024, 6, 1)
    padded = Archive(("a", "b"), (d, d), (1, 2), [[1.5, 2.5, np.nan], [0.5, 3.0, np.nan]],
                     [2, 2], [1.0, 2.0])
    path = tmp_path / "a.csv"
    write_archive_csv(padded, path)
    assert path.read_text() == (
        "station_id,init_date,lead_time,m1,m2,obs\n"
        "a,2024-06-01,1,1.5,2.5,1.0\nb,2024-06-01,2,0.5,3.0,2.0\n"
    )


def test_csv_writer_formats_values_with_repr_and_quotes_station_ids(tmp_path):
    d = datetime.date(2024, 6, 1)
    values = [-0.0, 5e-324, 0.1, 1e300, -2.5e-8, 123456789.125]
    stations = ("plain", "a,b", 'q"x', "cr\rid", "nl\nid")
    recs = [ArchiveRecord(sid, d, lt, values, 0.3) for sid in stations for lt in (1, 2)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["station_id", "init_date", "lead_time"]
                    + [f"m{i + 1}" for i in range(len(values))] + ["obs"])
    for rec in recs:
        writer.writerow([rec.station_id, rec.init_date.isoformat(), rec.lead_time]
                        + [repr(float(v)) for v in rec.members] + [repr(rec.obs)])
    # csv.writer leaves a lone carriage return unquoted, which does not
    # read back; the archive writer quotes it.
    want = buf.getvalue().replace("\ncr\rid,", '\n"cr\rid",')
    path = tmp_path / "a.csv"
    write_archive_csv(recs, path)
    assert path.read_bytes() == want.encode()
    for sid in stations + ("", " x ", "#"):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow([sid, "1"])
        want = '"cr\rid",1\n' if sid == "cr\rid" else buf.getvalue()
        assert archive._csv_field(sid) + ",1\n" == want
    got = read_archive_csv(path)
    assert got.station_ids == tuple(r.station_id for r in recs)
    assert np.array_equal(got.members, np.array([values] * len(recs)))


# ---------------------------------------------------------------------------
# bulk csv parse against the per-row parser
# ---------------------------------------------------------------------------


def _read_or_error(read, path, max_reject_fraction):
    try:
        return read(path, max_reject_fraction)
    except DataError as exc:
        return str(exc)


def _per_row_read(path, max_reject_fraction):
    with open(path, newline="") as fh:
        got = archive._collect(archive._csv_rows(fh, path))
    archive._check_reject_fraction(got, max_reject_fraction, path)
    return got


def _assert_same_read(path):
    """The csv reader gives what the per-row parser gives: the same keys,
    bit-identical numbers, the same rejects and the same DataError, and
    it warns of nothing."""
    path = str(path)
    for frac in (1.0, 0.01):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _read_or_error(read_archive_csv, path, frac)
        want = _read_or_error(_per_row_read, path, frac)
        if isinstance(want, str):
            assert got == want
            continue
        assert got.station_ids == want.station_ids
        assert got.init_dates == want.init_dates
        assert got.lead_times == want.lead_times
        assert got.members.shape == want.members.shape
        assert got.members.tobytes() == want.members.tobytes()
        assert got.obs.tobytes() == want.obs.tobytes()
        assert np.array_equal(got.n_members, want.n_members)
        assert got.rejects == want.rejects


_HEADER = "station_id,init_date,lead_time,m1,m2,obs\n"
_GOOD = "a,2024-06-01,1,1.0,2.0,1.5\nb,2024-06-01,1,0.5,2.5,3.0\n"

# Rows appended to a clean file: one for each fault kind and for each
# way a row leaves the bulk parse.  Only a quote sends the whole file to
# the per-row parser.
_ROWS = {
    "clean": "",
    "hash_in_station": "a#1,2024-06-02,1,1.0,2.0,1.5\n",
    "whitespace": " c ,  2024-06-02 , 2 , 1.0 ,\t2.0, 1.5 \n",
    "blank_lines": "\r\n\nc,2024-06-02,1,1.0,2.0,1.5\n\n",
    "non_ascii_station": "zürich,2024-06-02,1,1.0,2.0,1.5\n",
    "non_numeric_member": "a,2024-06-02,1,oops,2.0,1.5\n",
    "nan_member": "a,2024-06-02,1,nan,2.0,1.5\n",
    "inf_obs": "a,2024-06-02,1,1.0,2.0,inf\n",
    "overflow_member": "a,2024-06-02,1,1e400,2.0,1.5\n",
    "empty_field": "a,2024-06-02,1,,2.0,1.5\n",
    "short_row": "a,2024-06-02,1,1.0,1.5\n",
    "long_row": "a,2024-06-02,1,1.0,2.0,1.5,9.5\n",
    "whitespace_row": "   \n",
    "bad_date": "a,2024-13-01,1,1.0,2.0,1.5\n",
    "bad_lead": "a,2024-06-02,x,1.0,2.0,1.5\n",
    "empty_station": " ,2024-06-02,1,1.0,2.0,1.5\n",
    "duplicate_key": "a,2024-06-01,1,3.0,4.0,3.5\n",
    "duplicate_of_rejected": "c,2024-06-02,1,x,2.0,1.5\nc,2024-06-02,1,1.0,2.0,1.5\n",
    "underscore_number": "c,2024-06-02,1,1_0,2.0,1.5\n",
    "unicode_digit": "c,2024-06-02,1,١,2.0,1.5\n",
    "quoted_station": '"c",2024-06-02,1,1.0,2.0,1.5\n',
    "quoted_number": 'c,2024-06-02,1,"1.0",2.0,1.5\n',
}


def _write(path, text):
    with open(path, "w", newline="") as fh:
        fh.write(text)


# A quoted station id over lines 2 and 3, then a bad row on line 4.
_MULTILINE_STATION = (
    "station_id,init_date,lead_time,m1,obs\n"
    '"a\nb",2024-06-01,1,1.0,1.5\n'
    "c,bad,1,1.0,1.5\n"
)


def test_rejects_after_a_multiline_field_carry_their_file_line(tmp_path):
    path = tmp_path / "a.csv"
    _write(path, _MULTILINE_STATION)
    got = read_archive_csv(path, max_reject_fraction=1.0)
    assert got.station_ids == ("a\nb",)
    assert got.rejects == (archive.RejectedRow(4, "bad init_date 'bad'"),)


@pytest.mark.parametrize(
    "name, text",
    [(k, _HEADER + _GOOD + v) for k, v in _ROWS.items()]
    + [
        ("empty", ""),
        ("header_only", _HEADER),
        ("crlf", (_HEADER + _GOOD).replace("\n", "\r\n")),
        ("no_final_newline", _HEADER + _GOOD.rstrip("\n")),
        # The header's quoted name spans two lines; rows are numbered
        # by the file line they start on, from 3.
        ("multiline_header",
         'station_id,init_date,lead_time,"m1\n5,6,7,8.0,9.0,x",obs\n'
         "a,2024-06-01,1,1.0,1.5\nb,2024-06-01,1,x,1.5\n"),
        ("multiline_station", _MULTILINE_STATION),
    ],
)
def test_bulk_csv_parse_equals_per_row_parser(tmp_path, name, text):
    path = tmp_path / "a.csv"
    _write(path, text)
    quoted = '"' in text.partition("obs")[2]
    with open(path, newline="") as fh:
        assert (archive._bulk_csv(fh, str(path)) is None) == quoted
    _assert_same_read(path)


def test_bulk_csv_parse_isolates_faults_between_blocks(tmp_path, monkeypatch):
    rows = [f"s{i % 7},2024-06-{1 + i // 7:02d},{i % 3},{i}.5,{-i}.25,{i}" for i in range(100)]
    rows[0] = rows[0].replace(".5", "_5", 1)  # refused by loadtxt, taken by float()
    rows[31] = rows[31].replace(".5", "x", 1)  # last row of the first block
    rows[32] = rows[32].replace(".25", "e400", 1)  # first row of the second block
    rows[40] = rows[5]  # duplicate from another block
    rows[63] = "s1,2024-06-99,0,1.0,2.0,3.0"  # bad key; the block loadtxt parses
    rows[64:96] = [f"b,2024-06-01,x{i},1.0,2.0,3.0" for i in range(32)]  # a block of bad keys
    path = tmp_path / "a.csv"
    _write(path, _HEADER + "\n".join(rows) + "\n")
    for block in (32, 5, 1):
        monkeypatch.setattr(archive, "_READ_BLOCK", block)
        got = read_archive_csv(path, 1.0)
        assert [r.line for r in got.rejects] == [33, 34, 42, 65] + list(range(66, 98))
        assert got.members[0, 0] == 5.0
        _assert_same_read(path)


_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-100.0, 100.0).map(repr),
    st.sampled_from(
        ["oops", "nan", "-inf", "", "1_0", "١", "1e400", "+1.", ".5", "0x10", '"4.0"']
    ),
)


@st.composite
def _csv_archive(draw):
    """A csv archive with clean rows and planted faults of every kind."""
    m = draw(st.integers(1, 4))
    lines = ["station_id,init_date,lead_time," + ",".join(f"m{i + 1}" for i in range(m)) + ",obs"]
    for _ in range(draw(st.integers(0, 8))):
        clean = draw(st.integers(0, 3)) > 0
        sid = draw(st.sampled_from(["a", "b", "c"] if clean else [" a ", "c#1", "", '"q"', "  "]))
        date = draw(st.sampled_from(
            ["2024-06-01", "2024-06-02", "2024-06-03"] if clean
            else [" 2024-06-01", "2024-02-30", "x", ""]
        ))
        lead = draw(st.sampled_from(["1", "2", "3"] if clean else [" 3 ", "+1", "x", "", "1.5"]))
        pad = st.sampled_from(["", "", " ", "\t"])
        numbers = [
            draw(pad) + draw(st.floats(-100.0, 100.0).map(repr) if clean else _NUMBER) + draw(pad)
            for _ in range(m + 1)
        ]
        fields = [sid, date, lead] + numbers
        width = draw(st.sampled_from([0] * 6 + [-1, 1]))
        fields = fields[: len(fields) + width] if width < 0 else fields + ["9.5"] * width
        lines.append(",".join(fields))
        if draw(st.integers(0, 5)) == 0:
            lines.append("")
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from([eol, ""]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_csv_archive(), st.sampled_from([1, 2, 3, 32]))
def test_bulk_csv_parse_equals_per_row_parser_property(tmp_path_factory, text, block):
    path = tmp_path_factory.getbasetemp() / "bulk_property.csv"
    _write(path, text)
    default, archive._READ_BLOCK = archive._READ_BLOCK, block
    try:
        _assert_same_read(path)
    finally:
        archive._READ_BLOCK = default


# ---------------------------------------------------------------------------
# multivariate grouping
# ---------------------------------------------------------------------------


def test_group_multivariate_stacks_member_trajectories():
    recs = _mk_records(n_days=2, stations=("s1", "s2"))
    a = archive._archive_of(recs)
    index = group_multivariate(a, lead_times=(1, 2, 3))
    assert len(index) == 4
    keys = [(a.station_ids[i], a.init_dates[i]) for i in index[:, 0]]
    assert keys == sorted(keys, key=lambda k: (k[0], k[1].toordinal()))
    by_key = {
        (r.station_id, r.init_date, r.lead_time): r for r in recs
    }
    case = index[0]
    assert a.members[case].shape == (3, 5)
    for i, lt in enumerate((1, 2, 3)):
        rec = by_key[(*keys[0], lt)]
        assert np.array_equal(a.members[case[i]], rec.members)
        assert a.obs[case[i]] == rec.obs


def test_group_multivariate_skips_incomplete_groups():
    recs = _mk_records(n_days=1, stations=("s1", "s2"))
    # drop one lead of s2 so only s1 forms a complete trajectory
    recs = [r for r in recs if not (r.station_id == "s2" and r.lead_time == 3)]
    index = group_multivariate(recs, lead_times=(1, 2, 3))
    assert [recs[i].station_id for i in index[:, 0]] == ["s1"]
    with pytest.raises(ContractViolation):
        group_multivariate(recs, lead_times=(1, 1, 2))
    with pytest.raises(ContractViolation):
        group_multivariate(recs, lead_times=())


@st.composite
def _grouping_case(draw):
    # Records on a grid of keys, each key present or not, with two member
    # counts, and the lead times to stack in any order.
    grid = [(s, d, lt) for s in ("b", "a", "a,c") for d in range(3) for lt in (1, 2, 3, 4)]
    keys = [k for k in grid if draw(st.booleans())]
    sizes = [draw(st.sampled_from([2, 2, 3])) for _ in keys]
    leads = draw(st.permutations([1, 2, 3, 4]))[: draw(st.integers(1, 4))]
    return keys, sizes, leads


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_grouping_case())
def test_multivariate_groups_equal_a_dict_grouping(case):
    keys, sizes, leads = case
    start = datetime.date(2024, 6, 1)
    recs = [
        ArchiveRecord(s, start + datetime.timedelta(days=d), lt, np.arange(m, dtype=float), 0.0)
        for (s, d, lt), m in zip(keys, sizes)
    ]
    by_key = {}
    for i, r in enumerate(recs):
        if r.lead_time in leads:
            by_key.setdefault((r.station_id, r.init_date), {})[r.lead_time] = i
    want_keys, want_index = [], []
    for key in sorted(by_key):
        idx = [by_key[key].get(lt) for lt in leads]
        if None not in idx and len({sizes[i] for i in idx}) == 1:
            want_keys.append(key)
            want_index.append(idx)
    got_index = group_multivariate(archive._archive_of(recs), leads)
    got_keys = [(recs[i].station_id, recs[i].init_date) for i in got_index[:, 0].tolist()]
    assert got_keys == want_keys
    assert got_index.tolist() == want_index and got_index.shape == (len(want_keys), len(leads))


# ---------------------------------------------------------------------------
# scoring an archive
# ---------------------------------------------------------------------------


def test_score_archive_matches_direct_calls():
    recs = _mk_records(n_days=2)
    _, _, leads, values = score_archive(recs, "crps")
    assert len(values) == len(recs)
    for lead, value, rec in zip(leads, values.tolist(), recs):
        assert value == crps(Ensemble(rec.members), rec.obs).value
        assert lead == rec.lead_time

    t = 20.5
    *_, tw_values = score_archive(recs, "twcrps", threshold=t)
    for value, rec in zip(tw_values.tolist(), recs):
        want = twcrps(Ensemble(rec.members), rec.obs, CensorAbove(t)).value
        assert value == want


def _ragged_records(n_days, seed=7, sizes=(5, 8, 1)):
    """Records whose member count alternates between stations, so that
    blocks of one member count interleave in record and case order."""
    rng = np.random.default_rng(seed)
    start = datetime.date(2024, 6, 1)
    recs = []
    for day in range(n_days):
        for sid, m in zip(("ayr", "bex", "cor"), sizes):
            for lt in (1, 2, 3):
                members = 20.0 + rng.normal(0.0, 2.0, m)
                obs = 20.0 + float(rng.normal(0.0, 2.0))
                recs.append(
                    ArchiveRecord(sid, start + datetime.timedelta(days=day), lt, members, obs)
                )
    return recs


_THRESHOLD = 20.5


def _per_case_univariate(score, rec):
    e, y, t = Ensemble(rec.members), rec.obs, _THRESHOLD
    if score == "crps":
        return crps(e, y)
    if score == "brier":
        return brier(e, y, t)
    if score == "twcrps":
        return twcrps(e, y, CensorAbove(t))
    return vrcrps(e, y, IndicatorAbove(t), t)


def _per_case_multivariate(score, case):
    _, _, e, y = case
    w, z0 = HeatLevelIndicator(1), np.full(3, HEAT_WARM)
    return {
        "es": lambda: energy_score(e, y),
        "vs": lambda: variogram_score(e, y),
        "twes": lambda: tw_energy_score(e, y, CollapseOutside(w, z0)),
        "twvs": lambda: tw_variogram_score(e, y, CollapseOutside(w, z0)),
        "owes": lambda: ow_energy_score(e, y, w),
        "vres": lambda: vr_energy_score(e, y, w, x0=z0),
        "vrvs": lambda: vr_variogram_score(e, y, w, VariogramSpec(x0=z0)),
    }[score]()


@pytest.mark.parametrize("score", ["crps", "brier", "twcrps", "vrcrps"])
def test_stacked_univariate_scores_equal_per_case_functions(score, monkeypatch):
    # Three member counts, each filling two kernel blocks and part of a third.
    monkeypatch.setattr(kernels, "_PAIR_BLOCK", 16)
    recs = _ragged_records(12)
    *keys, values = score_archive(recs, score, threshold=_THRESHOLD)
    assert list(zip(*keys)) == [(r.station_id, r.init_date, r.lead_time) for r in recs]
    assert values.tolist() == [_per_case_univariate(score, rec).value for rec in recs]


@pytest.mark.parametrize("score", ["es", "vs", "twes", "twvs", "owes", "vres", "vrvs"])
def test_stacked_multivariate_scores_equal_per_case_functions(score, monkeypatch):
    # Three member counts, each filling one kernel block and part of another.
    monkeypatch.setattr(kernels, "_PAIR_BLOCK", 16)
    monkeypatch.setattr(kernels, "_BLOCK", 16)
    recs = _ragged_records(16 + 7)
    sids, dates, _, values = score_archive(recs, score, level=1)
    cases = _stacked_cases(recs)
    assert len(values) == len(cases) == 3 * (16 + 7)
    assert list(zip(sids, dates)) == [(sid, init) for sid, init, _, _ in cases]
    assert values.tolist() == [_per_case_multivariate(score, c).value for c in cases]


@pytest.mark.parametrize("score", ["twes", "twvs", "owes", "vres", "vrvs"])
def test_weighted_multivariate_score_without_a_weight_is_refused(score):
    # No (station, init date) has all three lead times, so there is
    # nothing to score; the missing weight is refused all the same, as
    # it is on an archive with stacked cases.
    recs = [r for r in _mk_records(n_days=2) if r.lead_time != 3]
    for archive_recs in (recs, _mk_records(n_days=2)):
        with pytest.raises(ContractViolation, match="a threshold or a heat level"):
            score_archive(archive_recs, score)


def test_score_archive_owes_raises_the_per_case_message():
    recs = _mk_records(n_days=2)
    start = datetime.date(2024, 6, 1)
    # Observations in the box [25, inf)^3, no member there.
    recs += [ArchiveRecord("zzz", start, lt, np.full(5, 15.0), 30.0) for lt in (1, 2, 3)]
    with pytest.raises(WeightedMassZero) as per_case:
        for _, _, ens, obs in _stacked_cases(recs):
            w = BoxIndicator(np.full(3, 25.0), np.full(3, np.inf))
            ow_energy_score(ens, obs, w)
    with pytest.raises(WeightedMassZero) as stacked:
        score_archive(recs, "owes", threshold=25.0)
    assert str(stacked.value) == str(per_case.value)


def _per_case_smooth(score, rec, x0=None):
    f, y, t = smooth_ensemble(Ensemble(rec.members)), rec.obs, _THRESHOLD
    w = IndicatorAbove(t)
    return {
        "crps": lambda: crps(f, y),
        "brier": lambda: brier(f, y, t),
        "twcrps": lambda: twcrps(f, y, CensorAbove(t)),
        "owcrps": lambda: owcrps(f, y, w),
        "owcrps_bs": lambda: owcrps_bs(f, y, t),
        "vrcrps": lambda: vrcrps(f, y, w, t if x0 is None else x0),
    }[score]()


@pytest.mark.parametrize("x0", [None, 19.0], ids=["x0_default", "x0_given"])
@pytest.mark.parametrize("score", archive.UNIVARIATE_SCORES)
def test_score_archive_smooth_route(score, x0):
    # Three member counts, interleaved in record order.
    recs = _ragged_records(12, sizes=(5, 8, 3))
    *keys, values = score_archive(recs, score, threshold=_THRESHOLD, x0=x0, smooth=True)
    assert list(zip(*keys)) == [(r.station_id, r.init_date, r.lead_time) for r in recs]
    assert values.tolist() == [_per_case_smooth(score, rec, x0).value for rec in recs]


def _with_tail_mass(rec, a):
    """``rec`` with members whose normal fit puts the threshold ``a`` sds
    above its mean, and an observation above the threshold."""
    z = rec.members - rec.members.mean()
    members = _THRESHOLD + 0.01 * (z / z.std(ddof=1) - a)
    return ArchiveRecord(rec.station_id, rec.init_date, rec.lead_time, members, _THRESHOLD + 1.0)


@pytest.mark.parametrize("score", ["owcrps", "owcrps_bs"])
def test_score_archive_smooth_raises_for_the_first_failing_record(score):
    # Member counts are grouped 5, 8, 3 for the moments; the first record
    # without tail mass has 8 members, a later one 5.
    recs = _ragged_records(12, sizes=(5, 8, 3))
    recs[3] = _with_tail_mass(recs[3], 7.5)
    recs[45] = _with_tail_mass(recs[45], 8.0)
    assert (recs[3].members.size, recs[45].members.size) == (8, 5)
    with pytest.raises(WeightedMassZero) as first:
        _per_case_smooth(score, recs[3])
    with pytest.raises(WeightedMassZero) as per_case:
        for rec in recs:
            _per_case_smooth(score, rec)
    with pytest.raises(WeightedMassZero) as stacked:
        score_archive(recs, score, threshold=_THRESHOLD, smooth=True)
    assert str(stacked.value) == str(per_case.value) == str(first.value)


def test_score_archive_smooth_refuses_one_member_records():
    recs = _ragged_records(2)
    assert recs[6].members.size == 1
    with pytest.raises(ContractViolation) as per_case:
        smooth_ensemble(Ensemble(recs[6].members))
    with pytest.raises(ContractViolation) as stacked:
        score_archive(recs, "crps", smooth=True)
    assert str(stacked.value) == str(per_case.value)


def test_outcome_weighted_scores_need_smooth_forecasts():
    recs = _mk_records(n_days=1)
    with pytest.raises(UnsupportedInput, match="smooth"):
        score_archive(recs, "owcrps", threshold=20.0)
    with pytest.raises(UnsupportedInput, match="smooth"):
        score_archive(recs, "owcrps_bs", threshold=20.0)


def test_checked_scores_apply_score_value_checks_in_case_order():
    values = np.array([0.5, -1e-12, -0.0, 2.0])
    got = archive._checked(values, "crps")
    assert got.tolist() == [ScoreValue(v, "crps").value for v in values.tolist()]
    assert math.copysign(1.0, got[2]) == -1.0
    for bad in ([0.5, -1.0, np.nan], [0.5, np.inf, -1.0], [np.nan, -1.0]):
        with pytest.raises(NumericalError) as per_case:
            [ScoreValue(v, "es") for v in bad]
        with pytest.raises(NumericalError) as stacked:
            archive._checked(np.array(bad), "es")
        assert str(stacked.value) == str(per_case.value)


def test_score_archive_validation():
    recs = _mk_records(n_days=1)
    with pytest.raises(ContractViolation, match="threshold"):
        score_archive(recs, "twcrps")
    with pytest.raises(ContractViolation, match="unknown score"):
        score_archive(recs, "xyz")


@pytest.mark.parametrize(
    "score, kwargs",
    [
        ("twcrps", dict(threshold=np.inf)),
        ("twcrps", dict(threshold=np.inf, smooth=True)),
        ("vrcrps", dict(threshold=20.0, x0=np.nan)),
        ("vrcrps", dict(threshold=20.0, x0=-np.inf, smooth=True)),
        ("twes", dict(threshold=np.inf)),
        ("vres", dict(threshold=-np.inf)),
        ("vrvs", dict(threshold=np.inf)),
        ("vs", dict(p=np.inf)),
        ("crps", dict(p=np.nan)),
    ],
)
def test_score_archive_refuses_non_finite_numbers_before_reading(score, kwargs, monkeypatch):
    """A threshold, x0 or p that is not finite is refused as the CLI
    refuses the flag, before any record is read."""

    def unread(_):
        raise AssertionError("the archive was read")

    monkeypatch.setattr(archive, "_columns_of", unread)
    name = next(k for k, v in kwargs.items() if not np.isfinite(v))
    with pytest.raises(ContractViolation, match=f"^{name} must be finite"):
        score_archive(_mk_records(n_days=1), score, **kwargs)


def test_score_archive_multivariate_matches_grouped_cases():
    recs = _mk_records(n_days=2)
    _, _, leads, values = score_archive(recs, "es")
    cases = _stacked_cases(recs)
    assert len(values) == len(cases)
    for lead, value, (_, _, ens, obs) in zip(leads, values.tolist(), cases):
        assert value == energy_score(ens, obs).value
        assert lead is None


# ---------------------------------------------------------------------------
# skill
# ---------------------------------------------------------------------------


def test_skill_score_value():
    skill, degenerate = skill_score(0.88, 1.05)
    assert not degenerate
    assert abs(skill - 0.162) < 1e-3
    assert_allclose(skill, 1.0 - 0.88 / 1.05, rtol=1e-15)
    skill, degenerate = skill_score(0.5, 0.0)
    assert degenerate and math.isnan(skill)


def _skill_columns(cases):
    """The key columns (station, init date, lead time, score) and the
    values of (station, init date, lead time, score, value) cases."""
    return [[c[k] for c in cases] for k in range(4)], np.array([c[4] for c in cases])


def test_skill_table_matches_on_case_and_groups():
    d = datetime.date(2024, 6, 1)
    scored = _skill_columns([
        ("a", d, 1, "crps", 0.8),
        ("a", d, 2, "crps", 0.96),
        ("b", d, 1, "crps", 1.0),
        ("c", d, 1, "crps", 5.0),  # not in the reference
    ])
    reference = _skill_columns([
        ("a", d, 1, "crps", 1.0),
        ("a", d, 2, "crps", 1.2),
        ("b", d, 1, "crps", 1.0),
    ])
    rows = skill_table(*scored, *reference, by="lead_time")
    assert [r[0] for r in rows] == ["1", "2"]
    _, n, mean_score, mean_reference, skill, _ = rows[0]
    assert n == 2
    assert_allclose(mean_score, 0.9)
    assert_allclose(mean_reference, 1.0)
    assert_allclose(skill, 0.1)
    assert_allclose(rows[1][4], 0.2)

    pooled = skill_table(*scored, *reference, by="all")
    assert len(pooled) == 1 and pooled[0][1] == 3
    with pytest.raises(ContractViolation):
        skill_table(*scored, *reference, by="station")


def _dict_skill_table(scored, reference, by):
    # The join as a dict over (station, init date, lead time, score), the
    # last reference case of a key winning.
    ref = {c[:4]: c[4] for c in reference}
    grouped = {}
    for c in scored:
        if c[:4] in ref:
            g = c[2] if by == "lead_time" else "all"
            grouped.setdefault(g, []).append((c[4], ref[c[:4]]))
    rows = []
    for g in sorted(grouped, key=lambda g: (g is None, 0 if g is None else g)):
        vals = np.asarray(grouped[g])
        mean_s, mean_r = float(vals[:, 0].mean()), float(vals[:, 1].mean())
        rows.append((str(g), len(grouped[g]), mean_s, mean_r, *skill_score(mean_s, mean_r)))
    return rows


@st.composite
def _scored_cases(draw):
    d0 = datetime.date(2024, 6, 1)
    case = st.tuples(
        st.sampled_from(["a", "b", "ab", "b,c"]),
        st.sampled_from([d0, d0 + datetime.timedelta(days=1)]),
        st.sampled_from([1, 2, 10, None]),
        st.sampled_from(["crps", "es"]),
        st.floats(0.0, 10.0),
    )
    return draw(st.lists(case, max_size=30)), draw(st.lists(case, max_size=30))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_scored_cases(), st.sampled_from(["lead_time", "all"]))
def test_skill_table_equals_a_dict_join(cases, by):
    # Duplicate keys, keys differing only in the score, cases missing from
    # either side, and stacked cases (lead time None) among lead times.
    scored, reference = cases
    got = skill_table(*_skill_columns(scored), *_skill_columns(reference), by=by)
    want = _dict_skill_table(scored, reference, by)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g[:4] == w[:4] and g[5] == w[5]
        assert g[4] == w[4] or (math.isnan(g[4]) and math.isnan(w[4]))


def test_skill_table_sorts_lead_times_numerically():
    d = datetime.date(2024, 6, 1)
    cases = [("a", d, lead, "crps", 1.0) for lead in (10, 2, 1)]
    cases.append(("a", d, None, "es", 1.0))
    columns = _skill_columns(cases)
    rows = skill_table(*columns, *columns, by="lead_time")
    assert [r[0] for r in rows] == ["1", "2", "10", "None"]


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def _write_archive_file(tmp_path, name="arch.csv", **kwargs):
    path = tmp_path / name
    write_archive_csv(_mk_records(**kwargs), path)
    return str(path)


@pytest.mark.parametrize("write", [write_archive_csv, write_archive_jsonl])
def test_archives_refuse_station_ids_the_readers_would_strip(tmp_path, write):
    """Both readers strip station ids, so " x " written as it stands would
    read back as "x", and a record of "x" on its key as its duplicate."""
    d = datetime.date(2024, 6, 1)
    path = tmp_path / ("a.csv" if write is write_archive_csv else "a.jsonl")

    def round_trip(ids):
        n = len(ids)
        write(Archive(ids, (d,) * n, (1,) * n, np.ones((n, 1)), [1] * n, [0.5] * n), path)
        return read_archive(path).station_ids

    assert round_trip(("x", "y z")) == ("x", "y z")
    for sid in (" x ", "x\t", "\nx"):
        with pytest.raises(ContractViolation, match="whitespace"):
            round_trip((sid, "x"))
        with pytest.raises(ContractViolation, match="whitespace"):
            ArchiveRecord(sid, d, 1, [1.0], 0.5)


def _manifest_without_timing(path):
    with open(path) as fh:
        manifest = json.load(fh)
    manifest.pop("wall_time_s")
    return manifest


def test_cli_score_runs_are_byte_identical(tmp_path):
    arch = _write_archive_file(tmp_path)
    outs = [str(tmp_path / f"run{i}") for i in (1, 2)]
    for out in outs:
        code = main(
            ["score", "--archive", arch, "--score", "twcrps",
             "--threshold", "21.0", "--out", out, "--seed", "4"]
        )
        assert code == 0
    for name in ("scores.csv", "summary.json"):
        b1 = (tmp_path / "run1" / name).read_bytes()
        b2 = (tmp_path / "run2" / name).read_bytes()
        assert b1 == b2
    m1 = _manifest_without_timing(tmp_path / "run1" / "manifest.json")
    m2 = _manifest_without_timing(tmp_path / "run2" / "manifest.json")
    assert m1 == m2
    assert m1["task"] == "score"
    assert m1["outputs"] == ["scores.csv", "summary.json"]

    with open(tmp_path / "run1" / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["n_scored"] == summary["n_records"] == 18
    assert np.isfinite(summary["mean"])


def test_cli_rerun_into_a_used_out_creates_every_output_anew(tmp_path, capsys):
    """A run into a used --out writes the bytes of a run into a fresh
    directory, each output a new file: a longer file leaves no stale
    tail, a hard link or an open handle to an old output keeps its old
    bytes, an old mode is not kept, and a symlink is replaced by a
    regular file with its target untouched.  A directory in the way of
    an output is a data problem, and the directory survives."""
    arch = _write_archive_file(tmp_path)
    fresh, used = tmp_path / "fresh", tmp_path / "used"

    def run(out):
        return main(["score", "--archive", arch, "--score", "crps", "--out", str(out)])

    assert run(fresh) == 0 and run(used) == 0
    planted = b"x" * (2 * len((fresh / "scores.csv").read_bytes()))
    (used / "scores.csv").write_bytes(planted)
    os.link(used / "scores.csv", tmp_path / "link.csv")
    os.chmod(used / "manifest.json", 0o600)
    old_manifest = (used / "manifest.json").read_bytes()
    target = tmp_path / "target.json"
    target.write_text("target\n")
    (used / "summary.json").unlink()
    (used / "summary.json").symlink_to(target)
    with open(used / "scores.csv", "rb") as scores, open(used / "manifest.json", "rb") as manifest:
        assert run(used) == 0
        for fh in (scores, manifest):
            new = os.stat(fh.name)
            assert new.st_ino != os.fstat(fh.fileno()).st_ino and new.st_nlink == 1
        assert scores.read() == planted and manifest.read() == old_manifest
    assert (tmp_path / "link.csv").read_bytes() == planted
    assert not (used / "summary.json").is_symlink() and target.read_text() == "target\n"
    for name in ("scores.csv", "summary.json"):
        assert (used / name).read_bytes() == (fresh / name).read_bytes()
    for name in ("scores.csv", "summary.json", "manifest.json"):
        assert os.stat(used / name).st_mode == os.stat(fresh / name).st_mode
    assert _manifest_without_timing(used / "manifest.json") == _manifest_without_timing(
        fresh / "manifest.json"
    )

    (used / "scores.csv").unlink()
    (used / "scores.csv").mkdir()
    (used / "scores.csv" / "keep").write_text("kept\n")
    capsys.readouterr()
    assert run(used) == 2
    assert capsys.readouterr().err.startswith("wverif: ")
    assert (used / "scores.csv" / "keep").read_text() == "kept\n"


def test_cli_smooth_owcrps_past_a_far_threshold_is_the_crps(tmp_path):
    """Under a threshold far below every forecast each outcome has weight
    one, so the smoothed owCRPS of each record is its CRPS."""
    arch = _write_archive_file(tmp_path)
    values = {}
    for score in ("owcrps", "crps"):
        out = tmp_path / score
        argv = ["score", "--archive", arch, "--smooth", "--score", score, "--out", str(out)]
        assert main(argv + ["--threshold=-1e20"]) == 0
        with open(out / "scores.csv", newline="") as fh:
            values[score] = [float(row["value"]) for row in csv.DictReader(fh)]
    assert len(values["crps"]) == 18 and min(values["crps"]) > 0.0
    assert_allclose(values["owcrps"], values["crps"], rtol=1e-14, atol=0.0)


def test_cli_score_values_match_library(tmp_path):
    arch = _write_archive_file(tmp_path)
    out = tmp_path / "out"
    assert main(["score", "--archive", arch, "--score", "crps", "--out", str(out)]) == 0
    import csv as csvmod

    with open(out / "scores.csv", newline="") as fh:
        rows = list(csvmod.DictReader(fh))
    recs = {
        (r.station_id, r.init_date.isoformat(), str(r.lead_time)): r
        for r in read_archive_csv(arch)
    }
    assert len(rows) == len(recs)
    for row in rows:
        rec = recs[(row["station_id"], row["init_date"], row["lead_time"])]
        want = crps(Ensemble(rec.members), rec.obs).value
        assert float(row["value"]) == want


def test_cli_score_jsonl_format(tmp_path):
    arch = _write_archive_file(tmp_path)
    out = tmp_path / "out"
    code = main(
        ["score", "--archive", arch, "--score", "es", "--format", "jsonl",
         "--out", str(out)]
    )
    assert code == 0
    lines = (out / "scores.jsonl").read_text().splitlines()
    assert len(lines) == 6
    row = json.loads(lines[0])
    assert row["score"] == "es" and row["lead_time"] is None


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("score", ["crps", "es"])
def test_cli_score_tables_hold_score_archives_sorted_columns(tmp_path, score, fmt):
    """scores.csv and scores.jsonl list score_archive's columns sorted by
    station, init date and lead time, with station ids quoted in csv; es
    stacks the lead times, so its lead time is blank in csv and null in jsonl."""
    path = tmp_path / "a.csv"
    write_archive_csv(_mk_records(n_days=2, stations=("plain", 'q"x', "a,b", "nl\nid")), path)
    out = tmp_path / "out"
    argv = ["score", "--archive", str(path), "--score", score, "--format", fmt, "--out", str(out)]
    assert main(argv) == 0
    *keys, values = score_archive(read_archive(path), score)
    rows = sorted(zip(*keys, values.tolist()), key=lambda r: (r[0], r[1], r[2] or 0))
    sids, dates, leads, vals = zip(*rows)
    assert (score == "es") == (set(leads) == {None})
    if fmt == "csv":
        header = ("station_id", "init_date", "lead_time", "score", "value")
        want = _table_oracle(header, (sids, dates, leads, [score] * len(vals), vals))
    else:
        want = "".join(
            json.dumps({"station_id": sid, "init_date": d.isoformat(), "lead_time": lead,
                        "score": score, "value": v}, sort_keys=True) + "\n"
            for sid, d, lead, v in rows
        ).encode()
    assert (out / f"scores.{fmt}").read_bytes() == want


def test_cli_exit_codes(tmp_path):
    arch = _write_archive_file(tmp_path)
    out = str(tmp_path / "o")
    # usage problems
    assert main(["score", "--no-such-flag"]) == 1
    assert main([]) == 1
    assert main(["score", "--archive", arch, "--score", "crps",
                 "--out", out, "--seed", "-1"]) == 1
    assert main(["synth", "ideal_forecaster", "--param", "bogus=1",
                 "--out", out]) == 1
    assert main(["synth", "ideal_forecaster", "--param", "oops",
                 "--out", out]) == 1
    # data problems
    assert main(["score", "--archive", str(tmp_path / "missing.csv"),
                 "--score", "crps", "--out", out]) == 2
    bad = _write_csv_text(tmp_path / "bad.csv", "a,b\n1,2\n")
    assert main(["score", "--archive", bad, "--score", "crps", "--out", out]) == 2
    # numerical problems: the outcome lands in a region where the smooth
    # forecast carries essentially no mass
    far = tmp_path / "far.csv"
    write_archive_csv(
        [ArchiveRecord("zzz", datetime.date(2024, 6, 1), 1,
                       [0.1, -0.2, 0.05, 0.3], 150.0)],
        far,
    )
    assert main(["score", "--archive", str(far), "--score", "owcrps",
                 "--threshold", "100", "--smooth", "--out", out]) == 3
    assert main(["--version"]) == 0


def test_cli_diagnose_outputs(tmp_path):
    arch = _write_archive_file(tmp_path, n_days=30, stations=("ayr",), leads=(1,))
    out = tmp_path / "diag"
    code = main(
        ["diagnose", "--archive", arch, "--smooth", "--thresholds", "20.5",
         "--bins", "10", "--corp-resamples", "50", "--out", str(out), "--seed", "3"]
    )
    assert code == 0
    import csv as csvmod

    with open(out / "ranks.csv", newline="") as fh:
        rank_rows = list(csvmod.DictReader(fh))
    assert len(rank_rows) == 6  # five members, six rank slots
    assert sum(int(r["count"]) for r in rank_rows) == 30
    for name in ("pit_hist.csv", "cpit_hist_20p5.csv", "cpit_ecdf_20p5.csv",
                 "corp_20p5.csv", "summary.json", "manifest.json"):
        assert (out / name).exists(), name
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["n_records"] == 30 and summary["members"] == 5
    assert summary["thresholds"][0]["n_exceed"] > 0

    # Per-record reference: ranks with ties broken by one draw per record
    # in record order, and PITs of the smoothed normal from the standard
    # library.
    gen = np.random.default_rng(3)
    want_ranks = np.zeros(6, dtype=int)
    pits = []
    for rec in read_archive(arch):
        ties = int(np.sum(rec.members == rec.obs))
        want_ranks[int(np.sum(rec.members < rec.obs)) + int(gen.integers(0, ties + 1))] += 1
        x = rec.members.tolist()
        pits.append(statistics.NormalDist(statistics.fmean(x), statistics.stdev(x)).cdf(rec.obs))
    assert [int(r["count"]) for r in rank_rows] == want_ranks.tolist()
    with open(out / "pit_hist.csv", newline="") as fh:
        pit_counts = [int(r["count"]) for r in csvmod.DictReader(fh)]
    assert pit_counts == np.histogram(pits, bins=10, range=(0.0, 1.0))[0].tolist()
    entry = summary["thresholds"][0]
    n_above = sum(rec.obs > 20.5 for rec in read_archive(arch))
    assert entry["n_exceed"] + entry["n_skipped"] == n_above


def test_cli_postprocess_pipeline(tmp_path):
    arch_path = _write_archive_file(
        tmp_path, n_days=28, stations=("ayr", "bex"), leads=(1, 2, 3), seed=9
    )
    stations = tmp_path / "stations.csv"
    stations.write_text(
        "station_id,mhd,tpi,model_height,station_height\n"
        "ayr,0.4,-0.2,120,80\n"
        "bex,1.1,0.6,,\n"
    )
    out = tmp_path / "pp"
    code = main(
        ["postprocess", "--archive", arch_path, "--stations", str(stations),
         "--window-days", "20", "--ecc", "--climatology", "--out", str(out)]
    )
    assert code == 0
    import csv as csvmod

    with open(out / "predictions.csv", newline="") as fh:
        preds = list(csvmod.DictReader(fh))
    assert preds, "the pipeline produced no predictions"
    assert all(float(p["sd"]) > 0.0 for p in preds)
    params = [json.loads(line) for line in (out / "params.jsonl").read_text().splitlines()]
    assert params
    assert {"beta", "sigma0", "sigma1", "lead_time", "n_train"} <= set(params[0])
    assert len(params[0]["beta"]) == 4
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_fits"] == len(params)
    assert summary["n_fits_not_converged"] == sum(not p["converged"] for p in params)
    assert summary["fit_iters_max"] == max(p["n_iter"] for p in params)

    ecc = read_archive_csv(out / "ecc.csv")
    assert len(ecc) > 0
    raw = {
        (r.station_id, r.init_date, r.lead_time): r for r in read_archive_csv(arch_path)
    }
    pred_map = {
        (p["station_id"], p["init_date"], int(p["lead_time"])): (
            float(p["mean"]), float(p["sd"])
        )
        for p in preds
    }
    from wverif import Normal

    for rec in list(ecc)[:6]:
        raw_rec = raw[(rec.station_id, rec.init_date, rec.lead_time)]
        assert np.array_equal(np.argsort(rec.members), np.argsort(raw_rec.members))
        mean, sd = pred_map[(rec.station_id, rec.init_date.isoformat(), rec.lead_time)]
        m = rec.members.size
        want = Normal(mean, sd**2).ppf((np.arange(m) + 0.5) / m)
        assert_allclose(np.sort(rec.members), want, rtol=1e-12)

    with open(out / "climatology.csv", newline="") as fh:
        clim = list(csvmod.DictReader(fh))
    assert [c["station_id"] for c in clim] == ["ayr", "bex"]
    assert all(int(c["n"]) == 28 * 3 for c in clim)


def test_postprocess_moments_equal_each_records_own():
    # Row-wise over the NaN-padded groups of one member count, lapse-rate
    # corrected for stations with heights; bit-identical to one record at
    # a time.
    recs = _ragged_records(6)
    stations = {"ayr": (0.4, -0.2, 120.0, 80.0), "cor": (0.0, 0.0, 95.5, 101.25)}
    a = archive._archive_of(recs)
    columns = cli._stations_of(a, stations)
    xbar, var = postprocess.member_moments(a.members, a.n_members, columns[:, 2:])
    for rec, m, v in zip(recs, xbar, var):
        heights = stations[rec.station_id][2:] if rec.station_id in stations else None
        x = rec.members if heights is None else lapse_rate_correct(rec.members, *heights)
        assert m == float(x.mean())
        assert v == (float(x.var(ddof=1)) if x.size > 1 else 0.0)


def test_cli_ecc_skips_incomplete_and_mixed_groups(tmp_path):
    # On day 12, bex lacks lead time 3 and cor has 6 members at lead time 2.
    recs = _mk_records(n_days=15, stations=("ayr", "bex", "cor"), seed=4)
    day12 = datetime.date(2024, 6, 13)
    recs = [r for r in recs if (r.station_id, r.init_date, r.lead_time) != ("bex", day12, 3)]
    recs = [
        ArchiveRecord(r.station_id, r.init_date, r.lead_time, np.append(r.members, 20.0), r.obs)
        if (r.station_id, r.init_date, r.lead_time) == ("cor", day12, 2) else r
        for r in recs
    ]
    path = tmp_path / "arch.jsonl"
    write_archive_jsonl(recs, path)
    out = tmp_path / "pp"
    assert main(["postprocess", "--archive", str(path), "--ecc", "--out", str(out)]) == 0
    with open(out / "predictions.csv", newline="") as fh:
        preds = {
            (p["station_id"], datetime.date.fromisoformat(p["init_date"]), int(p["lead_time"])):
            (float(p["mean"]), float(p["sd"]))
            for p in csv.DictReader(fh)
        }
    assert ("cor", day12, 2) in preds
    groups = {(sid, d) for sid, d, _ in preds if all((sid, d, lt) in preds for lt in (1, 2, 3))}
    ecc = read_archive_csv(out / "ecc.csv")
    assert set(zip(ecc.station_ids, ecc.init_dates)) == groups - {("cor", day12)}
    assert ("ayr", day12) in groups and ("bex", day12) not in groups
    raw = {(r.station_id, r.init_date, r.lead_time): r for r in recs}
    for rec in ecc:
        mean, sd = preds[(rec.station_id, rec.init_date, rec.lead_time)]
        raw_rec = raw[(rec.station_id, rec.init_date, rec.lead_time)]
        assert rec.obs == raw_rec.obs
        assert np.array_equal(np.argsort(rec.members), np.argsort(raw_rec.members))
        assert_allclose(np.sort(rec.members), Normal(mean, sd**2).ppf((np.arange(5) + 0.5) / 5), rtol=1e-12)


_EDGE_STATIONS = (
    "station_id,mhd,tpi,model_height,station_height\n"
    "ayr,0.4,-0.2,120,80\n"
    "bex,1.1,0.6,,\n"
)
# The library's view of _EDGE_STATIONS: (StationMeta, heights or None).
_EDGE_META = {
    "ayr": (StationMeta("ayr", 0.4, -0.2), (120.0, 80.0)),
    "bex": (StationMeta("bex", 1.1, 0.6), None),
}


@pytest.mark.parametrize("row", [
    "bex,nan,0.6,,", "bex,1.1,inf,,", "bex,1.1,0.6,-inf,80", "bex,1.1,0.6,120,nan", "bex,x,0.6,,",
    "bex,1.1",
])
def test_cli_postprocess_refuses_station_metadata_that_is_not_a_finite_number(tmp_path, capsys, row):
    # A data error in the stations file (exit 2), not a usage error (exit 1)
    # from the fit it would spoil; blank heights still mean no correction.
    arch = _write_archive_file(tmp_path, n_days=12, stations=("ayr", "bex"), leads=(1,), seed=3)
    stations = tmp_path / "stations.csv"
    stations.write_text(_EDGE_STATIONS.replace("bex,1.1,0.6,,", row))
    argv = ["postprocess", "--archive", arch, "--stations", str(stations), "--out", str(tmp_path / "pp")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "stations.csv" in err and "'bex'" in err
    stations.write_text(_EDGE_STATIONS)
    assert main(argv) == 0


@pytest.mark.parametrize(
    "row", ["ayr,0.1,0.2,,", ",1.1,0.6,,", "  ,1.1,0.6,,"], ids=["repeated", "empty", "blank"]
)
def test_cli_postprocess_refuses_a_repeated_or_empty_station_id(tmp_path, capsys, row):
    # Neither the last row of an id winning nor metadata for no station
    # is what the file means: a data error naming the line.
    arch = _write_archive_file(tmp_path, n_days=12, stations=("ayr", "bex"), leads=(1,), seed=3)
    stations = tmp_path / "stations.csv"
    stations.write_text(_EDGE_STATIONS + row + "\n")
    out = tmp_path / "pp"
    argv = ["postprocess", "--archive", arch, "--stations", str(stations), "--out", str(out)]
    assert main(argv) == 2
    assert "stations.csv: line 4: empty or repeated station id" in capsys.readouterr().err
    assert not (out / "predictions.csv").exists()


@pytest.mark.parametrize("row", ["bex,1.1,0.6,120,", "bex,1.1,0.6,,80", "bex,1.1,0.6,120"])
def test_cli_postprocess_refuses_a_row_with_one_height(tmp_path, capsys, row):
    # One height cannot be corrected for: a data error naming the line,
    # not a run that silently skips bex's lapse-rate correction.
    arch = _write_archive_file(tmp_path, n_days=12, stations=("ayr", "bex"), leads=(1,), seed=3)
    stations = tmp_path / "stations.csv"
    stations.write_text(_EDGE_STATIONS.replace("bex,1.1,0.6,,", row))
    out = tmp_path / "pp"
    argv = ["postprocess", "--archive", arch, "--stations", str(stations), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "stations.csv: line 3: one height of two for station 'bex'" in err
    assert not (out / "predictions.csv").exists()


def test_cli_postprocess_refuses_a_row_short_of_its_station_id(tmp_path, capsys):
    # The station id is the last column, which the row does not reach.
    arch = _write_archive_file(tmp_path, n_days=12, stations=("ayr", "bex"), leads=(1,), seed=3)
    stations = tmp_path / "stations.csv"
    stations.write_text("mhd,tpi,station_id\n0.4,-0.2,ayr\n1,2\n")
    argv = ["postprocess", "--archive", arch, "--stations", str(stations), "--out", str(tmp_path / "pp")]
    assert main(argv) == 2
    assert "stations.csv: line 3: empty or repeated station id ''" in capsys.readouterr().err


def _edge_records():
    """Fourteen days of three stations: cor has no metadata and lacks lead
    time 2 on the first three days and every fourth day, so lead time 2 is
    fitted a day later than the others; bex has six members at lead time 3
    every fifth day, and ayr has one member (variance 0) at lead time 1
    every third day, so their groups mix member counts there."""
    rng = np.random.default_rng(21)
    start = datetime.date(2024, 6, 1)
    recs = []
    for day in range(14):
        for sid in ("ayr", "bex", "cor"):
            for lt in (1, 2, 3):
                if sid == "cor" and lt == 2 and (day < 3 or day % 4 == 1):
                    continue
                m = {("bex", 3, 2): 6}.get((sid, lt, day % 5), 5)
                if sid == "ayr" and lt == 1 and day % 3 == 0:
                    m = 1
                members = 20.0 + lt + rng.normal(0.0, 2.0, m)
                obs = 20.0 + lt + float(rng.normal(0.0, 2.0))
                recs.append(
                    ArchiveRecord(sid, start + datetime.timedelta(days=day), lt, members, obs)
                )
    return recs


def _library_postprocess(recs, stations: dict, window_days: int, out) -> dict:
    """The files of ``postprocess --ecc --climatology``, built one record
    at a time through a rolling list of training days, fit_emos,
    predict_emos and ecc_reorder; ``stations`` maps ids to (StationMeta,
    heights or None)."""
    predicted, params_rows, n_unfit = {}, [], 0
    for lt in (1, 2, 3):
        days, params = [], None
        cases = sorted(
            (r for r in recs if r.lead_time == lt), key=lambda r: (r.init_date, r.station_id)
        )
        for date, day in itertools.groupby(cases, key=lambda r: r.init_date):
            days.append([])
            for r in day:
                meta, heights = stations.get(r.station_id, (StationMeta(r.station_id), None))
                x = r.members if heights is None else lapse_rate_correct(r.members, *heights)
                xbar, var = float(x.mean()), float(x.var(ddof=1)) if x.size > 1 else 0.0
                if params is None:
                    n_unfit += 1
                else:
                    fc = predict_emos(params, xbar, var, meta)
                    predicted[(r.station_id, date, lt)] = (fc.mean(), fc.sd)
                days[-1].append((xbar, var, meta.mhd, meta.tpi, r.obs))
            # The cases of the last window_days days, in arrival order.
            window = [case for cases_of_day in days[-window_days:] for case in cases_of_day]
            try:
                params = fit_emos(tuple(zip(*window)), init=params)
            except InsufficientData:
                params = None
                continue
            params_rows.append(
                {"lead_time": lt, "train_through": date.isoformat(), "n_train": len(window),
                 **params.to_dict()}
            )
    coupled = []
    for sid, init, ens, obs in _stacked_cases(recs):
        keys = [(sid, init, lt) for lt in (1, 2, 3)]
        if all(k in predicted for k in keys):
            margins = [Normal(predicted[k][0], predicted[k][1] ** 2) for k in keys]
            members = ecc_reorder(margins, ens).members
            coupled += [ArchiveRecord(*k, row, y) for k, row, y in zip(keys, members, obs)]
    write_archive_csv(coupled, out / "ecc.csv")
    clim = []
    for sid in sorted({r.station_id for r in recs}):
        obs = [r.obs for r in recs if r.station_id == sid]
        fc = fit_climatology(obs)
        clim.append(f"{sid},{fc.mean_!r},{float(np.sqrt(fc.variance_))!r},{len(obs)}\n")
    summary = {
        "n_records": len(recs),
        "n_rejected": 0,
        "lead_times": [1, 2, 3],
        "n_predictions": len(predicted),
        "n_before_first_fit": n_unfit,
        "n_stations_without_metadata": len({r.station_id for r in recs} - set(stations)),
        "window_days": window_days,
        "n_fits": len(params_rows),
        "n_fits_not_converged": sum(not p["converged"] for p in params_rows),
        "fit_iters_max": max(p["n_iter"] for p in params_rows),
    }
    return {
        "predictions.csv": "station_id,init_date,lead_time,mean,sd\n" + "".join(
            f"{sid},{d.isoformat()},{lt},{m!r},{sd!r}\n"
            for (sid, d, lt), (m, sd) in sorted(predicted.items())
        ),
        "params.jsonl": "".join(json.dumps(p, sort_keys=True) + "\n" for p in params_rows),
        "ecc.csv": (out / "ecc.csv").read_text(),
        "climatology.csv": "station_id,mean,sd,n\n" + "".join(clim),
        "summary.json": json.dumps(summary, indent=2, sort_keys=True) + "\n",
    }


def test_cli_postprocess_equals_the_library_route_bit_for_bit(tmp_path):
    recs = _edge_records()
    path = tmp_path / "arch.jsonl"
    write_archive_jsonl(recs, path)
    (tmp_path / "stations.csv").write_text(_EDGE_STATIONS)
    out = tmp_path / "pp"
    assert main(
        ["postprocess", "--archive", str(path), "--stations", str(tmp_path / "stations.csv"),
         "--window-days", "4", "--ecc", "--climatology", "--out", str(out)]
    ) == 0
    (tmp_path / "lib").mkdir()
    want = _library_postprocess(recs, _EDGE_META, 4, tmp_path / "lib")
    for name, text in want.items():
        assert (out / name).read_text() == text, name
    # The archive reaches what it is meant to: days before the first fit,
    # evicted days, a one-member record predicted, and groups left out of
    # ECC.
    summary = json.loads(want["summary.json"])
    assert summary["n_before_first_fit"] >= 9 and summary["n_stations_without_metadata"] == 1
    params = [json.loads(line) for line in want["params.jsonl"].splitlines()]
    assert max(p["n_train"] for p in params) <= 4 * 3
    assert "\nayr,2024-06-07,1," in want["predictions.csv"]
    predicted = {tuple(line.split(",")[:3]) for line in want["predictions.csv"].splitlines()}
    n_predicted = [
        sum((sid, init.isoformat(), str(lt)) in predicted for lt in (1, 2, 3))
        for sid, init, _, _ in _stacked_cases(recs)
    ]
    assert 0 < n_predicted.count(3) and any(0 < k < 3 for k in n_predicted), n_predicted
    ecc = read_archive_csv(out / "ecc.csv")
    assert len(ecc) == 3 * n_predicted.count(3)
    assert ("ayr", datetime.date(2024, 6, 7)) not in set(zip(ecc.station_ids, ecc.init_dates))


def _rolling_edge_records(window_days: int = 4):
    """The edge records as columns, and postprocess.rolling_emos's
    (mean, variance, param rows, n_unfit) for them, built from the
    library's column functions alone."""
    a = archive._archive_of(_edge_records())
    metas = [_EDGE_META.get(sid, (StationMeta(sid), None)) for sid in a.station_ids]
    heights = np.array([h or (np.nan, np.nan) for _, h in metas])
    xbar, var = postprocess.member_moments(a.members, a.n_members, heights)
    cols = (xbar, var, [m.mhd for m, _ in metas], [m.tpi for m, _ in metas], a.obs)
    return a, postprocess.rolling_emos(cols, a.lead_times, a.init_dates, a.station_ids, window_days)


def test_rolling_emos_equals_the_per_record_route_bit_for_bit(tmp_path):
    a, (mean, variance, params_rows, n_unfit) = _rolling_edge_records()
    want = _library_postprocess(_edge_records(), _EDGE_META, 4, tmp_path)
    predicted = sorted(
        ((sid, d, lt), (float(m), float(np.sqrt(v))))
        for sid, d, lt, m, v in zip(a.station_ids, a.init_dates, a.lead_times, mean, variance)
        if not np.isnan(m)
    )
    assert "station_id,init_date,lead_time,mean,sd\n" + "".join(
        f"{sid},{d.isoformat()},{lt},{m!r},{sd!r}\n" for (sid, d, lt), (m, sd) in predicted
    ) == want["predictions.csv"]
    assert "".join(json.dumps(p, sort_keys=True) + "\n" for p in params_rows) == want["params.jsonl"]
    assert n_unfit == json.loads(want["summary.json"])["n_before_first_fit"]


def test_rolling_emos_refuses_an_empty_window_or_no_records():
    cols = tuple(np.empty(0) for _ in range(5))
    with pytest.raises(ContractViolation, match="at least one day"):
        postprocess.rolling_emos(cols, [], [], [], 0)
    with pytest.raises(InsufficientData, match="at least one record"):
        postprocess.rolling_emos(cols, [], [], [], 1)


def test_ecc_members_equal_the_per_case_route_bit_for_bit(tmp_path):
    a, (mean, variance, _, _) = _rolling_edge_records()
    want = _library_postprocess(_edge_records(), _EDGE_META, 4, tmp_path)
    index = group_multivariate(a, (1, 2, 3))
    index = index[~np.isnan(mean[index]).any(axis=1)]
    members = postprocess.ecc_members(a.members, a.n_members, index, mean, variance)
    assert members.shape == index.shape + a.members.shape[1:]
    coupled = [
        ArchiveRecord(a.station_ids[r], a.init_dates[r], a.lead_times[r], row[: a.n_members[r]], a.obs[r])
        for r, row in zip(index.ravel().tolist(), members.reshape(-1, a.members.shape[1]))
    ]
    write_archive_csv(coupled, tmp_path / "ecc_lib.csv")
    assert (tmp_path / "ecc_lib.csv").read_text() == want["ecc.csv"]


def test_station_climatology_equals_the_per_station_route_bit_for_bit(tmp_path):
    recs = _edge_records()
    want = _library_postprocess(recs, _EDGE_META, 4, tmp_path)
    a = archive._archive_of(recs)
    rows = postprocess.station_climatology(a.station_ids, a.obs)
    assert "station_id,mean,sd,n\n" + "".join(
        f"{sid},{float(m)!r},{float(sd)!r},{n}\n" for sid, m, sd, n in rows
    ) == want["climatology.csv"]


def test_smoothed_scores_refuse_a_one_member_record():
    recs = _mk_records(n_days=2)
    recs[3] = ArchiveRecord(recs[3].station_id, recs[3].init_date, recs[3].lead_time, np.array([20.0]), 21.0)
    with pytest.raises(ContractViolation, match="at least two members"):
        score_archive(recs, "crps", smooth=True)


def _cell_oracle(v) -> str:
    """One table cell, formatted and quoted the way the per-row csv writer
    did it before tables were written by column."""
    if v is None:
        text = ""
    elif isinstance(v, (bool, np.bool_)):
        text = "true" if v else "false"
    elif isinstance(v, (int, np.integer)):
        text = str(int(v))
    elif isinstance(v, (float, np.floating)):
        text = repr(float(v))
    elif isinstance(v, datetime.date):
        text = v.isoformat()
    else:
        text = str(v)
    return archive._csv_field(text)


def _table_oracle(header, columns) -> bytes:
    rows = itertools.chain([header], zip(*columns))
    return "".join(",".join(map(_cell_oracle, row)) + "\n" for row in rows).encode()


_ODD_FLOATS = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 0.1, 1e300, np.float32(0.1)]
_ODD_STRINGS = ["plain", "a,b", 'say "hi"', "cr\rid", "lf\nid", "", " x "]


def _typed_columns(rows: int):
    """Columns of every kind the tables hold, ``rows`` long."""
    def pick(values):
        return [values[i % len(values)] for i in range(rows)]

    days = pick([datetime.date(2024, 6, 1), datetime.date(2021, 12, 31)])
    return [
        np.array(pick(_ODD_FLOATS), dtype=float),
        np.array(pick([0.1, -0.0, np.inf]), dtype=np.float32),
        pick(_ODD_FLOATS),
        np.arange(rows, dtype=np.int64) - 3,
        pick([1, np.int64(-2), 0]),
        np.arange(rows) % 2 == 0,
        pick([True, np.bool_(False)]),
        pick([True, 1, False, 0]),
        days,
        np.array(days, dtype=object),
        pick(_ODD_STRINGS),
        np.array(pick(_ODD_STRINGS), dtype=object),
        pick([None, 1, 2.5, "all", True, datetime.date(2024, 1, 2), None]),
    ]


@pytest.mark.parametrize("rows", [0, 1, 9])
def test_columnar_csv_writer_equals_the_per_cell_formatting(tmp_path, rows):
    columns = _typed_columns(rows)
    header = [f"c{i}" for i in range(len(columns) - 1)] + ["quoted,name"]
    archive._write_csv(tmp_path / "t.csv", header, columns)
    assert (tmp_path / "t.csv").read_bytes() == _table_oracle(header, columns)


@pytest.mark.parametrize("rows", [0, 1, 9])
def test_csv_writer_takes_a_2d_block_as_its_columns(tmp_path, rows):
    """A 2-d array is written a row at a time and gives the bytes of its
    columns passed one by one, as write_archive_csv passes its members."""
    floats = np.resize(np.array(_ODD_FLOATS, dtype=float), (rows, 4))
    blocks = [floats, np.arange(rows * 3).reshape(rows, 3) - 4, floats[:, :2] > 0.05]
    ends = [np.array(_typed_columns(rows)[10], dtype=object), np.linspace(0.0, 1.0, rows)]
    columns = [ends[0], *blocks, ends[1]]
    split = [ends[0], *(c for b in blocks for c in b.T), ends[1]]
    header = [f"c{i}" for i in range(len(split))]
    archive._write_csv(tmp_path / "t.csv", header, columns)
    assert (tmp_path / "t.csv").read_bytes() == _table_oracle(header, split)


_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
_cells = st.none() | st.booleans() | st.integers() | st.floats() | st.dates() | _text


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.integers(0, 5).flatmap(
        lambda rows: st.lists(st.lists(_cells, min_size=rows, max_size=rows), min_size=1, max_size=4)
    )
)
def test_columnar_csv_writer_equals_the_per_cell_formatting_on_mixed_columns(tmp_path_factory, columns):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    header = [f"c{i}" for i in range(len(columns))]
    archive._write_csv(path, header, columns)
    assert path.read_bytes() == _table_oracle(header, columns)


# The json writers as they streamed their text before each output was
# written in one call: the references for the bytes of the writers.
def _old_write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(cli._json_safe(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _old_write_jsonl(path, rows):
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(cli._json_safe(row), sort_keys=True))
            fh.write("\n")


def _old_write_archive_jsonl(recs, path):
    with open(path, "w") as fh:
        for r in recs:
            fh.write(json.dumps({"station_id": r.station_id, "init_date": r.init_date.isoformat(),
                                 "lead_time": r.lead_time, "members": list(map(float, r.members)),
                                 "obs": r.obs}))
            fh.write("\n")


_json_leaves = (
    _cells
    | st.floats().map(np.float64) | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.booleans().map(np.bool_)
    | hnp.arrays(
        st.sampled_from([np.float64, np.int64, np.bool_]),
        hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=3),
    )
)
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=3) | st.tuples(inner, inner)
    | st.dictionaries(_text, inner, max_size=3),
    max_leaves=12,
)
_station_ids = st.text(
    st.characters(blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp")), min_size=1, max_size=4
)
_records = st.lists(
    st.builds(
        ArchiveRecord,
        _station_ids,
        st.dates(datetime.date(1900, 1, 1), datetime.date(2100, 12, 31)),
        st.integers(0, 240),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=4),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
    max_size=5,
    unique_by=lambda r: (r.station_id, r.init_date, r.lead_time),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.dictionaries(_text, _json_values, max_size=4),
    st.lists(st.dictionaries(_text, _json_values, max_size=3), max_size=4),
)
def test_json_writers_give_the_bytes_of_their_streamed_writes(tmp_path_factory, obj, rows):
    """``_write_json`` and ``_write_jsonl`` build their text and write it
    once; the bytes are those of ``json.dump`` and of the per-row writes."""
    d = tmp_path_factory.mktemp("json")
    writers = ((cli._write_json, _old_write_json, obj), (cli._write_jsonl, _old_write_jsonl, rows))
    for new, old, value in writers:
        new(str(d / "new"), value)
        old(str(d / "old"), value)
        assert (d / "new").read_bytes() == (d / "old").read_bytes()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_records)
def test_jsonl_archive_writer_gives_the_per_row_bytes_and_round_trips(tmp_path_factory, recs):
    """An archive written as json lines has the bytes of the per-row
    writes, reads back to the same archive, and written again gives the
    same bytes, for mixed member counts and for no rows at all."""
    d = tmp_path_factory.mktemp("jsonl")
    write_archive_jsonl(recs, d / "a.jsonl")
    _old_write_archive_jsonl(recs, d / "old.jsonl")
    assert (d / "a.jsonl").read_bytes() == (d / "old.jsonl").read_bytes()
    back = read_archive_jsonl(d / "a.jsonl")
    assert back.rejects == ()
    assert [(r.station_id, r.init_date, r.lead_time, r.members.tolist(), r.obs) for r in back] == [
        (r.station_id, r.init_date, r.lead_time, list(map(float, r.members)), r.obs) for r in recs
    ]
    write_archive_jsonl(back, d / "a.jsonl")
    assert (d / "a.jsonl").read_bytes() == (d / "old.jsonl").read_bytes()


def _oracle_fit_chains(windows, inits, histories):
    """``postprocess._fit_chains`` one window at a time through the
    per-window oracle."""
    fits = []
    for window, init, history in zip(windows, inits, histories):
        try:
            fits.append(fit_emos_oracle(window, init, history))
        except InsufficientData:
            fits.append(None)
    return fits


def test_cli_lockstep_fits_equal_per_window_fits_with_ragged_lead_times(tmp_path, monkeypatch):
    # Lead time 2 lacks its first two days and every fifth day, and lead
    # time 3 lacks station "dun" every third day, so the lead times' day k
    # falls on different dates and their windows differ in length.
    recs = _mk_records(n_days=18, stations=("ayr", "bex", "cor", "dun", "eck"), seed=13)
    start = datetime.date(2024, 6, 1)
    recs = [
        r for r in recs
        if not (r.lead_time == 2 and ((r.init_date - start).days < 2 or (r.init_date - start).days % 5 == 4))
        and not (r.lead_time == 3 and r.station_id == "dun" and (r.init_date - start).days % 3 == 1)
    ]
    path = tmp_path / "arch.csv"
    write_archive_csv(recs, path)
    (tmp_path / "stations.csv").write_text(_EDGE_STATIONS)
    lengths = []

    def spy(windows, inits, histories):
        lengths.append([w[4].size for w in windows])
        return stacked(windows, inits, histories)

    stacked = postprocess._fit_chains
    runs = {}
    for name, fit in (("stacked", spy), ("oracle", _oracle_fit_chains)):
        monkeypatch.setattr(postprocess, "_fit_chains", fit)
        out = tmp_path / name
        assert main(
            ["postprocess", "--archive", str(path), "--stations", str(tmp_path / "stations.csv"),
             "--window-days", "4", "--ecc", "--climatology", "--out", str(out)]
        ) == 0
        runs[name] = out
    for file in ("params.jsonl", "predictions.csv", "ecc.csv", "climatology.csv", "summary.json"):
        assert (runs["stacked"] / file).read_bytes() == (runs["oracle"] / file).read_bytes(), file
    # Both equal the lead-by-lead library route.
    (tmp_path / "lib").mkdir()
    for name, text in _library_postprocess(recs, _EDGE_META, 4, tmp_path / "lib").items():
        assert (runs["stacked"] / name).read_text() == text, name
    # Some rounds stack windows of one length, others of several, and one
    # leaves a lead time's short first window unfit beside fitted ones.
    assert any(len(k) > len(set(k)) > 1 for k in lengths)
    assert any(len(set(k)) == 1 and len(k) > 1 for k in lengths)
    assert any(min(k) < 10 <= max(k) for k in lengths)


def test_cli_climatology_groups_unsorted_interleaved_station_ids(tmp_path):
    # Records arrive shuffled, with ids that sort differently as strings
    # than as numbers or without case; "short" has too few observations.
    recs = _mk_records(n_days=12, stations=("zed", "Bex", "10", "ayr", "9"), seed=8)
    recs += _mk_records(n_days=3, stations=("short",), seed=9)
    recs = [recs[i] for i in np.random.default_rng(10).permutation(len(recs))]
    path = tmp_path / "arch.csv"
    write_archive_csv(recs, path)
    out = tmp_path / "pp"
    assert main(["postprocess", "--archive", str(path), "--climatology", "--out", str(out)]) == 0
    rows = ["station_id,mean,sd,n\n"]
    for sid in sorted({r.station_id for r in recs} - {"short"}):
        obs = [r.obs for r in recs if r.station_id == sid]
        fc = fit_climatology(obs)
        rows.append(f"{sid},{fc.mean_!r},{float(np.sqrt(fc.variance_))!r},{len(obs)}\n")
    assert [line.split(",")[0] for line in rows[1:]] == ["10", "9", "Bex", "ayr", "zed"]
    assert (out / "climatology.csv").read_text() == "".join(rows)


def test_cli_ecc_writes_jsonl_when_groups_differ_in_member_count(tmp_path):
    # Station "one" has a single member, the others five: every group is
    # complete and of one member count, but csv holds only one per file.
    recs = _mk_records(n_days=12, stations=("ayr", "bex"), seed=6)
    recs += _mk_records(n_days=12, stations=("one",), m=1, seed=7)
    path = tmp_path / "arch.jsonl"
    write_archive_jsonl(recs, path)
    out = tmp_path / "pp"
    assert main(["postprocess", "--archive", str(path), "--ecc", "--out", str(out)]) == 0
    assert not (out / "ecc.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == ["ecc.jsonl", "params.jsonl", "predictions.csv", "summary.json"]
    assert json.loads((out / "summary.json").read_text())["n_predictions"] > 0
    ecc = read_archive_jsonl(out / "ecc.jsonl")
    assert ecc.rejects == () and sorted(set(ecc.n_members.tolist())) == [1, 5]
    with open(out / "predictions.csv", newline="") as fh:
        preds = {
            (p["station_id"], datetime.date.fromisoformat(p["init_date"]), int(p["lead_time"])):
            (float(p["mean"]), float(p["sd"]))
            for p in csv.DictReader(fh)
        }
    raw = {(r.station_id, r.init_date, r.lead_time): r for r in recs}
    assert len(ecc) == sum(
        all((sid, d, lt) in preds for lt in (1, 2, 3)) for sid, d, _ in preds
    )
    for rec in ecc:
        key = (rec.station_id, rec.init_date, rec.lead_time)
        mean, sd = preds[key]
        m = rec.members.size
        assert rec.obs == raw[key].obs and m == raw[key].members.size
        assert np.array_equal(np.argsort(rec.members), np.argsort(raw[key].members))
        q = Normal(mean, sd**2).ppf((np.arange(m) + 0.5) / m)
        assert_allclose(np.sort(rec.members), q, rtol=1e-12)


_SRC = str(Path(archive.__file__).resolve().parents[1])
_LOADED = "[m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules]"


def _fresh_python(code: str, *argv: str):
    """Run ``code`` in a fresh interpreter that imports this checkout's
    wverif and return the JSON value it prints last."""
    env = dict(os.environ, PYTHONPATH=_SRC)
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_importing_the_package_and_cli_loads_neither_scipy_stats_nor_optimize():
    code = f"import json, sys, wverif, wverif.cli; print(json.dumps({_LOADED}))"
    assert _fresh_python(code) == []


def test_score_and_postprocess_runs_load_neither_scipy_stats_nor_optimize(tmp_path):
    path = tmp_path / "arch.csv"
    write_archive_csv(_mk_records(n_days=12, stations=("ayr", "bex", "cor"), seed=12), path)
    code = f"""
import json, os, sys
from wverif.cli import main
arch, out = sys.argv[1:]
runs = [["score", "--score", "crps"],
        ["score", "--score", "twcrps", "--threshold", "22", "--smooth"],
        ["postprocess", "--ecc", "--climatology"]]
codes = [main(a + ["--archive", arch, "--out", os.path.join(out, str(i))])
         for i, a in enumerate(runs)]
print(json.dumps([codes, {_LOADED}]))
"""
    codes, loaded = _fresh_python(code, str(path), str(tmp_path / "out"))
    assert codes == [0, 0, 0] and loaded == []
    assert (tmp_path / "out" / "2" / "ecc.csv").exists()


def test_propriety_and_impropriety_runs_load_neither_scipy_stats_nor_optimize(tmp_path):
    # Three pairs draw a normal, a logistic and a t truth.
    code = f"""
import json, os, sys
from wverif.cli import main
runs = [["propriety", "--param", "n_pairs=3", "--param", "n_uni=500", "--param", "n_mv=100"],
        ["impropriety", "--param", "n=1000"]]
codes = [main(["synth", *a, "--out", os.path.join(sys.argv[1], a[0])]) for a in runs]
print(json.dumps([codes, {_LOADED}]))
"""
    codes, loaded = _fresh_python(code, str(tmp_path))
    assert codes == [0, 0] and loaded == []
    rows = (tmp_path / "propriety" / "propriety.csv").read_text()
    assert "Logistic vs" in rows and "StudentT vs" in rows


_SPECIAL = "'scipy.special' in sys.modules"


def test_importing_the_package_and_cli_leaves_scipy_special_unloaded():
    code = f"import json, sys, wverif, wverif.cli; print(json.dumps({_SPECIAL}))"
    assert _fresh_python(code) is False


@pytest.mark.parametrize(
    "argv, loads",
    [
        (["score", "--score", "crps"], False),
        (["score", "--score", "es"], False),
        (["score", "--score", "twcrps", "--threshold", "22", "--smooth"], True),
        (["postprocess", "--ecc", "--climatology"], True),
    ],
    ids=("score-crps", "score-es", "score-smooth", "postprocess"),
)
def test_cli_runs_load_scipy_special_only_on_demand(tmp_path, argv, loads):
    """Raw-ensemble scoring never needs scipy.special; a smoothed score or
    a postprocess run imports it on its first call and succeeds."""
    path = tmp_path / "arch.csv"
    write_archive_csv(_mk_records(n_days=12, stations=("ayr", "bex", "cor"), seed=12), path)
    code = f"""
import json, sys
from wverif.cli import main
before = {_SPECIAL}
code = main(json.loads(sys.argv[1]) + ["--archive", sys.argv[2], "--out", sys.argv[3]])
print(json.dumps([before, code, {_SPECIAL}]))
"""
    out = tmp_path / "out"
    assert _fresh_python(code, json.dumps(argv), str(path), str(out)) == [False, 0, loads]
    assert (out / "manifest.json").exists()


def test_cli_report_equals_score_archive_and_skill_table_bit_for_bit(tmp_path):
    recs = _mk_records(n_days=6, stations=("ayr", "bex", "cor"), seed=3)
    shifted = [
        ArchiveRecord(r.station_id, r.init_date, r.lead_time, r.members + 0.5, r.obs) for r in recs
    ]
    # The reference lacks every seventh case, and with it the stacked case.
    reference = [r for i, r in enumerate(recs) if i % 7 != 3]
    arch, ref = tmp_path / "arch.csv", tmp_path / "ref.csv"
    write_archive_csv(shifted, arch)
    write_archive_csv(reference, ref)
    scores = ("crps", "twcrps", "vrcrps", "es", "vs", "twes")
    out = tmp_path / "rep"
    assert main(
        ["report", "--archive", str(arch), "--reference", str(ref), "--scores", ",".join(scores),
         "--threshold", "20.5", "--out", str(out)]
    ) == 0
    lines = ["score,group,n,mean_score,mean_reference,skill,degenerate\n"]
    for score in scores:
        by = "lead_time" if score in archive.UNIVARIATE_SCORES else "all"
        *keys, values = score_archive(shifted, score, threshold=20.5)
        *ref_keys, ref_values = score_archive(reference, score, threshold=20.5)
        for group, n, mean_s, mean_r, skill, degenerate in skill_table(
            keys, values, ref_keys, ref_values, by=by
        ):
            lines.append(
                f"{score},{group},{n},{mean_s!r},{mean_r!r},{skill!r},"
                f"{'true' if degenerate else 'false'}\n"
            )
    assert (out / "report.csv").read_text() == "".join(lines)
    n_stacked = len(group_multivariate(reference))
    assert n_stacked < 18 and f"es,all,{n_stacked}," in "".join(lines)


def test_cli_synth_small(tmp_path):
    out = tmp_path / "synth"
    code = main(
        ["synth", "ideal_forecaster", "--param", "n=4000", "--out", str(out),
         "--seed", "12"]
    )
    assert code == 0
    for name in ("pit_hist.csv", "cpit_hist.csv", "restricted_hist.csv",
                 "summary.json", "manifest.json"):
        assert (out / name).exists(), name
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["n"] == 4000 and summary["seed"] == 12
    assert summary["restricted_ri"] > summary["pit_ri"]


def test_cli_main_builds_its_parser_once(tmp_path):
    """Repeated main calls in one process parse with one parser tree."""
    arch = _write_archive_file(tmp_path)
    cli._build_parser.cache_clear()
    for i in range(3):
        out = str(tmp_path / f"o{i}")
        assert main(["score", "--archive", arch, "--score", "crps", "--out", out]) == 0
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_cli_bad_config_leaves_the_shared_parser_as_it_was(tmp_path, capsys):
    """The config route parses with parsers of its own that raise on a bad
    value; the plain route's parser still exits with its usage after it."""
    arch = _write_archive_file(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"threshold": "21"}))
    out = str(tmp_path / "o")
    capsys.readouterr()
    argv = ["score", "--archive", arch, "--score", "twcrps", "--out", out]
    assert main(argv + ["--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("wverif: ")
    assert main(["score", "--no-such-flag"]) == 1
    assert capsys.readouterr().err.startswith("usage:")
    assert main(argv + ["--threshold", "abc"]) == 1
    assert capsys.readouterr().err.startswith("usage:")


def test_cli_synth_params_do_not_carry_over_to_the_next_run(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["synth", "score_curves", "--param", "t=1.5", "--out", out1]) == 0
    assert main(["synth", "score_curves", "--out", out2]) == 0
    assert json.loads((tmp_path / "a" / "summary.json").read_text())["t"] == 1.5
    assert json.loads((tmp_path / "b" / "summary.json").read_text())["t"] == 1.0


@pytest.mark.parametrize(
    "experiment, params, name",
    [
        ("impropriety", ["n=-5"], "n"),
        ("impropriety", ["n=0"], "n"),
        ("ideal_forecaster", ["n=-5"], "n"),
        ("tail_forecasters", ["n=-5"], "n"),
        ("propriety", ["scores=crps", "n_pairs=1", "n_uni=-3"], "n_uni"),
        ("propriety", ["scores=crps", "n_pairs=1", "n_uni=1"], "n_uni"),
        ("propriety", ["scores=es", "n_pairs=1", "n_mv=0"], "n_mv"),
        ("propriety", ["scores=es", "n_pairs=1", "n_mv=1"], "n_mv"),
        ("propriety", ["scores=es", "n_pairs=1", "n_mv=300", "m_members=0"], "m_members"),
        ("propriety", ["n_pairs=-1"], "n_pairs"),
        ("propriety", ["scores=crps", "n_uni=2000", "n_pairs=true"], "n_pairs"),
        ("score_curves", ["t=nan"], "t"),
        ("score_curves", ["x0=inf"], "x0"),
    ],
)
def test_cli_synth_refuses_sizes_too_small_for_a_standard_error(tmp_path, capsys, experiment, params, name):
    """A sample size that is not an int of at least 2 (1 for the pair and
    member counts), or a non-finite t or x0, exits 1 naming it."""
    argv = ["synth", experiment, "--out", str(tmp_path / "o")]
    capsys.readouterr()
    assert main(argv + [a for p in params for a in ("--param", p)]) == 1
    assert capsys.readouterr().err.startswith(f"wverif: {name} must be")


def test_cli_synth_propriety_selects_scores(tmp_path):
    out = tmp_path / "prop"
    code = main(
        ["synth", "propriety", "--param", "scores=crps,vs", "--param", "n_pairs=1",
         "--param", "n_uni=2000", "--param", "n_mv=300", "--out", str(out),
         "--seed", "5"]
    )
    assert code == 0
    import csv as csvmod

    with open(out / "propriety.csv", newline="") as fh:
        rows = list(csvmod.DictReader(fh))
    assert [r["score"] for r in rows] == ["crps", "vs"]


def test_cli_report_self_reference_has_zero_skill(tmp_path):
    arch = _write_archive_file(tmp_path, n_days=4)
    out = tmp_path / "rep"
    code = main(
        ["report", "--archive", arch, "--reference", arch,
         "--scores", "crps,es", "--out", str(out)]
    )
    assert code == 0
    import csv as csvmod

    with open(out / "report.csv", newline="") as fh:
        rows = list(csvmod.DictReader(fh))
    groups = {(r["score"], r["group"]) for r in rows}
    assert groups == {("crps", "1"), ("crps", "2"), ("crps", "3"), ("es", "all")}
    for r in rows:
        assert float(r["skill"]) == 0.0
        assert r["degenerate"] == "false"


def test_cli_config_file_defaults_and_overrides(tmp_path):
    arch = _write_archive_file(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"threshold": 21.5, "seed": 6}))
    out1 = tmp_path / "c1"
    code = main(
        ["score", "--archive", arch, "--score", "twcrps", "--config", str(cfg),
         "--out", str(out1)]
    )
    assert code == 0
    with open(out1 / "manifest.json") as fh:
        m = json.load(fh)
    assert m["config"]["threshold"] == 21.5
    assert m["seed"] == 6

    out2 = tmp_path / "c2"
    code = main(
        ["score", "--archive", arch, "--score", "twcrps", "--config", str(cfg),
         "--threshold", "22.5", "--out", str(out2)]
    )
    assert code == 0
    with open(out2 / "manifest.json") as fh:
        m = json.load(fh)
    assert m["config"]["threshold"] == 22.5

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"no_such_option": 1}))
    assert main(
        ["score", "--archive", arch, "--score", "crps", "--config", str(bad),
         "--out", str(tmp_path / "c3")]
    ) == 1


@pytest.mark.parametrize(
    "cfg, argv",
    [
        ({"threshold": "21"}, ["score", "--score", "twcrps"]),
        ({"bins": "abc"}, ["diagnose", "--smooth"]),
        ({"lead_times": [1, 2, 3]}, ["score", "--score", "es"]),
        ({"seed": -1}, ["score", "--score", "crps"]),
        ({"format": "xml"}, ["score", "--score", "crps"]),
        ({"smooth": "yes"}, ["score", "--score", "crps"]),
        ({"threshold": float("nan")}, ["score", "--score", "twcrps"]),
        ({"thresholds": "25,nan"}, ["diagnose", "--smooth"]),
    ],
    ids=(
        "string-for-float", "text-for-int", "list-for-text", "negative-seed", "choice", "switch",
        "nan-for-float", "nan-in-list",
    ),
)
def test_cli_config_values_pass_the_flag_checks(tmp_path, capsys, cfg, argv):
    """A config value goes through the subcommand's parser as a flag
    would: a bad one exits 1 with a message, not a traceback."""
    arch = _write_archive_file(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    code = main(argv + ["--archive", arch, "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err.startswith("wverif: ")


def test_cli_config_switches_and_text_options(tmp_path):
    arch = _write_archive_file(tmp_path, n_days=30, stations=("ayr",), leads=(1,))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"smooth": True, "thresholds": "20.5", "corp-resamples": 20}))
    out = tmp_path / "o"
    assert main(["diagnose", "--archive", arch, "--config", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert [t["threshold"] for t in summary["thresholds"]] == [20.5]
    assert (out / "corp_20p5.csv").exists()


@pytest.mark.parametrize(
    "flags", (["--bins", "0"], ["--thresholds", "20.5", "--corp-resamples", "0"])
)
def test_cli_diagnose_refuses_empty_bins_and_resamples(tmp_path, capsys, flags):
    arch = _write_archive_file(tmp_path, n_days=30, stations=("ayr",), leads=(1,))
    capsys.readouterr()
    code = main(["diagnose", "--archive", arch, "--smooth", *flags, "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err.startswith("wverif: ")


def _half_malformed_archive(tmp_path):
    """A csv archive of 180 rows, every other one with a field too many."""
    path = tmp_path / "half.csv"
    write_archive_csv(_mk_records(n_days=30), path)
    header, *rows = path.read_text().splitlines(keepends=True)
    path.write_text(header + "".join(
        row.replace("\n", ",1.0\n") if i % 2 else row for i, row in enumerate(rows)
    ))
    return path


@pytest.mark.parametrize("fraction", [float("nan"), -0.1, 1.5])
def test_readers_refuse_a_reject_fraction_outside_0_1(tmp_path, fraction):
    path = _half_malformed_archive(tmp_path)
    for read in (read_archive, read_archive_csv, read_archive_jsonl):
        with pytest.raises(ContractViolation, match="max_reject_fraction"):
            read(path, fraction)


def test_cli_reject_gate_takes_no_nan(tmp_path):
    # NaN compares false, so a NaN fraction used to turn the gate off.
    path = _half_malformed_archive(tmp_path)
    argv = ["score", "--archive", str(path), "--score", "crps", "--out", str(tmp_path / "o")]
    assert main(argv + ["--max-reject-fraction", "0.5"]) == 0
    assert main(argv + ["--max-reject-fraction", "0.01"]) == 2
    assert main(argv + ["--max-reject-fraction", "nan"]) == 1
    assert main(argv + ["--max-reject-fraction", "1.5"]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["score", "--score", "twcrps", "--threshold", "nan"],
        ["score", "--score", "twcrps", "--threshold", "inf"],
        ["score", "--score", "vrcrps", "--threshold", "25", "--x0", "nan"],
        ["score", "--score", "vs", "--p", "nan"],
        ["report", "--scores", "twcrps", "--threshold", "nan"],
        ["diagnose", "--smooth", "--thresholds", "25,nan"],
    ],
    ids=("threshold", "threshold-inf", "x0", "p", "report-threshold", "diagnose-thresholds"),
)
def test_cli_refuses_non_finite_numbers(tmp_path, capsys, argv):
    """Input at fault exits 1, not 3 (a numerical failure) or 0."""
    arch = _write_archive_file(tmp_path, n_days=30, stations=("ayr",))
    bad = argv[-1]
    if argv[0] == "report":
        argv = argv + ["--reference", arch]
    capsys.readouterr()
    assert main(argv + ["--archive", arch, "--out", str(tmp_path / "o")]) == 1
    assert f"{bad!r}" in capsys.readouterr().err


def test_cli_writes_strict_json(tmp_path):
    # Every json and json-lines file parses without NaN or Infinity.
    arch = _write_archive_file(tmp_path, n_days=30)
    runs = {
        "nothing_scored": ["score", "--archive", arch, "--score", "es", "--lead-times", "7"],
        "crps": ["score", "--archive", arch, "--score", "crps", "--format", "jsonl"],
        "es": ["score", "--archive", arch, "--score", "es", "--format", "jsonl"],
        "diagnose": ["diagnose", "--archive", arch, "--smooth", "--thresholds", "20,21",
                     "--corp-resamples", "20"],
        "postprocess": ["postprocess", "--archive", arch, "--window-days", "5", "--ecc",
                        "--climatology"],
        "report": ["report", "--archive", arch, "--reference", arch],
        "synth": ["synth", "ideal_forecaster", "--param", "n=4000"],
    }

    def refuse(constant):
        raise ValueError(f"{constant} is not json")

    for name, argv in runs.items():
        out = tmp_path / name
        assert main(argv + ["--out", str(out)]) == 0, name
        files = [p for p in out.iterdir() if p.suffix in (".json", ".jsonl")]
        assert files, name
        for path in files:
            text = path.read_text()
            for doc in [text] if path.suffix == ".json" else text.splitlines():
                json.loads(doc, parse_constant=refuse)
    summary = json.loads((tmp_path / "nothing_scored" / "summary.json").read_text())
    assert summary["n_scored"] == 0 and summary["mean"] is None


def test_benchmark_tracer_bindings_resolve(tmp_path):
    # perfbench/tracing.py wraps functions at the names their callers bind,
    # and methods of the forecast and weight classes; a binding that no
    # longer resolves stops a traced benchmark run, and a name the program
    # no longer calls leaves its metric at 0.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    bound = {(m, n): getattr(importlib.import_module(m), n) for m, n, _ in tracing._FUNCTIONS}
    tracer = tracing.Tracer()
    arch = _write_archive_file(tmp_path)
    out = ["--out", str(tmp_path / "out")]
    try:
        tracer.install()
        for (module, name), orig in bound.items():
            assert getattr(importlib.import_module(module), name) is not orig, f"{module}.{name}"
        assert main(["score", "--archive", arch, "--score", "es", *out]) == 0
        assert main(["report", "--archive", arch, "--reference", arch, *out]) == 0
    finally:
        tracer.uninstall()
    for (module, name), orig in bound.items():
        assert getattr(importlib.import_module(module), name) is orig, f"{module}.{name}"
    assert {"archive.read", "archive.score", "archive.group", "archive.skill"} <= {
        span[0] for span in tracer.spans
    }


@pytest.mark.parametrize(
    "thresholds, a, b",
    [("25,25", "25", "25"), ("21,25,25.0", "25", "25.0"), ("25, 25.000001", "25", "25.000001")],
    ids=("repeat", "repeat-spelled-apart", "same-label"),
)
def test_cli_diagnose_refuses_thresholds_that_share_files(tmp_path, capsys, thresholds, a, b):
    """Thresholds that are equal or share a file label would write one
    threshold's files over the other's: refused before the archive is
    read (this one does not exist), naming both."""
    out = tmp_path / "o"
    capsys.readouterr()
    argv = ["diagnose", "--archive", str(tmp_path / "missing.csv"), "--smooth"]
    assert main(argv + ["--thresholds", thresholds, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"--thresholds {a} and {b} " in err
    assert list(out.iterdir()) == []


@st.composite
def _key_columns(draw):
    """Key columns of one length: strings, dates, small integers or None."""
    n = draw(st.integers(0, 30))
    kinds = (
        st.sampled_from(["a", "b", "a,c", "S01"]),
        st.dates(datetime.date(2024, 1, 1), datetime.date(2024, 1, 9)),
        st.one_of(st.none(), st.integers(-2, 3)),
    )
    return [draw(st.lists(draw(st.sampled_from(kinds)), min_size=n, max_size=n))
            for _ in range(draw(st.integers(1, 4)))]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_key_columns())
def test_key_codes_rank_rows_as_sorted_tuples(columns):
    """Each row's code is the rank of its key tuple among the distinct
    tuples in sorted order (None last)."""

    def order(v):
        return (v is None, 0 if v is None else v)

    rows = [tuple(map(order, row)) for row in zip(*columns)]
    rank = {row: i for i, row in enumerate(sorted(set(rows)))}
    got = grouping._key_codes(*columns)
    assert got.dtype == np.intp
    assert got.tolist() == [rank[row] for row in rows]


def test_key_codes_renumber_before_they_overflow():
    """Four columns of 2**16 distinct values each span 2**64 tuples, past
    intp; the codes number only the distinct rows and stay exact."""
    n = 2**16
    rng = np.random.default_rng(61)
    columns = [rng.permutation(n).tolist() for _ in range(4)]
    rows = list(zip(*columns))
    rank = {row: i for i, row in enumerate(sorted(rows))}
    assert grouping._key_codes(*columns).tolist() == [rank[row] for row in rows]


# ---------------------------------------------------------------------------
# the read cache of read_archive
# ---------------------------------------------------------------------------


@pytest.fixture
def bulk_parses(monkeypatch):
    """A fresh, empty read cache, and the list of the paths _bulk_csv parses."""
    monkeypatch.setattr(archive, "_reads", {})
    parses = []
    bulk = archive._bulk_csv

    def counted(fh, path):
        parses.append(path)
        return bulk(fh, path)

    monkeypatch.setattr(archive, "_bulk_csv", counted)
    return parses


def test_read_archive_parses_identical_bytes_once(tmp_path, bulk_parses):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_archive_csv(_mk_records(), a)
    b.write_bytes(a.read_bytes())
    first = read_archive(a)
    assert read_archive(b) is first and read_archive(a) is first
    assert bulk_parses == [str(a)]
    # The same bytes as another format are another archive.
    c = tmp_path / "c.jsonl"
    write_archive_jsonl(first, c)
    d = tmp_path / "d.csv"
    d.write_bytes(c.read_bytes())
    assert len(read_archive(c)) == len(first)
    with pytest.raises(DataError, match="expected header"):
        read_archive(d)


def test_read_archive_keys_on_content_not_on_path_or_mtime(tmp_path, bulk_parses):
    path = tmp_path / "a.csv"
    write_archive_csv(_mk_records(), path)
    old = path.read_bytes()
    first = read_archive(path)
    stat = path.stat()
    new = old.replace(b"ayr,", b"ayz,")
    assert len(new) == len(old) and new != old
    path.write_bytes(new)
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert path.stat().st_mtime_ns == stat.st_mtime_ns
    second = read_archive(path)
    assert second is not first
    assert set(second.station_ids) == {"ayz", "bex"}
    assert second.members.tobytes() == first.members.tobytes()
    assert len(bulk_parses) == 2


def test_read_archive_hashes_before_parsing_only_when_a_kept_archive_has_the_size(
    tmp_path, bulk_parses, monkeypatch
):
    """A file is opened once to parse and hash it, and hashed first only
    when a kept archive has its size; the digest is of the bytes parsed,
    also when a quote sends the parse back to the start."""
    opened = []
    hashed = archive._Hashed
    monkeypatch.setattr(archive, "_Hashed", lambda p: opened.append(Path(p).name) or hashed(p))
    a, b, c, d = (tmp_path / f"{n}.csv" for n in "abcd")
    write_archive_csv(_mk_records(), a)
    write_archive_csv(_mk_records(n_days=4), b)
    c.write_bytes(a.read_bytes())
    d.write_bytes(a.read_bytes().replace(b"ayr,", b"ayz,"))
    for p in (a, a, b, c, d):
        got = read_archive(p)
        assert got._source == (hashlib.sha256(p.read_bytes()).hexdigest(), p.stat().st_size)
    assert opened == ["a.csv", "a.csv", "b.csv", "c.csv", "d.csv", "d.csv"]
    assert bulk_parses == [str(a), str(b), str(d)]
    assert read_archive_csv(a)._source is None
    q = tmp_path / "q.csv"
    _write(q, _MULTILINE_STATION)
    got = read_archive(q, 1.0)
    assert got._source == (hashlib.sha256(q.read_bytes()).hexdigest(), q.stat().st_size)
    assert opened[-2:] == ["q.csv", "q.csv"]


def test_read_archive_checks_the_reject_fraction_on_each_call(tmp_path, bulk_parses):
    path = _half_malformed_archive(tmp_path)
    other = tmp_path / "other.csv"
    other.write_bytes(path.read_bytes())
    a = read_archive(path, 0.5)
    assert len(a) == 90 and len(a.rejects) == 90
    for p in (other, path):
        with pytest.raises(DataError) as err:
            read_archive(p, 0.01)
        assert str(err.value).startswith(f"{p}: 90 of 180 rows rejected")
        with pytest.raises(DataError) as want:
            read_archive_csv(p, 0.01)
        assert str(err.value) == str(want.value)
    assert read_archive(other, 0.5) is a
    # One cached parse; read_archive_csv parses on each call.
    assert bulk_parses == [str(path), str(other), str(path)]


def test_read_archive_cache_drops_the_least_recently_used(tmp_path, bulk_parses):
    paths = []
    for i in range(archive._READ_CACHE + 1):
        paths.append(tmp_path / f"a{i}.csv")
        write_archive_csv(_mk_records(seed=i), paths[-1])
    for p in paths[:-1]:
        read_archive(p)
    read_archive(paths[0])  # now the most recently used
    read_archive(paths[-1])  # drops paths[1]
    assert len(archive._reads) == archive._READ_CACHE
    del bulk_parses[:]
    read_archive(paths[0])
    read_archive(paths[-1])
    assert bulk_parses == []
    read_archive(paths[1])
    assert bulk_parses == [str(paths[1])]
    assert len(archive._reads) == archive._READ_CACHE


def test_cached_archives_stay_read_only_through_postprocess_ecc(tmp_path, bulk_parses):
    path = _write_archive_file(tmp_path, n_days=8)
    a = read_archive(path)
    before = [x.tobytes() for x in (a.members, a.n_members, a.obs)]
    out = tmp_path / "pp"
    assert main(["postprocess", "--archive", path, "--window-days", "3", "--ecc",
                 "--out", str(out)]) == 0
    assert (out / "ecc.csv").exists()
    assert read_archive(path) is a and bulk_parses == [path]
    for x, b in zip((a.members, a.n_members, a.obs), before):
        assert not x.flags.writeable
        assert x.tobytes() == b
        with pytest.raises(ValueError):
            x[0] = 0


def test_read_archive_csv_and_jsonl_parse_on_every_call(tmp_path, bulk_parses, monkeypatch):
    path = _write_archive_file(tmp_path)
    jsonl = tmp_path / "a.jsonl"
    write_archive_jsonl(read_archive_csv(path), jsonl)
    rows = []
    jsonl_rows = archive._jsonl_rows
    monkeypatch.setattr(archive, "_jsonl_rows", lambda fh: rows.append(1) or jsonl_rows(fh))
    for _ in range(3):
        read_archive_csv(path)
        read_archive_jsonl(jsonl)
    assert bulk_parses == [path] * 4 and len(rows) == 3
    assert archive._reads == {}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_csv_archive())
def test_read_archive_equals_read_archive_csv_cold_and_warm(tmp_path_factory, text):
    path = str(tmp_path_factory.getbasetemp() / "cache_property.csv")
    _write(path, text)
    reads = archive._reads
    try:
        for frac in (1.0, 0.01):
            archive._reads = {}
            want = _read_or_error(read_archive_csv, path, frac)
            cold = _read_or_error(read_archive, path, frac)
            warm = _read_or_error(read_archive, path, frac)
            assert len(archive._reads) == 1
            for got in (cold, warm):
                if isinstance(want, str):
                    assert got == want
                    continue
                assert got.station_ids == want.station_ids
                assert got.init_dates == want.init_dates
                assert got.lead_times == want.lead_times
                assert got.members.shape == want.members.shape
                assert got.members.tobytes() == want.members.tobytes()
                assert got.obs.tobytes() == want.obs.tobytes()
                assert np.array_equal(got.n_members, want.n_members)
                assert got.rejects == want.rejects
            assert isinstance(want, str) or warm is cold
    finally:
        archive._reads = reads


def test_read_archive_cache_under_concurrent_readers(tmp_path, monkeypatch):
    """Threads reading more files than the cache holds each get their
    own file's archive, and the cache never exceeds its bound."""
    monkeypatch.setattr(archive, "_reads", {})
    paths = []
    for i in range(archive._READ_CACHE + 2):
        paths.append(str(tmp_path / f"a{i}.csv"))
        write_archive_csv(_mk_records(n_days=1, stations=(f"s{i}",)), paths[-1])
    errors, sizes = [], []

    def reader(k):
        try:
            for j in range(60):
                p = paths[(j * (k + 1)) % len(paths)]
                got = read_archive(p)
                assert got.station_ids[0] == f"s{paths.index(p)}"
                # Under the lock: read_archive holds one entry too many
                # for an instant between inserting and evicting.
                with archive._reads_lock:
                    sizes.append(len(archive._reads))
        except Exception as exc:  # reported to the main thread below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(sizes) == 240 and max(sizes) <= archive._READ_CACHE


def test_cli_manifest_records_the_digest_of_each_archive_read(tmp_path):
    arch = _write_archive_file(tmp_path)
    data = Path(arch).read_bytes()
    want = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    runs = []
    for i in (1, 2):
        out = tmp_path / f"run{i}"
        assert main(["score", "--archive", arch, "--score", "crps", "--out", str(out)]) == 0
        runs.append(_manifest_without_timing(out / "manifest.json"))
    assert runs[0] == runs[1]
    assert runs[0]["inputs"] == {"archive": want}
    # One byte more: another digest and size.
    Path(arch).write_bytes(data.replace(b"\n", b"\n\n", 1))
    out = tmp_path / "run3"
    assert main(["score", "--archive", arch, "--score", "crps", "--out", str(out)]) == 0
    inputs = _manifest_without_timing(out / "manifest.json")["inputs"]["archive"]
    assert inputs["bytes"] == len(data) + 1 and inputs["sha256"] != want["sha256"]
    ref = tmp_path / "ref.csv"
    ref.write_bytes(data)
    out = tmp_path / "rep"
    assert main(["report", "--archive", arch, "--reference", str(ref), "--out", str(out)]) == 0
    assert _manifest_without_timing(out / "manifest.json")["inputs"] == {
        "archive": inputs, "reference": want,
    }
    out = tmp_path / "synth"
    assert main(["synth", "score_curves", "--out", str(out)]) == 0
    assert _manifest_without_timing(out / "manifest.json")["inputs"] == {}


@pytest.mark.parametrize(
    "argv",
    [
        ["score", "--score", "crps", "--lead-times", "x"],
        ["report", "--reference", "REF", "--lead-times", "x"],
        ["report", "--reference", "REF", "--scores", "crps,bogus"],
        ["report", "--reference", "REF", "--scores", "crps, crps"],
        ["report", "--reference", "REF", "--scores", ","],
        ["postprocess", "--window-days", "0"],
        ["score", "--score", "brier"],
        ["score", "--score", "owcrps", "--threshold", "25"],
        ["score", "--score", "es", "--lead-times", "1,1"],
        ["report", "--reference", "REF", "--scores", "brier"],
        ["score", "--score", "vs", "--p", "0"],
        ["score", "--score", "twes", "--level", "1", "--lead-times", "1,2"],
        ["score", "--score", "twes"],
        ["report", "--reference", "REF", "--scores", "crps,vrvs"],
        ["diagnose", "--smooth", "--bins", "0"],
        ["diagnose", "--corp-resamples", "0"],
    ],
    ids=(
        "score-lead-times",
        "report-lead-times",
        "report-scores",
        "report-scores-repeated",
        "report-scores-empty",
        "postprocess-window-days",
        "score-brier-no-threshold",
        "score-owcrps-no-smooth",
        "score-es-repeated-lead-times",
        "report-brier-no-threshold",
        "score-vs-p-zero",
        "score-heat-level-two-lead-times",
        "score-twes-no-weight",
        "report-vrvs-no-weight",
        "diagnose-bins-zero",
        "diagnose-corp-resamples-zero",
    ),
)
def test_cli_checks_flags_before_reading_the_archive(tmp_path, capsys, argv):
    """A bad flag exits 1 even when the archive does not exist."""
    missing = str(tmp_path / "missing.csv")
    argv = [missing if a == "REF" else a for a in argv]
    capsys.readouterr()
    assert main(argv + ["--archive", missing, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("wverif: ") and "No such file" not in err


@pytest.mark.parametrize("flag", ["--bins", "--corp-resamples"])
def test_cli_diagnose_bad_count_writes_no_ranks(tmp_path, flag):
    """A zero count is refused before the read, so an existing archive
    leaves no rank histogram behind without a manifest."""
    path = tmp_path / "archive.csv"
    _score_raw_archive(path)
    out = tmp_path / "o"
    argv = ["diagnose", "--smooth", flag, "0", "--archive", str(path), "--out", str(out)]
    assert main(argv) == 1
    assert not (out / "ranks.csv").exists()


def _score_raw_archive(path):
    """A small seeded archive like the benchmark's score-raw one: members
    straddling 25 degrees, and one stacked case (ayr, first day) with
    three hot observations and no member in [25, inf)^3, on which owes
    fails."""
    rng = np.random.default_rng(20)
    recs = []
    for day in range(6):
        for sid in ("ayr", "bex", "cor"):
            for lead in (1, 2, 3):
                date = datetime.date(2024, 6, 1) + datetime.timedelta(days=day)
                if sid == "ayr" and day == 0:
                    members, obs = 15.0 + 0.05 * np.arange(11), 29.5 + 0.5 * lead
                else:
                    members, obs = 25.0 + rng.normal(0.0, 2.0, 11), 25.0 + rng.normal(0.0, 2.0)
                recs.append(ArchiveRecord(sid, date, lead, members, float(obs)))
    write_archive_csv(recs, path)


def test_cli_score_raw_ops_in_a_loop_give_cold_bytes_warm(tmp_path, monkeypatch):
    """All score-raw ops of the benchmark, twice in one process: each op's
    second (cached) run writes the bytes of its first, and the failing owes
    op leaves the cached archive as it was."""
    monkeypatch.setattr(archive, "_reads", {})
    path = tmp_path / "archive.csv"
    _score_raw_archive(path)
    base = ["score", "--archive", str(path), "--threshold", "25.0", "--score"]
    ops = {s: base + [s] for s in ("crps", "brier", "twcrps", "vrcrps", "owes")}
    ops |= {s: base[:-3] + ["--score", s] for s in ("es", "vs")}
    ops |= {s: base[:-3] + ["--level", "3", "--score", s] for s in ("twes", "twvs", "vres", "vrvs")}
    assert len(ops) == 11
    written = []
    for run in ("cold", "warm"):
        files = {}
        for name, argv in ops.items():
            out = tmp_path / run / name
            code = main(argv + ["--out", str(out)])
            assert code == (3 if name == "owes" else 0), name
            if code == 0:
                files[name] = (out / "scores.csv").read_bytes()
        written.append(files)
        assert len(archive._reads) == 1
        (a,) = archive._reads.values()
        assert a.members.tobytes() == read_archive_csv(path).members.tobytes()
    assert written[0] == written[1]
    assert len(written[0]) == 10 and all(b.count(b"\n") > 1 for b in written[0].values())
