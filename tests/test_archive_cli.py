import datetime
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from wverif import (
    Archive,
    ArchiveRecord,
    ContractViolation,
    DataError,
    Ensemble,
    UnsupportedInput,
    crps,
    energy_score,
    group_multivariate,
    read_archive,
    read_archive_csv,
    read_archive_jsonl,
    score_archive,
    skill_score,
    skill_table,
    twcrps,
    write_archive_csv,
    write_archive_jsonl,
)
from wverif.archive import ScoredCase
from wverif.cli import main
from wverif.postprocess import smooth_ensemble
from wverif.weights import CensorAbove


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


# ---------------------------------------------------------------------------
# multivariate grouping
# ---------------------------------------------------------------------------


def test_group_multivariate_stacks_member_trajectories():
    recs = _mk_records(n_days=2, stations=("s1", "s2"))
    cases = group_multivariate(recs, lead_times=(1, 2, 3))
    assert len(cases) == 4
    keys = [(c.station_id, c.init_date) for c in cases]
    assert keys == sorted(keys, key=lambda k: (k[0], k[1].toordinal()))
    by_key = {
        (r.station_id, r.init_date, r.lead_time): r for r in recs
    }
    case = cases[0]
    assert case.ensemble.members.shape == (3, 5)
    for i, lt in enumerate((1, 2, 3)):
        rec = by_key[(case.station_id, case.init_date, lt)]
        assert np.array_equal(case.ensemble.members[i], rec.members)
        assert case.obs[i] == rec.obs


def test_group_multivariate_skips_incomplete_groups():
    recs = _mk_records(n_days=1, stations=("s1", "s2"))
    # drop one lead of s2 so only s1 forms a complete trajectory
    recs = [r for r in recs if not (r.station_id == "s2" and r.lead_time == 3)]
    cases = group_multivariate(recs, lead_times=(1, 2, 3))
    assert [c.station_id for c in cases] == ["s1"]
    with pytest.raises(ContractViolation):
        group_multivariate(recs, lead_times=(1, 1, 2))
    with pytest.raises(ContractViolation):
        group_multivariate(recs, lead_times=())


# ---------------------------------------------------------------------------
# scoring an archive
# ---------------------------------------------------------------------------


def test_score_archive_matches_direct_calls():
    recs = _mk_records(n_days=2)
    rows = score_archive(recs, "crps")
    assert len(rows) == len(recs)
    for row, rec in zip(rows, recs):
        assert row.value == crps(Ensemble(rec.members), rec.obs).value
        assert row.lead_time == rec.lead_time

    t = 20.5
    tw_rows = score_archive(recs, "twcrps", threshold=t)
    for row, rec in zip(tw_rows, recs):
        want = twcrps(Ensemble(rec.members), rec.obs, CensorAbove(t)).value
        assert row.value == want


def test_score_archive_smooth_route():
    recs = _mk_records(n_days=1)
    rows = score_archive(recs, "crps", smooth=True)
    for row, rec in zip(rows, recs):
        want = crps(smooth_ensemble(Ensemble(rec.members)), rec.obs).value
        assert row.value == want


def test_outcome_weighted_scores_need_smooth_forecasts():
    recs = _mk_records(n_days=1)
    with pytest.raises(UnsupportedInput, match="smooth"):
        score_archive(recs, "owcrps", threshold=20.0)
    with pytest.raises(UnsupportedInput, match="smooth"):
        score_archive(recs, "owcrps_bs", threshold=20.0)


def test_score_archive_validation():
    recs = _mk_records(n_days=1)
    with pytest.raises(ContractViolation, match="threshold"):
        score_archive(recs, "twcrps")
    with pytest.raises(ContractViolation, match="unknown score"):
        score_archive(recs, "xyz")


def test_score_archive_multivariate_matches_grouped_cases():
    recs = _mk_records(n_days=2)
    rows = score_archive(recs, "es")
    cases = group_multivariate(recs)
    assert len(rows) == len(cases)
    for row, case in zip(rows, cases):
        assert row.value == energy_score(case.ensemble, case.obs).value
        assert row.lead_time is None


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


def test_skill_table_matches_on_case_and_groups():
    d = datetime.date(2024, 6, 1)
    scored = [
        ScoredCase("a", d, 1, "crps", 0.8),
        ScoredCase("a", d, 2, "crps", 0.96),
        ScoredCase("b", d, 1, "crps", 1.0),
        ScoredCase("c", d, 1, "crps", 5.0),  # not in the reference
    ]
    reference = [
        ScoredCase("a", d, 1, "crps", 1.0),
        ScoredCase("a", d, 2, "crps", 1.2),
        ScoredCase("b", d, 1, "crps", 1.0),
    ]
    rows = skill_table(scored, reference, by="lead_time")
    assert [r.group for r in rows] == ["1", "2"]
    lead1 = rows[0]
    assert lead1.n == 2
    assert_allclose(lead1.mean_score, 0.9)
    assert_allclose(lead1.mean_reference, 1.0)
    assert_allclose(lead1.skill, 0.1)
    assert_allclose(rows[1].skill, 0.2)

    pooled = skill_table(scored, reference, by="all")
    assert len(pooled) == 1 and pooled[0].n == 3
    with pytest.raises(ContractViolation):
        skill_table(scored, reference, by="station")


def test_skill_table_sorts_lead_times_numerically():
    d = datetime.date(2024, 6, 1)
    cases = [ScoredCase("a", d, lead, "crps", 1.0) for lead in (10, 2, 1)]
    cases.append(ScoredCase("a", d, None, "es", 1.0))
    rows = skill_table(cases, cases, by="lead_time")
    assert [r.group for r in rows] == ["1", "2", "10", "None"]


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def _write_archive_file(tmp_path, name="arch.csv", **kwargs):
    path = tmp_path / name
    write_archive_csv(_mk_records(**kwargs), path)
    return str(path)


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
