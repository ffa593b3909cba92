"""Every workload once at smoke size, and a planted wrong value in each
kind of output, to show the checks catch it.

    python3 -m pytest perfbench/tests
"""

import contextlib
import csv
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 3


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One smoke run per workload, made on first use: (work dir, result)."""
    runs = {}

    def get(workload):
        if workload not in runs:
            work = str(tmp_path_factory.mktemp(workload))
            runs[workload] = work, run.run_benchmark(ROOT, workload, SEED, 0.0, 0, work, smoke=True)
        return runs[workload]

    return get


@contextlib.contextmanager
def planted(path, edit):
    """Apply ``edit`` to the rows of a csv file, restoring it afterwards."""
    with open(path, newline="") as fh:
        text = fh.read()
    rows = list(csv.reader(text.splitlines()))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    try:
        yield
    finally:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _problems(workload, work):
    size = workloads.sizes(workload, True)
    ops = [op.name for op in workloads.operations(workload, "", "", SEED, size) if op.fails_with is None]
    return checks.check(workload, os.path.join(work, "inputs"), os.path.join(work, "out"), size, ops)


def _bump(row, col, by):
    def edit(rows):
        cell = rows[row][col]
        rows[row][col] = str(int(cell) + by) if cell.isdigit() else repr(float(cell) + by)
    return edit


def _set(row, col, value):
    def edit(rows):
        rows[row][col] = value
    return edit


def _swap_members(rows):
    rows[1][3], rows[1][4] = rows[1][4], rows[1][3]


def _drop_last(rows):
    rows.pop()


def _first_positive(path):
    with open(path, newline="") as fh:
        return next(i for i, r in enumerate(csv.reader(fh)) if i and float(r[-1]) > 0.0)


# (workload, file under out/, edit or row finder, expected words in a problem)
PLANTS = [
    ("score-raw", "crps/scores.csv", _bump(5, 4, 1e-3), "score-raw crps"),
    ("score-raw", "brier/scores.csv", _bump(2, 4, 0.5), "score-raw brier"),
    # Row 1 is the planted owes case: nothing in heat level 3, so twes is 0.
    ("score-raw", "twes/scores.csv", _bump(1, 4, 1e-3), "nothing in the level"),
    ("score-raw", "vrvs/scores.csv", _bump(3, 4, 1e-3), "score-raw vrvs"),
    ("score-raw", "vs/scores.csv", _drop_last, "rows, expected"),
    ("score-smooth", "owcrps/scores.csv", "positive", "score-smooth owcrps"),
    ("score-smooth", "vrcrps/scores.csv", _bump(1, 4, 1e-4), "score-smooth vrcrps"),
    ("score-smooth", "twcrps/scores.csv", _bump(2, 4, -1e-4), "score-smooth twcrps"),
    ("calibrate", "postprocess/ecc.csv", _swap_members, "ECC members"),
    ("calibrate", "diagnose/ranks.csv", _bump(1, 1, 1), "rank counts"),
    ("calibrate", "diagnose/pit_hist.csv", _set(1, 2, "0"), "PIT histogram"),
    ("calibrate", "diagnose/corp_25.csv", _set(2, 1, "2.0"), "CORP"),
    ("calibrate", "postprocess/climatology.csv", _bump(1, 1, 1e-3), "climatology mean"),
    ("calibrate", "postprocess/predictions.csv", _drop_last, "predictions"),
    ("calibrate", "report/report.csv", _bump(1, 5, 1e-3), "skill"),
    ("propriety", "propriety/propriety.csv", _bump(1, 2, 10.0), "fails the 2 SE rule"),
    ("propriety", "propriety/propriety.csv", _drop_last, "rows, expected"),
    ("propriety", "impropriety/impropriety.csv", _set(2, 4, "none"), "twCRPS does not prefer"),
]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_is_correct(smoke, workload):
    _, res = smoke(workload)
    assert res["correct"], res["problems"]
    assert res["attempted"] >= 1
    ops = workloads.operations(workload, "", "", SEED, workloads.sizes(workload, True))
    known = sum(op.fails_with is not None for op in ops)
    assert res["failed"] * len(ops) == known * res["attempted"]
    assert set(res["metrics"]) == {"setup_s", "cases_per_s", "peak_rss_mib"}
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("plant", PLANTS, ids=[f"{p[0]}:{p[1]}:{p[3]}" for p in PLANTS])
def test_checks_catch_planted_value(smoke, plant):
    workload, rel, edit, words = plant
    work, _ = smoke(workload)
    path = os.path.join(work, "out", rel)
    if edit == "positive":
        edit = _bump(_first_positive(path), 4, 1e-4)
    assert _problems(workload, work) == []
    with planted(path, edit):
        problems = _problems(workload, work)
    assert any(words in p for p in problems), problems
    assert _problems(workload, work) == []


def test_traced_run_emits_every_layer_metric(tmp_path):
    res = run.run_benchmark(ROOT, "score-raw", SEED, 0.0, 1, str(tmp_path), smoke=True)
    assert res["correct"], res["problems"]
    assert list(res["metrics"]) == list(tracing.METRIC_NAMES)
    for name in ("archive.read_us_per_row", "uniscores.crps_us", "mvscores.vrvs_us",
                 "weights.transform_s", "cli.self_s", "cli.output_bytes"):
        assert res["metrics"][name]["value"] > 0, name
    assert res["metrics"]["uniscores.owcrps_us"]["value"] == 0.0


def test_benchmark_json_names_what_the_runs_print():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, run.unit_of(name)) for name in tracing.METRIC_NAMES]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        ("setup_s", "s"), ("cases_per_s", "cases/s"), ("peak_rss_mib", "MiB")]


def test_refuses_to_run_outside_a_checkout(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "score-raw", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
