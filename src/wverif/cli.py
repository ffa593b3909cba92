"""Command line interface.

Subcommands: score, diagnose, postprocess, synth, report.  Every run
writes its data files plus a manifest.json into the output directory;
given the same inputs and seed the data files are byte-identical
across runs (the manifest also records wall time, which is not).

Exit codes: 0 success, 1 usage or configuration problem, 2 data
problem, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .archive import (
    MULTIVARIATE_SCORES,
    UNIVARIATE_SCORES,
    _csv_keys,
    _score_columns,
    read_archive,
    score_archive,
    skill_table,
    write_archive_csv,
)
from .calibration import (
    corp_reliability,
    cpit,
    pit,
    pit_ecdf,
    rank,
    rank_histogram,
    histogram_summary,
    reliability_index,
)
from .exceptions import (
    ContractViolation,
    DataError,
    DegenerateConditional,
    InsufficientData,
    NumericalError,
    UnsupportedInput,
    WeightedMassZero,
)
from .forecasts import Ensemble, Normal
from .postprocess import (
    StationMeta,
    TrainingWindow,
    ecc_reorder,
    fit_climatology,
    fit_emos,
    lapse_rate_correct,
    predict_emos,
    smooth_ensemble,
)
from .synthlab import ExperimentSpec, run_experiment
from .archive import ArchiveRecord

_MAX_TABLE_ROWS = 2048


# ---------------------------------------------------------------------------
# formatting helpers (canonical, so reruns reproduce files byte for byte)
# ---------------------------------------------------------------------------


def _fmt_cell(v) -> str:
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
    return str(v)


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt_cell(v) for v in row])


def _write_jsonl(path: str, rows) -> None:
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(_json_safe(row), sort_keys=True))
            fh.write("\n")


def _json_safe(v):
    if isinstance(v, dict):
        return {k: _json_safe(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_safe(x) for x in v]
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, np.ndarray):
        return [_json_safe(x) for x in v.tolist()]
    if isinstance(v, datetime.date):
        return v.isoformat()
    return v


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(_json_safe(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _thin(n: int, limit: int = _MAX_TABLE_ROWS) -> np.ndarray:
    """Indices of at most ``limit`` evenly spaced rows out of ``n``."""
    if n <= limit:
        return np.arange(n)
    return np.unique(np.linspace(0, n - 1, limit).round().astype(int))


def _num_label(x: float) -> str:
    return f"{x:g}".replace("-", "m").replace(".", "p")


def _hist_rows(hist):
    edges = hist.bin_edges
    return [
        (edges[i], edges[i + 1], int(hist.counts[i]), float(hist.frequencies[i]))
        for i in range(hist.k)
    ]


_HIST_HEADER = ("bin_lo", "bin_hi", "count", "frequency")


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------


def _cmd_score(args) -> list:
    archive = read_archive(args.archive, args.max_reject_fraction)
    lead_times = _parse_lead_times(args.lead_times)
    sids, dates, leads, values = _score_columns(
        archive,
        args.score,
        threshold=args.threshold,
        x0=args.x0,
        p=args.p,
        smooth=args.smooth,
        lead_times=lead_times,
        level=args.level,
    )
    # Rows sort by station, init date and lead time (stacked cases have
    # none); the keys are unique, so the order is total.
    order = sorted(
        range(len(values)),
        key=lambda i: (sids[i], dates[i], -1 if leads[i] is None else leads[i]),
    )
    values = values[order]
    sids = [sids[i] for i in order]
    dates = [dates[i] for i in order]
    leads = [leads[i] for i in order]
    outputs = []
    if args.format == "csv":
        with open(os.path.join(args.out, "scores.csv"), "w", newline="") as fh:
            fh.write("station_id,init_date,lead_time,score,value\n")
            fh.writelines(
                f"{key},{args.score},{v!r}\n"
                for key, v in zip(_csv_keys(sids, dates, leads), values.tolist())
            )
        outputs.append("scores.csv")
    else:
        _write_jsonl(
            os.path.join(args.out, "scores.jsonl"),
            [
                {
                    "station_id": sid,
                    "init_date": d.isoformat(),
                    "lead_time": lead,
                    "score": args.score,
                    "value": v,
                }
                for sid, d, lead, v in zip(sids, dates, leads, values.tolist())
            ],
        )
        outputs.append("scores.jsonl")
    mean = float(np.mean(values)) if len(values) else float("nan")
    _write_json(
        os.path.join(args.out, "summary.json"),
        {
            "score": args.score,
            "n_records": len(archive),
            "n_rejected": len(archive.rejects),
            "n_scored": len(values),
            "mean": mean,
        },
    )
    outputs.append("summary.json")
    return outputs


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------


def _cmd_diagnose(args) -> list:
    archive = read_archive(args.archive, args.max_reject_fraction)
    if len(archive) == 0:
        raise DataError(f"{args.archive}: no records to diagnose")
    sizes = {rec.members.size for rec in archive}
    if len(sizes) != 1:
        raise DataError(
            f"rank histograms need one member count per archive, found {sorted(sizes)}"
        )
    m = sizes.pop()
    outputs = []
    summary: dict = {"n_records": len(archive), "members": m, "seed": args.seed}

    rng = np.random.default_rng(args.seed)
    ranks = [rank(Ensemble(rec.members), rec.obs, rng) for rec in archive]
    rhist = rank_histogram(ranks, m + 1)
    _write_csv(
        os.path.join(args.out, "ranks.csv"),
        ("rank", "count", "frequency"),
        [
            (i + 1, int(rhist.counts[i]), float(rhist.frequencies[i]))
            for i in range(rhist.k)
        ],
    )
    outputs.append("ranks.csv")
    summary["rank_ri"] = reliability_index(rhist)

    if args.smooth:
        smoothed = [smooth_ensemble(Ensemble(rec.members)) for rec in archive]
        pits = np.array([pit(fc, rec.obs) for fc, rec in zip(smoothed, archive)])
        phist = histogram_summary(pits, bins=args.bins)
        _write_csv(os.path.join(args.out, "pit_hist.csv"), _HIST_HEADER, _hist_rows(phist))
        outputs.append("pit_hist.csv")
        summary["pit_ri"] = reliability_index(phist)
        summary["thresholds"] = []

        for t in _parse_floats(args.thresholds):
            label = _num_label(t)
            cps = []
            n_skipped = 0
            for fc, rec in zip(smoothed, archive):
                try:
                    u = cpit(fc, rec.obs, t)
                except DegenerateConditional:
                    n_skipped += 1
                    continue
                if u is not None:
                    cps.append(u)
            cps = np.asarray(cps, dtype=float)
            entry = {
                "threshold": t,
                "n_exceed": int(cps.size),
                "n_skipped": n_skipped,
            }
            if cps.size:
                chist = histogram_summary(cps, bins=args.bins)
                _write_csv(
                    os.path.join(args.out, f"cpit_hist_{label}.csv"),
                    _HIST_HEADER,
                    _hist_rows(chist),
                )
                outputs.append(f"cpit_hist_{label}.csv")
                entry["cpit_ri"] = reliability_index(chist)
                u_sorted, p_sorted = pit_ecdf(cps)
                keep = _thin(u_sorted.size)
                _write_csv(
                    os.path.join(args.out, f"cpit_ecdf_{label}.csv"),
                    ("u", "p"),
                    list(zip(u_sorted[keep], p_sorted[keep])),
                )
                outputs.append(f"cpit_ecdf_{label}.csv")
            probs = np.array([1.0 - fc.cdf(t) for fc in smoothed])
            events = np.array([1.0 if rec.obs > t else 0.0 for rec in archive])
            if np.unique(events).size == 2:
                fit = corp_reliability(
                    probs,
                    events,
                    resamples=args.corp_resamples,
                    seed=np.random.default_rng(
                        (args.seed, 7, int(round(t * 1000)) & 0xFFFFFFFF)
                    ),
                )
                keep = _thin(fit.probs.size)
                _write_csv(
                    os.path.join(args.out, f"corp_{label}.csv"),
                    ("prob", "cep", "band_lower", "band_upper"),
                    list(
                        zip(
                            fit.probs[keep],
                            fit.cep[keep],
                            fit.band_lower[keep],
                            fit.band_upper[keep],
                        )
                    ),
                )
                outputs.append(f"corp_{label}.csv")
            summary["thresholds"].append(entry)

    _write_json(os.path.join(args.out, "summary.json"), summary)
    outputs.append("summary.json")
    return outputs


# ---------------------------------------------------------------------------
# postprocess
# ---------------------------------------------------------------------------


def _read_stations(path: str) -> dict:
    """Station metadata csv: station_id, mhd, tpi and optional heights."""
    out = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        need = {"station_id", "mhd", "tpi"}
        if reader.fieldnames is None or not need.issubset(reader.fieldnames):
            raise DataError(f"{path}: expected columns station_id, mhd, tpi")
        for row in reader:
            sid = row["station_id"].strip()
            try:
                meta = StationMeta(sid, float(row["mhd"]), float(row["tpi"]))
                heights = None
                if row.get("model_height") and row.get("station_height"):
                    heights = (float(row["model_height"]), float(row["station_height"]))
            except ValueError as exc:
                raise DataError(f"{path}: bad row for station {sid!r}: {exc}") from None
            out[sid] = (meta, heights)
    return out


def _cmd_postprocess(args) -> list:
    archive = read_archive(args.archive, args.max_reject_fraction)
    if len(archive) == 0:
        raise DataError(f"{args.archive}: nothing to postprocess")
    stations = _read_stations(args.stations) if args.stations else {}
    lead_times = sorted({rec.lead_time for rec in archive})

    def _meta_for(sid: str) -> tuple:
        if sid in stations:
            return stations[sid]
        return StationMeta(sid, 0.0, 0.0), None

    def _corrected(rec) -> np.ndarray:
        meta, heights = _meta_for(rec.station_id)
        if heights is None:
            return rec.members
        return lapse_rate_correct(rec.members, heights[0], heights[1])

    n_meta_missing = len(
        {rec.station_id for rec in archive if rec.station_id not in stations}
    ) if stations else 0

    by_lead: dict = {}
    for rec in archive:
        by_lead.setdefault(rec.lead_time, []).append(rec)

    predictions = []
    params_rows = []
    n_unfit = 0
    for lt in lead_times:
        recs = sorted(
            by_lead[lt], key=lambda r: (r.init_date.toordinal(), r.station_id)
        )
        window = TrainingWindow(capacity_days=args.window_days)
        params = None
        for date, day_recs in _by_date(recs):
            if params is not None:
                for rec in day_recs:
                    members = _corrected(rec)
                    meta, _ = _meta_for(rec.station_id)
                    xbar = float(members.mean())
                    var = float(members.var(ddof=1)) if members.size > 1 else 0.0
                    fc = predict_emos(params, xbar, var, meta)
                    predictions.append(
                        (rec.station_id, rec.init_date, lt, fc.mean_, np.sqrt(fc.variance_))
                    )
            else:
                n_unfit += len(day_recs)
            for rec in day_recs:
                members = _corrected(rec)
                meta, _ = _meta_for(rec.station_id)
                xbar = float(members.mean())
                var = float(members.var(ddof=1)) if members.size > 1 else 0.0
                window.add_case(date, xbar, var, meta, rec.obs)
            try:
                params = fit_emos(window, init=params)
            except InsufficientData:
                params = None
                continue
            params_rows.append(
                {
                    "lead_time": lt,
                    "train_through": date.isoformat(),
                    "n_train": window.size,
                    **params.to_dict(),
                }
            )

    predictions.sort(key=lambda r: (r[0], r[1].toordinal(), r[2]))
    _write_csv(
        os.path.join(args.out, "predictions.csv"),
        ("station_id", "init_date", "lead_time", "mean", "sd"),
        predictions,
    )
    _write_jsonl(os.path.join(args.out, "params.jsonl"), params_rows)
    outputs = ["predictions.csv", "params.jsonl"]

    if args.ecc:
        outputs.append(_run_ecc(args, archive, predictions, lead_times))
    if args.climatology:
        outputs.append(_run_climatology(args, archive))

    _write_json(
        os.path.join(args.out, "summary.json"),
        {
            "n_records": len(archive),
            "n_rejected": len(archive.rejects),
            "lead_times": lead_times,
            "n_predictions": len(predictions),
            "n_before_first_fit": n_unfit,
            "n_stations_without_metadata": n_meta_missing,
            "window_days": args.window_days,
        },
    )
    outputs.append("summary.json")
    return outputs


def _by_date(records):
    """Yield (date, records-of-that-date) in ascending date order."""
    bucket = []
    current = None
    for rec in records:
        if current is None or rec.init_date == current:
            current = rec.init_date
            bucket.append(rec)
        else:
            yield current, bucket
            current = rec.init_date
            bucket = [rec]
    if bucket:
        yield current, bucket


def _run_ecc(args, archive, predictions, lead_times) -> str:
    """Recouple calibrated margins with raw ensemble rank order."""
    pred_map = {(sid, d, lt): (mean, sd) for sid, d, lt, mean, sd in predictions}
    rec_map = {}
    for rec in archive:
        rec_map[(rec.station_id, rec.init_date, rec.lead_time)] = rec
    groups = sorted(
        {(rec.station_id, rec.init_date) for rec in archive},
        key=lambda k: (k[0], k[1].toordinal()),
    )
    rows = []
    for sid, d in groups:
        keys = [(sid, d, lt) for lt in lead_times]
        if not all(k in pred_map and k in rec_map for k in keys):
            continue
        recs = [rec_map[k] for k in keys]
        sizes = {r.members.size for r in recs}
        if len(sizes) != 1:
            continue
        margins = [Normal(pred_map[k][0], pred_map[k][1] ** 2) for k in keys]
        raw = np.stack([r.members for r in recs])
        coupled = ecc_reorder(margins, raw)
        for lt, rec, row in zip(lead_times, recs, coupled.members):
            rows.append(ArchiveRecord(sid, d, lt, row, rec.obs))
    write_archive_csv(rows, os.path.join(args.out, "ecc.csv"))
    return "ecc.csv"


def _run_climatology(args, archive) -> str:
    by_station: dict = {}
    for rec in archive:
        by_station.setdefault(rec.station_id, []).append(rec.obs)
    rows = []
    for sid in sorted(by_station):
        obs = by_station[sid]
        try:
            fc = fit_climatology(obs)
        except InsufficientData:
            continue
        rows.append((sid, fc.mean_, float(np.sqrt(fc.variance_)), len(obs)))
    _write_csv(
        os.path.join(args.out, "climatology.csv"),
        ("station_id", "mean", "sd", "n"),
        rows,
    )
    return "climatology.csv"


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def _parse_param(text: str):
    if "=" not in text:
        raise ContractViolation(f"parameters look like name=value, got {text!r}")
    key, raw = text.split("=", 1)
    if raw.lower() in ("true", "false"):
        return key, raw.lower() == "true"
    try:
        return key, int(raw)
    except ValueError:
        pass
    try:
        return key, float(raw)
    except ValueError:
        return key, raw


def _cmd_synth(args) -> list:
    params = dict(_parse_param(p) for p in args.param or [])
    spec = ExperimentSpec(args.experiment, params, seed=args.seed)
    try:
        result = run_experiment(spec)
    except TypeError as exc:
        raise ContractViolation(f"bad parameter for {args.experiment}: {exc}") from None
    writer = _SYNTH_WRITERS[args.experiment]
    return writer(args.out, result)


def _write_score_curves(out: str, res) -> list:
    _write_csv(
        os.path.join(out, "curves.csv"),
        ("y", "crps", "twcrps", "owcrps", "vrcrps"),
        list(zip(res.ys, res.crps, res.twcrps, res.owcrps, res.vrcrps)),
    )
    _write_json(
        os.path.join(out, "summary.json"),
        {"t": res.t, "x0": res.x0, "n_points": int(res.ys.size)},
    )
    return ["curves.csv", "summary.json"]


def _write_ideal_forecaster(out: str, res) -> list:
    files = {
        "pit_hist.csv": res.pit_hist,
        "cpit_hist.csv": res.cpit_hist,
        "restricted_hist.csv": res.restricted_hist,
    }
    for name, hist in files.items():
        _write_csv(os.path.join(out, name), _HIST_HEADER, _hist_rows(hist))
    _write_json(
        os.path.join(out, "summary.json"),
        {
            "n": res.n,
            "n_exceed": res.n_exceed,
            "sigma2": res.sigma2,
            "t": res.t,
            "seed": res.seed,
            "pit_ri": reliability_index(res.pit_hist),
            "cpit_ri": reliability_index(res.cpit_hist),
            "restricted_ri": reliability_index(res.restricted_hist),
        },
    )
    return list(files) + ["summary.json"]


def _write_tail_forecasters(out: str, res) -> list:
    outputs = []
    summary = {"n": res.n, "n_exceed": res.n_exceed, "t": res.t, "seed": res.seed}
    for name in sorted(res.forecasters):
        fc = res.forecasters[name]
        _write_csv(
            os.path.join(out, f"cpit_hist_{name}.csv"), _HIST_HEADER, _hist_rows(fc.cpit_hist)
        )
        keep = _thin(fc.ecdf_u.size)
        _write_csv(
            os.path.join(out, f"cpit_ecdf_{name}.csv"),
            ("u", "p"),
            list(zip(fc.ecdf_u[keep], fc.ecdf_p[keep])),
        )
        keep = _thin(fc.corp.probs.size)
        _write_csv(
            os.path.join(out, f"corp_{name}.csv"),
            ("prob", "cep", "band_lower", "band_upper"),
            list(
                zip(
                    fc.corp.probs[keep],
                    fc.corp.cep[keep],
                    fc.corp.band_lower[keep],
                    fc.corp.band_upper[keep],
                )
            ),
        )
        outputs += [f"cpit_hist_{name}.csv", f"cpit_ecdf_{name}.csv", f"corp_{name}.csv"]
        summary[f"cpit_ri_{name}"] = reliability_index(fc.cpit_hist)
    _write_json(os.path.join(out, "summary.json"), summary)
    return outputs + ["summary.json"]


def _write_propriety(out: str, rows) -> list:
    _write_csv(
        os.path.join(out, "propriety.csv"),
        ("score", "pair", "mean_true", "mean_other", "se_diff", "passed"),
        [(r.score, r.pair, r.mean_true, r.mean_other, r.se_diff, r.passed) for r in rows],
    )
    _write_json(
        os.path.join(out, "summary.json"),
        {"n_rows": len(rows), "n_passed": sum(r.passed for r in rows)},
    )
    return ["propriety.csv", "summary.json"]


def _write_impropriety(out: str, res) -> list:
    _write_csv(
        os.path.join(out, "impropriety.csv"),
        ("rule", "mean_truth", "mean_truncated", "se_diff", "preferred"),
        [
            (
                "naive_weighted_crps",
                res.naive_truth,
                res.naive_trunc,
                res.naive_se,
                "truncated" if res.naive_prefers_truncated else "none",
            ),
            (
                "twcrps",
                res.tw_truth,
                res.tw_trunc,
                res.tw_se,
                "truth" if res.tw_prefers_truth else "none",
            ),
        ],
    )
    _write_json(
        os.path.join(out, "summary.json"),
        {
            "t": res.t,
            "n": res.n,
            "seed": res.seed,
            "naive_prefers_truncated": res.naive_prefers_truncated,
            "tw_prefers_truth": res.tw_prefers_truth,
        },
    )
    return ["impropriety.csv", "summary.json"]


_SYNTH_WRITERS = {
    "score_curves": _write_score_curves,
    "ideal_forecaster": _write_ideal_forecaster,
    "tail_forecasters": _write_tail_forecasters,
    "propriety": _write_propriety,
    "impropriety": _write_impropriety,
}


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def _cmd_report(args) -> list:
    archive = read_archive(args.archive, args.max_reject_fraction)
    reference = read_archive(args.reference, args.max_reject_fraction)
    lead_times = _parse_lead_times(args.lead_times)
    rows = []
    for score in [s.strip() for s in args.scores.split(",") if s.strip()]:
        kwargs = dict(
            threshold=args.threshold,
            p=args.p,
            smooth=args.smooth,
            lead_times=lead_times,
            level=args.level,
        )
        scored = score_archive(archive, score, **kwargs)
        scored_ref = score_archive(reference, score, **kwargs)
        by = "lead_time" if score in UNIVARIATE_SCORES else "all"
        for r in skill_table(scored, scored_ref, by=by):
            rows.append(
                (
                    score,
                    r.group,
                    r.n,
                    r.mean_score,
                    r.mean_reference,
                    r.skill,
                    r.degenerate,
                )
            )
    _write_csv(
        os.path.join(args.out, "report.csv"),
        ("score", "group", "n", "mean_score", "mean_reference", "skill", "degenerate"),
        rows,
    )
    return ["report.csv"]


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------


def _parse_lead_times(text: str) -> tuple:
    try:
        return tuple(int(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise ContractViolation(f"bad lead time list {text!r}") from None


def _parse_floats(text: str) -> tuple:
    try:
        return tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise ContractViolation(f"bad number list {text!r}") from None


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None, help="json file with option defaults")
    p.add_argument(
        "--max-reject-fraction",
        type=float,
        default=0.01,
        help="abort ingest when more than this fraction of rows fail",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wverif",
        description="probabilistic forecast verification with event weighting",
    )
    parser.add_argument("--version", action="version", version=f"wverif {__version__}")
    sub = parser.add_subparsers(dest="cmd")

    p = sub.add_parser("score", help="score every case of an archive")
    p.add_argument("--archive", required=True)
    p.add_argument(
        "--score",
        required=True,
        choices=UNIVARIATE_SCORES + MULTIVARIATE_SCORES,
    )
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--x0", type=float, default=None)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--level", type=int, default=None, choices=(1, 2, 3, 4))
    p.add_argument("--smooth", action="store_true")
    p.add_argument("--lead-times", default="1,2,3")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    _add_common(p)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("diagnose", help="calibration diagnostics for an archive")
    p.add_argument("--archive", required=True)
    p.add_argument("--smooth", action="store_true")
    p.add_argument("--thresholds", default="25,27")
    p.add_argument("--bins", type=int, default=20)
    p.add_argument("--corp-resamples", type=int, default=1000)
    _add_common(p)
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("postprocess", help="regression-based calibration pipeline")
    p.add_argument("--archive", required=True)
    p.add_argument("--stations", default=None, help="station metadata csv")
    p.add_argument("--window-days", type=int, default=45)
    p.add_argument("--ecc", action="store_true")
    p.add_argument("--climatology", action="store_true")
    _add_common(p)
    p.set_defaults(func=_cmd_postprocess)

    p = sub.add_parser("synth", help="seeded synthetic experiments")
    p.add_argument("experiment", choices=sorted(_SYNTH_WRITERS))
    p.add_argument(
        "--param",
        action="append",
        metavar="NAME=VALUE",
        help="experiment parameter override, repeatable",
    )
    _add_common(p)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("report", help="skill against a reference archive")
    p.add_argument("--archive", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--scores", default="crps,es,vs")
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--level", type=int, default=None, choices=(1, 2, 3, 4))
    p.add_argument("--smooth", action="store_true")
    p.add_argument("--lead-times", default="1,2,3")
    _add_common(p)
    p.set_defaults(func=_cmd_report)

    return parser


def _apply_config(args, argv) -> None:
    """Fill options from the json config for flags not given explicitly."""
    if not args.config:
        return
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ContractViolation(f"cannot read config {args.config}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ContractViolation(f"{args.config}: config must be a json object")
    explicit = {a.split("=", 1)[0] for a in argv if a.startswith("--")}
    for key, value in cfg.items():
        dest = key.replace("-", "_")
        if not hasattr(args, dest) or dest in ("func", "cmd", "config"):
            raise ContractViolation(f"unknown config key {key!r}")
        if f"--{dest.replace('_', '-')}" in explicit:
            continue
        setattr(args, dest, value)


def _echo_config(args) -> dict:
    skip = {"func", "cmd", "out", "config"}
    return {k: _json_safe(v) for k, v in sorted(vars(args).items()) if k not in skip}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
        return 0 if code == 0 else 1
    if getattr(args, "cmd", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    if getattr(args, "seed", 0) < 0:
        print("wverif: --seed must be non-negative", file=sys.stderr)
        return 1

    start = time.perf_counter()
    try:
        _apply_config(args, argv)
        os.makedirs(args.out, exist_ok=True)
        outputs = args.func(args)
    except (ContractViolation, UnsupportedInput) as exc:
        print(f"wverif: {exc}", file=sys.stderr)
        return 1
    except (DataError, InsufficientData, OSError) as exc:
        print(f"wverif: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, WeightedMassZero, DegenerateConditional) as exc:
        print(f"wverif: {exc}", file=sys.stderr)
        return 3

    manifest = {
        "task": args.cmd,
        "config": _echo_config(args),
        "seed": args.seed,
        "package_version": __version__,
        "wall_time_s": round(time.perf_counter() - start, 3),
        "outputs": sorted(outputs),
    }
    _write_json(os.path.join(args.out, "manifest.json"), manifest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
