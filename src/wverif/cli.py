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
import itertools
import json
import os
import sys
import time

import numpy as np
from scipy.special import ndtr

from . import __version__
from .archive import (
    MULTIVARIATE_SCORES,
    UNIVARIATE_SCORES,
    Archive,
    _blocks,
    _csv_field,
    _csv_keys,
    _multivariate_groups,
    _score_columns,
    _smooth_normals,
    read_archive,
    score_archive,
    skill_table,
    write_archive_csv,
)
from .calibration import (
    _cpit_values,
    _ranks,
    corp_reliability,
    pit_ecdf,
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
from .forecasts import Normal
from .postprocess import (
    StationMeta,
    TrainingWindow,
    ecc_reorder,
    fit_climatology,
    fit_emos,
    lapse_rate_correct,
    predict_emos,
)
from .synthlab import ExperimentSpec, run_experiment

# diagnose works on the archive's columns through the calibration
# kernels; the per-case functions are not called here, but stay bound
# under these names: perfbench's tracer wraps them here and cannot start
# without them.
from .calibration import cpit, pit, rank  # noqa: F401
from .postprocess import smooth_ensemble  # noqa: F401

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
        for row in itertools.chain([header], rows):
            fh.write(",".join(_csv_field(_fmt_cell(v)) for v in row) + "\n")


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


def _write_hist(out: str, name: str, hist) -> str:
    edges, counts, freqs = hist.bin_edges.tolist(), hist.counts.tolist(), hist.frequencies.tolist()
    _write_csv(
        os.path.join(out, name),
        ("bin_lo", "bin_hi", "count", "frequency"),
        zip(edges[:-1], edges[1:], counts, freqs),
    )
    return name


def _write_ecdf(out: str, name: str, u, p) -> str:
    keep = _thin(u.size)
    _write_csv(os.path.join(out, name), ("u", "p"), zip(u[keep], p[keep]))
    return name


def _write_corp(out: str, name: str, fit) -> str:
    keep = _thin(fit.n)
    cols = (fit.probs, fit.cep, fit.band_lower, fit.band_upper)
    _write_csv(
        os.path.join(out, name),
        ("prob", "cep", "band_lower", "band_upper"),
        zip(*(c[keep] for c in cols)),
    )
    return name


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
    sizes = np.unique(archive.n_members).tolist()
    if len(sizes) != 1:
        raise DataError(f"rank histograms need one member count per archive, found {sizes}")
    m = sizes[0]
    outputs = []
    summary: dict = {"n_records": len(archive), "members": m, "seed": args.seed}

    ranks = _ranks(archive.members[:, :m], archive.obs, np.random.default_rng(args.seed))
    rhist = rank_histogram(ranks, m + 1)
    _write_csv(
        os.path.join(args.out, "ranks.csv"),
        ("rank", "count", "frequency"),
        zip(range(1, rhist.k + 1), rhist.counts.tolist(), rhist.frequencies.tolist()),
    )
    outputs.append("ranks.csv")
    summary["rank_ri"] = reliability_index(rhist)

    if args.smooth:
        # Normal.cdf's and Normal.sf's arithmetic on every record at once.
        mu, sd = _smooth_normals(archive)
        z = (archive.obs - mu) / sd
        phist = histogram_summary(ndtr(z), bins=args.bins)
        outputs.append(_write_hist(args.out, "pit_hist.csv", phist))
        summary["pit_ri"] = reliability_index(phist)
        summary["thresholds"] = []
        sy = ndtr(-z)

        for t in _parse_floats(args.thresholds):
            label = _num_label(t)
            # S(t) is the cPIT denominator and the CORP event probability.
            st = ndtr(-((t - mu) / sd))
            exceed = archive.obs > t
            u = _cpit_values(st[exceed], sy[exceed])
            cps = u[~np.isnan(u)]
            entry = {"threshold": t, "n_exceed": cps.size, "n_skipped": u.size - cps.size}
            if cps.size:
                chist = histogram_summary(cps, bins=args.bins)
                entry["cpit_ri"] = reliability_index(chist)
                outputs.append(_write_hist(args.out, f"cpit_hist_{label}.csv", chist))
                outputs.append(_write_ecdf(args.out, f"cpit_ecdf_{label}.csv", *pit_ecdf(cps)))
            events = exceed.astype(float)
            if np.unique(events).size == 2:
                fit = corp_reliability(
                    st,
                    events,
                    resamples=args.corp_resamples,
                    seed=np.random.default_rng(
                        (args.seed, 7, int(round(t * 1000)) & 0xFFFFFFFF)
                    ),
                )
                outputs.append(_write_corp(args.out, f"corp_{label}.csv", fit))
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


def _member_moments(archive, stations: dict) -> tuple:
    """Mean and (m-1) variance of each record's members, lapse-rate
    corrected for stations with heights; the variance of one member is 0."""
    heights = np.array(
        [stations.get(sid, (None, None))[1] or (np.nan, np.nan) for sid in archive.station_ids]
    ).reshape(-1, 2)
    xbar, var = np.empty(len(archive)), np.zeros(len(archive))
    for k, items in _blocks(archive.n_members):
        x = archive.members[items, :k]
        h = heights[items]
        corrected = ~np.isnan(h[:, 0])
        if corrected.any():
            x = np.where(corrected[:, None], lapse_rate_correct(x, h[:, :1], h[:, 1:]), x)
        xbar[items] = x.mean(axis=1)
        if k > 1:
            var[items] = x.var(axis=1, ddof=1)
    return xbar.tolist(), var.tolist()


def _cmd_postprocess(args) -> list:
    archive = read_archive(args.archive, args.max_reject_fraction)
    if len(archive) == 0:
        raise DataError(f"{args.archive}: nothing to postprocess")
    stations = _read_stations(args.stations) if args.stations else {}
    lead_times = sorted(set(archive.lead_times))
    sids, dates, obs = archive.station_ids, archive.init_dates, archive.obs.tolist()
    meta = [stations[sid][0] if sid in stations else StationMeta(sid, 0.0, 0.0) for sid in sids]
    xbar, var = _member_moments(archive, stations)

    n_meta_missing = len({sid for sid in sids if sid not in stations}) if stations else 0

    by_lead: dict = {}
    for i, lt in enumerate(archive.lead_times):
        by_lead.setdefault(lt, []).append(i)

    predictions = []
    predicted = {}  # record index -> (mean, sd)
    params_rows = []
    n_unfit = 0
    for lt in lead_times:
        recs = sorted(by_lead[lt], key=lambda i: (dates[i].toordinal(), sids[i]))
        window = TrainingWindow(capacity_days=args.window_days)
        params = None
        for date, day in itertools.groupby(recs, key=lambda i: dates[i]):
            day = list(day)
            if params is not None:
                for i in day:
                    fc = predict_emos(params, xbar[i], var[i], meta[i])
                    predicted[i] = (fc.mean_, np.sqrt(fc.variance_))
                    predictions.append((sids[i], date, lt, *predicted[i]))
            else:
                n_unfit += len(day)
            for i in day:
                window.add_case(date, xbar[i], var[i], meta[i], obs[i])
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
        outputs.append(_run_ecc(args, archive, predicted, lead_times))
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
            "n_fits": len(params_rows),
            "n_fits_not_converged": sum(not r["converged"] for r in params_rows),
            "fit_iters_max": max((r["n_iter"] for r in params_rows), default=0),
        },
    )
    outputs.append("summary.json")
    return outputs


def _run_ecc(args, archive, predicted: dict, lead_times) -> str:
    """Recouple calibrated margins with raw ensemble rank order.

    ``predicted`` maps record indices to their predicted (mean, sd).
    Each (station, init date) with every lead time, one member count and
    a prediction for each record is coupled.
    """
    _, _, index = _multivariate_groups(archive, lead_times)
    index = [idx for idx in index.tolist() if all(i in predicted for i in idx)]
    members = np.array(archive.members)
    for idx in index:
        k = archive.n_members[idx[0]]
        margins = [Normal(predicted[i][0], predicted[i][1] ** 2) for i in idx]
        members[idx, :k] = ecc_reorder(margins, archive.members[idx, :k]).members
    rows = [i for idx in index for i in idx]
    keys = (archive.station_ids, archive.init_dates, archive.lead_times)
    coupled = Archive(
        *(tuple(col[i] for i in rows) for col in keys),
        members[rows],
        archive.n_members[rows],
        archive.obs[rows],
    )
    write_archive_csv(coupled, os.path.join(args.out, "ecc.csv"))
    return "ecc.csv"


def _run_climatology(args, archive) -> str:
    # The observations of each station in record order, stations sorted.
    sids, station, counts = np.unique(
        np.array(archive.station_ids, dtype=object), return_inverse=True, return_counts=True
    )
    by_station = np.split(archive.obs[np.argsort(station, kind="stable")], np.cumsum(counts)[:-1])
    rows = []
    for sid, obs in zip(sids.tolist(), by_station):
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
        _write_hist(out, name, hist)
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
        outputs += [
            _write_hist(out, f"cpit_hist_{name}.csv", fc.cpit_hist),
            _write_ecdf(out, f"cpit_ecdf_{name}.csv", fc.ecdf_u, fc.ecdf_p),
            _write_corp(out, f"corp_{name}.csv", fc.corp),
        ]
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
