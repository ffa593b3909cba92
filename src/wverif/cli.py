"""Command line interface.

Subcommands: score, diagnose, postprocess, synth, report.  Every run
writes its data files plus a manifest.json into the output directory;
given the same inputs and seed the data files are byte-identical
across runs (the manifest also records wall time, which is not).

Exit codes: 0 success, 1 usage or configuration problem, 2 data
problem, 3 numerical failure.

``main(argv)`` returns the exit code and may be called repeatedly in
one process; every call parses with one parser, built on the first, and
``read_archive`` does not parse again bytes it parsed before (see its
docstring).  Flags are checked before any archive is read.  The
manifest records the sha256 and size of each archive read under
``inputs``.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import functools
import itertools
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .archive import (
    MULTIVARIATE_SCORES,
    UNIVARIATE_SCORES,
    Archive,
    _check_score,
    _smooth_normals,
    _write_csv,
    group_multivariate,
    read_archive,
    score_archive,
    skill_table,
    write_archive_csv,
    write_archive_jsonl,
)
from .calibration import (
    _cpit_values,
    _ranks,
    _thin,
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
from .grouping import _key_codes
from .postprocess import ecc_members, member_moments, rolling_emos, station_climatology
from .synthlab import ExperimentSpec, run_experiment

# diagnose and postprocess call the kernels that these per-case functions
# wrap, not the functions; they stay bound under these names because
# perfbench's tracer wraps them here and cannot start without them.
from .calibration import cpit, pit, rank  # noqa: F401
from .postprocess import ecc_reorder, fit_emos, predict_emos, smooth_ensemble  # noqa: F401

_MAX_TABLE_ROWS = 2048


# ---------------------------------------------------------------------------
# formatting helpers (canonical, so reruns reproduce files byte for byte)
# ---------------------------------------------------------------------------


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
    if isinstance(v, np.generic):
        return v.item()
    if isinstance(v, np.ndarray):
        return [_json_safe(x) for x in v.tolist()]
    if isinstance(v, datetime.date):
        return v.isoformat()
    return v


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(_json_safe(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _num_label(x: float) -> str:
    return f"{x:g}".replace("-", "m").replace(".", "p")


def _write_hist(out: str, name: str, hist) -> str:
    edges = hist.bin_edges
    _write_csv(
        os.path.join(out, name),
        ("bin_lo", "bin_hi", "count", "frequency"),
        (edges[:-1], edges[1:], hist.counts, hist.frequencies),
    )
    return name


def _write_ecdf(out: str, name: str, u, p) -> str:
    keep = _thin(u.size, _MAX_TABLE_ROWS)
    _write_csv(os.path.join(out, name), ("u", "p"), (u[keep], p[keep]))
    return name


def _write_corp(out: str, name: str, fit) -> str:
    keep = _thin(fit.n, _MAX_TABLE_ROWS)
    cols = (fit.probs, fit.cep, fit.band_lower, fit.band_upper)
    _write_csv(
        os.path.join(out, name),
        ("prob", "cep", "band_lower", "band_upper"),
        [c[keep] for c in cols],
    )
    return name


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------


def _inputs(**archives) -> dict:
    """The sha256 and size of the bytes of each archive read, by flag name."""
    return {name: dict(zip(("sha256", "bytes"), a._source)) for name, a in archives.items()}


def _cmd_score(args) -> tuple:
    lead_times = _parse_list(args.lead_times, int, "lead time")
    _check_score(args.score, args.threshold, args.p, args.smooth, lead_times, args.level, args.x0)
    archive = read_archive(args.archive, args.max_reject_fraction)
    sids, dates, leads, values = score_archive(
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
    order = np.argsort(_key_codes(sids, dates, leads)).tolist()
    values = values[order]
    sids, dates, leads = ([col[i] for i in order] for col in (sids, dates, leads))
    header = ("station_id", "init_date", "lead_time", "score", "value")
    columns = (sids, dates, leads, [args.score] * len(values), values)
    name = f"scores.{args.format}"
    if args.format == "csv":
        _write_csv(os.path.join(args.out, name), header, columns)
    else:
        rows = (dict(zip(header, row)) for row in zip(*columns))
        _write_jsonl(os.path.join(args.out, name), rows)
    # Strict json has no NaN: the mean of no cases is null.
    mean = float(np.mean(values)) if len(values) else None
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
    return [name, "summary.json"], _inputs(archive=archive)


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------


def _threshold_labels(text: str) -> list:
    """(threshold, file label) of each entry of a --thresholds list.

    Two entries that are one threshold, or that share a label (25 and
    25.000001 both label 25), would be scored and listed twice or write
    the same files, so the list is refused, naming both as given."""
    texts = _parse_list(text, str.strip, "number")
    pairs = [(t, _num_label(t)) for t in _parse_list(text, _finite, "number")]
    for (a, (t, label)), (b, (u, other)) in itertools.combinations(zip(texts, pairs), 2):
        if t == u or label == other:
            raise ContractViolation(
                f"--thresholds {a} and {b} name one threshold or the same files (label {label})"
            )
    return pairs


def _cmd_diagnose(args) -> tuple:
    for flag, value in (("--bins", args.bins), ("--corp-resamples", args.corp_resamples)):
        if value < 1:
            raise ContractViolation(f"{flag} must be at least 1, got {value}")
    thresholds = _threshold_labels(args.thresholds) if args.smooth else []
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
        (np.arange(1, rhist.k + 1), rhist.counts, rhist.frequencies),
    )
    outputs.append("ranks.csv")
    summary["rank_ri"] = reliability_index(rhist)

    if args.smooth:
        f = _smooth_normals(archive)
        phist = histogram_summary(f.cdf(archive.obs), bins=args.bins)
        outputs.append(_write_hist(args.out, "pit_hist.csv", phist))
        summary["pit_ri"] = reliability_index(phist)
        summary["thresholds"] = []
        sy = f.sf(archive.obs)

        for t, label in thresholds:
            # S(t) is the cPIT denominator and the CORP event probability.
            st = f.sf(t)
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
    return outputs + ["summary.json"], _inputs(archive=archive)


# ---------------------------------------------------------------------------
# postprocess
# ---------------------------------------------------------------------------


def _read_stations(path: str) -> dict:
    """Station metadata csv: station_id, mhd, tpi and optional heights, as
    (mhd, tpi, model height, station height) per station id, the heights
    NaN unless the row gives them; it gives both or neither.  Every value
    given must be finite, and each row must name its own station id."""
    out = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        need = {"station_id", "mhd", "tpi"}
        if reader.fieldnames is None or not need.issubset(reader.fieldnames):
            raise DataError(f"{path}: expected columns station_id, mhd, tpi")
        for row in reader:
            sid = (row["station_id"] or "").strip()  # None in a row too short
            if not sid or sid in out:
                raise DataError(f"{path}: line {reader.line_num}: empty or repeated station id {sid!r}")
            heights = (row.get("model_height"), row.get("station_height"))
            given = all(heights)
            if any(heights) and not given:
                raise DataError(f"{path}: line {reader.line_num}: one height of two for station {sid!r}")
            try:
                cells = (row["mhd"], row["tpi"], *(heights if given else ("nan", "nan")))
                out[sid] = tuple(map(float, cells))
            except (TypeError, ValueError) as exc:
                raise DataError(f"{path}: bad row for station {sid!r}: {exc}") from None
            if not np.isfinite(out[sid][: 4 if given else 2]).all():
                raise DataError(f"{path}: bad row for station {sid!r}: values must be finite")
    return out


def _stations_of(archive, stations: dict) -> np.ndarray:
    """Each record's (mhd, tpi, model height, station height) in an (n, 4)
    array: covariates 0 and heights NaN for a station without metadata."""
    table = [stations.get(sid, (0.0, 0.0, np.nan, np.nan)) for sid in sorted(set(archive.station_ids))]
    return np.array(table, dtype=float).reshape(-1, 4)[_key_codes(archive.station_ids)]


def _cmd_postprocess(args) -> tuple:
    if args.window_days < 1:
        raise ContractViolation("the training window needs at least one day")
    archive = read_archive(args.archive, args.max_reject_fraction)
    if len(archive) == 0:
        raise DataError(f"{args.archive}: nothing to postprocess")
    stations = _read_stations(args.stations) if args.stations else {}
    covariates = _stations_of(archive, stations)
    xbar, var = member_moments(archive.members, archive.n_members, covariates[:, 2:])
    lead = np.array(archive.lead_times)
    sids, dates = (np.array(c, dtype=object) for c in (archive.station_ids, archive.init_dates))
    cols = (xbar, var, covariates[:, 0], covariates[:, 1], archive.obs)
    mean, variance, params_rows, n_unfit = rolling_emos(cols, lead, dates, sids, args.window_days)

    # Rows sort by station, init date and lead time.
    rows = np.argsort(_key_codes(sids, dates, lead))
    rows = rows[~np.isnan(mean[rows])]
    _write_csv(
        os.path.join(args.out, "predictions.csv"),
        ("station_id", "init_date", "lead_time", "mean", "sd"),
        [c[rows] for c in (sids, dates, lead, mean, np.sqrt(variance))],
    )
    _write_jsonl(os.path.join(args.out, "params.jsonl"), params_rows)
    outputs = ["predictions.csv", "params.jsonl"]

    lead_times = np.unique(lead).tolist()
    if args.ecc:
        outputs.append(_run_ecc(args, archive, mean, variance, lead_times))
    if args.climatology:
        _write_csv(
            os.path.join(args.out, "climatology.csv"),
            ("station_id", "mean", "sd", "n"),
            list(zip(*station_climatology(archive.station_ids, archive.obs))),
        )
        outputs.append("climatology.csv")

    _write_json(
        os.path.join(args.out, "summary.json"),
        {
            "n_records": len(archive),
            "n_rejected": len(archive.rejects),
            "lead_times": lead_times,
            "n_predictions": rows.size,
            "n_before_first_fit": n_unfit,
            "n_stations_without_metadata": len(set(archive.station_ids) - set(stations))
            if stations else 0,
            "window_days": args.window_days,
            "n_fits": len(params_rows),
            "n_fits_not_converged": sum(not r["converged"] for r in params_rows),
            "fit_iters_max": max((r["n_iter"] for r in params_rows), default=0),
        },
    )
    return outputs + ["summary.json"], _inputs(archive=archive)


def _run_ecc(args, archive, mean, variance, lead_times) -> str:
    """Recouple calibrated margins with raw ensemble rank order.

    ``mean`` and ``variance`` hold each record's predicted normal, NaN where
    there is none.  Each (station, init date) with every lead time, one
    member count and a prediction for each record is coupled by
    ``ecc_members``.  The coupled archive is written as ``ecc.csv``, or as
    ``ecc.jsonl`` when its groups differ in member count, which csv
    cannot hold.
    """
    index = group_multivariate(archive, lead_times)
    index = index[~np.isnan(mean[index]).any(axis=1)]
    members = ecc_members(archive.members, archive.n_members, index, mean, variance)
    rows = index.ravel()
    keys = (archive.station_ids, archive.init_dates, archive.lead_times)
    coupled = Archive(
        *(tuple(np.array(col, dtype=object)[rows]) for col in keys),
        members.reshape(rows.size, archive.members.shape[1]),
        archive.n_members[rows],
        archive.obs[rows],
    )
    if len(set(coupled.n_members.tolist())) > 1:
        write_archive_jsonl(coupled, os.path.join(args.out, "ecc.jsonl"))
        return "ecc.jsonl"
    write_archive_csv(coupled, os.path.join(args.out, "ecc.csv"))
    return "ecc.csv"


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


def _cmd_synth(args) -> tuple:
    params = dict(_parse_param(p) for p in args.param or [])
    spec = ExperimentSpec(args.experiment, params, seed=args.seed)
    try:
        result = run_experiment(spec)
    except TypeError as exc:
        raise ContractViolation(f"bad parameter for {args.experiment}: {exc}") from None
    writer = _SYNTH_WRITERS[args.experiment]
    return writer(args.out, result), {}


def _write_score_curves(out: str, res) -> list:
    _write_csv(
        os.path.join(out, "curves.csv"),
        ("y", "crps", "twcrps", "owcrps", "vrcrps"),
        (res.ys, res.crps, res.twcrps, res.owcrps, res.vrcrps),
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
    header = ("score", "pair", "mean_true", "mean_other", "se_diff", "passed")
    _write_csv(os.path.join(out, "propriety.csv"), header, [[getattr(r, k) for r in rows] for k in header])
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
            ("naive_weighted_crps", "twcrps"),
            (res.naive_truth, res.tw_truth),
            (res.naive_trunc, res.tw_trunc),
            (res.naive_se, res.tw_se),
            (
                "truncated" if res.naive_prefers_truncated else "none",
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


def _cmd_report(args) -> tuple:
    kwargs = dict(
        threshold=args.threshold,
        p=args.p,
        smooth=args.smooth,
        lead_times=_parse_list(args.lead_times, int, "lead time"),
        level=args.level,
    )
    # A score listed twice would be reported twice.
    scores = _parse_list(args.scores, str.strip, "score")
    if not scores or len(set(scores)) < len(scores):
        raise ContractViolation(f"--scores must name distinct scores, got {args.scores!r}")
    for score in scores:
        _check_score(score, **kwargs)
    archive = read_archive(args.archive, args.max_reject_fraction)
    reference = read_archive(args.reference, args.max_reject_fraction)
    rows = []
    for score in scores:
        *keys, values = score_archive(archive, score, **kwargs)
        *ref_keys, ref_values = score_archive(reference, score, **kwargs)
        by = "lead_time" if score in UNIVARIATE_SCORES else "all"
        rows += [(score, *row) for row in skill_table(keys, values, ref_keys, ref_values, by)]
    _write_csv(
        os.path.join(args.out, "report.csv"),
        ("score", "group", "n", "mean_score", "mean_reference", "skill", "degenerate"),
        list(zip(*rows)),
    )
    return ["report.csv"], _inputs(archive=archive, reference=reference)


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------


def _parse_list(text: str, kind, what: str) -> tuple:
    """The comma-separated values of ``text`` as ``kind``; ``what`` names
    them in the error."""
    try:
        return tuple(kind(v) for v in text.split(",") if v.strip())
    except (ValueError, argparse.ArgumentTypeError):
        raise ContractViolation(f"bad {what} list {text!r}") from None


def _finite(text: str) -> float:
    """A numeric flag or list entry: a finite float, as NaN passes every gate."""
    try:
        if math.isfinite(value := float(text)):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None, help="json file with option defaults")
    p.add_argument(
        "--max-reject-fraction",
        type=_finite,
        default=0.01,
        help="abort ingest when more than this fraction of rows fail",
    )


def _add_scoring(p: argparse.ArgumentParser) -> None:
    """The options of score and report that choose how cases are scored."""
    p.add_argument("--threshold", type=_finite, default=None)
    p.add_argument("--p", type=_finite, default=0.5)
    p.add_argument("--level", type=int, default=None, choices=(1, 2, 3, 4))
    p.add_argument("--smooth", action="store_true")
    p.add_argument("--lead-times", default="1,2,3")


@functools.cache
def _build_parser(exit_on_error: bool = True) -> tuple:
    """The parser and its subcommand parsers by name, built once per
    process for each ``exit_on_error`` and never changed afterwards, so
    every ``main`` call parses with the same tree.  Without
    ``exit_on_error`` a bad value raises ``argparse.ArgumentError``."""
    parser = argparse.ArgumentParser(
        prog="wverif",
        description="probabilistic forecast verification with event weighting",
        exit_on_error=exit_on_error,
    )
    parser.add_argument("--version", action="version", version=f"wverif {__version__}")
    sub = parser.add_subparsers(dest="cmd")
    add = functools.partial(sub.add_parser, exit_on_error=exit_on_error)

    p = add("score", help="score every case of an archive")
    p.add_argument("--archive", required=True)
    p.add_argument("--score", required=True, choices=UNIVARIATE_SCORES + MULTIVARIATE_SCORES)
    p.add_argument("--x0", type=_finite, default=None)
    _add_scoring(p)
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    _add_common(p)
    p.set_defaults(func=_cmd_score)

    p = add("diagnose", help="calibration diagnostics for an archive")
    p.add_argument("--archive", required=True)
    p.add_argument("--smooth", action="store_true")
    p.add_argument("--thresholds", default="25,27")
    p.add_argument("--bins", type=int, default=20)
    p.add_argument("--corp-resamples", type=int, default=1000)
    _add_common(p)
    p.set_defaults(func=_cmd_diagnose)

    p = add("postprocess", help="regression-based calibration pipeline")
    p.add_argument("--archive", required=True)
    p.add_argument("--stations", default=None, help="station metadata csv")
    p.add_argument("--window-days", type=int, default=45)
    p.add_argument("--ecc", action="store_true")
    p.add_argument("--climatology", action="store_true")
    _add_common(p)
    p.set_defaults(func=_cmd_postprocess)

    p = add("synth", help="seeded synthetic experiments")
    p.add_argument("experiment", choices=sorted(_SYNTH_WRITERS))
    p.add_argument(
        "--param",
        action="append",
        metavar="NAME=VALUE",
        help="experiment parameter override, repeatable",
    )
    _add_common(p)
    p.set_defaults(func=_cmd_synth)

    p = add("report", help="skill against a reference archive")
    p.add_argument("--archive", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--scores", default="crps,es,vs")
    _add_scoring(p)
    _add_common(p)
    p.set_defaults(func=_cmd_report)

    return parser, sub.choices


def _with_config(args, argv) -> argparse.Namespace:
    """``argv`` parsed again after the json config's values as flags, so
    that explicit flags win and argparse checks every value.  A text
    option takes a json string as it stands, any other option the json
    text of its value ("21" is no number); a switch takes true or false,
    a repeatable option a list, and null leaves the default."""
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ContractViolation(f"cannot read config {args.config}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ContractViolation(f"{args.config}: config must be a json object")
    parser, commands = _build_parser(exit_on_error=False)
    options = {a.dest: a for a in commands[args.cmd]._actions if a.option_strings}
    flags = []
    for key, value in cfg.items():
        action = options.get(key.replace("-", "_"))
        if action is None or action.dest in ("help", "config"):
            raise ContractViolation(f"unknown config key {key!r}")
        flag = action.option_strings[0]
        if action.nargs == 0:
            if not isinstance(value, bool):
                raise ContractViolation(f"config key {key!r} takes true or false")
            flags += [flag] if value else []
        elif value is not None:
            repeat = isinstance(action, argparse._AppendAction) and isinstance(value, list)
            for v in value if repeat else [value]:
                text = v if isinstance(v, str) and action.type is None else json.dumps(v)
                flags.append(f"{flag}={text}")
    try:
        return parser.parse_args(argv[:1] + flags + argv[1:])
    except argparse.ArgumentError as exc:
        raise ContractViolation(f"{args.config}: {exc}") from None


def _echo_config(args) -> dict:
    skip = {"func", "cmd", "out", "config"}
    return {k: _json_safe(v) for k, v in sorted(vars(args).items()) if k not in skip}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser, _ = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
        return 0 if code == 0 else 1
    if getattr(args, "cmd", None) is None:
        parser.print_usage(sys.stderr)
        return 1

    start = time.perf_counter()
    try:
        if args.config:
            args = _with_config(args, argv)
        if args.seed < 0:
            raise ContractViolation("--seed must be non-negative")
        os.makedirs(args.out, exist_ok=True)
        outputs, inputs = args.func(args)
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
        "inputs": inputs,
    }
    _write_json(os.path.join(args.out, "manifest.json"), manifest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
