"""Output checks: every file a pass writes against the oracles, or
against properties the method must have.  None compares with a stored
copy of earlier output.

``check(workload, inputs, out, size, ok_ops)`` returns a list of
problems, empty when every output of the ops in ``ok_ops`` (the ops
that succeeded on the last pass) is right.
"""

from __future__ import annotations

import collections
import csv
import json
import os

import numpy as np

import oracles
import workloads

# Same arithmetic in another order (kernel sums, closed forms):
# agreement to a few ulps, so 1e-9 is generous and still catches any
# real error.
EXACT_TOL = 1e-9
# Adaptive quadrature and Simpson grids against closed forms; the
# program asks quad for 1e-11 absolute, and seen differences are below
# 1e-10.
QUAD_TOL = 1e-7
# wverif's minimum training cases for an EMOS fit.
MIN_FIT_CASES = 10


class Archive:
    """A generated archive read with the csv module and numpy."""

    def __init__(self, path):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        body = rows[1:]
        self.keys = [(r[0], r[1], int(r[2])) for r in body]
        self.members = np.array([[float(v) for v in r[3:-1]] for r in body])
        self.obs = np.array([float(r[-1]) for r in body])
        self.index = {k: i for i, k in enumerate(self.keys)}

    def stacked(self):
        """Stacked cases over lead times 1-3: keys, (n, 3, m) members, (n, 3) obs."""
        groups = sorted({(s, d) for s, d, _ in self.keys})
        idx = np.array([[self.index[(s, d, lt)] for lt in workloads.LEADS] for s, d in groups])
        return groups, self.members[idx], self.obs[idx]


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _json(path):
    with open(path) as fh:
        return json.load(fh)


class Checker:
    def __init__(self):
        self.problems = []

    def fail(self, msg):
        self.problems.append(msg)

    def true(self, cond, msg):
        if not cond:
            self.fail(msg)
        return bool(cond)

    def close(self, what, got, want, tol):
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape:
            self.fail(f"{what}: shape {got.shape}, expected {want.shape}")
            return False
        bad = ~(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want)))
        if bad.any():
            i = int(np.argmax(bad))
            self.fail(
                f"{what}: {int(bad.sum())} of {bad.size} values off, "
                f"first at {i}: got {got.flat[i]!r}, expected {want.flat[i]!r}"
            )
            return False
        return True

    def scores(self, path, keys, score):
        """Values of a scores.csv in the order of ``keys`` (lead_time None
        for stacked cases), checking row count and labels."""
        rows = _rows(path)
        if not self.true(len(rows) == len(keys), f"{path}: {len(rows)} rows, expected {len(keys)}"):
            return None
        got = {}
        for r in rows:
            lead = int(r["lead_time"]) if r["lead_time"] else None
            got[(r["station_id"], r["init_date"], lead)] = (r["score"], float(r["value"]))
        want = [(*k, None) if len(k) == 2 else k for k in keys]
        if not self.true(set(got) == set(want), f"{path}: case keys differ from the archive"):
            return None
        self.true(all(got[k][0] == score for k in want), f"{path}: score column is not {score!r}")
        return np.array([got[k][1] for k in want])


# ---------------------------------------------------------------------------
# per workload
# ---------------------------------------------------------------------------


def _score_raw(c, inputs, out, size, ok):
    arch = Archive(os.path.join(inputs, "archive.csv"))
    t = workloads.THRESHOLD
    x, y = arch.members, arch.obs
    c.true(len(arch.keys) == workloads.n_records(size), "archive row count differs from the input spec")
    want = {
        "crps": oracles.crps_ensemble(x, y),
        "brier": oracles.brier_ensemble(x, y, t),
        "twcrps": oracles.twcrps_censored_ensemble(x, y, t),
        # vrCRPS with w = 1{z > t} and anchor t is the censored twCRPS.
        "vrcrps": oracles.twcrps_censored_ensemble(x, y, t),
    }
    for s in workloads.RAW_UNIVARIATE:
        if s in ok:
            got = c.scores(os.path.join(out, s, "scores.csv"), arch.keys, s)
            if got is not None:
                c.close(f"score-raw {s}", got, want[s], EXACT_TOL)

    groups, xs, ys = arch.stacked()
    c.true(len(groups) == workloads.n_records(size) // 3, "stacked case count differs from the input spec")
    es = oracles.energy_score(xs, ys)
    vs = oracles.variogram_score(xs, ys)
    for s, ref in (("es", es), ("vs", vs)):
        if s in ok:
            got = c.scores(os.path.join(out, s, "scores.csv"), groups, s)
            if got is not None:
                c.close(f"score-raw {s}", got, ref, EXACT_TOL)

    in_x = oracles.heat_level(np.swapaxes(xs, 1, 2)) == workloads.HEAT_LEVEL
    in_y = oracles.heat_level(ys) == workloads.HEAT_LEVEL
    none = ~in_x.any(1) & ~in_y
    every = in_x.all(1) & in_y
    c.true(none.any() and every.any(), "heat-level checks are vacuous: no case with none or all in the level")
    for s, ref in (("twes", es), ("vres", es), ("twvs", vs), ("vrvs", vs)):
        if s in ok:
            got = c.scores(os.path.join(out, s, "scores.csv"), groups, s)
            if got is not None:
                c.close(f"score-raw {s} with nothing in the level", got[none], 0.0 * got[none], 1e-12)
                c.close(f"score-raw {s} with everything in the level", got[every], ref[every], EXACT_TOL)
    if {"vrcrps", "twcrps"} <= ok:
        tw = c.scores(os.path.join(out, "twcrps", "scores.csv"), arch.keys, "twcrps")
        vr = c.scores(os.path.join(out, "vrcrps", "scores.csv"), arch.keys, "vrcrps")
        if tw is not None and vr is not None:
            c.close("score-raw vrcrps against twcrps", vr, tw, EXACT_TOL)


def _smoothed(arch):
    mu = arch.members.mean(1)
    sd = np.sqrt(np.maximum(arch.members.var(1, ddof=1), 1e-6))
    return mu, sd


def _score_smooth(c, inputs, out, size, ok):
    arch = Archive(os.path.join(inputs, "archive.csv"))
    t = workloads.THRESHOLD
    y = arch.obs
    mu, sd = _smoothed(arch)
    above = y > t
    c.true(above.any() and (~above).any(), "owcrps check is vacuous: need obs on both sides of the threshold")
    trunc = np.where(above, oracles.crps_truncated_normal(mu, sd, np.where(above, y, t + 1.0), t), 0.0)
    brier = (oracles.normal_cdf(mu, sd, t) - (y <= t)) ** 2
    got = {}
    for s in workloads.SMOOTH_SCORES:
        if s in ok:
            got[s] = c.scores(os.path.join(out, s, "scores.csv"), arch.keys, s)
    tw = oracles.twcrps_censored_normal(mu, sd, y, t)
    checks = {
        "crps": (oracles.normal_crps(mu, sd, y), EXACT_TOL),
        "twcrps": (tw, QUAD_TOL),
        "owcrps": (trunc, QUAD_TOL),
        "owcrps_bs": (brier + trunc, QUAD_TOL),
        "vrcrps": (tw, QUAD_TOL),
    }
    for s, (want, tol) in checks.items():
        if got.get(s) is not None:
            c.close(f"score-smooth {s}", got[s], want, tol)
    if got.get("owcrps") is not None:
        c.true(np.all(got["owcrps"][~above] == 0.0), "score-smooth owcrps is not 0 where y <= t")
    if got.get("vrcrps") is not None and got.get("twcrps") is not None:
        c.close("score-smooth vrcrps against twcrps", got["vrcrps"], got["twcrps"], QUAD_TOL)


def _monotone(v):
    return bool(np.all(np.diff(v) >= 0.0))


def _diagnose(c, arch, out):
    x, y = arch.members, arch.obs
    m = x.shape[1]
    c.true(not np.any(x == y[:, None]), "inputs have ties between members and obs")
    rows = _rows(os.path.join(out, "ranks.csv"))
    counts = np.bincount(oracles.ranks(x, y), minlength=m + 2)[1:]
    c.close("calibrate rank counts", [int(r["count"]) for r in rows], counts, 0.0)

    mu, sd = _smoothed(arch)
    pits = oracles.normal_cdf(mu, sd, y)
    rows = _rows(os.path.join(out, "pit_hist.csv"))
    edges = np.array([float(r["bin_lo"]) for r in rows] + [float(rows[-1]["bin_hi"])])
    want, _ = np.histogram(pits, bins=edges)
    got = np.array([int(r["count"]) for r in rows])
    # A PIT within 1e-9 of a bin edge may fall either side of it.
    fuzzy = int(np.sum(np.min(np.abs(pits[:, None] - edges[None, 1:-1]), axis=1) < 1e-9))
    c.true(got.sum() == pits.size and np.abs(got - want).sum() <= 2 * fuzzy,
           f"calibrate PIT histogram {got.tolist()} differs from the oracle {want.tolist()}")

    summary = _json(os.path.join(out, "summary.json"))
    for entry in summary["thresholds"]:
        t = entry["threshold"]
        n_above = int(np.sum(y > t))
        c.true(entry["n_exceed"] + entry["n_skipped"] == n_above,
               f"calibrate cPIT at {t}: {entry['n_exceed']} exceedances + {entry['n_skipped']} "
               f"skips != {n_above} obs above")
        label = f"{t:g}".replace(".", "p")
        path = os.path.join(out, f"corp_{label}.csv")
        if not c.true(os.path.exists(path), f"calibrate: no CORP curve at {t}"):
            continue
        rows = _rows(path)
        p, cep, lo, hi = (np.array([float(r[k]) for r in rows])
                          for k in ("prob", "cep", "band_lower", "band_upper"))
        c.true(_monotone(p) and _monotone(cep), f"calibrate CORP at {t} is not monotone")
        c.true(np.all((0.0 <= lo) & (lo <= hi) & (hi <= 1.0)),
               f"calibrate CORP band at {t} is not 0 <= lower <= upper <= 1")
    c.true([e["threshold"] for e in summary["thresholds"]] == [25.0, 27.0],
           "calibrate: diagnose did not report thresholds 25 and 27")


def _postprocess(c, arch, out):
    summary = _json(os.path.join(out, "summary.json"))
    expected = []
    for lt in workloads.LEADS:
        per_day = collections.Counter(d for _, d, lead in arch.keys if lead == lt)
        seen = 0
        for first_fit in sorted(per_day):
            seen += per_day[first_fit]
            if seen >= MIN_FIT_CASES:
                expected += [k for k in arch.keys if k[2] == lt and k[1] > first_fit]
                break
    rows = _rows(os.path.join(out, "predictions.csv"))
    c.true(summary["n_predictions"] == len(rows) == len(expected),
           f"calibrate: {summary['n_predictions']} predictions, expected {len(expected)}")
    pred = {(r["station_id"], r["init_date"], int(r["lead_time"])): (float(r["mean"]), float(r["sd"]))
            for r in rows}
    if not c.true(set(pred) == set(expected), "calibrate: predicted cases differ from the expected ones"):
        return
    keys = sorted(pred)
    idx = [arch.index[k] for k in keys]
    mu = np.array([pred[k][0] for k in keys])
    sd = np.array([pred[k][1] for k in keys])
    emos = oracles.normal_crps(mu, sd, arch.obs[idx]).mean()
    raw = oracles.crps_ensemble(arch.members[idx], arch.obs[idx]).mean()
    c.true(emos < raw, f"calibrate: mean EMOS CRPS {emos:.4f} is not below the raw {raw:.4f}")

    ecc = Archive(os.path.join(out, "ecc.csv"))
    groups = sorted({(s, d) for s, d, _ in keys})
    complete = [g for g in groups if all((*g, lt) in pred for lt in workloads.LEADS)]
    if c.true(sorted(ecc.keys) == sorted((*g, lt) for g in complete for lt in workloads.LEADS),
              "calibrate: ECC cases differ from the fully predicted groups"):
        got, want = [], []
        for g in complete:
            ks = [(*g, lt) for lt in workloads.LEADS]
            raw_g = arch.members[[arch.index[k] for k in ks]]
            want.append(oracles.ecc(raw_g, [pred[k][0] for k in ks], [pred[k][1] for k in ks]))
            got.append(ecc.members[[ecc.index[k] for k in ks]])
        c.close("calibrate ECC members", got, want, EXACT_TOL)
        c.close("calibrate ECC obs", ecc.obs, arch.obs[[arch.index[k] for k in ecc.keys]], 0.0)

    stations = sorted({k[0] for k in arch.keys})
    rows = {r["station_id"]: r for r in _rows(os.path.join(out, "climatology.csv"))}
    if c.true(sorted(rows) == stations, "calibrate: climatology stations differ"):
        obs = {s: arch.obs[[i for i, k in enumerate(arch.keys) if k[0] == s]] for s in stations}
        c.close("calibrate climatology mean", [float(rows[s]["mean"]) for s in stations],
                [obs[s].mean() for s in stations], EXACT_TOL)
        c.close("calibrate climatology sd", [float(rows[s]["sd"]) for s in stations],
                [obs[s].std(ddof=1) for s in stations], EXACT_TOL)
        c.close("calibrate climatology n", [int(rows[s]["n"]) for s in stations],
                [obs[s].size for s in stations], 0.0)


def _report(c, arch, out_pp, out):
    ecc = Archive(os.path.join(out_pp, "ecc.csv"))
    idx = [arch.index[k] for k in ecc.keys]
    s_crps = oracles.crps_ensemble(ecc.members, ecc.obs)
    r_crps = oracles.crps_ensemble(arch.members[idx], arch.obs[idx])
    leads = np.array([k[2] for k in ecc.keys])
    want = []
    for lt in workloads.LEADS:
        sel = leads == lt
        want.append(("crps", str(lt), int(sel.sum()), s_crps[sel].mean(), r_crps[sel].mean()))
    groups, xe, ye = ecc.stacked()
    ridx = np.array([[arch.index[(*g, lt)] for lt in workloads.LEADS] for g in groups])
    xr, yr = arch.members[ridx], arch.obs[ridx]
    want.append(("es", "all", len(groups), oracles.energy_score(xe, ye).mean(),
                 oracles.energy_score(xr, yr).mean()))
    want.append(("vs", "all", len(groups), oracles.variogram_score(xe, ye).mean(),
                 oracles.variogram_score(xr, yr).mean()))
    rows = _rows(os.path.join(out, "report.csv"))
    if not c.true([(r["score"], r["group"]) for r in rows] == [w[:2] for w in want],
                  "calibrate report: rows are not crps by lead 1-3, es and vs"):
        return
    for r, (score, group, n, ms, mr) in zip(rows, want):
        what = f"calibrate report {score}/{group}"
        c.close(f"{what} n", int(r["n"]), n, 0.0)
        c.close(f"{what} means", [float(r["mean_score"]), float(r["mean_reference"])], [ms, mr], EXACT_TOL)
        c.close(f"{what} skill", float(r["skill"]), 1.0 - ms / mr, EXACT_TOL)
        c.true(float(r["skill"]) > 0.0, f"{what}: skill {r['skill']} is not positive")


def _calibrate(c, inputs, out, size, ok):
    arch = Archive(os.path.join(inputs, "archive.csv"))
    c.true(len(arch.keys) == workloads.n_records(size), "archive row count differs from the input spec")
    if "diagnose" in ok:
        _diagnose(c, arch, os.path.join(out, "diagnose"))
    if "postprocess" in ok:
        _postprocess(c, arch, os.path.join(out, "postprocess"))
        if "report" in ok:
            _report(c, arch, os.path.join(out, "postprocess"), os.path.join(out, "report"))


def _propriety(c, inputs, out, size, ok):
    if "propriety" in ok:
        rows = _rows(os.path.join(out, "propriety", "propriety.csv"))
        n_rows = size["n_pairs"] * len(workloads.PROPRIETY_SCORES)
        summary = _json(os.path.join(out, "propriety", "summary.json"))
        c.true(len(rows) == summary["n_rows"] == n_rows,
               f"propriety: {len(rows)} rows, expected {n_rows}")
        labels = [r["score"].split("[")[0] for r in rows]
        c.true(all(labels.count(s) == size["n_pairs"] for s in workloads.PROPRIETY_SCORES),
               "propriety: not n_pairs rows for each of the nine scores")
        for r in rows:
            gap = float(r["mean_true"]) - float(r["mean_other"])
            rule = gap <= 2.0 * float(r["se_diff"])
            c.true(r["passed"] == ("true" if rule else "false"),
                   f"propriety: {r['score']} / {r['pair']}: passed flag contradicts the 2 SE rule")
            # The variogram score only sees differences between components,
            # so a shifted alternative has exactly the truth's expected VS and
            # the rule fails on about 2.3 % of seeds (see the FOUND line).
            if (r["score"], r["pair"]) != ("vs", "shifted"):
                c.true(rule, f"propriety: {r['score']} / {r['pair']} fails the 2 SE rule")
    if "impropriety" in ok:
        naive, tw = _rows(os.path.join(out, "impropriety", "impropriety.csv"))
        c.true(naive["rule"] == "naive_weighted_crps" and naive["preferred"] == "truncated"
               and float(naive["mean_truncated"]) + 2.0 * float(naive["se_diff"]) < float(naive["mean_truth"]),
               "impropriety: the naive rule does not prefer the truncated forecast")
        c.true(tw["rule"] == "twcrps" and tw["preferred"] == "truth"
               and float(tw["mean_truth"]) + 2.0 * float(tw["se_diff"]) < float(tw["mean_truncated"]),
               "impropriety: twCRPS does not prefer the truth")


_CHECKS = {
    "score-raw": _score_raw,
    "score-smooth": _score_smooth,
    "calibrate": _calibrate,
    "propriety": _propriety,
}


def check(workload, inputs, out, size, ok_ops) -> list:
    c = Checker()
    try:
        _CHECKS[workload](c, inputs, out, size, set(ok_ops))
    except (OSError, KeyError, ValueError, IndexError) as exc:
        c.fail(f"{workload}: unreadable output: {type(exc).__name__}: {exc}")
    return c.problems
