"""Spans around wverif's public functions, wrapped from outside.

Each wrapper replaces a function at the name the calling module binds
(``wverif.cli.read_archive``, ``wverif.archive.crps``, ...) or a method
on its class (``Parametric.cdf``, ``CensorAbove.transform``), so the
program itself is unchanged.  Spans are kept in memory as
[name, start, end, parent, info] and written out when the run ends;
the per-layer metrics are computed from them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time

# (module, bound name, span name): functions as the calling module sees them.
_FUNCTIONS = [
    ("wverif.cli", "main", "cli.main"),
    ("wverif.cli", "read_archive", "archive.read"),
    ("wverif.cli", "score_archive", "archive.score"),
    ("wverif.cli", "skill_table", "archive.skill"),
    ("wverif.cli", "write_archive_csv", "archive.write"),
    ("wverif.cli", "rank", "calibration.rank"),
    ("wverif.cli", "pit", "calibration.pit"),
    ("wverif.cli", "cpit", "calibration.cpit"),
    ("wverif.cli", "corp_reliability", "calibration.corp"),
    ("wverif.cli", "smooth_ensemble", "postprocess.smooth"),
    ("wverif.cli", "fit_emos", "postprocess.fit_emos"),
    ("wverif.cli", "predict_emos", "postprocess.predict"),
    ("wverif.cli", "ecc_reorder", "postprocess.ecc"),
    ("wverif.cli", "run_experiment", "synthlab.experiment"),
    ("wverif.archive", "group_multivariate", "archive.group"),
    ("wverif.archive", "smooth_ensemble", "postprocess.smooth"),
    ("wverif.archive", "crps", "uniscores.crps"),
    ("wverif.archive", "brier", "uniscores.brier"),
    ("wverif.archive", "twcrps", "uniscores.twcrps"),
    ("wverif.archive", "owcrps", "uniscores.owcrps"),
    ("wverif.archive", "owcrps_bs", "uniscores.owcrps_bs"),
    ("wverif.archive", "vrcrps", "uniscores.vrcrps"),
    ("wverif.archive", "energy_score", "mvscores.es"),
    ("wverif.archive", "variogram_score", "mvscores.vs"),
    ("wverif.archive", "tw_energy_score", "mvscores.twes"),
    ("wverif.archive", "tw_variogram_score", "mvscores.twvs"),
    ("wverif.archive", "ow_energy_score", "mvscores.owes"),
    ("wverif.archive", "vr_energy_score", "mvscores.vres"),
    ("wverif.archive", "vr_variogram_score", "mvscores.vrvs"),
]

# What a span records about its result, for per-row and per-case rates.
_INFO = {
    "archive.read": lambda args, out: len(out) + len(out.rejects),
    "archive.group": lambda args, out: len(out),
    "postprocess.fit_emos": lambda args, out: out.n_iter,
    "synthlab.experiment": lambda args, out: args[0].name,
}

UNI = ("crps", "brier", "twcrps", "owcrps", "owcrps_bs", "vrcrps")
MV = ("es", "vs", "twes", "twvs", "vres", "vrvs")
PROPRIETY = ("crps", "twcrps", "owcrps_bs", "vrcrps", "es", "vs", "twes", "twvs", "vres")

METRIC_NAMES = (
    ["archive.read_us_per_row", "archive.group_us_per_case", "archive.score_self_s",
     "archive.write_s", "archive.skill_s", "forecasts.dist_calls", "forecasts.dist_s",
     "weights.transform_s", "weights.weight_s"]
    + [f"uniscores.{s}_us" for s in UNI]
    + [f"mvscores.{s}_us" for s in MV]
    + ["calibration.rank_us", "calibration.pit_us", "calibration.cpit_us", "calibration.corp_s",
       "postprocess.smooth_us", "postprocess.fit_emos_ms", "postprocess.fit_emos_fits",
       "postprocess.fit_emos_iters", "postprocess.predict_us", "postprocess.ecc_us"]
    + [f"synthlab.propriety.{s}_s" for s in PROPRIETY]
    + ["synthlab.impropriety_s", "cli.self_s", "cli.output_bytes"]
)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    def _wrap(self, owner, attr, name):
        orig = getattr(owner, attr)
        spans, stack, info = self.spans, self._stack, _INFO.get(name)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if info is not None:
                span[4] = info(args, out)
            return out

        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        for module, attr, name in _FUNCTIONS:
            self._wrap(importlib.import_module(module), attr, name)
        from wverif import forecasts, weights

        for attr in ("cdf", "pdf", "ppf"):
            self._wrap(forecasts.Parametric, attr, "forecasts.dist")
        for cls in vars(weights).values():
            if not isinstance(cls, type) or cls.__module__ != weights.__name__:
                continue
            if issubclass(cls, weights.ChainingFunction) and "transform" in cls.__dict__:
                self._wrap(cls, "transform", "weights.transform")
            if issubclass(cls, weights.WeightFunction) and "__call__" in cls.__dict__:
                self._wrap(cls, "__call__", "weights.weight")

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    @contextlib.contextmanager
    def span(self, name):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def metrics(spans, passes: int, output_bytes: int) -> dict:
    """Per-layer metrics of ``passes`` traced passes, per pass or per call."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    total, self_time, calls, info = {}, {}, {}, {}
    for i, (name, start, end, _, extra) in enumerate(spans):
        dur = end - start
        total[name] = total.get(name, 0.0) + dur
        self_time[name] = self_time.get(name, 0.0) + dur - child[i]
        calls[name] = calls.get(name, 0) + 1
        if extra is not None:
            info.setdefault(name, []).append((extra, dur))

    def per_call(name, scale):
        return total.get(name, 0.0) / calls[name] * scale if calls.get(name) else 0.0

    def per_unit(name, scale):
        units = sum(u for u, _ in info.get(name, []))
        return total.get(name, 0.0) / units * scale if units else 0.0

    out = {
        "archive.read_us_per_row": per_unit("archive.read", 1e6),
        "archive.group_us_per_case": per_unit("archive.group", 1e6),
        "archive.score_self_s": self_time.get("archive.score", 0.0) / passes,
        "archive.write_s": total.get("archive.write", 0.0) / passes,
        "archive.skill_s": total.get("archive.skill", 0.0) / passes,
        "forecasts.dist_calls": calls.get("forecasts.dist", 0) / passes,
        "forecasts.dist_s": total.get("forecasts.dist", 0.0) / passes,
        "weights.transform_s": self_time.get("weights.transform", 0.0) / passes,
        "weights.weight_s": total.get("weights.weight", 0.0) / passes,
    }
    for s in UNI:
        out[f"uniscores.{s}_us"] = per_call(f"uniscores.{s}", 1e6)
    for s in MV:
        out[f"mvscores.{s}_us"] = per_call(f"mvscores.{s}", 1e6)
    out.update({
        "calibration.rank_us": per_call("calibration.rank", 1e6),
        "calibration.pit_us": per_call("calibration.pit", 1e6),
        "calibration.cpit_us": per_call("calibration.cpit", 1e6),
        "calibration.corp_s": total.get("calibration.corp", 0.0) / passes,
        "postprocess.smooth_us": per_call("postprocess.smooth", 1e6),
        "postprocess.fit_emos_ms": per_call("postprocess.fit_emos", 1e3),
        "postprocess.fit_emos_fits": calls.get("postprocess.fit_emos", 0) / passes,
        "postprocess.fit_emos_iters": sum(n for n, _ in info.get("postprocess.fit_emos", [])) / passes,
        "postprocess.predict_us": per_call("postprocess.predict", 1e6),
        "postprocess.ecc_us": per_call("postprocess.ecc", 1e6),
    })
    for s in PROPRIETY:
        out[f"synthlab.propriety.{s}_s"] = total.get(f"synthlab.propriety.{s}", 0.0) / passes
    out["synthlab.impropriety_s"] = sum(
        d for name, d in info.get("synthlab.experiment", []) if name == "impropriety"
    ) / passes
    out["cli.self_s"] = self_time.get("cli.main", 0.0) / passes
    out["cli.output_bytes"] = output_bytes
    if list(out) != METRIC_NAMES:
        raise RuntimeError("per-layer metrics out of step with METRIC_NAMES")
    return out
