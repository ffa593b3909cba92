"""Workload definitions shared by the generator, the worker and the checks.

This module imports nothing from wverif: the generator and the output
checks must stay independent of the program under test.
"""

from __future__ import annotations

import os

WORKLOADS = ("score-raw", "score-smooth", "calibrate", "propriety")

THRESHOLD = 25.0
HEAT_LEVEL = 3
LEADS = (1, 2, 3)

# Input sizes, small enough that a run of 12 s holds at least three
# passes, so the median time of each op over the passes is robust to
# bursts of load from elsewhere on the machine.  ``smoke`` shrinks every
# workload so the benchmark's own tests run each one in a few seconds.
SIZES = {
    "score-raw": {"stations": 20, "days": 40, "members": 51},
    "score-smooth": {"stations": 4, "days": 1, "members": 21},
    "calibrate": {"stations": 10, "days": 20, "members": 21, "corp_resamples": 50},
    # One pair: truth against a shifted alternative, for every score.
    "propriety": {"n_pairs": 1, "n_uni": 20000, "n_mv": 2000, "n_imp": 20000},
}
SMOKE_SIZES = {
    "score-raw": {"stations": 3, "days": 12, "members": 11},
    "score-smooth": {"stations": 1, "days": 1, "members": 11},
    "calibrate": {"stations": 3, "days": 40, "members": 11, "corp_resamples": 10},
    "propriety": {"n_pairs": 1, "n_uni": 2000, "n_mv": 300, "n_imp": 5000},
}

RAW_UNIVARIATE = ("crps", "brier", "twcrps", "vrcrps")
RAW_MULTIVARIATE = ("es", "vs")
RAW_HEAT = ("twes", "twvs", "vres", "vrvs")
SMOOTH_SCORES = ("crps", "twcrps", "owcrps", "owcrps_bs", "vrcrps")
PROPRIETY_SCORES = ("crps", "twcrps", "owcrps_bs", "vrcrps", "es", "vs", "twes", "twvs", "vres")


def sizes(workload: str, smoke: bool) -> dict:
    return dict((SMOKE_SIZES if smoke else SIZES)[workload])


def n_records(size: dict) -> int:
    return size["stations"] * size["days"] * len(LEADS)


class Op:
    """One wverif invocation of a pass.

    ``cases`` is what the op completes when it succeeds; ``fails_with``
    names the exit code of an op that is known to fail on every pass.
    """

    def __init__(self, name, argv, cases, fails_with=None):
        self.name = name
        self.argv = argv
        self.cases = cases
        self.fails_with = fails_with


def operations(workload: str, inputs: str, out: str, seed: int, size: dict) -> list:
    """The ops of one pass, in order; ``out`` gets one directory per op."""
    t = repr(THRESHOLD)
    seed_arg = ["--seed", str(seed)]

    def outdir(name):
        return ["--out", os.path.join(out, name)]

    ops = []
    if workload == "score-raw":
        arch = os.path.join(inputs, "archive.csv")
        n = n_records(size)
        n_mv = n // len(LEADS)
        base = ["score", "--archive", arch, "--score"]
        for s in RAW_UNIVARIATE:
            ops.append(Op(s, base + [s, "--threshold", t] + outdir(s), n))
        for s in RAW_MULTIVARIATE:
            ops.append(Op(s, base + [s] + outdir(s), n_mv))
        for s in RAW_HEAT:
            ops.append(Op(s, base + [s, "--level", str(HEAT_LEVEL)] + outdir(s), n_mv))
        # One stacked case has its observation in the box and no member
        # there, so ow_energy_score raises WeightedMassZero and the run
        # exits 3 (see the FOUND line on per-case isolation).
        ops.append(Op("owes", base + ["owes", "--threshold", t] + outdir("owes"), n_mv, fails_with=3))
    elif workload == "score-smooth":
        arch = os.path.join(inputs, "archive.csv")
        n = n_records(size)
        for s in SMOOTH_SCORES:
            argv = ["score", "--archive", arch, "--smooth", "--score", s, "--threshold", t]
            ops.append(Op(s, argv + outdir(s), n))
    elif workload == "calibrate":
        arch = os.path.join(inputs, "archive.csv")
        n = n_records(size)
        ops.append(Op("diagnose", [
            "diagnose", "--archive", arch, "--smooth", "--thresholds", "25,27",
            "--corp-resamples", str(size["corp_resamples"]),
        ] + seed_arg + outdir("diagnose"), n))
        ops.append(Op("postprocess", [
            "postprocess", "--archive", arch, "--stations", os.path.join(inputs, "stations.csv"),
            "--ecc", "--climatology",
        ] + outdir("postprocess"), n))
        ops.append(Op("report", [
            "report", "--archive", os.path.join(out, "postprocess", "ecc.csv"),
            "--reference", arch, "--scores", "crps,es,vs",
        ] + outdir("report"), n))
    elif workload == "propriety":
        n_uni_rows = 4 * size["n_pairs"]
        n_mv_rows = 5 * size["n_pairs"]
        ops.append(Op("propriety", [
            "synth", "propriety",
            "--param", f"n_pairs={size['n_pairs']}",
            "--param", f"n_uni={size['n_uni']}",
            "--param", f"n_mv={size['n_mv']}",
        ] + seed_arg + outdir("propriety"),
            2 * (n_uni_rows * size["n_uni"] + n_mv_rows * size["n_mv"])))
        ops.append(Op("impropriety", [
            "synth", "impropriety", "--param", f"n={size['n_imp']}",
        ] + seed_arg + outdir("impropriety"), 4 * size["n_imp"]))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops
