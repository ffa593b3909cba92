"""Generate a workload's input files from a seed.

    python3 perfbench/gen.py --workload score-raw --seed 1 --out DIR [--smoke]

Runs in its own process, apart from the timed passes, and imports only
numpy and the standard library.  The same seed gives byte-identical files.
"""

from __future__ import annotations

import argparse
import datetime
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads  # noqa: E402

START = datetime.date(2024, 6, 1)

# The stacked case that makes ``score --score owes`` fail on every seed:
# station S01, first init date, three hot observations and no member in
# the box [25, inf)^3.  Its values do not depend on the seed.
PLANTED_OBS = (30.0, 30.5, 31.0)


def _planted_members(m: int) -> np.ndarray:
    return 15.0 + 0.05 * np.arange(m)


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, workloads.WORKLOADS.index(workload)])


def _trajectories(rng, m: int, rho: float) -> np.ndarray:
    """(3, m) standard normal member trajectories, lead-to-lead correlation rho."""
    z = rng.standard_normal((3, m))
    out = np.empty_like(z)
    out[0] = z[0]
    for k in range(1, 3):
        out[k] = rho * out[k - 1] + np.sqrt(1.0 - rho**2) * z[k]
    return out


def _raw_case(rng, m: int):
    """One stacked score-raw case: (3, m) members and 3 observations.

    Regimes: cool days far below the heat levels, warm days straddling
    25 degrees, and steady heat with tight ensembles inside heat level 3
    (every day in [25, 27)), so the heat-level checks see cases with no
    mass in the level and cases with all of it there.
    """
    regime = rng.choice(3, p=(0.35, 0.45, 0.20))
    if regime == 0:
        centre = 20.0 + rng.normal(0.0, 1.5, 3)
        spread = error = 1.2
    elif regime == 1:
        centre = 25.0 + rng.normal(0.0, 2.0, 3)
        spread = error = 1.5
    else:
        centre = rng.uniform(25.6, 26.4, 3)
        spread = error = 0.12
    members = centre[:, None] + spread * _trajectories(rng, m, 0.8)
    obs = centre + error * rng.standard_normal(3)
    return members, obs


def _calibrate_case(rng, m: int, station_shift: float, mhd: float):
    """Raw ensemble biased warm by 1.5 and underdispersed (spread 0.5
    against a forecast error of 1.5).  Members are also 0.006 degrees
    colder per metre the model grid cell sits above the station (mhd),
    which postprocess's lapse-rate correction takes out."""
    truth = 24.0 + station_shift + rng.normal(0.0, 2.5, 3)
    centre = truth + 1.5 + rng.normal(0.0, 1.5, 3) - 0.006 * mhd
    members = centre[:, None] + 0.5 * _trajectories(rng, m, 0.8)
    return members, truth


def _smooth_case(rng, m: int, above: np.ndarray):
    """Ensemble about as spread as its error, near 25 degrees.

    ``above`` says on which side of 25 each observation lies, so every
    seed scores the same number of cases in the outcome-weighted tail;
    the narrow ranges keep the quadrature work of a pass alike across
    seeds.
    """
    sd = rng.uniform(1.2, 1.8, 3)
    obs = 25.0 + np.where(above, 1.0, -1.0) * rng.uniform(0.3, 3.0, 3)
    centre = obs - sd * rng.standard_normal(3)
    members = centre[:, None] + sd[:, None] * rng.standard_normal((3, m))
    return members, obs


def _write_archive(path: str, rows: list, m: int) -> None:
    header = ["station_id", "init_date", "lead_time"] + [f"m{i + 1}" for i in range(m)] + ["obs"]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for sid, date, lead, members, obs in rows:
            vals = ",".join(repr(float(v)) for v in members)
            fh.write(f"{sid},{date.isoformat()},{lead},{vals},{float(obs)!r}\n")


def generate(workload: str, seed: int, out: str, smoke: bool = False) -> None:
    size = workloads.sizes(workload, smoke)
    os.makedirs(out, exist_ok=True)
    if workload == "propriety":
        # The Monte Carlo draws its samples from the --seed it is given.
        return
    rng = _rng(seed, workload)

    m = size["members"]
    stations = [f"S{i + 1:02d}" for i in range(size["stations"])]
    shifts = rng.uniform(-1.0, 1.0, len(stations))
    mhd = rng.uniform(-300.0, 300.0, len(stations))
    tpi = rng.uniform(-50.0, 50.0, len(stations))
    rows = []
    for day in range(size["days"]):
        date = START + datetime.timedelta(days=day)
        for k, sid in enumerate(stations):
            if workload == "score-raw":
                if k == 0 and day == 0:
                    members = np.tile(_planted_members(m), (3, 1))
                    obs = np.array(PLANTED_OBS)
                else:
                    members, obs = _raw_case(rng, m)
            elif workload == "calibrate":
                members, obs = _calibrate_case(rng, m, shifts[k], mhd[k])
            else:
                members, obs = _smooth_case(rng, m, (k + np.arange(3)) % 2 == 0)
            for i, lead in enumerate(workloads.LEADS):
                rows.append((sid, date, lead, members[i], obs[i]))
    _write_archive(os.path.join(out, "archive.csv"), rows, m)
    if workload == "calibrate":
        with open(os.path.join(out, "stations.csv"), "w") as fh:
            fh.write("station_id,mhd,tpi,model_height,station_height\n")
            for k, sid in enumerate(stations):
                h = 400.0 + 50.0 * k
                vals = (float(mhd[k]), float(tpi[k]), h + float(mhd[k]), h)
                fh.write(sid + "," + ",".join(repr(v) for v in vals) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    generate(args.workload, args.seed, args.out, args.smoke)
    return 0


if __name__ == "__main__":
    sys.exit(main())
