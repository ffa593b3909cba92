"""wverif benchmark: one workload, timed or traced, with output checks.

    python3 perfbench/run.py --workload score-raw --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; wverif is imported from ./src.  The
inputs are generated from ``--seed`` in a separate process, the timed
passes run in a fresh interpreter, ``setup_s`` is the median of several
fresh ``import wverif.cli`` timings, and every output of the last pass
is checked against the oracles.  The last line of stdout is one JSON
object: correct, attempted, failed and the metrics (end-to-end ones
with ``--trace 0``, per-layer ones with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_IMPORTS = 5
# Every run, its set-up included, must end well within three minutes.
WORKER_TIMEOUT_S = 150
_IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import wverif.cli; "
    "print(time.perf_counter() - t)"
)


def _env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def _python(args, env, timeout, cwd):
    return subprocess.run(
        [sys.executable] + args, env=env, cwd=cwd, timeout=timeout,
        check=True, stdout=subprocess.PIPE, text=True,
    ).stdout


def setup_seconds(root: str, n: int) -> float:
    """Median time of ``import wverif.cli`` in ``n`` fresh interpreters, at
    the reference speed of the probes run between them."""
    env = _env(root)
    times = []
    before = speed.probe()
    for _ in range(n):
        seconds = float(_python(["-c", _IMPORT_TIMER], env, 60, root))
        after = speed.probe()
        times.append(speed.scaled(seconds, before, after))
        before = after
    return statistics.median(times)


def run_benchmark(root, workload, seed, seconds, trace, work, smoke=False) -> dict:
    """Generate, run, check; returns the result object (and leaves ``work``)."""
    env = _env(root)
    inputs = os.path.join(work, "inputs")
    out = os.path.join(work, "out")
    result_path = os.path.join(work, "worker.json")
    size = workloads.sizes(workload, smoke)
    flags = ["--smoke"] if smoke else []
    _python([os.path.join(HERE, "gen.py"), "--workload", workload, "--seed", str(seed),
             "--out", inputs] + flags, env, 60, root)
    _python([os.path.join(HERE, "worker.py"), "--workload", workload, "--inputs", inputs,
             "--out", out, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace), "--result", result_path] + flags,
            env, WORKER_TIMEOUT_S, root)
    with open(result_path) as fh:
        res = json.load(fh)

    ok = [name for name, rc in res["last_rc"].items() if rc == 0]
    problems = checks.check(workload, inputs, out, size, ok)
    for f in res["failures"]:
        if not f["expected"]:
            problems.append(f"unexpected failure of {f['op']} (exit {f['rc']}): {f['stderr']}")
    if trace:
        metrics = {name: {"value": res["layers"][name], "unit": unit_of(name)}
                   for name in tracing.METRIC_NAMES}
    else:
        metrics = {
            "setup_s": {"value": setup_seconds(root, 1 if smoke else SETUP_IMPORTS), "unit": "s"},
            "cases_per_s": {"value": cases_per_second(res), "unit": "cases/s"},
            "peak_rss_mib": {"value": res["peak_rss_mib"], "unit": "MiB"},
        }
    return {
        "correct": not problems,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
        "problems": problems,
        "passes": res["passes"],
        "pass_s": res["pass_s"],
        "op_s": res["op_s"],
    }


def cases_per_second(res: dict) -> float:
    """Cases of one pass over the time of a typical pass: the sum over
    ops of each op's median time across passes, at the reference speed,
    so the machine's slow stretches do not set the figure."""
    typical = sum(statistics.median(times) for times in res["op_scaled_s"].values())
    return res["cases"] / res["passes"] / typical


def unit_of(name: str) -> str:
    for suffix, unit in (("_us_per_row", "us/row"), ("_us_per_case", "us/case"), ("_us", "us"),
                         ("_ms", "ms"), ("_s", "s"), ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's tests")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "wverif", "cli.py")):
        print("perfbench: run from the root of a wverif checkout (no src/wverif here)", file=sys.stderr)
        return 2
    work = os.path.join(HERE, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    start = time.perf_counter()
    try:
        res = run_benchmark(root, args.workload, args.seed, args.seconds, args.trace, work, args.smoke)
        if args.trace:
            shutil.copyfile(os.path.join(work, "spans.jsonl"),
                            os.path.join(HERE, "work", f"spans-{args.workload}.jsonl"))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for msg in res["problems"]:
        print(f"perfbench: CHECK FAILED: {msg}", file=sys.stderr)
    per_op = ", ".join(f"{k} {statistics.median(v):.3f}" for k, v in res["op_s"].items())
    print(
        f"perfbench: {args.workload} seed {args.seed}: {res['passes']} passes of "
        f"{[round(s, 3) for s in res['pass_s']]} s; median seconds by op: {per_op}; "
        f"run {time.perf_counter() - start:.1f} s",
        file=sys.stderr,
    )
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
