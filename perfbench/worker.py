"""Timed (or traced) passes of one workload, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/worker.py --workload W --inputs DIR \
        --out DIR --seed N --seconds S --trace 0|1 --result FILE [--smoke]

A closed loop: one wverif.cli.main(argv) call at a time, whole passes
over the workload's ops until ``--seconds`` have elapsed (at least one
pass).  The speed probe runs before and after every op.  Writes counts,
the time of every op in every pass, also scaled to the reference speed,
and the peak RSS of this process to ``--result``; with ``--trace 1`` also the per-layer metrics, and the
spans next to the result file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _output_bytes(out: str) -> int:
    """Bytes of the data files the last pass wrote (manifests excluded,
    since they record wall time)."""
    total = 0
    for dirpath, _, files in os.walk(out):
        total += sum(
            os.path.getsize(os.path.join(dirpath, f)) for f in files if f != "manifest.json"
        )
    return total


def run(args) -> dict:
    import wverif
    import wverif.cli as cli

    src = os.path.abspath("src")
    if not os.path.abspath(wverif.__file__).startswith(src + os.sep):
        raise SystemExit(f"wverif imported from {wverif.__file__}, not from {src}")

    size = workloads.sizes(args.workload, args.smoke)
    ops = workloads.operations(args.workload, args.inputs, args.out, args.seed, size)
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()

    attempted = failed = cases = 0
    failures = []
    pass_s = []
    op_s = {op.name: [] for op in ops}
    op_scaled_s = {op.name: [] for op in ops}
    last_rc = {}
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        before = speed.probe()
        for op in ops:
            err = io.StringIO()
            t1 = time.perf_counter()
            with contextlib.redirect_stderr(err):
                rc = cli.main(op.argv)
            op_time = time.perf_counter() - t1
            after = speed.probe()
            op_s[op.name].append(op_time)
            op_scaled_s[op.name].append(speed.scaled(op_time, before, after))
            before = after
            attempted += 1
            last_rc[op.name] = rc
            if rc == 0:
                cases += op.cases
            else:
                failed += 1
                failures.append({"op": op.name, "rc": rc, "expected": rc == op.fails_with,
                                 "stderr": err.getvalue().strip()})
        if tracer and args.workload == "propriety":
            # The CLI cannot select propriety scores (see the FOUND line on
            # _parse_param), so the per-score spans call the library.
            from wverif.synthlab import run_propriety_mc

            for s in tracing.PROPRIETY:
                with tracer.span(f"synthlab.propriety.{s}"):
                    run_propriety_mc(scores=(s,), n_pairs=size["n_pairs"], n_uni=size["n_uni"],
                                     n_mv=size["n_mv"], seed=args.seed)
        pass_s.append(time.perf_counter() - t0)
        if time.perf_counter() - start >= args.seconds:
            break
    result = {
        "passes": len(pass_s),
        "pass_s": pass_s,
        "op_s": op_s,
        "op_scaled_s": op_scaled_s,
        "attempted": attempted,
        "failed": failed,
        "cases": cases,
        "failures": failures[: len(ops)],
        "last_rc": last_rc,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        tracer.uninstall()
        spans_path = os.path.join(os.path.dirname(args.result), "spans.jsonl")
        tracer.write(spans_path)
        result["spans"] = spans_path
        result["layers"] = tracing.metrics(tracer.spans, len(pass_s), _output_bytes(args.out))
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--inputs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--result", required=True)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    result = run(args)
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
