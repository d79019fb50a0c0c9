"""One process of the benchmark: a timed pass, or the output check.

    python3 perfbench/child.py pass  --workload W --seed N --workdir D --out F
                                     [--workers K] [--trace]
    python3 perfbench/child.py check --workload W --seed N --workdir D --out F
                                     --part {0,1}

``run.py`` starts each pass in a fresh process, so every cache starts
empty; imports happen before the timer starts.  The result is written
as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

# Everything a workload imports lazily, imported up front so that no
# import lands inside the timed region.
import multiprocessing.pool  # noqa: E402,F401

import numpy  # noqa: E402,F401

import repro.campaign.engine  # noqa: E402,F401
import repro.instrument.cache  # noqa: E402,F401
import repro.instrument.pipeline  # noqa: E402,F401
import repro.ir.analysis  # noqa: E402,F401
import repro.programs  # noqa: E402,F401
import repro.recovery  # noqa: E402,F401
import repro.runtime.compile  # noqa: E402,F401
import repro.runtime.faults  # noqa: E402,F401
import repro.runtime.interpreter  # noqa: E402,F401
import repro.runtime.opt  # noqa: E402,F401
import repro.runtime.vector  # noqa: E402,F401

import workloads  # noqa: E402


def run_pass(args) -> dict:
    if not args.trace:
        return workloads.run_pass(
            args.workload,
            args.seed,
            args.workdir,
            workers=args.workers,
        )
    import spans

    recorder = spans.Recorder()
    with spans.Installed(recorder) as installed:
        result = workloads.run_pass(
            args.workload,
            args.seed,
            args.workdir,
            workers=args.workers,
            recorder=recorder,
        )
    layers = spans.span_metrics(
        recorder.spans, result["wall_s"], result["completed"]
    )
    layers["runtime.compile.fallbacks"] = installed.compile_fallbacks
    result["layers"] = layers
    return result


def run_check(args) -> dict:
    """Half ``--part`` of the reference check of a pass's logs, and the
    op-count ratio from this process's cold caches.

    ``run.py`` starts parts 0 and 1 side by side; the two ratios come
    from two processes (two hash seeds) and must be equal.
    """
    import reference

    specs = workloads.WORKLOADS[args.workload].specs(args.seed)
    checked = 0
    problems: list[str] = []
    half = range(len(specs) * args.part // 2, len(specs) * (args.part + 1) // 2)
    for position in half:
        spec = specs[position]
        path = os.path.join(args.workdir, f"{position:03d}.jsonl")
        if not os.path.exists(path):
            continue  # the pass already counted this campaign as failed
        count = (
            reference.CHECKSUM_SAMPLES
            if spec.kind == "checksum"
            else reference.PROGRAM_SAMPLES
        )
        indices = workloads.sample_indices(args.seed, position, spec.trials, count)
        done, found = reference.check_log(path, indices)
        checked += done
        problems += found
    overhead_specs = [
        spec
        for spec in workloads.fault_matrix_specs(args.seed)
        if spec.fault_model == "random_cell"
    ]
    return {
        "checked": checked,
        "problems": problems,
        "op_overhead": reference.op_overhead(overhead_specs),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=("pass", "check"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--part", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_pass(args) if args.command == "pass" else run_check(args)
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
