"""Backend shoot-out: interpreter vs compiled kernel.

Times the execution backends on the instrumented (split + hoisted)
builds of the 10 paper benchmarks — the exact programs a Figure 10
campaign runs thousands of times — and writes ``BENCH_backends.json``.
The compiled backend is timed at every requested ``--opt-levels``
entry (default: 0, 1, 2), so the report shows both the
interpreter-vs-compiled gap and what each optimizer level buys over
the level-0 straight translation.  Compile time is reported
separately from run time because campaigns pay it once per worker and
amortize it over every trial.

Usage::

    PYTHONPATH=src python benchmarks/bench_backends.py
    PYTHONPATH=src python benchmarks/bench_backends.py --quick \
        --fail-below 1.0 --fail-below-opt 1.2 --out BENCH_backends.json

``--fail-below X`` exits non-zero when the geometric-mean
interpreter-vs-best-level speedup falls below ``X`` (CI uses 1.0:
compiled must never be slower).  ``--fail-below-opt Y`` additionally
gates the highest-level-vs-level-0 geomean (the optimizer win).
See docs/BACKENDS.md for how to read the output.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.instrument.pipeline import (  # noqa: E402
    InstrumentationOptions,
    instrument_program,
)
from repro.programs import ALL_BENCHMARKS  # noqa: E402
from repro.runtime.compile import (  # noqa: E402
    clear_kernel_cache,
    compile_program,
)
from repro.runtime.interpreter import run_program  # noqa: E402

OPTIMIZED = InstrumentationOptions(
    index_set_splitting=True, hoist_inspectors=True
)


def _copy_values(values: dict) -> dict:
    return {
        k: (v.copy() if hasattr(v, "copy") else v) for k, v in values.items()
    }


def bench_one(
    name: str, scale: str, repeats: int, opt_levels: list[int]
) -> dict:
    module = ALL_BENCHMARKS[name]
    program = module.program()
    params = dict(
        module.SMALL_PARAMS if scale == "small" else module.DEFAULT_PARAMS
    )
    values = module.initial_values(params, seed=7)
    program, _ = instrument_program(program, OPTIMIZED)

    clear_kernel_cache()
    kernels = {}
    compile_s = {}
    for level in opt_levels:
        start = time.perf_counter()
        kernels[level] = compile_program(program, opt_level=level)
        compile_s[level] = time.perf_counter() - start

    interp_s = float("inf")
    level_s = {level: float("inf") for level in opt_levels}
    reference = None
    for _ in range(repeats):
        start = time.perf_counter()
        ri = run_program(program, params, initial_values=_copy_values(values))
        interp_s = min(interp_s, time.perf_counter() - start)
        if reference is None:
            reference = ri
        for level in opt_levels:
            start = time.perf_counter()
            rc = kernels[level].execute(
                params, initial_values=_copy_values(values)
            )
            level_s[level] = min(level_s[level], time.perf_counter() - start)
            # The timing loop doubles as a sanity check on the
            # bit-identity contract (the differential suite is the
            # authoritative test).
            assert (
                ri.counts == rc.counts
            ), f"{name} L{level}: op counts diverge"
            assert (
                ri.checksums.sums == rc.checksums.sums
            ), f"{name} L{level}: checksums diverge"
    best = max(opt_levels)
    base = min(opt_levels)

    return {
        "benchmark": name,
        "scale": scale,
        "params": params,
        "interp_s": interp_s,
        "compiled_s": level_s[best],
        "compile_s": compile_s[best],
        "speedup": interp_s / level_s[best],
        "levels": {
            str(level): {
                "run_s": level_s[level],
                "compile_s": compile_s[level],
                "speedup_vs_interp": interp_s / level_s[level],
                "speedup_vs_l0": level_s[base] / level_s[level],
            }
            for level in opt_levels
        },
        "opt_speedup": level_s[base] / level_s[best],
        "statements": reference.statements_executed,
    }


def geomean(values: list[float]) -> float:
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values)) if values else float("nan")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--benchmarks",
        nargs="+",
        default=None,
        choices=sorted(ALL_BENCHMARKS),
        help="subset to time (default: all 10)",
    )
    parser.add_argument(
        "--scale", choices=("small", "default"), default="default"
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small scale, 1 repeat, 3 benchmarks — the CI smoke set",
    )
    parser.add_argument("--out", default="BENCH_backends.json")
    parser.add_argument(
        "--opt-levels",
        nargs="+",
        type=int,
        default=[0, 1, 2],
        choices=(0, 1, 2),
        help="optimizer levels to time (default: all three)",
    )
    parser.add_argument(
        "--fail-below",
        type=float,
        default=None,
        metavar="X",
        help="exit 1 when the interp-vs-compiled geomean speedup "
        "(at the highest level timed) is below X",
    )
    parser.add_argument(
        "--fail-below-opt",
        type=float,
        default=None,
        metavar="Y",
        help="exit 1 when the highest-vs-lowest opt level geomean "
        "speedup is below Y",
    )
    args = parser.parse_args(argv)

    names = args.benchmarks or list(ALL_BENCHMARKS)
    scale = args.scale
    repeats = args.repeats
    if args.quick:
        names = args.benchmarks or ["jacobi1d", "trisolv", "cholesky"]
        scale = "small"
        repeats = 1

    opt_levels = sorted(set(args.opt_levels))
    rows = []
    for name in names:
        row = bench_one(name, scale, repeats, opt_levels)
        rows.append(row)
        per_level = " ".join(
            f"L{level}={row['levels'][str(level)]['run_s']:.3f}s"
            for level in opt_levels
        )
        print(
            f"{row['benchmark']:<10} interp={row['interp_s']:8.3f}s "
            f"{per_level} "
            f"speedup={row['speedup']:6.2f}x "
            f"opt={row['opt_speedup']:5.2f}x"
        )

    summary = {
        "scale": scale,
        "repeats": repeats,
        "opt_levels": opt_levels,
        "geomean_speedup": geomean([row["speedup"] for row in rows]),
        "geomean_opt_speedup": geomean(
            [row["opt_speedup"] for row in rows]
        ),
        "geomean_by_level": {
            str(level): geomean(
                [
                    row["levels"][str(level)]["speedup_vs_l0"]
                    for row in rows
                ]
            )
            for level in opt_levels
        },
        "total_interp_s": sum(row["interp_s"] for row in rows),
        "total_compiled_s": sum(row["compiled_s"] for row in rows),
    }
    summary["total_speedup"] = (
        summary["total_interp_s"] / summary["total_compiled_s"]
    )
    print(
        f"{'geomean':<10} speedup={summary['geomean_speedup']:6.2f}x  "
        f"total={summary['total_speedup']:.2f}x  "
        f"opt={summary['geomean_opt_speedup']:.2f}x"
    )

    payload = {"benchmarks": rows, "summary": summary}
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")

    failed = False
    if (
        args.fail_below is not None
        and summary["geomean_speedup"] < args.fail_below
    ):
        print(
            f"FAIL: geomean speedup {summary['geomean_speedup']:.2f}x "
            f"< required {args.fail_below:.2f}x",
            file=sys.stderr,
        )
        failed = True
    if (
        args.fail_below_opt is not None
        and summary["geomean_opt_speedup"] < args.fail_below_opt
    ):
        print(
            f"FAIL: geomean opt speedup "
            f"{summary['geomean_opt_speedup']:.2f}x "
            f"< required {args.fail_below_opt:.2f}x",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
