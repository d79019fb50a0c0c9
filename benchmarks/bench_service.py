"""Parallel-campaign throughput: warm disk store vs warm in-process caches.

Runs the same fault-injection campaign three ways through the shard
dispatcher (``run_campaign(workers=N)``): a baseline with warm
in-process caches (one warmup campaign first, no disk store), a cold
run against a fresh shared disk store with the in-process caches
dropped, and a warm run over the same store with the in-process
caches dropped again.  It checks all three are canonical-identical,
and reports trials/sec plus the warm-run artifact-store hit rate.
Writes ``BENCH_service.json`` (CI uploads it as an artifact).

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py
    PYTHONPATH=src python benchmarks/bench_service.py --quick \
        --fail-below 0.3
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.campaign import ProgramCampaignSpec, run_campaign  # noqa: E402
from repro.campaign.golden import clear_cache as clear_golden  # noqa: E402
from repro.instrument.cache import clear_cache as clear_instrument  # noqa: E402
from repro.runtime.compile import clear_kernel_cache  # noqa: E402
from repro.service import set_store_dir  # noqa: E402
from repro.service.store import namespace_hit_rate  # noqa: E402


def _canonical(result) -> list[dict]:
    return [record.canonical() for record in result.records]


def _drop_local_caches() -> None:
    """Forget every in-process artifact so the next run starts cold
    (forked workers inherit the driver's memory caches otherwise)."""
    clear_golden()
    clear_kernel_cache()
    clear_instrument()


def bench_spec(spec: ProgramCampaignSpec, workers: int, store: Path) -> dict:
    # Baseline: warm in-process caches, no disk store.  The driver
    # prepares the spec itself, because dispatcher workers prepare in
    # their own processes and leave the driver's caches cold; forked
    # workers then inherit the warm caches, so no instrumentation,
    # compile or golden run is on the clock.
    set_store_dir(None)
    spec.prepare()
    start = time.perf_counter()
    baseline = run_campaign(spec, workers=workers)
    baseline_s = time.perf_counter() - start

    # Cold store: fresh disk store, no in-process artifacts.
    set_store_dir(store)
    _drop_local_caches()
    start = time.perf_counter()
    cold = run_campaign(spec, workers=workers)
    cold_s = time.perf_counter() - start

    # Warm store: same store, local caches dropped again so every
    # hit is a disk hit against the shared store.
    _drop_local_caches()
    start = time.perf_counter()
    warm = run_campaign(spec, workers=workers)
    warm_s = time.perf_counter() - start
    set_store_dir(None)

    expected = _canonical(baseline)
    assert expected == _canonical(cold), f"{spec.benchmark}: cold diverges"
    assert expected == _canonical(warm), f"{spec.benchmark}: warm diverges"
    hit_rate = namespace_hit_rate(
        warm.store or {}, ("golden", "kernel", "instrument")
    )
    return {
        "benchmark": spec.benchmark,
        "trials": spec.trials,
        "workers": workers,
        "baseline_s": baseline_s,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "baseline_trials_per_s": spec.trials / baseline_s,
        "cold_trials_per_s": spec.trials / cold_s,
        "warm_trials_per_s": spec.trials / warm_s,
        "service_vs_baseline": baseline_s / warm_s,
        "warm_vs_cold": cold_s / warm_s,
        "warm_store_hit_rate": hit_rate,
        "shards": (warm.service or {}).get("shards"),
        "verdicts": warm.counts,
    }


def geomean(values: list[float]) -> float:
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values)) if values else float("nan")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--benchmarks", nargs="+", default=["cholesky", "jacobi1d"]
    )
    parser.add_argument(
        "--scale", choices=("small", "default"), default="small"
    )
    parser.add_argument("--trials", type=int, default=64)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="one benchmark, fewer trials (CI smoke sizing)",
    )
    parser.add_argument("--out", default="BENCH_service.json")
    parser.add_argument(
        "--fail-below",
        type=float,
        default=None,
        metavar="X",
        help="exit 1 when geomean warm-store/baseline throughput < X",
    )
    args = parser.parse_args(argv)

    benchmarks = args.benchmarks
    trials = args.trials
    if args.quick:
        benchmarks = benchmarks[:1]
        trials = min(trials, 24)

    rows = []
    with tempfile.TemporaryDirectory(prefix="bench-service-") as tmp:
        for name in benchmarks:
            spec = ProgramCampaignSpec(
                benchmark=name, scale=args.scale, trials=trials, seed=11
            )
            row = bench_spec(spec, args.workers, Path(tmp) / name)
            rows.append(row)
            print(
                f"{row['benchmark']:<10} baseline="
                f"{row['baseline_trials_per_s']:8.1f} trials/s  cold="
                f"{row['cold_trials_per_s']:8.1f}  warm="
                f"{row['warm_trials_per_s']:8.1f}  "
                f"svc/base={row['service_vs_baseline']:5.2f}x  "
                f"warm/cold={row['warm_vs_cold']:5.2f}x  "
                f"hit_rate={row['warm_store_hit_rate']:.2f}  identical"
            )

    summary = {
        "workers": args.workers,
        "trials": trials,
        "geomean_service_vs_baseline": geomean(
            [row["service_vs_baseline"] for row in rows]
        ),
        "geomean_warm_vs_cold": geomean(
            [row["warm_vs_cold"] for row in rows]
        ),
        "min_warm_hit_rate": min(
            (row["warm_store_hit_rate"] for row in rows), default=0.0
        ),
    }
    print(
        f"{'geomean':<10} svc/base="
        f"{summary['geomean_service_vs_baseline']:.2f}x  warm/cold="
        f"{summary['geomean_warm_vs_cold']:.2f}x"
    )

    payload = {"benchmarks": rows, "summary": summary}
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")

    if (
        args.fail_below is not None
        and summary["geomean_service_vs_baseline"] < args.fail_below
    ):
        print(
            f"FAIL: geomean warm-store/baseline throughput "
            f"{summary['geomean_service_vs_baseline']:.2f}x "
            f"< required {args.fail_below:.2f}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
