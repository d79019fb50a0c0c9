"""Figure 10 — normalized running time of the resilient codes
(software-only, one checksum).

For every Table 2 benchmark, three builds are compared:

* **Original** — the uninstrumented program (normalized time 1.0);
* **Resilient** — checksums inserted, no optimizations (use-count
  conditionals in the loops; inspectors re-run every while iteration);
* **Resilient-Optimized** — index-set splitting (Section 3.3) plus
  inspector hoisting (Section 4.2).

Two measurements are taken on the simulator substrate:

1. the **cost model**: dynamic operation counts from the interpreter,
   weighted per :class:`~repro.runtime.costmodel.CostParams` — the
   default reported numbers (architecture-neutral, deterministic); and
2. optional **wall-clock** of the generated-Python builds
   (``--wall``), the closest analogue of the paper's compiled-C
   timing.

Paper anchors: geomean overhead 78.8% resilient, 40.2% optimized; LU
30.3s → 13.2s with splitting (original 11.1s); CG 81.1s → 52.7s with
inspector hoisting (original 33.7s); moldyn worst overall.
"""

from __future__ import annotations

import argparse
import time
from dataclasses import dataclass

from repro.campaign.golden import golden_run
from repro.codegen.python_gen import compile_to_python
from repro.experiments.reporting import OverheadRow, format_overheads, geomean
from repro.instrument.cache import instrument_cached
from repro.instrument.pipeline import InstrumentationOptions
from repro.programs import ALL_BENCHMARKS
from repro.runtime.costmodel import CostModel, OpCounts

PAPER_GEOMEANS = {"resilient": 1.788, "optimized": 1.402}
PAPER_ANCHORS = {
    # benchmark: (original s, resilient s, optimized s) where reported
    "lu": (11.1, 30.3, 13.2),
    "cg": (33.7, 81.1, 52.7),
}

RESILIENT = InstrumentationOptions(
    index_set_splitting=False, hoist_inspectors=False
)
OPTIMIZED = InstrumentationOptions(
    index_set_splitting=True, hoist_inspectors=True
)


@dataclass
class BenchmarkBuilds:
    """Original + two instrumented variants of one benchmark."""

    name: str
    original: object
    resilient: object
    optimized: object
    params: dict
    values: dict
    scale: str = "default"


def build_benchmark(name: str, scale: str = "default") -> BenchmarkBuilds:
    module = ALL_BENCHMARKS[name]
    program = module.program()
    params = dict(
        module.SMALL_PARAMS if scale == "small" else module.DEFAULT_PARAMS
    )
    values = module.initial_values(params)
    # Content-addressed: repeated harness invocations (and campaign
    # sweeps over the same kernels) reuse the instrumented builds.
    resilient, _ = instrument_cached(program, RESILIENT)
    optimized, _ = instrument_cached(program, OPTIMIZED)
    return BenchmarkBuilds(
        name=name,
        original=program,
        resilient=resilient,
        optimized=optimized,
        params=params,
        values=values,
        scale=scale,
    )


def _copy_values(values: dict) -> dict:
    return {
        k: (v.copy() if hasattr(v, "copy") else v) for k, v in values.items()
    }


def measure_counts(
    builds: BenchmarkBuilds, backend: str = "compiled"
) -> dict[str, OpCounts]:
    """Dynamic operation counts per build variant.

    Fault-free executions are deterministic, so they go through the
    process-wide golden-run cache: a benchmark/scale/variant triple is
    executed once per process no matter how many harnesses (Figure
    10, ablations, campaigns) ask for it.  Both backends produce
    identical counts; the key still records which one ran.
    """
    from repro.runtime.compile import execute_program

    counts: dict[str, OpCounts] = {}
    for key, program in (
        ("original", builds.original),
        ("resilient", builds.resilient),
        ("optimized", builds.optimized),
    ):
        result = golden_run(
            ("figure10", builds.name, builds.scale, key, backend),
            lambda program=program: execute_program(
                program,
                builds.params,
                backend=backend,
                initial_values=_copy_values(builds.values),
            ),
        )
        if result.mismatches:
            raise AssertionError(
                f"{builds.name}/{key}: fault-free run flagged an error: "
                f"{result.mismatches}"
            )
        counts[key] = result.counts
    return counts


def prepare_arrays(program, params: dict, values: dict) -> dict:
    """Numpy arrays for a (possibly instrumented) program: originals
    copied from ``values``, shadow regions zero-initialized."""
    import numpy as np

    from repro.ir.analysis import to_affine

    arrays: dict = {}
    for decl in program.arrays:
        dtype = np.float64 if decl.elem_type == "f64" else np.int64
        if decl.name in values:
            arrays[decl.name] = np.array(values[decl.name], dtype=dtype)
        else:
            shape = tuple(
                int(to_affine(d, set(params)).evaluate(params))
                for d in decl.dims
            )
            arrays[decl.name] = np.zeros(shape, dtype=dtype)
    for decl in program.scalars:
        if decl.name in values:
            arrays[decl.name] = values[decl.name]
    return arrays


# Generated-Python builds shared across measure_wall calls.  Keyed by
# the same content digest as the runtime kernel cache
# (repro.runtime.compile.ir_digest), so the three builds of a benchmark
# are code-generated once per process no matter how many harness
# invocations (repeat sweeps, scale comparisons) re-time them.
_WALL_BUILDS: dict[str, object] = {}
_WALL_BUILD_STATS = {"hits": 0, "misses": 0}


def _wall_build(program):
    from repro.runtime.compile import ir_digest

    digest = ir_digest(program)
    compiled = _WALL_BUILDS.get(digest)
    if compiled is None:
        _WALL_BUILD_STATS["misses"] += 1
        compiled = compile_to_python(program)
        _WALL_BUILDS[digest] = compiled
    else:
        _WALL_BUILD_STATS["hits"] += 1
    return compiled


def wall_build_cache_stats() -> dict[str, int]:
    return {**_WALL_BUILD_STATS, "size": len(_WALL_BUILDS)}


def clear_wall_build_cache() -> None:
    _WALL_BUILDS.clear()
    _WALL_BUILD_STATS.update(hits=0, misses=0)


def measure_wall(builds: BenchmarkBuilds, repeats: int = 3) -> dict[str, float]:
    times: dict[str, float] = {}
    for key, program in (
        ("original", builds.original),
        ("resilient", builds.resilient),
        ("optimized", builds.optimized),
    ):
        compiled = _wall_build(program)
        best = float("inf")
        for _ in range(repeats):
            arrays = prepare_arrays(program, builds.params, builds.values)
            start = time.perf_counter()
            compiled(builds.params, arrays)
            best = min(best, time.perf_counter() - start)
        times[key] = best
    return times


def overhead_row(
    name: str,
    scale: str = "default",
    wall: bool = False,
    cost_model: CostModel | None = None,
    backend: str = "compiled",
) -> OverheadRow:
    cost_model = cost_model or CostModel()
    builds = build_benchmark(name, scale)
    counts = measure_counts(builds, backend=backend)
    resilient = cost_model.overhead(counts["original"], counts["resilient"])
    optimized = cost_model.overhead(counts["original"], counts["optimized"])
    row = OverheadRow(
        benchmark=name, resilient=resilient, resilient_optimized=optimized
    )
    if wall:
        times = measure_wall(builds)
        row.wall_resilient = times["resilient"] / times["original"]
        row.wall_resilient_optimized = times["optimized"] / times["original"]
    if name in PAPER_ANCHORS:
        orig, res, opt = PAPER_ANCHORS[name]
        row.note = f"paper: {res / orig:.2f} / {opt / orig:.2f}"
    return row


def run_figure10(
    benchmarks: list[str] | None = None,
    scale: str = "default",
    wall: bool = False,
    backend: str = "compiled",
) -> list[OverheadRow]:
    names = benchmarks or list(ALL_BENCHMARKS)
    return [
        overhead_row(name, scale, wall, backend=backend) for name in names
    ]


def detection_coverage(
    benchmarks: list[str] | None = None,
    trials: int = 100,
    seed: int = 0,
    workers: int = 1,
    scale: str = "small",
    bits: int = 2,
    backend: str = "compiled",
    recover: bool = False,
) -> list[dict]:
    """Detection coverage of the resilient builds under random faults.

    Each benchmark becomes one
    :class:`~repro.campaign.ProgramCampaignSpec` run through the
    campaign engine; verdicts separate detected faults from silent
    data corruption, benign (dead-data) hits, and trials where no
    fault landed.  Rates carry Wilson 95% intervals.  With
    ``recover=True`` every trial additionally runs the checkpoint +
    re-execution controller and the rows gain recovery columns
    (``docs/RECOVERY.md``).
    """
    from repro.campaign import ProgramCampaignSpec, derive_seed, run_campaign

    rows: list[dict] = []
    for name in benchmarks or list(ALL_BENCHMARKS):
        spec = ProgramCampaignSpec(
            trials=trials,
            seed=derive_seed(seed, "figure10-detect", name, scale),
            benchmark=name,
            scale=scale,
            bits=bits,
            backend=backend,
            recover=recover,
        )
        summary = run_campaign(spec, workers=workers).summary()
        low, high = summary.detection_interval()
        rows.append(
            {
                "benchmark": name,
                "trials": summary.trials,
                "counts": summary.counts,
                "detected": summary.detected,
                "injected": summary.injected,
                "rate": summary.detection_rate,
                "ci": (low, high),
                "recovered": summary.recovered,
                "recovery_outcomes": summary.recovery_outcomes,
                "recovery_rate": summary.recovery_rate,
            }
        )
    return rows


def fault_model_coverage(
    benchmarks: list[str] | None = None,
    models: list[str] | None = None,
    trials: int = 40,
    seed: int = 0,
    workers: int = 1,
    scale: str = "small",
    bits: int = 2,
    backend: str = "compiled",
) -> list[dict]:
    """Checksum vs. replay-baseline coverage per fault model.

    One campaign per (model × benchmark) cell.  Each row reports the
    paper's checksum detection rate next to the RepTFD-style
    replay-comparison baseline (re-execute golden, diff outputs —
    recorded per trial in ``extra["replay_detected"]``), plus the mean
    detection latency of checksum hits as a fraction of the run.  The
    interesting cells are where the two detectors disagree:
    address-generation *loads* read pristine words through a corrupted
    address, so value checksums are structurally blind to them while
    output diffing is not (``docs/FAULT_MODELS.md``).
    """
    from repro.campaign import ProgramCampaignSpec, derive_seed, run_campaign
    from repro.runtime.faults import FAULT_MODELS

    rows: list[dict] = []
    for model in models or list(FAULT_MODELS):
        for name in benchmarks or list(ALL_BENCHMARKS):
            spec = ProgramCampaignSpec(
                trials=trials,
                seed=derive_seed(
                    seed, "figure10-models", model, name, scale
                ),
                benchmark=name,
                scale=scale,
                bits=bits,
                backend=backend,
                fault_model=model,
            )
            result = run_campaign(spec, workers=workers)
            summary = result.summary()
            records = result.records or []
            replay = sum(
                1 for r in records if r.extra.get("replay_detected")
            )
            fractions = [
                r.extra["detection_step"] / r.extra["total_steps"]
                for r in records
                if r.verdict == "detected"
                and r.extra.get("detection_step") is not None
                and r.extra.get("total_steps")
            ]
            rows.append(
                {
                    "model": model,
                    "benchmark": name,
                    "trials": summary.trials,
                    "injected": summary.injected,
                    "detected": summary.detected,
                    "checksum_rate": summary.detection_rate,
                    "replay_detected": replay,
                    "replay_rate": (
                        replay / summary.injected if summary.injected else 0.0
                    ),
                    "sdc": summary.counts.get("sdc", 0),
                    "benign": summary.counts.get("benign", 0),
                    "no_injection": summary.counts.get("no_injection", 0),
                    "mean_detection_frac": (
                        sum(fractions) / len(fractions) if fractions else None
                    ),
                }
            )
    return rows


def aggregate_fault_models(rows: list[dict]) -> list[dict]:
    """Collapse per-benchmark coverage rows into one row per model."""
    order: list[str] = []
    agg: dict[str, dict] = {}
    for row in rows:
        model = row["model"]
        if model not in agg:
            order.append(model)
            agg[model] = {
                "model": model,
                "trials": 0,
                "injected": 0,
                "detected": 0,
                "replay_detected": 0,
                "sdc": 0,
                "benign": 0,
                "no_injection": 0,
                "_fracs": [],
            }
        entry = agg[model]
        for key in (
            "trials",
            "injected",
            "detected",
            "replay_detected",
            "sdc",
            "benign",
            "no_injection",
        ):
            entry[key] += row[key]
        if row["mean_detection_frac"] is not None:
            entry["_fracs"].append(
                (row["mean_detection_frac"], row["detected"])
            )
    out: list[dict] = []
    for model in order:
        entry = agg[model]
        fracs = entry.pop("_fracs")
        weight = sum(n for _, n in fracs)
        entry["checksum_rate"] = (
            entry["detected"] / entry["injected"] if entry["injected"] else 0.0
        )
        entry["replay_rate"] = (
            entry["replay_detected"] / entry["injected"]
            if entry["injected"]
            else 0.0
        )
        entry["mean_detection_frac"] = (
            sum(f * n for f, n in fracs) / weight if weight else None
        )
        out.append(entry)
    return out


def format_fault_models(rows: list[dict]) -> str:
    """The coverage table: per-model aggregates, then per-benchmark."""
    aggregates = aggregate_fault_models(rows)
    header = (
        f"{'model':<14} {'injected':>8} {'checksum':>9} {'replay':>9} "
        f"{'sdc':>5} {'benign':>7} {'latency':>8}"
    )
    lines = [
        "Fault-model coverage: checksum detection vs. replay baseline",
        "",
        header,
        "-" * len(header),
    ]
    for entry in aggregates:
        latency = entry["mean_detection_frac"]
        lines.append(
            f"{entry['model']:<14} "
            f"{entry['injected']:>8} "
            f"{100 * entry['checksum_rate']:>8.1f}% "
            f"{100 * entry['replay_rate']:>8.1f}% "
            f"{entry['sdc']:>5} "
            f"{entry['benign']:>7} "
            + (f"{100 * latency:>7.1f}%" if latency is not None else
               f"{'—':>8}")
        )
    missed = [
        entry["model"]
        for entry in aggregates
        if entry["replay_rate"] - entry["checksum_rate"] > 1e-9
    ]
    if missed:
        lines.append(
            "\nchecksums miss coverage the replay baseline has on: "
            + ", ".join(missed)
        )
    lines.append("")
    per_bench = (
        f"{'model':<14} {'benchmark':<10} {'injected':>8} {'checksum':>9} "
        f"{'replay':>9} {'sdc':>5} {'benign':>7}"
    )
    lines.extend([per_bench, "-" * len(per_bench)])
    for row in rows:
        lines.append(
            f"{row['model']:<14} "
            f"{row['benchmark']:<10} "
            f"{row['injected']:>8} "
            f"{100 * row['checksum_rate']:>8.1f}% "
            f"{100 * row['replay_rate']:>8.1f}% "
            f"{row['sdc']:>5} "
            f"{row['benign']:>7}"
        )
    return "\n".join(lines)


def static_prediction(
    benchmarks: list[str] | None = None,
    models: list[str] | None = None,
    scale: str = "small",
    bits: int = 2,
) -> dict:
    """Static coverage prediction for the same (benchmark × model) grid.

    Delegates to :func:`repro.analysis.coverage.analyze_all` — no
    trials execute; the class fractions are computed on the static
    timeline (docs/STATIC_ANALYSIS.md).  The result is the
    ``ANALYSIS_coverage.json`` artifact shape and doubles as the
    ``"static"`` section of the ``--fault-models --json`` output.
    """
    from repro.analysis.coverage import analyze_all

    kwargs = {"scale": scale, "bits": bits}
    if models:
        kwargs["models"] = tuple(models)
    return analyze_all(benchmarks=benchmarks, **kwargs)


def format_static(artifact: dict) -> str:
    """The static-prediction table: class fractions per cell."""
    header = (
        f"{'benchmark':<10} {'basis':<12} {'model':<14} {'detected':>9} "
        f"{'masked':>8} {'vulner':>8} {'unknown':>8} {'no_inj':>7}"
    )
    lines = [
        "Static coverage prediction (no trials executed; "
        "docs/STATIC_ANALYSIS.md)",
        "",
        header,
        "-" * len(header),
    ]
    for name, entry in artifact["benchmarks"].items():
        for model, data in entry["models"].items():
            classes = data["classes"]
            lines.append(
                f"{name:<10} {entry['basis']:<12} {model:<14} "
                f"{100 * classes.get('detected', 0.0):>8.1f}% "
                f"{100 * classes.get('masked', 0.0):>7.1f}% "
                f"{100 * classes.get('vulnerable', 0.0):>7.1f}% "
                f"{100 * classes.get('unknown', 0.0):>7.1f}% "
                f"{100 * classes.get('no_injection', 0.0):>6.1f}%"
            )
    conservative = [
        name
        for name, entry in artifact["benchmarks"].items()
        if entry["basis"] == "conservative"
    ]
    if conservative:
        lines.append(
            "\nconservative (timeline unavailable, everything unknown): "
            + ", ".join(conservative)
        )
    return "\n".join(lines)


def format_detection(rows: list[dict], recover: bool = False) -> str:
    title = "Detection coverage (random 2-bit cell faults, resilient builds)"
    if recover:
        title += " + checkpoint/re-execution recovery"
    lines = [
        title,
        "",
        f"{'benchmark':<10} {'detected':>9} {'sdc':>5} {'benign':>7} "
        f"{'no_inj':>7} {'rate':>8} {'95% CI':>18}"
        + (f" {'recovered':>10}" if recover else ""),
        "-" * (81 if recover else 70),
    ]
    for row in rows:
        counts = row["counts"]
        low, high = row["ci"]
        line = (
            f"{row['benchmark']:<10} "
            f"{row['detected']:>9} "
            f"{counts.get('sdc', 0):>5} "
            f"{counts.get('benign', 0):>7} "
            f"{counts.get('no_injection', 0):>7} "
            f"{100 * row['rate']:>7.1f}% "
            f"[{100 * low:>5.1f}%, {100 * high:>5.1f}%]"
        )
        if recover:
            line += (
                f" {row.get('recovered', 0):>4}/"
                f"{row.get('recovery_outcomes', 0):<5}"
            )
        lines.append(line)
    if recover:
        survived = sum(row.get("recovered", 0) for row in rows)
        attempted = sum(row.get("recovery_outcomes", 0) for row in rows)
        if attempted:
            lines.append(
                f"\nrecovery: {survived}/{attempted} detected faults "
                f"survived ({100 * survived / attempted:.1f}%)"
            )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--benchmarks", nargs="+", default=None)
    parser.add_argument(
        "--scale", choices=("small", "default"), default="default"
    )
    parser.add_argument(
        "--wall", action="store_true", help="also time generated Python"
    )
    parser.add_argument(
        "--list", action="store_true", help="print Table 2 and exit"
    )
    parser.add_argument(
        "--detect",
        action="store_true",
        help="run the detection-coverage campaign instead of overheads",
    )
    parser.add_argument(
        "--recover",
        action="store_true",
        help="with --detect: run trials under the recovery controller "
        "and report survived faults",
    )
    parser.add_argument(
        "--fault-models",
        nargs="*",
        default=None,
        metavar="MODEL",
        help="run the fault-model coverage table (checksum vs. replay "
        "baseline) for the listed models, or all models when none are "
        "listed",
    )
    parser.add_argument(
        "--analyze",
        action="store_true",
        help="print the static coverage prediction table (alone: no "
        "trials execute; with --fault-models: appended after the "
        "measured table and as the JSON 'static' section)",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="with --fault-models or --analyze: also write the rows "
        "as a JSON artifact",
    )
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument(
        "--backend",
        choices=("interp", "compiled"),
        default="compiled",
        help="execution backend (bit-identical counts; compiled is faster)",
    )
    args = parser.parse_args(argv)
    if args.list:
        print(format_table2())
        return
    if args.fault_models is not None:
        rows = fault_model_coverage(
            args.benchmarks,
            models=args.fault_models or None,
            trials=args.trials,
            seed=args.seed,
            workers=args.workers,
            scale=args.scale,
            backend=args.backend,
        )
        print(format_fault_models(rows))
        static = None
        if args.analyze:
            static = static_prediction(
                args.benchmarks,
                models=args.fault_models or None,
                scale=args.scale,
            )
            print()
            print(format_static(static))
        if args.json:
            import json

            payload = {
                "rows": rows,
                "models": aggregate_fault_models(rows),
            }
            if static is not None:
                payload["static"] = static
            with open(args.json, "w") as handle:
                json.dump(payload, handle, indent=2)
            print(f"\nwrote {args.json}")
        return
    if args.analyze:
        static = static_prediction(args.benchmarks, scale=args.scale)
        print(format_static(static))
        if args.json:
            import json

            with open(args.json, "w") as handle:
                json.dump({"static": static}, handle, indent=2)
            print(f"\nwrote {args.json}")
        return
    if args.json:
        parser.error("--json needs --fault-models or --analyze")
    if args.detect:
        rows = detection_coverage(
            args.benchmarks,
            trials=args.trials,
            seed=args.seed,
            workers=args.workers,
            scale=args.scale,
            backend=args.backend,
            recover=args.recover,
        )
        print(format_detection(rows, recover=args.recover))
        return
    if args.recover:
        parser.error("--recover needs --detect")
    rows = run_figure10(
        args.benchmarks, args.scale, args.wall, backend=args.backend
    )
    print(
        format_overheads(
            rows,
            "Figure 10: normalized running time (cost model; original = 1.0)",
            paper_geomeans=PAPER_GEOMEANS,
            show_wall=args.wall,
        )
    )
    if args.wall:
        stats = wall_build_cache_stats()
        print(
            f"wall-build cache: hits={stats['hits']} "
            f"misses={stats['misses']} size={stats['size']}"
        )


def format_table2() -> str:
    """Table 2: the benchmark inventory."""
    lines = [
        "Table 2: Benchmarks",
        "",
        f"{'benchmark':<10} {'description':<46} {'paper size':<28} {'repro size'}",
        "-" * 110,
    ]
    for name, module in ALL_BENCHMARKS.items():
        paper = ", ".join(f"{k}={v}" for k, v in module.PAPER_PROBLEM_SIZE.items())
        ours = ", ".join(f"{k}={v}" for k, v in module.DEFAULT_PARAMS.items())
        lines.append(
            f"{name:<10} {module.DESCRIPTION:<46} {paper:<28} {ours}"
        )
    return "\n".join(lines)


if __name__ == "__main__":
    main()
