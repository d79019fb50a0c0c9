"""Campaign benchmark: Table 1, the fault-model matrix and recovery.

    python3 perfbench/run.py --workload {table1,fault-matrix,recover,all}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each *pass* runs a whole workload in
a fresh process (``child.py pass``), so every cache starts cold; the
passes run back to back (a closed loop) for about ``--seconds``
seconds, at least two, and reports medians over them.  The records of
every pass must equal the first pass's, and a sample of the first
pass's records is checked against an independent reference
(``child.py check``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
untraced pass (and a serial one where the workload uses workers) and
two serial traced passes, and prints the per-layer metrics and the
waterfall of layer self times.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``; the exit code is 1 when ``correct`` is false.  See
``perfbench/METRICS.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from spans import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("table1", "fault-matrix", "recover")

MIN_PASSES = 2
MARGIN_S = 140
"""Every child of one workload run must have ended ``--seconds`` plus
this many seconds after the run started (the last pass, the traced
passes and the check)."""

END_TO_END = (
    ("wall_s", "s"),
    ("trials_per_s", "trials/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("checksum_op_overhead", "ratio"),
)

PER_LAYER_UNITS = {
    "instrument.calls": "count",
    "instrument.busy_s": "s",
    "service.store.golden.hit_ratio": "ratio",
    "service.store.kernel.hit_ratio": "ratio",
    "service.store.instrument.hit_ratio": "ratio",
    "isl.memo_hit_ratio": "ratio",
    "runtime.compile.calls": "count",
    "runtime.compile.busy_s": "s",
    "runtime.compile.fallbacks": "count",
    "runtime.golden.busy_s": "s",
    "runtime.injector_free_share": "ratio",
    "runtime.vector.probes": "count",
    "runtime.vector.engaged_keys": "count",
    "runtime.vector.scalar_keys": "count",
    "runtime.trial_exec_ms.p50": "ms",
    "runtime.trial_exec_ms.p99": "ms",
    "runtime.loads_per_trial": "count",
    "runtime.ns_per_load": "ns",
    "campaign.run_trial_self_ms.p50": "ms",
    "campaign.checksum_trial_us.p50": "us",
    "campaign.records.write_us_per_record": "us",
    "campaign.records.read_us_per_record": "us",
    "campaign.records.bytes_per_record": "bytes",
    "campaign.engine.overhead_us_per_trial": "us",
    "campaign.engine.worker_busy_ratio": "ratio",
    "recovery.plan_busy_s": "s",
    "recovery.run_plan_ms.p50": "ms",
    "recovery.run_plan_ms.p99": "ms",
    "recovery.replays_per_trial": "count",
    "recovery.targeted_restores_per_trial": "count",
    "recovery.full_restores_per_trial": "count",
    "trace.unattributed_share": "ratio",
    "trace.overhead": "ratio",
}
for _layer in LAYERS:
    PER_LAYER_UNITS[f"self_s.{_layer}"] = "s"

#: Counts that must repeat exactly between two computations in a run.
EXACT_COUNTS = ("runtime.loads_per_trial", "campaign.records.bytes_per_record")


class BenchmarkError(RuntimeError):
    """The benchmark could not run (no program, a pass crashed)."""


class Runner:
    """Runs the child processes of one workload and collects results."""

    def __init__(
        self, workload: str, seed: int, workdir: str, seconds: float
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.count = 0
        self.deadline = time.monotonic() + seconds + MARGIN_S
        self.live: list[subprocess.Popen] = []

    def _start(self, command: str, logs: str, *extra: str):
        """Start one child process; returns (process, result path)."""
        self.count += 1
        out = os.path.join(self.workdir, f"{command}-{self.count}.json")
        env = {
            key: value
            for key, value in os.environ.items()
            if key not in ("REPRO_ARTIFACT_STORE", "REPRO_INSTRUMENT_CACHE")
        }
        argv = [
            sys.executable,
            os.path.join(HERE, "child.py"),
            command,
            "--workload",
            self.workload,
            "--seed",
            str(self.seed),
            "--workdir",
            logs,
            "--out",
            out,
            *extra,
        ]
        # Its own process group, so that close() also stops pool workers.
        process = subprocess.Popen(argv, cwd=ROOT, env=env, start_new_session=True)
        self.live.append(process)
        return process, out

    def _finish(self, process, out: str) -> dict:
        try:
            code = process.wait(timeout=max(0.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchmarkError(f"{process.args[2]} ran past the time limit") from None
        self.live.remove(process)
        if code != 0:
            raise BenchmarkError(f"{process.args[2]} exited with code {code}")
        with open(out) as handle:
            return json.load(handle)

    def run_pass(self, keep_logs: bool, *extra: str) -> dict:
        logs = os.path.join(self.workdir, f"logs-{self.count + 1}")
        result = self._finish(*self._start("pass", logs, *extra))
        result["logs"] = logs
        if not keep_logs:
            shutil.rmtree(logs, ignore_errors=True)
        return result

    def check(self, logs: str) -> dict:
        """The two halves of the check side by side (nothing is timed
        while they run); each also computes the op-count ratio."""
        started = [
            self._start("check", logs, "--part", part) for part in ("0", "1")
        ]
        results = [self._finish(*child) for child in started]
        return {
            "checked": sum(r["checked"] for r in results),
            "problems": [p for r in results for p in r["problems"]],
            "op_overhead": [r["op_overhead"] for r in results],
        }


    def close(self) -> None:
        """Stop every child still running, with its workers."""
        for process in self.live:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait()
        self.live.clear()


def _timed_passes(runner: Runner, seconds: float) -> list[dict]:
    """Passes back to back until about ``seconds`` have passed: another
    pass starts only if it would be at least half done by then."""
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(runner.run_pass(keep_logs=not passes))
        elapsed = time.perf_counter() - started
        estimate = elapsed / len(passes)
        if len(passes) >= MIN_PASSES and elapsed + estimate / 2 > seconds:
            return passes


def _verdict(passes: list[dict], check: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every pass and the check.

    A pass's campaign whose records differ from the first pass's counts
    all its trials as failed, as does a campaign that raised; each
    reference mismatch is one failed trial.
    """
    problems: list[str] = list(check["problems"])
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes) + len(check["problems"])
    for p in passes:
        problems += p["errors"]
    reference = passes[0]["digests"]
    trials = passes[0]["attempted"] // max(1, len(reference))
    for number, p in enumerate(passes[1:], start=2):
        for position, (digest, first) in enumerate(zip(p["digests"], reference)):
            if digest is not None and first is not None and digest != first:
                failed += trials
                problems.append(
                    f"pass {number}: campaign {position} records differ "
                    "from pass 1 (nondeterministic)"
                )
    for number, p in enumerate(passes, start=1):
        if any(p["cold_hits"].values()) or p["disk_hits"]:
            problems.append(
                f"pass {number} did not start cold: first-campaign hits "
                f"{p['cold_hits']}, disk hits {p['disk_hits']}"
            )
    first, second = check["op_overhead"]
    if first != second:
        problems.append(f"checksum_op_overhead drifts: {first} != {second}")
    return attempted, failed, problems


def _median(passes: list[dict], key) -> float:
    return statistics.median(key(p) for p in passes)


def end_to_end(passes: list[dict], check: dict) -> dict:
    return {
        "wall_s": _median(passes, lambda p: p["wall_s"]),
        "trials_per_s": _median(
            passes, lambda p: p["completed"] / (p["wall_s"] - p["setup_s"])
        ),
        "setup_s": _median(passes, lambda p: p["setup_s"]),
        "peak_rss_mb": _median(passes, lambda p: p["peak_rss_mb"]),
        "checksum_op_overhead": check["op_overhead"][0],
    }


def _hit_ratio(store: dict, names) -> float:
    hits = sum(store.get(name, {}).get("hits", 0) for name in names)
    misses = sum(store.get(name, {}).get("misses", 0) for name in names)
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer(untraced: dict, serial: dict, traced: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics: medians over the traced passes, dispatch from
    the untraced pass at the workload's worker count."""
    problems = []
    for t in traced:
        t["layers"]["campaign.records.bytes_per_record"] = (
            t["record_bytes"] / t["record_count"] if t["record_count"] else 0.0
        )
    metrics = {
        name: statistics.median(t["layers"][name] for t in traced)
        for name in traced[0]["layers"]
    }
    for name in EXACT_COUNTS:
        values = [t["layers"][name] for t in traced]
        if len(set(values)) != 1:
            problems.append(f"{name} drifts between traced passes: {values}")
        metrics[name] = values[0]
    store = traced[0]["store"]
    for name in ("golden", "kernel", "instrument"):
        metrics[f"service.store.{name}.hit_ratio"] = _hit_ratio(store, (name,))
    metrics["isl.memo_hit_ratio"] = _hit_ratio(
        store, ("isl_empty", "isl_fm", "isl_count")
    )
    vector = traced[0]["vector"]
    metrics["runtime.vector.probes"] = vector.get("probes", 0)
    metrics["runtime.vector.engaged_keys"] = vector.get("engaged_keys", 0)
    metrics["runtime.vector.scalar_keys"] = vector.get("scalar_keys", 0)
    recovered = traced[0]["recovery_trials"]
    for key in ("replays", "targeted_restores", "full_restores"):
        metrics[f"recovery.{key}_per_trial"] = (
            traced[0]["recovery"][key] / recovered if recovered else 0.0
        )
    metrics["campaign.engine.worker_busy_ratio"] = untraced["trial_busy_s"] / (
        untraced["workers"] * untraced["trial_phase_s"]
    )
    metrics["trace.overhead"] = (
        statistics.median(t["wall_s"] for t in traced) / serial["wall_s"]
    )
    return metrics, problems


def _format_value(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_waterfall(workload: str, metrics: dict, wall_s: float) -> None:
    print(f"waterfall {workload}: layer self time over traced wall {wall_s:.3f} s")
    rows = sorted(
        ((metrics[f"self_s.{layer}"], layer) for layer in LAYERS), reverse=True
    )
    rows.append((metrics["trace.unattributed_share"] * wall_s, "(unattributed)"))
    for seconds, layer in rows:
        share = seconds / wall_s if wall_s else 0.0
        bar = "#" * round(40 * max(0.0, share))
        print(f"  {layer:26s} {seconds:9.4f} s {100 * share:6.2f}%  {bar}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; print its metrics; return the result object."""
    workdir = os.path.join(WORK_ROOT, f"{workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    runner = Runner(workload, seed, workdir, seconds)
    try:
        if trace:
            untraced = serial = runner.run_pass(True)
            passes = [untraced]
            if untraced["workers"] > 1:
                serial = runner.run_pass(False, "--workers", "1")
                passes.append(serial)
            traced = [
                runner.run_pass(False, "--trace", "--workers", "1")
                for _ in range(2)
            ]
            passes += traced
        else:
            passes = _timed_passes(runner, seconds)
        check = runner.check(passes[0]["logs"])
    finally:
        runner.close()
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed, problems = _verdict(passes, check)
    if trace:
        metrics, drift = per_layer(untraced, serial, traced)
        problems += drift
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(passes, check)
        units = dict(END_TO_END)
    print(
        f"workload {workload} seed {seed}: {len(passes)} passes, "
        f"{attempted} trials attempted, {check['checked']} records "
        "checked against the reference"
    )
    walls = " ".join(f"{p['wall_s']:.3f}" for p in passes)
    print(f"  wall_s of each pass: {walls}")
    for name in units:
        print(f"  {name:40s} {_format_value(metrics[name]):>14s} {units[name]}")
    print(f"  {'error_rate':40s} {_format_value(failed / attempted):>14s} fraction")
    if trace:
        print_waterfall(
            workload, metrics, statistics.median(t["wall_s"] for t in traced)
        )
    for problem in problems:
        print(f"  FAILED: {problem}")
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Let a SIGTERM unwind through the cleanup that stops the children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to measure: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {
            name: run_workload(name, args.seed, args.seconds, bool(args.trace))
            for name in names
        }
    except BenchmarkError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    finally:
        if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)
    if len(results) == 1:
        summary = next(iter(results.values()))
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, result in results.items()
                for metric, value in result["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
