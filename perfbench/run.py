#!/usr/bin/env python3
"""secrelay benchmark: time the jobs users run, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root; the package is imported from ``src/``.  One
run times one workload (see ``workloads.py``) in a closed loop, one job
after another in this process, until the jobs have taken ``--seconds``
seconds, stopping only between rounds so each run times the same mix.
Every job is checked after its timer stops.

Times are reported at reference speed (see ``refspeed.py``): each job's
wall time is scaled by how long the workload's calibration loop, run after
every job, took around it, because the shared machines this runs on drift
in speed by up to 2x.  The wall-clock figures are printed on the line before
the result.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
workload untraced for half the time and then traced for half (see
``spans.py``), and prints the per-layer metrics, including the tracing
overhead (1 - traced/untraced cells per second); one more, untimed round
counts the distribution-function calls per quadrature call.

Output: one JSON line with the environment, then, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` where every
metric is ``{"value", "unit"}``.  ``failed / attempted`` is the share of jobs
that raised or failed their check.  ``--smoke`` runs every workload at a
tiny size in both modes and checks that each metric BENCHMARK.json names is
printed with its unit and that no job failed; it never judges timings.
"""

from __future__ import annotations

import argparse
import glob
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

import refspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
SETUP_SPEED = "interpreter"  # importing is interpreter work
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "cells_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}


@dataclass
class Phase:
    """One measured stretch of jobs.  Per attempted job: its wall time, the
    workload's calibration loop timed right after it, and its cells (0 if it
    failed)."""

    speed: str  # the refspeed loop
    job_s: list = field(default_factory=list)
    loop_s: list = field(default_factory=list)
    cells: list = field(default_factory=list)
    failed: int = 0
    round_starts: list = field(default_factory=list)  # index of each round's first job
    setup: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.job_s)

    def ref_job_s(self) -> list:
        return refspeed.scale(self.speed, self.job_s, self.loop_s)

    def cells_per_s(self, times=None) -> float:
        """Median over rounds of cells per second of job time (``times``, by
        default at reference speed).  Every round is the same mix of jobs,
        and the median keeps a stall of a few seconds from moving the figure."""
        times = self.ref_job_s() if times is None else times
        bounds = zip(self.round_starts, self.round_starts[1:] + [len(times)])
        return statistics.median(sum(self.cells[a:b]) / sum(times[a:b]) for a, b in bounds)

    def latencies_ms(self) -> list:
        """Reference-speed latencies of the jobs that passed."""
        return [t * 1e3 for t, n in zip(self.ref_job_s(), self.cells) if n]

    def setup_s(self, key) -> float:
        ref = refspeed.LOOPS[SETUP_SPEED][1]
        return statistics.median(key(s) * ref / s["loop_s"] for s in self.setup)


def _run_job(job, tracer):
    """Time one job, then check it: (seconds, cells, error or None)."""
    t0 = perf_counter_ns()
    try:
        out = tracer.root(job.run) if tracer else job.run()
    except Exception:
        return (perf_counter_ns() - t0) / 1e9, 0, f"{job.key} raised:\n{traceback.format_exc()}"
    dt = (perf_counter_ns() - t0) / 1e9
    try:
        cells, error = job.check(out)
    except Exception:
        return dt, 0, f"checking {job.key} raised:\n{traceback.format_exc()}"
    return dt, cells, error


def measure(workload, rounds, seconds: float, tiny: bool, tracer=None, probes: int = 0) -> Phase:
    """Run whole rounds of jobs until their wall times add up to ``seconds``.

    Between rounds, ``probes`` set-up samples are taken at even steps of the
    timed total, so set-up sees the same machine as the jobs do.
    """
    phase = Phase(workload.speed)
    timed = 0.0
    while True:
        while len(phase.setup) < probes and timed >= len(phase.setup) * seconds / probes:
            phase.setup.append(setup_sample(workload.name, tiny))
        if timed >= seconds and phase.attempted:
            return phase
        phase.round_starts.append(phase.attempted)
        for job in next(rounds):
            dt, cells, error = _run_job(job, tracer)
            timed += dt
            phase.job_s.append(dt)
            phase.loop_s.append(refspeed.loop_s(workload.speed))
            if error:
                cells = 0
                phase.failed += 1
                print(f"perfbench: job failed: {error}", file=sys.stderr)
            phase.cells.append(cells)


def setup_sample(workload: str, tiny: bool) -> dict:
    """Import ``secrelay.cli`` and make the workload's first call in a fresh
    interpreter: {"import_s", "first_call_s", "loop_s"}, the last the mean
    time of the set-up calibration loop just before and after."""
    before = refspeed.loop_s(SETUP_SPEED)
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(ROOT), workload, "1" if tiny else "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    sample["loop_s"] = (before + refspeed.loop_s(SETUP_SPEED)) / 2
    return sample


def _read(path: str):
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment() -> dict:
    from secrelay import kernels, oracles
    from secrelay.fading import DRAWS_PER_TRIAL

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind, size = (_read(f"{index}/{f}") for f in ("level", "type", "size"))
        if level in ("2", "3") and kind == "Unified":
            caches[f"L{level}"] = size
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "numba": version("numba"),
        "mc_backend": kernels.active_backend(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor() or None,
        "cache_l2": caches.get("L2"),
        "cache_l3": caches.get("L3"),
        "mc_chunk_bytes_computed": oracles.CHUNK_TRIALS * DRAWS_PER_TRIAL * 8,
    }


def _p90(values):
    if len(values) < 2:
        return max(values, default=0.0)
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    import spans
    import workloads

    workload = workloads.WORKLOADS[name]
    workload.warmup(tiny).run()
    rounds = workload.rounds(seed, tiny)
    print(json.dumps({"env": environment(), "workload": name, "why": workload.why, "seed": seed}),
          flush=True)
    probes = 1 if tiny else SETUP_REPEATS

    if not trace:
        phase = measure(workload, rounds, seconds, tiny, probes=probes)
        latencies = phase.latencies_ms()
        values = {
            "setup_s": phase.setup_s(lambda s: s["import_s"] + s["first_call_s"]),
            "cells_per_s": phase.cells_per_s(),
            "job_p50_ms": statistics.median(latencies) if latencies else 0.0,
            "job_p90_ms": _p90(latencies),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        raw = [t * 1e3 for t, n in zip(phase.job_s, phase.cells) if n]
        print(json.dumps({"wall_clock": {
            "setup_s": statistics.median(s["import_s"] + s["first_call_s"] for s in phase.setup),
            "cells_per_s": phase.cells_per_s(phase.job_s),
            "job_p50_ms": statistics.median(raw) if raw else 0.0,
            "job_p90_ms": _p90(raw),
            "calibration_loop_ms": statistics.median(phase.loop_s) * 1e3,
        }}), flush=True)
        phases, consistent = [phase], True
        units = END_TO_END_UNITS
    else:
        untraced = measure(workload, rounds, seconds / 2, tiny, probes=probes)
        tracer = spans.Tracer()
        with tracer.installed():
            traced = measure(workload, rounds, seconds / 2, tiny, tracer)
        values = tracer.layer_metrics(traced.attempted, round(sum(traced.job_s) * 1e9))
        values["trace.untraced_cells_per_s"] = untraced.cells_per_s()
        values["trace.traced_cells_per_s"] = traced.cells_per_s()
        values["trace.overhead_frac"] = (
            1.0 - traced.cells_per_s() / untraced.cells_per_s() if untraced.cells_per_s() else 0.0
        )
        values["trace.calibration_loop_ms"] = statistics.median(traced.loop_s) * 1e3
        values["kernels.bytes_per_trial_computed"] = tracer.kernel_bytes_per_trial()
        counter = spans.Tracer(count_dist_calls=True)
        with counter.installed():
            counted = measure(workload, rounds, 0.0, tiny, counter)  # one round
        values["fading.dist_calls_per_quad_call"] = counter.dist_calls_per_quad_call()
        values["cli.import_ms"] = untraced.setup_s(lambda s: s["import_s"]) * 1e3
        phases = [untraced, traced, counted]
        # Self times must add up to the traced wall time of the jobs.
        consistent = tracer.depth == 0 and 0.0 <= values["trace.unattributed_frac"] < 0.01
        if not consistent:
            print("perfbench: span self times do not add up to the traced wall time",
                  file=sys.stderr)
        print(
            f"perfbench: {name} traced wall split: MC {values['split.mc_share']:.1%}, "
            f"quadrature {values['split.quad_share']:.1%}, "
            f"closed form {values['split.closed_form_share']:.1%}, "
            f"tracing overhead {values['trace.overhead_frac']:.1%}",
            file=sys.stderr,
        )
        units = spans.UNITS

    if set(values) != set(units):
        raise RuntimeError(f"metrics without a unit or value: {sorted(set(values) ^ set(units))}")
    print(f"perfbench: set-up samples {phases[0].setup}", file=sys.stderr)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    return {
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": unit} for k, unit in units.items()},
    }


def smoke() -> int:
    """Every workload, tiny, both modes: metrics named with units, no failure."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        1: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in declared["workloads"]):
        for trace in (0, 1):
            tag = f"{workload} --trace {trace}"
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
                 "--seconds", "0", "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{tag}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(lines[-1])
            metrics = result["metrics"]
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{tag}: correct={result['correct']} failed={result['failed']} "
                                f"attempted={result['attempted']}\n{proc.stderr}")
            if set(metrics) != set(wanted[trace]):
                problems.append(f"{tag}: metric names differ from BENCHMARK.json: "
                                f"{sorted(set(metrics) ^ set(wanted[trace]))}")
            for metric, unit in wanted[trace].items():
                got = metrics.get(metric, {})
                if got.get("unit") != unit or not math.isfinite(got.get("value", math.nan)):
                    problems.append(f"{tag}: {metric} printed as {got}, declared unit {unit}")
            print(f"{tag}: attempted={result['attempted']} "
                  f"failed_frac={result['failed'] / max(result['attempted'], 1):g} "
                  f"metrics={len(metrics)}", flush=True)
            if trace == 0:
                for metric, got in metrics.items():
                    print(f"    {metric} = {got['value']:.6g} {got['unit']}")
    for p in problems:
        print(f"perfbench smoke: {p}", file=sys.stderr)
    print(json.dumps({"smoke": "fail" if problems else "pass", "problems": len(problems)}))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke size: small MC, few jobs, one set-up probe")
    ap.add_argument("--smoke", action="store_true", help="check every workload at tiny size")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "secrelay" / "__init__.py").is_file():
        print(f"perfbench: no secrelay package under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.smoke:
        return smoke()

    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
