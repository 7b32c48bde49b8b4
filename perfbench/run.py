"""Host wall-clock benchmark for the scan reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload cluster_mixed --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation; a
fixed probe timed between requests states them at a reference host speed
(see NOTES.md, "Host speed").
``--trace 1`` runs one uninstrumented pass, then traced passes that wrap
each layer's public entry points (see ``layers.py``), then one pass that
counts ``Operator.combine`` calls, and reports the per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program under test is imported from ``<root>/src`` and nowhere else;
the benchmark exits non-zero without a result if that import fails or
resolves elsewhere.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "_out"

#: Single-threaded numpy; the benchmark process uses at most two threads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
#: Program switches no workload may inherit from the caller's environment;
#: the workloads set what they need themselves.
PROGRAM_VARS = ("REPRO_OBS", "REPRO_FLIGHT_DIR", "REPRO_CACHE_DIR")

#: Passes per run at least, so ``setup_s`` is a median of several set-ups
#: and every request has several repetitions to take the median of.
MIN_PASSES = 3
#: A run stops starting passes after this many seconds, whatever it lacks.
HARD_STOP_S = 120.0
#: The speed probe's duration on a quiet host, in seconds: timings are
#: reported as if the host ran at this speed throughout.
PROBE_REF_S = 0.35e-3
#: A timed span is scaled by the median probe within this many seconds of
#: it, and by at least MIN_PROBES probes nearest to it.
PROBE_WINDOW_S = 0.25
MIN_PROBES = 5


class SetupError(RuntimeError):
    """The benchmark cannot run here (wrong import, missing sources)."""


def pin_environment() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    for var in PROGRAM_VARS:
        os.environ.pop(var, None)


def import_program():
    """Import ``repro`` from ``<root>/src``; raise SetupError otherwise."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SetupError(f"repro imported from {origin}, not from {SRC}")
    return repro


def environment() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cpu": cpu, "nproc": os.cpu_count()}


def percentile(values, pct: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), pct))


def rss_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def signature(p) -> tuple:
    """Everything about a pass that must repeat exactly for one seed."""
    return (tuple(sorted(p.counters.items())), p.sim_total_s,
            tuple(p.sim_latencies), tuple(sorted(p.categories.items())),
            p.unprofiled, p.attempted, p.failed)


def probed_pass(workload):
    """One untraced pass with the host-speed probe ticking between requests."""
    from workloads import SpeedProbe

    return workload.run_pass(probe=SpeedProbe())


def run_passes(workload, seconds: float, tracer=None, on_pass=None,
               min_passes=MIN_PASSES) -> list:
    """Passes until ``seconds`` have elapsed and at least ``min_passes``."""
    passes = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
            passes.append(workload.run_pass(tracer))
        else:
            passes.append(probed_pass(workload))
        if on_pass is not None:
            on_pass(passes[-1])
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(passes) >= min_passes
                or elapsed >= HARD_STOP_S):
            return passes


class HostSpeed:
    """How fast the host ran around a moment of one pass, from its probes."""

    def __init__(self, probes):
        import numpy as np

        if not probes:
            raise ValueError("pass ran no speed probes")
        self.at = np.array([t for t, _ in probes])
        self.took = np.array([d for _, d in probes])
        self._memo: dict = {}

    def scale(self, start: float, seconds: float) -> float:
        """Factor that turns host seconds spent from ``start`` into seconds
        at the reference speed (below 1 while the host ran slow)."""
        import numpy as np

        lo = int(np.searchsorted(self.at, start - PROBE_WINDOW_S))
        hi = int(np.searchsorted(self.at, start + seconds + PROBE_WINDOW_S))
        if hi - lo < MIN_PROBES:
            mid = int(np.searchsorted(self.at, start + seconds / 2))
            lo = max(0, min(lo, mid - MIN_PROBES // 2))
            hi = min(len(self.at), max(hi, lo + MIN_PROBES))
        if (lo, hi) not in self._memo:
            self._memo[lo, hi] = PROBE_REF_S / float(np.median(self.took[lo:hi]))
        return self._memo[lo, hi]


def at_reference_speed(p):
    """(request walls, other program time, set-up) of one pass, each timed
    span scaled by the host speed the probes measured around it."""
    import numpy as np

    speed = HostSpeed(p.probes)
    walls = np.array([w * speed.scale(t, w)
                      for t, w in zip(p.starts, p.walls)])
    extra = sum(d * speed.scale(t, d) for t, d in p.extra)
    return walls, extra, p.setup_s * speed.scale(p.setup_at, p.setup_s)


def end_to_end(workload, passes) -> tuple[dict, dict]:
    """(gated metrics, report-only extras) over every pass of a run.

    Neighbours on a shared host slow it down for seconds to minutes at a
    time, so every timed span is first stated at the reference host speed
    (``at_reference_speed``). Every pass repeats the same requests; each
    request is then represented by the median of its repetitions (requests
    a workload declares alike share theirs). Throughput is a pass's
    completed requests over the sum of those walls plus the median time a
    pass spent in other program calls of its timed region
    (``cluster_mixed``: the replica failure and the final drain).
    ``setup_s`` is the median set-up over the passes.
    """
    import numpy as np

    scaled = [at_reference_speed(p) for p in passes]
    walls = np.array([w for w, _, _ in scaled])
    typical = np.median(walls, axis=0)
    alike = np.asarray(workload.alike)
    for key in np.unique(alike):
        typical[alike == key] = np.median(walls[:, alike == key])
    extra = percentile([e for _, e, _ in scaled], 50)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = {
        "req_per_s": ((passes[0].attempted - passes[0].failed)
                      / (float(typical.sum()) + extra)),
        "wall_p50_ms": percentile(typical, 50) * 1e3,
        "wall_tail_ms": percentile(typical, workload.tail_pct) * 1e3,
        "setup_s": percentile([s for _, _, s in scaled], 50),
        "rss_peak_mb": rss_peak_mb(),
    }
    raw = np.median([p.walls for p in passes], axis=0)
    extras = {
        "unscaled_wall_p50_ms": percentile(raw, 50) * 1e3,
        "host_speed_median": PROBE_REF_S / percentile(
            [d for p in passes for _, d in p.probes], 50),
        "requests_per_pass": len(typical),
        "passes": len(passes),
        "tail_pct": workload.tail_pct,
        "error_rate": failed / attempted,
        "sim_total_ms": passes[0].sim_total_s * 1e3,
        "sim_p99_us": percentile(passes[0].sim_latencies, 99) * 1e6,
    }
    if workload.functional:
        extras["wall_vs_numpy"] = (min(p.program_s for p in passes)
                                   / min(p.numpy_s for p in passes))
    return metrics, extras


def traced(workload, seconds: float):
    """One plain pass, traced passes, then one pass that counts
    ``Operator.combine``; per-layer metrics and checks."""
    import layers

    plain = workload.run_pass()
    tracer = layers.Tracer()
    timings, counts, problems = [], [], []

    def collect(_pass) -> None:
        share = tracer.harness_share()
        if share > layers.HARNESS_MAX_SHARE:
            problems.append(f"benchmark code took {share:.3f} of the traced "
                            f"wall (limit {layers.HARNESS_MAX_SHARE}): a "
                            f"program call in a traced segment is unwrapped")
        timings.append(layers.timing_metrics(tracer))
        counts.append(layers.count_metrics(tracer))

    saved = layers.install(tracer)
    try:
        passes = run_passes(workload, seconds - plain.setup_s - plain.timed_s,
                            tracer=tracer, on_pass=collect,
                            min_passes=1)
    finally:
        layers.uninstall(saved)
    combine_calls, counted = layers.count_combine_calls(workload.run_pass)
    passes.append(counted)
    if any(c != counts[0] for c in counts):
        problems.append("traced call counts differ between passes")
    tracer.write_spans(
        OUT_DIR / f"spans-{workload.name}.json",
        {"workload": workload.name, "seed": workload.seed})

    metrics = {key: percentile([t[key] for t in timings], 50)
               for key in timings[0]}
    metrics.update(counts[0])
    metrics["operators.combine_calls"] = combine_calls
    for key, value in plain.counters.items():
        metrics[key] = value
    metrics.update(plain.shares())
    metrics["sim.unprofiled_traces"] = plain.unprofiled
    metrics["sim_total_ms"] = plain.sim_total_s * 1e3
    metrics["sim_p99_us"] = percentile(plain.sim_latencies, 99) * 1e6
    metrics["trace.overhead_ratio"] = (
        metrics.pop("traced_wall_ms") / ((plain.setup_s + plain.timed_s) * 1e3))
    return metrics, [plain] + passes, problems


def metric_units(kind: str) -> dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_environment()
    try:
        import_program()
    except (SetupError, ImportError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work_dir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, work_dir)
    try:
        workload.warm_process()
        if args.trace:
            measured, passes, problems = traced(workload, args.seconds)
            units = metric_units("per_layer")
            report = {n: measured[n] for n in sorted(measured)}
        else:
            passes = run_passes(workload, args.seconds)
            measured, extras = end_to_end(workload, passes)
            units, problems = metric_units("end_to_end"), []
            report = {**measured, **extras}
        metrics = {n: {"value": float(measured.get(n, 0.0)), "unit": u}
                   for n, u in units.items()}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if any(signature(p) != signature(passes[0]) for p in passes):
        problems.append("passes of one seed diverged (counters, simulated "
                        "times or outputs)")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"workload {workload.name}: {workload.why}")
    print("environment " + json.dumps(environment()))
    for key, value in report.items():
        print(f"  {key:<32} {value:>16.6g} {units.get(key, '')}")
    for problem in problems:
        print(f"  NOT CORRECT: {problem}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
