"""The adaptive-vs-static A/B replay: one driver for bench suite and CLI.

The ``adaptive`` bench suite (:mod:`repro.bench.suites`) proves the
controllers earn their keep and ``repro bench check`` replays it as a
drift gate; ``repro control`` demos the same comparison interactively.
Both call :func:`run_ab` with one parameter dict (recorded verbatim as
``BENCH_adaptive.json``'s params), so there is exactly one definition of
the experiment:

- a **bursty** Poisson workload (calm base-rate traffic with periodic
  high-rate bursts) plus a mid-run device loss, replayed through a
  statically configured :class:`~repro.serve.service.ScanService` and
  through an identical service wearing the full
  :func:`~repro.control.controllers.adaptive_controller` stack;
- a **steady** workload at the base rate, same two arms — the guard
  that adaptation costs nothing when there is nothing to adapt to.

Every run is repeated and the repeat must be bit-identical (ticket
latencies, batch shapes and the decision log), which is the tentpole's
determinism contract made executable.
"""

from __future__ import annotations

import hashlib
import json

from repro.control.controllers import (
    CalibrationControllerConfig,
    ServiceControllerConfig,
    TuneControllerConfig,
    adaptive_controller,
)

__all__ = ["DEFAULT_AB_PARAMS", "run_ab", "run_arm"]


#: The committed experiment. Everything :func:`run_ab` needs, JSON-pure,
#: so the bench baseline can embed it and the drift gate can replay it.
DEFAULT_AB_PARAMS: dict = {
    "requests": 256,
    "size_log2": 12,
    "seed": 13,
    "base_rate": 2e3,
    "burst_rate": 1e6,
    "burst_every": 64,
    "burst_len": 48,
    "fault_at_call": 200,
    "fault_gpu": 0,
    "slo_class": "standard",
    "static": {"max_batch": 4, "max_wait_s": 2e-4},
    # Batch time at N=4k is near-constant up to G~32 (fixed overheads
    # dominate), so the adaptive win is executor backlog: growing
    # max_batch under burst cuts batches ~8x for the same wait ceiling.
    # max_wait is deliberately never raised above the static value —
    # widening the deadline only adds tail latency at these sizes.
    "controller": {
        "high_rate": 1e5,
        "low_rate": 1e4,
        "batch_step": 2,
        "wait_step": 2.0,
        "batch_ceiling": 32,
        "wait_ceiling_s": 2e-4,
        "cooldown_s": 5e-6,
        "window": 8,
        "min_samples": 4,
        "burn_hot": 10.0,
    },
}


def _build_service(params: dict, adaptive: bool, faults: bool):
    from repro.core.session import ScanSession
    from repro.gpusim.faults import DeviceDown, FaultSchedule
    from repro.interconnect.topology import tsubame_kfc
    from repro.obs.slo import slo_class

    topology = tsubame_kfc(1)
    if faults:
        topology.install_faults(FaultSchedule([
            DeviceDown(at_call=int(params["fault_at_call"]),
                       gpu_id=int(params["fault_gpu"])),
        ]))
    controller = None
    if adaptive:
        controller = adaptive_controller(
            ServiceControllerConfig(**params["controller"]),
            TuneControllerConfig(),
            CalibrationControllerConfig(),
        )
    session = ScanSession(topology)
    return session.service(
        max_batch=int(params["static"]["max_batch"]),
        max_wait_s=float(params["static"]["max_wait_s"]),
        serialize_exec=True,
        slo=slo_class(params["slo_class"]),
        controller=controller,
    )


def _workload(params: dict, bursty: bool):
    from repro.serve.replay import bursty_workload, poisson_workload

    if bursty:
        return bursty_workload(
            int(params["requests"]),
            sizes_log2=(int(params["size_log2"]),),
            base_rate=float(params["base_rate"]),
            burst_rate=float(params["burst_rate"]),
            burst_every=int(params["burst_every"]),
            burst_len=int(params["burst_len"]),
            seed=int(params["seed"]),
        )
    return poisson_workload(
        int(params["requests"]),
        sizes_log2=(int(params["size_log2"]),),
        rate=float(params["base_rate"]),
        seed=int(params["seed"]),
    )


def _decision_log(service) -> list[dict]:
    if service.controller is None:
        return []
    return service.controller.decision_log()


def run_arm(params: dict, *, adaptive: bool, bursty: bool) -> dict:
    """Replay one arm once; returns its replay-comparable summary."""
    from repro.serve.replay import replay

    service = _build_service(params, adaptive=adaptive, faults=bursty)
    stats = replay(service, _workload(params, bursty=bursty))
    decisions = _decision_log(service)
    digest = hashlib.sha1(
        json.dumps(decisions, sort_keys=True).encode()
    ).hexdigest()[:12]
    return {
        "adaptive": adaptive,
        "served": stats["served"],
        "failed": stats["failed"],
        "verified": stats["verified"],
        "batches": stats["batches"],
        "mean_batch_size": stats["mean_batch_size"],
        "latency_p50_s": stats["latency"]["p50"],
        "latency_p99_s": stats["latency"]["p99"],
        "total_exec_s": stats["total_exec_s"],
        "final_max_batch": service.max_batch,
        "final_max_wait_s": service.max_wait_s,
        "decisions": len(decisions),
        "decision_digest": digest,
        "decision_log": decisions,
        # Per-batch simulated times in dispatch order: the bit-identity
        # probe (together with the latency percentiles above).
        "batch_sim_times": [float(b.sim_time_s) for b in service.batches],
    }


def run_ab(params: dict | None = None, *, repeats: int = 2) -> dict:
    """The full A/B: bursty+fault and steady workloads, both arms.

    Each (workload, arm) cell is replayed ``repeats`` times;
    ``deterministic`` reports whether every repeat reproduced the first
    run bit-identically (summaries compare whole, decision log and all).
    """
    params = dict(DEFAULT_AB_PARAMS if params is None else params)

    def _cell(adaptive: bool, bursty: bool) -> dict:
        runs = [run_arm(params, adaptive=adaptive, bursty=bursty)
                for _ in range(max(1, repeats))]
        first = runs[0]
        identical = all(r == first for r in runs[1:])
        return {**first, "repeat_identical": identical}

    bursty_static = _cell(adaptive=False, bursty=True)
    bursty_adaptive = _cell(adaptive=True, bursty=True)
    steady_static = _cell(adaptive=False, bursty=False)
    steady_adaptive = _cell(adaptive=True, bursty=False)

    p99_improvement = (
        bursty_static["latency_p99_s"] / bursty_adaptive["latency_p99_s"]
        if bursty_adaptive["latency_p99_s"] > 0 else float("inf")
    )
    steady_ratio = (
        steady_adaptive["latency_p99_s"] / steady_static["latency_p99_s"]
        if steady_static["latency_p99_s"] > 0 else 1.0
    )
    deterministic = all(cell["repeat_identical"] for cell in (
        bursty_static, bursty_adaptive, steady_static, steady_adaptive,
    ))
    return {
        "params": params,
        "bursty": {"static": bursty_static, "adaptive": bursty_adaptive,
                   "p99_improvement": p99_improvement},
        "steady": {"static": steady_static, "adaptive": steady_adaptive,
                   "p99_ratio": steady_ratio},
        "deterministic": deterministic,
    }


def summarize(report: dict) -> str:
    """Human-readable A/B table for the CLI and the bench."""
    lines = ["adaptive vs static (A/B replay):"]
    for name in ("bursty", "steady"):
        block = report[name]
        for arm in ("static", "adaptive"):
            cell = block[arm]
            lines.append(
                f"  {name:>6}/{arm:<8} p99 {cell['latency_p99_s'] * 1e6:9.1f} us  "
                f"p50 {cell['latency_p50_s'] * 1e6:8.1f} us  "
                f"batches {cell['batches']:>3}  "
                f"mean size {cell['mean_batch_size']:5.2f}  "
                f"decisions {cell['decisions']}"
            )
    lines.append(
        f"  burst p99 improvement: {report['bursty']['p99_improvement']:.2f}x  "
        f"steady p99 ratio: {report['steady']['p99_ratio']:.3f}  "
        f"deterministic: {'yes' if report['deterministic'] else 'NO'}"
    )
    return "\n".join(lines)
