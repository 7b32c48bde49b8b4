"""The bench-suite registry: every ``BENCH_*.json`` experiment, defined once.

A :class:`Suite` declares its baseline file, its params (JSON-pure,
recorded verbatim into the baseline), a ``run(params) -> payload``
function, and what the drift gate holds it to:

- ``fields``: payload values a replay of the *recorded* params must
  reproduce — :func:`exact` equality, or a :func:`ratio` within a
  relative tolerance (0.0 for bit-exact simulated time). ``*`` in a
  dotted path fans out over every key (or index) of the baseline;
- ``bars``: acceptance bars (:class:`Bar`) every run must meet at any size,
  each a check over ``(params, payload)``;
- ``baseline_bars``: full-size claims on wall-clock figures. A
  ``repro bench run --write`` must meet them before it writes, and
  ``repro bench check`` re-checks them on the committed baseline
  instead of re-timing the host.

``repro bench run SUITE [--smoke] [--write]`` is the only writer of the
baselines and ``repro bench check`` replays the recorded params through
the same ``run`` (both in :mod:`repro.bench.regression`). Heavy imports
stay inside the run functions so building the CLI parser stays cheap.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.control.ab import DEFAULT_AB_PARAMS

__all__ = ["Bar", "Field", "Suite", "REGISTRY", "exact", "ratio"]


@dataclass(frozen=True)
class Field:
    """One gated payload path; ``tol=None`` demands equality."""

    path: str
    tol: float | None = None


@dataclass(frozen=True)
class Bar:
    """One acceptance bar: ``check(params, payload)`` must hold; ``text``
    states it in failure messages."""

    text: str
    check: Callable[[dict, dict], bool]


def exact(*paths: str) -> tuple[Field, ...]:
    return tuple(Field(p) for p in paths)


def ratio(*paths: str, tol: float = 0.0) -> tuple[Field, ...]:
    return tuple(Field(p, tol) for p in paths)


@dataclass(frozen=True)
class Suite:
    name: str
    baseline: str
    run: Callable[[dict], dict]
    params: dict
    table: Callable[[dict, dict], str]
    smoke: dict = field(default_factory=dict)
    fields: tuple[Field, ...] = ()
    bars: tuple[Bar, ...] = ()
    baseline_bars: tuple[Bar, ...] = ()
    #: Whether the payload holds host wall-clock figures (the envelope
    #: then records the measuring host in ``env``).
    wall: bool = False


def _median_wall(call: Callable[[], object], repeats: int):
    """Median wall-clock seconds of ``repeats`` calls, plus the last result."""
    samples, result = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = call()
        samples.append(time.perf_counter() - t0)
    return float(np.median(samples)), result


# ------------------------------------------------------------------ serving


def run_serving(params: dict) -> dict:
    """Cold vs warm serving rate per proposal; simulated time must not move.

    Cold prices the pre-warm-path cost of a call: every call builds a
    fresh machine and session with the kernel fast paths off
    (:func:`repro.util.hotpath.fast_paths`), so the empirical K sweep
    (``K="tune"``), planning and buffer allocation are paid per request
    through the original kernel code paths. Warm: one pooled session
    serves every call. An untimed third session serves twice from a
    *poisoned* pool; all three must produce the same output bits and the
    same simulated time.
    """
    from repro.core.session import ScanSession
    from repro.interconnect.topology import tsubame_kfc
    from repro.util.hotpath import fast_paths

    rng = np.random.default_rng(params["seed"])
    data = rng.integers(-(2**20), 2**20, size=(params["G"], 1 << params["n_log2"])
                        ).astype(params["dtype"])
    rows: dict[str, dict] = {}
    for proposal, spec in params["placements"].items():
        def scan(session):
            return session.scan(data, proposal=proposal, K="tune", **spec)

        def pooled(poison=False):
            topology = tsubame_kfc(spec["M"])
            topology.enable_buffer_pooling(poison=poison)
            session = ScanSession(topology)
            scan(session)  # the miss
            return session

        with fast_paths(False):
            cold_s, cold = _median_wall(
                lambda: scan(ScanSession(tsubame_kfc(spec["M"]))), params["repeats"])
        warm_session = pooled()
        warm_s, warm = _median_wall(lambda: scan(warm_session), params["repeats"])
        poisoned = scan(pooled(poison=True))
        for label, other in (("warm (pooled)", warm), ("poisoned pool", poisoned)):
            if not np.array_equal(cold.output, other.output):
                raise AssertionError(f"{proposal}: {label} output differs from cold")
            if other.trace.total_time() != cold.trace.total_time():
                raise AssertionError(f"{proposal}: {label} changed simulated time")
        stats = warm_session.stats()
        rows[proposal] = {
            **spec,
            "cold_s_median": cold_s,
            "warm_s_median": warm_s,
            "cold_calls_per_sec": 1.0 / cold_s,
            "warm_calls_per_sec": 1.0 / warm_s,
            "warm_speedup": cold_s / warm_s,
            "simulated_time_s": warm.trace.total_time(),
            "session_hits": stats["hits"],
            "pool_hits": stats["buffer_pools"]["hits"],
            "pool_bytes_reused": stats["buffer_pools"]["bytes_reused"],
        }
    speedups = [r["warm_speedup"] for r in rows.values()]
    return {"proposals": rows,
            "geomean_warm_speedup": float(np.exp(np.mean(np.log(speedups))))}


def _serving_table(params: dict, payload: dict) -> str:
    lines = [
        f"Serving throughput, G={params['G']}, N=2^{params['n_log2']} "
        f"(median of {params['repeats']}; wall-clock, simulated time unchanged)",
        f"{'proposal':>8} {'W':>2} {'M':>2} {'cold c/s':>10} {'warm c/s':>10} "
        f"{'speedup':>8} {'pool hits':>9}",
    ]
    for name, r in payload["proposals"].items():
        lines.append(
            f"{name:>8} {r['W']:>2} {r['M']:>2} {r['cold_calls_per_sec']:>10.1f} "
            f"{r['warm_calls_per_sec']:>10.1f} {r['warm_speedup']:>7.1f}x "
            f"{r['pool_hits']:>9}")
    lines.append(f"geomean warm speedup: {payload['geomean_warm_speedup']:.1f}x")
    return "\n".join(lines)


# -------------------------------------------------------------- single_pass


def run_single_pass(params: dict) -> dict:
    """Three-kernel ``sp`` vs decoupled-lookback ``sp-dlb`` vs LightScan.

    Sweeps N per (dtype, G) series and records where the single pass
    overtakes the paper's three-kernel plan, plus the autotuner's choice
    at every point. Every number is an analytic estimate.
    """
    from repro.baselines import LIGHTSCAN
    from repro.core.autotune_cache import CachedTuner
    from repro.core.params import ProblemConfig
    from repro.core.single_gpu import ScanSP
    from repro.core.single_pass import ScanSinglePassDLB
    from repro.interconnect.topology import tsubame_kfc

    machine = tsubame_kfc(1)
    tuner = CachedTuner(machine)
    gpu = machine.gpus[0]
    series: dict[str, list] = {}
    crossovers: dict[str, int | None] = {}
    for dtype, g in params["shapes"]:
        key = f"{dtype}|G{g}"
        points = []
        for n in params["n_log2"]:
            problem = ProblemConfig.from_sizes(N=1 << n, G=g, dtype=np.dtype(dtype))
            sp = ScanSP(gpu).estimate(problem).total_time_s
            dlb = ScanSinglePassDLB(gpu).estimate(problem).total_time_s
            light, light_mode = LIGHTSCAN.time_batch(problem.N, g, machine.arch)
            points.append({
                "lightscan_mode": light_mode,
                "lightscan_s": light,
                "n_log2": n,
                "sp_dlb_s": dlb,
                "sp_s": sp,
                "tuner_choice": tuner.best_single_gpu_variant(problem),
                "winner": "sp-dlb" if dlb < sp else "sp",
            })
        # Crossover: the first n after which sp-dlb keeps winning.
        crossovers[key] = next(
            (p["n_log2"] for i, p in enumerate(points)
             if all(q["winner"] == "sp-dlb" for q in points[i:])), None)
        series[key] = points
    return {"crossover_n_log2": crossovers, "machine": machine.arch.name,
            "series": series}


def _single_pass_table(params: dict, payload: dict) -> str:
    lines = [f"Three-kernel vs sp-dlb vs LightScan ({payload['machine']}):", ""]
    for key, points in sorted(payload["series"].items()):
        lines.append(f"  {key}: crossover at N=2^{payload['crossover_n_log2'][key]} "
                     "(sp-dlb wins from there on)")
        for p in points:
            mark = "*" if p["winner"] == "sp-dlb" else " "
            lines.append(
                f"    n=2^{p['n_log2']:2d} sp {p['sp_s'] * 1e6:9.1f}us | "
                f"sp-dlb {p['sp_dlb_s'] * 1e6:9.1f}us{mark} | "
                f"lightscan[{p['lightscan_mode']}] "
                f"{p['lightscan_s'] * 1e6:9.1f}us | tuner={p['tuner_choice']}")
        lines.append("")
    return "\n".join(lines)


# -------------------------------------------------------------------- serve


def run_serve(params: dict) -> dict:
    """Coalesced dispatch vs one request at a time, per placement x arrival.

    Both sides are simulated time from the same cost model, so the
    speedup is deterministic. Every output is verified against the
    sequential oracle (inside the replay and the solo baseline).
    """
    from repro.core.session import ScanSession
    from repro.interconnect.topology import tsubame_kfc
    from repro.serve import poisson_workload, replay, solo_baseline

    requests = params["requests"]
    rows: dict[str, dict] = {}
    for place_label, place in params["placements"].items():
        for rate_label, rate in params["arrivals"].items():
            workload = poisson_workload(
                requests, sizes_log2=(params["size_log2"],), rate=rate,
                dtype=np.dtype(params["dtype"]), seed=params["seed"])
            service = ScanSession(tsubame_kfc(1)).service(
                max_batch=params["max_batch"], max_wait_s=params["max_wait_s"],
                **place)
            coalesced = replay(service, workload)
            if coalesced["verified"] != requests or coalesced["request_failures"]:
                raise AssertionError(f"{place_label}/{rate_label}: {coalesced}")
            solo = solo_baseline(ScanSession(tsubame_kfc(1)), workload)
            rows[f"{place_label}/{rate_label}"] = {
                "proposal": place["proposal"],
                "W": place["W"],
                "rate_per_s": rate,
                "batches": coalesced["batches"],
                "mean_batch_size": coalesced["mean_batch_size"],
                "padded_rows": coalesced["padded_rows"],
                "coalesced_sim_s": coalesced["coalesced_sim_s"],
                "solo_sim_s": solo["solo_sim_s"],
                "coalesce_speedup": solo["solo_sim_s"] / coalesced["coalesced_sim_s"],
                "latency_p50_s": coalesced["latency"]["p50"],
                "latency_p95_s": coalesced["latency"]["p95"],
                "total_queue_wait_s": coalesced["total_queue_wait_s"],
            }
    return {"cells": rows, "min_burst_speedup": min(
        r["coalesce_speedup"] for key, r in rows.items() if key.endswith("burst"))}


def _serve_table(params: dict, payload: dict) -> str:
    lines = [
        f"Coalescing service, {params['requests']} requests of "
        f"N=2^{params['size_log2']} (simulated time; all outputs verified)",
        f"{'cell':>16} {'batches':>7} {'mean sz':>7} {'coalesced':>11} "
        f"{'solo':>11} {'speedup':>8} {'p95 lat':>9}",
    ]
    for name, r in payload["cells"].items():
        lines.append(
            f"{name:>16} {r['batches']:>7} {r['mean_batch_size']:>7.1f} "
            f"{r['coalesced_sim_s'] * 1e3:>9.3f}ms {r['solo_sim_s'] * 1e3:>9.3f}ms "
            f"{r['coalesce_speedup']:>7.1f}x {r['latency_p95_s'] * 1e6:>7.1f}us")
    lines.append(f"min burst speedup: {payload['min_burst_speedup']:.1f}x (floor: 2x)")
    return "\n".join(lines)


# ------------------------------------------------------------- obs_overhead

#: Enabled-path budget: warm serving with tracing/metrics on, relative to
#: the disabled path (median wall-clock).
MAX_ENABLED_RATIO = 3.0
#: Profiler budget: a full attribution fold of every result on top of the
#: enabled path, relative to the enabled path alone.
MAX_PROFILE_RATIO = 1.35


def run_obs_overhead(params: dict) -> dict:
    """Warm Scan-MPS serving with observability off, on, and on + profiling.

    All three regimes must produce the same output bits and simulated
    time; the profile fold must keep its exact category sum while timed.
    """
    from repro import obs
    from repro.core.session import ScanSession
    from repro.interconnect.topology import tsubame_kfc
    from repro.obs.profile import profile_result

    rng = np.random.default_rng(params["seed"])
    data = rng.integers(-(2**20), 2**20, size=(params["G"], 1 << params["n_log2"])
                        ).astype(np.int64)
    repeats = params["repeats"]

    def scan(session):
        return session.scan(data, proposal="mps", W=4, V=4)

    def warm_session():
        topology = tsubame_kfc(1)
        topology.enable_buffer_pooling()
        session = ScanSession(topology)
        scan(session)  # the miss
        return session

    def profiled(session):
        result = scan(session)
        profile = profile_result(result)
        assert sum(profile.categories.values()) == result.trace.total_time()
        return result

    obs.disable()
    obs.reset()
    off = warm_session()
    off_s, off_result = _median_wall(lambda: scan(off), repeats)
    assert len(obs.registry()) == 0 and obs.finished_spans() == []
    obs.enable()
    try:
        on = warm_session()
        on_s, on_result = _median_wall(lambda: scan(on), repeats)
        stats = on.stats()
        profile_s, profile_run = _median_wall(lambda: profiled(on), repeats)
    finally:
        obs.disable()
        obs.reset()
    if not np.array_equal(off_result.output, on_result.output):
        raise AssertionError("observability changed scan output bits")
    if not (off_result.trace.total_time() == on_result.trace.total_time()
            == profile_run.trace.total_time()):
        raise AssertionError("observability or profiling changed simulated time")
    return {
        "off_s_median": off_s,
        "on_s_median": on_s,
        "enabled_ratio": on_s / off_s,
        "max_enabled_ratio": MAX_ENABLED_RATIO,
        "profile_s_median": profile_s,
        "profile_ratio": profile_s / on_s,
        "max_profile_ratio": MAX_PROFILE_RATIO,
        "warm_latency_p50_s": stats["latency"]["p50"],
        "warm_latency_p95_s": stats["latency"]["p95"],
    }


def _obs_overhead_table(params: dict, payload: dict) -> str:
    return "\n".join([
        f"Observability overhead, warm Scan-MPS serving, G={params['G']}, "
        f"N=2^{params['n_log2']} (median of {params['repeats']})",
        f"  obs off (default): {payload['off_s_median'] * 1e3:8.3f} ms/call",
        f"  obs on:            {payload['on_s_median'] * 1e3:8.3f} ms/call",
        f"  enabled ratio:     {payload['enabled_ratio']:8.2f}x "
        f"(budget {payload['max_enabled_ratio']:.1f}x)",
        f"  obs on + profile:  {payload['profile_s_median'] * 1e3:8.3f} ms/call",
        f"  profile ratio:     {payload['profile_ratio']:8.2f}x "
        f"(budget {payload['max_profile_ratio']:.2f}x, vs enabled path)",
        f"  enabled p50/p95:   {payload['warm_latency_p50_s'] * 1e3:.3f} / "
        f"{payload['warm_latency_p95_s'] * 1e3:.3f} ms",
    ])


# ------------------------------------------------------------------ restart

#: A restored replica's first request must be at least this much faster
#: (wall-clock) than a cold replica's — the zero-warm-up bar.
MIN_FIRST_REQUEST_SPEEDUP = 2.0


def _restart_replay(params: dict, snapshot=None) -> dict:
    """One process-fresh replay; the first request is timed alone."""
    from repro.core.executor import PlanResolver, ScanExecutor
    from repro.core.session import ScanSession
    from repro.interconnect.topology import tsubame_kfc
    from repro.serve.replay import drive, poisson_workload, submit_to

    topology = tsubame_kfc(1)
    topology.enable_buffer_pooling()
    ScanExecutor.resolver = PlanResolver()
    session = ScanSession(topology, autotune_cache=None, snapshot=snapshot)
    service = session.service(max_batch=params["max_batch"], proposal="auto",
                              K="tune")
    workload = poisson_workload(params["requests"],
                                sizes_log2=tuple(params["sizes_log2"]),
                                rate=params["rate_per_s"], seed=params["seed"])
    submit, walls = submit_to(service), {}

    def timed_submit(i, req):
        # Submit + forced flush of the first request is the replica's
        # time-to-first-result, the quantity a restart degrades.
        if i == 0:
            walls["t0"] = time.perf_counter()
        ticket = submit(i, req)
        if i == 0:
            service.flush()
            walls["first"] = time.perf_counter() - walls["t0"]
        return ticket

    def drain(_):
        service.drain()
        walls["total"] = time.perf_counter() - walls["t0"]

    run = drive(workload, timed_submit, drain)
    if run.verified != params["requests"]:
        raise AssertionError(f"restart replay verified {run.verified}/"
                             f"{params['requests']} requests")
    latencies = sorted(t.latency_s for _, t in run.tickets)
    return {
        "session": session,
        "first_request_s": walls["first"],
        "total_wall_s": walls["total"],
        "batch_sim_s": [b.sim_time_s for b in service.batches],
        "latency_p50_s": float(np.percentile(latencies, 50)),
        "latency_p99_s": float(np.percentile(latencies, 99)),
        "resolver_misses": ScanExecutor.resolver.misses,
        "tuner_misses": session.tuner.cache.misses,
    }


def run_restart(params: dict) -> dict:
    """Cold start vs snapshot-restored start, process-fresh each repeat.

    The cold replay pays proposal recommendation, the variant and K
    sweeps and planning on its first request; the restored replay starts
    from a snapshot of the first cold session and must need no planning
    and no tuning at all. Simulated time is a closed form of the plan
    geometry, so both replays must produce the same batch traces; the
    win is wall-clock only.

    Each repeat runs a cold and a restored replay back to back, and the
    speedup is the median of those per-pair ratios: a slow stretch of the
    host then slows both halves of a pair, where a ratio of two separate
    medians can set a slow cold replay against a fast restored one.
    """
    from repro.core.executor import ScanExecutor

    original_resolver = ScanExecutor.resolver
    cold_first, restored_first = [], []
    snapshot = cold = restored = None
    identical = True
    try:
        for _ in range(params["repeats"]):
            cold = _restart_replay(params)
            if snapshot is None:
                snapshot = cold["session"].snapshot()
            restored = _restart_replay(params, snapshot=snapshot)
            cold_first.append(cold["first_request_s"])
            restored_first.append(restored["first_request_s"])
            identical &= cold["batch_sim_s"] == restored["batch_sim_s"]
    finally:
        ScanExecutor.resolver = original_resolver
    return {
        "cold_first_request_s": float(np.median(cold_first)),
        "restored_first_request_s": float(np.median(restored_first)),
        "first_request_speedup": float(
            np.median(np.divide(cold_first, restored_first))),
        "min_first_request_speedup": MIN_FIRST_REQUEST_SPEEDUP,
        "cold_total_wall_s": cold["total_wall_s"],
        "restored_total_wall_s": restored["total_wall_s"],
        "latency_p50_s": cold["latency_p50_s"],
        "latency_p99_s": cold["latency_p99_s"],
        "restored_latency_p50_s": restored["latency_p50_s"],
        "restored_latency_p99_s": restored["latency_p99_s"],
        "restored_resolver_misses": restored["resolver_misses"],
        "restored_tuner_misses": restored["tuner_misses"],
        "identical_traces": identical,
        "snapshot_counts": snapshot.counts,
    }


def _restart_table(params: dict, payload: dict) -> str:
    return "\n".join([
        f"Restart benchmark: {params['requests']} Poisson requests, sizes "
        f"2^{params['sizes_log2']}, auto proposal, tuned K "
        f"(median of {params['repeats']})",
        f"  cold first request:     {payload['cold_first_request_s'] * 1e3:9.3f} ms wall",
        f"  restored first request: {payload['restored_first_request_s'] * 1e3:9.3f} ms wall",
        f"  speedup (median pair):  {payload['first_request_speedup']:9.2f}x "
        f"(floor {payload['min_first_request_speedup']:.1f}x)",
        f"  restored resolver misses / tuner sweeps: "
        f"{payload['restored_resolver_misses']} / {payload['restored_tuner_misses']}",
        f"  simulated latency p50/p99: {payload['latency_p50_s'] * 1e6:.1f} / "
        f"{payload['latency_p99_s'] * 1e6:.1f} us "
        f"(bit-identical cold vs restored: {payload['identical_traces']})",
    ])


# ------------------------------------------------------------------ cluster

_CLUSTER_EXACT = ("served", "request_failures", "rejected", "verified",
                  "rerouted", "drains", "readmits")
_CLUSTER_RATIO = ("makespan_s", "throughput_rps", "latency_p50_s",
                  "latency_p95_s", "latency_p99_s", "latency_mean_s",
                  "latency_max_s")


def run_cluster(params: dict) -> dict:
    """Tail latency vs replica count and policy, plus drain/re-admit chaos.

    The same seeded workload runs through 1..N replicas and through every
    dispatch policy at the widest point. In the chaos scenario replica 0
    goes down mid-traffic; the scenario runs twice and must reproduce
    itself bit for bit (summary and batch log) and lose nothing.
    """
    from repro.cluster import ClusterRouter, cluster_replay, policy_names
    from repro.serve.replay import poisson_workload

    def replay(replicas, policy=params["policy"], chaos=None):
        router = ClusterRouter(
            replicas=replicas, policy=policy, max_batch=params["max_batch"],
            max_wait_s=params["max_wait_s"],
            **({"recovery_s": chaos["recovery_s"]} if chaos else {}))
        workload = poisson_workload(params["requests"],
                                    sizes_log2=tuple(params["sizes_log2"]),
                                    rate=params["rate_per_s"], seed=params["seed"])
        summary = cluster_replay(router, workload, fail_replica_at=(
            chaos["fail_replica_at_s"] if chaos else None))
        return summary, list(router.batch_log)

    def row(summary):
        return {k: summary[k] for k in _CLUSTER_EXACT + _CLUSTER_RATIO}

    scaling = {str(n): row(replay(n)[0]) for n in params["replica_counts"]}
    widest = max(params["replica_counts"])
    policies = {name: row(replay(widest, policy=name)[0]) for name in policy_names()}
    # Replica 0 goes down mid-traffic; a second run must reproduce the first.
    chaos = params["chaos"]
    (summary, log), (summary_again, log_again) = [
        replay(chaos["replicas"], chaos=chaos) for _ in range(2)]
    base, wide = scaling[str(params["replica_counts"][0])], scaling[str(widest)]
    return {
        "scaling": scaling,
        "policies": policies,
        "p99_improvement": base["latency_p99_s"] / wide["latency_p99_s"],
        "throughput_gain": wide["throughput_rps"] / base["throughput_rps"],
        "chaos": {
            "summary": summary,
            "batch_log_len": len(log),
            "deterministic": summary == summary_again and log == log_again,
            "lost_requests": params["requests"] - (
                summary["served"] + summary["request_failures"]
                + summary["rejected"]),
        },
    }


def _cluster_table(params: dict, payload: dict) -> str:
    widest = max(params["replica_counts"])
    lines = [
        f"Cluster benchmark: {params['requests']} Poisson requests at "
        f"{params['rate_per_s']:.0f} req/s, sizes 2^{params['sizes_log2']}, "
        f"policy={params['policy']}",
        "  replicas   p50 us   p95 us   p99 us   throughput",
    ]
    for n, r in payload["scaling"].items():
        lines.append(f"  {n:>8} {r['latency_p50_s'] * 1e6:8.1f} "
                     f"{r['latency_p95_s'] * 1e6:8.1f} {r['latency_p99_s'] * 1e6:8.1f} "
                     f"{r['throughput_rps'] / 1e3:9.1f}k rps")
    lines.append(f"  1 -> {widest} replicas: p99 {payload['p99_improvement']:.2f}x "
                 f"better, throughput {payload['throughput_gain']:.2f}x")
    lines.append(f"  policy comparison at {widest} replicas:")
    for name, r in payload["policies"].items():
        lines.append(f"  {name:>13}: p99 {r['latency_p99_s'] * 1e6:8.1f} us, "
                     f"{r['throughput_rps'] / 1e3:7.1f}k rps")
    chaos = payload["chaos"]
    s = chaos["summary"]
    lines.append(
        f"  chaos (fail 1/{params['chaos']['replicas']} mid-traffic): "
        f"{s['served']} served, {s['rerouted']} rerouted, {s['drains']} drain(s), "
        f"{s['readmits']} readmit(s), {chaos['lost_requests']} lost, "
        f"deterministic={chaos['deterministic']}")
    return "\n".join(lines)


# ----------------------------------------------------------------- adaptive

_AB_EXACT = ("adaptive", "served", "failed", "verified", "batches", "decisions",
             "decision_digest", "final_max_batch", "repeat_identical")
_AB_RATIO = ("mean_batch_size", "latency_p50_s", "latency_p99_s",
             "total_exec_s", "final_max_wait_s")


def run_adaptive(params: dict) -> dict:
    """Adaptive vs static A/B (:func:`repro.control.ab.run_ab`), two repeats.

    The payload keeps decision digests, not the raw per-decision logs.
    """
    from repro.control.ab import run_ab

    report = run_ab(params, repeats=2)
    payload = {}
    for workload in ("bursty", "steady"):
        block = dict(report[workload])
        for arm in ("static", "adaptive"):
            block[arm] = {k: v for k, v in block[arm].items()
                          if k not in ("decision_log", "batch_sim_times")}
        payload[workload] = block
    payload["deterministic"] = report["deterministic"]
    return payload


def _adaptive_table(params: dict, payload: dict) -> str:
    from repro.control.ab import summarize

    return summarize(payload)


# ----------------------------------------------------------------- registry

_SUITES = (
    Suite(
        name="serving",
        baseline="BENCH_serving.json",
        run=run_serving,
        params={"n_log2": 13, "G": 16, "repeats": 15, "dtype": "int64", "seed": 7,
                "placements": {"sp": {"W": 1, "V": 1, "M": 1},
                               "pp": {"W": 4, "V": 4, "M": 1},
                               "mps": {"W": 4, "V": 4, "M": 1},
                               "mppc": {"W": 8, "V": 4, "M": 1},
                               "mn-mps": {"W": 4, "V": 4, "M": 2}}},
        smoke={"n_log2": 11, "G": 4, "repeats": 5,
               "placements": {"sp": {"W": 1, "V": 1, "M": 1},
                              "mps": {"W": 4, "V": 4, "M": 1}}},
        fields=(ratio("proposals.*.simulated_time_s")
                + exact("proposals.*.session_hits", "proposals.*.pool_hits",
                        "proposals.*.pool_bytes_reused")),
        baseline_bars=(Bar("geomean_warm_speedup >= 3.0",
                           lambda p, r: r["geomean_warm_speedup"] >= 3.0),),
        table=_serving_table,
        wall=True,
    ),
    Suite(
        name="single_pass",
        baseline="BENCH_single_pass.json",
        run=run_single_pass,
        params={"n_log2": list(range(13, 27)),
                "shapes": [["int32", 1], ["int32", 8], ["int64", 1], ["int64", 8]]},
        fields=(ratio("series.*.*.sp_s", "series.*.*.sp_dlb_s",
                      "series.*.*.lightscan_s", tol=1e-9)
                + exact("series.*.*.winner", "series.*.*.tuner_choice",
                        "crossover_n_log2.*")),
        bars=(
            # A genuine crossover inside the sweep for every series...
            Bar("every crossover_n_log2 lies inside the sweep",
                lambda p, r: all(c is not None and c > min(p["n_log2"])
                                 for c in r["crossover_n_log2"].values())),
            # ...the tuner tracks the measured minimum at every point...
            Bar("tuner_choice == winner at every point",
                lambda p, r: all(q["tuner_choice"] == q["winner"]
                                 for s in r["series"].values() for q in s)),
            # ...and batching pulls the frontier down (G=8 fills the GPU sooner).
            Bar("crossover_n_log2 at G8 < at G1",
                lambda p, r: all(r["crossover_n_log2"][f"{d}|G8"]
                                 < r["crossover_n_log2"][f"{d}|G1"]
                                 for d in ("int32", "int64"))),
        ),
        table=_single_pass_table,
    ),
    Suite(
        name="serve",
        baseline="BENCH_serve.json",
        run=run_serve,
        params={"requests": 64, "size_log2": 12, "max_batch": 64, "max_wait_s": 1e-3,
                "dtype": "int32", "seed": 11,
                "placements": {"sp": {"proposal": "sp", "W": 1, "V": 1},
                               "pp": {"proposal": "pp", "W": 4, "V": 4}},
                "arrivals": {"burst": 0.0, "poisson_50k": 50_000.0}},
        smoke={"requests": 16},
        fields=(exact("cells.*.batches", "cells.*.padded_rows")
                + ratio("cells.*.mean_batch_size", "cells.*.coalesced_sim_s",
                        "cells.*.solo_sim_s", "cells.*.coalesce_speedup",
                        "cells.*.latency_p50_s", "cells.*.latency_p95_s",
                        "cells.*.total_queue_wait_s", "min_burst_speedup")),
        bars=(Bar("min_burst_speedup >= 2.0",
                  lambda p, r: r["min_burst_speedup"] >= 2.0),),
        table=_serve_table,
    ),
    Suite(
        name="obs_overhead",
        baseline="BENCH_obs_overhead.json",
        run=run_obs_overhead,
        params={"n_log2": 13, "G": 16, "repeats": 25, "seed": 11},
        smoke={"repeats": 5},
        baseline_bars=(
            Bar("enabled_ratio is finite and <= max_enabled_ratio",
                lambda p, r: math.isfinite(r["enabled_ratio"])
                and r["enabled_ratio"] <= r["max_enabled_ratio"]),
            Bar("profile_ratio is finite and <= max_profile_ratio",
                lambda p, r: math.isfinite(r["profile_ratio"])
                and r["profile_ratio"] <= r["max_profile_ratio"]),
        ),
        table=_obs_overhead_table,
        wall=True,
    ),
    Suite(
        name="restart",
        baseline="BENCH_restart.json",
        run=run_restart,
        params={"requests": 32, "sizes_log2": [14, 12], "rate_per_s": 2e5,
                "seed": 7, "repeats": 11, "max_batch": 8},
        smoke={"repeats": 3},
        fields=(ratio("latency_p50_s", "latency_p99_s", "restored_latency_p50_s",
                      "restored_latency_p99_s")
                + exact("restored_resolver_misses", "restored_tuner_misses",
                        "identical_traces", "snapshot_counts.*")),
        bars=(
            Bar("first_request_speedup is finite and >= min_first_request_speedup",
                lambda p, r: math.isfinite(r["first_request_speedup"])
                and r["first_request_speedup"] >= r["min_first_request_speedup"]),
            Bar("restored_resolver_misses == 0",
                lambda p, r: r["restored_resolver_misses"] == 0),
            Bar("restored_tuner_misses == 0",
                lambda p, r: r["restored_tuner_misses"] == 0),
            Bar("identical_traces", lambda p, r: r["identical_traces"]),
        ),
        table=_restart_table,
        wall=True,
    ),
    Suite(
        name="cluster",
        baseline="BENCH_cluster.json",
        run=run_cluster,
        params={"requests": 64, "sizes_log2": [10, 12], "rate_per_s": 8e5,
                "seed": 11, "policy": "managed", "max_batch": 8, "max_wait_s": 1e-4,
                "replica_counts": [1, 2, 4],
                "chaos": {"replicas": 3, "fail_replica_at_s": 4e-5,
                          "recovery_s": 1e-4}},
        fields=tuple(
            f for table in ("scaling", "policies")
            for f in exact(*(f"{table}.*.{k}" for k in _CLUSTER_EXACT))
            + ratio(*(f"{table}.*.{k}" for k in _CLUSTER_RATIO))
        ) + exact(*(f"chaos.summary.{k}" for k in _CLUSTER_EXACT),
                  "chaos.batch_log_len", "chaos.lost_requests",
                  "chaos.deterministic")
        + ratio(*(f"chaos.summary.{k}" for k in _CLUSTER_RATIO),
                "p99_improvement", "throughput_gain"),
        bars=(
            Bar("verified == requests in every scaling and policies cell",
                lambda p, r: all(c["verified"] == p["requests"] for c in
                                 [*r["scaling"].values(), *r["policies"].values()])),
            Bar("p99_improvement > 1.0 or throughput_gain >= 2.0",
                lambda p, r: r["p99_improvement"] > 1.0
                or r["throughput_gain"] >= 2.0),
            Bar("chaos.deterministic",
                lambda p, r: r["chaos"]["deterministic"]),
            Bar("chaos.lost_requests == 0",
                lambda p, r: r["chaos"]["lost_requests"] == 0),
            Bar("chaos.summary.drains >= 1 and chaos.summary.readmits >= 1",
                lambda p, r: r["chaos"]["summary"]["drains"] >= 1
                and r["chaos"]["summary"]["readmits"] >= 1),
        ),
        table=_cluster_table,
    ),
    Suite(
        name="adaptive",
        baseline="BENCH_adaptive.json",
        run=run_adaptive,
        params=DEFAULT_AB_PARAMS,
        fields=tuple(
            f for cell in ("bursty.static", "bursty.adaptive",
                           "steady.static", "steady.adaptive")
            for f in exact(*(f"{cell}.{k}" for k in _AB_EXACT))
            + ratio(*(f"{cell}.{k}" for k in _AB_RATIO))
        ) + ratio("bursty.p99_improvement", "steady.p99_ratio")
        + exact("deterministic"),
        bars=(
            Bar("bursty.p99_improvement >= 1.3",
                lambda p, r: r["bursty"]["p99_improvement"] >= 1.3),
            Bar("steady.p99_ratio <= 1.05",
                lambda p, r: r["steady"]["p99_ratio"] <= 1.05),
            Bar("deterministic", lambda p, r: r["deterministic"]),
            Bar("verified == served in every arm",
                lambda p, r: all(r[w][arm]["verified"] == r[w][arm]["served"]
                                 for w in ("bursty", "steady")
                                 for arm in ("static", "adaptive"))),
        ),
        table=_adaptive_table,
    ),
)

#: Every registered suite by name, in reporting order.
REGISTRY: dict[str, Suite] = {s.name: s for s in _SUITES}
