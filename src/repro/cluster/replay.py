"""Cluster workload replay: drive a :class:`ClusterRouter` from a schedule.

Reuses the serve layer's :class:`~repro.serve.replay.Request` /
:func:`~repro.serve.replay.poisson_workload` schedules, adds tenant
assignment (round-robin over the named tenants, deterministically) and
optional mid-traffic chaos (take a replica down at a fixed simulated
instant; the router drains, reroutes and later re-admits it). The
replay completes every request — if everything is down it advances
through the recovery window until the parked requests land — then
verifies each output against the sequential oracle and summarises
cluster-level tail latency. Everything is simulated-time-deterministic:
the same schedule on the same router configuration yields bit-identical
outputs, latencies and batch assignments.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.serve.replay import Request, drive
from repro.cluster.router import ClusterRouter
from repro.cluster.tenants import DEFAULT_TENANT

__all__ = ["cluster_replay"]


def cluster_replay(
    router: ClusterRouter,
    workload: list[Request],
    tenants: tuple[str, ...] = (DEFAULT_TENANT,),
    verify: bool = True,
    fail_replica_at: float | None = None,
    fail_replica_id: int = 0,
    max_recovery_waits: int = 16,
) -> dict:
    """Submit ``workload``, complete every request, verify, summarise.

    Requests cycle through ``tenants`` deterministically. Rejections
    (quota or cluster backpressure) are counted, not raised.
    ``fail_replica_at`` takes replica ``fail_replica_id`` down at that
    simulated instant — the drain/re-admit lifecycle under live traffic.
    """
    if not tenants:
        raise ConfigurationError("tenants must name at least one tenant")
    failed_yet = fail_replica_at is None

    def submit(i: int, req: Request):
        nonlocal failed_yet
        if not failed_yet and req.at_s >= fail_replica_at:
            router.fail_replica(fail_replica_id, at=fail_replica_at)
            failed_yet = True
        return router.submit(
            req.data, operator=req.operator, inclusive=req.inclusive,
            at=req.at_s, tenant=tenants[i % len(tenants)],
        )

    def drain(tickets) -> None:
        if not failed_yet:
            router.fail_replica(fail_replica_id, at=fail_replica_at)
        router.drain_queues()
        # A mid-drain eviction (or an all-replicas-down window) can leave
        # requests parked or re-queued; walk recovery windows until every
        # ticket is terminal. Bounded: parked requests only exist while a
        # replica is down, and re-admission is a fixed recovery_s away.
        for _ in range(max_recovery_waits):
            if all(t.terminal for _, t in tickets):
                break
            router.advance(router.recovery_s)
            router.drain_queues()
        # End the scenario at full strength: if a replica is still down,
        # walk its recovery window so it re-admits (from the leader's
        # snapshot) before we summarise.
        for _ in range(max_recovery_waits):
            if all(r.state == "active" for r in router.replicas):
                break
            router.advance(router.recovery_s)
        unfinished = sum(1 for _, t in tickets if not t.terminal)
        if unfinished:
            raise ConfigurationError(
                f"{unfinished} requests still unfinished after "
                f"{max_recovery_waits} recovery windows — lost requests"
            )

    run = drive(workload, submit, drain, verify=verify)
    done = [t for _, t in run.tickets if not t.failed]
    lat = np.asarray([t.latency_s for t in done], dtype=np.float64)
    served = len(done)
    makespan = max((t.completion_s for t in done), default=0.0)
    summary = {
        "requests": len(workload),
        "served": served,
        "request_failures": run.failures,
        "rejected": run.rejected,
        "verified": run.verified,
        "rerouted": router.rerouted,
        "drains": router.drains,
        "readmits": router.readmits,
        "replicas": len(router.replicas),
        "makespan_s": makespan,
        "throughput_rps": served / makespan if makespan > 0 else 0.0,
        "latency_p50_s": float(np.percentile(lat, 50)) if served else 0.0,
        "latency_p95_s": float(np.percentile(lat, 95)) if served else 0.0,
        "latency_p99_s": float(np.percentile(lat, 99)) if served else 0.0,
        "latency_mean_s": float(lat.mean()) if served else 0.0,
        "latency_max_s": float(lat.max()) if served else 0.0,
    }
    return summary
