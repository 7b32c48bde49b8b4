"""Workload replay: drive a :class:`ScanService` from a request schedule.

A replay is a deterministic list of ``(arrival_s, data)`` requests — a
seeded Poisson process over a size mix by default — submitted to the
service in timestamp order, drained, verified against the sequential
oracle and summarised. :func:`drive` is that submit/drain/verify loop;
every replay (this module's, the cluster's, the A/B arms and the restart
bench suite) runs through it and keeps only its own summary arithmetic.
The same schedule can also be served *solo* (one ``session.scan`` per
request, no coalescing), which is the baseline the coalescing speedup is
measured against: identical work, identical machine, only the front door
differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.errors import BackpressureError, ConfigurationError
from repro.obs.registry import Histogram
from repro.primitives.sequential import exclusive_scan, inclusive_scan
from repro.serve.service import ScanService, SubmitResult
from repro.util.ints import next_power_of_two

__all__ = ["Request", "Drive", "poisson_workload", "bursty_workload", "drive",
           "submit_to", "replay", "solo_baseline"]


@dataclass(frozen=True)
class Request:
    """One scheduled service request."""

    at_s: float
    data: np.ndarray = field(repr=False)
    operator: str = "add"
    inclusive: bool = True


def poisson_workload(
    requests: int,
    sizes_log2: tuple[int, ...] = (12,),
    rate: float = 0.0,
    dtype=np.int32,
    operator: str = "add",
    inclusive: bool = True,
    seed: int = 0,
) -> list[Request]:
    """A seeded request schedule: Poisson arrivals over a size mix.

    ``rate`` is requests per simulated second; ``0`` means every request
    arrives at t=0 (the closed-loop, batch-friendliest schedule). Sizes
    cycle deterministically through ``sizes_log2`` so every size in the
    mix is exercised regardless of ``requests``.
    """
    if requests < 1:
        raise ConfigurationError(f"need at least one request, got {requests}")
    if not sizes_log2:
        raise ConfigurationError("sizes_log2 must name at least one size")
    rng = np.random.default_rng(seed)
    out: list[Request] = []
    t = 0.0
    for i in range(requests):
        if rate > 0:
            t += float(rng.exponential(1.0 / rate))
        n = 1 << sizes_log2[i % len(sizes_log2)]
        data = rng.integers(0, 100, n).astype(dtype)
        out.append(Request(at_s=t, data=data, operator=operator,
                           inclusive=inclusive))
    return out


def bursty_workload(
    requests: int,
    sizes_log2: tuple[int, ...] = (12,),
    base_rate: float = 2e3,
    burst_rate: float = 2e5,
    burst_every: int = 48,
    burst_len: int = 24,
    dtype=np.int32,
    operator: str = "add",
    inclusive: bool = True,
    seed: int = 0,
) -> list[Request]:
    """A seeded bursty schedule: calm Poisson traffic with periodic bursts.

    Requests cycle through a fixed pattern of ``burst_every`` arrivals:
    the first ``burst_len`` of each cycle arrive at ``burst_rate`` (the
    burst), the rest at ``base_rate`` (the calm tail). Both phases are
    Poisson (seeded exponential gaps), so the schedule stresses exactly
    the hysteresis band an adaptive batching controller must track —
    and, being fully seeded, replays bit-identically.
    """
    if requests < 1:
        raise ConfigurationError(f"need at least one request, got {requests}")
    if not sizes_log2:
        raise ConfigurationError("sizes_log2 must name at least one size")
    if base_rate <= 0 or burst_rate <= 0:
        raise ConfigurationError("bursty schedules need positive rates")
    if not 0 < burst_len <= burst_every:
        raise ConfigurationError(
            f"burst_len must be in (0, burst_every]; got {burst_len} "
            f"of {burst_every}"
        )
    rng = np.random.default_rng(seed)
    out: list[Request] = []
    t = 0.0
    for i in range(requests):
        rate = burst_rate if (i % burst_every) < burst_len else base_rate
        t += float(rng.exponential(1.0 / rate))
        n = 1 << sizes_log2[i % len(sizes_log2)]
        data = rng.integers(0, 100, n).astype(dtype)
        out.append(Request(at_s=t, data=data, operator=operator,
                           inclusive=inclusive))
    return out


def _oracle(req: Request) -> np.ndarray:
    scan = inclusive_scan if req.inclusive else exclusive_scan
    return scan(req.data, op=req.operator)


@dataclass
class Drive:
    """What :func:`drive` saw: the accepted tickets and the tallies."""

    tickets: list[tuple[Request, Any]]
    rejected: int
    failures: int
    verified: int


def drive(
    workload: list[Request],
    submit: Callable[[int, Request], Any],
    drain: Callable[[list[tuple[Request, Any]]], None],
    verify: bool = True,
) -> Drive:
    """Submit in arrival order, drain, verify against the sequential oracle.

    ``submit(i, req)`` hands the ``i``-th request (in arrival order) to
    the front door and returns its ticket; a :class:`BackpressureError`
    counts as a rejection, not a failure. ``drain(tickets)`` then runs
    every accepted ticket to a terminal state. With ``verify`` each
    ticket that did not fail is checked against
    :mod:`repro.primitives.sequential` — a front door must be
    output-invisible.
    """
    tickets: list[tuple[Request, Any]] = []
    rejected = 0
    for i, req in enumerate(sorted(workload, key=lambda r: r.at_s)):
        try:
            tickets.append((req, submit(i, req)))
        except BackpressureError:
            rejected += 1
    drain(tickets)
    failures = verified = 0
    for req, ticket in tickets:
        if ticket.failed:
            failures += 1
        elif verify:
            np.testing.assert_array_equal(ticket.result(), _oracle(req))
            verified += 1
    return Drive(tickets, rejected, failures, verified)


def submit_to(service: ScanService) -> Callable[[int, Request], SubmitResult]:
    """The :func:`drive` submit hook for one :class:`ScanService`."""
    def submit(_: int, req: Request) -> SubmitResult:
        return service.submit(req.data, operator=req.operator,
                              inclusive=req.inclusive, at=req.at_s)
    return submit


def replay(
    service: ScanService,
    workload: list[Request],
    verify: bool = True,
) -> dict:
    """Submit ``workload`` in arrival order, drain, verify and summarise.

    Rejected requests (backpressure) are counted, not raised. With
    ``verify`` every completed request is checked against
    :mod:`repro.primitives.sequential` (see :func:`drive`).

    The summary reports **per-run deltas**, not the service's lifetime
    counters: replaying twice on the same service (the restart/cluster
    pattern) yields two independent summaries instead of the second one
    double-counting the first's ``submitted``/``served``/``rejected``.
    The latency and batch-size distributions are rebuilt from this run's
    tickets and batches in the service's own terminal order
    (:attr:`SubmitResult.seq`), so a replay on a *fresh* service is
    bit-identical to the lifetime summary it used to report.
    """
    deltas = ("submitted", "served", "failed", "rejected", "evicted",
              "splits", "padded_rows", "total_queue_wait_s",
              "total_exec_wait_s", "total_exec_s", "total_latency_s")
    # Counter/total baseline so the summary can report this run only.
    base = {name: getattr(service, name) for name in deltas}
    base_batches = len(service.batches)
    run = drive(workload, submit_to(service), lambda _: service.drain(),
                verify=verify)
    stats = service.stats()
    for name in deltas:
        stats[name] = stats[name] - base[name]
    run_batches = service.batches[base_batches:]
    stats["batches"] = len(run_batches)
    stats["mean_batch_size"] = (stats["served"] / len(run_batches)
                                if run_batches else 0.0)
    # Rebuild the distributions from this run's terminal tickets, in the
    # exact order the service observed them (seq is the service's own
    # terminal-order stamp), so the summaries reproduce bit-identically.
    latency = Histogram("serve.latency_s")
    for _, ticket in sorted(
        (pair for pair in run.tickets if pair[1].status in ("done", "failed")),
        key=lambda pair: pair[1].seq,
    ):
        latency.observe(ticket.latency_s)
    batch_size = Histogram("serve.batch_size")
    for report in run_batches:
        batch_size.observe(report.requests)
    stats["latency"] = latency.summary()
    stats["batch_size"] = batch_size.summary()
    stats.update({
        "requests": len(workload),
        "rejected_by_backpressure": run.rejected,
        "request_failures": run.failures,
        "verified": run.verified,
        # Makespan of the executor: coalesced batches run back to back.
        "coalesced_sim_s": stats["total_exec_s"],
    })
    return stats


def solo_baseline(session, workload: list[Request], verify: bool = True) -> dict:
    """Serve the same schedule one request at a time (no coalescing).

    Each request becomes its own G=1 batch (identity-padded to a power
    of two), scanned through the same session/machine. Returns the total
    simulated execution time — the quantity coalescing amortises.
    """
    total_sim = 0.0
    for req in sorted(workload, key=lambda r: r.at_s):
        n = next_power_of_two(req.data.size)
        if n != req.data.size:
            from repro.core.executor import pad_rows_to_batch

            batch = pad_rows_to_batch([req.data], n, req.operator,
                                      dtype=req.data.dtype)
        else:
            batch = req.data[None, :]
        result = session.scan(batch, operator=req.operator,
                              inclusive=req.inclusive)
        total_sim += result.total_time_s
        if verify:
            np.testing.assert_array_equal(
                result.output[0, : req.data.size], _oracle(req)
            )
    return {"requests": len(workload), "solo_sim_s": total_sim}
