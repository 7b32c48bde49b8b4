"""Time-attribution profiler: where a request's simulated time goes.

The trace composition rule (:mod:`repro.gpusim.events`) fixes end-to-end
time as *sum over phases of (max over lanes of serialized lane time)* —
so the only records that bound a request's latency are the ones on each
phase's **critical lane**. This module folds those records into named
categories (kernel compute, lookback stall, H2D/D2H/P2P/host-staged
transfer, host dispatch, MPI, retry backoff) and guarantees the folded
times reproduce the trace's total **bit-exactly**: the profiler replays
the exact accumulation order of :meth:`Trace.phase_time` /
:meth:`Trace.total_time` and reconciles the re-associated category sums
against that total, so ``sum(profile.categories.values()) ==
trace.total_time()`` holds as float equality, not approximately.

Three views come out of one pass over the records:

- the **category table** (:attr:`AttributionProfile.categories`), the
  per-phase **critical path** (:attr:`AttributionProfile.phases`) and the
  compute-vs-communication split — the same classification as
  :func:`repro.gpusim.metrics.communication_share` (a transfer/MPI record
  that is not host dispatch is communication), so the two reconcile;
- per-device (per-lane) **utilization timelines**
  (:attr:`AttributionProfile.devices`): how busy each lane is inside the
  wall-clock its phases span;
- **folded-stack flamegraphs** (:func:`folded_stacks`): one
  ``phase;lane;record`` stack per attributed record in the Brendan-Gregg
  collapsed format that FlameGraph and speedscope both import, as a
  drill-down companion to the Perfetto export in :mod:`repro.obs.export`.

Queue wait and retry backoff complete the serving picture: backoff is in
the trace (the failover path prepends a ``kind="backoff"`` record), queue
wait is service accounting *outside* the trace, so it rides on the
profile as a separate field and never participates in the bit-exactness
invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.gpusim.events import KernelRecord, MPIRecord, Trace, TransferRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.results import ScanResult

__all__ = [
    "CATEGORIES",
    "COMMUNICATION_CATEGORIES",
    "AttributionProfile",
    "PhaseAttribution",
    "DeviceTimeline",
    "profile_trace",
    "profile_result",
    "profile_service",
    "folded_stacks",
    "write_folded",
]

#: Canonical attribution categories, in reporting (and summation) order.
CATEGORIES = (
    "compute",
    "lookback_stall",
    "dispatch",
    "h2d",
    "d2h",
    "p2p",
    "host_staged",
    "local",
    "mpi",
    "backoff",
)

#: Categories that count as communication — exactly the records
#: :func:`repro.gpusim.metrics.communication_share` counts: transfer/MPI
#: traffic except host-side dispatch bookkeeping.
COMMUNICATION_CATEGORIES = frozenset(
    {"h2d", "d2h", "p2p", "host_staged", "local", "mpi", "backoff"}
)

#: Bound on the one-ulp walk :func:`_reconcile` falls back to.
_NEXTAFTER_STEPS = 1 << 12


def _attributions(rec) -> tuple[tuple[str, float], ...]:
    """Split one record's time into (category, seconds) parts."""
    if isinstance(rec, KernelRecord):
        if rec.stall_s:
            return (("compute", rec.time_s - rec.stall_s),
                    ("lookback_stall", rec.stall_s))
        return (("compute", rec.time_s),)
    if isinstance(rec, MPIRecord):
        return (("mpi", rec.time_s),)
    kind = getattr(rec, "kind", "")
    if kind in COMMUNICATION_CATEGORIES or kind in ("dispatch", "backoff"):
        return ((kind, rec.time_s),)
    return (("local", rec.time_s),)


@dataclass(frozen=True)
class PhaseAttribution:
    """One phase of the critical path: who set its wall-clock and with what."""

    phase: str
    critical_lane: str
    time_s: float
    #: Critical-lane time split by category (re-associated partial sums;
    #: the profile-level table is the reconciled, bit-exact one).
    categories: dict[str, float]
    #: Serialized busy time of every lane active in this phase.
    lane_busy: dict[str, float]
    #: Whether the critical lane carries communication (transfer/MPI
    #: traffic other than dispatch) — the phase classification
    #: :func:`repro.gpusim.metrics.communication_share` uses.
    is_communication: bool


@dataclass(frozen=True)
class DeviceTimeline:
    """One lane's busy time against the wall-clock of the whole request."""

    lane: str
    busy_s: float
    #: busy_s / total wall-clock (can exceed nothing; idle lanes < 1).
    utilization: float
    #: Busy seconds per phase (phase order), for timeline rendering.
    per_phase: dict[str, float]


@dataclass(frozen=True)
class AttributionProfile:
    """The folded profile of one trace (plus optional serving context)."""

    proposal: str | None
    total_time_s: float
    #: Category seconds over the critical path. Invariant:
    #: ``sum(categories.values()) == total_time_s`` bit-exactly.
    categories: dict[str, float]
    phases: list[PhaseAttribution]
    devices: list[DeviceTimeline]
    #: Fraction of critical-path time in communication categories —
    #: reconciles with :func:`repro.gpusim.metrics.communication_share`.
    communication_share: float
    compute_share: float
    #: Simulated queue wait attributed by the serving layer; *outside*
    #: the trace and the bit-exactness invariant.
    queue_wait_s: float = 0.0
    trace: Trace | None = field(default=None, repr=False, compare=False)

    def folded(self) -> str:
        """Folded-stack rendering of the underlying trace (flamegraph)."""
        if self.trace is None:
            return ""
        return folded_stacks(self.trace, proposal=self.proposal)

    def to_dict(self) -> dict:
        return {
            "proposal": self.proposal,
            "total_time_s": self.total_time_s,
            "queue_wait_s": self.queue_wait_s,
            "categories": dict(self.categories),
            "communication_share": self.communication_share,
            "compute_share": self.compute_share,
            "critical_path": [
                {
                    "phase": p.phase,
                    "critical_lane": p.critical_lane,
                    "time_s": p.time_s,
                    "is_communication": p.is_communication,
                    "categories": dict(p.categories),
                }
                for p in self.phases
            ],
            "devices": [
                {
                    "lane": d.lane,
                    "busy_s": d.busy_s,
                    "utilization": d.utilization,
                    "per_phase": dict(d.per_phase),
                }
                for d in self.devices
            ],
        }

    def format(self) -> str:
        """Human-readable attribution report (the CLI's ``--profile`` view)."""
        total = self.total_time_s
        lines = []
        label = f" [{self.proposal}]" if self.proposal else ""
        lines.append(
            f"attribution{label}: total {total * 1e6:.1f} us simulated "
            f"(compute {self.compute_share:.1%}, "
            f"communication {self.communication_share:.1%})"
        )
        if self.queue_wait_s:
            lines.append(
                f"  queue wait (service, outside trace): "
                f"{self.queue_wait_s * 1e6:.1f} us"
            )
        for cat in CATEGORIES:
            t = self.categories.get(cat, 0.0)
            if t == 0.0:
                continue
            share = t / total if total > 0 else 0.0
            lines.append(f"  {cat:>14}: {t * 1e6:10.1f} us  {share:6.1%}")
        lines.append("critical path (per phase):")
        for p in self.phases:
            tag = "comm" if p.is_communication else "comp"
            lines.append(
                f"  {p.phase:>12} [{tag}] {p.time_s * 1e6:10.1f} us  "
                f"on {p.critical_lane}"
            )
        lines.append("device utilization:")
        for d in self.devices:
            lines.append(
                f"  {d.lane:>12}: {d.busy_s * 1e6:10.1f} us busy  "
                f"{d.utilization:6.1%}"
            )
        return "\n".join(lines)


def _reconcile(categories: dict[str, float], total: float) -> None:
    """Force ``sum(categories.values()) == total`` as float equality.

    The per-category buckets re-associate the same additions the trace
    composition performs lane-by-lane, so they can drift from the
    bit-exact total by a few ulps. Fold the residual into a bucket
    (largest magnitude first — the one guaranteed to have enough
    resolution to absorb it) and re-check, until the plain left-to-right
    sum over the canonical category order reproduces the total exactly.
    """
    order = list(categories)
    for _ in range(64):
        residual = total - sum(categories[c] for c in order)
        if residual == 0.0:
            return
        changed = False
        for target in sorted(order, key=lambda c: (-abs(categories[c]), c)):
            before = categories[target]
            categories[target] = before + residual
            if categories[target] != before:
                changed = True
                break
            categories[target] = before
        if not changed:  # pragma: no cover - residual below every ulp
            break
    # The fold can stall on a one-ulp residual: adding it to a bucket
    # rounds the running sum past the total one way, then back the other.
    # Walk one bucket at a time toward the total, one ulp per step,
    # finest ulp (smallest non-zero bucket) first. The left-to-right sum
    # is monotone in each term, so a walk either lands on the total or
    # steps over it (a round-half-even tie further down the sum can pair
    # values up); a bucket that steps over is restored and the next one
    # tried.
    for target in sorted((c for c in order if categories[c] != 0.0),
                         key=lambda c: (abs(categories[c]), c)):
        before = categories[target]
        direction = total - sum(categories[c] for c in order)
        for _ in range(_NEXTAFTER_STEPS):
            residual = total - sum(categories[c] for c in order)
            if residual == 0.0:
                return
            if (residual > 0.0) != (direction > 0.0):
                break
            categories[target] = math.nextafter(
                categories[target], math.copysign(math.inf, residual))
        categories[target] = before
    raise AssertionError(
        f"category reconciliation failed: residual "
        f"{total - sum(categories[c] for c in order)!r} against {total!r}"
    )


def profile_trace(
    trace: Trace,
    proposal: str | None = None,
    queue_wait_s: float = 0.0,
) -> AttributionProfile:
    """Fold one trace into an :class:`AttributionProfile`.

    One pass over the records accumulates per-(phase, lane) busy time in
    *record order* — the identical float accumulation
    :meth:`Trace.phase_time` performs — so the profile's total and the
    trace's total are the same bits, and the reconciled category table
    sums to it exactly.
    """
    per_phase: dict[str, dict[str, float]] = {}
    lane_cats: dict[tuple[str, str], dict[str, float]] = {}
    carries_comm: dict[tuple[str, str], bool] = {}
    lane_order: list[str] = []
    for rec in trace.records:
        lanes = per_phase.get(rec.phase)
        if lanes is None:
            lanes = per_phase[rec.phase] = {}
        lanes[rec.lane] = lanes.get(rec.lane, 0.0) + rec.time_s
        if rec.lane not in lane_order:
            lane_order.append(rec.lane)
        key = (rec.phase, rec.lane)
        cats = lane_cats.get(key)
        if cats is None:
            cats = lane_cats[key] = {}
        for cat, t in _attributions(rec):
            cats[cat] = cats.get(cat, 0.0) + t
        if not carries_comm.get(key, False):
            carries_comm[key] = isinstance(
                rec, (TransferRecord, MPIRecord)
            ) and getattr(rec, "kind", "") != "dispatch"

    phases: list[PhaseAttribution] = []
    breakdown: dict[str, float] = {}
    for phase, lanes in per_phase.items():
        critical = max(lanes, key=lambda lane: lanes[lane])
        breakdown[phase] = lanes[critical]
        phases.append(PhaseAttribution(
            phase=phase,
            critical_lane=critical,
            time_s=lanes[critical],
            categories=dict(lane_cats[(phase, critical)]),
            lane_busy=dict(lanes),
            is_communication=carries_comm[(phase, critical)],
        ))
    total = sum(breakdown.values())

    categories = {cat: 0.0 for cat in CATEGORIES}
    for p in phases:
        for cat, t in p.categories.items():
            categories[cat] = categories.get(cat, 0.0) + t
    _reconcile(categories, total)

    comm = sum(categories[c] for c in CATEGORIES
               if c in COMMUNICATION_CATEGORIES)
    communication_share = comm / total if total > 0 else 0.0

    devices: list[DeviceTimeline] = []
    for lane in lane_order:
        per_phase_busy = {
            phase: lanes[lane]
            for phase, lanes in per_phase.items() if lane in lanes
        }
        busy = sum(per_phase_busy.values())
        devices.append(DeviceTimeline(
            lane=lane,
            busy_s=busy,
            utilization=busy / total if total > 0 else 0.0,
            per_phase=per_phase_busy,
        ))

    return AttributionProfile(
        proposal=proposal,
        total_time_s=total,
        categories=categories,
        phases=phases,
        devices=devices,
        communication_share=communication_share,
        compute_share=1.0 - communication_share if total > 0 else 0.0,
        queue_wait_s=queue_wait_s,
        trace=trace,
    )


def profile_result(result: "ScanResult") -> AttributionProfile:
    """Profile one :class:`~repro.core.results.ScanResult`'s trace."""
    return profile_trace(result.trace, proposal=result.proposal)


def profile_service(service) -> dict:
    """Aggregate attribution over a :class:`~repro.serve.ScanService`.

    Returns ``{"per_proposal": {label: summed category seconds},
    "profiles": [AttributionProfile per batch], "queue_wait_s": ...}``.
    Per-batch profiles keep the bit-exactness invariant (each against its
    own trace); the per-proposal roll-up is a plain float sum across
    batches and adds the service's queue-wait accounting, which lives
    outside the traces.
    """
    profiles: list[AttributionProfile] = []
    per_proposal: dict[str, dict[str, float]] = {}
    for batch in service.batches:
        if batch.result is None:
            continue
        prof = profile_result(batch.result)
        prof = AttributionProfile(
            proposal=prof.proposal,
            total_time_s=prof.total_time_s,
            categories=prof.categories,
            phases=prof.phases,
            devices=prof.devices,
            communication_share=prof.communication_share,
            compute_share=prof.compute_share,
            queue_wait_s=batch.queue_wait_s,
            trace=prof.trace,
        )
        profiles.append(prof)
        agg = per_proposal.setdefault(
            prof.proposal or "?", {cat: 0.0 for cat in CATEGORIES}
        )
        for cat, t in prof.categories.items():
            agg[cat] += t
    return {
        "per_proposal": per_proposal,
        "profiles": profiles,
        "queue_wait_s": service.total_queue_wait_s,
    }


# ------------------------------------------------------------------ flamegraph


def _record_frame(rec) -> str:
    name = getattr(rec, "name", None) or getattr(rec, "op", None)
    return name if name is not None else getattr(rec, "kind", type(rec).__name__)


def folded_stacks(trace: Trace, proposal: str | None = None) -> str:
    """The trace in Brendan-Gregg collapsed-stack format.

    One line per distinct ``phase;lane;record`` stack (kernels with an
    exposed stall split a ``;stall`` leaf off), valued in integer
    nanoseconds of *busy* time — flamegraph semantics show resource
    occupancy, so parallel lanes legitimately sum past wall-clock. Both
    ``flamegraph.pl`` and https://speedscope.app import this directly.
    """
    root = proposal or "scan"
    totals: dict[str, int] = {}
    for rec in trace.records:
        frame = _record_frame(rec)
        base = f"{root};{rec.phase};{rec.lane};{frame}"
        if isinstance(rec, KernelRecord) and rec.stall_s:
            parts = ((base, rec.time_s - rec.stall_s),
                     (base + ";stall", rec.stall_s))
        else:
            parts = ((base, rec.time_s),)
        for stack, t in parts:
            ns = round(t * 1e9)
            if ns <= 0:
                continue
            totals[stack] = totals.get(stack, 0) + ns
    return "\n".join(f"{stack} {ns}" for stack, ns in totals.items()) + (
        "\n" if totals else ""
    )


def write_folded(path: str, trace: Trace, proposal: str | None = None) -> str:
    """Write :func:`folded_stacks` output to ``path``; returns the path."""
    with open(path, "w") as fh:
        fh.write(folded_stacks(trace, proposal=proposal))
    return path
