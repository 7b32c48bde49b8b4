"""Attribution profiler: bit-exact folding of traces into categories.

The load-bearing acceptance properties:

- for **every** registered proposal, the profiler's category table sums
  to the trace's end-to-end simulated time as *float equality* — the
  fold replays the trace composition rule, it does not approximate it;
- the profile's communication share is the same number
  :func:`repro.gpusim.metrics.communication_share` computes (same
  critical-lane selection, same comm classification), checked exactly on
  the multi-GPU proposals and within 1% on sp-dlb per the acceptance
  criterion;
- the per-phase critical path reproduces ``trace.breakdown()`` and the
  folded-stack export is flamegraph-parseable.
"""

import json
import re

import numpy as np
import pytest

from repro.core.api import scan
from repro.core.autotune_cache import AutotuneCache
from repro.core.health import RetryPolicy
from repro.core.params import ProblemConfig
from repro.core.session import ScanSession
from repro.gpusim.events import Trace
from repro.gpusim.faults import DeviceDown, FaultSchedule
from repro.errors import AllocationError
from repro.gpusim.metrics import communication_share
from repro.interconnect.topology import tsubame_kfc
from repro.obs.profile import (
    CATEGORIES,
    COMMUNICATION_CATEGORIES,
    AttributionProfile,
    folded_stacks,
    profile_result,
    profile_service,
    profile_trace,
    write_folded,
)

#: Every registered proposal on a legal placement (mirrors
#: tests/test_differential.py so new proposals break this file too).
PROPOSALS = [
    ("sp", {}, 1),
    ("pp", {"W": 4}, 1),
    ("mps", {"W": 4, "V": 4}, 1),
    ("mppc", {"W": 8, "V": 4}, 1),
    ("mn-mps", {"W": 4, "V": 4, "M": 2}, 2),
    ("chained", {}, 1),
    ("sp-dlb", {}, 1),
]


def run_scan(rng, proposal, kwargs, nodes, g=8, n=1 << 11):
    data = rng.integers(-40, 90, (g, n)).astype(np.int64)
    return scan(data, topology=tsubame_kfc(nodes), proposal=proposal, **kwargs)


class TestBitExactness:
    """sum(categories) == trace.total_time(), proposal by proposal."""

    @pytest.mark.parametrize("proposal,kwargs,nodes", PROPOSALS,
                             ids=[p[0] for p in PROPOSALS])
    def test_categories_sum_to_total_bit_exactly(self, rng, proposal,
                                                 kwargs, nodes):
        result = run_scan(rng, proposal, kwargs, nodes)
        profile = profile_result(result)
        total = result.trace.total_time()
        assert profile.total_time_s == total  # same bits, not approx
        assert sum(profile.categories.values()) == total
        # The category table covers the canonical taxonomy, nothing else.
        assert tuple(profile.categories) == CATEGORIES

    @pytest.mark.parametrize("proposal,kwargs,nodes", PROPOSALS,
                             ids=[p[0] for p in PROPOSALS])
    def test_critical_path_reproduces_breakdown(self, rng, proposal,
                                                kwargs, nodes):
        result = run_scan(rng, proposal, kwargs, nodes)
        profile = profile_result(result)
        assert {p.phase: p.time_s for p in profile.phases} == \
            result.trace.breakdown()

    def test_queue_wait_stays_outside_the_invariant(self, rng):
        result = run_scan(rng, "mps", {"W": 4, "V": 4}, 1)
        profile = profile_trace(result.trace, queue_wait_s=1.0)
        assert profile.queue_wait_s == 1.0
        assert sum(profile.categories.values()) == result.trace.total_time()

    def test_backoff_lands_in_its_category_and_still_sums(self, rng):
        """A degraded (failed-over) trace carries a backoff record; the
        fold must attribute it and keep the exact-sum invariant."""
        machine = tsubame_kfc(1)
        machine.install_faults(FaultSchedule([DeviceDown(at_call=2, gpu_id=1)]))
        session = ScanSession(machine,
                              retry_policy=RetryPolicy(backoff_base_s=1e-3))
        data = rng.integers(-40, 90, (8, 1 << 11)).astype(np.int64)
        result = session.scan(data, proposal="mps", W=4, V=4)
        profile = profile_result(result)
        assert profile.categories["backoff"] > 0
        assert sum(profile.categories.values()) == result.trace.total_time()

    def test_empty_trace_profiles_to_zero(self):
        profile = profile_trace(Trace())
        assert profile.total_time_s == 0
        assert profile.communication_share == 0.0
        assert profile.compute_share == 0.0
        assert profile.phases == [] and profile.devices == []


#: The estimate grid: every serving proposal (``auto`` included) on the
#: placement it runs at, over the paper's size range and batch widths.
ESTIMATE_PLACEMENTS = {
    "sp": dict(W=1, V=1, M=1), "pp": dict(W=4, V=4, M=1),
    "mps": dict(W=4, V=4, M=1), "mppc": dict(W=8, V=4, M=1),
    "mn-mps": dict(W=4, V=4, M=2), "sp-dlb": dict(W=1, V=1, M=1),
    "auto": dict(W=1, V=1, M=1),
}


@pytest.fixture(scope="module")
def estimate_session():
    return ScanSession(tsubame_kfc(2), autotune_cache=AutotuneCache())


class TestEstimateGridReconciles:
    """A one-ulp residual must not stall the reconciliation: every
    estimate trace of the grid folds to its exact total."""

    @pytest.mark.parametrize("dtype", ["int32", "float32", "int64"])
    @pytest.mark.parametrize("proposal", list(ESTIMATE_PLACEMENTS))
    def test_categories_sum_exactly(self, estimate_session, proposal, dtype):
        profiled = 0
        for n_log2 in range(10, 29):
            for g in (1, 4, 16, 64):
                problem = ProblemConfig.from_sizes(1 << n_log2, g, dtype)
                try:
                    result = estimate_session.estimate(
                        problem, proposal=proposal,
                        **ESTIMATE_PLACEMENTS[proposal])
                except AllocationError:
                    continue  # larger than the simulated device memory
                profile = profile_trace(result.trace)
                assert (sum(profile.categories.values())
                        == result.trace.total_time()), (n_log2, g)
                profiled += 1
        assert profiled >= 60


class TestCommunicationShare:
    """The profiler and repro.gpusim.metrics must not disagree."""

    @pytest.mark.parametrize("proposal,kwargs,nodes", PROPOSALS,
                             ids=[p[0] for p in PROPOSALS])
    def test_share_matches_metrics_exactly(self, rng, proposal, kwargs, nodes):
        result = run_scan(rng, proposal, kwargs, nodes)
        profile = profile_result(result)
        assert profile.communication_share == communication_share(result.trace)
        assert profile.compute_share == 1.0 - profile.communication_share

    def test_sp_dlb_share_within_one_percent(self, rng):
        """The acceptance criterion stated as a bound (the equality above
        is stronger; this pins the criterion itself)."""
        result = run_scan(rng, "sp-dlb", {}, 1)
        profile = profile_result(result)
        assert abs(profile.communication_share
                   - communication_share(result.trace)) <= 0.01

    def test_mn_mps_is_communication_heavy(self, rng):
        """Multi-node scattering pays MPI collectives on the critical
        path — the profile must show a nonzero comm share and attribute
        it to the mpi category."""
        result = run_scan(rng, "mn-mps", {"W": 4, "V": 4, "M": 2}, 2)
        profile = profile_result(result)
        assert profile.communication_share > 0
        assert profile.categories["mpi"] > 0
        comm = sum(profile.categories[c] for c in CATEGORIES
                   if c in COMMUNICATION_CATEGORIES)
        assert profile.communication_share == comm / profile.total_time_s

    def test_sp_dlb_exposes_lookback_stall(self, rng):
        result = run_scan(rng, "sp-dlb", {}, 1)
        profile = profile_result(result)
        assert profile.categories["lookback_stall"] > 0
        assert profile.categories["compute"] > 0


class TestViews:
    def test_device_timelines_cover_every_lane(self, rng):
        result = run_scan(rng, "mps", {"W": 4, "V": 4}, 1)
        profile = profile_result(result)
        lanes = {rec.lane for rec in result.trace.records}
        assert {d.lane for d in profile.devices} == lanes
        for device in profile.devices:
            assert device.busy_s == sum(device.per_phase.values())
            assert 0 <= device.utilization <= 1.0 + 1e-12

    def test_result_profile_method(self, rng):
        result = run_scan(rng, "mps", {"W": 4, "V": 4}, 1)
        profile = result.profile()
        assert isinstance(profile, AttributionProfile)
        assert profile.proposal == result.proposal
        assert profile.total_time_s == result.trace.total_time()

    def test_to_dict_is_json_serializable(self, rng):
        result = run_scan(rng, "mn-mps", {"W": 4, "V": 4, "M": 2}, 2)
        payload = json.loads(json.dumps(profile_result(result).to_dict()))
        assert payload["proposal"] == result.proposal
        assert set(payload["categories"]) == set(CATEGORIES)
        assert payload["critical_path"] and payload["devices"]

    def test_format_mentions_shares_and_critical_path(self, rng):
        result = run_scan(rng, "mn-mps", {"W": 4, "V": 4, "M": 2}, 2)
        text = profile_result(result).format()
        assert "communication" in text and "critical path" in text
        assert "[comm]" in text and "[comp]" in text


class TestFoldedStacks:
    LINE = re.compile(r"^[^;]+;[^;]+;[^;]+;\S+ \d+$")

    def test_lines_are_collapsed_stack_format(self, rng):
        result = run_scan(rng, "mps", {"W": 4, "V": 4}, 1)
        folded = folded_stacks(result.trace, proposal=result.proposal)
        assert folded.endswith("\n")
        lines = folded.splitlines()
        assert lines
        for line in lines:
            assert self.LINE.match(line), line
            assert line.startswith(f"{result.proposal};")

    def test_stall_leaf_split_for_sp_dlb(self, rng):
        result = run_scan(rng, "sp-dlb", {}, 1)
        folded = folded_stacks(result.trace)
        assert any(";stall " in line for line in folded.splitlines())

    def test_busy_nanoseconds_match_record_sum(self, rng):
        """Folded values are busy time (occupancy), so they sum to the
        per-record total, not the composed wall-clock."""
        result = run_scan(rng, "mps", {"W": 4, "V": 4}, 1)
        folded = folded_stacks(result.trace)
        folded_ns = sum(int(line.rsplit(" ", 1)[1])
                        for line in folded.splitlines())
        busy_ns = sum(round(rec.time_s * 1e9) for rec in result.trace.records)
        assert folded_ns == busy_ns

    def test_write_folded_round_trips(self, rng, tmp_path):
        result = run_scan(rng, "mps", {"W": 4, "V": 4}, 1)
        path = write_folded(str(tmp_path / "scan.folded"), result.trace,
                            proposal=result.proposal)
        assert (tmp_path / "scan.folded").read_text() == \
            folded_stacks(result.trace, proposal=result.proposal)
        assert path == str(tmp_path / "scan.folded")

    def test_empty_trace_folds_to_empty_string(self):
        assert folded_stacks(Trace()) == ""


class TestProfileService:
    def test_per_batch_profiles_keep_invariant(self, rng):
        service = ScanSession(tsubame_kfc(1)).service(max_batch=4,
                                                      proposal="mps",
                                                      W=4, V=4)
        for _ in range(8):
            service.submit(rng.integers(-40, 90, 1 << 10).astype(np.int64))
        service.drain()
        report = profile_service(service)
        assert report["profiles"]
        for profile in report["profiles"]:
            assert sum(profile.categories.values()) == \
                profile.trace.total_time()
        assert report["queue_wait_s"] == service.total_queue_wait_s
        label = report["profiles"][0].proposal
        roll_up = report["per_proposal"][label]
        for cat in CATEGORIES:
            assert roll_up[cat] == pytest.approx(
                sum(p.categories[cat] for p in report["profiles"]
                    if p.proposal == label)
            )
