"""Bench-suite registry and drift gate: ``repro bench run`` / ``check``.

The committed baselines record deterministic simulated time, so the gate
must (a) pass against the repo's own baselines, (b) flag a tampered
baseline as drift with a failure that names the field, for every
registered suite, (c) treat a missing baseline as skipped rather than
failed, and (d) reject unknown suite names loudly. ``run_suite`` is the
only writer: its envelope must gate clean, and a smoke run never writes.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.bench.regression import (
    SCHEMA,
    SUITES,
    _leaves,
    format_report,
    run_checks,
    run_suite,
)
from repro.bench.suites import REGISTRY

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestDriver:
    def test_unknown_suite_raises(self, tmp_path):
        with pytest.raises(ValueError, match="unknown bench suite"):
            run_checks(repo_root=tmp_path, only=["serving", "nope"])

    def test_missing_baselines_are_skipped_not_failed(self, tmp_path):
        report = run_checks(repo_root=tmp_path)
        assert report["ok"]
        assert set(report["suites"]) == set(SUITES)
        for suite in report["suites"].values():
            assert suite["skipped"] and suite["checked"] == 0
        assert "skipped" in format_report(report)

    def test_only_restricts_suites(self, tmp_path):
        report = run_checks(repo_root=tmp_path, only=["obs_overhead"])
        assert list(report["suites"]) == ["obs_overhead"]

    def test_every_baseline_is_an_envelope(self):
        for name, suite in REGISTRY.items():
            envelope = json.loads((REPO_ROOT / suite.baseline).read_text())
            assert set(envelope) == {"schema", "suite", "params", "env", "payload"}
            assert envelope["schema"] == SCHEMA and envelope["suite"] == name
            # The recorded params are the suite's own: a replay re-runs
            # exactly the experiment a fresh `bench run` would.
            assert envelope["params"] == json.loads(json.dumps(suite.params))

    def test_non_envelope_baseline_is_drift(self, tmp_path):
        (tmp_path / "BENCH_obs_overhead.json").write_text('{"enabled_ratio": 1.0}')
        report = run_checks(repo_root=tmp_path, only=["obs_overhead"])
        assert not report["ok"]
        assert "envelope" in report["suites"]["obs_overhead"]["failures"][0]


class TestRunSuite:
    def test_smoke_never_writes(self, tmp_path):
        with pytest.raises(ValueError, match="smoke"):
            run_suite("single_pass", smoke=True, write=True, repo_root=tmp_path)
        result = run_suite("serve", smoke=True)
        assert result["written"] is None and not result["failures"]
        assert result["params"]["requests"] == 16
        assert not list(tmp_path.iterdir())

    def test_written_envelope_gates_clean(self, tmp_path):
        result = run_suite("single_pass", write=True, repo_root=tmp_path)
        assert not result["failures"]
        assert result["written"] == str(tmp_path / "BENCH_single_pass.json")
        assert result["env"] is None  # analytic estimates, no host figures
        committed = json.loads((REPO_ROOT / "BENCH_single_pass.json").read_text())
        assert result["payload"] == committed["payload"]
        report = run_checks(repo_root=tmp_path, only=["single_pass"])
        assert report["ok"], format_report(report)


class TestAgainstCommittedBaselines:
    def test_obs_overhead_passes(self):
        report = run_checks(repo_root=REPO_ROOT, only=["obs_overhead"])
        assert report["ok"], format_report(report)
        assert report["suites"]["obs_overhead"]["checked"] >= 2

    def test_single_pass_sweep_passes(self):
        report = run_checks(repo_root=REPO_ROOT, only=["single_pass"])
        assert report["ok"], format_report(report)
        assert report["suites"]["single_pass"]["checked"] > 100
        assert "PASS" in format_report(report)


def tampered(tmp_path: Path, filename: str, mutate) -> Path:
    """Copy one committed baseline into tmp_path with its payload perturbed."""
    envelope = json.loads((REPO_ROOT / filename).read_text())
    mutate(envelope["payload"])
    (tmp_path / filename).write_text(json.dumps(envelope))
    return tmp_path


def _perturb(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value * 2.0 + 1.0
    return f"{value}-tampered"


#: The payload field a baseline bar holds, for suites that replay nothing.
BAR_ONLY_FIELDS = {"obs_overhead": "enabled_ratio"}


def _gated_path(name: str) -> str:
    """The first gated payload path of a suite."""
    suite = REGISTRY[name]
    if not suite.fields:
        return BAR_ONLY_FIELDS[name]
    payload = json.loads((REPO_ROOT / suite.baseline).read_text())["payload"]
    return next(_leaves(payload, suite.fields[0].path))[0]


def _set(tree: dict, path: str) -> None:
    *parents, leaf = path.split(".")
    for part in parents:
        tree = tree[int(part)] if isinstance(tree, list) else tree[part]
    tree[leaf] = _perturb(tree[leaf])


@pytest.mark.usefixtures("untimed_restart_floor")
class TestTamperDetection:
    @pytest.mark.parametrize("name", SUITES)
    def test_perturbed_gated_field_is_drift(self, tmp_path, name):
        path = _gated_path(name)
        root = tampered(tmp_path, REGISTRY[name].baseline,
                        lambda payload: _set(payload, path))
        report = run_checks(repo_root=root, only=[name])
        assert not report["ok"]
        assert "DRIFTED" in format_report(report)
        leaf = path.rsplit(".", 1)[-1]
        assert any(leaf in failure for failure in report["suites"][name]["failures"])

    @pytest.mark.parametrize("name", SUITES)
    def test_untouched_copy_passes(self, tmp_path, name):
        baseline = REGISTRY[name].baseline
        shutil.copy(REPO_ROOT / baseline, tmp_path / baseline)
        report = run_checks(repo_root=tmp_path, only=[name])
        assert report["ok"], format_report(report)

    def test_blown_overhead_budget_is_drift(self, tmp_path):
        def mutate(payload):
            payload["enabled_ratio"] = payload["max_enabled_ratio"] * 2
        root = tampered(tmp_path, "BENCH_obs_overhead.json", mutate)
        report = run_checks(repo_root=root, only=["obs_overhead"])
        assert not report["ok"]
        assert "enabled_ratio" in report["suites"]["obs_overhead"]["failures"][0]
        assert "DRIFTED" in format_report(report) and "FAIL" in format_report(report)

    def test_blown_profile_budget_is_drift(self, tmp_path):
        def mutate(payload):
            payload["profile_ratio"] = payload["max_profile_ratio"] + 1.0
        root = tampered(tmp_path, "BENCH_obs_overhead.json", mutate)
        report = run_checks(repo_root=root, only=["obs_overhead"])
        assert not report["ok"]
        assert "profile_ratio" in report["suites"]["obs_overhead"]["failures"][0]

    def test_perturbed_analytic_time_is_drift(self, tmp_path):
        def mutate(payload):
            series = next(iter(payload["series"].values()))
            series[0]["sp_s"] *= 1.01          # 1% >> the 1e-9 tolerance
        root = tampered(tmp_path, "BENCH_single_pass.json", mutate)
        report = run_checks(repo_root=root, only=["single_pass"])
        assert not report["ok"]
        assert any("sp_s" in failure
                   for failure in report["suites"]["single_pass"]["failures"])

    def test_perturbed_crossover_frontier_is_drift(self, tmp_path):
        def mutate(payload):
            key = next(iter(payload["crossover_n_log2"]))
            payload["crossover_n_log2"][key] = 5
        root = tampered(tmp_path, "BENCH_single_pass.json", mutate)
        report = run_checks(repo_root=root, only=["single_pass"])
        assert not report["ok"]
        assert any("crossover" in failure
                   for failure in report["suites"]["single_pass"]["failures"])

    def test_deleted_gated_field_is_drift(self, tmp_path):
        root = tampered(tmp_path, "BENCH_serve.json",
                        lambda payload: payload["cells"]["sp/burst"].pop("batches"))
        report = run_checks(repo_root=root, only=["serve"])
        assert not report["ok"]
        assert any("cells.sp/burst.batches: missing from the baseline" in failure
                   for failure in report["suites"]["serve"]["failures"])

    def test_untouched_copy_still_passes(self, tmp_path):
        shutil.copy(REPO_ROOT / "BENCH_single_pass.json",
                    tmp_path / "BENCH_single_pass.json")
        report = run_checks(repo_root=tmp_path, only=["single_pass"])
        assert report["ok"]
