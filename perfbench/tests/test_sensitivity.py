"""Self-tests of the benchmark: it measures what it claims to.

Run from the repository root (they take a few minutes)::

    python3 -m pytest perfbench/tests -q

Sensitivity: for one public function per layer group, a fixed delay is
patched in (in this test process only). The end-to-end metric that layer
should move must get worse by more than its bound on the workload that
stresses the layer, and stay within its bound on a workload that bypasses
it. Patched and unpatched passes alternate inside one run, so both sides
see the same host conditions.

A delay is interpreter work, the speed probe's own loop, sized so that at
the reference host speed the expected move is about twice the bound (on a
2-vCPU Xeon VM: 0.46, 0.47 and 0.52 against 0.25): a regression not far
past the bound is caught after the host-speed scaling and the per-request
medians, not only a gross one.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
from repro.cluster.router import ClusterRouter  # noqa: E402
from repro.core.executor import PlanResolver  # noqa: E402
from repro.gpusim.kernel import ExecutionEngine  # noqa: E402
from workloads import PROBE_LOOPS, WORKLOADS  # noqa: E402

BOUNDS = {m["name"]: (m["bound"], m["better"]) for m in
          json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def _work(ref_s: float) -> None:
    """Interpreter work that takes ``ref_s`` at the reference host speed."""
    d: dict = {}
    for i in range(round(ref_s / run.PROBE_REF_S * PROBE_LOOPS)):
        d[i & 255] = d.get(i & 255, 0) + i


def _delayed(fn, delay_s: float, switch: dict, when=None):
    def wrapper(*args, **kwargs):
        if not switch["on"]:
            return fn(*args, **kwargs)
        if when is None:
            _work(delay_s)
            return fn(*args, **kwargs)
        return when(fn, args, kwargs, delay_s)

    return wrapper


def _sp_dlb_body_only(fn, args, kwargs, delay_s):
    body = args[2] if len(args) > 2 else kwargs["body"]
    if "single_pass" in body.__qualname__:
        _work(delay_s)
    return fn(*args, **kwargs)


def _resolver_misses_only(fn, args, kwargs, delay_s):
    resolver = args[0]
    misses = resolver.misses
    out = fn(*args, **kwargs)
    if resolver.misses != misses:
        _work(delay_s)
    return out


#: (class, method, delay s at reference speed, condition, metric, stressed
#: workload, bypassed workload, passes per side). Delays against the
#: medians in NOTES.md: 0.035 ms per submit on a 0.083 ms p50; 110 ms per
#: sp-dlb body (one per sp-dlb request) on a ~260 ms p75 that lies among
#: the sp-dlb requests; 0.4 ms per resolver miss, ~1250 misses on a
#: ~1.2 s pass.
PAIRS = [
    (ClusterRouter, "submit", 0.035e-3, None,
     "wall_p50_ms", "cluster_mixed", "paper_sweep", 3),
    (ExecutionEngine, "run", 0.11, _sp_dlb_body_only,
     "wall_tail_ms", "bulk_large", "cluster_mixed", 2),
    (PlanResolver, "resolve", 0.4e-3, _resolver_misses_only,
     "req_per_s", "paper_sweep", "cluster_mixed", 3),
]


def _alternating(name: str, switch: dict, passes: int, tmp_path: Path):
    """(unpatched metrics, patched metrics) from alternating passes."""
    workload = WORKLOADS[name](7, tmp_path / name)
    workload.warm_process()
    sides = {False: [], True: []}
    for i in range(2 * passes):
        switch["on"] = bool(i % 2)
        sides[switch["on"]].append(run.probed_pass(workload))
    switch["on"] = False
    for side in sides.values():
        assert all(p.failed == 0 for p in side)
    return (run.end_to_end(workload, sides[False])[0],
            run.end_to_end(workload, sides[True])[0])


def _worse_by(metric: str, base: float, patched: float) -> float:
    _, better = BOUNDS[metric]
    return (base / patched - 1.0) if better == "higher" else (patched / base - 1.0)


@pytest.mark.parametrize("cls,attr,delay,when,metric,stressed,bypassed,passes",
                         PAIRS, ids=[f"{p[0].__name__}.{p[1]}" for p in PAIRS])
def test_delay_moves_only_the_stressing_workload(
        cls, attr, delay, when, metric, stressed, bypassed, passes,
        tmp_path, monkeypatch):
    switch = {"on": False}
    monkeypatch.setattr(cls, attr, _delayed(vars(cls)[attr], delay, switch,
                                            when))
    bound, _ = BOUNDS[metric]

    base, patched = _alternating(stressed, switch, passes, tmp_path)
    moved = _worse_by(metric, base[metric], patched[metric])
    assert moved > bound, (stressed, metric, base[metric], patched[metric])

    base, patched = _alternating(bypassed, switch, passes, tmp_path)
    drift = _worse_by(metric, base[metric], patched[metric])
    assert drift <= bound, (bypassed, metric, base[metric], patched[metric])


def _run_in(checkout: Path, env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cluster_mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True, timeout=180)


def test_refuses_to_run_without_the_checkouts_sources(tmp_path):
    """Only BENCHMARK.json and the benchmark present: no result, exit != 0,
    even when another copy of ``repro`` is importable."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_out",
                                                  "__pycache__"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = _run_in(tmp_path, env)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
    assert "cannot run" in out.stderr


def test_refuses_a_repro_that_is_not_from_src(tmp_path):
    """A ``repro`` found first elsewhere on the path is rejected."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_out",
                                                  "__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    impostor = tmp_path / "elsewhere" / "repro"
    impostor.mkdir(parents=True)
    (impostor / "__init__.py").write_text("")
    # Imported at interpreter start-up, before run.py puts src first.
    (tmp_path / "elsewhere" / "sitecustomize.py").write_text("import repro\n")
    env = dict(os.environ, PYTHONPATH=str(tmp_path / "elsewhere"))
    out = _run_in(tmp_path, env)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
    assert "not from" in out.stderr
