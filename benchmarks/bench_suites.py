"""Every registered bench suite (:mod:`repro.bench.suites`) at full size.

Regenerates each suite's table under ``benchmarks/results/`` (file names
below) and asserts every bar a full run must meet. It never writes a
``BENCH_*.json`` baseline: ``repro bench run SUITE --write`` is the only
writer, and ``repro bench check`` the drift gate.
"""

import pytest

from repro.bench.regression import SUITES, run_suite
from repro.bench.suites import REGISTRY

#: Suite -> archived table name in ``benchmarks/results/``.
RESULT_NAMES = {
    "serving": "serving_throughput",
    "single_pass": "single_pass_crossover",
    "serve": "serve_coalescing",
    "obs_overhead": "obs_overhead",
    "restart": "restart",
    "cluster": "cluster",
    "adaptive": "adaptive",
}


@pytest.mark.parametrize("name", SUITES)
def test_suite(name, report):
    result = run_suite(name)
    report(RESULT_NAMES[name],
           REGISTRY[name].table(result["params"], result["payload"]))
    assert result["written"] is None
    assert not result["failures"], result["failures"]
