"""Perf smoke test: the serving suite's warm path beats its cold path.

Runs the ``serving`` bench suite (:mod:`repro.bench.suites`) at its smoke
size so it finishes in seconds. The cold arm pays a fresh machine,
session and K sweep per call; the warm arm reuses one pooled session. At
toy sizes the ratio is dominated by per-call construction, so the smoke
test only demands the direction — warm must not be slower than cold —
which still catches a broken session cache (every call missing) or a
pool that thrashes.

Marked ``perf``: wall-clock assertions are load-sensitive, so CI can
deselect them with ``-m "not perf"``.
"""

import numpy as np
import pytest

from repro.bench.regression import run_suite
from repro.bench.suites import REGISTRY

pytestmark = pytest.mark.perf


def test_warm_serving_not_slower_than_cold():
    result = run_suite("serving", smoke=True)
    payload = result["payload"]
    table = REGISTRY["serving"].table(result["params"], payload)
    for proposal, row in payload["proposals"].items():
        assert row["warm_speedup"] >= 1.0, f"{proposal} slower warm than cold:\n{table}"
    assert np.isfinite(payload["geomean_warm_speedup"])
