"""Run the registered bench suites and gate their committed baselines.

Every baseline is one envelope, ``{schema, suite, params, env, payload}``,
written only by :func:`run_suite` (``repro bench run SUITE --write``):
``params`` are the JSON-pure inputs the suite's ``run`` took, ``payload``
is what it returned, and ``env`` records the host that measured the
wall-clock figures (``null`` when the payload holds none, or when the
host is unknown).

:func:`run_checks` (``repro bench check``) is the drift gate. Per suite
(see :mod:`repro.bench.suites` for what each one gates) it

- checks the ``bars`` and ``baseline_bars`` on the committed payload;
- replays the *recorded* params through the same ``run`` (when the suite
  gates any field or has bars), compares each gated field against the
  baseline, and checks the ``bars`` on the replay.

Simulated time is a closed form of the plan geometry, so most gated
fields reproduce bit-exactly; wall-clock figures are never compared, only
held to their bars. A missing baseline marks its suite skipped — absent
history is not drift.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path

import numpy as np

from repro.bench.suites import REGISTRY, Suite

__all__ = ["SCHEMA", "SUITES", "run_suite", "run_checks", "format_report"]

#: Version of the baseline envelope.
SCHEMA = 1

#: Registered suite names, in reporting order.
SUITES = tuple(REGISTRY)

_MISSING = object()


def _suite(name: str) -> Suite:
    if name not in REGISTRY:
        raise ValueError(f"unknown bench suite {name!r}; known: {', '.join(SUITES)}")
    return REGISTRY[name]


def _env() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(), "cpus": os.cpu_count()}


def _bar_failures(bars, params: dict, payload: dict, where: str) -> list[str]:
    """Check each bar on ``(params, payload)``; one message per failure."""
    failures = []
    for bar in bars:
        try:
            ok, why = bool(bar.check(params, payload)), "does not hold"
        except Exception as exc:  # a bar over a malformed payload fails
            ok, why = False, f"raised {type(exc).__name__}: {exc}"
        if not ok:
            failures.append(f"{where}: bar `{bar.text}` {why}")
    return failures


def _leaves(tree, path: str):
    """Yield ``(concrete path, value)`` pairs; ``*`` fans out over keys."""
    def walk(node, parts, prefix):
        if not parts:
            yield prefix, node
            return
        head, rest = parts[0], parts[1:]
        if head == "*" and isinstance(node, (dict, list)):
            keys = node if isinstance(node, dict) else range(len(node))
            for key in keys:
                yield from walk(node[key], rest, f"{prefix}.{key}".lstrip("."))
        elif isinstance(node, dict) and head in node:
            yield from walk(node[head], rest, f"{prefix}.{head}".lstrip("."))
        else:
            yield ".".join(filter(None, [prefix, *parts])), _MISSING
    yield from walk(tree, path.split("."), "")


def _lookup(tree, path: str):
    for part in path.split("."):
        if isinstance(tree, dict) and part in tree:
            tree = tree[part]
        elif isinstance(tree, list) and part.isdigit() and int(part) < len(tree):
            tree = tree[int(part)]
        else:
            return _MISSING
    return tree


def _field_failure(path: str, tol: float | None, replayed, recorded) -> str | None:
    if recorded is _MISSING or replayed is _MISSING:
        side = "baseline" if recorded is _MISSING else "replay"
        return f"{path}: missing from the {side}"
    numeric = all(isinstance(v, (int, float)) for v in (replayed, recorded))
    if tol is None or not numeric or recorded == 0.0:
        if replayed == recorded:
            return None
        return f"{path}: replayed {replayed!r} != recorded {recorded!r}"
    drift = abs(replayed / recorded - 1.0)
    if drift <= tol:
        return None
    return (f"{path}: ratio {replayed / recorded!r} off 1.0 "
            f"(replayed {replayed!r}, recorded {recorded!r}, tol {tol:g})")


def run_suite(name: str, *, smoke: bool = False, write: bool = False,
              repo_root: str | os.PathLike | None = None) -> dict:
    """Run one suite; with ``write``, record it as the suite's baseline.

    ``smoke`` swaps in the suite's smaller params and checks only the
    size-independent ``bars``; a full run must also meet the
    ``baseline_bars``. A baseline is written only from a full run that
    meets every bar. Returns the envelope plus ``failures`` and
    ``written`` (the baseline path, or ``None``).
    """
    suite = _suite(name)
    if smoke and write:
        raise ValueError("a smoke run is not a baseline; drop --smoke to --write")
    params = json.loads(json.dumps({**suite.params, **(suite.smoke if smoke else {})}))
    payload = suite.run(params)
    bars = suite.bars if smoke else suite.bars + suite.baseline_bars
    envelope = {"schema": SCHEMA, "suite": name, "params": params,
                "env": _env() if suite.wall else None, "payload": payload}
    failures = _bar_failures(bars, params, payload, f"{name} run")
    written = None
    if write and not failures:
        root = Path(repo_root) if repo_root is not None else Path.cwd()
        written = root / suite.baseline
        written.write_text(json.dumps(envelope, indent=2) + "\n")
    return {**envelope, "failures": failures,
            "written": str(written) if written else None}


def _check(suite: Suite, recorded: dict) -> tuple[int, list[str]]:
    """Gate one baseline envelope; returns (checks made, failures)."""
    if (not isinstance(recorded, dict) or recorded.get("schema") != SCHEMA
            or recorded.get("suite") != suite.name):
        return 1, [f"{suite.baseline} is not a schema-{SCHEMA} envelope for "
                   f"suite {suite.name!r}"]
    params, payload = recorded["params"], recorded["payload"]
    bars = suite.bars + suite.baseline_bars
    failures = _bar_failures(bars, params, payload, f"{suite.name} baseline")
    checked = len(bars)
    if not (suite.fields or suite.bars):
        return checked, failures
    try:
        replayed = suite.run(json.loads(json.dumps(params)))
    except Exception as exc:
        return checked + 1, failures + [
            f"{suite.name} replay raised {type(exc).__name__}: {exc}"]
    for field in suite.fields:
        for path, value in _leaves(payload, field.path):
            checked += 1
            failure = _field_failure(path, field.tol, _lookup(replayed, path), value)
            if failure:
                failures.append(f"{suite.name} {failure}")
    failures += _bar_failures(suite.bars, params, replayed, f"{suite.name} replay")
    return checked + len(suite.bars), failures


def run_checks(repo_root: str | os.PathLike | None = None,
               only: list[str] | tuple[str, ...] | None = None) -> dict:
    """Run the drift gate; returns a JSON-friendly report.

    ``repo_root`` is the directory holding the ``BENCH_*.json`` baselines
    (default: the current working directory). ``only`` restricts the
    gate to a subset of :data:`SUITES`.
    """
    root = Path(repo_root) if repo_root is not None else Path.cwd()
    suites = [_suite(name) for name in (only or SUITES)]
    report: dict[str, dict] = {}
    for suite in suites:
        path = root / suite.baseline
        if not path.exists():
            report[suite.name] = {"baseline": str(path), "skipped": True,
                                  "checked": 0, "ok": True, "failures": []}
            continue
        checked, failures = _check(suite, json.loads(path.read_text()))
        report[suite.name] = {"baseline": str(path), "checked": checked,
                              "ok": not failures, "failures": failures}
    return {"ok": all(s["ok"] for s in report.values()), "root": str(root),
            "suites": report}


def format_report(report: dict) -> str:
    lines = [f"bench check against baselines in {report['root']}:"]
    for name, suite in report["suites"].items():
        if suite.get("skipped"):
            lines.append(f"  {name:>12}: skipped (no {Path(suite['baseline']).name})")
            continue
        verdict = "ok" if suite["ok"] else "DRIFTED"
        lines.append(f"  {name:>12}: {verdict} ({suite['checked']} checks)")
        for failure in suite["failures"]:
            lines.append(f"    ! {failure}")
    lines.append("bench check: " + ("PASS" if report["ok"] else "FAIL"))
    return "\n".join(lines)
