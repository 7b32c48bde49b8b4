"""Per-layer host self time, measured from outside the program.

The traced run wraps public entry points of each ``repro`` layer with a
timing shim installed by this module (class attributes and module
functions are swapped in place, in this process only). Every wrapped call
is one span; a layer's *self time* is the duration of its spans minus the
part covered by their child spans. Time inside a traced segment but
outside every span is the benchmark's own (``harness``), so the self
times plus harness add up to the traced wall by construction; what the
run checks is that harness stays a small share of that wall, which fails
as soon as a program call in a traced segment goes unwrapped.

``Operator.combine`` is not timed: the sp-dlb lookback walk calls it
millions of times per pass on scalars, and a timing shim there would cost
more than the calls and book that cost to the kernels. Its time stays in
its caller's self time; :func:`count_combine_calls` counts the calls in a
separate pass that times nothing.

Spans are kept in memory (the first ``SPAN_CAP`` of them; the self-time
totals always cover every call) and written once, after the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

#: Layers in reporting order; each has a ``<layer>.self_ms`` metric except
#: ``operators``, whose self time is ``operators.numpy_ms``.
LAYERS = ("cluster", "serve", "control", "obs", "session", "executor",
          "tuner", "gpusim", "kernels", "operators", "interconnect",
          "mpisim", "store", "figures")

#: Largest share of the traced wall the benchmark's own code may take.
HARNESS_MAX_SHARE = 0.02

#: Spans kept for the span file; later spans still count in the totals.
SPAN_CAP = 100_000

_perf = time.perf_counter


class Tracer:
    """Span stack plus running self-time totals. Inactive until started."""

    def __init__(self) -> None:
        self.active = False
        self.reset()

    def reset(self) -> None:
        self._stack: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.name_self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.transfer_bytes = 0
        self.harness_s = 0.0
        self.wall_s = 0.0
        self.spans: list[tuple[str, float, float, int]] = []
        self._origin: float | None = None
        self._segment_start = self._gap_start = 0.0

    def start(self) -> None:
        """Open a traced segment (a pass may trace several)."""
        now = _perf()
        if self._origin is None:
            self._origin = now
        self._segment_start = self._gap_start = now
        self.active = True

    def stop(self) -> None:
        end = _perf()
        if self._stack:
            raise RuntimeError("tracer stopped inside an open span")
        self.harness_s += end - self._gap_start
        self.wall_s += end - self._segment_start
        self.active = False

    def call(self, fn, name: str, layer: str, args, kwargs):
        stack = self._stack
        start = _perf()
        if not stack:
            self.harness_s += start - self._gap_start
        frame = [start, 0.0]
        stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = _perf()
            stack.pop()
            span = end - start
            own = span - frame[1]
            self.self_s[layer] += own
            self.name_self_s[name] += own
            self.incl_s[name] += span
            self.calls[name] += 1
            if stack:
                stack[-1][1] += span
            else:
                self._gap_start = end
            if len(self.spans) < SPAN_CAP:
                self.spans.append((name, start - self._origin,
                                   end - self._origin, len(stack)))
        return result

    def harness_share(self) -> float:
        """Share of the traced wall spent outside every program span."""
        return self.harness_s / self.wall_s

    def write_spans(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {
            "meta": meta,
            "names": names,
            "columns": ["name", "start_s", "end_s", "depth"],
            "spans": [[index[n], round(a, 9), round(b, 9), d]
                      for n, a, b, d in self.spans],
        }
        path.write_text(json.dumps(payload, separators=(",", ":")))


def _shim(fn, name: str, layer: str, tracer: Tracer, name_of=None,
          on_result=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        label = name_of(args, kwargs) if name_of is not None else name
        result = tracer.call(fn, label, layer, args, kwargs)
        if on_result is not None:
            on_result(result)
        return result

    return wrapper


def _engine_body_name(args, kwargs) -> str:
    body = args[2] if len(args) > 2 else kwargs["body"]
    if "single_pass" in getattr(body, "__qualname__", ""):
        return "ExecutionEngine.run[single_pass]"
    return "ExecutionEngine.run"


def _targets():
    """(owner, attribute, layer, name_of) for every wrapped entry point."""
    from repro import obs
    from repro.bench import runner
    from repro.cluster.router import ClusterRouter
    from repro.control import controllers
    from repro.core import autotune_cache, store
    from repro.core.autotune_cache import AutotuneCache, CachedTuner
    from repro.core.executor import PlanResolver, ScanExecutor
    from repro.core.params import ProblemConfig
    from repro.core.session import ScanSession
    from repro.core.tuner import PremiseTuner
    from repro.gpusim.device import GPU
    from repro.gpusim.kernel import ExecutionEngine
    from repro.interconnect import topology
    from repro.interconnect.topology import SystemTopology
    from repro.mpisim.communicator import Communicator
    from repro.obs.registry import Counter, Gauge, Histogram
    from repro.obs.slo import SLOMonitor
    from repro.obs.tracing import Span
    from repro.primitives.operators import Operator
    from repro.serve.service import ScanService

    out = []

    def add(owner, attrs, layer, name_of=None):
        for attr in attrs:
            out.append((owner, attr, layer, name_of))

    add(ClusterRouter, ("__init__", "submit", "advance_to", "drain_queues",
                        "fail_replica"), "cluster")
    add(ScanService, ("__init__", "submit", "advance_to", "flush", "drain"),
        "serve")
    for cls in (controllers.Controller, controllers.ControllerGroup,
                controllers.ServiceController, controllers.TuneController,
                controllers.CalibrationController):
        add(cls, [h for h in ("on_submit", "on_batch", "on_fail")
                  if h in vars(cls)], "control")
    add(obs, ("enable", "disable", "reset", "counter", "gauge", "histogram",
              "span"), "obs")
    add(Counter, ("inc",), "obs")
    add(Gauge, ("set", "add"), "obs")
    add(Histogram, ("observe",), "obs")
    add(Span, ("__enter__", "__exit__"), "obs")
    add(SLOMonitor, ("observe",), "obs")
    add(ScanSession, ("__init__", "scan", "estimate"), "session")
    add(ProblemConfig, ("from_sizes",), "session")
    add(ScanExecutor, ("run", "estimate"), "executor")
    add(PlanResolver, ("resolve", "clear"), "executor")
    add(AutotuneCache, ("__init__",), "tuner")
    add(CachedTuner, ("best_k", "best_single_gpu_variant"), "tuner")
    add(PremiseTuner, ("tune_sp", "tune_mps", "tune_mppc",
                       "tune_single_gpu_variant"), "tuner")
    add(autotune_cache, ("cost_fingerprint",), "tuner")
    add(GPU, ("launch", "alloc", "alloc_virtual", "upload", "free"),
        "gpusim")
    add(SystemTopology, ("enable_buffer_pooling",), "gpusim")
    add(ExecutionEngine, ("run",), "kernels", _engine_body_name)
    add(Operator, ("accumulate", "reduce"), "operators")
    add(topology, ("tsubame_kfc",), "interconnect")
    add(Communicator, ("barrier", "gather", "scatter", "bcast", "allgather",
                       "send_recv", "reduce", "allreduce", "alltoall"),
        "mpisim")
    add(ScanSession, ("snapshot", "apply_snapshot"), "store")
    add(store, ("spawn_replica_session",), "store")
    add(runner, ("figure9_series", "figure10_series", "figure11_series",
                 "figure12_series", "figure13_series", "figure14_breakdown"),
        "figures")
    return out


TRANSFER_METHODS = ("host_to_device", "device_to_host", "copy")


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every target; returns the originals for :func:`uninstall`."""
    from repro.interconnect.transfer import TransferEngine

    def add_bytes(record) -> None:
        tracer.transfer_bytes += int(record.nbytes)

    saved = []
    targets = _targets() + [(TransferEngine, attr, "interconnect", None)
                            for attr in TRANSFER_METHODS + ("record_dispatch",)]
    for owner, attr, layer, name_of in targets:
        fn = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        name = f"{owner.__name__.split('.')[-1]}.{attr}"
        on_result = add_bytes if attr in TRANSFER_METHODS else None
        if isinstance(fn, classmethod):
            shim = classmethod(_shim(fn.__func__, name, layer, tracer))
        else:
            shim = _shim(fn, name, layer, tracer, name_of, on_result)
        # A module function is also swapped in every module that imported
        # it by name (``cost_fingerprint`` in ``repro.core.session``).
        owners = [owner] if isinstance(owner, type) else [
            m for m in list(sys.modules.values())
            if getattr(m, "__name__", "").startswith("repro")
            and getattr(m, attr, None) is fn]
        for holder in owners:
            saved.append((holder, attr, fn))
            setattr(holder, attr, shim)
    return saved


def count_combine_calls(run_pass) -> tuple[int, object]:
    """(``Operator.combine`` calls, result) of ``run_pass()``, counted by a
    shim that only counts; nothing else is wrapped and nothing is timed."""
    from repro.primitives.operators import Operator

    fn = vars(Operator)["combine"]
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)

    Operator.combine = counted
    try:
        result = run_pass()
    finally:
        Operator.combine = fn
    return calls[0], result


def uninstall(saved) -> None:
    for owner, attr, fn in reversed(saved):
        setattr(owner, attr, fn)


def _calls(tracer: Tracer, prefix: str, names=None) -> int:
    return sum(n for k, n in tracer.calls.items()
               if k.startswith(prefix) and (names is None or k.split(".")[1] in names))


def timing_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer host times (ms) of one traced pass."""
    ms = {layer: tracer.self_s.get(layer, 0.0) * 1e3 for layer in LAYERS}
    out = {f"{layer}.self_ms": ms[layer] for layer in LAYERS
           if layer != "operators"}
    out["operators.numpy_ms"] = ms["operators"]
    out["harness.self_ms"] = tracer.harness_s * 1e3
    out["traced_wall_ms"] = tracer.wall_s * 1e3
    out["gpusim.launch_self_ms"] = tracer.name_self_s.get("GPU.launch", 0.0) * 1e3
    out["kernels.body_ms"] = (
        tracer.incl_s.get("ExecutionEngine.run", 0.0)
        + tracer.incl_s.get("ExecutionEngine.run[single_pass]", 0.0)) * 1e3
    out["kernels.single_pass_body_ms"] = tracer.incl_s.get(
        "ExecutionEngine.run[single_pass]", 0.0) * 1e3
    return out


def count_metrics(tracer: Tracer) -> dict[str, int]:
    """Exact call counts seen by the shims (deterministic per seed)."""
    return {
        "kernels.launches": _calls(tracer, "ExecutionEngine.run"),
        "tuner.sweeps": _calls(tracer, "PremiseTuner."),
        "tuner.fingerprint_calls": tracer.calls.get(
            "autotune_cache.cost_fingerprint", 0),
        "interconnect.transfers": _calls(tracer, "TransferEngine.",
                                         TRANSFER_METHODS),
        "interconnect.bytes_computed": tracer.transfer_bytes,
        "mpisim.collectives": _calls(tracer, "Communicator."),
    }
