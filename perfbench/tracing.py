"""Per-layer span tracing of the ``repro`` package, installed from outside it.

:func:`install` wraps the public entry points of each layer of
``src/repro`` (``circuits``, ``core.flowgraph``, ``aig``, ``verify``,
``sim.pulse``, ``faults``, ``exec`` and ``eval.engine``) without changing
a line of the package.  A wrapped call records a :class:`Span`: its name,
start, end, the span that was open when it started (its parent) and the
id of the work unit it ran for.  Spans stay in memory; the caller writes
them out once the campaign has ended (:func:`chrome_trace`,
:func:`self_time_table`) and folds them into per-layer metrics
(:func:`layer_metrics`).

Functions are patched at every binding a caller resolves, not only where
they are defined: ``from .simulate import simulate_patterns`` copies the
function into the importing module, so :meth:`Tracer.patch_function`
replaces the original object in every loaded ``repro`` module that holds
it.  Registry entries (flow stages, AIG passes) are patched in their
registries, and methods on their classes.

A traced campaign runs slower than an untraced one; the benchmark
reports that difference as the tracing overhead and measures its
end-to-end metrics with tracing off.
"""

from __future__ import annotations

import dataclasses
import functools
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Span-name prefix -> the ``src/repro`` layer it belongs to.
LAYERS: Dict[str, str] = {
    "circuits": "circuits",
    "flowgraph": "core.flowgraph",
    "aig": "aig",
    "verify": "verify",
    "pulse": "sim.pulse",
    "faults": "faults",
    "exec": "exec",
    "engine": "eval.engine",
}

#: Flow stages whose inclusive time is reported as ``flowgraph.<stage>_s``.
REPORTED_STAGES = ("frontend", "aig-opt", "polarity", "map", "sequential")

#: Spans that mark a unit boundary only.  Their self time is code of the
#: unit's compute function that no layer span covers, so it counts as
#: untraced rather than as time spent in ``exec``.
UNIT_SPAN = "exec.unit"


@dataclass
class Span:
    """One timed call into a layer (times in ``time.perf_counter`` seconds)."""

    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    unit: str = ""
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans, counters and samples from the wrapped calls."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}
        self.wrapped: set = set()
        self._stack: List[int] = []

    # -- recording ---------------------------------------------------------
    def begin(self, name: str, unit: str = "", args: Optional[Dict[str, Any]] = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        if not unit and parent >= 0:
            unit = self.spans[parent].unit
        self.spans.append(Span(name, time.perf_counter(), parent=parent, unit=unit,
                               args=dict(args or {})))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def wrap(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable[[tuple, Any], None]] = None,
        unit_of: Optional[Callable[[tuple], str]] = None,
        args: Optional[Dict[str, Any]] = None,
    ) -> Callable:
        """``fn`` inside a span; ``after(args, result)`` sees each result."""
        self.wrapped.add(name)

        @functools.wraps(fn)
        def traced(*call_args, **call_kwargs):
            unit = unit_of(call_args) if unit_of is not None else ""
            index = self.begin(name, unit=unit, args=args)
            try:
                result = fn(*call_args, **call_kwargs)
            finally:
                self.end(index)
            if after is not None:
                after(call_args, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------
    def patch_function(
        self,
        module_name: str,
        attr: str,
        name: str,
        inner: Optional[Callable[[Callable], Callable]] = None,
        **wrap_kwargs,
    ) -> None:
        """Replace ``module.attr`` in every loaded ``repro`` module bound to it.

        ``inner(original)``, when given, builds the function the span
        times (to adapt the call's arguments).
        """
        original = getattr(sys.modules[module_name], attr)
        timed = functools.wraps(original)(inner(original)) if inner else original
        traced = self.wrap(name, timed, **wrap_kwargs)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)

    def patch_method(self, cls: type, attr: str, name: str, **wrap_kwargs) -> None:
        setattr(cls, attr, self.wrap(name, cls.__dict__[attr], **wrap_kwargs))


def _span_name_for_pass(pass_name: str) -> str:
    # "refactor -z" is the zero-gain variant of "refactor": one metric.
    return "aig." + pass_name.split()[0]


def install() -> Tracer:
    """Wrap every traced entry point of the ``repro`` layers."""
    from repro.aig import scripts
    from repro.core import flowgraph
    from repro.eval.engine import ResultCache
    from repro.exec import units
    from repro.sim.pulse import simulator as pulse_simulator
    from repro.sim.pulse import xsfq_sim

    tracer = Tracer()
    tracer.counters["pulse.events_start"] = pulse_simulator.total_events_processed()

    # exec: the unit boundary (carries the unit id) and the lifecycle.
    tracer.patch_method(units.SpecUnit, "run", UNIT_SPAN,
                        unit_of=lambda call_args: call_args[0].key()[:12])

    def with_exec_tap(run_units: Callable) -> Callable:
        # Observe each finished unit through the lifecycle's own
        # structured events (then pass them on) and its outcome.
        def tapped(units_arg, *args, emit=None, executor="pool", jobs=1, **kwargs):
            def tap(event) -> None:
                if event.kind in ("computed", "error"):
                    tracer.count("exec.attempts", event.attempt)
                if emit is not None:
                    emit(event)

            started = time.perf_counter()
            outcome = run_units(units_arg, *args, emit=tap, executor=executor,
                                jobs=jobs, **kwargs)
            wall = time.perf_counter() - started
            width = 1 if executor == "serial" else max(1, int(jobs))
            tracer.count("exec.capacity_s", wall * min(width, max(1, outcome.computed)))
            tracer.count("exec.errors", len(outcome.errors))
            for seconds in outcome.seconds.values():
                tracer.sample("exec.unit_s", seconds)
            return outcome

        return tapped

    tracer.patch_function("repro.exec.lifecycle", "run_units", "exec.run_units",
                          inner=with_exec_tap)

    # eval.engine: result-cache reads and writes.
    def unit_key(call_args) -> str:
        return call_args[1].key()[:12]

    tracer.patch_method(ResultCache, "get", "engine.cache_get", unit_of=unit_key)
    tracer.patch_method(ResultCache, "put", "engine.cache_put", unit_of=unit_key)

    # circuits: building a catalogued or generated circuit.
    tracer.patch_function("repro.circuits.registry", "build", "circuits.build")

    # core.flowgraph: the stages of the xSFQ flow (every benchmarked flow
    # variant runs these), and the stage cache.
    for stage_name in flowgraph.Flow.default().stage_names():
        stage = flowgraph.STAGES[stage_name]
        traced_fn = tracer.wrap(f"flowgraph.{stage_name}", stage.fn)
        flowgraph.STAGES[stage_name] = dataclasses.replace(stage, fn=traced_fn)

    def stage_cache_hook(call_args, state) -> None:
        tracer.count("flowgraph.stage_cache_hits" if state is not None
                     else "flowgraph.stage_cache_misses")

    tracer.patch_method(flowgraph.StageCache, "get", "flowgraph.stage_cache_get",
                        after=stage_cache_hook)

    # aig: the optimisation script, each pass, golden simulation.
    def optimize_hook(call_args, result) -> None:
        tracer.count("aig.ands_in", call_args[0].num_ands)
        tracer.count("aig.ands_out", result.num_ands)

    tracer.patch_function("repro.aig.scripts", "optimize", "aig.optimize", after=optimize_hook)
    # Only the passes the optimisation scripts run: a wrapper that can
    # never fire would read zero without anyone noticing.
    for pass_name in sorted(set(scripts.DEFAULT_SCRIPT)):
        scripts.PASSES[pass_name] = tracer.wrap(
            _span_name_for_pass(pass_name), scripts.PASSES[pass_name],
            args={"pass": pass_name},
        )
    tracer.patch_function("repro.aig.simulate", "simulate_patterns", "aig.simulate")
    tracer.patch_function("repro.aig.convert", "network_to_aig", "aig.network_to_aig")

    # verify: stimulus generation and the verification driver.
    def verify_hook(call_args, verdict) -> None:
        tracer.count("verify.patterns", verdict.patterns)

    tracer.patch_function("repro.verify.equivalence", "verify_result", "verify.result",
                          after=verify_hook)
    tracer.patch_function("repro.verify.stimulus", "stimulus_suite", "verify.stimulus")

    # sim.pulse: elaboration, the two batch drivers, the SoA fast path.
    tracer.patch_function("repro.sim.pulse.xsfq_sim", "build_simulator", "pulse.elaborate")
    tracer.patch_method(xsfq_sim.BatchedNetlistSimulator, "run_combinational", "pulse.comb")
    tracer.patch_method(xsfq_sim.BatchedNetlistSimulator, "run_sequence", "pulse.seq")
    tracer.patch_function("repro.sim.pulse.soa", "run_vectorized", "pulse.soa")

    # faults: the record driver and the margin bisection.
    def fault_record_hook(call_args, record) -> None:
        tracer.count("faults.injections", sum((record.get("injections") or {}).values()))

    def margin_hook(call_args, found) -> None:
        tracer.count("faults.probes", len(found.probes))

    tracer.patch_function("repro.faults.campaign", "fault_record", "faults.record",
                          after=fault_record_hook)
    tracer.patch_function("repro.faults.margin", "search_margin", "faults.margin_search",
                          after=margin_hook)
    return tracer


# ---------------------------------------------------------------------------
# Folding spans into numbers
# ---------------------------------------------------------------------------


def layer_of(span_name: str) -> str:
    return LAYERS[span_name.split(".", 1)[0]]


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the part its direct children cover."""
    own = [span.seconds for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.seconds
    return own


def span_totals(spans: List[Span]) -> Dict[str, Tuple[int, float, float]]:
    """``{span name: (calls, inclusive s, self s)}``."""
    totals: Dict[str, Tuple[int, float, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        calls, total, self_s = totals.get(span.name, (0, 0.0, 0.0))
        totals[span.name] = (calls + 1, total + span.seconds, self_s + own)
    return totals


def layer_self_times(spans: List[Span]) -> Dict[str, float]:
    """Self time per ``src/repro`` layer (unit-boundary spans excluded)."""
    layers = {layer: 0.0 for layer in LAYERS.values()}
    for span, own in zip(spans, self_times(spans)):
        if span.name != UNIT_SPAN:
            layers[layer_of(span.name)] += own
    return layers


def _quantile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(q * 100) - 1]


def layer_metrics(tracer: Tracer, campaign_s: float, events_end: int) -> Dict[str, float]:
    """Every per-layer metric of the benchmark, from one traced campaign."""
    from repro.aig import sop

    totals = span_totals(tracer.spans)

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0, 0.0))[0]

    def inclusive(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[1]

    def own(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[2]

    counters = tracer.counters
    metrics: Dict[str, float] = {}
    for stage in REPORTED_STAGES:
        metrics[f"flowgraph.{stage}_s"] = inclusive(f"flowgraph.{stage}")
    hits = counters.get("flowgraph.stage_cache_hits", 0)
    lookups = hits + counters.get("flowgraph.stage_cache_misses", 0)
    metrics["flowgraph.stage_cache_hit_ratio"] = hits / lookups if lookups else 0.0

    memo = sop.factored_form_cost.cache_info()
    metrics.update({
        "aig.optimize_s": inclusive("aig.optimize"),
        "aig.optimize_calls": calls("aig.optimize"),
        "aig.refactor_s": inclusive("aig.refactor"),
        "aig.rewrite_s": inclusive("aig.rewrite"),
        "aig.balance_s": inclusive("aig.balance"),
        "aig.ands_in": counters.get("aig.ands_in", 0),
        "aig.ands_out": counters.get("aig.ands_out", 0),
        "aig.factor_memo_hit_ratio": (
            memo.hits / (memo.hits + memo.misses) if memo.hits + memo.misses else 0.0
        ),
        "aig.factor_memo_misses": memo.misses,
        "aig.simulate_s": inclusive("aig.simulate"),
        "circuits.build_s": inclusive("circuits.build"),
        "circuits.builds": calls("circuits.build"),
        "verify.stimulus_s": inclusive("verify.stimulus"),
        "verify.result_self_s": own("verify.result"),
        "verify.patterns": counters.get("verify.patterns", 0),
    })

    events = events_end - counters.get("pulse.events_start", 0)
    pulse_s = inclusive("pulse.comb") + inclusive("pulse.seq")
    metrics.update({
        "pulse.elaborate_s": inclusive("pulse.elaborate"),
        "pulse.elaborations": calls("pulse.elaborate"),
        "pulse.comb_s": inclusive("pulse.comb"),
        "pulse.seq_s": inclusive("pulse.seq"),
        "pulse.events": events,
        "pulse.events_per_s": events / pulse_s if pulse_s > 0 else 0.0,
        "pulse.soa_share": (
            calls("pulse.soa") / calls("pulse.comb") if calls("pulse.comb") else 0.0
        ),
        "faults.margin_search_self_s": own("faults.margin_search"),
        "faults.probes": counters.get("faults.probes", 0),
        "faults.injections": counters.get("faults.injections", 0),
    })

    unit_seconds = tracer.samples.get("exec.unit_s", [])
    capacity = counters.get("exec.capacity_s", 0.0)
    metrics.update({
        "exec.overhead_s": capacity - sum(unit_seconds),
        "exec.unit_p50_s": _quantile(unit_seconds, 0.50),
        "exec.unit_p90_s": _quantile(unit_seconds, 0.90),
        "exec.parallel_efficiency": sum(unit_seconds) / capacity if capacity > 0 else 0.0,
        "exec.errors": counters.get("exec.errors", 0),
        "exec.attempts": counters.get("exec.attempts", 0),
        "engine.cache_put_s": inclusive("engine.cache_put"),
        "engine.cache_puts": calls("engine.cache_put"),
    })

    layers = layer_self_times(tracer.spans)
    for prefix, layer in LAYERS.items():
        metrics[f"layer_self.{prefix}_s"] = layers[layer]
    covered = sum(layers.values())
    metrics["bench.untraced_share"] = (
        max(0.0, campaign_s - covered) / campaign_s if campaign_s > 0 else 0.0
    )
    metrics["bench.spans"] = len(tracer.spans)
    return metrics


# ---------------------------------------------------------------------------
# Writing spans out
# ---------------------------------------------------------------------------


def chrome_trace(tracer: Tracer, origin: float, metadata: Dict[str, Any]) -> Dict[str, Any]:
    """The spans as a Chrome trace-event document (Perfetto, chrome://tracing)."""
    events = []
    for index, span in enumerate(tracer.spans):
        args = {"id": index, "parent": span.parent, "unit": span.unit}
        args.update(span.args)
        events.append({
            "name": span.name,
            "cat": layer_of(span.name),
            "ph": "X",
            "ts": round((span.start - origin) * 1e6, 3),
            "dur": round(span.seconds * 1e6, 3),
            "pid": 1,
            "tid": 1,
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": metadata}


def self_time_table(tracer: Tracer, campaign_s: float) -> str:
    """Per-layer and per-span self time, largest first, as plain text."""
    lines = [f"{'layer':<16}{'self s':>10}{'share':>8}"]
    layers = layer_self_times(tracer.spans)
    for layer, seconds in sorted(layers.items(), key=lambda item: -item[1]):
        share = seconds / campaign_s if campaign_s > 0 else 0.0
        lines.append(f"{layer:<16}{seconds:>10.3f}{share:>8.1%}")
    untraced = max(0.0, campaign_s - sum(layers.values()))
    lines.append(f"{'(untraced)':<16}{untraced:>10.3f}"
                 f"{(untraced / campaign_s if campaign_s > 0 else 0.0):>8.1%}")
    lines.append("")
    lines.append(f"{'span':<28}{'calls':>8}{'incl s':>10}{'self s':>10}")
    totals = span_totals(tracer.spans)
    for name, (calls, total, own) in sorted(totals.items(), key=lambda item: -item[1][2]):
        lines.append(f"{name:<28}{calls:>8}{total:>10.3f}{own:>10.3f}")
    return "\n".join(lines)
