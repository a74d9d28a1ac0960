"""Per-layer attribution of one traced repetition.

The harness wraps a repetition in ``cProfile`` -- every call entry and exit
is a span boundary -- and this module folds the resulting call graph onto the
layers, which are the packages under ``src/repro/``:

* a function's self time goes to the layer that owns its file;
* time in code outside the layers (builtins, NumPy, the stdlib) goes to the
  layer that called it, followed up the caller edges;
* what is left is the harness's own frames and is kept out of the shares, so
  the twelve ``self_share`` values of a workload sum to 1.

Boundary functions are looked up by ``(module, qualified name)`` once, at
start; a name a refactor removed resolves to nothing and is reported as
unresolved instead of raising.
"""

from __future__ import annotations

import cProfile
import importlib
import os
import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro

LAYERS = (
    "sim",
    "net",
    "core",
    "detectors",
    "memory",
    "verbs",
    "runtime",
    "explore",
    "obs",
    "trace",
    "util",
    "workloads",
)

#: Metric name -> (module, dotted attribute); a trailing ``*`` sums every
#: module-level function with that prefix.  Package-level exports are used
#: wherever one exists, so splitting a module does not lose the metric.
BOUNDARIES: Dict[str, Tuple[str, str]] = {
    "sim.step": ("repro.sim", "Simulator.step"),
    "net.fabric_send": ("repro.net", "Fabric.send"),
    "net.channel_transmit": ("repro.net", "Channel.transmit"),
    "net.wire_encode": ("repro.net.clock_transport", "ClockWireEncoder.encode"),
    "net.wire_decode": ("repro.net.clock_transport", "ClockWireDecoder.decode"),
    "core.on_write": ("repro.core", "DualClockRaceDetector.on_write"),
    "core.on_read": ("repro.core", "DualClockRaceDetector.on_read"),
    "core.on_rmw": ("repro.core", "DualClockRaceDetector.on_rmw"),
    "core.clock_new": ("repro.core", "VectorClock.__init__"),
    "core.clock_frozen": ("repro.core", "VectorClock.frozen"),
    "memory.public_init": ("repro.memory", "PublicMemory.__init__"),
    "runtime.build": ("repro.runtime", "DSMRuntime.__init__"),
    "explore.pick_next": ("repro.explore", "ScheduleController.pick_next"),
    "explore.on_message_latency": (
        "repro.explore",
        "ScheduleController.on_message_latency",
    ),
    "obs.counter_lookup": ("repro.obs", "MetricsRegistry.counter"),
    "trace.record_access": ("repro.trace", "TraceRecorder.record_access"),
    "util.require": ("repro.util.validation", "require*"),
}

_HARNESS = "<harness>"
_PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def resolve_boundaries() -> Dict[str, Optional[List[Any]]]:
    """Code objects behind each boundary metric; ``None`` when the name is gone."""
    resolved: Dict[str, Optional[List[Any]]] = {}
    for metric, (module_name, attribute) in BOUNDARIES.items():
        try:
            module = importlib.import_module(module_name)
            if attribute.endswith("*"):
                prefix = attribute[:-1]
                targets = [
                    value
                    for name, value in vars(module).items()
                    if name.startswith(prefix) and hasattr(value, "__code__")
                ]
            else:
                target = module
                for part in attribute.split("."):
                    target = getattr(target, part)
                targets = [target]
            codes = [target.__code__ for target in targets]
        except (ImportError, AttributeError):
            codes = []
        if not codes:
            print(
                f"warning: boundary {metric} ({module_name}:{attribute}) "
                "no longer resolves; reported as null",
                file=sys.stderr,
            )
        resolved[metric] = codes or None
    return resolved


def _layer_of(code: Any) -> Optional[str]:
    """The layer owning *code*, or ``None`` for code outside the layers."""
    filename = getattr(code, "co_filename", None)
    if not filename or not filename.startswith(_PACKAGE_DIR):
        return None
    package = filename[len(_PACKAGE_DIR):].split(os.sep, 1)[0]
    return package if package in LAYERS else None


def profile_call(call: Callable[[], Any]) -> Tuple[Any, list]:
    """Run *call* under the profiler; returns (result, raw profiler stats)."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = call()
    finally:
        profiler.disable()
    return result, profiler.getstats()


def attribute(stats: list) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Fold raw profiler *stats* into per-layer self seconds and call counts."""
    layer_by_code = {entry.code: _layer_of(entry.code) for entry in stats}

    # Caller edges of every function outside the layers, weighted by the
    # inclusive time spent under that edge.
    callers: Dict[Any, List[Tuple[Any, float]]] = {}
    for entry in stats:
        for edge in entry.calls or ():
            if layer_by_code.get(edge.code) is None:
                callers.setdefault(edge.code, []).append((entry.code, edge.totaltime))

    owners: Dict[Any, Dict[str, float]] = {}

    def owner_shares(code: Any, visiting: frozenset) -> Dict[str, float]:
        """Which layers *code*'s time belongs to, as fractions summing to 1."""
        layer = layer_by_code.get(code)
        if layer is not None:
            return {layer: 1.0}
        if code in owners:
            return owners[code]
        shares: Dict[str, float] = {}
        weight = 0.0
        for caller, seconds in callers.get(code, ()):
            if caller in visiting or seconds <= 0.0:
                continue
            for owner, fraction in owner_shares(caller, visiting | {code}).items():
                shares[owner] = shares.get(owner, 0.0) + seconds * fraction
            weight += seconds
        shares = (
            {owner: value / weight for owner, value in shares.items()}
            if weight
            else {_HARNESS: 1.0}
        )
        if not visiting:
            owners[code] = shares
        return shares

    seconds = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    for entry in stats:
        layer = layer_by_code[entry.code]
        if layer is not None:
            calls[layer] += entry.callcount
        for owner, fraction in owner_shares(entry.code, frozenset()).items():
            if owner != _HARNESS:
                seconds[owner] += entry.inlinetime * fraction
    return seconds, calls


def boundary_costs(
    stats: list, resolved: Dict[str, Optional[List[Any]]]
) -> Dict[str, Optional[Tuple[int, float]]]:
    """``(calls, inclusive seconds)`` per boundary metric; ``None`` if unresolved."""
    by_code = {entry.code: entry for entry in stats}
    costs: Dict[str, Optional[Tuple[int, float]]] = {}
    for metric, codes in resolved.items():
        if codes is None:
            costs[metric] = None
            continue
        entries = [by_code[code] for code in codes if code in by_code]
        # Calls from one member of a group to another (require_rank ->
        # require_type) are already inside the caller's inclusive time.
        nested = sum(
            edge.totaltime
            for entry in entries
            for edge in entry.calls or ()
            if edge.code in codes
        )
        costs[metric] = (
            sum(entry.callcount for entry in entries),
            sum(entry.totaltime for entry in entries) - nested,
        )
    return costs
