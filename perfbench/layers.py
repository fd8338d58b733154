"""Per-layer span tracing, installed from outside the program.

The traced run patches, at class level and before any farm is built:

* every public method of every class defined in a layer's modules;
* every callback a layer registers with the engine
  (``Simulator.schedule`` / ``schedule_at``, ``Timer``), the trace
  (``Trace.subscribe``) or the notification bus
  (``NotificationBus.subscribe``) — the callback is wrapped in the span of
  the layer whose module defines it.

A wrapper opens a span only when the layer changes; a call within the
layer that is already running passes straight through. Spans are
aggregated as they close instead of being stored: each layer keeps its
*self time* (span duration minus the time its child spans cover).
Everything outside any layer's span — the benchmark's own code,
farm construction helpers, modules outside the table — accrues to
``other``, so the self times of one traced run sum to its wall-clock
time exactly.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
from time import perf_counter
from typing import Any, Callable, Dict, List

#: layer names, in report order; ``other`` is the root
LAYERS = (
    "sim", "shard", "net", "node", "gs.proto", "gs.heartbeat", "gsc",
    "reconfig", "checks", "workload", "metrics", "other",
)
OTHER = LAYERS.index("other")

#: module prefix -> layer; the longest matching prefix wins
MODULE_LAYERS = {
    "repro.sim": "sim",
    "repro.sim.shard": "shard",
    "repro.runner.workers": "shard",
    "repro.net": "net",
    "repro.node": "node",
    "repro.gulfstream": "gs.proto",
    "repro.gulfstream.heartbeat": "gs.heartbeat",
    "repro.gulfstream.central": "gsc",
    "repro.gulfstream.correlation": "gsc",
    "repro.gulfstream.configdb": "gsc",
    "repro.gulfstream.notify": "gsc",
    "repro.gulfstream.reconfig": "reconfig",
    "repro.checks": "checks",
    "repro.workload": "workload",
    "repro.farm.requests": "workload",
    "repro.metrics": "metrics",
}


def layer_of_module(module: str) -> int:
    """Index into :data:`LAYERS` of the layer owning ``module``."""
    best = ""
    for prefix in MODULE_LAYERS:
        if (module == prefix or module.startswith(prefix + ".")) and len(prefix) > len(best):
            best = prefix
    return LAYERS.index(MODULE_LAYERS[best]) if best else OTHER


class Tracer:
    """Exclusive-time accounting over a stack of layer spans."""

    def __init__(self) -> None:
        self.cur = OTHER
        self.self_s = [0.0] * len(LAYERS)
        self.last = perf_counter()
        self._module_layer: Dict[str, int] = {}

    def reset(self) -> None:
        """Zero the accounts; the current span keeps running."""
        self.self_s = [0.0] * len(LAYERS)
        self.last = perf_counter()

    def stop(self) -> None:
        """Close the books at the end of the measured run."""
        now = perf_counter()
        self.self_s[self.cur] += now - self.last
        self.last = now

    def layer_for(self, fn: Any) -> int:
        fn = getattr(fn, "__func__", fn)
        while isinstance(fn, functools.partial):
            fn = fn.func
        module = getattr(fn, "__module__", None) or ""
        layer = self._module_layer.get(module)
        if layer is None:
            layer = self._module_layer[module] = layer_of_module(module)
        return layer

    def wrap(
        self, fn: Callable[..., Any], layer: int, copy_meta: bool = True
    ) -> Callable[..., Any]:
        """``fn`` run inside a span of ``layer``."""
        tracer = self

        def span(*args: Any, **kwargs: Any) -> Any:
            prev = tracer.cur
            if prev == layer:
                return fn(*args, **kwargs)
            now = perf_counter()
            tracer.self_s[prev] += now - tracer.last
            tracer.cur = layer
            tracer.last = now
            try:
                return fn(*args, **kwargs)
            finally:
                now = perf_counter()
                tracer.self_s[layer] += now - tracer.last
                tracer.cur = prev
                tracer.last = now

        if copy_meta:
            return functools.update_wrapper(span, fn)
        span.__wrapped__ = fn  # type: ignore[attr-defined]
        return span

    def wrap_callback(self, fn: Any) -> Any:
        """Wrap a registered callback in the span of its defining layer.

        Bound public methods are already wrapped at class level and pass
        through unchanged; callbacks are wrapped on every registration, so
        this path skips the metadata copy.
        """
        if getattr(fn, "__wrapped__", None) is not None:
            return fn
        return self.wrap(fn, self.layer_for(fn), copy_meta=False)

    def report(self) -> Dict[str, float]:
        return {name: self.self_s[i] for i, name in enumerate(LAYERS)}


def _layer_modules() -> List[Any]:
    import repro

    mods = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if layer_of_module(info.name) != OTHER:
            mods.append(importlib.import_module(info.name))
    return mods


def install(tracer: Tracer) -> None:
    """Patch every layer entry point of the imported program (see module
    docstring). Call once per process, before any farm is built."""
    from repro.gulfstream.notify import NotificationBus
    from repro.net.nic import NIC
    from repro.sim.engine import Simulator
    from repro.sim.process import Timer
    from repro.sim.trace import Trace

    engine_schedule = Simulator.schedule
    engine_schedule_at = Simulator.schedule_at
    for mod in _layer_modules():
        layer = layer_of_module(mod.__name__)
        for cls in list(vars(mod).values()):
            if not isinstance(cls, type) or cls.__module__ != mod.__name__:
                continue
            for name, attr in list(vars(cls).items()):
                if name.startswith("_"):
                    continue
                if isinstance(attr, staticmethod):
                    setattr(cls, name, staticmethod(tracer.wrap(attr.__func__, layer)))
                elif isinstance(attr, classmethod):
                    setattr(cls, name, classmethod(tracer.wrap(attr.__func__, layer)))
                elif callable(attr) and not isinstance(attr, type):
                    setattr(cls, name, tracer.wrap(attr, layer))

    wrap_cb = tracer.wrap_callback
    sim_layer = LAYERS.index("sim")

    def schedule(self, delay, fn, *args, priority=0):
        return engine_schedule(self, delay, wrap_cb(fn), *args, priority=priority)

    def schedule_at(self, time, fn, *args, priority=0):
        return engine_schedule_at(self, time, wrap_cb(fn), *args, priority=priority)

    Simulator.schedule = tracer.wrap(schedule, sim_layer)
    Simulator.schedule_at = tracer.wrap(schedule_at, sim_layer)

    timer_init = Timer.__init__

    def timer_init_wrapped(self, sim, interval, fn, *args, **kwargs):
        timer_init(self, sim, interval, wrap_cb(fn), *args, **kwargs)

    Timer.__init__ = timer_init_wrapped

    trace_subscribe = Trace.subscribe
    bus_subscribe = NotificationBus.subscribe

    def subscribe_trace(self, fn):
        return trace_subscribe(self, wrap_cb(fn))

    def subscribe_bus(self, fn, *args, **kwargs):
        return bus_subscribe(self, wrap_cb(fn), *args, **kwargs)

    Trace.subscribe = subscribe_trace
    NotificationBus.subscribe = subscribe_bus

    def callback_slot(name: str) -> property:
        key = f"_traced_{name}"

        def get(nic: Any) -> Any:
            return nic.__dict__.get(key)

        def set_(nic: Any, fn: Any) -> None:
            nic.__dict__[key] = None if fn is None else wrap_cb(fn)

        return property(get, set_)

    # receive callbacks the daemon and the request apps install on adapters
    NIC.handler = callback_slot("handler")
    NIC.app_handler = callback_slot("app_handler")
