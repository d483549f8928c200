"""Outside-in tracing for the benchmark's traced run.

Spans are recorded from the benchmark's own files: :func:`install` wraps
the public bulk entry points of each layer (a method on its class, a
function in the module namespace that calls it, or a closure right after
the object that owns it is built).  Nothing under ``src/`` changes, and
per-access functions (``SetAssociativeCache.access_line_hit``,
``ATD.observe``) stay unwrapped; their counts come from ``EventCounts``.

A layer's *self* time is its spans' duration minus the part covered by
directly nested spans, so self times add up without double counting:
``cmp.engine.self_s`` plus the self times of the layers that only run
inside the engine (L1 prefilter, set-run kernels, ATD drains, controller
boundaries) equals ``cmp.engine.run_s``.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: Layers with a span, in table order, with the end-to-end metric each
#: should move and on which workload (the benchmark's layer -> metric map).
LAYERS = (
    ("cmp.engine", "wall_s and sim_mrefs_per_s on paper-mc and writeback-bw "
                   "(L2 walk, event heap, window grouping)"),
    ("cache.kernels.set_run", "wall_s and peak_rss_mb on isolation-1c"),
    ("workloads.trace_gen", "wall_s on isolation-1c"),
    ("cache.l1.prefilter", "wall_s on all three; the rw variant on "
                           "writeback-bw"),
    ("profiling.atd.drain", "wall_s on paper-mc"),
    ("core.controller.boundary", "wall_s on paper-mc"),
    ("campaign.plan", "setup_s and wall_s, mostly isolation-1c"),
    ("campaign.store.get", "wall_s, mostly isolation-1c"),
    ("campaign.store.put", "wall_s, mostly isolation-1c"),
    ("hwmodel.power", "wall_s on paper-mc"),
    ("experiments.assemble", "wall_s on paper-mc"),
)

#: Layers whose spans only ever open inside a ``cmp.engine`` span.
ENGINE_CHILDREN = ("cache.l1.prefilter", "cache.kernels.set_run",
                   "profiling.atd.drain", "core.controller.boundary")


class Tracer:
    """In-memory span and counter sink; records only while ``enabled``."""

    def __init__(self) -> None:
        self.enabled = False
        #: Per-layer self time, inclusive (outermost-span) time, span count.
        self.self_s: Dict[str, float] = defaultdict(float)
        self.run_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        # Open spans as [layer, time covered by direct children].
        self._stack: List[list] = []
        self._depth: Dict[str, int] = defaultdict(int)

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to a counter (while enabled)."""
        if self.enabled:
            self.counts[name] += n

    def wrap(self, layer: str, fn: Callable,
             on_enter: Optional[Callable] = None,
             on_return: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span of ``layer``.

        ``on_enter(args, outermost)`` runs before the call and
        ``on_return(result)`` after it, both only while enabled;
        ``outermost`` is False when the span nests in one of its own layer.
        """
        clock = time.perf_counter
        stack = self._stack
        depth = self._depth

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            outermost = depth[layer] == 0
            if on_enter is not None:
                on_enter(args, outermost)
            frame = [layer, 0.0]
            stack.append(frame)
            depth[layer] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                depth[layer] -= 1
                self.self_s[layer] += duration - frame[1]
                self.calls[layer] += 1
                if outermost:
                    self.run_s[layer] += duration
                if stack:
                    stack[-1][1] += duration
            if on_return is not None:
                on_return(result)
            return result

        return span

    def counter(self, name: str, fn: Callable) -> Callable:
        """``fn`` counting its calls under ``name`` (no span)."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return counted


def install(tracer: Tracer) -> None:
    """Wrap each layer's public bulk calls for the rest of this process."""
    import repro.campaign.runner as runner
    import repro.cmp.engine.vector as vector
    import repro.experiments.common as common
    import repro.workloads.generator as generator
    from repro.cache.l1 import SmallLRUCache
    from repro.campaign.store import ResultStore
    from repro.cmp.engine.batched import BatchedEngine
    from repro.cmp.engine.solo import SoloEngine
    from repro.cmp.simulator import CMPSimulator
    from repro.core.controller import PartitionController
    from repro.hwmodel.power import PowerModel
    from repro.profiling.atd import ATD

    def engine_done(result) -> None:
        events = result.events
        tracer.count("cmp.engine.l2_accesses", events.l2_accesses)
        tracer.count("profiling.atd.sampled_accesses", events.atd_accesses)
        tracer.count("core.controller.repartitions", events.repartitions)

    CMPSimulator.run = tracer.wrap("cmp.engine", CMPSimulator.run,
                                   on_return=engine_done)
    for name, cls in (("batched", BatchedEngine),
                      ("vector", vector.VectorEngine),
                      ("solo", SoloEngine)):
        cls.run = tracer.counter(f"cmp.engine.runs.{name}", cls.run)

    def prefilter_enter(args, outermost) -> None:
        # access_lines_rw may delegate to access_lines_hit: count once.
        if outermost:
            tracer.count("cache.l1.prefilter_refs", len(args[1]))

    for attr in ("access_lines_hit", "access_lines_rw"):
        setattr(SmallLRUCache, attr,
                tracer.wrap("cache.l1.prefilter",
                            getattr(SmallLRUCache, attr),
                            on_enter=prefilter_enter))

    build_kernel = vector.build_set_run_kernel

    def build_traced_kernel(*args, **kwargs):
        kernel = build_kernel(*args, **kwargs)
        if kernel is None:
            return None
        return tracer.wrap("cache.kernels.set_run", kernel)

    vector.build_set_run_kernel = build_traced_kernel

    # ATD instances shadow observe_many with a kernel closure at
    # construction, so the drain is wrapped on each new instance.
    atd_init = ATD.__init__

    def atd_init_traced(self, *args, **kwargs):
        atd_init(self, *args, **kwargs)
        self.observe_many = tracer.wrap("profiling.atd.drain",
                                        self.observe_many)

    ATD.__init__ = atd_init_traced
    PartitionController.interval_boundary = tracer.wrap(
        "core.controller.boundary", PartitionController.interval_boundary)

    # generate_trace is imported by name where it is used.
    trace_gen = tracer.wrap("workloads.trace_gen", generator.generate_trace)
    for module in (generator, runner, common):
        module.generate_trace = trace_gen

    runner.plan_jobs = tracer.wrap("campaign.plan", runner.plan_jobs)

    def store_get_done(value) -> None:
        tracer.count("campaign.store.gets")
        if value is not None:
            tracer.count("campaign.store.hits")

    ResultStore.get = tracer.wrap("campaign.store.get", ResultStore.get,
                                  on_return=store_get_done)
    ResultStore.put = tracer.wrap("campaign.store.put", ResultStore.put)
    PowerModel.evaluate = tracer.wrap("hwmodel.power", PowerModel.evaluate)
