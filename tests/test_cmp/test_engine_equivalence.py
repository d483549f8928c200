"""Batched-vs-reference engine equivalence suite.

The batched engine must reproduce the reference loop's results *exactly* —
every :class:`ThreadResult` field, every :class:`EventCounts` field, every
partition record — across replacement policies, enforcement schemes, write
traces and the bandwidth-limited memory channel.  Anything short of ``==``
on these dataclasses is a bug in the batching argument.
"""

import dataclasses

import numpy as np
import pytest

from repro.cache.geometry import CacheGeometry
from repro.cmp.simulator import run_workload
from repro.config import (
    ProcessorConfig,
    SimulationConfig,
    config_C_L,
    config_M_BT,
    config_M_L,
    config_M_N,
    config_unpartitioned,
)
from repro.workloads.trace import Trace
from repro.workloads.writes import overlay_writes


def processor(num_cores=2):
    return ProcessorConfig(
        num_cores=num_cores,
        l1i=CacheGeometry(2 * 2 * 128, 2, 128),
        l1d=CacheGeometry(2 * 2 * 128, 2, 128),
        l2=CacheGeometry(16 * 8 * 128, 8, 128),
    )


def make_traces(num_cores=2, count=6000, ipm=4.0, cpi=1.0):
    """A mix of one cache-friendly thread and progressively larger streams."""
    traces = []
    for core in range(num_cores):
        rng = np.random.default_rng(100 + core)
        footprint = 48 * (4 ** core)
        lines = rng.integers(0, footprint, size=count) + core * 1_000_000
        traces.append(Trace(f"t{core}", lines, ipm=ipm, cpi_base=cpi))
    return traces


def both_engines(partitioning, traces, num_cores=2, budget=30_000,
                 service_interval=0.0, per_thread=None):
    results = []
    for engine in ("reference", "batched"):
        sim = SimulationConfig(
            instructions_per_thread=budget,
            per_thread_instructions=per_thread,
            seed=7,
            memory_service_interval=service_interval,
            engine=engine,
        )
        results.append(run_workload(processor(num_cores), partitioning,
                                    traces, sim))
    return results


def assert_identical(reference, batched):
    assert len(reference.threads) == len(batched.threads)
    for ref, bat in zip(reference.threads, batched.threads):
        assert dataclasses.asdict(ref) == dataclasses.asdict(bat)
    assert dataclasses.asdict(reference.events) == \
        dataclasses.asdict(batched.events)
    assert reference.partition_history == batched.partition_history
    assert reference.acronym == batched.acronym


PARTITIONED_CONFIGS = [
    config_C_L(atd_sampling=4, interval_cycles=20_000),
    config_M_L(atd_sampling=4, interval_cycles=20_000),
    config_M_N(0.75, atd_sampling=4, interval_cycles=20_000),
    config_M_BT(atd_sampling=4, interval_cycles=20_000),
]

UNPARTITIONED_POLICIES = ["lru", "nru", "bt", "random", "fifo", "dip", "srrip"]


class TestReadOnly:
    @pytest.mark.parametrize("policy", UNPARTITIONED_POLICIES)
    def test_unpartitioned_policies(self, policy):
        ref, bat = both_engines(config_unpartitioned(policy), make_traces())
        assert_identical(ref, bat)

    @pytest.mark.parametrize("config", PARTITIONED_CONFIGS,
                             ids=lambda c: c.acronym)
    def test_partitioned_schemes(self, config):
        ref, bat = both_engines(config, make_traces())
        assert_identical(ref, bat)

    def test_four_cores(self):
        ref, bat = both_engines(
            config_C_L(atd_sampling=4, interval_cycles=20_000),
            make_traces(num_cores=4), num_cores=4)
        assert_identical(ref, bat)

    def test_non_dyadic_timing_parameters(self):
        """ipm/cpi values whose products round: the clock recurrence must
        still evaluate identically in both engines."""
        traces = make_traces(ipm=2.6, cpi=1.1)
        ref, bat = both_engines(config_unpartitioned("lru"), traces,
                                budget=20_000)
        assert_identical(ref, bat)

    def test_per_thread_budgets_and_wrap(self):
        """Budgets beyond one trace pass exercise wrap-around batching."""
        traces = make_traces(count=2500)
        ref, bat = both_engines(config_unpartitioned("lru"), traces,
                                per_thread=(24_000, 6_000))
        assert_identical(ref, bat)

    def test_mid_trace_chunk_reloads(self, monkeypatch):
        """Traces longer than the prefilter window exercise reloads at
        nonzero ``ck_start`` (window-relative offset arithmetic)."""
        import repro.cmp.engine.batched as batched_mod

        monkeypatch.setattr(batched_mod, "CHUNK_SIZE", 512)
        ref, bat = both_engines(
            config_C_L(atd_sampling=4, interval_cycles=20_000),
            make_traces())
        assert_identical(ref, bat)

    def test_l1_resident_streaks(self):
        """A tiny-footprint thread batches giant hit-streaks."""
        rng = np.random.default_rng(5)
        friendly = Trace("tiny", rng.integers(0, 4, size=4000),
                         ipm=4.0, cpi_base=1.0)
        stream = Trace("stream", np.arange(20_000) + 10_000_000,
                       ipm=4.0, cpi_base=1.0)
        ref, bat = both_engines(
            config_M_L(atd_sampling=4, interval_cycles=20_000),
            [friendly, stream])
        assert_identical(ref, bat)


class TestWriteTraces:
    @pytest.mark.parametrize("config", [
        config_unpartitioned("lru"),
        config_C_L(atd_sampling=4, interval_cycles=20_000),
        config_M_N(0.75, atd_sampling=4, interval_cycles=20_000),
    ], ids=lambda c: c.acronym)
    def test_write_overlay(self, config):
        traces = [overlay_writes(t, 0.4, seed=3) for t in make_traces()]
        ref, bat = both_engines(config, traces)
        assert_identical(ref, bat)
        assert ref.events.l1_writebacks > 0

    def test_mixed_read_write_threads(self):
        traces = make_traces()
        traces[1] = overlay_writes(traces[1], 0.5, seed=9)
        ref, bat = both_engines(
            config_M_L(atd_sampling=4, interval_cycles=20_000), traces)
        assert_identical(ref, bat)


class TestBandwidthChannel:
    @pytest.mark.parametrize("config", [
        config_unpartitioned("lru"),
        config_C_L(atd_sampling=4, interval_cycles=20_000),
    ], ids=lambda c: c.acronym)
    def test_limited_channel(self, config):
        ref, bat = both_engines(config, make_traces(),
                                service_interval=40.0)
        assert_identical(ref, bat)
        assert ref.events.memory_queue_cycles > 0

    def test_channel_with_writes(self):
        traces = [overlay_writes(t, 0.3, seed=4) for t in make_traces()]
        ref, bat = both_engines(config_unpartitioned("lru"), traces,
                                service_interval=25.0)
        assert_identical(ref, bat)


class TestBoundaryPlacement:
    def test_tiny_interval_repartition_counts(self):
        """Sub-access intervals force multi-boundary catch-ups in one step;
        both engines must fire the same repartition sequence."""
        ref, bat = both_engines(
            config_C_L(atd_sampling=4, interval_cycles=500),
            make_traces(count=3000), budget=10_000)
        assert_identical(ref, bat)
        assert ref.events.repartitions > 10


def streaky_trace(name, runs, first_line, shift=0, ipm=4.0, cpi=1.0):
    """One fresh line per run, repeated ``r`` more times: the repeats hit
    the L1, and each run's first access misses it (the 4-line L1 of
    :func:`processor` has evicted the line by the time a pass wraps).
    The trace starts ``shift`` accesses in, so a pass may open mid-run."""
    lines = []
    for k, r in enumerate(runs):
        lines.extend([first_line + k] * (r + 1))
    lines = lines[shift:] + lines[:shift]
    return Trace(name, np.array(lines, dtype=np.int64), ipm=ipm, cpi_base=cpi)


def l1_hit_flags(trace, count):
    """L1 hit flag of each of the first ``count`` accesses of ``trace``,
    wrapping — the outcomes the batched engine prefilters."""
    from repro.cache.l1 import SmallLRUCache

    l1 = SmallLRUCache(processor().l1d)
    lines = trace.lines.tolist()
    writes = (trace.writes.tolist() if trace.writes is not None
              else [False] * len(lines))
    flags = []
    for g in range(count):
        pos = g % len(lines)
        flags.append(l1.access_line_rw(lines[pos], writes[pos])[0])
    return flags


def chunk_span(g, length, chunk):
    """``(start, end)`` global indices of the prefilter chunk holding
    access ``g``: chunks restart at every trace wrap."""
    pos = g % length
    start = g - pos % chunk
    return start, start + min(chunk, length - (pos - pos % chunk))


#: Run lengths mixing misses, short and long streaks; the 150- and
#: 1100-repeat runs fill whole 64- and 512-reference chunks with hits.
SEAM_RUNS = ([0, 2, 0, 5, 1, 0, 9, 3, 0, 0, 31, 4, 0, 7, 150, 2]
             + [0, 1, 3, 0, 12, 0, 0, 6, 1100, 0, 2, 40, 0, 5, 1, 0])


def find_seam(kind, flags, length, chunk):
    """Global index of the first access (past the first chunk) that sits
    on the named chunk seam, for the freeze access to land on."""
    for g in range(chunk, len(flags)):
        start, end = chunk_span(g, length, chunk)
        hit = flags[g]
        misses_before = [x for x in range(start, g) if not flags[x]]
        if kind == "last_miss":
            ok = not hit and g + 1 < end and all(flags[g + 1:end])
        elif kind == "chunk_last_miss":
            ok = not hit and g + 1 == end
        elif kind in ("lead_reload", "lead_wrap"):
            wrapped = start % length == 0
            ok = (hit and g > start and not misses_before
                  and wrapped == (kind == "lead_wrap"))
        elif kind == "chunk_first":
            ok = g == start and hit
        elif kind in ("trail_first", "trail_inner"):
            ok = hit and bool(misses_before)
            if ok:
                gap = g - misses_before[-1]
                ok = gap == 1 if kind == "trail_first" else gap >= 3
        elif kind == "no_miss_chunk":
            ok = (end - start == chunk and all(flags[start:end])
                  and g == start + chunk // 2)
        else:
            raise ValueError(kind)
        if ok and end <= len(flags):
            return g
    raise AssertionError(f"no {kind} seam in the trace")


SEAM_KINDS = ["last_miss", "chunk_last_miss", "lead_reload", "lead_wrap",
              "chunk_first", "trail_first", "trail_inner", "no_miss_chunk"]
#: (chunk size, seam) cases; no 512-reference chunk of the trace ends on
#: a miss.
SEAM_CASES = [(chunk, kind) for chunk in (64, 512) for kind in SEAM_KINDS
              if (chunk, kind) != (512, "chunk_last_miss")]


class TestChunkSeams:
    """The freeze access placed on each seam of the one-event-per-L2-access
    loop, with the prefilter chunk shrunk so that seams are plentiful."""

    @staticmethod
    def _traces(writes=False):
        traces = [
            # Opens 10 accesses into the 31-repeat run: wraps continue it.
            streaky_trace("seams", SEAM_RUNS, 1_000_000, shift=40),
            Trace("other", np.random.default_rng(8).integers(0, 300, 3000),
                  ipm=4.0, cpi_base=1.0),
        ]
        if writes:
            traces = [overlay_writes(t, 0.3, seed=6) for t in traces]
        return traces

    def _check(self, monkeypatch, chunk, kind, terminal, writes=False):
        import repro.cmp.engine.batched as batched_mod

        monkeypatch.setattr(batched_mod, "CHUNK_SIZE", chunk)
        traces = self._traces(writes)
        seams = traces[0]
        flags = l1_hit_flags(seams, 3 * len(seams))
        g = find_seam(kind, flags, len(seams), chunk)
        # ipm 4.0: a budget of 4 * c freezes on exactly access c.
        budget = 4.0 * (g + 1)
        other = 400.0 if terminal else 4.0 * len(flags)
        ref, bat = both_engines(
            config_C_L(atd_sampling=4, interval_cycles=5_000), traces,
            service_interval=25.0 if writes else 0.0,
            per_thread=(budget, other))
        assert_identical(ref, bat)
        assert ref.threads[0].l1_accesses == g + 1

    @pytest.mark.parametrize("terminal", [True, False],
                             ids=["terminal", "early"])
    @pytest.mark.parametrize("chunk,kind", SEAM_CASES)
    def test_freeze_on_seam(self, monkeypatch, chunk, kind, terminal):
        self._check(monkeypatch, chunk, kind, terminal)

    @pytest.mark.parametrize("kind", SEAM_KINDS)
    def test_freeze_on_seam_writes_channel(self, monkeypatch, kind):
        self._check(monkeypatch, 64, kind, terminal=True, writes=True)

    @pytest.mark.parametrize("writes", [False, True],
                             ids=["read", "writes_channel"])
    @pytest.mark.parametrize("chunk", [64, 512])
    def test_rollback_after_folded_streaks(self, monkeypatch, chunk,
                                           writes):
        """A short-budget thread with long trailing streaks keeps running
        after its freeze; the other thread's late terminal freeze cuts
        its last folded streak at many different points."""
        import repro.cmp.engine.batched as batched_mod

        monkeypatch.setattr(batched_mod, "CHUNK_SIZE", chunk)
        traces = self._traces(writes)
        for other in range(2_000, 2_600, 75):
            ref, bat = both_engines(
                config_unpartitioned("lru"), traces,
                service_interval=25.0 if writes else 0.0,
                per_thread=(800.0, 4.0 * other))
            assert_identical(ref, bat)
            # Post-freeze accesses count in the aggregate.
            assert ref.events.l1_accesses > sum(
                thread.l1_accesses for thread in ref.threads)


class TestMaxCycles:
    @pytest.mark.parametrize("engine", ["reference", "batched"])
    def test_max_cycles_raises(self, engine):
        sim = SimulationConfig(instructions_per_thread=30_000,
                               max_cycles=10_000, engine=engine)
        with pytest.raises(RuntimeError, match="max_cycles"):
            run_workload(processor(), config_unpartitioned("lru"),
                         make_traces(), sim)


class TestScheduler:
    def test_pops_in_clock_then_thread_order(self):
        from repro.cmp.engine.scheduler import EventScheduler

        sched = EventScheduler([5.0, 1.0, 5.0])
        sched.push(0.5, 0)
        order = [sched.pop() for _ in range(4)]
        # Equal clocks break toward the lower thread index — the same tie
        # rule as the seed loop's first-minimum scan.
        assert order == [(0.5, 0), (1.0, 1), (5.0, 0), (5.0, 2)]
        assert not sched
