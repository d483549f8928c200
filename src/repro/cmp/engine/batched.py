"""Batched execution engine: bulk L1 prefilter + one event per L2 access.

The key observation: the private L1s interact with nothing shared.  For a
read-only trace, a thread's L1 hit/miss outcome for every reference is a
pure function of its own reference stream, so it can be computed *in bulk*
ahead of time (vectorised numpy for the baseline 2-way LRU L1s, a tight
loop otherwise — see :meth:`SmallLRUCache.access_lines_hit`).  Only the
references that miss the L1 — the ones that reach the shared L2 — take the
slow path through the replacement/partition/profiling machinery.

A prefiltered chunk is kept as three lists per thread: the L2-reaching
lines, the length of the L1 hit-streak that follows each of them, and (for
write traces) the dirty L1 victim of each miss.  One scheduler event runs
one L2 access and then commits the hit-streak that trails it.

Exactness argument (pinned by ``tests/test_cmp/test_engine_equivalence.py``):

* L1 hits touch no shared state, so the hit-streak after an L2 access can
  be committed in that access's event; the thread's clock lands on the
  identical float because both engines evaluate ``anchor + count * base``
  with ``anchor`` the post-L2 clock.  A chunk's leading streak continues
  the count of the streak before it.
* L2 accesses, write-back drains, memory-channel requests and interval
  boundaries all execute at scheduler pops, i.e. at the global minimum
  clock — the same total order as the reference engine's per-access loop.
* A thread's freeze access is never folded: the streak holding it is cut
  just before it, so the freeze commits at its own pop in exact global
  order, and the run terminates after the same access in both engines
  (this matters: post-freeze contention accesses of *other* threads up to
  that point are part of the aggregate event counts).  Chunk loads,
  leading streaks and the freeze sit on a cold path behind one compare
  per event (``cur[t] < stop[t]``).
* Interval boundaries fire while the popped clock has crossed them
  (catch-up ``while``), which places every repartition before the same L2
  access as the reference loop does.
* Termination rollback: a folded streak may hold hits that order after
  the final freeze access, which the reference loop never ran.  Only a
  thread's last folded streak can (every earlier one was followed by a
  pop before the final event); its hits share one anchor and have
  increasing keys, so the rollback reads that streak and drops its tail.
* ATD profiling is *deferred*: each core's ATD observes only its own
  thread's stream and its state is read only at controller boundaries and
  run end, so the engine buffers each thread's L2-reaching lines and
  drains them through the batch observe kernels
  (:func:`repro.cache.state.build_observe_many_kernel`) right before every
  boundary, at each thread's freeze, and at run end — replacing one Python
  call plus observer indirection per L2 access with an amortised buffer
  append.  Per-thread order is preserved by the FIFO buffers;
  cross-thread drain order is immaterial because the ATDs are disjoint.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappushpop
from typing import List, Optional

import numpy as np

from repro.cmp.engine.common import EngineBase, deferrable_profiling
from repro.cmp.results import SimulationResult, ThreadResult

#: References prefiltered per bulk L1 call.  Bounds the flag/victim arrays
#: (a few hundred KB per thread) while amortising the numpy fixed costs.
CHUNK_SIZE = 1 << 16


class _Chunk:
    """Cold-path bookkeeping of one thread's current prefilter chunk."""

    __slots__ = ("length", "offs", "acc0", "miss0", "count0", "hold",
                 "freeze_off")

    def __init__(self) -> None:
        self.length = 0
        self.offs = np.zeros(0, dtype=np.int64)  # chunk offsets of the misses
        self.acc0 = 0           # references committed before the chunk
        self.miss0 = 0          # L2-reaching references before the chunk
        self.count0 = 0         # hits since the anchor at the chunk start
        # Hits still to commit before miss ``cur`` (or the chunk end); only
        # nonzero while the thread sits on the cold path.
        self.hold = 0
        self.freeze_off = -1    # chunk offset of the freeze access, or -1

    def stop(self) -> int:
        """Index of the miss whose event holds the freeze access, else the
        miss count (the hot path runs every miss below it)."""
        if self.freeze_off < 0:
            return len(self.offs)
        return int(np.searchsorted(self.offs, self.freeze_off, "right")) - 1

    def end(self, i: int) -> int:
        """Chunk offset of miss ``i``, or the chunk length past the last."""
        return int(self.offs[i]) if i < len(self.offs) else self.length

    def count_at(self, i: int, pos: int) -> int:
        """Hits since the anchor before offset ``pos``, which lies between
        miss ``i - 1`` and miss ``i``."""
        return pos - int(self.offs[i - 1]) - 1 if i else self.count0 + pos


class BatchedEngine(EngineBase):
    """One event per L2 access, with the trailing L1 hit-streak folded in."""

    name = "batched"

    def run(self) -> SimulationResult:
        """Commit L1 hit-streaks in bulk, L2 events in exact global order.

        See the module docstring for the exactness argument; the result is
        bit-identical to :meth:`ReferenceEngine.run`.
        """
        sim = self.sim
        n = self.n
        traces = sim.traces
        lengths = self.lengths
        base = self.base_cost
        freeze_counts = self.freeze_counts
        has_writes = self.has_writes
        l2_hit_pen = self.l2_hit_pen
        mem_pen = self.mem_pen
        channel = self.channel
        max_cycles = self.max_cycles
        cycle_limit = math.inf if max_cycles is None else max_cycles

        controller = sim.controller
        interval = self.interval
        # math.inf when unpartitioned: one float compare per pop, no branch.
        next_boundary = interval if controller is not None else math.inf
        hierarchy = sim.hierarchy
        l1_caches = hierarchy.l1
        l2 = hierarchy.l2
        l2_stats = l2.stats
        # Slow-path kernel: ``l2.access_line_hit`` is the policy-specialised
        # closure the flat core bound at construction (repro.cache.state) —
        # every L2-reaching reference runs locals-bound array operations,
        # no per-access attribute chases or policy method dispatch.  The
        # observer likewise resolves to the ATD observe kernels through
        # ``ProfilingSystem.observe``.
        l2_access_hit = l2.access_line_hit
        l2_access_rw = l2.access_line_rw
        l2_write_back = l2.write_back_line
        observer = hierarchy.l2_observer

        # Deferred ATD profiling drains: each core's ATD observes only its
        # own thread's stream and its state is read only at controller
        # boundaries and run end, so the per-access ``observer(t, line)``
        # call is replaced by a buffer append; buffers drain through the
        # batch observe kernels (repro.cache.state) at every interval
        # boundary, at each thread's freeze, and at run end.  A custom
        # observer keeps immediate calls (see deferrable_profiling).
        profiling = deferrable_profiling(sim)
        if profiling is not None:
            obs_bufs: Optional[List[list]] = [[] for _ in range(n)]
            obs_drain = [m.atd.observe_many for m in profiling.monitors]
            record = [buf.append for buf in obs_bufs]

            def drain_all() -> None:
                for u in range(n):
                    buf = obs_bufs[u]
                    if buf:
                        obs_drain[u](buf)
                        del buf[:]
        elif observer is not None:
            obs_bufs = None

            def _immediate(u):
                def rec(line):
                    observer(u, line)
                return rec

            record = [_immediate(u) for u in range(n)]
        else:
            obs_bufs = None
            record = None

        # Hot per-thread state.  Event ``i`` of thread ``t`` is the L2 access
        # of ``mlines[t][i]`` followed by ``mtrail[t][i]`` L1 hits.
        mlines: List[list] = [[] for _ in range(n)]
        mtrail: List[list] = [[] for _ in range(n)]
        mvict: List[Optional[list]] = [None] * n
        cur = [0] * n             # next event of the chunk
        stop = [0] * n            # events below it run on the hot path
        anchor = [0.0] * n        # clock after the last L2 access
        chunks = [_Chunk() for _ in range(n)]
        frozen: List[Optional[ThreadResult]] = [None] * n
        active = n
        wb_l1_to_l2 = 0
        wb_l1_to_mem = 0

        def load_chunk(t: int, ck: _Chunk) -> None:
            """Prefilter thread ``t``'s next window through its L1."""
            ck.acc0 += ck.length
            ck.miss0 += len(ck.offs)
            # Chunks never straddle a trace wrap, so this is where the
            # previous one ended, or 0 after the last chunk of a pass.
            pos = ck.acc0 % lengths[t]
            length = min(lengths[t], pos + CHUNK_SIZE) - pos
            trace = traces[t]
            lines = trace.chunk_view(pos, length)
            if has_writes:
                writes = None
                if trace.writes is not None:
                    writes = trace.writes[pos:pos + length]
                flags, victims = l1_caches[t].access_lines_rw(lines, writes)
            else:
                flags = l1_caches[t].access_lines_hit(lines)
            offs = np.flatnonzero(~flags)
            # Python lists: scalar indexing on the hot path is several times
            # cheaper than numpy element access.
            mlines[t] = lines[offs].tolist()
            mtrail[t] = (np.diff(offs, append=length) - 1).tolist()
            mvict[t] = victims[offs].tolist() if has_writes else None
            cur[t] = 0
            ck.length = length
            ck.offs = offs
            ck.hold = int(offs[0]) if len(offs) else length
            fo = freeze_counts[t] - 1 - ck.acc0
            ck.freeze_off = fo if 0 <= fo < length else -1
            stop[t] = 0 if ck.hold else ck.stop()

        def freeze(t: int, clock: float) -> None:
            nonlocal active
            if obs_bufs is not None:
                buf = obs_bufs[t]
                if buf:
                    obs_drain[t](buf)
                    del buf[:]
            frozen[t] = ThreadResult(
                name=traces[t].name,
                instructions=freeze_counts[t] * self.ipms[t],
                cycles=clock,
                l1_accesses=freeze_counts[t],
                l1_misses=chunks[t].miss0 + cur[t],
                l2_accesses=l2_stats.accesses[t],
                l2_misses=l2_stats.misses[t],
            )
            chunks[t].freeze_off = -1
            active -= 1

        def l2_access(t: int, i: int, now: float) -> float:
            """The hot path's L2 access, for the freeze event."""
            nonlocal wb_l1_to_l2, wb_l1_to_mem
            b = base[t]
            line = mlines[t][i]
            if has_writes:
                victim = mvict[t][i]
                if victim >= 0:
                    if l2_write_back(victim, t):
                        wb_l1_to_l2 += 1
                    else:
                        wb_l1_to_mem += 1
                if record is not None:
                    record[t](line)
                hit2 = l2_access_rw(line, t, False)
            else:
                if record is not None:
                    record[t](line)
                hit2 = l2_access_hit(line, t)
            if hit2:
                clock = now + b + l2_hit_pen
            elif channel is not None:
                clock = channel.request(now + l2_hit_pen) + b
            else:
                clock = now + b + mem_pen
            anchor[t] = clock
            cur[t] = i + 1
            return clock

        def cold(t: int, now: float) -> Optional[float]:
            """Thread ``t``'s pop with ``cur[t] >= stop[t]``: returns its
            next clock (``now`` hands the pop to the hot path), or ``None``
            after the terminal freeze."""
            ck = chunks[t]
            i = cur[t]
            if i == len(ck.offs) and not ck.hold:
                # Chunk exhausted: the hits since the anchor carry over
                # into the next chunk's leading streak.
                ck.count0 = (mtrail[t][i - 1] if i
                             else ck.count0 + ck.length)
                load_chunk(t, ck)
                i = 0
                if not ck.hold and stop[t]:
                    # The chunk opens with a plain miss: re-pushed, this
                    # pop's key is still the earliest, so the hot path
                    # runs it next.
                    return now
            b = base[t]
            if ck.hold:
                # A leading streak, or the rest of a streak cut at the
                # freeze access: one pop per piece, as the per-pop loop.
                end = ck.end(i)
                pos = end - ck.hold
                k = ck.hold
                fo = ck.freeze_off
                freeze_now = fo == pos
                if freeze_now:
                    k = 1
                elif pos < fo < end:
                    k = fo - pos
                clock = anchor[t] + (ck.count_at(i, pos) + k) * b
                ck.hold -= k
                if freeze_now:
                    freeze(t, clock)
                    if not active:
                        return None
                if not ck.hold:
                    stop[t] = ck.stop()
                return clock
            # The freeze event: miss ``i`` is the freeze access, or the
            # freeze access sits in its trailing streak.
            clock = l2_access(t, i, now)
            k = mtrail[t][i]
            j = ck.freeze_off - int(ck.offs[i]) - 1
            if j < 0:
                ck.hold = k
                freeze(t, clock)
                if not active:
                    return None
                ck.hold = 0
                stop[t] = len(ck.offs)
                return clock + k * b
            # Fold the hits before the freeze access only.
            ck.hold = k - j
            return clock + j * b

        # Raw heapq over (clock, thread) pairs: the same exact order as
        # EventScheduler (see scheduler.py), without the method-call layer.
        # The keys are unique, so heappushpop returns the stepped thread
        # at once while it is still the earliest without reordering.
        heap = [(0.0, t) for t in range(n)]
        heapify(heap)
        pushpop = heappushpop
        item = heappop(heap)

        while True:
            now, t = item
            if now >= next_boundary:
                # Drain the buffered observes before the controller reads
                # the SDHs; then catch up on every crossed boundary.
                if obs_bufs is not None:
                    drain_all()
                while now >= next_boundary:
                    controller.interval_boundary(cycle=int(next_boundary))
                    next_boundary += interval
            if now > cycle_limit:
                raise RuntimeError(
                    f"simulation exceeded max_cycles={max_cycles} with "
                    f"{active} threads still running"
                )
            i = cur[t]
            if i < stop[t]:
                # Hot path: the L2 access (same statements as l2_access),
                # then its trailing hit-streak folded into the push.
                b = base[t]
                line = mlines[t][i]
                if has_writes:
                    victim = mvict[t][i]
                    if victim >= 0:
                        if l2_write_back(victim, t):
                            wb_l1_to_l2 += 1
                        else:
                            wb_l1_to_mem += 1
                    if record is not None:
                        record[t](line)
                    hit2 = l2_access_rw(line, t, False)
                else:
                    if record is not None:
                        record[t](line)
                    hit2 = l2_access_hit(line, t)
                if hit2:
                    clock = now + b + l2_hit_pen
                elif channel is not None:
                    clock = channel.request(now + l2_hit_pen) + b
                else:
                    clock = now + b + mem_pen
                anchor[t] = clock
                cur[t] = i + 1
                item = pushpop(heap, (clock + mtrail[t][i] * b, t))
            else:
                clock = cold(t, now)
                if clock is None:
                    break
                item = pushpop(heap, (clock, t))

        # References each thread committed, from its chunk cursor.  The
        # reference loop stops right after the last freeze access, so the
        # hits of *other* threads whose step keys order after it were never
        # executed there.  All hits since a thread's last L2 access have
        # keys ``anchor + c * base`` increasing in ``c`` (earlier ones
        # preceded a pop before the final event): drop the tail past it.
        final_key = (now, t)
        l1_accesses = 0
        for u in range(n):
            ck = chunks[u]
            i = cur[u]
            pos = ck.end(i) - ck.hold
            l1_accesses += ck.acc0 + pos
            if u == t:
                continue
            count = ck.count_at(i, pos)
            a0 = anchor[u]
            b = base[u]
            lo, hi = 0, count   # first hit ordering after the final key
            while lo < hi:
                mid = (lo + hi) // 2
                if (a0 + mid * b, u) > final_key:
                    hi = mid
                else:
                    lo = mid + 1
            l1_accesses -= count - lo

        # Final drain before _assemble reads the ATD sampled counters.
        if obs_bufs is not None:
            drain_all()

        return self._assemble(
            frozen,
            l1_accesses=l1_accesses,
            l1_writebacks=wb_l1_to_l2 + wb_l1_to_mem,
            memory_writebacks=l2_stats.total_writebacks + wb_l1_to_mem,
        )
