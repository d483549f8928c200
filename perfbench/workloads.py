"""The benchmark's workloads: inputs from a seed, the timed operation, checks.

Every workload is driven as a closed loop by one caller on the serial
pool: each job starts when the previous one returns, no threads.

``paper-mc``
    A cold serial campaign over the Figure 6 + Figure 7 matrices, the
    paper's own traffic: unpartitioned LRU/NRU/BT and C-L/M-L/M-xN/M-BT
    at 1 (Figure 6 only), 2, 4 and 8 cores plus their isolation
    dependencies, then the figure assembly.  The multi-core outcome stage
    dominates, as in a full reproduction.  ``target_cycles`` is shortened
    to fit the run and ``interval_cycles`` shrinks with it (the default
    5:1 ratio), so partitioned jobs still cross about as many
    repartitioning boundaries as at the default scale.
``isolation-1c``
    A cold serial campaign of only single-thread jobs: the isolation set
    of Figures 6-8 plus Figure 6's 1-core points.  Traces are long
    relative to the memos, so the set-run kernels do the work.
``writeback-bw``
    The campaign's address streams with 30 % stores overlaid, run through
    ``run_workload`` on unpartitioned 1-, 2- and 4-core points (each
    thread commits one pass over its trace), half of them behind the
    finite-bandwidth memory channel.  Reaches the
    read/write L1 path, L2 write-backs, the solo engine (the vector engine
    delegates write traces to it) and the channel, which no campaign
    target does.

The seed feeds ``ExperimentScale.seed`` (trace generation and simulation)
and the write-overlay seed; the program only sees the generated inputs.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import repro.experiments.common as common
from repro.campaign import (Campaign, execute_job, job_key, open_store,
                            plan_jobs)
from repro.campaign.jobs import KIND_ISOLATION
from repro.cmp.simulator import run_workload
from repro.config import SimulationConfig, config_unpartitioned
from repro.experiments import fig6, fig7, fig8
from repro.experiments.common import ExperimentScale, WorkloadRunner
from repro.workloads.generator import generate_workload_traces
from repro.workloads.mixes import get_workload
from repro.workloads.writes import overlay_workload_writes

#: Cycle-matching horizon of the campaign workloads (default: 5 M).  Below
#: this, slow threads hit the runner's 10 000-instruction budget floor and
#: jobs stop getting shorter.
TARGET_CYCLES = 200_000.0
#: Repartitioning interval: the default ``target_cycles`` / 5 ratio.
INTERVAL_CYCLES = 40_000
#: Trace length per thread of ``paper-mc`` and ``writeback-bw``.
MC_ACCESSES = 5_000
#: One Table II mix per core count keeps a repeat short enough that a run
#: holds several; the 1-core points stay the default six benchmarks.
MC_MIXES = dict(mixes_2t=("2T_05",), mixes_4t=("4T_01",), mixes_8t=("8T_02",))
#: ``writeback-bw`` points: two 1-core benchmarks (memory-bound mcf,
#: cache-friendly crafty) and one mix each at 2 and 4 cores.
WB_MIXES = dict(MC_MIXES, benchmarks_1t=("mcf", "crafty"))
#: Trace length per thread of ``isolation-1c``: long against the memos.
ISO_ACCESSES = 20_000
#: Store share and memory-channel service interval of ``writeback-bw``.
WRITE_FRACTION = 0.3
SERVICE_INTERVAL = 20.0


def campaign_scale(seed: int, accesses: int, micro: bool,
                   **mixes) -> ExperimentScale:
    """The campaign scale of one run (``micro`` shrinks it for self-tests)."""
    if micro:
        return ExperimentScale(
            scale=16, accesses=2_000, target_cycles=50_000.0,
            atd_sampling=4, interval_cycles=10_000, seed=seed,
            mixes_2t=("2T_05",), mixes_4t=("4T_03",), mixes_8t=("8T_11",),
            mixes_fig8=("2T_05",), benchmarks_1t=("crafty",))
    return ExperimentScale(accesses=accesses, target_cycles=TARGET_CYCLES,
                           interval_cycles=INTERVAL_CYCLES, seed=seed,
                           **mixes)


@dataclass
class RunData:
    """What one timed operation produced."""

    #: (store key or point label, simulated result) in a stable order.
    results: List[Tuple[str, Any]]
    attempted: int
    failed: List[str] = field(default_factory=list)
    #: Executed memory references (L1 accesses over every simulation).
    refs: int = 0
    paper_err_pct: Optional[float] = None


def _stat_fields(value: Any) -> Iterator[str]:
    """Every field of the ThreadResult/EventCounts inside a result."""
    if isinstance(value, common.RunOutcome):
        value = (value.result.threads, value.result.events)
    if is_dataclass(value):
        for f in fields(value):
            yield f.name
            yield from _stat_fields(getattr(value, f.name))
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _stat_fields(item)
    else:
        yield repr(value)


def digest(results: List[Tuple[str, Any]]) -> str:
    """SHA-256 over every simulated statistic, for exact comparison."""
    h = hashlib.sha256()
    for key, value in results:
        h.update(key.encode())
        for token in _stat_fields(value):
            h.update(b"\0" + token.encode())
    return h.hexdigest()


def same_stats(a: Any, b: Any) -> bool:
    """True when two results carry identical statistics."""
    return list(_stat_fields(a)) == list(_stat_fields(b))


def _reference_config(**kwargs) -> SimulationConfig:
    return SimulationConfig(engine="reference", **kwargs)


class CampaignWorkload:
    """A cold serial campaign against an empty store."""

    def __init__(self, jobs, scale: ExperimentScale,
                 assemble: bool) -> None:
        self.jobs = jobs
        self.scale = scale
        self.assemble = assemble
        self.store = None
        self.total = 0
        self.results: Dict[Any, Any] = {}

    def setup(self, store_dir: str) -> None:
        self.total = plan_jobs(self.jobs).total
        self.store = open_store(store_dir)

    def run(self, span: Callable[[str, Callable], Callable]) -> RunData:
        results, report = Campaign(self.store, workers=1).run(self.jobs)
        data = RunData(
            results=sorted(((job_key(job), value)
                            for job, value in results.items()),
                           key=lambda item: item[0]),
            attempted=self.total,
            failed=[f"{f.label}: {f.error}" for f in report.failed])
        if len(results) != self.total and not data.failed:
            data.failed.append(f"{self.total - len(results)} job(s) "
                               f"missing from the results")
        for job, value in results.items():
            if job.kind == KIND_ISOLATION:
                data.refs += value.l1_accesses
            else:
                data.refs += value.result.events.l1_accesses
        if self.assemble and not data.failed:
            data.paper_err_pct = paper_error_pct(self.scale, results, span)
        self.results = results
        return data

    def reference_check(self, rng: random.Random) -> Tuple[str, bool]:
        """Re-simulate one sampled job with the reference engine."""
        jobs = sorted(self.results, key=job_key)
        job = rng.choice(jobs)
        # WorkloadRunner builds its SimulationConfigs by this name.
        patched = common.SimulationConfig
        common.SimulationConfig = _reference_config
        try:
            again = execute_job(job, WorkloadRunner(self.scale))
        finally:
            common.SimulationConfig = patched
        return job.label, same_stats(again, self.results[job])


def paper_error_pct(scale: ExperimentScale, results,
                    span: Callable[[str, Callable], Callable]) -> float:
    """Mean |measured / paper - 1| over the Fig. 6/7 throughput points.

    Simulated, not host time; the model is unvalidated against hardware.
    """
    errors = []
    for module in (fig6, fig7):
        data = span("experiments.assemble", module.assemble)(scale, results)
        for name, per_cores in module.PAPER_REL_THROUGHPUT.items():
            for cores, paper in per_cores.items():
                measured = data.relative["throughput"].get(cores, {}).get(
                    name)
                if measured is not None:
                    errors.append(abs(measured / paper - 1.0))
    return 100.0 * sum(errors) / len(errors)


class WritebackWorkload:
    """Write-overlaid unpartitioned points through ``run_workload``."""

    def __init__(self, scale: ExperimentScale, seed: int) -> None:
        self.scale = scale
        self.seed = seed
        points = [(name,) for name in scale.benchmarks_1t]
        points += [get_workload(mix) for cores in (2, 4)
                   for mix in scale.mixes_for(cores)]
        self.points = points
        #: (label, run_workload arguments) per point, built in setup.
        self.runs: List[Tuple[str, tuple]] = []
        self.results: Dict[str, Any] = {}

    def setup(self, store_dir: str) -> None:
        scale = self.scale
        self.runs = []
        for benchmarks in self.points:
            traces = generate_workload_traces(
                benchmarks, scale.accesses, scale.baseline_l2_lines,
                seed=scale.seed)
            traces = overlay_workload_writes(traces, WRITE_FRACTION,
                                             seed=self.seed)
            processor = scale.processor(len(benchmarks))
            for policy in ("lru", "nru", "bt"):
                for interval in (0.0, SERVICE_INTERVAL):
                    label = f"{'+'.join(benchmarks)}/{policy}/msi={interval}"
                    # The default budget: one pass over each trace.
                    sim = SimulationConfig(
                        seed=scale.seed, memory_service_interval=interval)
                    self.runs.append((label, (
                        processor, config_unpartitioned(policy), traces,
                        sim)))

    def run(self, span) -> RunData:
        data = RunData(results=[], attempted=len(self.runs))
        for label, args in self.runs:
            result = run_workload(*args)
            data.results.append((label, result))
            data.refs += result.events.l1_accesses
        self.results = dict(data.results)
        return data

    def reference_check(self, rng: random.Random) -> Tuple[str, bool]:
        """Re-simulate one sampled point with the reference engine."""
        label, (processor, config, traces, sim) = rng.choice(self.runs)
        again = run_workload(processor, config, traces,
                             replace(sim, engine="reference"))
        return label, same_stats(again, self.results[label])


def make(name: str, seed: int, micro: bool = False):
    """The workload ``name`` with its inputs generated from ``seed``."""
    if name == "paper-mc":
        scale = campaign_scale(seed, MC_ACCESSES, micro, **MC_MIXES)
        return CampaignWorkload(fig6.matrix(scale) + fig7.matrix(scale),
                                scale, assemble=True)
    if name == "isolation-1c":
        scale = campaign_scale(seed, ISO_ACCESSES, micro)
        plan = plan_jobs(fig6.matrix(scale) + fig7.matrix(scale)
                         + fig8.matrix(scale))
        jobs = [job for _key, job in plan.isolation]
        jobs += [job for _key, job in plan.outcome
                 if len(job.workload) == 1]
        return CampaignWorkload(jobs, scale, assemble=False)
    if name == "writeback-bw":
        scale = campaign_scale(seed, MC_ACCESSES, micro, **WB_MIXES)
        return WritebackWorkload(scale, seed)
    raise KeyError(f"unknown workload {name!r}")
