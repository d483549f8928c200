"""The repository benchmark: cold serial campaign wall-clock per workload.

    python3 perfbench/run.py --workload paper-mc --seed 1 --seconds 35

Workloads (defined in ``workloads.py``): ``paper-mc``, ``isolation-1c``
and ``writeback-bw``.  The load is a closed loop with one caller on the
serial pool.  Each repeat is a fresh process (``repeat.py``) with an
empty temporary store and empty process-wide memos; repeats run until
``--seconds`` is spent (at least three), and every timing is the median
over them.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: process start to the first simulated job (imports,
  ``plan_jobs``, store open, the write overlay of ``writeback-bw``);
* ``wall_s``: the timed operation (the cold campaign, or the batch of
  ``run_workload`` calls);
* ``sim_mrefs_per_s``: executed memory references per reference second;
* ``peak_rss_mb``: the host memory high-water mark of a repeat.

Times are reference seconds: host seconds rescaled, slice by slice, to
one fixed host speed by the in-process probe of ``calibrate.py``, because
the host's own speed drifts by up to 2x (only the interpreter start-up
before the probe starts, ~0.05 s of ``setup_s``, stays in host seconds).
The host-second medians are printed as well.

``--trace 1`` alternates untraced and traced repeats and prints the
per-layer metrics of the traced ones (spans from ``tracer.py``), a
per-layer share table and the tracing overhead.

Output checks: no job fails; every repeat yields the same digest over
every simulated statistic (printed, so two commits compare exactly); one
point sampled from the seed is re-simulated on the reference engine,
outside the timed region, and must match bit for bit.  ``failed`` counts
failed jobs and failed checks.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Exits 2 without a result when the source tree (``src/repro``) is absent.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from statistics import median
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import ENGINE_CHILDREN, LAYERS  # noqa: E402

WORKLOADS = ("paper-mc", "isolation-1c", "writeback-bw")
#: Repeats per run at the least (``--trace 1``: per kind of repeat).
MIN_REPEATS = 3
MIN_TRACED = 2
#: A repeat must finish within this many seconds.
REPEAT_TIMEOUT_S = 150

END_TO_END = (("setup_s", "s"), ("wall_s", "s"),
              ("sim_mrefs_per_s", "Mrefs/s"), ("peak_rss_mb", "MB"))


class RepeatFailed(RuntimeError):
    """A repeat process exited abnormally."""


def spawn(root: Path, args, trace: bool, check: bool) -> dict:
    """Run one cold repeat in a fresh process; returns its record."""
    cmd = [sys.executable, str(HERE / "repeat.py"), "--root", str(root),
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.micro:
        cmd.append("--micro")
    if trace:
        cmd.append("--trace")
    if check:
        cmd.append("--check")
    # The program sees only the generated inputs, never REPRO_* knobs.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    cmd += ["--started", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                          text=True, timeout=REPEAT_TIMEOUT_S)
    if proc.returncode != 0:
        raise RepeatFailed(f"repeat exited with {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(root: Path, args) -> List[dict]:
    """Cold repeats until ``--seconds`` is spent; traced ones alternate."""
    deadline = time.monotonic() + args.seconds
    records: List[dict] = []
    while True:
        traced = bool(args.trace) and len(records) % 2 == 1
        record = spawn(root, args, traced, check=not records)
        record["traced"] = traced
        records.append(record)
        plain = sum(1 for r in records if not r["traced"])
        enough = (plain >= MIN_REPEATS if not args.trace
                  else len(records) - plain >= MIN_TRACED
                  and len(records) % 2 == 0)
        # Start another repeat only if it should end before the deadline.
        last = record["setup_host_s"] + record["wall_s"]
        if enough and time.monotonic() + last > deadline:
            return records


def end_to_end(records: List[dict]) -> Dict[str, float]:
    """End-to-end medians over the untraced repeats."""
    plain = [r for r in records if not r["traced"]]
    return {
        "setup_s": median(r["setup_s"] for r in plain),
        "wall_s": median(r["ref_wall_s"] for r in plain),
        "sim_mrefs_per_s": median(r["refs"] / r["ref_wall_s"] / 1e6
                                  for r in plain),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
    }


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def layer_values(record: dict) -> Dict[str, tuple]:
    """Per-layer metrics of one traced repeat: name -> (value, unit)."""
    trace = record["trace"]
    self_s = defaultdict(float, trace["self_s"])
    calls = Counter(trace["calls"])
    counts = Counter(trace["counts"])
    memo = trace["memo"]
    l2 = counts["cmp.engine.l2_accesses"]
    engine_self = self_s["cmp.engine"]
    return {
        "cmp.engine.run_s": (trace["run_s"].get("cmp.engine", 0.0), "s"),
        "cmp.engine.self_s": (engine_self, "s"),
        "cmp.engine.self_ns_per_l2_access":
            (1e9 * engine_self / l2 if l2 else 0.0, "ns"),
        "cmp.engine.l2_accesses": (l2, "count"),
        "cmp.engine.runs.batched": (counts["cmp.engine.runs.batched"],
                                    "count"),
        "cmp.engine.runs.vector": (counts["cmp.engine.runs.vector"], "count"),
        "cmp.engine.runs.solo": (counts["cmp.engine.runs.solo"], "count"),
        "cache.kernels.set_run_s": (self_s["cache.kernels.set_run"], "s"),
        "cache.kernels.set_run_calls": (calls["cache.kernels.set_run"],
                                        "count"),
        "cache.kernels.cold_memo_hit_ratio":
            (_ratio(memo["cold_hits"], memo["cold_misses"]), "ratio"),
        "cmp.vector.l1_memo_hit_ratio":
            (_ratio(memo["l1_hits"], memo["l1_misses"]), "ratio"),
        "cmp.vector.window_memo_hit_ratio":
            (_ratio(memo["window_hits"], memo["window_misses"]), "ratio"),
        "workloads.trace_gen_s": (self_s["workloads.trace_gen"], "s"),
        "workloads.trace_gen_calls": (calls["workloads.trace_gen"], "count"),
        "cache.l1.prefilter_s": (self_s["cache.l1.prefilter"], "s"),
        "cache.l1.prefilter_refs": (counts["cache.l1.prefilter_refs"],
                                    "count"),
        "profiling.atd.drain_s": (self_s["profiling.atd.drain"], "s"),
        "profiling.atd.sampled_accesses":
            (counts["profiling.atd.sampled_accesses"], "count"),
        "core.controller.boundary_s": (self_s["core.controller.boundary"],
                                       "s"),
        "core.controller.repartitions":
            (counts["core.controller.repartitions"], "count"),
        "campaign.plan_s": (self_s["campaign.plan"], "s"),
        "campaign.store.get_s": (self_s["campaign.store.get"], "s"),
        "campaign.store.put_s": (self_s["campaign.store.put"], "s"),
        "campaign.store.put_bytes": (trace["put_bytes"], "bytes"),
        "campaign.store.hit_ratio":
            (_ratio(counts["campaign.store.hits"],
                    counts["campaign.store.gets"]
                    - counts["campaign.store.hits"]), "ratio"),
        "hwmodel.power_s": (self_s["hwmodel.power"], "s"),
        "experiments.assemble_s": (self_s["experiments.assemble"], "s"),
    }


def engine_sum_error(record: dict) -> float:
    """|engine self + engine-only child self times - engine run time|."""
    trace = record["trace"]
    parts = trace["self_s"].get("cmp.engine", 0.0) + sum(
        trace["self_s"].get(layer, 0.0) for layer in ENGINE_CHILDREN)
    return abs(parts - trace["run_s"].get("cmp.engine", 0.0))


def per_layer(records: List[dict]) -> Dict[str, tuple]:
    """Per-layer medians over the traced repeats, plus tracing overhead."""
    traced = [r for r in records if r["traced"]]
    rows = [layer_values(r) for r in traced]
    out = {name: (median(row[name][0] for row in rows), unit)
           for name, (_value, unit) in rows[0].items()}
    plain_wall = median(r["wall_s"] for r in records if not r["traced"])
    traced_wall = median(r["wall_s"] for r in traced)
    out["trace.overhead_pct"] = (100.0 * (traced_wall / plain_wall - 1.0),
                                 "%")
    return out


def share_table(records: List[dict]) -> List[str]:
    """Each layer's self time and its share of traced ``wall_s``."""
    traced = [r for r in records if r["traced"]]
    wall = median(r["wall_s"] for r in traced)
    lines = [f"  {'layer':<28} {'self_s':>9} {'share':>7}  moves"]
    covered = 0.0
    for layer, moves in LAYERS:
        value = median(r["trace"]["self_s"].get(layer, 0.0) for r in traced)
        covered += value
        lines.append(f"  {layer:<28} {value:9.4f} {100 * value / wall:6.2f}%"
                     f"  {moves}")
    rest = wall - covered
    lines.append(f"  {'(unattributed)':<28} {rest:9.4f} "
                 f"{100 * rest / wall:6.2f}%  scheduler, job set-up, "
                 f"simulator construction")
    return lines


def checks(records: List[dict]) -> List[str]:
    """Failed output checks, as messages (empty when all pass)."""
    problems = []
    for record in records:
        problems += [f"job failed: {msg}" for msg in record["failed"]]
        if record["traced"] and engine_sum_error(record) > 1e-6:
            problems.append("traced engine children + self != run time")
    if len({r["digest"] for r in records}) != 1:
        problems.append("repeats disagree on the result digest")
    ref = records[0].get("reference_check")
    if ref is None:
        problems.append("reference re-simulation did not run")
    elif not ref["ok"]:
        problems.append(f"reference engine disagrees on {ref['point']}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Cold serial campaign benchmark (see module docstring).")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--micro", action="store_true",
                        help="tiny inputs, for the benchmark's self-test")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no source tree at {root / 'src' / 'repro'}; "
              f"run from the repository root", file=sys.stderr)
        return 2
    try:
        records = measure(root, args)
    except (RepeatFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    problems = checks(records)
    # Jobs of every repeat, plus the reference re-simulation.
    attempted = sum(r["attempted"] for r in records) + 1
    failed = len(problems)
    plain = sum(1 for r in records if not r["traced"])
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"repeats={plain} untraced + {len(records) - plain} traced "
          f"(cold, serial, one process each)")
    print(f"  digest {records[0]['digest']}")
    ref = records[0].get("reference_check")
    if ref is not None:
        print(f"  reference re-simulation of {ref['point']}: "
              f"{'match' if ref['ok'] else 'MISMATCH'}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print(f"  failed_frac {failed / attempted:.4f} "
          f"({failed} of {attempted} jobs and checks)")
    if records[0]["paper_err_pct"] is not None:
        print(f"  paper_err_pct {records[0]['paper_err_pct']:.3f} % "
              f"(simulated; the model is unvalidated against hardware)")

    e2e = end_to_end(records)
    plain_records = [r for r in records if not r["traced"]]
    walls = " ".join(f"{r['ref_wall_s']:.3f}/{r['wall_s']:.3f}"
                     for r in plain_records)
    print(f"  untraced wall_s per repeat (reference/host s): {walls}")
    print(f"  host seconds: setup_s median "
          f"{median(r['setup_host_s'] for r in plain_records):.6g} s, "
          f"wall_s median {median(r['wall_s'] for r in plain_records):.6g} s")
    for name, unit in END_TO_END:
        print(f"  {name} {e2e[name]:.6g} {unit}")
    if args.trace:
        layers = per_layer(records)
        for name, (value, unit) in layers.items():
            print(f"  {name} {value:.6g} {unit}")
        print("\n".join(share_table(records)))
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in layers.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
