"""The benchmark's own test: every workload at micro size.

    python3 -m pytest perfbench/selftest.py -q

Checks that every metric ``BENCHMARK.json`` names is printed with its
unit, that the output checks pass, that the traced child spans plus
``cmp.engine.self_s`` add up to ``cmp.engine.run_s``, that the seed
reaches the inputs, that the benchmark refuses to run without the
source tree, and that the host-speed probe's reference seconds follow
the work done.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
from tracer import ENGINE_CHILDREN  # noqa: E402

#: Per-layer metric of each layer that only runs inside the engine.
ENGINE_CHILD_METRICS = {
    "cache.l1.prefilter": "cache.l1.prefilter_s",
    "cache.kernels.set_run": "cache.kernels.set_run_s",
    "profiling.atd.drain": "profiling.atd.drain_s",
    "core.controller.boundary": "core.controller.boundary_s",
}


@functools.lru_cache(maxsize=None)
def bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    """(exit code, stdout) of one micro run; seconds=0 gives the minimum
    number of repeats (two traced ones under ``--trace 1``)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--micro"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout


def result(workload: str, trace: int, seed: int = 3):
    code, out = bench(workload, trace, seed)
    assert code == 0, out
    return json.loads(out.strip().splitlines()[-1]), out


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace, section):
    res, out = result(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert res["attempted"] >= 1
    names = [m["name"] for m in SPEC[section]]
    assert sorted(res["metrics"]) == sorted(names)
    for metric in SPEC[section]:
        printed = res["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        assert f"  {metric['name']} " in out
        line = next(text for text in out.splitlines()
                    if text.startswith(f"  {metric['name']} "))
        assert line.endswith(f" {metric['unit']}")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_engine_children_add_up_to_engine_run(workload):
    metrics = result(workload, 1)[0]["metrics"]
    assert set(ENGINE_CHILD_METRICS) == set(ENGINE_CHILDREN)
    parts = metrics["cmp.engine.self_s"]["value"] + sum(
        metrics[name]["value"] for name in ENGINE_CHILD_METRICS.values())
    assert parts == pytest.approx(metrics["cmp.engine.run_s"]["value"],
                                  rel=1e-9, abs=1e-9)
    assert metrics["cmp.engine.run_s"]["value"] > 0


def test_layers_each_workload_was_chosen_for():
    runs = {w: result(w, 1)[0]["metrics"] for w in WORKLOADS}

    def value(workload, name):
        return runs[workload][name]["value"]

    assert value("paper-mc", "profiling.atd.drain_s") > 0
    assert value("paper-mc", "core.controller.repartitions") > 0
    for other in ("isolation-1c", "writeback-bw"):
        assert value(other, "profiling.atd.drain_s") == 0
    assert value("writeback-bw", "cmp.engine.runs.solo") > 0
    for other in ("paper-mc", "isolation-1c"):
        assert value(other, "cmp.engine.runs.solo") == 0
    assert value("isolation-1c", "cmp.engine.runs.batched") == 0
    assert value("isolation-1c", "cache.kernels.set_run_calls") > 0


def _digest(out: str) -> str:
    return next(line.split()[1] for line in out.splitlines()
                if line.startswith("  digest "))


def test_seed_reaches_the_inputs():
    _, out_a = result("paper-mc", 0, seed=3)
    _, out_b = result("paper-mc", 0, seed=4)
    _, out_traced = result("paper-mc", 1, seed=3)
    assert _digest(out_a) == _digest(out_traced)
    assert _digest(out_a) != _digest(out_b)
    assert "paper_err_pct" in out_a


def test_refuses_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, out = bench("paper-mc", 0, cwd=tmp_path)
    assert code != 0
    assert '"correct"' not in out


def _busy(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i & 7
    return total


def test_probe_counts_the_work_between_probes():
    from calibrate import PERIOD_S, SpeedProbe

    spent = {}
    for n in (1_000_000, 2_000_000):
        probe = SpeedProbe()
        probe.start()
        _busy(n)
        spent[n] = probe.stop()
        assert len(probe.slices) >= 0.05 / PERIOD_S
    host, ref = spent[2_000_000]
    assert host > 0 and ref > 0
    # Reference seconds follow the work done, not the probes taken.
    assert 1.5 < ref / spent[1_000_000][1] < 2.5
