"""One cold repeat of a benchmark workload, in its own process.

Started by ``run.py`` once per repeat, so every repeat begins with an
empty temporary store and empty process-wide memos, as a user's fresh
``repro campaign run`` does.  Prints one JSON record as its last line.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import tempfile
import time


def _store_bytes(root: str) -> int:
    return sum(os.path.getsize(os.path.join(path, name))
               for path, _dirs, names in os.walk(root) for name in names)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--started", type=float, required=True,
                        help="time.monotonic() when the parent spawned us")
    parser.add_argument("--micro", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--check", action="store_true",
                        help="also re-simulate one point on the reference "
                             "engine (outside the timed region)")
    args = parser.parse_args(argv)

    import calibrate
    # Untraced repeats count set-up and the timed operation in reference
    # seconds; traced ones in host seconds only, as the probe's interrupts
    # would land inside traced spans.
    probe = None if args.trace else calibrate.SpeedProbe()
    unprobed = time.monotonic() - args.started  # interpreter start-up
    if probe is not None:
        probe.start()
    sys.path.insert(0, os.path.join(args.root, "src"))
    import tracer as tracing
    import workloads
    from repro.cache.kernels import array
    from repro.cmp.engine import vector

    tracer = tracing.Tracer()
    if args.trace:
        tracing.install(tracer)
    build_dir = os.path.join(args.root, ".bench_build", "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=build_dir) as store_dir:
        workload = workloads.make(args.workload, args.seed, args.micro)
        workload.setup(store_dir)
        setup_host = time.monotonic() - args.started
        setup = setup_host
        if probe is not None:
            setup = unprobed + probe.stop()[1]
            probe.start()
        start = time.perf_counter()
        tracer.enabled = args.trace
        data = workload.run(tracer.wrap)
        tracer.enabled = False
        wall, ref_wall = time.perf_counter() - start, None
        if probe is not None:
            wall, ref_wall = probe.stop()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record = {
            "setup_s": setup,
            "setup_host_s": setup_host,
            "wall_s": wall,
            "ref_wall_s": ref_wall,
            "refs": data.refs,
            "peak_rss_mb": rss_mb,
            "attempted": data.attempted,
            "failed": data.failed,
            "digest": workloads.digest(data.results),
            "paper_err_pct": data.paper_err_pct,
        }
        if args.trace:
            record["trace"] = {
                "self_s": dict(tracer.self_s),
                "run_s": dict(tracer.run_s),
                "calls": dict(tracer.calls),
                "counts": dict(tracer.counts),
                "put_bytes": _store_bytes(store_dir),
                "memo": {**vector.memo_stats(), **array.memo_stats()},
            }
        if args.check and not data.failed:
            label, ok = workload.reference_check(random.Random(args.seed))
            record["reference_check"] = {"point": label, "ok": ok}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
