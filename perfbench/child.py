"""One benchmark pass in a fresh process; ``run.py`` starts it.

Set-up time runs from the parent's clock reading just before it started
this process (CLOCK_MONOTONIC is shared by all processes) to the moment
the workload's state is built.  The pass result, with its spans when
traced, goes to the JSON file named by ``--result``.
"""

from __future__ import annotations

import time

_PROCESS_START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402


def library_facts() -> dict:
    import numpy
    import scipy

    facts = {"numpy": numpy.__version__, "scipy": scipy.__version__, "blas": "unknown"}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError, ValueError):
        pass
    return facts


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", default="full", choices=sorted(workloads.SIZES))
    p.add_argument("--pass-id", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, default=_PROCESS_START)
    p.add_argument("--out", type=Path, required=True, help="empty directory for artifacts")
    p.add_argument("--result", type=Path, required=True)
    args = p.parse_args(argv)

    state = workloads.setup(args.workload, args.seed, args.size)
    ready = time.monotonic()

    tracer = tracing.Tracer(args.pass_id) if args.trace else None
    cpu = time.process_time()
    start = time.perf_counter()
    if tracer is None:
        outcome = workloads.run_pass(state, args.out)
    else:
        with tracer:
            outcome = tracer.span("pass", workloads.run_pass, state, args.out)
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu

    result = {
        "pass_id": args.pass_id,
        "traced": bool(args.trace),
        "setup_s": ready - args.spawned_at,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": outcome.attempted,
        "failures": outcome.failures,
        "max_rel_err": outcome.max_rel_err,
        "hashes": outcome.hashes,
        "artifact_bytes": outcome.artifact_bytes,
        "facts": library_facts(),
    }
    if tracer is not None:
        root = next(s for s in tracer.spans if s.name == "pass")
        result["layers"] = tracing.layer_metrics(tracer.spans, root, outcome.artifact_bytes)
        result["absent"] = tracer.absent
        result["spans"] = [asdict(s) for s in tracer.spans]
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
