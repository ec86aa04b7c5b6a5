"""Repeat the benchmark over seeds and report each end-to-end metric's spread.

    python3 perfbench/spread.py --workload oracle-sweep --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --baseline perfbench/baseline.json

For every workload and seed it runs ``run.py --trace 0`` once, then gives
each metric's median and quartiles over the seeds, and the spread
(q3 - q1) / median next to the metric's bound in BENCHMARK.json.  The
benchmark counts as steady when every spread is below a third
of its bound.  ``--against`` compares each median with that of an earlier
spread file: a later set may be worse by at most the bound.
``--baseline`` also makes one traced run per workload at the default
seed and adds to the given file this set's medians and quartiles (keyed
by the seed range), the per-layer table of each workload and the
machine facts.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def bench_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    # exit code 1 means a check failed: the result line is still printed
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    details = HERE / "results" / f"{workload}-seed{seed}-full-trace{trace}.json"
    facts = json.loads(details.read_text())["facts"]
    result["stall"] = run.stall_between(facts["cpu_stall_before"], facts["cpu_stall_after"])
    return result


def spread_table(workload: str, results: list, bounds: dict) -> dict:
    table = {}
    for name, unit, _ in run.END_TO_END:
        values = [r["metrics"][name]["value"] for r in results
                  if r["metrics"][name]["value"] is not None]  # None: no pass got that far
        if not values:
            print(f"{workload:<14} {name:<12} no value on any seed", flush=True)
            continue
        q1, med, q3 = run.quartiles(values)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds[name]
        table[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3, "spread": spread,
                       "bound": bound, "steady": spread < bound / 3.0, "values": values,
                       "steal_s": [r["stall"].get("steal_s") for r in results]}
        flag = "ok" if spread < bound / 3.0 else ("within bound" if spread <= bound else "TOO WIDE")
        print(f"{workload:<14} {name:<12} median {med:<12.6g} {unit:<6} q1 {q1:<10.5g} q3 {q3:<10.5g} "
              f"spread {spread:6.3f} bound {bound:5.2f}  {flag}", flush=True)
    return table


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=workloads.WORKLOADS,
                   help="repeatable; default is every workload")
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--against", type=Path, default=None, help="an earlier spread file")
    p.add_argument("--baseline", type=Path, default=None)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    names = args.workload or list(workloads.WORKLOADS)
    seeds = parse_seeds(args.seeds)

    summary = {"seeds": seeds, "seconds": seconds, "workloads": {}}
    steady = True
    for workload in names:
        results = []
        for seed in seeds:
            r = bench_once(workload, seed, seconds, 0)
            results.append(r)
            print(f"{workload} seed {seed}: wall_s {r['metrics']['wall_s']['value']:.4g}  "
                  f"setup_s {r['metrics']['setup_s']['value']:.4g}  "
                  + "  ".join(f"{k} {v:.2f}" for k, v in sorted(r["stall"].items())), flush=True)
            if not r["correct"]:
                print(f"{workload} seed {seed}: a check failed", flush=True)
                steady = False
        table = spread_table(workload, results, bounds)
        steady = steady and all(row["steady"] for row in table.values())
        summary["workloads"][workload] = {"end_to_end": table}

    if args.against is not None:
        earlier = json.loads(args.against.read_text())["workloads"]
        for workload in names:
            for name, row in summary["workloads"][workload]["end_to_end"].items():
                before = earlier[workload]["end_to_end"][name]["median"]
                change = (row["median"] - before) / before if before else 0.0
                held = change <= row["bound"]
                steady = steady and held
                print(f"{workload:<14} {name:<12} median {before:.6g} -> {row['median']:.6g} "
                      f"({change:+.3f}, bound {row['bound']:.2f}) {'ok' if held else 'WORSE'}")

    out = HERE / "results" / f"spread-{args.seeds}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")

    if args.baseline is not None:
        base = json.loads(args.baseline.read_text()) if args.baseline.exists() else {}
        base["seconds"] = seconds
        base.setdefault("end_to_end", {})[args.seeds] = {
            w: d["end_to_end"] for w, d in summary["workloads"].items()
        }
        per_layer = base.setdefault("per_layer", {})
        for workload in names:
            traced = bench_once(workload, run.DEFAULT_SEED, seconds, 1)
            per_layer[workload] = {k: v["value"] for k, v in traced["metrics"].items()}
        details = HERE / "results" / f"{names[0]}-seed{run.DEFAULT_SEED}-full-trace1.json"
        base["facts"] = json.loads(details.read_text())["facts"]
        args.baseline.write_text(json.dumps(base, indent=1) + "\n")
        print(f"baseline written to {args.baseline}")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
