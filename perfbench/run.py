"""conespectra benchmark: one workload, timed end to end or per layer.

Run from the repository root:

    python3 perfbench/run.py --workload example53 --seed 1 --seconds 40 --trace 0

Each pass runs in a fresh child process, one at a time, for as long as
another pass still fits in ``--seconds`` (at least one pass; two with
``--trace 1``).
The package keeps its default thread settings.

--trace 0   untraced passes; prints the end-to-end metrics
--trace 1   untraced and traced passes alternate; prints the per-layer
            metrics of the traced ones and the tracing overhead

Every output is checked (see ``workloads.py``).  A table goes to stdout,
then one JSON line with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Machine facts, per-pass figures, failures and spans are
written to ``perfbench/results/``, with the load average and the CPU
time lost to iowait and steal, so that runs hit by contention show.  The exit code is 0 when every check
passed, 1 when one failed, 2 when the package is missing and 3 when a
pass could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
DEFAULT_SECONDS = 10
PASS_TIMEOUT_S = 170.0  # a run must end within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "CONESPECTRA_THREADS")

# (metric, unit, better) printed with --trace 0
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("max_rel_err", "ratio", "lower"),
)


class PassCrashed(RuntimeError):
    """A child process ended without writing its result."""


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unknown"


def cpu_stall() -> dict:
    """CPU-seconds of iowait and steal since boot, summed over all CPUs (/proc/stat).

    Steal is time the hypervisor gave this machine's CPUs to someone
    else; a pass with much of it ran under outside contention.
    """
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        tick = os.sysconf("SC_CLK_TCK")
        return {"iowait_s": int(fields[5]) / tick, "steal_s": int(fields[8]) / tick}
    except (OSError, IndexError, ValueError):
        return {}


def stall_between(before: dict, after: dict) -> dict:
    return {k: round(after[k] - before[k], 2) for k in after.keys() & before.keys()}


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": commit,
    }


def run_child(args, pass_id: int, traced: bool, work: Path, timeout: float) -> dict:
    out = work / f"pass{pass_id}"
    out.mkdir()
    result_path = work / f"pass{pass_id}.json"
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
        "--pass-id", str(pass_id), "--trace", "1" if traced else "0",
        "--out", str(out), "--result", str(result_path),
    ]
    stall = cpu_stall()
    spawned = time.monotonic()
    proc = subprocess.Popen(
        cmd + ["--spawned-at", repr(spawned)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        _, err = proc.communicate(timeout=timeout)
    except BaseException as exc:  # timeout or interrupt: never leave the child running
        proc.kill()
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise PassCrashed(f"pass {pass_id} exceeded {timeout:.0f} s and was killed") from exc
        raise
    stall = stall_between(stall, cpu_stall())
    shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0 or not result_path.exists():
        raise PassCrashed(f"pass {pass_id} exited with {proc.returncode}:\n{err[-4000:]}")
    result = json.loads(result_path.read_text())
    result.update(stall)
    return result


def run_passes(args, work: Path) -> list:
    """Passes until the next one, as long as the typical one so far, would end past --seconds."""
    start = time.monotonic()
    deadline = start + args.seconds
    min_passes = 2 if args.trace else 1
    passes, took = [], []
    while len(passes) < min_passes or time.monotonic() + statistics.median(took) <= deadline:
        traced = bool(args.trace) and len(passes) % 2 == 1
        began = time.monotonic()
        remaining = PASS_TIMEOUT_S - (began - start)
        passes.append(run_child(args, len(passes), traced, work, max(remaining, 1.0)))
        took.append(time.monotonic() - began)
    return passes


def check_identity(passes: list) -> None:
    """Artifacts of every pass must hash like those of the first pass that wrote them."""
    reference = next((p["hashes"] for p in passes if p["hashes"]), None)
    for p in passes:
        if p["hashes"] and p["hashes"] != reference:
            differ = sorted(k for k in reference.keys() | p["hashes"].keys()
                            if reference.get(k) != p["hashes"].get(k))
            p["failures"].append(f"artifacts differ from the first pass: {', '.join(differ)}")


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def summarize(passes: list, trace: bool) -> dict:
    """Metrics of a run, as printed: end-to-end without tracing, per layer with it."""
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    errs = [p["max_rel_err"] for p in passes if p["max_rel_err"] is not None]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(min(len(p["failures"]), p["attempted"]) for p in passes)
    summary = {
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted if attempted else 1.0,
        "samples": {"untraced": len(plain), "traced": len(traced)},
        "spread": {},
    }
    if not trace:
        metrics = {}
        for name, unit, _ in END_TO_END:
            if name == "max_rel_err":
                metrics[name] = {"value": max(errs) if errs else None, "unit": unit}
                continue
            values = [p[name] for p in plain]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
            summary["spread"][name] = quartiles(values)
    else:
        metrics = {}
        for name, unit, _ in tracing.PER_LAYER:
            if name == "trace.overhead_ratio":
                ratio = statistics.median(p["wall_s"] for p in traced) / statistics.median(
                    p["wall_s"] for p in plain
                ) - 1.0
                metrics[name] = {"value": ratio, "unit": unit}
            else:
                # counts and sizes stay whole numbers
                middle = statistics.median if unit == "s" or unit == "ratio" else statistics.median_low
                metrics[name] = {"value": middle(p["layers"][name] for p in traced), "unit": unit}
        summary["absent"] = sorted({a for p in traced for a in p["absent"]})
    summary["metrics"] = metrics
    summary["correct"] = failed == 0 and all(m["value"] is not None for m in metrics.values())
    return summary


def print_table(args, summary: dict, facts: dict) -> None:
    n = summary["samples"]
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"passes {n['untraced']} untraced, {n['traced']} traced")
    print(f"machine: {facts['nproc']} cpu ({facts['cpu_model']}), {facts['blas']}, "
          f"python {facts['python']}, numpy {facts['numpy']}, scipy {facts['scipy']}")
    stall = stall_between(facts["cpu_stall_before"], facts["cpu_stall_after"])
    print(f"load: {facts['loadavg_before']} -> {facts['loadavg_after']}; "
          + ", ".join(f"{k} {v:.2f}" for k, v in sorted(stall.items())) + " over the run")
    samples = n["traced"] if args.trace else n["untraced"]
    for name, m in summary["metrics"].items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        q = summary["spread"].get(name)
        spread = f"  q1 {q[0]:.4g}  q3 {q[2]:.4g}" if q else ""
        print(f"  {name:<44} {value:>14} {m['unit']:<6} n={samples}{spread}")
    for name in summary.get("absent", ()):
        print(f"  absent: {name} (its metrics read 0)")
    print(f"operations: {summary['attempted']} attempted, {summary['failed']} failed "
          f"(failed_ratio {summary['failed_ratio']:.3g})")
    for failure in summary.get("failures", ()):
        print(f"  FAILED {failure}")


def write_results(args, summary: dict, facts: dict, passes: list) -> Path:
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-{args.size}-trace{args.trace}"
    spans = [s for p in passes for s in p.pop("spans", ())]
    for p in passes:
        p.pop("facts", None)
    path = results / f"{stem}.json"
    path.write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "size": args.size, "trace": args.trace,
         "seconds": args.seconds, "facts": facts, "summary": summary, "passes": passes},
        indent=1, default=str,
    ) + "\n")
    if spans:
        (results / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")
    return path


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", default="full", choices=sorted(workloads.SIZES),
                   help="'small' shrinks every workload, for the benchmark's own tests")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "conespectra" / "__init__.py").is_file():
        print(f"perfbench: no conespectra package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    facts = machine_facts()
    facts["loadavg_before"] = loadavg()
    facts["cpu_stall_before"] = cpu_stall()
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        passes = run_passes(args, work)
    except PassCrashed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    facts["loadavg_after"] = loadavg()
    facts["cpu_stall_after"] = cpu_stall()
    facts.update(passes[0]["facts"])

    check_identity(passes)
    summary = summarize(passes, bool(args.trace))
    summary["failures"] = [f"pass {q['pass_id']}: {f}" for q in passes for f in q["failures"]]
    print_table(args, summary, facts)
    path = write_results(args, summary, facts, passes)
    print(f"details: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": summary["metrics"],
    }))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
