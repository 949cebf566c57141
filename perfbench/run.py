"""The cypair benchmark: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload genera --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28

Run from the root of a source tree (``src/cypair`` next to ``perfbench``).
Each repetition is a fresh worker process, started one at a time, with
``PYTHONHASHSEED=0``, ``CYPAIR_JOBS`` unset and ``PYTHONPATH`` set to the
tree's ``src``.  Repetitions run until ``--seconds`` have passed; the
metrics are medians over them, ``wall_s`` and ``setup_s`` scaled to a
reference speed (see ``GAUGE_REF_S``).

The workloads and metrics are those listed in ``BENCHMARK.json``.
``--trace 0`` reports its ``end_to_end`` metrics: ``wall_s``, ``setup_s``
and ``peak_rss_mb``.  ``--trace 1`` alternates untraced and traced
repetitions, reports its ``per_layer`` metrics (self times are medians over
the traced repetitions; counts must repeat exactly between them) and writes
the spans to ``.perfbench_work``.  Every repetition's outputs are checked
against the workload's oracle.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 1 if
any check failed, and 2, with no result, if the run could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
WORKER = HERE / "worker.py"

#: A workload's run ends within this many seconds, however slow the program.
RUN_LIMIT_S = 170.0
#: The worker's speed gauge takes this long at the reference speed.  The
#: host's speed drifts by up to 1.7x over tens of seconds, so ``wall_s`` and
#: ``setup_s`` are reported at the reference speed: each sample is scaled by
#: GAUGE_REF_S over the gauge timed in the same process.
GAUGE_REF_S = 0.050


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to the program being wrong)."""


def environment(seed: int) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        sha = ""
    return {"git_sha": sha or "unknown", "python": platform.python_version(),
            "nproc": os.cpu_count(), "seed": seed, "PYTHONHASHSEED": "0",
            "CYPAIR_JOBS": "unset"}


def load_spec() -> dict:
    return json.loads(SPEC.read_text(encoding="utf-8"))


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    return {m["name"]: m["unit"] for m in load_spec()[kind]}


def spawn(workload: str, seed: int, deadline: float, *, rep: int = 0,
          trace: bool = False, setup_only: bool = False) -> dict:
    """Run one worker; return its result with ``setup_s`` added."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.pop("CYPAIR_JOBS", None)
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), "--src", str(SRC), "--workdir", str(WORKDIR),
           "--rep", str(rep)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    start = time.perf_counter()
    timeout = max(deadline - start, 1.0)
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True) as proc:
        # A timer rather than communicate(timeout=...), so that the deadline
        # also covers a worker that hangs before it prints ``ready``.
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            out = proc.stdout.read()
            proc.wait()
        finally:
            timer.cancel()
    if time.perf_counter() - start >= timeout:
        raise BenchError(f"{workload} repetition timed out after {timeout:.0f} s")
    if ready != "ready\n" or proc.returncode != 0:
        raise BenchError(f"worker for {workload} exited with {proc.returncode}")
    result = json.loads(out.splitlines()[-1])
    result["setup_s"] = setup_s
    return result


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest of p50..p99 with at least ten samples beyond it."""
    n = len(samples)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) // 100 >= 10:
            return p, statistics.quantiles(samples, n=100)[p - 1]
    return None


def at_reference_speed(samples: list[dict], key: str) -> list[float]:
    return [r[key] * GAUGE_REF_S / r["gauge_s"] for r in samples]


def measure(workload: str, seed: int, seconds: float,
            deadline: float) -> tuple[dict, list[str]]:
    """Untraced repetitions for ``seconds``; end-to-end metrics.

    An import-only start precedes each repetition, so that ``setup_s`` is a
    median over two interpreter starts per repetition, taken under the same
    load as the repetitions themselves.  A new round starts only if one as
    long as the last still ends within ``seconds``.
    """
    spawn(workload, seed, deadline, setup_only=True)  # warm the bytecode cache
    start = time.perf_counter()
    end = min(start + seconds, deadline)
    probes, reps, last = [], [], 0.0
    while not reps or time.perf_counter() + last <= end:
        began = time.perf_counter()
        probes.append(spawn(workload, seed, deadline, setup_only=True))
        reps.append(spawn(workload, seed, deadline, rep=len(reps)))
        last = time.perf_counter() - began
    starts = probes + reps
    walls = at_reference_speed(reps, "wall_s")
    setups = at_reference_speed(starts, "setup_s")
    rss = [r["rss_mb"] for r in reps]
    values = {"wall_s": statistics.median(walls),
              "setup_s": statistics.median(setups),
              "peak_rss_mb": statistics.median(rss)}
    metrics = {name: (values[name], unit)
               for name, unit in metric_units("end_to_end").items()}
    raw_wall = statistics.median(r["wall_s"] for r in reps)
    raw_setup = statistics.median(r["setup_s"] for r in starts)
    gauge = statistics.median(r["gauge_s"] for r in starts)
    tail = tail_percentile(walls)
    lines = [
        f"wall_s {values['wall_s']:.4f} s at reference speed (median of "
        f"{len(walls)} repetitions; " + (f"p{tail[0]} {tail[1]:.4f} s" if tail
                                         else "too few for a tail percentile")
        + f"; as timed {raw_wall:.4f} s)",
        f"setup_s {values['setup_s']:.4f} s at reference speed (median of "
        f"{len(setups)} interpreter starts; as timed {raw_setup:.4f} s)",
        f"gauge {gauge * 1e3:.2f} ms (median; {GAUGE_REF_S * 1e3:.0f} ms at "
        "reference speed)",
        f"peak_rss_mb {values['peak_rss_mb']:.2f} MiB (median of {len(rss)})",
    ]
    result = summarize(reps, metrics)
    result["samples"] = {
        "wall_s": [r["wall_s"] for r in reps],
        "wall_gauge_s": [r["gauge_s"] for r in reps],
        "setup_s": [r["setup_s"] for r in starts],
        "setup_gauge_s": [r["gauge_s"] for r in starts],
        "peak_rss_mb": rss}
    return result, lines


def trace(workload: str, seed: int, seconds: float,
          deadline: float) -> tuple[dict, list[str]]:
    """Untraced and traced repetitions alternately; per-layer metrics."""
    spawn(workload, seed, deadline, setup_only=True)
    start = time.perf_counter()
    end = min(start + seconds, deadline)
    plain, traced, last = [], [], 0.0
    # At least one untraced and two traced repetitions, then one untraced
    # for every two traced.
    while (len(plain) < 1 or len(traced) < 2
           or time.perf_counter() + last <= end):
        began = time.perf_counter()
        if len(plain) * 2 < len(traced) or not plain:
            plain.append(spawn(workload, seed, deadline, rep=len(plain)))
        else:
            traced.append(spawn(workload, seed, deadline, rep=len(traced),
                                trace=True))
        last = time.perf_counter() - began

    extra = []  # counts must repeat exactly between traced repetitions
    first = traced[0]["counts"]
    for name in sorted(first):
        values = {r["counts"].get(name) for r in traced}
        extra.append((f"count {name} repeats", len(values) == 1, str(values)))
    values = dict(first)
    for name in traced[0]["times"]:
        values[name] = statistics.median(r["times"][name] for r in traced)
    values["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in plain))
    metrics = {name: (values.get(name, 0), unit)
               for name, unit in metric_units("per_layer").items()}
    wall = values["trace.wall_s"]
    lines = [f"traced wall {wall:.4f} s (median of {len(traced)}), "
             f"overhead {values['trace.overhead_s']:.4f} s over "
             f"{len(plain)} untraced"]
    # <layer>.self_s, one per layer, is the only self time with one dot.
    lines += [f"layer {name[:-len('.self_s')]}: {value:.4f} s self, "
              f"{value / wall:.1%} of traced wall"
              for name, value in values.items()
              if name.endswith(".self_s") and name.count(".") == 1]
    result = summarize(plain + traced, metrics, extra)
    result["samples"] = {"untraced_wall_s": [r["wall_s"] for r in plain],
                         "traced_wall_s": [r["wall_s"] for r in traced]}
    return result, lines


def summarize(reps: list[dict], metrics: dict, extra=()) -> dict:
    attempted = sum(r["attempted"] for r in reps) + len(extra)
    failures = [f for r in reps for f in r["failures"]]
    failures += [f"{name}: {detail}" for name, ok, detail in extra if not ok]
    failed = sum(r["failed"] for r in reps) + sum(not ok for _, ok, _ in extra)
    return {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failures": failures[:20],
    }


def run_one(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT_S
    result, lines = (trace if traced else measure)(workload, seed, seconds,
                                                   deadline)
    env = environment(seed)
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"workload {workload}, trace {int(traced)}")
    for line in lines:
        print(line)
    print(f"fail_ratio {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} failed of {result['attempted']} checks)")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    record = WORKDIR / f"result-{workload}-seed{seed}-trace{int(traced)}.json"
    record.write_text(json.dumps({"env": env, **result}, indent=1),
                      encoding="utf-8")
    return {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}


def main(argv=None) -> int:
    workload_names = [w["name"] for w in load_spec()["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workload_names + ["all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cypair" / "__init__.py").is_file():
        print(f"error: no cypair sources under {SRC}", file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    names = workload_names if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_one(name, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        print(json.dumps(results, sort_keys=True))
    else:
        print(json.dumps(results[args.workload], sort_keys=True))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
