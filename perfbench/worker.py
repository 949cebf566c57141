"""One repetition of a benchmark workload, in a fresh interpreter.

Started by ``run.py``, one process at a time, so that every repetition pays
what a ``cypair`` invocation pays: interpreter start, imports and cold
``lru_cache``s.  The worker prints ``ready`` as soon as cypair is imported
(the parent times set-up up to that line), then prepares the inputs, runs the
timed calls between two runs of a speed gauge, checks the outputs against the
oracle and prints one JSON line.  With ``--setup-only`` it runs only the
gauge after the import.

    python3 perfbench/worker.py --workload genera --seed 1 --src src \
        --workdir .perfbench_work [--trace] [--rep 0] [--setup-only]
"""

import sys

if __name__ == "__main__":
    import cypair.cli  # noqa: F401  -- every layer, as the CLI imports them

    print("ready", flush=True)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import cypair  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Steps of the speed gauge; about 50-70 ms on a 2-CPU VM.
GAUGE_STEPS = 200_000


def gauge_s() -> float:
    """Time of a fixed pure-Python loop that uses nothing from cypair.

    Integer arithmetic and dict stores, as in cypair's own inner loops.
    ``run.py`` divides each measurement by the gauge timed in the same
    process, so that the host's speed, which drifts by up to 1.7x over tens
    of seconds with other machines' load, cancels out.
    """
    start = time.perf_counter()
    acc, table = 1, {}
    for i in range(GAUGE_STEPS):
        acc = acc * 1_000_003 % 2_147_483_647
        table[acc & 4095] = i
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    loaded = Path(cypair.__file__).resolve().parent.parent
    if loaded != args.src.resolve():
        print(f"error: cypair was imported from {loaded}, not {args.src}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"gauge_s": gauge_s()}), flush=True)
        return 0

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.prepare(args.seed, workloads.FULL[args.workload],
                              args.workdir)
    tracer = tracing.Tracer() if args.trace else None
    before = gauge_s()
    if tracer:
        tracer.install()
    start = time.perf_counter()
    outputs = workload.execute(inputs)
    wall = time.perf_counter() - start
    if tracer:
        tracer.uninstall()
    gauge = (before + gauge_s()) / 2
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    gate = workloads.check(workload, inputs, outputs)
    result = {"wall_s": wall, "gauge_s": gauge, "rss_mb": rss_mb,
              "attempted": gate.attempted, "failed": gate.failed,
              "failures": gate.failures[:20]}
    if tracer:
        counts, times = tracer.summary(wall)
        counts["cli.report_bytes"] = workloads.report_bytes(outputs)
        result.update(counts=counts, times=times)
        path = args.workdir / f"spans-{args.workload}-rep{args.rep}.tsv"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tparent\tname\tstart_ns\tend_ns\trep\n")
            for sid, parent, name, start_ns, end_ns in tracer.spans():
                handle.write(
                    f"{sid}\t{parent}\t{name}\t{start_ns}\t{end_ns}\t{args.rep}\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
