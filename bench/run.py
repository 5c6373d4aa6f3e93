"""Run one qrelay benchmark workload and print its metrics.

    python3 bench/run.py --workload search --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports qrelay from ./src. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. See bench/README.md.

Every reported time is process CPU time (time.process_time), not wall time.
The run is single-threaded and does not wait by design, so the two differ
only by the time the hypervisor gives this machine's CPUs to other guests,
which reached half of the wall time on the machine the bounds were set on.
"""

import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
TMP = ROOT / ".bench_tmp"
PREPARE_REPEATS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("search", "simulate", "closed_form"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="whole rounds of the operation list run until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qrelay" / "__init__.py").is_file():
        print(f"bench: qrelay sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import qrelay
    import tracer
    import workloads
    if Path(qrelay.__file__).resolve().parent != SRC / "qrelay":
        print(f"bench: imported qrelay from {qrelay.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import_s = time.process_time()   # CPU time since the process started

    workload = workloads.WORKLOADS[args.workload]
    workdir = TMP / f"{args.workload}-{os.getpid()}"
    try:
        prepare_s = []
        for _ in range(PREPARE_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            t = time.process_time()
            ops = workload.prepare(args.seed, workdir)
            prepare_s.append(time.process_time() - t)
        t = time.process_time()
        (workdir / "selftest").mkdir()
        problems = workload.selftest(workdir / "selftest")
        selftest_s = time.process_time() - t
        t = time.process_time()
        try:
            workload.execute(ops[0])
        except Exception:
            traceback.print_exc()
        warmup_s = time.process_time() - t
        setup_s = import_s + statistics.median(prepare_s) + selftest_s + warmup_s

        order = list(ops)
        random.Random(args.seed).shuffle(order)
        trace = tracer.Tracer() if args.trace else None
        if trace:
            trace.install()
        times, wall, failed, rounds = [], 0.0, 0, 0
        started = time.perf_counter()
        while rounds == 0 or time.perf_counter() - started < args.seconds:
            results = []
            for op in order:
                if trace:
                    trace.begin_op()
                t, w = time.process_time(), time.perf_counter()
                try:
                    result = workload.execute(op)
                except Exception:
                    traceback.print_exc()
                    result = None
                times.append(time.process_time() - t)
                wall += time.perf_counter() - w
                if trace:
                    trace.end_op()
                failed += result is None
                results.append(result)
            problems += workload.check_round(order, results)
            rounds += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if TMP.is_dir() and not any(TMP.iterdir()):
            TMP.rmdir()

    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    ops_per_s = len(times) / sum(times)
    if trace:
        metrics = trace.per_layer()
        trace.write_spans(OUT / f"{args.workload}.spans.csv")
    else:
        metrics = {
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(times), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": numpy.__version__, "rounds": rounds, "attempted": len(times), "failed": failed,
        "ops_per_s": ops_per_s, "wall_ops_per_s": len(times) / wall,
        "setup_parts_s": {"import": import_s, "prepare_median": statistics.median(prepare_s),
                          "selftest": selftest_s, "warmup": warmup_s},
    }))
    result = {"correct": not problems, "attempted": len(times), "failed": failed,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
