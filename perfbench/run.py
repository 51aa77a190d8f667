"""Run one benchmark workload in this process and print its result.

    python3 perfbench/run.py --workload rescue --seed 0 --seconds 10 --trace 0

Set-up runs several times, before and after the timed part (once when
tracing), and must write byte-identical files each time; setup_s is the
fastest of them. Timed iterations run until --seconds have passed, at least
one. Every iteration is checked: a LangtailError, an output that fails the
workload's check, or artifact hashes that differ from the first
iteration's count it as failed.

--trace 0 reports the end-to-end metrics. --trace 1 is the separate traced
run: it wraps langtail's functions (see layers.py) and reports the
per-layer metrics. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. The line before it
starts with "detail " and holds the environment, artifact hashes, the
figures that are reported but not bounded, and any problems found.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("rescue", "dense", "transfer")
# Set-up repeats at least SETUP_REPEATS times and until SETUP_SECONDS have
# passed, half before the timed part and the rest after it. On a shared host
# the same set-up runs up to twice as slow for stretches of a second or so,
# set by other tenants' load; the fastest repeat, taken from samples spread
# over the whole run, does not follow those stretches, while the median does.
SETUP_REPEATS = 3
SETUP_SECONDS = 3.0
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0, help="manifest seed (default 0)")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test sizes, for the benchmark's own tests")
    return p.parse_args(argv)


def median_of(values):
    return statistics.median(values) if values else float("nan")


def run(args, work) -> tuple[dict, dict]:
    """Set up, iterate and check; returns (result, detail)."""
    import langtail
    from langtail.errors import LangtailError

    import layers
    import workloads
    from tracer import Tracer

    wl = workloads.make(args.workload, workloads.load_manifest(ROOT), args.seed, args.tiny)
    units = metric_units()
    tracer = Tracer() if args.trace else None
    wrapped = layers.install(tracer, langtail) if tracer else []
    problems = []
    setup_s, digests = [], []

    def set_up():
        d = os.path.join(work, f"setup{len(setup_s)}")
        t0 = time.perf_counter()
        wl.setup(d)
        setup_s.append(time.perf_counter() - t0)
        digests.append(workloads.digest_tree(d))
        return d

    try:
        d = set_up()  # the timed part uses this one
        while not tracer and (len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_SECONDS / 2):
            shutil.rmtree(set_up())

        if tracer:
            tracer.tag = "timed"
        done = []
        attempted = failed = 0
        deadline = time.perf_counter() + args.seconds
        while attempted == 0 or time.perf_counter() < deadline:
            attempted += 1
            out = os.path.join(work, "iter")
            try:
                o = wl.iterate(d, out)
            except LangtailError as e:
                failed += 1
                problems.append(f"iteration {attempted}: {type(e).__name__}: {e}")
                continue
            finally:
                shutil.rmtree(out, ignore_errors=True)
            bad = wl.check(o)
            if done and o.hashes != done[0].hashes:
                bad.append("artifact hashes differ from iteration 1")
            if bad:
                failed += 1
                problems += [f"iteration {attempted}: {p}" for p in bad]
            done.append(o)

        while not tracer and sum(setup_s) < SETUP_SECONDS:
            shutil.rmtree(set_up())
        if len(set(digests)) > 1:
            problems.append("set-up files differ between repeats")
    finally:
        if tracer:
            tracer.restore()

    first = done[0] if done else None
    unbounded = {"fail_rate": [failed / attempted, "1"]}
    if first:
        unbounded["tail_iou"] = [first.tail_iou, "1"]
        for k in first.parts:
            unbounded[k] = [median_of([o.parts[k] for o in done]),
                            "s" if k.endswith("_s") else "1"]
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "tiny": args.tiny, "env": environment(), "setups": len(setup_s),
        "setup_digest": digests[0], "setup_hashes": wl.setup_hashes(d),
        "iterations": attempted, "hashes": first.hashes if first else {},
        "unbounded": unbounded,
    }
    if tracer:
        metrics = layers.layer_metrics(tracer, attempted)
        metrics["trace.wall_s"] = median_of([o.wall_s for o in done])
        n_setup = sum(s.tag == "setup" for s in tracer.spans)
        metrics["trace.spans"] = n_setup + (len(tracer.spans) - n_setup) / attempted
        if args.workload == "rescue":
            called = {s.name for s in tracer.spans}
            missing = sorted(set(wrapped) - called - layers.TRANSFER_ONLY)
            if missing:
                problems.append(f"wrapped but never called: {', '.join(missing)}")
        mean_wall = statistics.fmean([o.wall_s for o in done]) if done else float("nan")
        detail["top_self_s"] = [[name, t, t / mean_wall]
                                for name, t in layers.top_self_times(tracer, attempted)]
        os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
        spans_path = os.path.join(ROOT, ".perfbench_out",
                                  f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.dump(spans_path)
        detail["spans_file"] = os.path.relpath(spans_path, ROOT)
    else:
        metrics = {
            "setup_s": min(setup_s),
            "wall_s": median_of([o.wall_s for o in done]),
            "points_per_s": median_of([o.points / o.wall_s for o in done]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "miou": first.miou if first else float("nan"),
        }
    detail["problems"] = problems
    result = {
        "correct": not problems and bool(done),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, detail


def metric_units() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def environment() -> dict:
    import numpy
    import scipy

    return {"nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "python": sys.version.split()[0]}


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "langtail")):
        print(f"perfbench: no langtail sources in {src}", file=sys.stderr)
        return 2
    # Before numpy loads: BLAS reads its thread count once, at import.
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.dont_write_bytecode = True
    sys.path.insert(0, src)

    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        result, detail = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:  # another run is still using it
            pass
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for name, (value, unit) in detail["unbounded"].items():
        print(f"{name} {value:.6g} {unit} (not bounded)")
    for p in detail["problems"]:
        print(f"problem: {p}")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
