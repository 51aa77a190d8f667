"""Run every workload untraced and then traced, each in a fresh process, and
print every metric by name and unit.

    python3 perfbench/run_all.py [--seed 0]

Each run measures for BENCHMARK.json's run_seconds. A fresh process per
run keeps peak RSS to one workload, since ru_maxrss is a maximum over the
whole life of a process. The tracing overhead is the
traced wall_s minus the untraced one. Exits 1 when a run reports an
incorrect result or when the two runs of a workload wrote different
artifacts.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 900


def run_one(workload, seed, seconds, trace) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2][len("detail "):])


def report(workload, plain, traced) -> bool:
    (result, detail), (t_result, t_detail) = plain, traced
    env = detail["env"]
    print(f"== {workload}  seed {detail['seed']}  nproc {env['nproc']}  "
          f"BLAS threads {env['blas_threads']}  numpy {env['numpy']}  scipy {env['scipy']}")
    print(f"  iterations {result['attempted']} (failed {result['failed']}), "
          f"set-ups {detail['setups']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<28} {m['value']:>14.6g} {m['unit']}")
    for name, (value, unit) in detail["unbounded"].items():
        print(f"  {name:<28} {value:>14.6g} {unit}  (not bounded)")
    wall = result["metrics"]["wall_s"]["value"]
    t_wall = t_result["metrics"]["trace.wall_s"]["value"]
    print(f"  tracing overhead {t_wall - wall:+.4f} s on wall_s {wall:.4f} s")
    print("  largest self times per timed iteration:")
    for name, t, share in t_detail["top_self_s"]:
        print(f"    {name:<40} {t:>10.4f} s  {100 * share:5.1f}% of the traced iteration")
    print("  per layer (one set-up plus one iteration):")
    for name, m in t_result["metrics"].items():
        print(f"    {name:<30} {m['value']:>14.6g} {m['unit']}")
    print("  sha256:")
    for name, digest in detail["hashes"].items():
        print(f"    {name:<28} {digest}")
    for name, digest in detail["setup_hashes"].items():
        print(f"    {name:<28} {digest}  (set-up)")
    ok = result["correct"] and t_result["correct"]
    if (detail["hashes"], detail["setup_hashes"]) != \
            (t_detail["hashes"], t_detail["setup_hashes"]):
        print("  problem: traced and untraced runs wrote different artifacts")
        ok = False
    for p in detail["problems"] + t_detail["problems"]:
        print(f"  problem: {p}")
    return ok


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]
    ok = True
    for w in WORKLOADS:
        plain = run_one(w, args.seed, seconds, 0)
        traced = run_one(w, args.seed, seconds, 1)
        ok = report(w, plain, traced) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
