"""moco4d benchmark: one workload per process, closed loop, from the repo root.

    python3 moco4d_bench/run.py --workload train_b32 --seed 1 --seconds 36 --trace 0
    python3 moco4d_bench/run.py            # every workload, each in a fresh process

With --trace 0 the last line of standard output is one JSON object holding
the end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run. The lines before it give each metric by name and unit, the
correctness gates, and the environment. The exit code is 0 only if every
operation succeeded and every gate passed.

The program under test is imported from `src/` of this checkout and nowhere
else; without it the command fails before printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("train_b32", "pipeline_s16", "correct_f64")


def nproc():
    return len(os.sched_getaffinity(0))


def limit_blas_threads():
    """Cap BLAS threads at the cores this process may use; must run before
    numpy is imported."""
    cap = nproc()
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, cap))
        except ValueError:
            wanted = cap
        os.environ[var] = str(max(1, min(wanted, cap)))


def import_moco4d():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import moco4d.phantom  # noqa: F401 - loads the package and its modules
        import moco4d.train  # noqa: F401
    except ImportError as exc:
        sys.exit(f"moco4d is not importable from {src}: {exc}")
    import moco4d
    where = Path(moco4d.train.__file__).resolve()
    if src not in where.parents:
        sys.exit(f"moco4d was imported from {where.parent}, not from {src}")
    return moco4d


def git_sha():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def environment():
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "nproc": nproc(),
        "python": platform.python_version(),
    }


def run_one(args):
    limit_blas_threads()
    moco4d = import_moco4d()
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    seeds = workloads.Seeds(motion=args.motion_seed, init=args.init_seed, train=args.seed)
    metrics, attempted, failed, gates, notes = workloads.run(
        moco4d, wl, seeds, args.seconds, bool(args.trace))

    print(f"workload {wl.name}  seeds {seeds}  trace {args.trace}")
    print("env " + json.dumps(environment()))
    for name, ok in gates.items():
        print(f"gate {name}: {'pass' if ok else 'FAIL'}")
    for name, value in notes.items():
        print(f"note {name}: {value}")
    print(f"failure_rate {failed / attempted:.6g} ({failed} of {attempted} failed)")
    for name, (value, unit) in metrics.items():
        label = " (computed)" if name in workloads.COMPUTED else ""
        print(f"metric {name} {value:.6g} {unit}{label}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def run_all(args):
    """Each workload in a fresh process, one after another."""
    status = 0
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            rows.append((name, "FAILED", {}))
            continue
        result = json.loads(lines[-1])
        rows.append((name, f"failure_rate {result['failed'] / result['attempted']:.3g}",
                     result["metrics"]))
    print("\nsummary")
    for name, state, metrics in rows:
        print(f"{name}: {state}")
        for metric, m in metrics.items():
            print(f"  {metric:<32} {m['value']:.6g} {m['unit']}")
    return status


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES,
                   help="run one workload in this process (default: all, each "
                        "in a fresh process)")
    p.add_argument("--seed", type=int, default=1,
                   help="workload seed: training's frame-conditioning noise and "
                        "window order")
    # fixed by default, so accuracy is compared on one corruption and one init
    p.add_argument("--motion-seed", type=int, default=1, help="injected-motion seed")
    p.add_argument("--init-seed", type=int, default=1, help="model-init seed")
    p.add_argument("--seconds", type=float, default=36.0,
                   help="least time a run measures; set-up repeats fill it")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics from a traced run")
    args = p.parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
