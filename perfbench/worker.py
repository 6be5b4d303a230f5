"""Worker process of one benchmark run; run.py starts it.

It checks that the BLAS/OpenMP thread variables are pinned to 1 before
numpy loads, imports sparsepr from the checkout's src/, builds the
workload's inputs in a scratch directory inside the checkout, and (unless
--setup-only) measures the workload and prints one JSON record as its
last line of standard output.  An untraced run also times fresh
--setup-only interpreters of its own, between calls (setup_s).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETUP_TIMEOUT_S = 60
SCRATCH = ROOT / ".perfbench_tmp"
TRACE_DIR = ROOT / ".perfbench_out"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def require_pinned() -> None:
    """Exit unless every thread variable is 1 and numpy is not loaded yet."""
    if "numpy" in sys.modules:
        sys.exit("perfbench: numpy was loaded before the thread variables could be checked")
    unpinned = [var for var in THREAD_VARS if os.environ.get(var) != "1"]
    if unpinned:
        sys.exit("perfbench: refusing to run, thread variables not pinned to 1: " + ", ".join(unpinned))


def import_package():
    """Import sparsepr from <checkout>/src and refuse any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import sparsepr

    if Path(sparsepr.__file__).resolve().parent != (src / "sparsepr").resolve():
        sys.exit(f"perfbench: sparsepr was imported from {sparsepr.__file__}, not from {src}")
    return sparsepr


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy as np

    import sparsepr

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas},
        "sparsepr": sparsepr.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def setup_sampler(args):
    """A callable that times one fresh interpreter which imports sparsepr and
    builds this run's inputs (worker.py --setup-only), in wall seconds."""
    argv = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
            "--size", args.size, "--setup-only"]

    def sample() -> float:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
        # Popen.wait(timeout) polls in steps of up to 50 ms, which would
        # quantize the sample; a timer enforces the limit instead.
        timer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
        if code != 0:
            raise subprocess.CalledProcessError(code, argv)
        return time.perf_counter() - t0

    return sample


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="perfbench/worker.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--size", default="full")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--seconds", type=int, default=1)
    p.add_argument("--trace", type=int, default=0)
    args = p.parse_args(argv)

    require_pinned()
    import_package()
    import harness
    import workloads

    SCRATCH.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH)
    try:
        calls = workloads.build(args.workload, args.seed, args.size, workdir)
        if args.setup_only:
            return 0
        record = harness.run(calls, args.seconds, bool(args.trace), args.seed,
                             None if args.trace else setup_sampler(args))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["env"] = environment()
    if args.trace:
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        spans = record.pop("spans")
        path.write_text(json.dumps({"env": record["env"], "spans": spans}) + "\n", encoding="utf-8")
        record["notes"].append(f"{len(spans)} spans written to {path.relative_to(ROOT)}")
    else:
        record.pop("spans")
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
