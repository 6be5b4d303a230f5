"""sparsepr benchmark: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Workloads are certify, recover, sweep and probe (see workloads.py).  The
run starts one worker process that measures the workload for --seconds in
a closed loop of one caller.  The worker gets OMP/BLAS thread variables
pinned to 1 in its own environment and refuses to run otherwise; so do the
set-up interpreters it starts.

The last line of standard output is the result object.  With --trace 0 it
holds the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer metrics of a traced run (see harness.PER_LAYER).  The lines
before it record the environment, per-call timings with sample counts,
stdout checksums and every correctness failure; fail_ratio is
failed / attempted of the result object.

End-to-end metrics:
  wall_norm      one pass over the workload's calls, as the sum of each
                 call's median time, in ref units
  call_p50_norm  median time of the workload's primary calls, in ref units:
                 the (6, 7) certify calls, the real m = 2k solves, the
                 complex sweeps, the threshold probes
  peak_rss_mb    maximum resident set size of the worker process
  setup_s        median wall time of a fresh interpreter that imports
                 sparsepr and generates the inputs; the worker starts
                 them between calls, so the samples span the window
One ref is the time of the calibration kernel (harness.Calibration) taken
around each call; the "# measured" lines give the same timings in seconds.

sparsepr is imported from src/ next to this directory, never from an
installed copy; when src/sparsepr is missing the script exits with code 2
and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from worker import THREAD_VARS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("certify", "recover", "sweep", "probe")
SIZES = ("full", "smoke")
# The whole run must end within 180 s; the measured window (at most 60 s)
# and the worker's own set-up fit well inside this.
WORKER_TIMEOUT_S = 150


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int, help="length of the measured window")
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--size", default="full", choices=SIZES,
                   help="input sizes; 'smoke' is the reduced set the smoke test uses")
    args = p.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        p.error("--seconds must be in [1, 60]")
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def pinned_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(args, env) -> dict:
    argv = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--size", args.size, "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    proc = subprocess.run(argv, env=env, check=True, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(args, record: dict) -> None:
    """Print the detail lines, then the result object as the last line."""
    metrics = record["metrics"]
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} size={args.size}")
    print("# env " + json.dumps(record["env"], sort_keys=True))
    for name, call in record["calls"].items():
        print(f"# call {name} " + json.dumps(call, sort_keys=True))
    for name in sorted(metrics):
        m = metrics[name]
        label = f"; computed: {m['computed']}" if m["computed"] else ""
        print(f"# metric {name} = {m['value']!r} {m['unit']} (samples={m['samples']}{label})")
    for name, m in record["measured"].items():
        print(f"# measured {name} = {m['value']!r} {m['unit']} (samples={m['samples']})")
    for note in record["notes"]:
        print(f"# note {note}")
    for failure in record["failures"]:
        print(f"# FAIL {failure}")
    print(f"# fail_ratio {record['failed']}/{record['attempted']}")
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in sorted(metrics.items())},
    }
    print(json.dumps(result, sort_keys=True), flush=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "sparsepr" / "__init__.py").is_file():
        print(f"perfbench: no sparsepr sources under {ROOT / 'src'}; nothing to measure",
              file=sys.stderr)
        return 2
    try:
        record = run_worker(args, pinned_env())
    except subprocess.CalledProcessError as exc:
        print(f"perfbench: worker exited with code {exc.returncode}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired as exc:
        print(f"perfbench: worker exceeded {exc.timeout} s and was stopped", file=sys.stderr)
        return 1
    report(args, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
