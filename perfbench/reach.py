"""Reach report: the largest (m, m + 2) whose `sparsepr certify` ends in time.

    python3 perfbench/reach.py --budget-s 30 --seed 0

Not one of the checked workloads; run it on request.  For m = 3, 4, ... it
certifies a seeded Gaussian (m, m + 2) ensemble at k = floor(m / 2) through
cli.main, each in a fresh worker with thread variables pinned to 1, and
stops at the first size that does not finish within the budget (that
worker is stopped).  It prints one JSON report whose "largest" entry is
the measured reach.
"""

from __future__ import annotations

import argparse
import itertools
import json
import subprocess
import sys
import time

from run import ROOT, pinned_env
from worker import SCRATCH, import_package, require_pinned


def certify_once(m: int, seed: int) -> dict:
    """Worker side: certify one Gaussian (m, m + 2) ensemble and time it."""
    require_pinned()
    import_package()
    import tempfile

    from workloads import run_cli

    from sparsepr import Field, generate_ensemble, write_matrix

    n, k = m + 2, m // 2
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        path = f"{tmp}/A.mat"
        write_matrix(generate_ensemble(Field.REAL, m, n, seed), path)
        t0 = time.perf_counter()
        out = run_cli(["certify", path, "--k", str(k)])
        seconds = time.perf_counter() - t0
    return {"m": m, "n": n, "k": k, "seconds": seconds, "exit": out["exit"], "d": out["result"].get("d"),
            "certified": out["result"].get("certified")}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="perfbench/reach.py", description=__doc__.split("\n")[0])
    p.add_argument("--budget-s", type=float, default=30.0, help="time allowed for one certify call")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--one", type=int, help=argparse.SUPPRESS)  # worker mode
    args = p.parse_args(argv)
    if args.one is not None:
        print(json.dumps(certify_once(args.one, args.seed)))
        return 0
    if not (ROOT / "src" / "sparsepr" / "__init__.py").is_file():
        print(f"perfbench: no sparsepr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    sizes, largest = [], None
    for m in itertools.count(3):
        argv = [sys.executable, __file__, "--one", str(m), "--seed", str(args.seed)]
        # The worker's own set-up is small next to the budget; the certify
        # time it reports is what is compared.
        try:
            proc = subprocess.run(argv, env=pinned_env(), check=True, capture_output=True, text=True,
                                  timeout=args.budget_s + 30)
        except subprocess.TimeoutExpired:
            sizes.append({"m": m, "n": m + 2, "finished": False})
            break
        row = json.loads(proc.stdout.strip().splitlines()[-1])
        row["finished"] = row["seconds"] <= args.budget_s
        sizes.append(row)
        if not row["finished"]:
            break
        largest = {"m": m, "n": m + 2, "seconds": row["seconds"]}
    print(json.dumps({"budget_s": args.budget_s, "seed": args.seed, "sizes": sizes, "largest": largest},
                     indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
