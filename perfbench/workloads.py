"""The four benchmark workloads: seeded inputs, calls and expected answers.

certify  `sparsepr certify` on a Gaussian (6, 7), a (6, 7) whose last
         column repeats column 0 (both k = 3), and a Gaussian (5, 8)
         (k = 2).  distance and numerics.batched_ranks do nearly all the
         work and no solver runs.  The repeated column keeps the
         spark-failure, exit-2 path measured: d = 3, not certified.
recover  `sparsepr solve` on three real k = 5, n = 14 solves at m = 2k = 10,
         one real m = 9 solve of a build_collision_real measurement (two or
         more classes), and three complex lifted k = 3, n = 16, m = 10
         solves.  The real support x sign enumeration does the work.
sweep    `sparsepr sweep` on two complex k = 3, n = 12, m = 10 configs and
         a real k = 2, n = 8, m = 3..4 config: many small solves, where
         per-call overhead counts.
probe    collision_probe_complex at the complex threshold (eight k = 2,
         m = 6, n = 4 ensembles, no collision) and below it (m = 3, n = 6,
         collision found), and four `solve --allow-heuristic` at k = 4,
         m = 14, n = 6: the two Gauss-Newton kernels do the work.  Their
         time varies with the ensemble, so many small calls rather than a
         few large ones keep seeds comparable.

Calls last about 0.1 to 1.2 s, so that one run holds enough samples for
steady medians on a host whose speed drifts.

Every input comes from the run's seed through sparsepr's public API.  Each
Call runs untraced through the entry point a user runs (cli.main with
--no-log for certify, solve and sweep; collision_probe_complex for the
probe, which has no CLI command).  Its traced form calls each layer's
public functions directly, in the order the CLI calls them, one span per
call, and attaches the work counts read from public return values or
computed in closed form; a closed-form count names its assumption.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from math import comb
from typing import Callable

import numpy as np

from sparsepr import (
    Field,
    MeasurementEnsemble,
    SparseVector,
    SweepConfig,
    build_collision_real,
    cli,
    collision_probe_complex,
    draw_sparse_signal,
    emit_results,
    generate_ensemble,
    measure,
    phase_equivalent,
    phase_gen_min_distance,
    read_matrix,
    read_measurements,
    run_sweep,
    solve_l0_complex,
    solve_l0_real,
    spark_at_least,
    write_matrix,
    write_measurements,
)

# Classes match a true signal when they agree to this sup-norm distance up
# to a global phase; a wrong answer differs by O(1).
MATCH_TOL = 1e-6

SIZES = {
    "full": {
        "certify": [
            {"m": 6, "n": 7, "k": 3, "repeat_column": False, "primary": True},
            {"m": 6, "n": 7, "k": 3, "repeat_column": True, "primary": True},
            {"m": 5, "n": 8, "k": 2, "repeat_column": False, "primary": False},
        ],
        "recover": [
            {"kind": "real", "m": 10, "n": 14, "k": 5, "count": 3, "primary": True},
            {"kind": "collision", "m": 9, "n": 14, "k": 5, "count": 1, "primary": False},
            {"kind": "complex", "m": 10, "n": 16, "k": 3, "count": 3, "primary": False},
        ],
        "sweep": [
            {"field": "complex", "n": 12, "k": 3, "m_range": (10, 10), "trials": 15, "primary": True},
            {"field": "complex", "n": 12, "k": 3, "m_range": (10, 10), "trials": 15, "primary": True},
            {"field": "real", "n": 8, "k": 2, "m_range": (3, 4), "trials": 60, "primary": False},
        ],
        "probe": {
            "threshold": {"m": 6, "n": 4, "k": 2, "restarts": 8, "count": 8},
            "below": {"m": 3, "n": 6, "k": 2, "restarts": 8},
            "heuristic": {"m": 14, "n": 6, "k": 4, "count": 4},
        },
    },
    "smoke": {
        "certify": [
            {"m": 4, "n": 6, "k": 2, "repeat_column": False, "primary": True},
            {"m": 4, "n": 6, "k": 2, "repeat_column": True, "primary": True},
            {"m": 3, "n": 5, "k": 1, "repeat_column": False, "primary": False},
        ],
        "recover": [
            {"kind": "real", "m": 4, "n": 6, "k": 2, "count": 1, "primary": True},
            {"kind": "collision", "m": 3, "n": 6, "k": 2, "count": 1, "primary": False},
            {"kind": "complex", "m": 6, "n": 6, "k": 2, "count": 1, "primary": False},
        ],
        "sweep": [
            {"field": "complex", "n": 6, "k": 2, "m_range": (6, 6), "trials": 3, "primary": True},
            {"field": "real", "n": 6, "k": 1, "m_range": (2, 3), "trials": 3, "primary": False},
        ],
        "probe": {
            "threshold": {"m": 6, "n": 4, "k": 2, "restarts": 2, "count": 1},
            "below": {"m": 3, "n": 4, "k": 2, "restarts": 2},
            "heuristic": {"m": 14, "n": 5, "k": 4, "count": 1},
        },
    },
}


@dataclass
class Call:
    """One end-to-end call of a workload and its traced replica.

    run() returns an outcome {"result": ..., "exit": ..., "sha256": ...};
    traced(tracer) returns {"result": ...} after recording one span per
    layer call.  check(outcome) lists every way the outcome is wrong.
    """

    name: str
    kind: str  # certify | solve | sweep | probe
    primary: bool  # counted in call_p50_ms
    via_cli: bool
    expect: dict
    run: Callable[[], dict]
    traced: Callable[[object], dict]

    def check(self, outcome: dict) -> list[str]:
        problems = []
        if "exit" in outcome and outcome["exit"] != self.expect["exit"]:
            problems.append(f"exit code {outcome['exit']}, expected {self.expect['exit']}: "
                            f"{outcome.get('stderr', '').strip()}")
        return problems + CHECKS[self.kind](self.expect, outcome["result"])


# --------------------------------------------------------------------------
# Correctness gates.
# --------------------------------------------------------------------------


def check_certify(expect: dict, result: dict) -> list[str]:
    return [f"{key} = {result.get(key)!r}, expected {expect[key]!r}"
            for key in ("d", "certified", "spark_ok") if result.get(key) != expect[key]]


def _classes(result: dict, field: Field, n: int) -> list[SparseVector]:
    out = []
    for c in result.get("classes", []):
        values = np.array(c["values"], dtype=float)
        if field is Field.COMPLEX:
            values = values[:, 0] + 1j * values[:, 1]
        out.append(SparseVector(field, n, tuple(c["support"]), values))
    return out


def check_solve(expect: dict, result: dict) -> list[str]:
    problems = []
    if result.get("k_star") != expect["k_star"]:
        problems.append(f"k_star = {result.get('k_star')!r}, expected {expect['k_star']}")
    truths = expect["truths"]
    classes = _classes(result, truths[0].field, truths[0].n)
    lo, hi = expect["classes"]
    if len(classes) < lo or (hi is not None and len(classes) > hi):
        problems.append(f"{len(classes)} classes, expected {lo}..{hi if hi is not None else ''}")
    for i, truth in enumerate(truths):
        if not any(phase_equivalent(c, truth, MATCH_TOL) for c in classes):
            problems.append(f"true signal {i} (support {truth.support}) not among the classes")
    return problems


def check_sweep(expect: dict, result: dict) -> list[str]:
    rows = result.get("rows", [])
    problems = [] if len(rows) == expect["rows"] else [f"{len(rows)} rows, expected {expect['rows']}"]
    for row in rows:
        if row["successes"] != row["trials"] or row["trials"] != expect["trials"]:
            problems.append(f"m = {row['m']}: {row['successes']}/{row['trials']} trials recovered, "
                            f"expected {expect['trials']}/{expect['trials']}")
    return problems


def check_probe(expect: dict, result: dict) -> list[str]:
    verdict = result.get("verdict")
    return [] if verdict == expect["verdict"] else [f"verdict {verdict!r}, expected {expect['verdict']!r}"]


CHECKS = {"certify": check_certify, "solve": check_solve, "sweep": check_sweep, "probe": check_probe}


# --------------------------------------------------------------------------
# Entry points and closed-form work counts.
# --------------------------------------------------------------------------


# The assumptions of the closed-form work counts, reported with the metrics
# that rest on them.  They follow today's enumeration order; a change to it
# must change these too.
DISTANCE_SCAN = "every support pair (a, b) with 2 <= a + b <= m and every sign pattern, no early exit"
SPARK_SCAN = "every column subset up to size 2k, or up to the first dependent one"
HEURISTIC_SPLIT = ("patterns_tried less one per lifted support; sizes with k <= 3 and m >= k^2 "
                   "are lifted, as solve_l0_complex documents")
SWEEP_SCAN = ("every trial recovers at k* = k after scanning all supports up to k, "
              "with 2^(m-1) sign patterns each over the reals")
PROBE_SCAN = "ordered support pairs up to the first collision found, times restarts"


def run_cli(argv: list[str], digest=None) -> dict:
    """cli.main with --no-log, stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["--no-log", *argv])
    text = out.getvalue()
    try:
        result = json.loads(text)
    except json.JSONDecodeError:
        result = {}
    sha = hashlib.sha256((digest(result) if digest else text).encode()).hexdigest()
    return {"result": result, "exit": code, "sha256": sha, "stderr": err.getvalue()}


def distance_work(m: int, n: int) -> tuple[int, float]:
    """Configurations phase_gen_min_distance enumerates, and the MB of
    configuration matrices it assembles for batched_ranks (computed)."""
    max_support = min(m - 1, n)
    npat = 2 ** (m - 1) - 1
    configs, nbytes = 0, 0
    for total in range(2, min(m, 2 * max_support) + 1):
        for a in range(1, min(total - 1, max_support) + 1):
            b = total - a
            if 1 <= b <= max_support:
                c = comb(n, a) * comb(n, b) * npat
                configs += c
                nbytes += c * m * total * 8
    return configs, nbytes / 1e6


def spark_subsets(n: int, k: int, deficient) -> int:
    """Column subsets spark_at_least(A, 2k + 1) ranks: whole sizes up to the
    first size holding a dependent subset."""
    last = 2 * k if deficient is None else len(deficient)
    return sum(comb(n, s) for s in range(1, last + 1))


def supports_upto(n: int, k: int) -> int:
    return sum(comb(n, j) for j in range(1, k + 1))


def probe_pairs(n: int, k: int, probe) -> int:
    """Ordered support pairs collision_probe_complex scanned."""
    supports = list(itertools.combinations(range(n), k))
    if probe.verdict != "collision_found":
        return len(supports) ** 2
    u, v = probe.pair
    return supports.index(u.support) * len(supports) + supports.index(v.support) + 1


# --------------------------------------------------------------------------
# Call builders, one per kind.
# --------------------------------------------------------------------------


def certify_call(name: str, path: str, k: int, expect: dict, primary: bool) -> Call:
    def traced(tr) -> dict:
        with tr.span("model.read_matrix", "model.io"):
            A = read_matrix(path)
        with tr.span("distance.phase_gen_min_distance", "distance") as sp:
            report = phase_gen_min_distance(A)
        configs, stack_mb = distance_work(A.m, A.n)
        sp.counts.update({"distance.configs": configs, "distance.stack_mb": stack_mb})
        sp.computed.update({"distance.configs": DISTANCE_SCAN, "distance.stack_mb": DISTANCE_SCAN})
        spark_ok = False
        if 2 * k <= min(A.m, A.n):
            with tr.span("distance.spark_at_least", "distance.spark") as sp:
                spark = spark_at_least(A, 2 * k + 1)
            sp.counts["distance.spark_subsets"] = spark_subsets(A.n, k, spark.deficient_columns)
            sp.computed["distance.spark_subsets"] = SPARK_SCAN
            spark_ok = spark.ok
        certified = k <= report.certified_k and spark_ok
        return {"result": {"d": report.d, "certified": certified, "spark_ok": spark_ok}}

    argv = ["certify", path, "--k", str(k)]
    return Call(name, "certify", primary, True, expect, lambda: run_cli(argv), traced)


def solve_call(name: str, A: MeasurementEnsemble, y, k_max: int, expect: dict, primary: bool,
               workdir: str, heuristic_seed: int | None = None) -> Call:
    mpath = os.path.join(workdir, f"{name.replace('/', '_')}.mat")
    ypath = os.path.join(workdir, f"{name.replace('/', '_')}.txt")
    write_matrix(A, mpath)
    write_measurements(y, ypath)
    argv = ["solve", mpath, ypath, "--kmax", str(k_max)]
    if heuristic_seed is not None:
        argv += ["--allow-heuristic", "--seed", str(heuristic_seed)]

    def traced(tr) -> dict:
        with tr.span("model.read_matrix", "model.io"):
            A = read_matrix(mpath)
        with tr.span("model.read_measurements", "model.io"):
            y = read_measurements(ypath)
        if A.field is Field.REAL:
            with tr.span("solver_real.solve_l0_real", "solver_real") as sp:
                sol = solve_l0_real(A, y, k_max)
            sp.counts.update({
                "solver_real.supports": sol.stats.supports_tried,
                "solver_real.patterns": sol.stats.patterns_tried,
                "solver_real.classes": len(sol.classes),
            })
        elif heuristic_seed is None:
            with tr.span("solver_complex.solve_l0_complex", "solver_complex.lifted") as sp:
                sol = solve_l0_complex(A, y, k_max)
            sp.counts["solver_complex.lifted_supports"] = sol.stats.supports_tried
        else:
            with tr.span("solver_complex.solve_l0_complex", "solver_complex.heuristic") as sp:
                sol = solve_l0_complex(A, y, k_max, allow_heuristic=True, seed=heuristic_seed)
            levels = range(1, (sol.k_star or k_max) + 1)
            lifted = sum(comb(A.n, j) for j in levels if j <= 3 and A.m >= j * j)
            sp.counts["solver_complex.heuristic_restarts"] = sol.stats.patterns_tried - lifted
            sp.computed["solver_complex.heuristic_restarts"] = HEURISTIC_SPLIT
        return {"result": sol.to_json_dict()}

    return Call(name, "solve", primary, True, expect, lambda: run_cli(argv), traced)


def _sweep_digest(result: dict) -> str:
    # The file paths name a per-run directory; the rows are what must agree.
    return json.dumps({k: v for k, v in result.items() if k != "files"}, sort_keys=True)


def sweep_call(name: str, cfg: SweepConfig, primary: bool, workdir: str) -> Call:
    stem = os.path.join(workdir, name.replace("/", "_"))
    cfg_path = stem + ".json"
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(cfg.to_json_dict(), fh)
    argv = ["sweep", cfg_path, "--outdir", stem + "-cli"]
    expect = {"exit": 0, "rows": cfg.m_range[1] - cfg.m_range[0] + 1, "trials": cfg.trials_per_m}

    def traced(tr) -> dict:
        with open(cfg_path, encoding="utf-8") as fh:
            config = SweepConfig.from_json_dict(json.load(fh))
        with tr.span("experiments.run_sweep", "experiments") as sp:
            result = run_sweep(config)
        trials = sum(r.trials for r in result.rows)
        # run_sweep times each solve (mean_ms); that time belongs to the
        # solver layer, the rest to experiments.  run_sweep returns no
        # search counts, so the solver counts are closed forms.
        solver_s = sum(r.mean_ms * r.trials for r in result.rows) / 1000.0
        supports = sum(r.trials * supports_upto(config.n, config.k) for r in result.rows)
        sp.counts["experiments.trials"] = trials
        if config.field is Field.REAL:
            sp.inner["solver_real"] = solver_s
            sp.counts.update({
                "solver_real.supports": supports,
                "solver_real.patterns": sum(r.trials * supports_upto(config.n, config.k) * 2 ** (r.m - 1)
                                            for r in result.rows),
                "solver_real.classes": sum(r.successes for r in result.rows),
            })
            sp.computed.update({"solver_real.supports": SWEEP_SCAN, "solver_real.patterns": SWEEP_SCAN})
        else:
            sp.inner["solver_complex.lifted"] = solver_s
            sp.counts["solver_complex.lifted_supports"] = supports
            sp.computed["solver_complex.lifted_supports"] = SWEEP_SCAN
        os.makedirs(stem + "-traced", exist_ok=True)
        for fmt, ext in (("csv", "csv"), ("json", "json"), ("gnuplot", "dat")):
            path = os.path.join(stem + "-traced", f"sweep_{config.fingerprint()}.{ext}")
            with tr.span("experiments.emit_results", "experiments.emit"):
                emit_results(result, fmt, path)
        rows = [{"m": r.m, "trials": r.trials, "successes": r.successes} for r in result.rows]
        return {"result": {"rows": rows}}

    return Call(name, "sweep", primary, True, expect, lambda: run_cli(argv, _sweep_digest), traced)


def probe_call(name: str, A: MeasurementEnsemble, k: int, restarts: int, seed: int, verdict: str,
               primary: bool) -> Call:
    def outcome(probe) -> dict:
        pair = None if probe.pair is None else [list(v.support) for v in probe.pair]
        blob = json.dumps({"verdict": probe.verdict, "objective": probe.objective, "pair": pair})
        return {"result": {"verdict": probe.verdict},
                "sha256": hashlib.sha256(blob.encode()).hexdigest()}

    def traced(tr) -> dict:
        with tr.span("solver_complex.collision_probe_complex", "solver_complex.probe") as sp:
            probe = collision_probe_complex(A, k, restarts, seed)
        sp.counts["solver_complex.probe_pair_restarts"] = probe_pairs(A.n, k, probe) * restarts
        sp.computed["solver_complex.probe_pair_restarts"] = PROBE_SCAN
        return outcome(probe)

    def run() -> dict:
        return outcome(collision_probe_complex(A, k, restarts, seed))

    return Call(name, "probe", primary, False, {"verdict": verdict}, run, traced)


# --------------------------------------------------------------------------
# Workloads.
# --------------------------------------------------------------------------


def _item(seed: int, i: int) -> tuple[int, np.random.Generator]:
    """Ensemble seed and signal generator of input i, derived from the run seed."""
    ens, sig = np.random.SeedSequence(seed, spawn_key=(i,)).spawn(2)
    return int(ens.generate_state(1, dtype=np.uint64)[0]), np.random.default_rng(sig)


def _certify(seed: int, items: list[dict], workdir: str) -> list[Call]:
    calls = []
    for i, it in enumerate(items):
        m, n, k = it["m"], it["n"], it["k"]
        A = generate_ensemble(Field.REAL, m, n, _item(seed, i)[0])
        if it["repeat_column"]:
            entries = np.array(A.entries)
            entries[:, n - 1] = entries[:, 0]
            A = MeasurementEnsemble.from_entries(Field.REAL, entries)
            name = f"certify/repeated-{m}x{n}"
            expect = {"d": 3, "certified": False, "spark_ok": False, "exit": 2}
        else:
            name = f"certify/gauss-{m}x{n}"
            expect = {"d": m + 1, "certified": True, "spark_ok": True, "exit": 0}
        path = os.path.join(workdir, name.replace("/", "_") + ".mat")
        write_matrix(A, path)
        calls.append(certify_call(name, path, k, expect, it["primary"]))
    return calls


def _recover(seed: int, items: list[dict], workdir: str) -> list[Call]:
    calls = []
    index = 0
    for it in items:
        m, n, k = it["m"], it["n"], it["k"]
        for _ in range(it["count"]):
            ens_seed, rng = _item(seed, index)
            name = f"solve/{it['kind']}-{index}"
            index += 1
            if it["kind"] == "complex":
                A = generate_ensemble(Field.COMPLEX, m, n, ens_seed)
                truths = [draw_sparse_signal(Field.COMPLEX, n, k, rng)]
            elif it["kind"] == "real":
                A = generate_ensemble(Field.REAL, m, n, ens_seed)
                truths = [draw_sparse_signal(Field.REAL, n, k, rng)]
            else:
                A = generate_ensemble(Field.REAL, m, n, ens_seed)
                truths = list(build_collision_real(A, k))
            expect = {"exit": 0, "k_star": k, "truths": truths,
                      "classes": (2, None) if it["kind"] == "collision" else (1, 1)}
            calls.append(solve_call(name, A, measure(A, truths[0]), k, expect, it["primary"], workdir))
    return calls


def _sweep(seed: int, items: list[dict], workdir: str) -> list[Call]:
    calls = []
    for i, it in enumerate(items):
        cfg = SweepConfig(field=Field.from_label(it["field"]), n=it["n"], k=it["k"],
                          m_range=it["m_range"], trials_per_m=it["trials"], base_seed=_item(seed, i)[0])
        calls.append(sweep_call(f"sweep/{it['field']}-{i}", cfg, it["primary"], workdir))
    return calls


def _probe(seed: int, items: dict, workdir: str) -> list[Call]:
    calls = []
    it = items["threshold"]
    for i in range(it["count"]):
        ens_seed, _ = _item(seed, i)
        A = generate_ensemble(Field.COMPLEX, it["m"], it["n"], ens_seed)
        calls.append(probe_call(f"probe/threshold-{i}", A, it["k"], it["restarts"], ens_seed % 2**31,
                                "no_collision_found", primary=True))
    it = items["below"]
    ens_seed, _ = _item(seed, 100)
    A = generate_ensemble(Field.COMPLEX, it["m"], it["n"], ens_seed)
    calls.append(probe_call("probe/below", A, it["k"], it["restarts"], ens_seed % 2**31, "collision_found",
                            primary=False))
    it = items["heuristic"]
    for i in range(it["count"]):
        ens_seed, rng = _item(seed, 200 + i)
        A = generate_ensemble(Field.COMPLEX, it["m"], it["n"], ens_seed)
        truth = draw_sparse_signal(Field.COMPLEX, it["n"], it["k"], rng)
        expect = {"exit": 0, "k_star": it["k"], "truths": [truth], "classes": (1, 1)}
        calls.append(solve_call(f"solve/heuristic-{i}", A, measure(A, truth), it["k"], expect, False,
                                workdir, heuristic_seed=ens_seed % 2**31))
    return calls


BUILDERS = {"certify": _certify, "recover": _recover, "sweep": _sweep, "probe": _probe}


def build(workload: str, seed: int, size: str, workdir: str) -> list[Call]:
    """Generate the workload's inputs under workdir and return its calls."""
    return BUILDERS[workload](seed, SIZES[size][workload], workdir)
