"""Threshold experiments: recovery-rate sweeps, collision construction,
and the bidirectional recoverability check.

Reproduces the desk-scale phenomenology: real recovery succeeds at
m = 2k and admits explicit collisions at m = 2k - 1; complex recovery
succeeds at m = 4k - 2.  All randomness derives from a base seed through
numpy SeedSequence spawn keys (documented per function), so identical
configurations reproduce byte-identical success counts independent of
execution order.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .distance import Witness, certify_unique, spark_at_least
from .model import (
    Field,
    MeasurementEnsemble,
    SparseVector,
    generate_ensemble,
    measure,
    phase_equivalent,
)
from .solver_complex import _level_method, _solve_complex_batch
from .solver_real import SolutionSet, _check_int, _check_tol, _solve_real_batch, _tol_abs, feasible_classes

__all__ = [
    "SweepConfig",
    "SweepRow",
    "SweepResult",
    "run_sweep",
    "draw_sparse_signal",
    "build_collision_real",
    "BidirectionalReport",
    "bidirectional_uniqueness_check",
    "emit_results",
]

MIN_SIGNAL_MAGNITUDE = 0.1
# The forward direction of bidirectional_uniqueness_check: random trials
# and the base seed they derive from.
FORWARD_TRIALS = 100
FORWARD_SEED = 2024


@dataclass(frozen=True)
class SweepConfig:
    """One recovery-rate sweep over a range of measurement counts.

    Signals have uniformly random supports and standard (complex) normal
    values, redrawn until every magnitude clears MIN_SIGNAL_MAGNITUDE so
    the nominal sparsity is numerically unambiguous.
    """

    field: Field
    n: int
    k: int
    m_range: tuple[int, int]
    trials_per_m: int
    base_seed: int
    tol: float = 1e-8

    def __post_init__(self):
        _check_int(self.n, "'n'", 1)
        _check_int(self.k, "'k'", 1, self.n)
        _check_int(self.trials_per_m, "'trials_per_m'", 1)
        _check_int(self.base_seed, "'base_seed'", 0)
        for v in self.m_range:
            _check_int(v, "'m_range'", 1)
        lo, hi = self.m_range
        if lo > hi:
            raise ValueError(f"bad m_range {self.m_range}")
        if lo < self.k:
            raise ValueError(f"solver needs k <= m for every m in range; got k={self.k}, m_range={self.m_range}")
        _check_tol(self.tol)

    def to_json_dict(self) -> dict:
        return {
            "field": self.field.value,
            "n": self.n,
            "k": self.k,
            "m_range": list(self.m_range),
            "trials_per_m": self.trials_per_m,
            "base_seed": self.base_seed,
            "tol": self.tol,
        }

    @classmethod
    def from_json_dict(cls, d: dict, source: str = "sweep config") -> "SweepConfig":
        """The config a JSON object describes; a missing, unknown or
        malformed key raises ValueError naming source and the key.  The
        values go to SweepConfig as they are, so its checks refuse a float,
        bool or string where an integer or tol belongs."""
        if not isinstance(d, dict):
            raise ValueError(f"{source}: expected a JSON object, got {type(d).__name__}")
        unknown = [key for key in d if key not in _CONFIG_KEYS]
        if unknown:
            raise ValueError(f"{source}: unknown key {unknown[0]!r}")
        values = {}
        for key, parse in _CONFIG_KEYS.items():
            if key not in d:
                if key == "tol":  # optional: the field default applies
                    continue
                raise ValueError(f"{source}: missing key {key!r}")
            try:
                values[key] = parse(d[key])
            except (AttributeError, TypeError, ValueError):
                raise ValueError(f"{source}: bad value for {key!r}: {d[key]!r}") from None
        try:
            return cls(**values)
        except ValueError as exc:
            raise ValueError(f"{source}: {exc}") from None

    def fingerprint(self) -> str:
        blob = json.dumps(self.to_json_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


def _pair(v) -> tuple:
    if not isinstance(v, list) or len(v) != 2:
        raise ValueError("expected [lo, hi]")
    return tuple(v)


def _as_is(v):
    return v


_CONFIG_KEYS = {"field": Field.from_label, "n": _as_is, "k": _as_is, "m_range": _pair,
                "trials_per_m": _as_is, "base_seed": _as_is, "tol": _as_is}


@dataclass(frozen=True)
class SweepRow:
    """One m of a sweep.  mean_ms is the row's batched solve time (one
    solver call for all its trials) divided by the number of trials."""

    m: int
    trials: int
    successes: int
    rate: float
    mean_ms: float
    fragile: int
    heuristic: bool = False


@dataclass(frozen=True)
class SweepResult:
    config: SweepConfig
    rows: tuple[SweepRow, ...]


def draw_sparse_signal(fld: Field, n: int, k: int, rng: np.random.Generator) -> SparseVector:
    """Uniform random support; values redrawn until every magnitude is at
    least MIN_SIGNAL_MAGNITUDE."""
    support = tuple(int(i) for i in np.sort(rng.choice(n, size=k, replace=False)))
    while True:
        if fld is Field.REAL:
            values = rng.standard_normal(k)
        else:
            values = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        if k == 0 or np.min(np.abs(values)) >= MIN_SIGNAL_MAGNITUDE:
            return SparseVector(fld, n, support, values)


def _trial_randomness(base_seed: int, m: int, trial: int):
    """Ensemble seed and signal generator for one (m, trial) cell.

    Derivation: SeedSequence(base_seed, spawn_key=(m, trial)) spawns two
    children; the first's 64-bit state seeds the ensemble, the second
    drives the signal draw.
    """
    ss = np.random.SeedSequence(base_seed, spawn_key=(m, trial))
    ens_ss, sig_ss = ss.spawn(2)
    ensemble_seed = int(ens_ss.generate_state(1, dtype=np.uint64)[0])
    return ensemble_seed, np.random.default_rng(sig_ss)


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Recovery rate per m: success = exactly one class, phase-equal to truth.

    Complex rows run with allow_heuristic set.  A row is flagged
    heuristic when solver_complex._level_method puts size k on the
    refinement fallback at its m, or when a trial's solve reached it (a
    support whose lift the SVD rank policy cannot decide); assertions
    downstream must exclude such rows.  A trial counts as fragile when an
    accepted class sits within 10x of the residual tolerance.  Each row
    draws all its trials, then solves them in one batched solver call,
    whose results are bit for bit those of one solve per trial.
    """
    rows = []
    lo, hi = cfg.m_range
    for m in range(lo, hi + 1):
        As, truths = [], []
        for trial in range(cfg.trials_per_m):
            ensemble_seed, sig_rng = _trial_randomness(cfg.base_seed, m, trial)
            As.append(generate_ensemble(cfg.field, m, cfg.n, ensemble_seed))
            truths.append(draw_sparse_signal(cfg.field, cfg.n, cfg.k, sig_rng))
        ys = [measure(A, truth) for A, truth in zip(As, truths)]
        t0 = time.perf_counter()
        if cfg.field is Field.REAL:
            sols = _solve_real_batch(As, ys, cfg.k, cfg.tol)
        else:
            sols = _solve_complex_batch(As, ys, cfg.k, cfg.tol, allow_heuristic=True)
        elapsed = time.perf_counter() - t0
        heuristic = cfg.field is Field.COMPLEX and (_level_method(m, cfg.k) == "refined"
                                                    or any(sol.heuristic for sol in sols))
        successes = sum(_recovered(sol, truth) for sol, truth in zip(sols, truths))
        fragile = 0
        for sol, y in zip(sols, ys):
            if sol.residuals and max(sol.residuals) > _tol_abs(cfg.tol, float(y.magnitudes.max())) / 10.0:
                fragile += 1
        rows.append(
            SweepRow(
                m=m,
                trials=cfg.trials_per_m,
                successes=successes,
                rate=successes / cfg.trials_per_m,
                mean_ms=1000.0 * elapsed / cfg.trials_per_m,
                fragile=fragile,
                heuristic=heuristic,
            )
        )
    return SweepResult(config=cfg, rows=tuple(rows))


def _recovered(sol: SolutionSet, truth: SparseVector) -> bool:
    """Exactly one class, phase-equal to the true signal."""
    return sol.k_star is not None and len(sol.classes) == 1 and phase_equivalent(sol.classes[0], truth, 1e-8)


def build_collision_real(A: MeasurementEnsemble, k: int) -> tuple[SparseVector, SparseVector]:
    """Two k-sparse vectors with disjoint supports and Ax = Az exactly.

    Requires m <= 2k - 1 (so the stacked matrix [A_I, -A_J] has a null
    vector) and 2k <= n (disjoint supports exist).  Support pairs are
    tried in lexicographic order, each split by Witness.collision with
    P = I; a null vector with a coordinate at or below 1e-8 is rejected
    and the next pair is tried.
    """
    if A.field is not Field.REAL:
        raise ValueError("build_collision_real requires a real ensemble")
    _check_int(k, "k", 1)
    if A.m > 2 * k - 1:
        raise ValueError(f"need m <= 2k - 1 = {2 * k - 1}, got m = {A.m}")
    if 2 * k > A.n:
        raise ValueError(f"need 2k <= n for disjoint supports, got k = {k}, n = {A.n}")
    for I in itertools.combinations(range(A.n), k):
        rest = [j for j in range(A.n) if j not in I]
        for J in itertools.combinations(rest, k):
            x, z = Witness(I, J, 0).collision(A)
            if x.sparsity == z.sparsity == k and np.min(np.abs([*x.values, *z.values])) > 1e-8:
                return x, z  # genuinely k-sparse
    raise RuntimeError("no non-degenerate disjoint collision pair found")


@dataclass(frozen=True)
class BidirectionalReport:
    """Outcome of checking both directions of the recoverability bound."""

    certified: bool
    forward_ok: bool | None
    converse_ok: bool | None
    details: dict


def bidirectional_uniqueness_check(A: MeasurementEnsemble, k: int) -> BidirectionalReport:
    """Forward: certification implies unique recovery on FORWARD_TRIALS
    random trials; trial t draws its signal from SeedSequence(FORWARD_SEED,
    spawn_key=(k, t)).  Converse: a failed certificate is backed by an
    exhibited ambiguity.

    The converse exhibit is the first that applies, named by details["path"]:
    "disjoint_collision" (m <= 2k - 1, 2k <= n, some pair non-degenerate);
    "witness_collision", the split (Witness.collision) of the distance
    witness when d <= m and the split is no phase-equivalent pair;
    "feasible_multiplicity" when that split collapses and every 2k columns
    are independent: two distinct feasible classes of |Ax| = y with l0
    norm at most 2k for the witness-derived measurement; else
    "spark_collision", the P = I split of the deficient columns of
    spark_at_least(A, min(2k, m, n) + 1), or, when there are none, of the
    first m + 1 columns.  Those are dependent, since the distance needs m
    < n, and each half has at most k of them: with 2k <= m a failed
    certificate has a witness with d <= m or deficient spark columns, so
    the spark check here passes only when 2k > m.  An exhibit is accepted
    when its two vectors are not phase equivalent and their measurements
    differ by at most 1e-10 max |Ax|, a test that does not change when A
    is scaled; a spark exhibit also needs both vectors at most k-sparse.
    """
    _check_int(k, "k", 1, A.n)
    cert = certify_unique(A, k)
    details: dict = {"d": cert.d, "certified_k": (cert.d - 1) // 2, "spark_ok": cert.spark_ok}

    if cert.certified:
        truths = [draw_sparse_signal(Field.REAL, A.n, k, np.random.default_rng(
            np.random.SeedSequence(FORWARD_SEED, spawn_key=(k, t)))) for t in range(FORWARD_TRIALS)]
        sols = _solve_real_batch([A] * FORWARD_TRIALS, [measure(A, truth) for truth in truths], k, 1e-8)
        failures = sum(not _recovered(sol, truth) for sol, truth in zip(sols, truths))
        details["forward_trials"] = FORWARD_TRIALS
        details["forward_failures"] = failures
        return BidirectionalReport(True, failures == 0, None, details)

    def exhibited(x: SparseVector, z: SparseVector) -> tuple[bool, float]:
        """Whether x and z are an ambiguity, and their measurement mismatch."""
        y = measure(A, x).magnitudes
        mismatch = float(np.max(np.abs(y - measure(A, z).magnitudes)))
        return not phase_equivalent(x, z, 1e-6) and mismatch <= 1e-10 * float(y.max()), mismatch

    # Converse: exhibit the ambiguity behind the failed certificate.
    if A.m <= 2 * k - 1 and 2 * k <= A.n:
        try:
            x, z = build_collision_real(A, k)
        except RuntimeError:
            pass  # every disjoint pair is degenerate: try the next exhibit
        else:
            ok, mismatch = exhibited(x, z)
            details.update({"path": "disjoint_collision", "mismatch": mismatch})
            return BidirectionalReport(False, None, ok, details)

    w = cert.limiting_witness
    if w is not None and w.pattern_bits and cert.d <= A.m:  # at d = m + 1, w is the full-rank cap
        x, z = w.collision(A)
        if x.sparsity and z.sparsity and not phase_equivalent(x, z, 1e-6):
            ok, mismatch = exhibited(x, z)
            details.update({"path": "witness_collision", "mismatch": mismatch})
            return BidirectionalReport(False, None, ok, details)
        if cert.spark_ok:
            # Phase-collapsed witness and no deficient spark columns: show the
            # feasible set of the witness measurement holds >= 2 classes within sparsity 2k.
            classes = feasible_classes(A, measure(A, x), 2 * k)
            details.update({"path": "feasible_multiplicity", "classes_found": len(classes)})
            return BidirectionalReport(False, None, len(classes) >= 2, details)
    # A P = I linear collision on at most 2k columns.
    cols = spark_at_least(A, min(2 * k, A.m, A.n) + 1).deficient_columns or tuple(range(A.m + 1))
    half = (len(cols) + 1) // 2
    x, z = Witness(cols[:half], cols[half:], 0).collision(A)
    details["path"] = "spark_collision"
    ok = x.sparsity <= k and z.sparsity <= k and exhibited(x, z)[0]
    return BidirectionalReport(False, None, ok, details)


# ---------------------------------------------------------------------------
# Result emission: CSV, JSON, and gnuplot-ready data.
# ---------------------------------------------------------------------------

_CSV_HEADER = "m,trials,successes,rate,mean_ms,fragile,heuristic"


def _row_fields(row: SweepRow) -> list[str]:
    return [
        str(row.m),
        str(row.trials),
        str(row.successes),
        repr(float(row.rate)),
        repr(float(row.mean_ms)),
        str(row.fragile),
        str(int(row.heuristic)),
    ]


def emit_results(result: SweepResult, fmt: str, path) -> Path:
    """Write a sweep result as csv, json, or gnuplot data; returns the path.

    Float columns use repr so a parse-back reproduces values exactly;
    emission of a fixed result object is byte-stable.
    """
    path = Path(path)
    if fmt == "csv":
        lines = [_CSV_HEADER] + [",".join(_row_fields(r)) for r in result.rows]
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        payload = {
            "config": result.config.to_json_dict(),
            "rows": [
                {
                    "m": r.m,
                    "trials": r.trials,
                    "successes": r.successes,
                    "rate": r.rate,
                    "mean_ms": r.mean_ms,
                    "fragile": r.fragile,
                    "heuristic": r.heuristic,
                }
                for r in result.rows
            ],
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif fmt == "gnuplot":
        header = [
            "# sparsepr sweep",
            "# config: " + json.dumps(result.config.to_json_dict(), sort_keys=True),
            "# columns: m trials successes rate mean_ms fragile heuristic",
        ]
        lines = header + [" ".join(_row_fields(r)) for r in result.rows]
        text = "\n".join(lines) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}; expected csv, json, or gnuplot")
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise OSError(f"failed writing results to {path}: {exc}") from exc
    return path
