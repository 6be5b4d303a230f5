"""Measurement loop, tracing, correctness gate and metrics of one run.

The loop is closed with one caller: a pass makes every call of the
workload once, in order, and the next pass starts when it ends.  Passes
repeat until the next one would overrun the measured window (at least one
pass always runs).

Without tracing, every call goes through its entry point and is timed
against the calibration kernel; these passes give the end-to-end metrics.
With tracing, the kernel microbenchmarks run first, then each call runs
once through its entry point and at once as its traced replica; the spans
give the per-layer metrics, and the pairs give the CLI and tracing
overheads.  Every call, traced or not, passes through the correctness gate.
"""

from __future__ import annotations

import resource
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from sparsepr import refine_gauss_newton
from sparsepr.numerics import batched_ranks

clock = time.perf_counter

# name -> unit.  "ref" is one run of the calibration kernel, timed beside
# every call.  setup_s is the median of SETUP_SAMPLES fresh set-up
# interpreters, timed between calls at even steps over the window (samples
# taken together only see the host speed of one moment); their time is not
# counted in the window.
END_TO_END = {"wall_norm": "ref", "call_p50_norm": "ref", "peak_rss_mb": "MB", "setup_s": "s"}

RANK_SHAPES = ((6, 6), (6, 4), (7, 7))
RANK_STACK = 5000
RANK_REPEATS = 5
GN_PROBLEMS = 16
GN_SHAPE = (14, 4)  # the heuristic solve's refined supports
CALIBRATION_RUNS = 9
SETUP_SAMPLES = 10

# Per-layer metrics of one traced pass.  Counts come from public return
# values or closed forms; a metric that rests on a closed form is labelled
# "computed" in the run's record, with the assumption it makes.
# *_busy_share is a layer's time over the pass's traced time; *_per_s is a
# count over the busy seconds of the layer that did it.  A layer the
# workload does not call reads 0.
PER_LAYER = {
    **{f"numerics.batched_ranks_us.{m}x{k}": "us" for m, k in RANK_SHAPES},
    **{f"numerics.batched_ranks_bytes.{m}x{k}": "bytes" for m, k in RANK_SHAPES},
    "distance.configs": "count",
    "distance.configs_per_s": "1/s",
    "distance.busy_share": "1",
    "distance.stack_mb": "MB",
    "distance.spark_subsets": "count",
    "distance.spark_busy_share": "1",
    "solver_real.supports": "count",
    "solver_real.patterns": "count",
    "solver_real.patterns_per_s": "1/s",
    "solver_real.accept_ratio": "1",
    "solver_real.busy_share": "1",
    "solver_complex.lifted_supports": "count",
    "solver_complex.lifted_supports_per_s": "1/s",
    "solver_complex.lifted_busy_share": "1",
    "solver_complex.probe_pair_restarts": "count",
    "solver_complex.pair_restarts_per_s": "1/s",
    "solver_complex.probe_busy_share": "1",
    "solver_complex.gn_iters": "count",
    "solver_complex.gn_iters_per_s": "1/s",
    "solver_complex.heuristic_restarts": "count",
    "solver_complex.heuristic_busy_share": "1",
    "experiments.trials": "count",
    "experiments.busy_share": "1",
    "experiments.overhead_share": "1",
    "experiments.emit_share": "1",
    "model.io_share": "1",
    "cli.overhead_ms": "ms",
    "trace.overhead_share": "1",
}
# Per-layer metrics that are derived from a count of another name.
COUNT_OF = {
    "distance.configs_per_s": "distance.configs",
    "solver_real.patterns_per_s": "solver_real.patterns",
    "solver_real.accept_ratio": "solver_real.patterns",
    "solver_complex.lifted_supports_per_s": "solver_complex.lifted_supports",
    "solver_complex.pair_restarts_per_s": "solver_complex.probe_pair_restarts",
}


@dataclass
class Span:
    """One timed call.  bucket names the layer its self time is charged to
    (None for the pass and call spans); inner charges part of it to other
    layers, as read from the call's return value.  computed names the
    counts that are closed forms rather than read from a return value, and
    the assumption each one makes."""

    id: int
    parent: int | None
    trace: int
    name: str
    bucket: str | None
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    inner: dict = field(default_factory=dict)
    computed: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory.  Spans of one call share its trace id."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str, bucket: str | None = None, new_trace: bool = False):
        parent = self._open[-1] if self._open else None
        sid = len(self.spans)
        trace = parent.trace if parent is not None and not new_trace else sid
        sp = Span(sid, parent.id if parent else None, trace, name, bucket)
        self.spans.append(sp)
        self._open.append(sp)
        sp.start = clock()
        try:
            yield sp
        finally:
            sp.end = clock()
            self._open.pop()

    def descendants(self, sp: Span) -> list[Span]:
        """Spans opened inside sp (valid once sp has closed)."""
        return [s for s in self.spans[sp.id + 1:] if s.start >= sp.start and s.end <= sp.end]


class Gate:
    """Counts calls attempted and failed.  A call fails when it raises, gives
    a wrong answer, or its stdout checksum or work counts differ from the
    first time it ran."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.sha: dict[str, str] = {}
        self.counts: dict[str, dict] = {}

    def record(self, call, outcome: dict | None, error: str | None, counts: dict | None = None) -> None:
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{call.name}: {error}")
            return
        try:
            problems = call.check(outcome)
        except Exception as exc:  # a malformed outcome is a wrong answer
            problems = [f"unreadable outcome ({exc!r})"]
        if "sha256" in outcome and self.sha.setdefault(call.name, outcome["sha256"]) != outcome["sha256"]:
            problems.append("output differs from the first pass")
        if counts is not None and self.counts.setdefault(call.name, counts) != counts:
            problems.append(f"work counts {counts} differ from the first traced pass")
        if problems:
            self.failures.append(f"{call.name}: " + "; ".join(problems))

    @property
    def failed(self) -> int:
        return len(self.failures)


def _attempt(fn, *args):
    try:
        return fn(*args), None
    except Exception as exc:  # the run continues and reports the failure
        return None, f"raised {exc!r}"


class Calibration:
    """A fixed numpy kernel (small complex matrix-vector steps in a Python
    loop, then a batched 6x6 SVD) timed before and after every call.

    On a shared 2-core host the median call time of a 25-second window
    varied by 10-23% (quartile spread over windows), and every kernel
    slowed together.  A call's time over the mean of the kernel times
    around it varied by 2-6%.  The kernel runs no sparsepr code, so the
    ratio still moves with every change to the program; its inputs are
    fixed, so the unit is the same for every seed.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        self.x = rng.standard_normal(3) + 0j
        self.stack = rng.standard_normal((400, 6, 6))

    def once(self) -> float:
        t0 = clock()
        x = self.x
        for _ in range(80):
            x = x - 1e-4 * (self.a.conj().T @ (np.abs(self.a @ x) ** 2))
        np.linalg.svd(self.stack, compute_uv=False)
        return clock() - t0

    def __call__(self) -> float:
        # The median of several runs ignores a single interrupted one.
        return statistics.median(self.once() for _ in range(CALIBRATION_RUNS))


def untraced_pass(calls, gate: Gate, times: dict, calibrate: Calibration, between) -> None:
    """One pass through the entry points, each call timed in seconds and in
    calibration-kernel units.  between() runs after each call; when it
    returns true it took time, and the kernel is timed again."""
    before = calibrate()
    for call in calls:
        c0 = clock()
        outcome, error = _attempt(call.run)
        dt = clock() - c0
        after = calibrate()
        ref = (before + after) / 2
        times[call.name].append((dt, dt / ref, ref))
        before = calibrate() if between() else after
        gate.record(call, outcome, error)


def paired_pass(calls, gate: Gate, tracer: Tracer, e2e: dict) -> Span:
    """Each call once through its entry point, untraced and timed, then at
    once as its traced replica, so that the two run under the same host
    speed."""
    with tracer.span("pass") as root:
        for call in calls:
            c0 = clock()
            outcome, error = _attempt(call.run)
            e2e[call.name].append(clock() - c0)
            gate.record(call, outcome, error)
            with tracer.span(f"call.{call.name}", new_trace=True) as cs:
                outcome, error = _attempt(call.traced, tracer)
            gate.record(call, outcome, error, dict(layer_totals(tracer.descendants(cs))[1]))
    return root


def layer_totals(spans) -> tuple[dict, dict]:
    """Busy seconds per bucket and summed work counts over layer spans."""
    busy, counts = defaultdict(float), defaultdict(float)
    for sp in spans:
        if sp.bucket is None:
            continue
        busy[sp.bucket] += sp.seconds - sum(sp.inner.values())
        for bucket, seconds in sp.inner.items():
            busy[bucket] += seconds
        for key, value in sp.counts.items():
            counts[key] += value
    return busy, counts


def microbench(tracer: Tracer, seed: int) -> dict:
    """batched_ranks on a fixed seeded stack per shape, and refine_gauss_newton
    from fixed seeded starts."""
    out = {}
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1000,)))
    with tracer.span("microbench"):
        for m, k in RANK_SHAPES:
            stack = rng.standard_normal((RANK_STACK, m, k))
            samples = []
            for _ in range(RANK_REPEATS):
                with tracer.span("numerics.batched_ranks") as sp:
                    batched_ranks(stack)
                sp.counts["matrices"] = RANK_STACK
                samples.append(sp.seconds)
            out[f"numerics.batched_ranks_us.{m}x{k}"] = (statistics.median(samples) / RANK_STACK * 1e6,
                                                         RANK_REPEATS)
            # Bytes per matrix: the float64 input, its singular values, and
            # the int64 rank plus bool fragile flag returned.
            out[f"numerics.batched_ranks_bytes.{m}x{k}"] = ((m * k + min(m, k)) * 8 + 9, 1)
            sp.computed[f"numerics.batched_ranks_bytes.{m}x{k}"] = (
                "float64 input, singular values, int64 rank and bool flag per matrix")
        iters, seconds = 0, 0.0
        m, k = GN_SHAPE
        for _ in range(GN_PROBLEMS):
            A_I = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
            x = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            x0 = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            with tracer.span("solver_complex.refine_gauss_newton") as sp:
                res = refine_gauss_newton(A_I, np.abs(A_I @ x), x0)
            sp.counts["gn_iters"] = res.iterations
            iters += res.iterations
            seconds += sp.seconds
        out["solver_complex.gn_iters"] = (iters, GN_PROBLEMS)
        out["solver_complex.gn_iters_per_s"] = (iters / seconds, GN_PROBLEMS)
    return out


def per_layer_metrics(calls, tracer: Tracer, roots: list[Span], e2e: dict,
                      micro: dict) -> tuple[dict, dict, dict]:
    """Per-layer metrics as name -> (value, samples), per-call detail, and
    name -> assumption for the metrics that rest on a closed form."""
    n = len(roots)
    call_spans = {c.name: [s for s in tracer.spans if s.name == f"call.{c.name}"] for c in calls}
    # Per call and pass: the layer spans directly under the call span.
    layer_s = {name: [sum(s.seconds for s in tracer.descendants(cs) if s.parent == cs.id) for cs in spans]
               for name, spans in call_spans.items()}
    traced_s = [sum(call_spans[c.name][j].seconds for c in calls) for j in range(n)]
    untraced_s = [sum(e2e[c.name][j] for c in calls) for j in range(n)]

    totals = [layer_totals(tracer.descendants(root)) for root in roots]
    busy = defaultdict(float, {b: statistics.median(t[0].get(b, 0.0) for t in totals)
                               for b in {b for t in totals for b in t[0]}})
    counts = defaultdict(float, totals[0][1])
    pass_s = statistics.median(traced_s)

    def share(bucket):
        return busy[bucket] / pass_s, n

    def rate(count_key, bucket):
        return (counts[count_key] / busy[bucket] if busy[bucket] > 0 else 0.0), n

    out = dict(micro)
    out.update({
        "distance.configs": (counts["distance.configs"], n),
        "distance.configs_per_s": rate("distance.configs", "distance"),
        "distance.busy_share": share("distance"),
        "distance.stack_mb": (counts["distance.stack_mb"], n),
        "distance.spark_subsets": (counts["distance.spark_subsets"], n),
        "distance.spark_busy_share": share("distance.spark"),
        "solver_real.supports": (counts["solver_real.supports"], n),
        "solver_real.patterns": (counts["solver_real.patterns"], n),
        "solver_real.patterns_per_s": rate("solver_real.patterns", "solver_real"),
        "solver_real.accept_ratio": (counts["solver_real.classes"] / counts["solver_real.patterns"]
                                     if counts["solver_real.patterns"] else 0.0, n),
        "solver_real.busy_share": share("solver_real"),
        "solver_complex.lifted_supports": (counts["solver_complex.lifted_supports"], n),
        "solver_complex.lifted_supports_per_s": rate("solver_complex.lifted_supports", "solver_complex.lifted"),
        "solver_complex.lifted_busy_share": share("solver_complex.lifted"),
        "solver_complex.probe_pair_restarts": (counts["solver_complex.probe_pair_restarts"], n),
        "solver_complex.pair_restarts_per_s": rate("solver_complex.probe_pair_restarts", "solver_complex.probe"),
        "solver_complex.probe_busy_share": share("solver_complex.probe"),
        "solver_complex.heuristic_restarts": (counts["solver_complex.heuristic_restarts"], n),
        "solver_complex.heuristic_busy_share": share("solver_complex.heuristic"),
        "experiments.trials": (counts["experiments.trials"], n),
        "experiments.busy_share": share("experiments"),
        "experiments.emit_share": share("experiments.emit"),
        "model.io_share": share("model.io"),
        # Traced time outside every layer span (span bookkeeping and the
        # replica's own glue), over the untraced time of the same calls.
        "trace.overhead_share": (statistics.median(
            (traced_s[j] - sum(layer_s[c.name][j] for c in calls)) / untraced_s[j] for j in range(n)), n),
    })
    # run_sweep time not spent inside the solver, over run_sweep time.
    sweep_s = busy["experiments"] + busy["solver_real"] + busy["solver_complex.lifted"]
    out["experiments.overhead_share"] = (busy["experiments"] / sweep_s if counts["experiments.trials"] else 0.0, n)

    # Per call: end-to-end time = its layer spans + CLI overhead.
    detail, overheads = {}, []
    for call in calls:
        diffs = [e - l for e, l in zip(e2e[call.name], layer_s[call.name])]
        detail[call.name] = {
            "e2e_ms": statistics.median(e2e[call.name]) * 1e3,
            "layer_spans_ms": statistics.median(layer_s[call.name]) * 1e3,
            "call_span_ms": statistics.median(s.seconds for s in call_spans[call.name]) * 1e3,
        }
        if call.via_cli:
            overheads += diffs
            detail[call.name]["cli_overhead_ms"] = statistics.median(diffs) * 1e3
    out["cli.overhead_ms"] = (statistics.median(overheads) * 1e3, len(overheads))

    how = {}
    for sp in tracer.spans[:roots[0].id] + tracer.descendants(roots[0]):
        how.update(sp.computed)
    computed = {name: how[COUNT_OF.get(name, name)] for name in out if COUNT_OF.get(name, name) in how}
    return out, detail, computed


def end_to_end_metrics(calls, passes: int, call_times: dict, setup: list[float]) -> tuple[dict, dict]:
    """Bounded metrics, and the same timings in seconds for the record."""
    primary = [t for c in calls if c.primary for t in call_times[c.name]]
    refs = [t[2] for c in calls for t in call_times[c.name]]
    # One pass is estimated as the sum of each call's median, which is
    # steadier than the median of a few pass totals.
    bounded = {
        "wall_norm": (sum(statistics.median(t[1] for t in call_times[c.name]) for c in calls),
                      passes),
        "call_p50_norm": (statistics.median(t[1] for t in primary), len(primary)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "setup_s": (statistics.median(setup), len(setup)),
    }
    measured = {
        "wall_s": (sum(statistics.median(t[0] for t in call_times[c.name]) for c in calls), "s", passes),
        "call_p50_ms": (statistics.median(t[0] for t in primary) * 1e3, "ms", len(primary)),
        "ref_ms": (statistics.median(refs) * 1e3, "ms", len(refs)),
    }
    return bounded, measured


def _repeat(one_pass, seconds: float, elapsed) -> int:
    """Run passes until the next one would end after the window; count them.
    elapsed() is the time counted in the window so far."""
    passes = 0
    while True:
        p0 = elapsed()
        one_pass()
        passes += 1
        now = elapsed()
        if now + (now - p0) > seconds:
            return passes


def run(calls, seconds: float, trace: bool, seed: int, sample_setup=None) -> dict:
    """Measure the workload for `seconds`; return the run's record.  An
    untraced run calls sample_setup() between calls for the setup_s
    samples; their time is left out of the window."""
    gate, tracer = Gate(), Tracer()
    start = clock()
    if trace:
        micro = microbench(tracer, seed)
        e2e: dict[str, list[float]] = defaultdict(list)
        roots: list[Span] = []
        passes = _repeat(lambda: roots.append(paired_pass(calls, gate, tracer, e2e)), seconds,
                         lambda: clock() - start)
        values, detail, computed = per_layer_metrics(calls, tracer, roots, e2e, micro)
        units, measured = PER_LAYER, {}
    else:
        calibrate = Calibration()
        # Per call: (seconds, ref units, ref seconds).
        times: dict[str, list[tuple]] = defaultdict(list)
        setup: list[float] = []

        def elapsed():
            return clock() - start - sum(setup)

        def between() -> bool:
            due = elapsed() >= len(setup) * seconds / SETUP_SAMPLES
            if due:
                setup.append(sample_setup())
            return due

        passes = _repeat(lambda: untraced_pass(calls, gate, times, calibrate, between), seconds, elapsed)
        values, measured = end_to_end_metrics(calls, passes, times, setup)
        units, computed = END_TO_END, {}
        detail = {c.name: {"p50_ms": statistics.median(t[0] for t in times[c.name]) * 1e3,
                           "p50_ref": statistics.median(t[1] for t in times[c.name])} for c in calls}
    for name in detail:
        detail[name].update(samples=passes, sha256=gate.sha.get(name))
    return {
        "attempted": gate.attempted,
        "failed": gate.failed,
        "failures": gate.failures,
        "metrics": {k: {"value": float(v), "unit": units[k], "samples": s, "computed": computed.get(k)}
                    for k, (v, s) in values.items()},
        "measured": {k: {"value": v, "unit": u, "samples": s} for k, (v, u, s) in measured.items()},
        "calls": detail,
        "notes": [f"{passes} {'paired traced' if trace else 'untraced'} passes in {clock() - start:.3f} s"],
        "spans": [{"id": s.id, "parent": s.parent, "trace": s.trace, "name": s.name,
                   "start": s.start - start, "end": s.end - start, "counts": s.counts} for s in tracer.spans],
    }
