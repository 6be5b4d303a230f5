import ast
import itertools
from dataclasses import replace
import tracemalloc
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np
import pytest

from sparsepr import (
    Field,
    MeasurementEnsemble,
    SparseVector,
    generate_ensemble,
    hermitian_top_eig,
    measure,
    null_space_vector,
    numerical_rank,
    solve_l0_complex,
    solve_l0_real,
)
from sparsepr import numerics, solver_complex, solver_real
from sparsepr.model import phase_equivalent, sign_table
from sparsepr.numerics import batched_ranks
from sparsepr.solver_complex import _lift_columns, _lift_system
from helpers import least_squares
from oracles import full_row_screen_block, residual_accepted_supports, svd_batched_ranks, svd_rank


def test_rank_simple_cases():
    assert numerical_rank([[1.0, 0.0], [0.0, 0.0]]).rank == 1
    assert numerical_rank([[1.0, 1.0], [1.0, 1.0 + 1e-13]]).rank == 1
    assert numerical_rank(np.zeros((3, 2))).rank == 0


def test_rank_gaussian_seed5():
    A = generate_ensemble(Field.REAL, 4, 4, 5)
    assert numerical_rank(A.entries).rank == svd_rank(A.entries) == 4


def test_rank_decision_fields():
    d = numerical_rank([[2.0, 0.0], [0.0, 1e-14]])
    assert d.rank == 1
    assert d.largest_dropped_sv <= d.tol_used < d.smallest_kept_sv
    assert not d.fragile
    flaky = numerical_rank(np.diag([1.0, 5e-10]))
    assert flaky.rank == 2 or flaky.fragile  # near the threshold the gap is surfaced


def test_rank_tolerance_clears_the_svd_error():
    # _screen_accepts proves an exact-defect rank t - e only when the SVD's
    # roundoff on a zero singular value stays below half the policy's threshold
    assert numerics.DEFAULT_RANK_TOL >= 2 * numerics._SVD_ERROR


def test_rank_rejects_nonfinite():
    with pytest.raises(ValueError):
        numerical_rank([[np.nan, 1.0]])


def test_least_squares_examples():
    r = least_squares(np.array([[1.0], [1.0]]), [2.0, 2.0])
    assert np.allclose(r.x, [2.0]) and r.residual_norm <= 1e-12 and not r.degenerate
    r2 = least_squares(np.array([[1.0], [1.0]]), [1.0, -1.0])
    assert np.allclose(r2.x, [0.0]) and np.isclose(r2.residual_norm, np.sqrt(2.0))


def test_least_squares_consistent_recovery():
    rng = np.random.default_rng(9)
    M = rng.standard_normal((6, 3))
    x0 = rng.standard_normal(3)
    r = least_squares(M, M @ x0)
    assert np.max(np.abs(r.x - x0)) <= 1e-10


def test_least_squares_flags_degenerate():
    M = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    assert least_squares(M, [1.0, 2.0, 3.0]).degenerate


def test_hermitian_top_eig_examples():
    w, v1 = hermitian_top_eig(np.diag([4.0, 1.0]))
    assert np.allclose(w, [4.0, 1.0])
    assert np.allclose(np.abs(v1), [1.0, 0.0])

    x = np.array([1.0, 1j])
    X = np.outer(x, x.conj())
    w, v1 = hermitian_top_eig(X)
    assert np.allclose(w, [2.0, 0.0], atol=1e-12)
    overlap = abs(np.vdot(v1, x / np.linalg.norm(x)))
    assert np.isclose(overlap, 1.0, atol=1e-12)


def test_hermitian_top_eig_reconstruction():
    rng = np.random.default_rng(11)
    B = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    X = (B + B.conj().T) / 2
    w, v1 = hermitian_top_eig(X)
    wf, vf = np.linalg.eigh(X)
    assert np.allclose(np.sort(w), wf, atol=1e-10)
    recon = sum(wf[i] * np.outer(vf[:, i], vf[:, i].conj()) for i in range(4))
    assert np.max(np.abs(recon - X)) <= 1e-10
    assert np.linalg.norm(X @ v1 - w[0] * v1) <= 1e-10 * np.linalg.norm(X)


def test_hermitian_top_eig_rejects_nonhermitian():
    # the test is relative to max |X|, so no scale of X passes it
    for scale in (1.0, 1e-6, 1e-20):
        with pytest.raises(ValueError):
            hermitian_top_eig(scale * np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_null_space_vector_examples():
    v = null_space_vector(np.array([[1.0, 1.0]]))
    assert np.allclose(np.abs(v), np.abs(np.array([1.0, -1.0]) / np.sqrt(2)))
    v2 = null_space_vector(np.array([[1.0, 2.0]]))
    assert np.allclose(np.abs(v2), np.abs(np.array([2.0, -1.0]) / np.sqrt(5)))
    M = np.random.default_rng(13).standard_normal((3, 4))
    v3 = null_space_vector(M)
    assert np.linalg.norm(M @ v3) <= 1e-10 * np.linalg.svd(M, compute_uv=False)[0]
    assert np.isclose(np.linalg.norm(v3), 1.0)


def test_null_space_vector_rejects_full_rank():
    with pytest.raises(ValueError):
        null_space_vector(np.eye(3))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_null_space_vector_refuses_non_finite_entries(bad):
    # with inf the SVD returned [0, 0, 1], which M does not annihilate; with
    # NaN it raised LinAlgError "SVD did not converge"
    with pytest.raises(ValueError, match="null_space_vector requires finite entries"):
        null_space_vector(np.array([[bad, 1.0, 0.0], [1.0, 2.0, 3.0]]))


def _rank_stacks():
    """Seeded stacks per shape: generic, duplicated or near-duplicated column,
    integer entries, extreme scales, and singular values spread down to 1e-12."""
    rng = np.random.default_rng(17)
    for shape in [(6, 6), (6, 4), (7, 7), (4, 6), (3, 1), (1, 3), (8, 8)]:
        t = min(shape)
        base = rng.standard_normal((500, *shape))
        dup = base.copy()
        dup[:, :, -1] = dup[:, :, 0]
        near = base.copy()
        near[:, :, -1] = near[:, :, 0] + 1e-9 * rng.standard_normal(shape[0])
        scaled = base * 10.0 ** rng.uniform(-160, 160, size=(500, 1, 1))
        u, _, vt = np.linalg.svd(base)
        s = 10.0 ** rng.uniform(-12, 0, size=(500, t))
        s[:, 0] = 1.0
        spread = (u[..., :t] * s[:, None, :]) @ vt[..., :t, :]
        for stack in (base, dup, near, np.round(base), scaled, spread, np.zeros((3, *shape))):
            yield shape, stack


def test_batched_ranks_match_svd_policy():
    # the full-rank screen may skip SVDs but never changes a rank or fragile flag
    for shape, stack in _rank_stacks():
        ranks, fragile = batched_ranks(stack)
        want_ranks, want_fragile = svd_batched_ranks(stack)
        assert np.array_equal(ranks, want_ranks), shape
        assert np.array_equal(fragile, want_fragile), shape
    stack = np.random.default_rng(3).standard_normal((400, 2, 6, 6))
    ranks, fragile = batched_ranks(stack)
    assert ranks.shape == fragile.shape == (400, 2)
    assert np.array_equal(ranks, svd_batched_ranks(stack)[0])


def test_numerical_rank_and_batched_ranks_agree():
    # one policy and one fragile rule: each matrix of a stack gets the rank
    # and flag numerical_rank gives it on its own
    for shape, stack in _rank_stacks():
        ranks, fragile = batched_ranks(stack)
        for idx in np.ndindex(ranks.shape):
            d = numerical_rank(stack[idx])
            assert (d.rank, d.fragile) == (ranks[idx], fragile[idx]), (shape, idx)


def _rank_tol_references(path: Path) -> list[int]:
    """Line numbers where a module's code names DEFAULT_RANK_TOL, as a
    name, an attribute or an imported name (docstrings are not code)."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        named = getattr(node, "id", None) or getattr(node, "attr", None)
        if isinstance(node, ast.alias):
            named = node.name
        if named == "DEFAULT_RANK_TOL":
            lines.append(getattr(node, "lineno", 0))
    return lines


def test_rank_threshold_is_read_only_in_numerics():
    # every rank decision goes through numerics._policy_ranks, so no other
    # module of the package applies the threshold itself
    package = Path(numerics.__file__).parent
    modules = sorted(p for p in package.glob("*.py") if p.name != "numerics.py")
    assert len(modules) >= 7
    found = {p.name: _rank_tol_references(p) for p in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert _rank_tol_references(package / "numerics.py")  # the check sees the name where it is read


def _rational_gram_det(M: np.ndarray) -> Fraction:
    """det(M^T M) of the stored floats, in exact rational arithmetic."""
    cols = [[Fraction(float(x)) for x in col] for col in M.T]
    G = [[sum(x * y for x, y in zip(ci, cj)) for cj in cols] for ci in cols]
    det = Fraction(1)
    for c in range(len(G)):
        pivot = next((r for r in range(c, len(G)) if G[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        G[c], G[pivot] = G[pivot], G[c]
        det *= G[c][c] if pivot == c else -G[c][c]
        for r in range(c + 1, len(G)):
            f = G[r][c] / G[c][c]
            G[r] = [x - f * y for x, y in zip(G[r], G[c])]
    return det


def test_laplace_gram_radius_bounds_the_exact_determinant():
    # |sqrt(G) - sqrt(det(M^T M))| <= B for the table's scaled A, with det(M^T M)
    # exact; on near-duplicate columns the minors cancel to 1e-9
    rng = np.random.default_rng(23)
    checked = 0
    for m, n, kind in ((4, 6, 0), (5, 7, 1), (5, 7, 2)):
        E = rng.standard_normal((m, n))
        if kind == 1:
            E[:, -1] = E[:, 0] + 1e-9 * rng.standard_normal(m)
        elif kind == 2:
            E *= 10.0 ** rng.uniform(-3, 3, size=n)
        table = numerics._minor_table(E, m - 1)
        A = np.ldexp(E, -int(np.frexp(np.abs(E).max())[1]))
        signs = sign_table(m)[1:]
        for t in range(2, m + 1):
            for a in range(max(1, t - m + 1), t // 2 + 1):
                ci, cj = numerics._combos(n, a), numerics._combos(n, t - a)
                pi, pj = rng.integers(len(ci), size=3), rng.integers(len(cj), size=3)
                if kind == 1:
                    pi[0], pj[0] = 0, len(cj) - 1  # both near-duplicate columns in one pair
                H = numerics._pattern_products(m, t, a, signs)
                G, B = numerics._laplace_gram(table, a, t - a, pi, pj, H)
                for k in range(3):
                    for q in rng.integers(len(signs), size=2):
                        M = np.concatenate([A[:, ci[pi[k]]], signs[q][:, None] * A[:, cj[pj[k]]]], axis=1)
                        exact = np.sqrt(float(_rational_gram_det(M)))
                        # B bounds ||D_hat - D||; G's own sum errs by a relative 2 gamma_(nR + 1)
                        slack = (comb(m, t) + 2) * 2.0 ** -52 * np.sqrt(G[k, q])
                        assert abs(np.sqrt(G[k, q]) - exact) <= B[k] + slack, (m, t, a, k, q)
                        checked += 1
    assert checked > 90


def _screen_flags(field: Field, A: np.ndarray, t: np.ndarray, k: int, resid_tol: float) -> np.ndarray:
    """The screen's flags for every k-subset of A's columns: real supports
    against every sign vector, lifted supports against their one
    right-hand side t."""
    n = A.shape[1]
    if field is Field.REAL:
        new_columns, signs = (lambda cols, c: [A[:, c]]), sign_table(k)
    else:
        new_columns, signs = _lift_columns(A), np.ones((1, k * k))
    return numerics._lstsq_screen(new_columns, n, k, t[None], signs, np.array([resid_tol]))[0]


def _real_screen_case(A: np.ndarray, t: np.ndarray, k: int, resid_tol: float):
    """(flags, accepted) for every k-subset of A's columns: the screen's
    flags, and whether _exact_support's residual test, lstsq against every
    sign vector r with |r| = t, accepts some r."""
    m, n = A.shape
    flags = _screen_flags(Field.REAL, A, t, k, resid_tol)
    rhs = (sign_table(m) * t).T
    accepted = []
    for I in itertools.combinations(range(n), k):
        X, *_ = np.linalg.lstsq(A[:, I], rhs, rcond=None)
        accepted.append(bool(np.any(np.linalg.norm(rhs - A[:, I] @ X, axis=0) <= resid_tol)))
    return flags, np.array(accepted)


def _lifted_screen_case(A: np.ndarray, t: np.ndarray, k: int, resid_tol: float):
    """(flags, accepted) as _real_screen_case for the Hermitian lift, whose
    one right-hand side is t, in _lift_system's column order."""
    n = A.shape[1]
    flags = _screen_flags(Field.COMPLEX, A, t, k, resid_tol)
    accepted = []
    for I in itertools.combinations(range(n), k):
        G = _lift_system(A[:, I][None])[0]
        v, *_ = np.linalg.lstsq(G, t, rcond=None)
        with np.errstate(over="ignore"):  # at 2^300 the norm overflows and the test rejects
            accepted.append(bool(np.linalg.norm(G @ v - t) <= resid_tol))
    return flags, np.array(accepted)


def _near_tolerance(M: np.ndarray, r: np.ndarray, delta: float, rng) -> np.ndarray:
    """r plus a component of norm delta orthogonal to the range of M, so
    that lstsq on M leaves a residual of norm delta (to rounding)."""
    q, _ = np.linalg.qr(M, mode="complete")
    w = q[:, M.shape[1]:] @ rng.standard_normal(M.shape[0] - M.shape[1])
    return r + delta * w / np.linalg.norm(w)


def _screen_corpus():
    """(field, A, t, k, resid_tol): planted right-hand sides, exact and at
    resid_tol (1 -+ 1e-3); duplicate, negated and zero columns; duplicate
    and zero rows; exact pivot ties; and scales 2^+-300 and 1e+-150.  Two
    variants aim the screen's stage-1 row (the free row of largest t) at a
    degenerate spot: "dup-max-row" copies the row of largest t onto
    another row, so that wherever one of the two is a pivot the other is
    predicted exactly, and "flat-t" makes every t equal, so that the first
    free row wins the tie."""
    rng = np.random.default_rng(41)
    cases = []
    for field, m, n, k in ((Field.REAL, 7, 7, 3), (Field.COMPLEX, 9, 6, 2), (Field.COMPLEX, 10, 6, 3),
                           (Field.COMPLEX, 18, 6, 4)):
        for variant in ("generic", "dup-col", "neg-col", "zero-col", "dup-row", "zero-row", "ties", "dup-max-row",
                        "flat-t"):
            A = generate_ensemble(field, m, n, int(rng.integers(1 << 30))).entries.copy()
            if variant == "dup-col":
                A[:, 4] = A[:, 1]
            elif variant == "neg-col":
                A[:, 4] = -A[:, 1]
            elif variant == "zero-col":
                A[:, 2] = 0.0
            elif variant == "dup-row":
                A[3] = A[0]
            elif variant == "zero-row":
                A[2] = 0.0
            elif variant == "ties":
                A = np.round(2 * A.real) + (1j * np.round(2 * A.imag) if field is Field.COMPLEX else 0)
            I = (0, 1, 4, 5)[:k]
            x = rng.standard_normal(k) + (1j * rng.standard_normal(k) if field is Field.COMPLEX else 0)
            if variant == "dup-max-row":
                top = int(np.argmax(np.abs(A[:, I] @ x)))
                A[(top + 1) % m] = A[top]
            if field is Field.REAL:
                M, r = A[:, I], A[:, I] @ x
            else:
                M, r = _lift_system(A[:, I][None])[0], np.abs(A[:, I] @ x) ** 2
            if variant == "flat-t":
                r = np.full(m, np.abs(r).max())
            tol = 1e-8 * np.sqrt(m) * max(1.0, float(np.abs(r).max()))
            cases.append((field, A, np.abs(r), k, tol))
            if variant == "generic":
                for f in (1 - 1e-3, 1 + 1e-3):
                    near = _near_tolerance(M, r, tol, rng)
                    cases.append((field, A, np.abs(near), k, tol * f))
                for scale in (2.0 ** 300, 2.0 ** -300, 1e150, 1e-150):
                    power = 1 if field is Field.REAL else 2
                    cases.append((field, A * scale, np.abs(r) * scale ** power, k, tol * scale ** power))
            cases.append((field, A, rng.random(m) + 0.1, k, tol))
    return cases


def test_lstsq_screen_never_rules_out_an_accepted_support():
    """The screen may flag anything, but no support on which the exact
    residual test accepts is ruled out: real supports against every sign
    vector (sign_table(k) rows), lifted supports against their one
    right-hand side, on the degenerate corpus, whose "dup-max-row" and
    "flat-t" cases aim the stage-1 row at a repeated pivot row and at a
    tie.  The same holds when one
    screen call covers every case of one shape, so that supports of cases
    at scales 2^+-300 and 1e+-150 share blocks with unit-scale ones."""
    accepted = ruled_out = 0
    groups = {}
    for i, (field, A, t, k, tol) in enumerate(_screen_corpus()):
        for level in range(1, k + 1):
            case = _real_screen_case if field is Field.REAL else _lifted_screen_case
            flags, acc = case(A, t, level, tol)
            assert flags.shape == acc.shape == (comb(A.shape[1], level),)
            assert not np.any(acc & ~flags), (i, level)
            accepted += acc.sum()
            ruled_out += (~flags).sum()
            groups.setdefault((field, A.shape, level), []).append((A, t, tol, acc))
    # the corpus exercises both sides of the screen
    assert accepted >= 40 and ruled_out >= 500
    for (field, (m, n), level), cases in groups.items():
        side_by_side = np.concatenate([A for A, *_ in cases], axis=1)
        if field is Field.REAL:
            new_columns, signs = (lambda cols, c: [side_by_side[:, c]]), sign_table(level)
        else:
            new_columns, signs = _lift_columns(side_by_side), np.ones((1, level * level))
        t = np.stack([t for _, t, _, _ in cases])
        flags = numerics._lstsq_screen(new_columns, n, level, t, signs, np.array([tol for *_, tol, _ in cases]))
        assert flags.shape == (len(cases), comb(n, level))
        for j, (f, (*_, acc)) in enumerate(zip(flags, cases)):
            assert not np.any(acc & ~f), (field, level, j)


def test_two_stage_screen_flags_no_support_the_full_row_screen_rules_out(monkeypatch):
    """Stage 1 bounds each support on one row outside its pivots, and
    stage 2 gives the supports stage 1 leaves the bound on all of them, so
    the flagged set is never larger than the full-row screen's: on the
    degenerate corpus (both fields, every level) and on real (14, 18, 7)
    solves at m = 2k, seeds 0-5.  Each of those solves reruns exactly one
    support, the true one; one stage alone reruns two on some seeds."""
    blocks = []
    screen_block = numerics._screen_block

    def both(e, *args):
        flags = screen_block(e, *args)
        assert not np.any(flags & ~full_row_screen_block(e, *args))
        blocks.append(e.M.shape[2])
        return flags

    monkeypatch.setattr(numerics, "_screen_block", both)
    for field, A, t, k, tol in _screen_corpus():
        for level in range(1, k + 1):
            _screen_flags(field, A, t, level, tol)
    corpus_blocks = len(blocks)
    reruns = []
    exact = solver_real._exact_support

    def counted(entries, I, *args):
        reruns.append(I)
        return exact(entries, I, *args)

    monkeypatch.setattr(solver_real, "_exact_support", counted)
    for seed in range(6):
        A = generate_ensemble(Field.REAL, 14, 18, seed)
        rng = np.random.default_rng(seed)
        support = tuple(sorted(rng.choice(18, 7, replace=False).tolist()))
        x0 = SparseVector(Field.REAL, 18, support, rng.standard_normal(7))
        reruns.clear()
        sol = solve_l0_real(A, measure(A, x0), 7)
        assert sol.k_star == 7 and len(sol.classes) == 1 and phase_equivalent(sol.classes[0], x0, 1e-8), seed
        assert reruns == [support], seed
    assert corpus_blocks > 100 and len(blocks) > corpus_blocks


def _descent_corpus():
    """(field, A, x, k_max, y_scale) around a real (7, 9), a real (10, 14)
    and a lifted (10, 12) ensemble, each with a signal sparser than k_max,
    so that supports are accepted at sizes below the screen's: the
    generic case, a zero column and a repeated one outside the signal's
    support, a zero row of y_eff, A times 2^+-60, and y whose max lies
    above 2^400 or below 2^-400 (y_scale, applied in the problem's units)."""
    cases = []
    for field, m, n, k, k_max, seed in ((Field.REAL, 7, 9, 2, 3, 51), (Field.REAL, 10, 14, 3, 5, 52),
                                        (Field.COMPLEX, 10, 12, 2, 3, 53)):
        rng = np.random.default_rng(seed)
        base = generate_ensemble(field, m, n, seed).entries
        support = tuple(sorted(rng.choice(n, k, replace=False).tolist()))
        x = SparseVector(field, n, support, rng.standard_normal(k) + (
            1j * rng.standard_normal(k) if field is Field.COMPLEX else 0.0))
        outside = [c for c in range(n) if c not in support]
        for variant in ("generic", "zero-col", "rep-col", "zero-y-row", "A*2^60", "A*2^-60", "y-high", "y-low"):
            A = base.copy()
            if variant == "zero-col":
                A[:, outside[0]] = 0.0
            elif variant == "rep-col":
                A[:, outside[0]] = A[:, support[0]]
            elif variant == "zero-y-row":
                A[2, support[-1]] = -(A[2, support[:-1]] @ x.values[:-1]) / x.values[-1]
            elif variant.startswith("A*"):
                A = np.ldexp(A.real, int(variant[4:])) + (
                    1j * np.ldexp(A.imag, int(variant[4:])) if field is Field.COMPLEX else 0.0)
            y_scale = {"y-high": 500, "y-low": -500}.get(variant, 0)
            cases.append((field, A, x, k_max, y_scale, variant))
    return cases


def test_screen_descent_keeps_every_accepted_support():
    """Every support that the full scans' residual test accepts, at any
    size up to k_max, is among that size's candidates from the one screen
    (numerics._subset_candidates via each field's screen), on the
    degenerate corpus.  Where max y_eff (max y^2 on the lift) lies outside
    [2^-400, 2^400] the screen flags every support, and every support of
    every size is a candidate."""
    below_top = 0
    for field, A, x, k_max, y_scale, variant in _descent_corpus():
        E = MeasurementEnsemble.from_entries(field, A)
        p = solver_real._prepare(E, measure(E, x), k_max, 1e-8, field)
        # _prepare puts max y in [1/2, 1); the screen's t is y (real) or y^2 (lift)
        e = y_scale if field is Field.REAL else y_scale // 2
        p = replace(p, y=np.ldexp(p.y, e), tol_abs=np.ldexp(p.tol_abs, e),
                    resid_tol=np.ldexp(p.resid_tol, y_scale))
        if field is Field.REAL:
            screened, t = solver_real._real_screen([p], k_max), solver_real._y_eff([p])[0]
        else:
            screened, t = solver_complex._lifted_screen([p], k_max), p.y**2
        assert len(screened) == k_max, variant
        n = A.shape[1]
        for j in range(1, k_max + 1):
            candidates = solver_real._level_supports(screened, n, j, [0])[0]
            accepted = residual_accepted_supports(field, p.entries, t, j, p.resid_tol)
            assert set(accepted) <= set(candidates), (field, A.shape, variant, j)
            if y_scale:
                assert candidates == list(itertools.combinations(range(n), j)), (field, variant, j)
            elif j < k_max:
                below_top += len(accepted)
    assert below_top >= 30


def test_solve_screens_once_at_the_largest_screened_size(monkeypatch):
    """A generic real (10, 14, 5), lifted (10, 16, 3) and plane-topped
    (14, 6, 4) solve each call the screen once, at size 5, 3 and 3: the
    smaller sizes take their candidates from it, and the plane level is
    not screened."""
    calls = []
    for module in (solver_real, solver_complex):
        def counted(new_columns, n, k, *args, screen=module._lstsq_screen):
            calls.append(k)
            return screen(new_columns, n, k, *args)
        monkeypatch.setattr(module, "_lstsq_screen", counted)
    for field, m, n, k, want in ((Field.REAL, 10, 14, 5, 5), (Field.COMPLEX, 10, 16, 3, 3),
                                 (Field.COMPLEX, 14, 6, 4, 3)):
        A = generate_ensemble(field, m, n, 7)
        rng = np.random.default_rng(7)
        support = tuple(sorted(rng.choice(n, k, replace=False).tolist()))
        values = rng.standard_normal(k) + (1j * rng.standard_normal(k) if field is Field.COMPLEX else 0.0)
        x = SparseVector(field, n, support, values)
        solve = solve_l0_real if field is Field.REAL else solve_l0_complex
        calls.clear()
        sol = solve(A, measure(A, x), k)
        assert sol.k_star == k and len(sol.classes) == 1 and phase_equivalent(sol.classes[0], x, 1e-8), field
        assert calls == [want], (field, m, n, k)


def test_screen_borders_each_support_once_and_inverts_no_block(monkeypatch):
    """A real (10, 14, 5) solve borders every support it screens from its
    parent, one pivot per new column, and calls np.linalg.inv nowhere.  It
    screens once, at size 5, and the walk borders the C(n - 5 + j, j)
    j-subsets that have a 5-subset extension, for j = 1..5; the sizes
    below 5 take their candidates from that screen, with no walk of their
    own."""
    bordered = []
    border = numerics._border

    def counted(e, w, v):
        bordered.append(v.shape[1])  # supports that get this column
        border(e, w, v)

    monkeypatch.setattr(numerics, "_border", counted)

    def no_inv(*args, **kwargs):
        raise AssertionError("np.linalg.inv called")

    monkeypatch.setattr(np.linalg, "inv", no_inv)
    A = generate_ensemble(Field.REAL, 10, 14, 5)
    x0 = SparseVector(Field.REAL, 14, (1, 4, 6, 9, 12), [1.0, -0.7, 2.2, 0.4, -1.3])
    sol = solve_l0_real(A, measure(A, x0), 5)
    assert sol.k_star == 5
    want = sum(comb(14 - 5 + j, j) for j in range(1, 6))
    # one walk per support size bordered 4,938 columns; re-pivoting each screened support
    # from scratch chooses k' pivots for each of the C(14, k') supports of size k': 15,302
    assert sum(bordered) == want == 3002


@pytest.mark.parametrize("field, m, n, k, repivot_mb", [
    (Field.REAL, 10, 14, 5, 0.62),
    (Field.REAL, 12, 16, 6, 1.92),
    (Field.COMPLEX, 10, 16, 3, 1.38),
])
def test_screen_memory_stays_bounded(field, m, n, k, repivot_mb):
    """The traced peak of a solve stays within 2x of that of the screen
    that re-pivoted each block of supports from scratch (repivot_mb,
    measured the same way): the walk holds one block per level, not a
    whole level of prefix states."""
    A = generate_ensemble(field, m, n, 3)
    rng = np.random.default_rng(1)
    support = tuple(sorted(rng.choice(n, k, replace=False)))
    values = rng.standard_normal(k) + (1j * rng.standard_normal(k) if field is Field.COMPLEX else 1.0)
    y = measure(A, SparseVector(field, n, support, values))
    solve = solve_l0_real if field is Field.REAL else solve_l0_complex
    assert solve(A, y, k).k_star == k
    tracemalloc.start()
    try:
        solve(A, y, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * repivot_mb * 1e6


def test_screen_matrix_is_the_exact_tests_matrix_bitwise(monkeypatch):
    """The bound is about the stored floats of the exact test's matrix, so
    the M the walk builds for each support must be A_I (real) or
    _lift_system's lift (complex) bit for bit, up to column order: the
    levels introduce a lift's unknowns as c's diagonal, then (Re, Im) of
    (i, c) for each earlier i."""
    blocks = []

    def keep(e, *args):
        blocks.append(e)
        return np.ones(e.M.shape[2], dtype=bool)

    monkeypatch.setattr(numerics, "_screen_block", keep)
    rng = np.random.default_rng(43)
    checked = 0
    for field, m, n, k in ((Field.REAL, 7, 8, 3), (Field.COMPLEX, 10, 7, 3), (Field.COMPLEX, 17, 6, 4)):
        E = generate_ensemble(field, m, n, 5).entries * 10.0 ** rng.choice([-150, 0, 0, 150], size=(m, n))
        E[:, 2] = 0.0
        level_order = [("d", j, j) for j in range(k)]
        if field is Field.REAL:
            new_columns, K, perm = (lambda cols, c: [E[:, c]]), k, list(range(k))
        else:
            level_order = [u for j in range(k) for u in [("d", j, j)] + [(p, i, j) for i in range(j) for p in "ri"]]
            lift_order = [("d", j, j) for j in range(k)] + [
                (p, i, j) for i, j in zip(*np.triu_indices(k, 1)) for p in "ri"]
            new_columns, K, perm = _lift_columns(E), k * k, [level_order.index(u) for u in lift_order]
        blocks.clear()
        numerics._lstsq_screen(new_columns, n, k, np.ones((1, m)), np.ones((1, K)), np.array([1e-8]))
        supports = iter(itertools.combinations(range(n), k))
        for e in blocks:
            for b in range(e.M.shape[2]):
                I = next(supports)
                assert tuple(e.cols[:, b]) == I
                M = e.M[:, :, b].T[:, perm]
                want = E[:, I] if field is Field.REAL else _lift_system(E[:, I][None])[0]
                assert np.array_equal(M.view(np.int64), want.view(np.int64)), (field, I)
                checked += 1
        assert next(supports, None) is None
    assert checked == comb(8, 3) + comb(7, 3) + comb(6, 4)
