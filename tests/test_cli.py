import json
from importlib import resources

import jsonschema
import numpy as np
import pytest

from sparsepr import (
    Field,
    MeasurementEnsemble,
    SparseVector,
    generate_ensemble,
    measure,
    phase_gen_min_distance,
    spark_at_least,
    write_matrix,
    write_sparse_vector,
)
from sparsepr.cli import main


def run_cli(capsys, *argv):
    code = main(["--no-log", *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema(name):
    with resources.files("sparsepr.schemas").joinpath(name).open() as fh:
        return json.load(fh)


@pytest.fixture
def workdir(tmp_path):
    A = generate_ensemble(Field.REAL, 4, 8, 42)
    write_matrix(A, tmp_path / "A.mat")
    x = SparseVector(Field.REAL, 8, (1, 6), [3.0, -1.5])
    write_sparse_vector(x, tmp_path / "x.vec")
    y = measure(A, x)
    (tmp_path / "y.txt").write_text("\n".join(repr(float(v)) for v in y.magnitudes) + "\n")
    A3 = generate_ensemble(Field.REAL, 3, 8, 42)
    write_matrix(A3, tmp_path / "A3.mat")
    return tmp_path


def test_gen_writes_reproducible_matrix(tmp_path, capsys):
    out = tmp_path / "G.mat"
    code, stdout, _ = run_cli(capsys, "gen", "--field", "real", "--m", "4", "--n", "8",
                              "--seed", "42", "-o", str(out))
    assert code == 0
    meta = json.loads(stdout)
    assert meta["seed"] == 42 and meta["m"] == 4
    from sparsepr import read_matrix

    A = read_matrix(out)
    assert np.array_equal(A.entries, generate_ensemble(Field.REAL, 4, 8, 42).entries)


def test_measure_stdout(workdir, capsys):
    code, stdout, _ = run_cli(capsys, "measure", str(workdir / "A.mat"), str(workdir / "x.vec"))
    assert code == 0
    values = [float(ln) for ln in stdout.strip().splitlines()]
    assert len(values) == 4 and all(v >= 0 for v in values)


def test_dist_json_and_schema(workdir, capsys):
    code, stdout, _ = run_cli(capsys, "dist", str(workdir / "A.mat"))
    assert code == 0
    payload = json.loads(stdout)
    jsonschema.validate(payload, load_schema("distance.schema.json"))
    assert payload["d"] == 5


def test_certify_exit_codes(workdir, capsys):
    code, stdout, _ = run_cli(capsys, "certify", str(workdir / "A.mat"), "--k", "2")
    assert code == 0
    payload = json.loads(stdout)
    jsonschema.validate(payload, load_schema("certify.schema.json"))
    assert payload["certified"] is True

    code3, stdout3, _ = run_cli(capsys, "certify", str(workdir / "A.mat"), "--k", "3")
    assert code3 == 2
    assert json.loads(stdout3)["certified"] is False


def test_certify_strict_exits_3_on_fragile_spark(tmp_path, capsys):
    # columns 0-3 span a plane up to singular values 1.2e-10 and 9e-11, which
    # straddle the 1e-10 rank threshold: only the spark decision is fragile
    rng = np.random.default_rng(1)
    U, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    V, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    entries = np.empty((4, 5))
    entries[:, :4] = U @ np.diag([1.0, 0.7, 1.2e-10, 9e-11]) @ V.T
    entries[:, 4] = rng.standard_normal(4)
    A = MeasurementEnsemble.from_entries(Field.REAL, entries)
    write_matrix(A, tmp_path / "F.mat")
    assert not phase_gen_min_distance(A).fragile
    spark = spark_at_least(A, 5)
    assert spark.deficient_columns == (0, 1, 2, 3) and spark.fragile

    code, stdout, _ = run_cli(capsys, "certify", str(tmp_path / "F.mat"), "--k", "2")
    payload = json.loads(stdout)
    assert code == 2 and payload["fragile"] is True and payload["spark_ok"] is False
    code_strict, _, _ = run_cli(capsys, "certify", str(tmp_path / "F.mat"), "--k", "2", "--strict")
    assert code_strict == 3


def test_one_row_matrix_dist_and_certify(tmp_path, capsys):
    # m = 1: no admissible sign pattern, so d = m + 1 with no witness, and
    # 2k = 2 columns cannot be independent in one row
    write_matrix(MeasurementEnsemble.from_entries(Field.REAL, [[1.0, -2.0, 0.5]]), tmp_path / "R.mat")
    code, stdout, _ = run_cli(capsys, "dist", str(tmp_path / "R.mat"))
    payload = json.loads(stdout)
    jsonschema.validate(payload, load_schema("distance.schema.json"))
    assert code == 0 and payload["d"] == 2 and payload["witness"] is None
    code, stdout, _ = run_cli(capsys, "certify", str(tmp_path / "R.mat"), "--k", "1")
    payload = json.loads(stdout)
    jsonschema.validate(payload, load_schema("certify.schema.json"))
    assert code == 2 and payload["spark_ok"] is False and payload["certified"] is False


def test_solve_json_and_usage_errors(workdir, capsys):
    code, stdout, _ = run_cli(capsys, "solve", str(workdir / "A.mat"), str(workdir / "y.txt"),
                              "--kmax", "2")
    assert code == 0
    payload = json.loads(stdout)
    jsonschema.validate(payload, load_schema("solution.schema.json"))
    assert payload["k_star"] == 2 and len(payload["classes"]) == 1

    # wrong-length measurement file is a usage error
    (workdir / "bad.txt").write_text("1.0\n2.0\n")
    code_bad, _, err = run_cli(capsys, "solve", str(workdir / "A.mat"), str(workdir / "bad.txt"),
                               "--kmax", "2")
    assert code_bad == 1 and "length" in err

    code_inline, stdout_inline, _ = run_cli(
        capsys, "solve", str(workdir / "A.mat"), "--y", "0,0,0,0", "--kmax", "1"
    )
    assert code_inline == 0
    assert json.loads(stdout_inline)["k_star"] == 0


def test_collide_exit_code_and_schema(workdir, capsys):
    code, stdout, _ = run_cli(capsys, "collide", str(workdir / "A3.mat"), "--k", "2")
    assert code == 2  # collision found = mathematically determined negative
    payload = json.loads(stdout)
    jsonschema.validate(payload, load_schema("collision.schema.json"))
    assert payload["max_abs_mismatch"] <= 1e-10

    code_bad, _, err = run_cli(capsys, "collide", str(workdir / "A.mat"), "--k", "2")
    assert code_bad == 1 and "2k - 1" in err


def test_sweep_files_and_schema(workdir, capsys):
    cfg = {
        "field": "real",
        "n": 7,
        "k": 2,
        "m_range": [4, 4],
        "trials_per_m": 5,
        "base_seed": 2,
        "tol": 1e-8,
    }
    cfg_path = workdir / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outdir = workdir / "results"
    code, stdout, _ = run_cli(capsys, "sweep", str(cfg_path), "--outdir", str(outdir))
    assert code == 0
    summary = json.loads(stdout)
    assert len(summary["files"]) == 3
    json_file = [f for f in summary["files"] if f.endswith(".json")][0]
    payload = json.loads(open(json_file).read())
    jsonschema.validate(payload, load_schema("sweep.schema.json"))
    assert payload["rows"][0]["rate"] == 1.0


def test_stdout_deterministic_with_no_log(workdir, capsys):
    _, out1, _ = run_cli(capsys, "certify", str(workdir / "A.mat"), "--k", "2")
    _, out2, _ = run_cli(capsys, "certify", str(workdir / "A.mat"), "--k", "2")
    assert out1 == out2


def test_log_line_present_by_default(workdir, capsys):
    code = main(["dist", str(workdir / "A.mat")])
    out = capsys.readouterr().out
    assert code == 0
    first = out.splitlines()[0]
    assert first.startswith("# ") and "sparsepr dist" in first


def test_usage_errors(workdir, capsys):
    code, _, err = run_cli(capsys)
    assert code == 1 and "subcommand" in err
    code2, _, err2 = run_cli(capsys, "solve", str(workdir / "A.mat"), "--kmax", "2")
    assert code2 == 1 and "exactly one" in err2
    code3, _, _ = run_cli(capsys, "gen", "--field", "real", "--m", "0", "--n", "4",
                          "--seed", "1", "-o", str(workdir / "z.mat"))
    assert code3 == 1


def test_malformed_matrix_diagnostics(workdir, capsys):
    bad = workdir / "broken.mat"
    bad.write_text("real 2 2\n1.0 2.0\n3.0 nope\n")
    code, _, err = run_cli(capsys, "dist", str(bad))
    assert code == 1 and "broken.mat:3" in err


def test_sweep_from_flags(workdir, capsys):
    code, stdout, _ = run_cli(
        capsys, "sweep", "--field", "real", "--n", "7", "--k", "2",
        "--m-range", "4:4", "--trials", "3", "--seed", "5",
        "--outdir", str(workdir / "res"), "--formats", "csv",
    )
    assert code == 0
    summary = json.loads(stdout)
    assert summary["rows"][0]["m"] == 4 and len(summary["files"]) == 1

    code_bad, _, err = run_cli(capsys, "sweep", "--field", "real", "--n", "7")
    assert code_bad == 1 and "config file or all of" in err


def test_sweep_rejects_unknown_format_before_running(workdir, capsys):
    outdir = workdir / "empty"
    outdir.mkdir()
    code, stdout, err = run_cli(
        capsys, "sweep", "--field", "real", "--n", "7", "--k", "2",
        "--m-range", "4:4", "--trials", "3", "--seed", "5",
        "--outdir", str(outdir), "--formats", "csv,xml",
    )
    assert code == 1 and "unknown format 'xml'" in err and stdout == ""
    assert list(outdir.iterdir()) == []


@pytest.mark.parametrize("raw, key", [
    ({"field": "real", "n": 7, "k": 2, "trials_per_m": 3, "base_seed": 1}, "m_range"),
    ([1, 2, 3], None),
    ({"field": "real", "n": 7, "k": 2, "m_range": 4, "trials_per_m": 3, "base_seed": 1}, "m_range"),
    ({"field": "real", "n": 7, "k": 2, "m_range": [4], "trials_per_m": 3, "base_seed": 1}, "m_range"),
    ({"field": "real", "n": 7, "k": 2, "m_range": [4, "x"], "trials_per_m": 3, "base_seed": 1}, "m_range"),
    ({"field": 3, "n": 7, "k": 2, "m_range": [4, 4], "trials_per_m": 3, "base_seed": 1}, "field"),
    ({"field": "real", "n": 8.9, "k": 2, "m_range": [4, 4], "trials_per_m": 3, "base_seed": 1}, "n"),
    ({"field": "real", "n": "8", "k": 2, "m_range": [4, 4], "trials_per_m": 3, "base_seed": 1}, "n"),
    ({"field": "real", "n": 7, "k": 2, "m_range": [4, 4], "trials_per_m": True, "base_seed": 1}, "trials_per_m"),
    ({"field": "real", "n": 7, "k": 2, "m_range": [4, 4], "trials_per_m": 3, "base_seed": -5}, "base_seed"),
    ({"field": "real", "n": 7, "k": 2, "m_range": [4, 4.0], "trials_per_m": 3, "base_seed": 1}, "m_range"),
])
def test_sweep_malformed_config_is_a_usage_error(workdir, capsys, raw, key):
    cfg_path = workdir / "bad.json"
    cfg_path.write_text(json.dumps(raw))
    code, stdout, err = run_cli(capsys, "sweep", str(cfg_path), "--outdir", str(workdir / "res"))
    assert code == 1 and stdout == ""
    assert err.startswith(f"sparsepr: error: {cfg_path}: ")
    assert key is None or repr(key) in err


@pytest.mark.parametrize("tol", ["nan", "0", "-1e-8", "inf"])
def test_solve_and_sweep_reject_bad_tol(workdir, capsys, tol):
    code, stdout, err = run_cli(capsys, "solve", str(workdir / "A.mat"), str(workdir / "y.txt"),
                                "--kmax", "2", "--tol", tol)
    assert code == 1 and stdout == "" and "tol" in err
    code, stdout, err = run_cli(
        capsys, "sweep", "--field", "real", "--n", "7", "--k", "2", "--m-range", "4:4",
        "--trials", "3", "--seed", "5", "--tol", tol, "--outdir", str(workdir / "res"),
    )
    assert code == 1 and stdout == "" and "tol" in err
    cfg_path = workdir / "bad_tol.json"
    cfg_path.write_text(json.dumps({"field": "real", "n": 7, "k": 2, "m_range": [4, 4], "trials_per_m": 3,
                                    "base_seed": 1, "tol": float(tol)}))
    code, stdout, err = run_cli(capsys, "sweep", str(cfg_path), "--outdir", str(workdir / "res"))
    assert code == 1 and stdout == "" and err.startswith(f"sparsepr: error: {cfg_path}: ") and "tol" in err
    assert not (workdir / "res").exists()


def test_solve_rejects_negative_heuristic_seed(tmp_path, capsys):
    A = generate_ensemble(Field.COMPLEX, 3, 6, 5)  # m = 3 < k^2 = 4: k = 2 is heuristic
    write_matrix(A, tmp_path / "A.mat")
    y = measure(A, SparseVector(Field.COMPLEX, 6, (1, 3), [1.0 + 1j, -2.0 + 0.5j]))
    inline = ",".join(repr(float(v)) for v in y.magnitudes)
    args = ("solve", str(tmp_path / "A.mat"), "--y", inline, "--kmax", "2", "--allow-heuristic")
    code, _, err = run_cli(capsys, *args, "--seed", "-1")
    assert code == 1 and "seed must be a non-negative integer" in err
    code, stdout, _ = run_cli(capsys, *args, "--seed", "1")
    assert code == 0 and json.loads(stdout)["k_star"] == 2


def test_solve_rejects_negative_seed_on_the_lift(tmp_path, capsys):
    """A complex solve that ends on the lift never draws, but a negative
    --seed is still a usage error: exit 1, no stdout."""
    A = generate_ensemble(Field.COMPLEX, 6, 4, 1)
    write_matrix(A, tmp_path / "A.mat")
    y = measure(A, SparseVector(Field.COMPLEX, 4, (0, 2), [1.0 + 0.5j, -0.7j]))
    inline = ",".join(repr(float(v)) for v in y.magnitudes)
    args = ("solve", str(tmp_path / "A.mat"), "--y", inline, "--kmax", "2")
    code, stdout, err = run_cli(capsys, *args, "--seed", "-1")
    assert code == 1 and stdout == "" and "seed must be a non-negative integer" in err
    code, stdout, _ = run_cli(capsys, *args, "--seed", "0")
    assert code == 0 and json.loads(stdout)["k_star"] == 2


def test_solve_at_the_complex_threshold_needs_no_heuristic(tmp_path, capsys):
    """k = 4 at the paper's m = 4k - 2 = 14 takes the exact plane level:
    no --allow-heuristic, exit 0, "heuristic": false, one "lifted" class."""
    A = generate_ensemble(Field.COMPLEX, 14, 6, 3)
    write_matrix(A, tmp_path / "A.mat")
    y = measure(A, SparseVector(Field.COMPLEX, 6, (0, 2, 3, 5), [1.0 + 1j, -2.0 + 0.5j, 0.7, 1.5j]))
    inline = ",".join(repr(float(v)) for v in y.magnitudes)
    code, stdout, _ = run_cli(capsys, "solve", str(tmp_path / "A.mat"), "--y", inline, "--kmax", "4")
    out = json.loads(stdout)
    assert code == 0 and out["heuristic"] is False and out["k_star"] == 4
    assert out["methods"] == ["lifted"] and out["classes"][0]["support"] == [0, 2, 3, 5]
