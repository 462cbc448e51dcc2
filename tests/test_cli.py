"""Command-line interface: exit codes, artifacts, determinism."""

import csv
import json

import pytest

import fuzzysphere
from fuzzysphere import _sturm, cli
from fuzzysphere.circle import coordinate_matrix
from fuzzysphere.cli import _parse_lambda, main
from fuzzysphere.spectral import (TridiagSpec, eig_bisection,
                                  spectrum_invariance_under_phases)
from fuzzysphere.sphere import coordinate_blocks


def run(argv):
    return main(argv)


def test_build_verb(capsys):
    assert run(["build", "--d", "1", "--lambda", "2..3"]) == 0
    out = capsys.readouterr().out
    assert "lambda=2 dim=5" in out
    assert "lambda=3 dim=7" in out


def test_lambda_parsing():
    assert _parse_lambda("4") == (4, 4)
    assert _parse_lambda("2..5") == (2, 5)
    for bad in ("5..2", "a..b", "1..2..3"):
        with pytest.raises(Exception):
            _parse_lambda(bad)


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--lambda", "0..2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--lambda", "2", "--tol", "-1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["spectrum", "--lambda", "2"])       # missing --csv
    assert exc.value.code == 2
    for jobs in ("0", "-1"):
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--lambda", "2", "--jobs", jobs])
        assert exc.value.code == 2


class _RecordingPool:
    """In-process stand-in for ProcessPoolExecutor: records max_workers."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize("jobs,lams,cpus,size", [
    ("5000", "1..2", 64, 2),      # capped by the number of tasks
    ("8", "1..5", 3, 3),          # capped by the CPUs
    ("2", "1..5", 64, 2),         # as asked
    ("4", "1..5", None, None),    # an unknown CPU count runs serially
])
def test_pool_size_capped(jobs, lams, cpus, size, monkeypatch, capsys):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    assert run(["verify", "--lambda", lams, "--suite", "relations",
                "--jobs", jobs]) == 0
    assert _RecordingPool.sizes == ([] if size is None else [size])


@pytest.mark.parametrize("verb", ["build", "verify", "spectrum", "scs",
                                  "minimize", "plotdata"])
def test_negative_seed_exits_two(verb, tmp_path, capsys):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        run([verb, "--d", "1", "--lambda", "1..2", "--seed", "-1",
             "--csv", str(out)])
    assert exc.value.code == 2
    assert "--seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["build", "--lambda", "2", "--k", "nan"],
    ["verify", "--lambda", "2", "--suite", "relations", "--k", "nan"],
    ["verify", "--d", "2", "--lambda", "2", "--suite", "relations", "--k", "nan"],
    ["verify", "--lambda", "2", "--suite", "spectra", "--k", "nan"],
    ["verify", "--d", "2", "--lambda", "2", "--suite", "spectra", "--k", "nan"],
    ["verify", "--lambda", "2", "--tol", "nan"],
])
def test_nan_input_exits_two(argv, capsys):
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2


def test_infinite_sharpness_accepted(capsys):
    assert run(["build", "--d", "2", "--lambda", "2", "--k", "inf"]) == 0
    assert run(["verify", "--lambda", "2", "--k", "inf"]) == 0


def test_verify_passes_and_writes_json(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = run(["verify", "--d", "1", "--lambda", "1..3", "--suite", "relations",
                "--json", str(path)])
    assert code == 0
    data = json.loads(path.read_text())
    assert set(data) == {"config", "checks", "summary", "version", "timestamp"}
    assert data["summary"]["failed"] == 0
    assert data["config"]["d"] == 1 and data["config"]["lambda"] == [1, 3]
    for rec in data["checks"]:
        assert {"tag", "lambda", "value", "pass"} <= set(rec)
    assert "checks passed" in capsys.readouterr().out


def test_verify_failure_exit_code(tmp_path, capsys):
    # an absurdly tight tolerance forces a residual check to fail
    code = run(["verify", "--d", "2", "--lambda", "2", "--suite", "relations",
                "--tol", "1e-30"])
    assert code == 1
    assert "FAIL " in capsys.readouterr().out


def test_sphere_lie_suite_honours_tolerance(capsys):
    # the so(4) residuals are rounding-level, not zero, so 1e-30 must fail
    # on the sphere just as the su(2) suite does on the circle
    for d in ("1", "2"):
        assert run(["verify", "--d", d, "--lambda", "2", "--suite", "lie",
                    "--tol", "1e-30"]) == 1
    assert "FAIL so4rel/" in capsys.readouterr().out


def test_verify_all_suites_sphere(tmp_path, capsys):
    code = run(["verify", "--d", "2", "--lambda", "2..3", "--suite", "all",
                "--seed", "5"])
    assert code == 0


def test_reports_deterministic(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        assert run(["verify", "--d", "1", "--lambda", "1..4", "--suite", "scs",
                    "--seed", "7", "--json", str(p)]) == 0
    a = json.loads(paths[0].read_text())
    b = json.loads(paths[1].read_text())
    assert a["checks"] == b["checks"]


def test_reports_independent_of_jobs(tmp_path, capsys):
    paths = [tmp_path / "serial.json", tmp_path / "parallel.json"]
    for p, jobs in zip(paths, ("1", "3")):
        assert run(["verify", "--d", "1", "--lambda", "1..4",
                    "--suite", "minimize", "--seed", "3", "--jobs", jobs,
                    "--json", str(p)]) == 0
    a = json.loads(paths[0].read_text())
    b = json.loads(paths[1].read_text())
    assert a["checks"] == b["checks"]


def test_spectrum_csv_row_count(tmp_path, capsys):
    path = tmp_path / "spec.csv"
    assert run(["spectrum", "--d", "2", "--lambda", "5", "--csv", str(path)]) == 0
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    # sum over m of the block sizes: (lam+1)^2 = 36 eigenvalues
    assert len(rows) == 36
    assert {r["m"] for r in rows} == {str(m) for m in range(-5, 6)}
    assert all(float(r["eigenvalue"]) <= 1.5 for r in rows)


@pytest.mark.parametrize("d", [1, 2])
def test_spectrum_csv_matches_per_block_bisection(d, tmp_path, capsys):
    path = tmp_path / "spec.csv"
    assert run(["spectrum", "--d", str(d), "--lambda", "1..7", "--csv",
                str(path)]) == 0
    lines = ["lambda,m,h,eigenvalue"]
    for lam in range(1, 8):
        if d == 1:
            labelled = [("", coordinate_matrix(lam))]
        else:
            blocks = coordinate_blocks(lam)
            labelled = [(m, blocks[abs(m)]) for m in range(-lam, lam + 1)]
        for m, t in labelled:
            for h, v in enumerate(eig_bisection(t).values, start=1):
                lines.append(f"{lam},{m},{h},{v:.15g}")
    assert path.read_bytes() == ("\r\n".join(lines) + "\r\n").encode()


def test_circle_relations_at_lambda_100(tmp_path, capsys):
    path = tmp_path / "r.json"
    assert run(["verify", "--d", "1", "--lambda", "100", "--suite",
                "relations", "--json", str(path)]) == 0
    report = json.loads(path.read_text())
    assert report["version"] == fuzzysphere.__version__
    assert all(c["pass"] for c in report["checks"])


def test_spectrum_csv_circle(tmp_path, capsys):
    path = tmp_path / "spec1.csv"
    assert run(["spectrum", "--d", "1", "--lambda", "3..4", "--csv", str(path)]) == 0
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 7 + 9
    assert all(r["m"] == "" for r in rows)


def test_plotdata(tmp_path, capsys):
    path = tmp_path / "plot.csv"
    assert run(["plotdata", "--d", "1", "--lambda", "2..4", "--csv",
                str(path)]) == 0
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    series = {r["series"] for r in rows}
    assert {"dispersion", "dispersion-bound", "alpha1",
            "alpha1-bound", "interlacing"} <= series


def test_scs_and_minimize_verbs(capsys):
    assert run(["scs", "--d", "1", "--lambda", "2..3"]) == 0
    assert run(["minimize", "--d", "2", "--lambda", "2"]) == 0


def _phase_record(records):
    return next(r for r in records if r.tag == "p_nRecurrence/phase-invariance")


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("tol", [1e-10, 3e-15])
def test_spectra_phase_check_matches_per_matrix_verdicts(monkeypatch, d, tol):
    # the suite's 20 random tridiagonals, drawn again one by one and checked
    # by the single-matrix path; at tol 3e-15 some of them fail
    rng = cli._rng(5, d, 0, 3)
    single = []
    for _ in range(20):
        n = int(rng.integers(2, 16))
        a = rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1)
        single.append(spectrum_invariance_under_phases(TridiagSpec(a), rng, tol))

    batched, kernel_calls = [], []
    agrees, bisect_many = cli.agrees_with_dense, _sturm.bisect_many
    monkeypatch.setattr(cli, "agrees_with_dense",
                        lambda *args: batched.append(agrees(*args)) or batched[-1])
    monkeypatch.setattr(_sturm, "bisect_many",
                        lambda *args: kernel_calls.append(len(args[0]))
                        or bisect_many(*args))
    config = cli.ScanConfig(d=d, lam_lo=1, lam_hi=3, seed=5, tol=tol)
    record = _phase_record(cli._spectra_records(config))
    assert batched == single
    assert record.passed == all(single)
    # the diagonal report's call, then one for the 20 (+ Toeplitz) matrices
    assert kernel_calls[1:] == [21 if d == 1 else 20]


@pytest.mark.parametrize("d", [1, 2])
def test_spectra_phase_check_catches_wrong_bisection(monkeypatch, d):
    bisect_many = _sturm.bisect_many
    monkeypatch.setattr(_sturm, "bisect_many",
                        lambda *args: [v + 1e-6 for v in bisect_many(*args)])
    config = cli.ScanConfig(d=d, lam_lo=1, lam_hi=3, seed=5)
    assert not _phase_record(cli._spectra_records(config)).passed
