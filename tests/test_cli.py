"""Command-line interface: exit codes, artifacts, determinism."""

import csv
import json
import math
import multiprocessing
import os
import re
import shlex
import subprocess
import sys
import time
from concurrent.futures import Future
from pathlib import Path

import pytest

import fuzzysphere
from fuzzysphere import _sturm, cli
from fuzzysphere.circle import coordinate_matrix
from fuzzysphere.cli import _parse_lambda, main
from fuzzysphere.linop import Stream
from fuzzysphere.report import CheckRecord, Report
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
    with pytest.raises(SystemExit) as exc:
        run(["plotdata", "--lambda", "2"])       # missing --csv
    assert exc.value.code == 2
    for jobs in ("0", "-1"):
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--lambda", "2", "--jobs", jobs])
        assert exc.value.code == 2


class _RecordingPool:
    """In-process stand-in for ProcessPoolExecutor: appends to `events` a
    ("pool", max_workers) when created and a ("submit",) per job.  Its
    initializer runs at creation; with `eager` a job runs when submitted,
    else when its result is asked for."""

    events: list = []
    eager = False

    def __init__(self, max_workers, initializer, initargs):
        self.events.append(("pool", max_workers))
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn):
        self.events.append(("submit",))
        future = Future()
        if self.eager:
            future.set_result(fn())
        else:
            future.result = fn
        return future


def _record_pools(monkeypatch, cpus) -> list:
    """Swap in _RecordingPool and show the CLI `cpus` usable CPUs (None: no
    affinity mask and an unknown CPU count); returns the event list."""
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "events", [])
    monkeypatch.setattr(cli, "_queue", ())
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    if cpus is None:
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(cli.os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
    return _RecordingPool.events


@pytest.mark.parametrize("jobs,lams,cpus,size", [
    ("5000", "1..3", 64, 1),      # capped by the tasks after the first
    ("5000", "1..4", 64, 2),
    ("5000", "1..2", 64, None),   # one task left: the parent runs both
    ("8", "1..5", 3, 2),          # capped by the CPUs, the parent one of them
    ("2", "1..5", 64, 1),         # as asked, the parent one of them
    ("4", "1..5", None, None),    # an unknown CPU count runs serially
])
def test_pool_size_capped(jobs, lams, cpus, size, monkeypatch, capsys):
    events = _record_pools(monkeypatch, cpus)
    assert run(["verify", "--lambda", lams, "--suite", "relations",
                "--jobs", jobs]) == 0
    sizes = [e[1] for e in events if e[0] == "pool"]
    assert sizes == ([] if size is None else [size])
    assert events.count(("submit",)) == (size or 0)


@pytest.mark.skipif(not hasattr(cli.os, "sched_setaffinity"),
                    reason="no CPU affinity on this platform")
def test_pool_sized_by_cpu_affinity(monkeypatch, capsys):
    # one usable CPU means no pool, however many CPUs the machine has
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "events", [])
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    cpus = cli.os.sched_getaffinity(0)
    cli.os.sched_setaffinity(0, {min(cpus)})
    try:
        assert run(["verify", "--lambda", "1..5", "--suite", "relations",
                    "--jobs", "2"]) == 0
    finally:
        cli.os.sched_setaffinity(0, cpus)
    assert _RecordingPool.events == []


def test_parent_runs_first_truncation_then_shares_largest_first_queue(
        monkeypatch, tmp_path, capsys):
    events = _record_pools(monkeypatch, 64)
    task = cli._records_for_lambda
    monkeypatch.setattr(cli, "_records_for_lambda",
                        lambda args: events.append(("run", args[1]))
                        or task(args))
    path = tmp_path / "r.json"
    runs = [("run", 5), ("run", 4), ("run", 3), ("run", 2)]
    pool = [("pool", 2), ("submit",), ("submit",)]
    # lazy: the parent takes every task before the workers' jobs run;
    # eager: the first worker's job takes them all as it is submitted
    for eager, want in [(False, pool + runs),
                        (True, pool[:2] + runs + pool[2:])]:
        events.clear()
        monkeypatch.setattr(_RecordingPool, "eager", eager)
        assert run(["verify", "--lambda", "1..5", "--suite", "relations",
                    "--jobs", "3", "--json", str(path)]) == 0
        assert events == [("run", 1)] + want, eager
        lams = [r["lambda"] for r in json.loads(path.read_text())["checks"]]
        assert lams == sorted(lams) and set(lams) == {1, 2, 3, 4, 5}


def _fork_is_default() -> bool:
    method = multiprocessing.get_start_method(allow_none=True)
    return (method or multiprocessing.get_all_start_methods()[0]) == "fork"


@pytest.mark.skipif(not _fork_is_default(),
                    reason="the patched task reaches the workers by fork")
def test_raise_in_forked_worker_raises_promptly(monkeypatch, tmp_path, capsys):
    # a worker's raise empties the queue: the parent, which waits in each
    # task until a worker has started one, stops taking and re-raises
    parent, started = os.getpid(), tmp_path / "started"
    task = cli._records_for_lambda
    ran = []

    def flaky(args):
        if os.getpid() != parent:
            started.touch()
            raise RuntimeError(f"boom at {args[1]}")
        if args[1] > 1:
            deadline = time.monotonic() + 60
            while not started.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
        ran.append(args[1])
        return task(args)

    monkeypatch.setattr(cli, "_records_for_lambda", flaky)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    t0 = time.monotonic()
    with pytest.raises(RuntimeError, match="boom at"):
        run(["verify", "--lambda", "1..12", "--suite", "relations",
             "--jobs", "2"])
    assert time.monotonic() - t0 < 30
    assert started.exists() and len(ran) < 11
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(not _fork_is_default(),
                    reason="the patched task reaches the workers by fork")
def test_raise_in_parent_share_shuts_pool_down(monkeypatch, tmp_path,
                                               capsys):
    # the parent's raise empties the queue: each worker, slow on purpose,
    # finishes at most the one task it may have taken, then the pool closes
    parent = os.getpid()
    task = cli._records_for_lambda

    def flaky(args):
        if os.getpid() == parent and args[1] > 1:
            raise RuntimeError("parent boom")
        if os.getpid() != parent:
            (tmp_path / str(args[1])).touch()
            time.sleep(0.5)
        return task(args)

    monkeypatch.setattr(cli, "_records_for_lambda", flaky)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    with pytest.raises(RuntimeError, match="parent boom"):
        run(["verify", "--lambda", "1..6", "--suite", "relations",
             "--jobs", "3"])
    assert multiprocessing.active_children() == []
    assert len(list(tmp_path.iterdir())) <= 2


@pytest.mark.parametrize("verb", ["build", "verify", "spectrum", "scs",
                                  "minimize", "plotdata"])
def test_negative_seed_exits_two(verb, tmp_path, capsys):
    # build, spectrum and plotdata draw no random numbers, so take no --seed
    out = tmp_path / "out.csv"
    scan = verb in ("verify", "scs", "minimize")
    with pytest.raises(SystemExit) as exc:
        run([verb, "--d", "1", "--lambda", "1..2", "--seed", "-1",
             "--json" if scan else "--csv", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    if scan:
        assert "--seed must be >= 0" in err
    else:
        assert "unrecognized arguments: --seed -1" in err
    assert not out.exists()


@pytest.mark.parametrize("verb,flag", [
    *[("build", f) for f in ("--tol", "--seed", "--json", "--csv", "--jobs")],
    *[(verb, f) for verb in ("spectrum", "plotdata")
      for f in ("--tol", "--seed", "--json", "--jobs")],
    *[(verb, "--csv") for verb in ("verify", "scs", "minimize")],
    ("minimize", "--tol"),
])
def test_unread_flags_refused(verb, flag, tmp_path, capsys):
    # a flag the verb would not read is a usage error, not silently dropped
    values = {"--tol": "1e-10", "--seed": "0", "--jobs": "1",
              "--json": str(tmp_path / "flag.json"),
              "--csv": str(tmp_path / "flag.csv")}
    # each verb's own output flag, if it has one
    out = str(tmp_path / "out")
    own = {"build": [], "spectrum": ["--csv", out], "plotdata": ["--csv", out]}
    with pytest.raises(SystemExit) as exc:
        run([verb, "--lambda", "1..2", *own.get(verb, ["--json", out]),
             flag, values[flag]])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_readme_command_lines_parse():
    # every command in README's "Command line" code blocks is accepted
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    lines = [line.split("fuzzysphere ", 1)[1]
             for block in re.findall(r"```sh\n(.*?)```", section, re.S)
             for line in block.splitlines() if "fuzzysphere " in line]
    assert len(lines) >= 6
    parser = cli._make_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line))
        except SystemExit:
            pytest.fail(f"README command does not parse: fuzzysphere {line}")


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
    if "--k" in argv:
        # nan is not below the admissible minimum: it is no number at all
        err = capsys.readouterr().err
        assert "k=nan is not a number" in err and "minimum" not in err


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
    # a config records the tolerance its run was given, and minimize has none
    for argv, tol in [(["verify", "--suite", "relations"], 1e-10),
                      (["minimize"], None),
                      (["verify", "--suite", "minimize", "--tol", "1e-30"], 1e-30)]:
        assert run(argv + ["--lambda", "2", "--json", str(path)]) == 0
        assert json.loads(path.read_text())["config"]["tol"] == tol


def _strict_json(text):
    """json.loads that rejects the non-JSON tokens NaN, Infinity and
    -Infinity."""
    def reject(token):
        raise ValueError(f"non-JSON token {token}")
    return json.loads(text, parse_constant=reject)


def test_report_json_is_strict(tmp_path, capsys):
    # an infinite k in the config of a passing run, and a NaN in a failing
    # record, are written as strings that float() reads back
    path = tmp_path / "report.json"
    assert run(["verify", "--d", "1", "--lambda", "1..2", "--k", "inf",
                "--json", str(path)]) == 0
    data = _strict_json(path.read_text())
    assert data["config"]["k"] == "inf" and float(data["config"]["k"]) == math.inf
    report = Report(config={"k": -math.inf})
    report.add(CheckRecord(tag="x", lam=1, value=math.nan, bound=math.inf,
                           residual=math.nan, passed=False))
    data = _strict_json(report.to_json())
    assert data["config"]["k"] == "-inf"
    rec = data["checks"][0]
    assert (rec["value"], rec["bound"], rec["residual"]) == ("nan", "inf", "nan")
    assert math.isnan(float(rec["value"])) and float(rec["bound"]) == math.inf
    # a non-finite float that to_dict does not reach raises, not writes NaN
    report.config = {"k": [math.nan]}
    with pytest.raises(ValueError):
        report.to_json()


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


@pytest.mark.parametrize("d", [1, 2])
def test_tag_set_matches_benchmark_reference(d, tmp_path, capsys):
    # no change may add, drop or rename a check: the (tag, lambda, m) keys
    # of a full report equal those the benchmark's correctness gate expects
    path = tmp_path / "report.json"
    assert run(["verify", "--d", str(d), "--lambda", "1..3", "--suite", "all",
                "--seed", "0", "--json", str(path)]) == 0
    ref = Path(__file__).resolve().parents[1] / "perfbench" / "reference"
    want = json.loads((ref / f"d{d}-lambda1-3.json").read_text())["keys"]
    got = {(r["tag"], r["lambda"], r.get("m"))
           for r in json.loads(path.read_text())["checks"]}
    assert got == {tuple(k) for k in want}
    assert len(got) == {1: 86, 2: 117}[d]


def test_reports_deterministic(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        assert run(["verify", "--d", "1", "--lambda", "1..4", "--suite", "scs",
                    "--seed", "7", "--json", str(p)]) == 0
    a = json.loads(paths[0].read_text())
    b = json.loads(paths[1].read_text())
    assert a["checks"] == b["checks"]


def test_reports_independent_of_jobs(tmp_path, capsys):
    # 1..3 is the smallest range that forks a worker given two CPUs; with
    # one or two truncations the parent runs them all
    for d, suite, lams in [("1", "minimize", "1..4"), ("1", "all", "1..6"),
                           ("2", "all", "1..4"), ("2", "all", "1..3"),
                           ("2", "all", "3"), ("2", "all", "1..2")]:
        checks = []
        for jobs in ("1", "2", "3"):
            path = tmp_path / f"d{d}-{lams}-jobs{jobs}.json"
            assert run(["verify", "--d", d, "--lambda", lams, "--suite", suite,
                        "--seed", "3", "--jobs", jobs,
                        "--json", str(path)]) == 0
            checks.append(json.loads(path.read_text())["checks"])
        assert checks[0] == checks[1] == checks[2], (d, suite, lams)


def test_cli_import_leaves_pool_modules_unloaded():
    # a fresh interpreter: this one has imported multiprocessing already
    probe = (
        "import sys\n"
        "import fuzzysphere.cli as cli\n"
        "mods = ('multiprocessing', 'concurrent.futures', 'csv',"
        " 'fuzzysphere.shift')\n"
        "print([m for m in mods if m in sys.modules])\n"
        "import concurrent.futures\n"
        "print(cli.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor)\n"
        "print(hasattr(cli, 'no_such_name'))\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(fuzzysphere.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split("\n") == ["[]", "True", "False", ""]


@pytest.mark.parametrize("d", ["1", "2"])
def test_verify_leaves_numpy_random_unloaded(d):
    # a fresh interpreter: the seeded checks draw from linop.Stream, and
    # this one has imported numpy.random already
    probe = (
        "import sys\n"
        "import fuzzysphere.cli as cli\n"
        f"code = cli.main(['verify', '--d', '{d}', '--lambda', '1..3',"
        " '--suite', 'all', '--seed', '7'])\n"
        "print(code, 'numpy.random' in sys.modules)\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(fuzzysphere.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "0 False"


def test_report_json_is_one_sorted_line():
    report = Report(config={"lam_hi": 3, "d": 2, "tol": None})
    report.add_residual("relD3/x2", 1e-16, 1e-10, lam=3, m=-1)
    report.add_verdict("nilp/x+", False, lam=2)
    report.add(CheckRecord(tag="alpha1", lam=1, value=0.5))
    stamp = "2026-01-01T00:00:00+00:00"
    text = report.to_json(stamp)
    assert "\n" not in text
    assert json.loads(text) == report.to_dict(stamp)

    def keys_sorted(pairs):
        keys = [k for k, _ in pairs]
        assert keys == sorted(keys)
        return dict(pairs)

    json.loads(text, object_pairs_hook=keys_sorted)


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


def test_plotdata_sphere_minima_are_the_minimize_suites(tmp_path, capsys):
    # each dispersion row is the Deltax2qminS^2_L value of the minimize
    # suite, to the CSV's 15 digits, and the sphere has no alpha1 bound at
    # lambda 1
    path, report = tmp_path / "plot.csv", tmp_path / "r.json"
    assert run(["plotdata", "--d", "2", "--lambda", "1..4", "--csv",
                str(path)]) == 0
    assert run(["verify", "--d", "2", "--lambda", "1..4", "--suite",
                "minimize", "--json", str(report)]) == 0
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    got = {int(r["lambda"]): r["y"] for r in rows if r["series"] == "dispersion"}
    want = {c["lambda"]: f"{c['value']:.15g}"
            for c in json.loads(report.read_text())["checks"]
            if c["tag"] == "Deltax2qminS^2_L"}
    assert got == want and sorted(got) == [1, 2, 3, 4]
    bounds = {r["lambda"] for r in rows if r["series"] == "alpha1-bound"}
    assert bounds == {"2", "3", "4"}


def test_scs_and_minimize_verbs(capsys):
    assert run(["scs", "--d", "1", "--lambda", "2..3"]) == 0
    assert run(["minimize", "--d", "2", "--lambda", "2"]) == 0


def _phase_record(records):
    return next(r for r in records if r.tag == "p_nRecurrence/phase-invariance")


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("tol", [1e-10, 3e-15])
def test_spectra_phase_check_matches_per_matrix_verdicts(monkeypatch, d, tol):
    # the suite's 20 random tridiagonals, drawn again one by one and checked
    # by the single-matrix path; at tol 3e-15 some of them fail, so both
    # branches of the record are compared
    rng = Stream(5, d, 0, 3)
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
    if tol == 3e-15:
        assert 0 < sum(single) < len(single)
    else:
        assert all(single)
    # the diagonal report's call, then one for the 20 (+ Toeplitz) matrices
    assert kernel_calls[1:] == [21 if d == 1 else 20]


@pytest.mark.parametrize("d", [1, 2])
def test_spectra_phase_check_catches_wrong_bisection(monkeypatch, d):
    bisect_many = _sturm.bisect_many
    monkeypatch.setattr(_sturm, "bisect_many",
                        lambda *args: [v + 1e-6 for v in bisect_many(*args)])
    config = cli.ScanConfig(d=d, lam_lo=1, lam_hi=3, seed=5)
    assert not _phase_record(cli._spectra_records(config)).passed


def test_circle_hur_random_fails_on_any_nan_record(monkeypatch):
    # the record keeps the worst of the three HURS^1 slacks; a NaN in the
    # second alone must fail it, not drop out of the minimum
    from fuzzysphere.circle import build_circle

    def fake(c, states):
        rep = Report()
        for tag, value in (("Lx1", 0.5), ("Lx2", float("nan")), ("product", 0.2)):
            rep.add(CheckRecord(tag=f"HURS^1/{tag}", lam=c.lam, value=value))
        return rep
    monkeypatch.setattr(cli, "check_heisenberg_circle", fake)
    records = cli._scs_records_circle(build_circle(3), 1e-10, Stream(7, 1, 3, 1))
    rec = next(r for r in records if r.tag == "HURS^1/random")
    assert not rec.passed and math.isnan(rec.value)


@pytest.mark.parametrize("slack, passed", [(-1e-12, True), (-1.5e-12, False)])
def test_circle_hur_random_records_its_deciding_bound(monkeypatch, slack, passed):
    # the record passes exactly when its value is at least its bound
    from fuzzysphere.circle import build_circle

    def fake(c, states):
        rep = Report()
        rep.add(CheckRecord(tag="HURS^1/product", lam=c.lam, value=slack))
        return rep
    monkeypatch.setattr(cli, "check_heisenberg_circle", fake)
    records = cli._scs_records_circle(build_circle(3), 1e-10, Stream(7, 1, 3, 1))
    rec = next(r for r in records if r.tag == "HURS^1/random")
    assert rec.bound == -1e-12 and rec.passed is passed


def test_sphere_lur_random_records_its_deciding_bound():
    from fuzzysphere.sphere import build_sphere

    records = cli._scs_records_sphere(build_sphere(3), 1e-10, Stream(7, 2, 3, 1))
    rec = next(r for r in records if r.tag == "LUR3''/random")
    assert rec.bound == -1e-10 and rec.passed and rec.value >= rec.bound


def test_circle_l_var_bound_scales_with_the_value(monkeypatch):
    # (Delta L)^2 of a strong state is lam (lam + 1) / 3, 4760 at lam 119,
    # where an absolute 1e-12 is two units in its last place
    import numpy as np
    from fuzzysphere.circle import build_circle

    def l_var(c):
        records = cli._scs_records_circle(c, 1e-10, Stream(7, 1, c.lam, 1))
        return next(r for r in records if r.tag == "IdResolS^1_L/L-var")

    c = build_circle(119)
    rec = l_var(c)
    assert rec.bound == 1e-12 * (1.0 + 119 * 120 / 3.0) and rec.passed
    # a basis state has (Delta L)^2 = 0, so it fails the record
    monkeypatch.setattr(cli, "strong_scs_circle",
                        lambda c, beta, alpha: np.eye(c.dim)[:, 0].astype(complex))
    assert not l_var(c).passed


def test_sphere_states_rotated_and_measured_as_blocks(monkeypatch):
    # per truncation, the scs suite rotates the spin states and the two
    # phi states as one block each and measures them in one moments pass,
    # the 100 random states in one pass of their angular moments alone; the
    # minimize suite rotates its orbit once and takes moments only for the
    # certificate and the orbit
    from fuzzysphere import coherent
    from fuzzysphere.sphere import FuzzySphere
    counts = {}
    rotate, moments = coherent.rotate, FuzzySphere.moments
    angular = FuzzySphere.angular_moments

    def counted(name, f):
        def call(*args):
            counts[name] += 1
            return f(*args)
        return call

    monkeypatch.setattr(coherent, "rotate", counted("rotate", rotate))
    monkeypatch.setattr(FuzzySphere, "moments", counted("moments", moments))
    monkeypatch.setattr(FuzzySphere, "angular_moments", counted("angular", angular))
    for lam in (1, 4, 9):
        for suite, most in (("scs", (2, 1, 1)), ("minimize", (1, 2, 0))):
            counts.update(rotate=0, moments=0, angular=0)
            records = cli._records_for_lambda((2, lam, None, 1e-10, 7, [suite]))
            assert all(r.passed for r in records), (lam, suite)
            assert counts["rotate"] <= most[0], (lam, suite, counts)
            assert counts["moments"] <= most[1], (lam, suite, counts)
            assert counts["angular"] <= most[2], (lam, suite, counts)
