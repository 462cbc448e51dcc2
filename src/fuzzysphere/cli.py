"""Command-line front end.

Verbs: build, verify, spectrum, scs, minimize, plotdata, each taking only
the flags it reads.  `build` prints each truncation's dimension and writes
no file.  `verify`, `scs` and `minimize` assemble per-truncation check
records into a report and write it as JSON to `--json`, if given.
`spectrum` writes the spectra CSV, one row per eigenvalue, and `plotdata`
the plot-ready CSV, each to its required `--csv`.  All randomized checks
draw from the package's SplitMix64 stream (`linop.Stream`) keyed by
(--seed, d, lam, salt), so reports are reproducible, independent of the
degree of parallelism and of numpy's random-number algorithms.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .circle import build_circle, coordinate_matrix, verify_circle_relations
from .coherent import (check_heisenberg_circle, dispersion,
                       minimize_dispersion, minimizer_certificate,
                       random_omega_weights, spin_cs, strong_scs_circle,
                       strong_scs_sphere_phi, verify_identity_resolution_circle,
                       verify_identity_resolution_sphere, verify_weak_orbit)
from .lierep import (EulerAngles, verify_so4_reconstruction,
                     verify_su2_reconstruction)
from .linop import Stream, random_states
from .report import CheckRecord, Report
from .spectral import (TridiagSpec, agrees_with_dense, alpha1_bound,
                       bisection_tol, circle_diag_report, eig_bisection_many,
                       random_rephasing, sphere_diag_report, toeplitz_spectrum)
from .sphere import build_sphere, coordinate_blocks, verify_sphere_relations

SUITES = ("relations", "spectra", "lie", "scs", "minimize")
TWO_PI = 2.0 * np.pi


@dataclass
class ScanConfig:
    d: int
    lam_lo: int
    lam_hi: int
    k: float | None = None
    tol: float | None = 1e-10  # None for minimize, which reads none
    seed: int = 0
    suites: list = field(default_factory=lambda: list(SUITES))
    json_path: str | None = None
    jobs: int = 1

    def to_dict(self) -> dict:
        return {"d": self.d, "lambda": [self.lam_lo, self.lam_hi],
                "k": self.k, "tol": self.tol, "seed": self.seed,
                "suites": list(self.suites), "jobs": self.jobs}


def _build_space(d: int, lam: int, k):
    return build_circle(lam, k) if d == 1 else build_sphere(lam, k)


def _random_euler(rng) -> EulerAngles:
    return EulerAngles(rng.uniform(0, TWO_PI), rng.uniform(0, np.pi),
                       rng.uniform(0, TWO_PI))


def _scs_records_circle(c, tol, rng):
    beta = rng.uniform(0.0, TWO_PI, c.dim)
    rep = verify_identity_resolution_circle(c, beta, tol=tol)
    w = strong_scs_circle(c, beta, float(rng.uniform(0.0, TWO_PI)))
    d_ = dispersion(c, w)
    rep.add_residual("IdResolS^1_L/L-mean", abs(float(d_.L_mean[0])), 1e-12,
                     lam=c.lam)
    # (Delta L)^2 is near lam (lam + 1) / 3, so its bound scales with it
    var = c.lam * (c.lam + 1) / 3.0
    rep.add_residual("IdResolS^1_L/L-var", abs(d_.L_var - var),
                     1e-12 * (1.0 + var), lam=c.lam)
    phi = strong_scs_circle(c, np.zeros(c.dim), float(rng.uniform(0.0, TWO_PI)))
    bound = (0.5 + 1.0 / (3.0 * c.lam)) / (c.lam + 1)
    val = dispersion(c, phi).x_var
    rep.add(CheckRecord(tag="utileb", lam=c.lam, value=float(val),
                        bound=float(bound), passed=bool(val < bound)))
    hur = check_heisenberg_circle(c, random_states(rng, c.dim, 100))
    # np.min keeps a NaN, which fails the record
    worst = float(np.min([x.value for x in hur.checks]))
    rep.add(CheckRecord(tag="HURS^1/random", lam=c.lam, value=worst,
                        bound=-1e-12, passed=worst >= -1e-12))
    return rep.checks


def _scs_records_sphere(s, tol, rng):
    lam = s.lam
    rep = Report()
    # the draws keep their order: omega's seed, then phi's beta, both before
    # the one call that sums the three families in one pass; spins and phi
    # states are rotated as two blocks and measured in one pass, the random
    # states in their own, which reads only their angular moments
    omega = random_omega_weights(s, rng)
    beta = rng.uniform(0.0, TWO_PI, lam + 1)
    rep.extend(verify_identity_resolution_sphere(
        s, ("spin", "omega", "phi"), omega=omega, beta=beta, tol=max(tol, 1e-8)))
    levels = np.arange(lam + 1)
    spins = spin_cs(s, levels, [_random_euler(rng) for _ in levels])
    L_mean, l2_mean = s.angular_moments(random_states(rng, s.dim, 100))
    lmean = np.linalg.norm(L_mean, axis=0)
    worst = float(np.min(l2_mean - lmean * (lmean + 1.0)))
    g = _random_euler(rng)     # pb, with a random beta, and p0 share it
    phis = strong_scs_sphere_phi(
        s, [rng.uniform(0.0, TWO_PI, lam + 1), np.zeros(lam + 1)], g)
    d_ = dispersion(s, np.column_stack([spins, phis]))

    sat = np.abs(d_.L_var - np.linalg.norm(d_.L_mean, axis=0))[:lam + 1]
    rep.add_residual("LUR3''/spin-saturation", float(np.max(sat)), 1e-9, lam=lam)
    rep.add(CheckRecord(tag="LUR3''/random", lam=lam, value=worst,
                        bound=-1e-10, passed=bool(worst >= -1e-10)))
    rep.add_residual("LXURphi/L-var", abs(d_.L_var[-2] - lam * (lam + 2) / 2.0),
                     1e-10, lam=lam)
    val = d_.x_var[-1]
    rep.add(CheckRecord(tag="LXURphi/x-bound", lam=lam, value=float(val),
                        bound=1.0 / (lam + 1), passed=bool(val < 1.0 / (lam + 1))))
    return rep.checks


def _dispersion_bound(d: int, lam: int) -> float:
    """The bound on the dispersion minimum, for the circle (d=1) or sphere."""
    return (3.5 if d == 1 else 11.0) / (lam + 1) ** 2


def _minimize_records(space, d, rng):
    lam = space.lam
    chi, val = minimize_dispersion(space)
    tag = f"Deltax2qminS^{d}_L"
    bound = _dispersion_bound(d, lam)
    rep = Report()
    rep.add(CheckRecord(tag=tag, lam=lam, value=float(val), bound=float(bound),
                        passed=bool(0.0 < val < bound)))
    rep.add_residual(f"{tag}/stationarity", minimizer_certificate(space, chi),
                     1e-10, lam=lam)
    if d == 1:
        grid = rng.uniform(0.0, TWO_PI, 6)
    else:
        rep.add_residual(f"{tag}/L3",
                         float(np.linalg.norm(space.m_of * chi)),
                         1e-10, lam=lam)
        grid = [_random_euler(rng) for _ in range(6)]
    rep.extend(verify_weak_orbit(space, chi, grid))
    return rep.checks


def _records_for_lambda(args) -> list:
    d, lam, k, tol, seed, suites = args
    checks = []
    space = _build_space(d, lam, k)
    if "relations" in suites:
        verify = verify_circle_relations if d == 1 else verify_sphere_relations
        checks += verify(space, tol).checks
    if "lie" in suites:
        verify = verify_su2_reconstruction if d == 1 else verify_so4_reconstruction
        checks += verify(space, tol).checks
    if "scs" in suites:
        scs = _scs_records_circle if d == 1 else _scs_records_sphere
        checks += scs(space, tol, Stream(seed, d, lam, 1))
    if "minimize" in suites:
        checks += _minimize_records(space, d, Stream(seed, d, lam, 2))
    return checks


def _spectra_records(config: ScanConfig) -> list:
    lo, hi = config.lam_lo, config.lam_hi
    diag_report = circle_diag_report if config.d == 1 else sphere_diag_report
    rep = diag_report(lo, hi, config.k, config.tol)
    # 20 random tridiagonals for the phase-invariance proposition, each
    # drawn as n, a, then its phases; they (and the circle's Toeplitz
    # matrix) are bisected in one kernel call
    rng = Stream(config.seed, config.d, 0, 3)
    cases = []
    for _ in range(20):
        n = int(rng.integers(2, 16))
        t = TridiagSpec(rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1))
        cases.append((t, random_rephasing(t, rng)))
    toeplitz = [coordinate_matrix(hi, np.inf)] if config.d == 1 else []
    spectra = eig_bisection_many([t for t, _ in cases] + toeplitz,
                                 bisection_tol(config.tol))
    if toeplitz:
        resid = np.abs(spectra[-1].values - toeplitz_spectrum(2 * hi + 1)).max()
        rep.add_residual("valuecos", float(resid), config.tol, lam=hi)
    verdicts = [agrees_with_dense(sp.values, case, config.tol)
                for sp, case in zip(spectra, cases)]
    rep.add_verdict("p_nRecurrence/phase-invariance", all(verdicts), hi)
    return rep.checks


def __getattr__(name):
    """Import the pool class on first use, so that serial runs never load
    multiprocessing or concurrent.futures.  It is then a plain module
    attribute, which callers may replace."""
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        globals()[name] = ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# In a pool worker, the (counter, tasks) queue of the run_scan it serves; set
# by the pool initializer, so that it reaches workers under any start method.
_queue: tuple = ()


def _join_queue(counter, tasks) -> None:
    global _queue
    _queue = (counter, tasks)


def _take_tasks(counter, tasks) -> dict:
    """Run the next task nobody has taken, until none is left; returns the
    records by lambda.  `counter` is the shared index of the next task.  A
    raise empties the queue first, so the other processes stop taking."""
    done = {}
    while True:
        with counter.get_lock():
            i = counter.value
            counter.value = i + 1
        if i >= len(tasks):
            return done
        try:
            done[tasks[i][1]] = _records_for_lambda(tasks[i])
        except BaseException:
            with counter.get_lock():
                counter.value = len(tasks)
            raise


def _worker_share() -> dict:
    """A pool worker's one job: its share of the queue it joined."""
    return _take_tasks(*_queue)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on: its affinity mask where
    the platform has one, else the machine's count (1 if unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_scan(config: ScanConfig) -> tuple[int, Report]:
    """Run the selected suites and write the JSON report; returns the exit
    status and the assembled report."""
    report = Report(config=config.to_dict())
    per_lam = [s for s in config.suites if s != "spectra"]
    if per_lam:
        tasks = [(config.d, lam, config.k, config.tol, config.seed, per_lam)
                 for lam in range(config.lam_lo, config.lam_hi + 1)]
        # --jobs N means N working processes, this one included.  This one
        # runs the first (smallest) truncation alone, so the workers it then
        # forks inherit its lazy imports and first-call set-up.  After that
        # every process, this one too, takes the largest truncation nobody
        # has taken yet from one shared queue, and the records go back in
        # lambda order.  There are never more processes than the truncations
        # after the first or the CPUs this process may run on.  Forked
        # workers keep the parent's BLAS threads: set OPENBLAS_NUM_THREADS=1
        # when using --jobs.
        procs = min(config.jobs, len(tasks) - 1, _usable_cpus())
        if procs > 1:
            import multiprocessing
            report.checks.extend(_records_for_lambda(tasks[0]))
            queue = (multiprocessing.Value("i", 0), tasks[:0:-1])
            # a bare name would not reach the module's __getattr__
            pool_class = getattr(sys.modules[__name__], "ProcessPoolExecutor")
            with pool_class(max_workers=procs - 1, initializer=_join_queue,
                            initargs=queue) as pool:
                shares = [pool.submit(_worker_share) for _ in range(procs - 1)]
                done = _take_tasks(*queue)
                for share in shares:
                    done.update(share.result())
            for lam in sorted(done):
                report.checks.extend(done[lam])
        else:
            for t in tasks:
                report.checks.extend(_records_for_lambda(t))
    if "spectra" in config.suites:
        report.checks.extend(_spectra_records(config))

    if config.json_path:
        stamp = datetime.now(timezone.utc).isoformat()
        with open(config.json_path, "w") as fh:
            fh.write(report.to_json(timestamp=stamp))
    summary = report.summary
    print(f"checks passed: {summary['passed']}, failed: {summary['failed']}")
    if not report.passed:
        print(f"FAIL {report.first_failure().tag}")
        return 1, report
    return 0, report


def write_spectra_csv(d: int, lams, k, path: str) -> int:
    """One row per eigenvalue: lambda,m,h,eigenvalue (m empty for d=1).
    The whole range is bisected in one batched call; the sphere's -m rows
    repeat the m block's spectrum."""
    if d == 1:
        mats = {(lam, 0): coordinate_matrix(lam, k) for lam in lams}
        order = [(lam, "", 0) for lam in lams]
    else:
        mats = {(lam, m): blk for lam in lams
                for m, blk in coordinate_blocks(lam, k).items()}
        order = [(lam, m, abs(m)) for lam in lams for m in range(-lam, lam + 1)]
    spectra = dict(zip(mats, eig_bisection_many(list(mats.values()))))
    return _write_csv(path, ("lambda", "m", "h", "eigenvalue"),
                      [(lam, m, h, v) for lam, m, block in order
                       for h, v in enumerate(spectra[lam, block].values, start=1)])


def emit_plot_data(d: int, lams, k, path: str) -> int:
    """Long-format plot-ready CSV: dispersion minima with their bound,
    top eigenvalues with the theorem bound, and the interlacing ladder."""
    minima, mats = [], []
    for lam in lams:
        space = _build_space(d, lam, k)
        minima.append(minimize_dispersion(space)[1])
        mats.append(coordinate_matrix(lam, k) if d == 1 else space.x3_blocks()[0])
    rows = []
    for lam, val, spec in zip(lams, minima, eig_bisection_many(mats)):
        rows.append(("dispersion", lam, lam, val))
        rows.append(("dispersion-bound", lam, lam, _dispersion_bound(d, lam)))
        rows.append(("alpha1", lam, lam, spec.values[0]))
        bound = alpha1_bound(d, lam)
        if bound is not None:
            rows.append(("alpha1-bound", lam, lam, bound))
        for v in spec.values:
            rows.append(("interlacing", lam, lam, v))
    return _write_csv(path, ("series", "lambda", "x", "y"), rows)


def _write_csv(path: str, header, rows) -> int:
    """The header, then each row with its last field, a float, written to
    15 significant digits; returns the number of rows."""
    import csv
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(header)
        for *head, y in rows:
            out.writerow([*head, f"{y:.15g}"])
    return len(rows)


def _parse_lambda(text: str):
    parts = text.split("..")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or A..B range, got {text!r}")
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo, hi


def _make_parser():
    parser = argparse.ArgumentParser(
        prog="fuzzysphere",
        description="Fuzzy circle and sphere laboratory: construction, "
                    "verification, spectra and coherent states.")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("build", "verify", "spectrum", "scs", "minimize", "plotdata"):
        p = sub.add_parser(verb)
        p.add_argument("--d", type=int, choices=(1, 2), default=1,
                       help="1 = fuzzy circle, 2 = fuzzy sphere")
        p.add_argument("--lambda", dest="lam", type=_parse_lambda,
                       required=True, metavar="A..B",
                       help="truncation or truncation range")
        p.add_argument("--k", type=float, default=None,
                       help="sharpness override (default: minimal admissible)")
        if verb in ("spectrum", "plotdata"):
            p.add_argument("--csv", dest="csv_path", required=True)
        if verb in ("verify", "scs"):
            p.add_argument("--tol", type=float, default=ScanConfig.tol)
        if verb in ("verify", "scs", "minimize"):
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--json", dest="json_path", default=None)
            p.add_argument("--jobs", type=int, default=1)
        if verb == "verify":
            p.add_argument("--suite", default="all", choices=SUITES + ("all",))
    return parser


def main(argv=None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    lo, hi = args.lam
    if lo < 1:
        parser.error(f"lambda must be >= 1, got {lo}")
    if "tol" in args and not 0 < args.tol < np.inf:
        parser.error(f"tolerance must be positive and finite, got {args.tol}")
    if "jobs" in args and args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if "seed" in args and args.seed < 0:
        parser.error(f"--seed must be >= 0, got {args.seed}")

    lams = range(lo, hi + 1)
    try:
        if args.verb == "build":
            for lam in lams:
                space = _build_space(args.d, lam, args.k)
                name = "circle" if args.d == 1 else "sphere"
                print(f"fuzzy {name}: lambda={lam} dim={space.dim} k={space.k:g}")
            return 0
        if args.verb == "spectrum":
            n = write_spectra_csv(args.d, lams, args.k, args.csv_path)
            print(f"wrote {n} eigenvalue rows to {args.csv_path}")
            return 0
        if args.verb == "plotdata":
            n = emit_plot_data(args.d, lams, args.k, args.csv_path)
            print(f"wrote {n} rows to {args.csv_path}")
            return 0
        # scs and minimize run the one suite they are named after
        suite = getattr(args, "suite", args.verb)
        suites = list(SUITES) if suite == "all" else [suite]
        config = ScanConfig(d=args.d, lam_lo=lo, lam_hi=hi, k=args.k,
                            tol=getattr(args, "tol", None),
                            seed=args.seed, suites=suites,
                            json_path=args.json_path, jobs=args.jobs)
        return run_scan(config)[0]
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
