"""Command-line front end.

Verbs: build, verify, spectrum, scs, minimize, plotdata.  Verification
assembles per-truncation check records into a JSON report; spectra go to CSV
with one row per eigenvalue.  All randomized checks draw from a generator
seeded by (--seed, d, lam), so reports are reproducible and independent of
the degree of parallelism.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
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
from .linop import random_states
from .report import CheckRecord, Report
from .spectral import (TridiagSpec, agrees_with_dense, alpha1_bound,
                       circle_diag_report, eig_bisection_many,
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
    tol: float = 1e-10
    seed: int = 0
    suites: list = field(default_factory=lambda: list(SUITES))
    json_path: str | None = None
    csv_path: str | None = None
    jobs: int = 1

    def to_dict(self) -> dict:
        return {"d": self.d, "lambda": [self.lam_lo, self.lam_hi],
                "k": self.k, "tol": self.tol, "seed": self.seed,
                "suites": list(self.suites), "jobs": self.jobs}


def _build_space(d: int, lam: int, k):
    return build_circle(lam, k) if d == 1 else build_sphere(lam, k)


def _rng(seed: int, d: int, lam: int, salt: int = 0):
    return np.random.default_rng([seed, d, lam, salt])


def _random_euler(rng) -> EulerAngles:
    return EulerAngles(rng.uniform(0, TWO_PI), rng.uniform(0, np.pi),
                       rng.uniform(0, TWO_PI))


def _scs_records_circle(c, tol, rng):
    checks = []
    beta = rng.uniform(0.0, TWO_PI, c.dim)
    checks += verify_identity_resolution_circle(c, beta, tol=tol).checks
    w = strong_scs_circle(c, beta, float(rng.uniform(0.0, TWO_PI)))
    d_ = dispersion(c, w)
    rep = Report()
    rep.add_residual("IdResolS^1_L/L-mean", abs(float(d_.L_mean[0])), 1e-12,
                     lam=c.lam)
    rep.add_residual("IdResolS^1_L/L-var",
                     abs(d_.L_var - c.lam * (c.lam + 1) / 3.0), 1e-12, lam=c.lam)
    phi = strong_scs_circle(c, np.zeros(c.dim), float(rng.uniform(0.0, TWO_PI)))
    bound = (0.5 + 1.0 / (3.0 * c.lam)) / (c.lam + 1)
    val = dispersion(c, phi).x_var
    rep.add(CheckRecord(tag="utileb", lam=c.lam, value=float(val),
                        bound=float(bound), passed=bool(val < bound)))
    hur = check_heisenberg_circle(c, random_states(rng, c.dim, 100), tol=1e-12)
    worst = min(x.value for x in hur.checks)
    rep.add(CheckRecord(tag="HURS^1/random", lam=c.lam, value=float(worst),
                        bound=0.0, passed=bool(worst >= -1e-12)))
    return checks + rep.checks


def _scs_records_sphere(s, tol, rng):
    lam = s.lam
    rep = Report()
    tol_res = max(tol, 1e-8)
    rep.extend(verify_identity_resolution_sphere(s, "spin", tol=tol_res))
    rep.extend(verify_identity_resolution_sphere(
        s, "omega", omega=random_omega_weights(s, rng), tol=tol_res))
    rep.extend(verify_identity_resolution_sphere(
        s, "phi", beta=rng.uniform(0.0, TWO_PI, lam + 1), tol=tol_res))

    spins = np.column_stack([spin_cs(s, l, _random_euler(rng)).coeffs
                             for l in range(lam + 1)])
    d_ = dispersion(s, spins)
    worst_sat = np.max(np.abs(d_.L_var - np.linalg.norm(d_.L_mean, axis=0)))
    rep.add_residual("LUR3''/spin-saturation", float(worst_sat), 1e-9, lam=lam)

    d_ = dispersion(s, random_states(rng, s.dim, 100))
    lmean = np.linalg.norm(d_.L_mean, axis=0)
    worst = float(np.min(d_.l2_mean - lmean * (lmean + 1.0)))
    rep.add(CheckRecord(tag="LUR3''/random", lam=lam, value=worst,
                        bound=0.0, passed=bool(worst >= -1e-10)))

    g = _random_euler(rng)
    pb = strong_scs_sphere_phi(s, rng.uniform(0.0, TWO_PI, lam + 1), g)
    rep.add_residual("LXURphi/L-var",
                     abs(dispersion(s, pb).L_var - lam * (lam + 2) / 2.0),
                     1e-10, lam=lam)
    p0 = strong_scs_sphere_phi(s, np.zeros(lam + 1), g)
    val = dispersion(s, p0).x_var
    rep.add(CheckRecord(tag="LXURphi/x-bound", lam=lam, value=float(val),
                        bound=1.0 / (lam + 1), passed=bool(val < 1.0 / (lam + 1))))
    return rep.checks


def _dispersion_bound(d: int, lam: int) -> float:
    """The bound on the dispersion minimum, for the circle (d=1) or sphere."""
    return (3.5 if d == 1 else 11.0) / (lam + 1) ** 2


def _minimize_records(space, d, tol, rng):
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
                         float(np.linalg.norm(space.L3 @ chi.coeffs)),
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
        checks += scs(space, tol, _rng(seed, d, lam, 1))
    if "minimize" in suites:
        checks += _minimize_records(space, d, tol, _rng(seed, d, lam, 2))
    return checks


def _spectra_records(config: ScanConfig) -> list:
    lo, hi = config.lam_lo, config.lam_hi
    diag_report = circle_diag_report if config.d == 1 else sphere_diag_report
    rep = diag_report(lo, hi, config.k, config.tol)
    # 20 random tridiagonals for the phase-invariance proposition, each
    # drawn as n, a, then its phases; they (and the circle's Toeplitz
    # matrix) are bisected in one kernel call
    rng = _rng(config.seed, config.d, 0, 3)
    cases = []
    for _ in range(20):
        n = int(rng.integers(2, 16))
        t = TridiagSpec(rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1))
        cases.append((t, random_rephasing(t, rng)))
    toeplitz = [coordinate_matrix(hi, np.inf)] if config.d == 1 else []
    spectra = eig_bisection_many([t for t, _ in cases] + toeplitz,
                                 min(config.tol, 1e-12))
    if toeplitz:
        resid = np.abs(spectra[-1].values - toeplitz_spectrum(2 * hi + 1)).max()
        rep.add_residual("valuecos", float(resid), config.tol, lam=hi)
    verdicts = [agrees_with_dense(sp.values, case, config.tol)
                for sp, case in zip(spectra, cases)]
    rep.add_verdict("p_nRecurrence/phase-invariance", all(verdicts), hi)
    return rep.checks


def run_scan(config: ScanConfig) -> tuple[int, Report]:
    """Run the selected suites and write the artifacts; returns the exit
    status and the assembled report."""
    report = Report(config=config.to_dict())
    per_lam = [s for s in config.suites if s != "spectra"]
    if per_lam:
        tasks = [(config.d, lam, config.k, config.tol, config.seed, per_lam)
                 for lam in range(config.lam_lo, config.lam_hi + 1)]
        # a fork pool starts all its workers at the first submit, so it is
        # never sized beyond the tasks or the CPUs
        workers = min(config.jobs, len(tasks), os.cpu_count() or 1)
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for checks in pool.map(_records_for_lambda, tasks):
                    report.checks.extend(checks)
        else:
            for t in tasks:
                report.checks.extend(_records_for_lambda(t))
    if "spectra" in config.suites:
        report.checks.extend(_spectra_records(config))
        if config.csv_path:
            write_spectra_csv(config, config.csv_path)

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


def write_spectra_csv(config: ScanConfig, path: str) -> int:
    """One row per eigenvalue: lambda,m,h,eigenvalue (m empty for d=1).
    The whole range is bisected in one batched call; the sphere's -m rows
    repeat the m block's spectrum."""
    lams = range(config.lam_lo, config.lam_hi + 1)
    if config.d == 1:
        mats = {(lam, 0): coordinate_matrix(lam, config.k) for lam in lams}
        order = [(lam, "", 0) for lam in lams]
    else:
        mats = {(lam, m): blk for lam in lams
                for m, blk in coordinate_blocks(lam, config.k).items()}
        order = [(lam, m, abs(m)) for lam in lams for m in range(-lam, lam + 1)]
    spectra = dict(zip(mats, eig_bisection_many(list(mats.values()))))
    rows = 0
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["lambda", "m", "h", "eigenvalue"])
        for lam, m, block in order:
            for h, v in enumerate(spectra[lam, block].values, start=1):
                out.writerow([lam, m, h, f"{v:.15g}"])
                rows += 1
    return rows


def emit_plot_data(config: ScanConfig, path: str) -> int:
    """Long-format plot-ready CSV: dispersion minima with their bound,
    top eigenvalues with the theorem bound, and the interlacing ladder."""
    lams = range(config.lam_lo, config.lam_hi + 1)
    mats = [coordinate_matrix(lam, config.k) if config.d == 1
            else coordinate_blocks(lam, config.k)[0] for lam in lams]
    rows = []
    for lam, spec in zip(lams, eig_bisection_many(mats)):
        _, val = minimize_dispersion(_build_space(config.d, lam, config.k))
        rows.append(("dispersion", lam, lam, val))
        rows.append(("dispersion-bound", lam, lam,
                     _dispersion_bound(config.d, lam)))
        rows.append(("alpha1", lam, lam, spec.values[0]))
        bound = alpha1_bound(config.d, lam)
        if bound is not None:
            rows.append(("alpha1-bound", lam, lam, bound))
        for v in spec.values:
            rows.append(("interlacing", lam, lam, v))
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["series", "lambda", "x", "y"])
        for series, lam, x, y in rows:
            out.writerow([series, lam, x, f"{y:.15g}"])
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


def _add_common(p):
    p.add_argument("--d", type=int, choices=(1, 2), default=1,
                   help="1 = fuzzy circle, 2 = fuzzy sphere")
    p.add_argument("--lambda", dest="lam", type=_parse_lambda, required=True,
                   metavar="A..B", help="truncation or truncation range")
    p.add_argument("--k", type=float, default=None,
                   help="sharpness override (default: minimal admissible)")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", dest="json_path", default=None)
    p.add_argument("--csv", dest="csv_path", default=None)
    p.add_argument("--jobs", type=int, default=1)


def _make_parser():
    parser = argparse.ArgumentParser(
        prog="fuzzysphere",
        description="Fuzzy circle and sphere laboratory: construction, "
                    "verification, spectra and coherent states.")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("build", "verify", "spectrum", "scs", "minimize", "plotdata"):
        p = sub.add_parser(verb)
        _add_common(p)
        if verb == "verify":
            p.add_argument("--suite", default="all",
                           choices=SUITES + ("all",))
    return parser


def _config_from_args(args, suites) -> ScanConfig:
    lo, hi = args.lam
    return ScanConfig(d=args.d, lam_lo=lo, lam_hi=hi, k=args.k, tol=args.tol,
                      seed=args.seed, suites=suites,
                      json_path=args.json_path, csv_path=args.csv_path,
                      jobs=args.jobs)


def main(argv=None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    lo, hi = args.lam
    if lo < 1:
        parser.error(f"lambda must be >= 1, got {lo}")
    if not 0 < args.tol < np.inf:
        parser.error(f"tolerance must be positive and finite, got {args.tol}")
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.seed < 0:
        parser.error(f"--seed must be >= 0, got {args.seed}")

    try:
        if args.verb == "build":
            for lam in range(lo, hi + 1):
                space = _build_space(args.d, lam, args.k)
                name = "circle" if args.d == 1 else "sphere"
                print(f"fuzzy {name}: lambda={lam} dim={space.dim} k={space.k:g}")
            return 0
        if args.verb == "spectrum":
            if not args.csv_path:
                parser.error("spectrum requires --csv")
            cfg = _config_from_args(args, ["spectra"])
            n = write_spectra_csv(cfg, args.csv_path)
            print(f"wrote {n} eigenvalue rows to {args.csv_path}")
            return 0
        if args.verb == "plotdata":
            if not args.csv_path:
                parser.error("plotdata requires --csv")
            cfg = _config_from_args(args, [])
            n = emit_plot_data(cfg, args.csv_path)
            print(f"wrote {n} rows to {args.csv_path}")
            return 0
        if args.verb in ("scs", "minimize"):
            suites = [args.verb]
        else:
            suites = list(SUITES) if args.suite == "all" else [args.suite]
        code, _ = run_scan(_config_from_args(args, suites))
        return code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
