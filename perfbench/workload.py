"""One call of a benchmark workload in a fresh interpreter.

    python3 perfbench/workload.py --workload NAME --seed N --report PATH
                                  [--smoke] [--trace SPANS] [--env]

Pins BLAS to one thread before numpy is imported, imports fuzzysphere.cli
(the end of set-up), runs the workload once, gates its output and prints
one JSON line.  `--report` is where a CLI workload writes its JSON report;
`--trace` runs the call with the package's public functions wrapped, adds
the per-layer metrics and writes every span to SPANS at the end.  `--env`
only imports the package and prints the environment block.
run.py starts this script; it is not meant to be run by hand.
"""

import os
import sys
from pathlib import Path

from spec import PINNED_ENV

os.environ.update(PINNED_ENV)
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import time  # noqa: E402

import gate  # noqa: E402
import spans  # noqa: E402
import spec  # noqa: E402

if __name__ == "__mp_main__" and os.environ.get(spans.SPOOL_ENV):
    # a pool worker started by spawn re-imports this script: trace it too
    spans.Tracer(os.environ[spans.SPOOL_ENV], worker=True).install()


def _vm_hwm_kib(pid="self") -> int:
    """Peak resident set size of a live process, from /proc."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for process {pid}")


def _meter_pools(cli) -> tuple:
    """Replace cli's ProcessPoolExecutor by a subclass that records each
    pool's lifetime and, before shutting it down, its workers' peak RSS."""
    lifetimes, worker_kib = [], []
    base = cli.ProcessPoolExecutor

    class MeteredPool(base):
        def __init__(self, *args, **kwargs):
            self._created = time.monotonic()
            super().__init__(*args, **kwargs)

        def shutdown(self, *args, **kwargs):
            for proc in list((getattr(self, "_processes", None) or {}).values()):
                with contextlib.suppress(OSError):
                    worker_kib.append(_vm_hwm_kib(proc.pid))
            super().shutdown(*args, **kwargs)
            lifetimes.append((self._created, time.monotonic()))

    cli.ProcessPoolExecutor = MeteredPool
    return lifetimes, worker_kib


def _git_commit(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = root / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy as np

    import fuzzysphere

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "blas_threads": dict(PINNED_ENV), "cpu_count": os.cpu_count(),
            "backend": fuzzysphere.BACKEND,
            "commit": _git_commit(Path(__file__).resolve().parent.parent)}


_PROBE = {}


def host_probe_s() -> float:
    """Seconds a fixed kernel of interpreted Python and small LAPACK calls
    takes right now, averaged over the CPUs this process may use: the
    kernel runs pinned to each in turn, since their speeds vary apart.  It
    uses no fuzzysphere code, so only the host's speed can move it."""
    if not _PROBE:
        import numpy as np

        h = np.add.outer(np.arange(40.0), 1j * np.arange(40.0))
        h = np.cos(h + h.T.conj())
        # eigh is bound here, before a traced call wraps numpy.linalg.eigh
        _PROBE.update(h=h + h.T.conj(), eigh=np.linalg.eigh)
    h, eigh = _PROBE["h"], _PROBE["eigh"]
    cpus = os.sched_getaffinity(0)
    took = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            t0 = time.perf_counter()
            for _ in range(spec.PROBE_REPEATS):
                acc = 0
                for i in range(spec.PROBE_LOOP):
                    acc += (i * i) % 7
                for _ in range(spec.PROBE_EIGH):
                    eigh(h)
            took.append(time.perf_counter() - t0)
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(took) / len(took)


def run_cli(cli, name: str, seed: int, smoke: bool, report: str) -> dict:
    w = spec.CLI_WORKLOADS[name]
    lam = w["lam"][1 if smoke else 0]
    argv = ["verify", "--d", str(w["d"]), "--lambda", lam, "--suite", "all",
            "--jobs", str(w["jobs"]), "--seed", str(seed), "--json", report]
    out = io.StringIO()
    t0 = time.monotonic()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    wall = time.monotonic() - t0
    peak = _vm_hwm_kib()
    records = None
    if code == 0 and os.path.isfile(report):
        with open(report) as fh:
            records = json.load(fh)["checks"]
    attempted, failed = gate.gate_checks(gate.load_reference(w["d"], lam),
                                         records, code)
    return {"wall_s": wall, "peak_kib": peak, "attempted": attempted,
            "failed": failed}


def run_tridiag(seed: int, smoke: bool) -> dict:
    """Phase invariance plus interlacing on random hermitian tridiagonals;
    afterwards, outside the timed region, every eigenvalue is compared with
    numpy's dense eigvalsh."""
    import numpy as np

    from fuzzysphere import spectral

    count = spec.TRIDIAG_MATRICES[1 if smoke else 0]
    gen = np.random.default_rng([seed, 5])
    cases = []
    for i in range(count):
        # every size in [2, 16) in turn: the seed picks the entries, not the work
        n = 2 + i % 14
        a = gen.normal(size=n - 1) + 1j * gen.normal(size=n - 1)
        cases.append((spectral.TridiagSpec(a), np.random.default_rng([seed, 5, i])))

    results = []
    t0 = time.monotonic()
    for t, rng in cases:
        # looked up on the module at call time, so the traced run sees wrappers
        ok = spectral.spectrum_invariance_under_phases(t, rng, tol=1e-10)
        outer = spectral.eig_bisection(t).values
        inner = spectral.eig_bisection(spectral.TridiagSpec(t.offdiag[:-1])).values
        ok = ok and bool(np.all(outer[:-1] >= inner - 1e-10)
                         and np.all(inner >= outer[1:] - 1e-10))
        results.append((ok, outer))
    wall = time.monotonic() - t0
    peak = _vm_hwm_kib()

    failed = 0
    for (t, _), (ok, values) in zip(cases, results):
        oracle = np.sort(np.linalg.eigvalsh(t.dense()))[::-1]
        failed += not ok or float(np.max(np.abs(values - oracle))) > 1e-10
    return {"wall_s": wall, "peak_kib": peak, "attempted": count,
            "failed": failed}


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=spec.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--trace", metavar="SPANS")
    p.add_argument("--env", action="store_true")
    args = p.parse_args()

    import fuzzysphere.cli as cli
    setup_end = time.monotonic()
    if args.env:
        print(json.dumps({"setup_end": setup_end, "env": environment()}))
        return

    jobs = spec.CLI_WORKLOADS.get(args.workload, {"jobs": 1})["jobs"]
    if jobs == 1:
        # a serial call runs on one CPU, so the probe times that CPU alone
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    host_probe_s()  # warm-up: numpy's first LAPACK call
    probe_before = host_probe_s()
    lifetimes, worker_kib = _meter_pools(cli)
    tracer = None
    if args.trace:
        spool = args.report + ".spool"
        os.mkdir(spool)
        os.environ[spans.SPOOL_ENV] = spool
        tracer = spans.Tracer(spool, worker=False)
        tracer.install()

    if args.workload == "tridiag-batch":
        result = run_tridiag(args.seed, args.smoke)
    else:
        result = run_cli(cli, args.workload, args.seed, args.smoke, args.report)
    result["probe_s"] = (probe_before, host_probe_s())
    result["peak_kib"] += sum(worker_kib)
    result["setup_end"] = setup_end
    if tracer is not None:
        batches = tracer.batches()
        result["layers"] = spans.layer_metrics(batches, jobs, lifetimes)
        with open(args.trace, "w") as fh:
            json.dump(batches, fh)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
